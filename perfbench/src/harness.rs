//! Timing primitives shared by every workload.
//!
//! Every operation carries its own start and end stamp, taken on the
//! thread that ran it. Aggregate wall time is `max(end) - min(start)`
//! over all stamps, so it cannot depend on when a coordinating thread
//! happens to be scheduled (a wall clock read by the main thread after a
//! start barrier undercounts whenever the workers finish first). Summaries
//! are medians and quantiles, never best-of.

use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Start and end of one operation.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    pub start: Instant,
    pub end: Instant,
}

impl Stamp {
    /// Runs `op` and stamps it.
    pub fn time<T>(op: impl FnOnce() -> T) -> (Stamp, T) {
        let start = Instant::now();
        let out = op();
        (
            Stamp {
                start,
                end: Instant::now(),
            },
            out,
        )
    }

    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// `max(end) - min(start)` over `stamps`, in seconds; 0 when empty.
pub fn wall_seconds<'a>(stamps: impl IntoIterator<Item = &'a Stamp>) -> f64 {
    let mut first: Option<Instant> = None;
    let mut last: Option<Instant> = None;
    for s in stamps {
        first = Some(first.map_or(s.start, |f| f.min(s.start)));
        last = Some(last.map_or(s.end, |l| l.max(s.end)));
    }
    match (first, last) {
        (Some(f), Some(l)) => (l - f).as_secs_f64(),
        _ => 0.0,
    }
}

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 when there are none (a run whose every operation
/// failed reports zeros and its failure count).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One closed-loop load generator: it issues its next operation only
/// after the previous one completed.
pub trait LoadGen: Send {
    /// Called on the generator's thread right after the start barrier.
    fn begin(&mut self) {}
    /// Issues one operation and returns once its reply is complete;
    /// `false` ends this generator's window early.
    fn step(&mut self) -> bool;
    /// Called on the generator's thread when its window ends.
    fn end(&mut self) {}
}

/// Runs `clients` closed-loop generators for `duration`. Each one is
/// built by `make` on its own thread before the start barrier
/// (connections are opened there, untimed). The deadline is fixed by the
/// first generator through the barrier, so none starts its window late.
/// Returns the generators in client order.
pub fn closed_loop<G: LoadGen>(
    clients: usize,
    duration: Duration,
    make: impl Fn(usize) -> G + Sync,
) -> Vec<G> {
    let barrier = Barrier::new(clients);
    let deadline = std::sync::OnceLock::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, deadline, make) = (&barrier, &deadline, &make);
                scope.spawn(move || {
                    let mut gen = make(c);
                    barrier.wait();
                    let end = *deadline.get_or_init(|| Instant::now() + duration);
                    gen.begin();
                    while Instant::now() < end && gen.step() {}
                    gen.end();
                    gen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLEEP: Duration = Duration::from_millis(20);

    #[test]
    fn wall_covers_every_stamp() {
        let t0 = Instant::now();
        let stamps = [
            Stamp {
                start: t0 + Duration::from_millis(5),
                end: t0 + Duration::from_millis(30),
            },
            Stamp {
                start: t0,
                end: t0 + Duration::from_millis(10),
            },
        ];
        let wall = wall_seconds(&stamps);
        assert!((wall - 0.030).abs() < 1e-9, "wall {wall}");
        assert_eq!(wall_seconds(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate_and_never_pick_the_best() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    /// A fake operation that sleeps a known duration: every per-op stamp
    /// and the aggregate wall time must account for all of it, whatever
    /// the coordinating thread does after the start barrier.
    #[test]
    fn closed_loop_stamps_a_sleeping_operation() {
        const OPS: usize = 5;
        let clients = 2;
        struct Sleeper(Vec<Stamp>);
        impl LoadGen for Sleeper {
            fn step(&mut self) -> bool {
                let (stamp, ()) = Stamp::time(|| std::thread::sleep(SLEEP));
                self.0.push(stamp);
                self.0.len() < OPS
            }
        }
        let logs = closed_loop(clients, Duration::from_secs(30), |_| Sleeper(Vec::new()));
        let stamps: Vec<Stamp> = logs.into_iter().flat_map(|s| s.0).collect();
        assert_eq!(stamps.len(), clients * OPS);
        for s in &stamps {
            assert!(s.ms() >= SLEEP.as_secs_f64() * 1e3, "op {} ms", s.ms());
        }
        // Each client ran its ops back to back, so the wall is at least
        // one client's serial time, and well under the deadline.
        let wall = wall_seconds(&stamps);
        assert!(wall >= OPS as f64 * SLEEP.as_secs_f64(), "wall {wall}");
        assert!(wall < 5.0, "wall {wall}");
    }

    /// The old storm() bug: the wall clock read by a coordinating thread
    /// that is descheduled past the start barrier misses work the clients
    /// already did. Stamps taken on the clients do not.
    #[test]
    fn late_coordinator_cannot_shrink_the_wall() {
        let barrier = Barrier::new(2);
        let stamps = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                barrier.wait();
                let (stamp, ()) = Stamp::time(|| std::thread::sleep(SLEEP * 3));
                stamp
            });
            barrier.wait();
            // The coordinator is late by more than the whole workload's
            // first half; a t0 read here would undercount.
            std::thread::sleep(SLEEP * 2);
            let late_t0 = Instant::now();
            let stamp = worker.join().expect("worker");
            (stamp, late_t0)
        });
        let (stamp, late_t0) = stamps;
        let honest = wall_seconds(&[stamp]);
        let undercounted = (stamp.end - late_t0).as_secs_f64();
        assert!(honest >= 3.0 * SLEEP.as_secs_f64());
        assert!(undercounted < honest);
    }
}
