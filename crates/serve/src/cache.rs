//! The coalescing frame cache the server and the router share.
//!
//! Producing a frame is the expensive part of serving a request: the
//! server walks the density-sorted store and bins the volume, the router
//! makes an upstream hop to a shard. Clients stepping through the same
//! animation ask for the same `(frame, threshold)` pairs over and over,
//! so both keep the most recent frames keyed exactly that way in one
//! [`FrameCache`].
//!
//! Concurrency: the map lock is held only for bookkeeping, never across a
//! build. A cold key is marked *building* and its build runs outside the
//! lock, so distinct cold keys build concurrently on their own connection
//! threads; concurrent requests for the *same* cold key coalesce — later
//! arrivals block on that key's condition variable and share the first
//! build's outcome.
//!
//! Failure: a build that returns `Err` (a dead shard, a disk error) or
//! panics vacates its key and hands the error to every coalesced waiter.
//! Failures are never cached, so the next request for the key builds
//! again; a panic then resumes unwinding in the builder.
//!
//! Capacity is a budget in whatever unit the weight function passed to
//! [`FrameCache::new`] counts: the server weighs every frame 1 (an entry
//! count), the router weighs frames by resident bytes.
//!
//! Each entry is a [`ServedFrame`]: the frame plus, per protocol version,
//! the finished reply envelope, encoded on the first request at that
//! version and written verbatim on every later hit. The bytes live inside
//! the entry, so LRU eviction frees them with the frame.

use crate::lru::LruOrder;
use crate::wire::{FrameEnvelope, VERSION};
use accelviz_core::hybrid::HybridFrame;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

/// Cache key: frame index plus the exact threshold bits. Using `to_bits`
/// sidesteps float equality — a client re-requesting the same dialed
/// threshold hits; any different dial is a different extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Frame index.
    pub frame: u32,
    /// `f64::to_bits` of the extraction threshold.
    pub threshold_bits: u64,
}

impl CacheKey {
    /// Key for `frame` extracted at `threshold`. `-0.0` is normalized to
    /// `0.0`: the two compare equal everywhere in extraction, so they
    /// must not occupy two cache slots for the same result.
    pub fn new(frame: u32, threshold: f64) -> CacheKey {
        let threshold = if threshold == 0.0 { 0.0 } else { threshold };
        CacheKey {
            frame,
            threshold_bits: threshold.to_bits(),
        }
    }
}

/// A cached frame and its reply envelopes, one lazily filled slot per
/// protocol version. Frames are immutable, so once a slot holds the
/// encoded envelope every later request at that version writes the same
/// bytes without re-encoding.
pub struct ServedFrame {
    /// The frame.
    pub frame: HybridFrame,
    /// Slot `v - 1` holds the `RESP_FRAME` envelope for version `v`.
    envelopes: [OnceLock<FrameEnvelope>; VERSION as usize],
}

impl ServedFrame {
    /// Wraps `frame` with every envelope slot empty.
    pub fn new(frame: HybridFrame) -> ServedFrame {
        ServedFrame {
            frame,
            envelopes: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The envelope slot for a session at `version` (1 ..= [`VERSION`]).
    /// `get_or_init` on it encodes at most once, even when concurrent
    /// first requests race for the same slot.
    pub fn envelope(&self, version: u16) -> &OnceLock<FrameEnvelope> {
        &self.envelopes[version as usize - 1]
    }
}

/// The error every caller sharing a panicked build receives.
const BUILD_PANICKED: &str = "building this frame panicked";

/// What a build yields to its caller and every coalesced waiter.
pub type BuildResult = Result<Arc<ServedFrame>, String>;

/// How [`FrameCache::get_or_build`] satisfied a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The frame was resident.
    Hit,
    /// Joined a build another caller had in flight and shared its
    /// result, failure included.
    Coalesced,
    /// This caller ran the build.
    Built,
}

/// What [`FrameCache::probe`] found for a key — enough for the server's
/// load-shedder to decide whether admitting a request would start a
/// *new* extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The frame is cached; serving it is cheap.
    Ready,
    /// Another thread is building it right now; a request would coalesce.
    Building,
    /// Nothing cached or in flight; a request would start a build.
    Vacant,
}

/// In-flight build of one key. Waiters block on `cv` until `done` holds
/// the shared outcome.
struct Pending {
    done: StdMutex<Option<BuildResult>>,
    cv: Condvar,
}

enum Entry {
    Ready(Arc<ServedFrame>),
    Building(Arc<Pending>),
}

struct Inner {
    budget: u64,
    /// Summed weight of the `Ready` entries.
    resident: u64,
    /// LRU order over *ready* keys. Building keys are not listed and
    /// therefore cannot be evicted mid-build.
    order: LruOrder<CacheKey>,
    entries: HashMap<CacheKey, Entry>,
}

/// A weighted LRU of served frames with same-key build coalescing,
/// shared by all connection threads.
pub struct FrameCache {
    inner: Mutex<Inner>,
    weigh: fn(&HybridFrame) -> u64,
}

impl FrameCache {
    /// A cache whose resident frames weigh at most `budget` in total,
    /// each weighed by `weigh`. A frame heavier than the whole budget is
    /// still admitted (its coalesced waiters need it) and becomes the
    /// next eviction victim.
    pub fn new(budget: u64, weigh: fn(&HybridFrame) -> u64) -> FrameCache {
        assert!(budget > 0, "cache needs a positive budget");
        FrameCache {
            inner: Mutex::new(Inner {
                budget,
                resident: 0,
                order: LruOrder::new(),
                entries: HashMap::new(),
            }),
            weigh,
        }
    }

    /// Returns the cached frame for `key`, building it with `build` when
    /// it is neither cached nor already in flight. Concurrent calls with
    /// the same cold key run `build` once and share its outcome; calls
    /// with distinct cold keys build concurrently.
    pub fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<HybridFrame, String>,
    ) -> (BuildResult, Outcome) {
        let pending = {
            let mut g = self.inner.lock();
            match g.entries.get(&key) {
                Some(Entry::Ready(frame)) => {
                    let frame = Arc::clone(frame);
                    g.order.touch(key);
                    return (Ok(frame), Outcome::Hit);
                }
                Some(Entry::Building(p)) => Arc::clone(p),
                None => {
                    let p = Arc::new(Pending {
                        done: StdMutex::new(None),
                        cv: Condvar::new(),
                    });
                    g.entries.insert(key, Entry::Building(Arc::clone(&p)));
                    drop(g);
                    return (self.run_build(key, p, build), Outcome::Built);
                }
            }
        };
        // Coalesced: wait outside every lock for the in-flight build.
        let mut d = pending.done.lock().unwrap_or_else(|e| e.into_inner());
        while d.is_none() {
            d = pending.cv.wait(d).unwrap_or_else(|e| e.into_inner());
        }
        (d.clone().expect("outcome present"), Outcome::Coalesced)
    }

    /// Runs `build` for a key this thread just marked as building, then
    /// publishes the outcome to the map (success only) and to every
    /// coalesced waiter (success or failure).
    fn run_build(
        &self,
        key: CacheKey,
        pending: Arc<Pending>,
        build: impl FnOnce() -> Result<HybridFrame, String>,
    ) -> BuildResult {
        let (outcome, panic) = match catch_unwind(AssertUnwindSafe(build)) {
            Ok(built) => (built.map(|frame| Arc::new(ServedFrame::new(frame))), None),
            Err(payload) => (Err(BUILD_PANICKED.to_string()), Some(payload)),
        };
        {
            let mut g = self.inner.lock();
            match &outcome {
                Ok(served) => {
                    // Evict oldest ready frames until the newcomer fits,
                    // or admit it anyway once nothing is left to evict.
                    // The newcomer is not in `order` yet, so it never
                    // evicts itself.
                    let incoming = (self.weigh)(&served.frame);
                    while g.resident + incoming > g.budget {
                        let Some(victim) = g.order.pop_oldest() else {
                            break;
                        };
                        if let Some(Entry::Ready(evicted)) = g.entries.remove(&victim) {
                            g.resident -= (self.weigh)(&evicted.frame);
                        }
                    }
                    g.order.touch(key);
                    g.resident += incoming;
                    g.entries.insert(key, Entry::Ready(Arc::clone(served)));
                }
                // A failure vacates the key, so the next request builds
                // again instead of inheriting a stale error.
                Err(_) => {
                    g.entries.remove(&key);
                }
            }
        }
        *pending.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome.clone());
        pending.cv.notify_all();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        outcome
    }

    /// A non-admitting peek at `key`: would a request hit, coalesce, or
    /// start a fresh build? Does not touch the LRU order — the server's
    /// load-shedder calls this to decide whether to admit a request
    /// *before* committing to build.
    pub fn probe(&self, key: &CacheKey) -> Probe {
        match self.inner.lock().entries.get(key) {
            Some(Entry::Ready(_)) => Probe::Ready,
            Some(Entry::Building(_)) => Probe::Building,
            None => Probe::Vacant,
        }
    }

    /// Frames currently resident (including in-flight builds).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frame_envelope, V1, V2};
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn frame(step: usize) -> HybridFrame {
        let ps = Distribution::default_beam().sample(500, step as u64 + 1);
        let data = partition(&ps, PlotType::XYZ, BuildParams::default());
        HybridFrame::from_partition(&data, step, f64::INFINITY, [4, 4, 4])
    }

    /// A cache counting entries, as the server runs it.
    fn counted(capacity: u64) -> FrameCache {
        FrameCache::new(capacity, |_| 1)
    }

    /// A cache budgeted by frame bytes, as the router runs it.
    fn by_bytes(budget: u64) -> FrameCache {
        FrameCache::new(budget, HybridFrame::total_bytes)
    }

    /// `get_or_build` for a build that cannot fail.
    fn get(
        cache: &FrameCache,
        key: CacheKey,
        build: impl FnOnce() -> HybridFrame,
    ) -> (Arc<ServedFrame>, Outcome) {
        let (result, outcome) = cache.get_or_build(key, || Ok(build()));
        (result.expect("build succeeds"), outcome)
    }

    #[test]
    fn second_request_hits_and_shares_the_arc() {
        let cache = counted(4);
        let key = CacheKey::new(0, 0.5);
        let (a, first) = get(&cache, key, || frame(0));
        let (b, second) = get(&cache, key, || panic!("must not rebuild"));
        assert_eq!(first, Outcome::Built);
        assert_eq!(second, Outcome::Hit);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_thresholds_are_distinct_entries() {
        let cache = counted(4);
        get(&cache, CacheKey::new(0, 0.25), || frame(0));
        let (_, outcome) = get(&cache, CacheKey::new(0, 0.5), || frame(0));
        assert_eq!(
            outcome,
            Outcome::Built,
            "a different threshold is a different extraction"
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn negative_zero_threshold_shares_the_positive_zero_slot() {
        assert_eq!(CacheKey::new(3, -0.0), CacheKey::new(3, 0.0));
        let cache = counted(4);
        get(&cache, CacheKey::new(0, 0.0), || frame(0));
        let (_, outcome) = get(&cache, CacheKey::new(0, -0.0), || panic!("same slot"));
        assert_eq!(
            outcome,
            Outcome::Hit,
            "-0.0 and 0.0 request the same extraction"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_oldest_untouched_key() {
        let cache = counted(2);
        let (k0, k1, k2) = (
            CacheKey::new(0, 1.0),
            CacheKey::new(1, 1.0),
            CacheKey::new(2, 1.0),
        );
        get(&cache, k0, || frame(0));
        get(&cache, k1, || frame(1));
        get(&cache, k0, || panic!("k0 is resident")); // touch k0
        get(&cache, k2, || frame(2)); // evicts k1
        assert_eq!(get(&cache, k0, || panic!("k0 survived")).1, Outcome::Hit);
        let (_, outcome) = get(&cache, k1, || frame(1));
        assert_eq!(outcome, Outcome::Built, "k1 was the LRU victim");
    }

    #[test]
    fn envelopes_encode_once_per_version_until_the_key_is_evicted() {
        let cache = counted(1);
        let encodes = AtomicU64::new(0);
        let envelope = |served: &ServedFrame, version: u16| {
            served
                .envelope(version)
                .get_or_init(|| {
                    encodes.fetch_add(1, Ordering::SeqCst);
                    encode_frame_envelope(&served.frame, version)
                })
                .clone()
        };
        let (k0, k1) = (CacheKey::new(0, 1.0), CacheKey::new(1, 1.0));
        let (a, _) = get(&cache, k0, || frame(0));
        let (v1, v2) = (envelope(&a, V1), envelope(&a, V2));
        assert_ne!(v1, v2, "each version has its own slot");
        let (again, outcome) = get(&cache, k0, || panic!("k0 is resident"));
        assert_eq!(outcome, Outcome::Hit);
        assert_eq!(
            (envelope(&again, V1), envelope(&again, V2)),
            (v1, v2.clone())
        );
        assert_eq!(
            encodes.load(Ordering::SeqCst),
            2,
            "hits reuse the stored bytes"
        );

        drop((a, again));
        get(&cache, k1, || frame(1)); // evicts k0 and its envelopes
        let (rebuilt, outcome) = get(&cache, k0, || frame(0));
        assert_eq!(outcome, Outcome::Built);
        assert_eq!(
            envelope(&rebuilt, V2),
            v2,
            "a rebuild encodes the same bytes"
        );
        assert_eq!(
            encodes.load(Ordering::SeqCst),
            3,
            "but it encodes them again"
        );
    }

    #[test]
    fn same_cold_key_builds_once_across_threads() {
        let cache = Arc::new(counted(4));
        let builds = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (cache, builds, barrier) = (
                Arc::clone(&cache),
                Arc::clone(&builds),
                Arc::clone(&barrier),
            );
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                get(&cache, CacheKey::new(0, 0.5), || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Long enough that the other threads arrive mid-build.
                    std::thread::sleep(Duration::from_millis(50));
                    frame(0)
                })
            }));
        }
        let results: Vec<(Arc<ServedFrame>, Outcome)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "build ran exactly once");
        assert_eq!(
            results.iter().filter(|(_, o)| *o == Outcome::Built).count(),
            1
        );
        for (f, _) in &results[1..] {
            assert!(Arc::ptr_eq(&results[0].0, f), "all callers share one Arc");
        }
    }

    #[test]
    fn distinct_cold_keys_build_concurrently() {
        let cache = Arc::new(counted(8));
        let barrier = Arc::new(Barrier::new(2));
        let in_build = Arc::new(Barrier::new(2));
        let mut handles = Vec::new();
        for i in 0..2u32 {
            let (cache, barrier, in_build) = (
                Arc::clone(&cache),
                Arc::clone(&barrier),
                Arc::clone(&in_build),
            );
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                get(&cache, CacheKey::new(i, 1.0), || {
                    // Both builders must be inside their builds at the
                    // same time for this rendezvous to pass; under a
                    // whole-build lock it would deadlock.
                    in_build.wait();
                    frame(i as usize)
                })
                .1
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Outcome::Built);
        }
    }

    #[test]
    fn probe_sees_all_three_states_without_admitting() {
        let cache = Arc::new(counted(4));
        let key = CacheKey::new(0, 0.5);
        assert_eq!(cache.probe(&key), Probe::Vacant);

        let gate = Arc::new(Barrier::new(2));
        let builder = {
            let (cache, gate) = (Arc::clone(&cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                get(&cache, key, || {
                    gate.wait(); // probe happens while we are in here
                    gate.wait();
                    frame(0)
                })
                .1
            })
        };
        gate.wait();
        assert_eq!(cache.probe(&key), Probe::Building);
        gate.wait();
        // Probing never admitted a build of its own: the one build ran.
        assert_eq!(builder.join().unwrap(), Outcome::Built);
        assert_eq!(cache.probe(&key), Probe::Ready);
        assert_eq!(get(&cache, key, || panic!("resident")).1, Outcome::Hit);
    }

    #[test]
    fn panicking_build_vacates_the_key_for_retry() {
        let cache = counted(4);
        let key = CacheKey::new(0, 0.5);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            get(&cache, key, || panic!("extraction failed"));
        }));
        assert!(poisoned.is_err());
        assert_eq!(cache.len(), 0, "failed build must not leave a residue");
        let (_, outcome) = get(&cache, key, || frame(0));
        assert_eq!(
            outcome,
            Outcome::Built,
            "key is rebuildable after a failed build"
        );
    }

    #[test]
    fn waiter_on_a_panicking_build_gets_an_error_and_the_key_rebuilds() {
        let cache = Arc::new(counted(4));
        let key = CacheKey::new(0, 0.5);
        let gate = Arc::new(Barrier::new(2));
        let builder = {
            let (cache, gate) = (Arc::clone(&cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                get(&cache, key, || {
                    gate.wait(); // the waiter is about to coalesce
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("extraction failed")
                })
            })
        };
        gate.wait();
        let (waited, outcome) = cache.get_or_build(key, || panic!("waiter must coalesce"));
        assert_eq!(outcome, Outcome::Coalesced);
        assert!(waited.is_err(), "the waiter is released with an error");
        assert!(builder.join().is_err(), "the builder still unwinds");
        assert_eq!(get(&cache, key, || frame(0)).1, Outcome::Built);
    }

    #[test]
    fn fetch_cache_coalesces_and_shares_failures_without_caching_them() {
        let cache = Arc::new(by_bytes(1 << 20));
        let key = CacheKey::new(0, 1.0);
        let calls = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(2));

        // First wave: the fetch fails; a waiter that arrives mid-fetch
        // shares the failure.
        let waiter = {
            let (cache, gate) = (Arc::clone(&cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                gate.wait(); // fetcher is inside its fetch
                cache
                    .get_or_build(key, || panic!("waiter must coalesce, not fetch"))
                    .0
            })
        };
        let (first, _) = cache.get_or_build(key, || {
            calls.fetch_add(1, Ordering::SeqCst);
            gate.wait();
            // Give the waiter time to register on the pending slot.
            std::thread::sleep(Duration::from_millis(50));
            Err("shard down".to_string())
        });
        assert_eq!(first.err().unwrap(), "shard down");
        assert_eq!(waiter.join().unwrap().err().unwrap(), "shard down");

        // The failure was not cached: the next call fetches again and a
        // success is then served from cache.
        let fetch_calls = Arc::clone(&calls);
        let (second, _) = cache.get_or_build(key, move || {
            fetch_calls.fetch_add(1, Ordering::SeqCst);
            Ok(frame(0))
        });
        let second = second.unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let (third, _) = cache.get_or_build(key, || panic!("cached now"));
        assert!(Arc::ptr_eq(&third.unwrap(), &second));
    }

    #[test]
    fn fetch_cache_evicts_lru_by_bytes() {
        // A budget of exactly two frames: the third insert must evict
        // the least recently used resident frame.
        let frame_bytes = frame(0).total_bytes();
        let cache = by_bytes(2 * frame_bytes);
        let keys: Vec<CacheKey> = (0..3).map(|f| CacheKey::new(f, 1.0)).collect();
        for (i, &k) in keys[..2].iter().enumerate() {
            get(&cache, k, || frame(i));
        }
        // Touch key 0 so key 1 is the LRU victim.
        get(&cache, keys[0], || panic!("resident"));
        get(&cache, keys[2], || frame(2));
        get(&cache, keys[0], || panic!("survived"));
        let mut refetched = false;
        get(&cache, keys[1], || {
            refetched = true;
            frame(1)
        });
        assert!(refetched, "key 1 was the LRU victim");
    }

    #[test]
    fn fetch_cache_admits_frames_larger_than_the_whole_budget() {
        let cache = by_bytes(1);
        let key = CacheKey::new(0, 1.0);
        let (first, _) = get(&cache, key, || frame(0));
        // Still resident: the just-inserted frame is never its own
        // eviction victim, so its coalesced waiters are served.
        let (again, _) = get(&cache, key, || panic!("resident"));
        assert!(Arc::ptr_eq(&again, &first));
        // The next distinct insert evicts it.
        get(&cache, CacheKey::new(1, 1.0), || frame(1));
        let mut refetched = false;
        get(&cache, key, || {
            refetched = true;
            frame(0)
        });
        assert!(refetched, "the oversized frame was the next victim");
    }
}
