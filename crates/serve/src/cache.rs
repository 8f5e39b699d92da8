//! The server's shared extraction cache.
//!
//! Extraction is the expensive part of serving a frame request: walking
//! the density-sorted store and binning the volume. Clients stepping
//! through the same animation ask for the same `(frame, threshold)` pairs
//! over and over, so the server keeps the most recent extractions keyed
//! exactly that way.
//!
//! Concurrency: the map lock is held only for bookkeeping, never across a
//! build. A cold key is marked *building* and its extraction runs outside
//! the lock, so distinct cold keys extract concurrently on their own
//! connection threads; concurrent requests for the *same* cold key still
//! coalesce — later arrivals block on that key's condition variable and
//! count as hits when the first build lands. (The previous design held
//! one coarse mutex across the build, serializing unrelated extractions.)
//!
//! Each entry is a [`ServedFrame`]: the extraction plus, per protocol
//! version, the finished reply envelope, encoded on the first request
//! at that version and written verbatim on every later hit. The bytes
//! live inside the entry, so LRU eviction frees them with the frame and
//! the cache stays bounded by its entry count.

use crate::lru::LruOrder;
use crate::wire::{FrameEnvelope, VERSION};
use accelviz_core::hybrid::HybridFrame;
use parking_lot::Mutex;
use std::collections::HashMap;
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

/// A cached extraction and its reply envelopes, one lazily filled slot
/// per protocol version. Frames are immutable, so once a slot holds the
/// encoded envelope every later request at that version writes the same
/// bytes without re-encoding.
pub struct ServedFrame {
    /// The extracted frame.
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

/// In-flight build of one key. Waiters block on `cv` until `done` holds
/// the outcome; `Err(())` means the builder panicked and the key is free
/// to rebuild.
struct Pending {
    done: StdMutex<Option<Result<Arc<ServedFrame>, ()>>>,
    cv: Condvar,
}

enum Entry {
    Ready(Arc<ServedFrame>),
    Building(Arc<Pending>),
}

struct Inner {
    capacity: usize,
    /// LRU order over *ready* keys. Building keys are not listed and
    /// therefore cannot be evicted mid-build.
    order: LruOrder<CacheKey>,
    entries: HashMap<CacheKey, Entry>,
    hits: u64,
    misses: u64,
}

/// What [`ExtractionCache::probe`] found for a key — enough for the
/// server's load-shedder to decide whether admitting a request would
/// start a *new* extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Probe {
    /// The extraction is cached; serving it is cheap.
    Ready,
    /// Another thread is building it right now; a request would coalesce.
    Building,
    /// Nothing cached or in flight; a request would start an extraction.
    Vacant,
}

/// An LRU cache of extracted frames (and their encoded replies) shared
/// by all connection threads.
pub struct ExtractionCache {
    inner: Mutex<Inner>,
}

impl ExtractionCache {
    /// A cache holding at most `capacity` extractions.
    pub fn new(capacity: usize) -> ExtractionCache {
        assert!(capacity > 0, "cache needs at least one slot");
        ExtractionCache {
            inner: Mutex::new(Inner {
                capacity,
                order: LruOrder::new(),
                entries: HashMap::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// Returns the cached frame for `key`, building it with `build` on a
    /// miss. The returned flag is `true` on a hit. Concurrent calls with
    /// the same cold key run `build` once (the rest wait for it and hit);
    /// calls with distinct cold keys build concurrently.
    pub fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> HybridFrame,
    ) -> (Arc<ServedFrame>, bool) {
        let mut build = Some(build);
        loop {
            enum Found {
                Ready(Arc<ServedFrame>),
                Building(Arc<Pending>),
                Vacant,
            }
            let found = {
                let mut g = self.inner.lock();
                let found = match g.entries.get(&key) {
                    Some(Entry::Ready(frame)) => Found::Ready(Arc::clone(frame)),
                    Some(Entry::Building(p)) => Found::Building(Arc::clone(p)),
                    None => Found::Vacant,
                };
                match &found {
                    Found::Ready(_) => {
                        g.order.touch(key);
                        g.hits += 1;
                    }
                    // Coalesced into the in-flight build: a hit.
                    Found::Building(_) => g.hits += 1,
                    Found::Vacant => {
                        g.misses += 1;
                        let p = Arc::new(Pending {
                            done: StdMutex::new(None),
                            cv: Condvar::new(),
                        });
                        g.entries.insert(key, Entry::Building(Arc::clone(&p)));
                        drop(g);
                        return self.run_build(key, p, build.take().expect("build consumed once"));
                    }
                }
                found
            };
            let pending = match found {
                Found::Ready(frame) => return (frame, true),
                Found::Building(p) => p,
                Found::Vacant => unreachable!("vacant case returned above"),
            };
            // Wait outside every lock for the in-flight build.
            let mut d = pending.done.lock().unwrap_or_else(|e| e.into_inner());
            while d.is_none() {
                d = pending.cv.wait(d).unwrap_or_else(|e| e.into_inner());
            }
            match d.as_ref().expect("outcome present") {
                Ok(frame) => return (Arc::clone(frame), true),
                // The builder panicked; the key was vacated — retry (this
                // caller may become the new builder).
                Err(()) => continue,
            }
        }
    }

    /// Runs `build` for a key this thread just marked as building, then
    /// publishes the outcome to the map and to any coalesced waiters.
    fn run_build(
        &self,
        key: CacheKey,
        pending: Arc<Pending>,
        build: impl FnOnce() -> HybridFrame,
    ) -> (Arc<ServedFrame>, bool) {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
            Ok(frame) => {
                let frame = Arc::new(ServedFrame::new(frame));
                {
                    let mut g = self.inner.lock();
                    while g.order.len() >= g.capacity {
                        if let Some(victim) = g.order.pop_oldest() {
                            g.entries.remove(&victim);
                        }
                    }
                    g.order.touch(key);
                    g.entries.insert(key, Entry::Ready(Arc::clone(&frame)));
                }
                *pending.done.lock().unwrap_or_else(|e| e.into_inner()) =
                    Some(Ok(Arc::clone(&frame)));
                pending.cv.notify_all();
                (frame, false)
            }
            Err(payload) => {
                // Vacate the key and release the waiters so the cache is
                // not wedged by a failed extraction.
                self.inner.lock().entries.remove(&key);
                *pending.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(Err(()));
                pending.cv.notify_all();
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// A non-admitting peek at `key`: would a request hit, coalesce, or
    /// start a fresh extraction? Does not touch the LRU order or the
    /// hit/miss counters — the server's load-shedder calls this to
    /// decide whether to admit a request *before* committing to build.
    pub fn probe(&self, key: &CacheKey) -> Probe {
        match self.inner.lock().entries.get(key) {
            Some(Entry::Ready(_)) => Probe::Ready,
            Some(Entry::Building(_)) => Probe::Building,
            None => Probe::Vacant,
        }
    }

    /// (hits, misses) so far.
    pub fn counters(&self) -> (u64, u64) {
        let g = self.inner.lock();
        (g.hits, g.misses)
    }

    /// Extractions currently resident (including in-flight builds).
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

    #[test]
    fn second_request_hits_and_shares_the_arc() {
        let cache = ExtractionCache::new(4);
        let key = CacheKey::new(0, 0.5);
        let (a, hit_a) = cache.get_or_build(key, || frame(0));
        let (b, hit_b) = cache.get_or_build(key, || panic!("must not rebuild"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn distinct_thresholds_are_distinct_entries() {
        let cache = ExtractionCache::new(4);
        cache.get_or_build(CacheKey::new(0, 0.25), || frame(0));
        let (_, hit) = cache.get_or_build(CacheKey::new(0, 0.5), || frame(0));
        assert!(!hit, "a different threshold is a different extraction");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn negative_zero_threshold_shares_the_positive_zero_slot() {
        assert_eq!(CacheKey::new(3, -0.0), CacheKey::new(3, 0.0));
        let cache = ExtractionCache::new(4);
        cache.get_or_build(CacheKey::new(0, 0.0), || frame(0));
        let (_, hit) = cache.get_or_build(CacheKey::new(0, -0.0), || panic!("same slot"));
        assert!(hit, "-0.0 and 0.0 request the same extraction");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_oldest_untouched_key() {
        let cache = ExtractionCache::new(2);
        let (k0, k1, k2) = (
            CacheKey::new(0, 1.0),
            CacheKey::new(1, 1.0),
            CacheKey::new(2, 1.0),
        );
        cache.get_or_build(k0, || frame(0));
        cache.get_or_build(k1, || frame(1));
        cache.get_or_build(k0, || panic!("k0 is resident")); // touch k0
        cache.get_or_build(k2, || frame(2)); // evicts k1
        assert!(cache.get_or_build(k0, || panic!("k0 survived")).1);
        let (_, hit) = cache.get_or_build(k1, || frame(1));
        assert!(!hit, "k1 was the LRU victim");
    }

    #[test]
    fn envelopes_encode_once_per_version_until_the_key_is_evicted() {
        let cache = ExtractionCache::new(1);
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
        let (a, _) = cache.get_or_build(k0, || frame(0));
        let (v1, v2) = (envelope(&a, V1), envelope(&a, V2));
        assert_ne!(v1, v2, "each version has its own slot");
        let (again, hit) = cache.get_or_build(k0, || panic!("k0 is resident"));
        assert!(hit);
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
        cache.get_or_build(k1, || frame(1)); // evicts k0 and its envelopes
        let (rebuilt, hit) = cache.get_or_build(k0, || frame(0));
        assert!(!hit);
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
        let cache = Arc::new(ExtractionCache::new(4));
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
                cache.get_or_build(CacheKey::new(0, 0.5), || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Long enough that the other threads arrive mid-build.
                    std::thread::sleep(Duration::from_millis(50));
                    frame(0)
                })
            }));
        }
        let results: Vec<(Arc<ServedFrame>, bool)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "build ran exactly once");
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        for (f, _) in &results[1..] {
            assert!(Arc::ptr_eq(&results[0].0, f), "all callers share one Arc");
        }
    }

    #[test]
    fn distinct_cold_keys_build_concurrently() {
        let cache = Arc::new(ExtractionCache::new(8));
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
                cache.get_or_build(CacheKey::new(i, 1.0), || {
                    // Both builders must be inside their builds at the
                    // same time for this rendezvous to pass; under the
                    // old whole-build lock it would deadlock.
                    in_build.wait();
                    frame(i as usize)
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.counters(), (0, 2));
    }

    #[test]
    fn probe_sees_all_three_states_without_admitting() {
        let cache = Arc::new(ExtractionCache::new(4));
        let key = CacheKey::new(0, 0.5);
        assert_eq!(cache.probe(&key), Probe::Vacant);

        let gate = Arc::new(Barrier::new(2));
        let builder = {
            let (cache, gate) = (Arc::clone(&cache), Arc::clone(&gate));
            std::thread::spawn(move || {
                cache.get_or_build(key, || {
                    gate.wait(); // probe happens while we are in here
                    gate.wait();
                    frame(0)
                })
            })
        };
        gate.wait();
        assert_eq!(cache.probe(&key), Probe::Building);
        gate.wait();
        builder.join().unwrap();
        assert_eq!(cache.probe(&key), Probe::Ready);
        // Probing never counted as a hit or a miss beyond the one build.
        assert_eq!(cache.counters(), (0, 1));
    }

    #[test]
    fn panicking_build_vacates_the_key_for_retry() {
        let cache = ExtractionCache::new(4);
        let key = CacheKey::new(0, 0.5);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(key, || panic!("extraction failed"));
        }));
        assert!(poisoned.is_err());
        assert_eq!(cache.len(), 0, "failed build must not leave a residue");
        let (_, hit) = cache.get_or_build(key, || frame(0));
        assert!(!hit, "key is rebuildable after a failed build");
    }
}
