//! Residency management over an on-disk run: which frames are in memory.
//!
//! A [`ResidentRun`] keeps every frame's octree resident (node blobs are
//! tiny — 88 bytes per node — and reading them eagerly doubles as a
//! fail-fast checksum pass over all directory metadata), together with
//! its density-ordered leaves, derived and validated once at open.
//! Particle data, the bulk of a run, pages in on demand and pages out
//! under one explicit byte budget, in one of two shapes per frame:
//!
//! - [`ResidentRun::frame`], the serving path, holds only what hybrid
//!   frames need — the kept prefix of the density-sorted particles and
//!   the frame's density grid. The tree says how long the kept prefix is
//!   at a threshold, so once a frame's grid is held a build reads only
//!   the chunks covering that prefix ("discarded particles are never
//!   read from disk", §2.3), or nothing if a long enough prefix is
//!   resident. The grid does not depend on the threshold: it is binned
//!   once per frame, from one full read, on the frame's first touch.
//! - [`ResidentRun::fetch`] pages in a whole frame as a
//!   [`PartitionedData`], for callers that need every particle.
//!
//! Recency is tracked by the same [`LruOrder`] the serve layer's caches
//! use, so the whole pipeline shares one eviction policy.
//!
//! Loads happen under the residency lock: a simplification that trades
//! concurrent cold loads for the guarantee that a frame is never fetched
//! twice in a race. The serve layer already bounds concurrent extraction
//! work above this layer, so the serialization is not the bottleneck.

use crate::lru::LruOrder;
use crate::run::RunStore;
use accelviz_beam::io::BYTES_PER_PARTICLE;
use accelviz_beam::particle::Particle;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::density::DensityGrid;
use accelviz_octree::extraction::prefix_cut;
use accelviz_octree::node::Octree;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::{check_leaf_order, leaf_order, PartitionedData};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A run file plus an in-memory residency window over its frames.
pub struct ResidentRun {
    store: RunStore,
    /// Every frame's octree and plot type, always resident.
    trees: Vec<(Octree, PlotType)>,
    /// Every frame's leaf indices in density order, validated at open
    /// against the frame's particle count.
    leaves: Vec<Vec<u32>>,
    budget_bytes: u64,
    state: Mutex<Residency>,
}

struct Residency {
    lru: LruOrder<u32>,
    resident: HashMap<u32, Entry>,
    resident_bytes: u64,
    cold_loads: u64,
    warm_hits: u64,
    evictions: u64,
}

/// What one resident frame holds.
struct Entry {
    particles: Held,
    /// The frame's density grid, binned once from all of its particles.
    grid: Option<Arc<DensityGrid>>,
}

/// The particles a resident frame holds.
#[derive(Clone)]
enum Held {
    /// The whole frame, paged in by [`ResidentRun::fetch`].
    Frame(Arc<PartitionedData>),
    /// A leading run of the density-sorted particles, paged in by
    /// [`ResidentRun::frame`].
    Prefix(Arc<[Particle]>),
}

impl Held {
    fn particles(&self) -> &[Particle] {
        match self {
            Held::Frame(data) => data.particles(),
            Held::Prefix(prefix) => prefix,
        }
    }
}

impl Entry {
    /// Bytes this entry keeps in memory: its particles plus its grid's
    /// `f32` cells. This is what the residency budget is charged.
    fn bytes(&self) -> u64 {
        let grid = self
            .grid
            .as_ref()
            .map_or(0, |g| std::mem::size_of_val(g.data()) as u64);
        self.particles.particles().len() as u64 * BYTES_PER_PARTICLE + grid
    }
}

impl Residency {
    /// Installs `entry` as frame `key`'s, marks it most-recently-used,
    /// then evicts least-recently-used frames until the budget holds
    /// again. The just-installed frame is never evicted, so a single
    /// frame larger than the whole budget still serves (the budget is
    /// then transiently exceeded).
    fn admit(&mut self, key: u32, entry: Entry, budget_bytes: u64) {
        self.resident_bytes += entry.bytes();
        if let Some(old) = self.resident.insert(key, entry) {
            self.resident_bytes -= old.bytes();
        }
        self.lru.touch(key);
        while self.resident_bytes > budget_bytes && self.resident.len() > 1 {
            // The most-recently-touched key is the frame just installed,
            // so pop_oldest can never pick it while anything else remains.
            let victim = self.lru.pop_oldest().expect("resident set is non-empty");
            if let Some(evicted) = self.resident.remove(&victim) {
                self.resident_bytes -= evicted.bytes();
                self.evictions += 1;
            }
        }
    }
}

/// Result of one residency request: the value plus how it was served.
pub struct Fetch<T = Arc<PartitionedData>> {
    /// What was asked for: by default the frame's partitioned data,
    /// shared with whatever else holds it resident.
    pub data: T,
    /// Whether the request was served from memory (no disk I/O).
    pub warm: bool,
    /// Particle bytes read from disk for this request (0 when warm).
    pub bytes_loaded: u64,
}

/// Snapshot of a [`ResidentRun`]'s residency counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Frames currently resident.
    pub resident_frames: usize,
    /// Bytes currently held: resident particles plus binned grids.
    pub resident_bytes: u64,
    /// The configured residency budget.
    pub budget_bytes: u64,
    /// Requests that had to read from disk.
    pub cold_loads: u64,
    /// Requests satisfied from memory.
    pub warm_hits: u64,
    /// Frames evicted to stay under budget.
    pub evictions: u64,
    /// Checksum-verified chunks read from disk so far.
    pub chunks_read: u64,
    /// Bytes read from disk so far.
    pub bytes_read: u64,
}

fn frame_key(i: usize) -> io::Result<u32> {
    u32::try_from(i)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame index out of range"))
}

impl ResidentRun {
    /// Opens a run file with a residency budget of `budget_bytes`. All
    /// octrees are loaded (and checksum-verified) eagerly, and each
    /// frame's leaf order is checked to tile its particle count; particle
    /// data stays on disk until requested.
    pub fn open(path: &Path, budget_bytes: u64) -> io::Result<ResidentRun> {
        let store = RunStore::open(path)?;
        let mut trees = Vec::with_capacity(store.frame_count());
        let mut leaves = Vec::with_capacity(store.frame_count());
        for i in 0..store.frame_count() {
            let (tree, plot) = store.read_tree(i)?;
            let order = leaf_order(&tree);
            check_leaf_order(&tree, &order, store.particle_count(i)).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("frame {i}: {e}"))
            })?;
            trees.push((tree, plot));
            leaves.push(order);
        }
        Ok(ResidentRun {
            store,
            trees,
            leaves,
            budget_bytes,
            state: Mutex::new(Residency {
                lru: LruOrder::new(),
                resident: HashMap::new(),
                resident_bytes: 0,
                cold_loads: 0,
                warm_hits: 0,
                evictions: 0,
            }),
        })
    }

    /// Number of frames in the run.
    pub fn frame_count(&self) -> usize {
        self.trees.len()
    }

    /// Frame `i`'s always-resident octree and plot type.
    pub fn tree(&self, i: usize) -> &(Octree, PlotType) {
        &self.trees[i]
    }

    /// Particle count of frame `i` (directory metadata, no fetch).
    pub fn particle_count(&self, i: usize) -> u64 {
        self.store.particle_count(i)
    }

    /// Total particle bytes across the run — compare against
    /// [`ResidentStats::budget_bytes`] to see how out-of-core a run is.
    pub fn total_particle_bytes(&self) -> u64 {
        (0..self.frame_count())
            .map(|i| self.store.frame_bytes(i))
            .sum()
    }

    /// Whether the underlying file is served through a memory map.
    pub fn is_mapped(&self) -> bool {
        self.store.is_mapped()
    }

    /// Fetches frame `i` whole, reading and checksum-verifying all of its
    /// chunks unless the whole frame is resident, then evicting
    /// least-recently-used frames until the residency budget holds again.
    pub fn fetch(&self, i: usize) -> io::Result<Fetch> {
        let key = frame_key(i)?;
        let mut g = self.state.lock();
        let held = g.resident.get(&key);
        if let Some(Held::Frame(data)) = held.map(|e| &e.particles) {
            let data = Arc::clone(data);
            g.lru.touch(key);
            g.warm_hits += 1;
            return Ok(Fetch {
                data,
                warm: true,
                bytes_loaded: 0,
            });
        }
        let grid = held.and_then(|e| e.grid.clone());

        let particles = self.store.load_particles(i)?;
        let (tree, plot) = &self.trees[i];
        let data = PartitionedData::from_sorted_parts(tree.clone(), particles, *plot)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let data = Arc::new(data);
        g.cold_loads += 1;
        let entry = Entry {
            particles: Held::Frame(Arc::clone(&data)),
            grid,
        };
        g.admit(key, entry, self.budget_bytes);
        Ok(Fetch {
            data,
            warm: false,
            bytes_loaded: self.store.frame_bytes(i),
        })
    }

    /// Builds frame `i`'s hybrid frame at `threshold` with a `dims` density
    /// volume — bit-identical to [`HybridFrame::from_partition`] over the
    /// whole frame — reading no particle it discards once the frame's grid
    /// is held:
    ///
    /// - grid at `dims` held: warm if the resident prefix covers the kept
    ///   prefix, else only the chunks covering the kept prefix are read;
    /// - no grid yet: the whole frame is read and verified once (or taken
    ///   from a resident [`ResidentRun::fetch`]), its grid is binned, and
    ///   the entry keeps the grid plus the prefix.
    ///
    /// A prefix is read and kept in whole chunks, so a later, slightly
    /// looser threshold is often still warm. Each call counts exactly one
    /// cold load or warm hit; the entry is charged to the residency
    /// budget like a fetched frame.
    pub fn frame(
        &self,
        i: usize,
        threshold: f64,
        dims: [usize; 3],
    ) -> io::Result<Fetch<HybridFrame>> {
        let key = frame_key(i)?;
        let (tree, plot) = &self.trees[i];
        let leaves = &self.leaves[i];
        let kept = prefix_cut(tree, leaves, threshold).kept as u64;
        // What a read of the kept prefix covers: its chunks, whole.
        let per_chunk = self.store.chunk_bytes() / BYTES_PER_PARTICLE;
        let covered = (kept.div_ceil(per_chunk) * per_chunk).min(self.particle_count(i));

        let mut g = self.state.lock();
        let held = g.resident.get(&key);
        let particles = held.map(|e| e.particles.clone());
        let grid = held
            .and_then(|e| e.grid.clone())
            .filter(|grid| grid.dims() == dims);
        let (particles, grid, bytes_loaded) = match (particles, grid) {
            (Some(particles), Some(grid)) if particles.particles().len() as u64 >= kept => {
                (particles, grid, 0)
            }
            (_, Some(grid)) => {
                let prefix = self.store.load_prefix(i, covered)?;
                let bytes = covered * BYTES_PER_PARTICLE;
                (Held::Prefix(prefix.into()), grid, bytes)
            }
            (Some(particles @ Held::Frame(_)), None) => {
                let grid =
                    DensityGrid::from_particles(particles.particles(), *plot, tree.bounds, dims);
                (particles, Arc::new(grid), 0)
            }
            (_, None) => {
                let mut all = self.store.load_particles(i)?;
                let grid = DensityGrid::from_particles(&all, *plot, tree.bounds, dims);
                all.truncate(covered as usize);
                let bytes = self.store.frame_bytes(i);
                (Held::Prefix(all.into()), Arc::new(grid), bytes)
            }
        };
        let entry = Entry {
            particles: particles.clone(),
            grid: Some(Arc::clone(&grid)),
        };
        g.admit(key, entry, self.budget_bytes);
        let warm = bytes_loaded == 0;
        if warm {
            g.warm_hits += 1;
        } else {
            g.cold_loads += 1;
        }
        drop(g);

        let frame = HybridFrame::from_prefix(
            tree,
            leaves,
            *plot,
            particles.particles(),
            DensityGrid::clone(&grid),
            i,
            threshold,
        );
        Ok(Fetch {
            data: frame,
            warm,
            bytes_loaded,
        })
    }

    /// Current residency counters.
    pub fn stats(&self) -> ResidentStats {
        let g = self.state.lock();
        let (chunks_read, bytes_read) = self.store.io_stats();
        ResidentStats {
            resident_frames: g.resident.len(),
            resident_bytes: g.resident_bytes,
            budget_bytes: self.budget_bytes,
            cold_loads: g.cold_loads,
            warm_hits: g.warm_hits,
            evictions: g.evictions,
            chunks_read,
            bytes_read,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::write_run_file;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::extraction::threshold_for_budget;

    fn frames(n_frames: usize, particles_each: usize) -> Vec<PartitionedData> {
        (0..n_frames)
            .map(|i| {
                let ps = Distribution::default_beam().sample(particles_each, i as u64 + 1);
                partition(&ps, PlotType::X_PX_Y, BuildParams::default())
            })
            .collect()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("accelviz-resident-{name}-{}", std::process::id()))
    }

    fn run_file(name: &str, n_frames: usize, particles_each: usize) -> std::path::PathBuf {
        let path = scratch(name);
        write_run_file(&path, &frames(n_frames, particles_each), 4_096).unwrap();
        path
    }

    #[test]
    fn fetches_match_direct_reads_and_warm_up() {
        let path = run_file("warm", 3, 800);
        // Budget fits everything: no eviction.
        let run = ResidentRun::open(&path, u64::MAX).unwrap();
        assert_eq!(run.frame_count(), 3);
        let first = run.fetch(1).unwrap();
        assert!(!first.warm);
        assert_eq!(first.bytes_loaded, 800 * 48);
        let again = run.fetch(1).unwrap();
        assert!(again.warm);
        assert_eq!(again.bytes_loaded, 0);
        assert!(Arc::ptr_eq(&first.data, &again.data));
        first.data.validate().unwrap();
        let s = run.stats();
        assert_eq!((s.cold_loads, s.warm_hits, s.evictions), (1, 1, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn budget_smaller_than_the_run_forces_eviction() {
        let path = run_file("evict", 4, 600);
        let frame_bytes = 600 * 48u64;
        // Room for two frames.
        let run = ResidentRun::open(&path, 2 * frame_bytes).unwrap();
        assert!(run.total_particle_bytes() > 2 * frame_bytes);
        for i in 0..4 {
            run.fetch(i).unwrap();
        }
        let s = run.stats();
        assert_eq!(s.cold_loads, 4);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.resident_frames, 2);
        assert!(s.resident_bytes <= s.budget_bytes);
        // Frames 2 and 3 are resident; 0 is the coldest possible fetch.
        assert!(run.fetch(3).unwrap().warm);
        assert!(!run.fetch(0).unwrap().warm);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_frame_bigger_than_the_budget_still_serves() {
        let path = run_file("oversize", 2, 500);
        let run = ResidentRun::open(&path, 1).unwrap();
        let f = run.fetch(0).unwrap();
        assert!(!f.warm);
        assert_eq!(f.data.particles().len(), 500);
        // The oversize frame stays (never evict the just-loaded frame)…
        assert_eq!(run.stats().resident_frames, 1);
        // …until the next fetch displaces it.
        run.fetch(1).unwrap();
        let s = run.stats();
        assert_eq!(s.resident_frames, 1);
        assert_eq!(s.evictions, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn eviction_follows_recency_not_insertion() {
        let path = run_file("recency", 3, 400);
        let run = ResidentRun::open(&path, 2 * 400 * 48).unwrap();
        run.fetch(0).unwrap();
        run.fetch(1).unwrap();
        run.fetch(0).unwrap(); // touch 0: now 1 is the eviction victim
        run.fetch(2).unwrap();
        assert!(
            run.fetch(0).unwrap().warm,
            "recently touched frame survives"
        );
        assert!(!run.fetch(1).unwrap().warm, "LRU frame was evicted");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn built_frames_match_in_memory_extraction_with_one_page_in_each() {
        let data = frames(3, 1_200);
        let path = scratch("build");
        write_run_file(&path, &data, 4_096).unwrap();
        let run = ResidentRun::open(&path, u64::MAX).unwrap();
        let dims = [8, 8, 8];
        let mut calls = 0;
        for budget in [usize::MAX, 600, 150, 0] {
            for (i, d) in data.iter().enumerate() {
                let t = threshold_for_budget(d, budget);
                let built = run.frame(i, t, dims).unwrap();
                assert_eq!(built.data, HybridFrame::from_partition(d, i, t, dims));
                calls += 1;
            }
        }
        let s = run.stats();
        assert_eq!(s.cold_loads + s.warm_hits, calls, "{s:?}");
        // The first pass keeps everything, so every later build is warm.
        assert_eq!(s.cold_loads, 3, "{s:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn once_the_grid_is_held_a_cold_build_reads_only_its_prefix_chunks() {
        let data = frames(1, 3_000);
        let d = &data[0];
        let path = scratch("prefix");
        // 100 particles per chunk.
        write_run_file(&path, &data, 4_800).unwrap();
        let frame_bytes = 3_000 * 48;
        let run = ResidentRun::open(&path, frame_bytes / 2).unwrap();
        let dims = [16, 16, 16];
        let grid_bytes = 16 * 16 * 16 * 4;

        // First touch: the whole frame is read once to bin the grid, and
        // only the grid plus the chunk-rounded prefix stays.
        let tight = threshold_for_budget(d, 150);
        let chunks0 = run.stats().chunks_read;
        let first = run.frame(0, tight, dims).unwrap();
        assert!(!first.warm);
        assert_eq!(first.bytes_loaded, frame_bytes);
        assert_eq!(first.data, HybridFrame::from_partition(d, 0, tight, dims));
        let s = run.stats();
        assert_eq!(s.chunks_read - chunks0, 30);
        let kept = first.data.points.len() as u64;
        assert!(kept > 0 && kept <= 150);
        let held = kept.div_ceil(100) * 100;
        assert_eq!(s.resident_bytes, held * 48 + grid_bytes);

        // A looser threshold with the grid held: only the chunks that
        // cover the new kept prefix are read.
        let loose = threshold_for_budget(d, 900);
        let second = run.frame(0, loose, dims).unwrap();
        assert_eq!(second.data, HybridFrame::from_partition(d, 0, loose, dims));
        let kept = second.data.points.len() as u64;
        assert!(kept > held, "the looser prefix must outgrow the held one");
        let s2 = run.stats();
        assert!(!second.warm);
        assert_eq!(s2.chunks_read - s.chunks_read, kept.div_ceil(100));
        assert_eq!(second.bytes_loaded, kept.div_ceil(100) * 100 * 48);
        assert!(s2.resident_bytes <= s2.budget_bytes, "{s2:?}");
        assert_eq!(
            s2.resident_bytes,
            kept.div_ceil(100) * 100 * 48 + grid_bytes
        );

        // Back to the tight threshold: the held prefix covers it.
        let third = run.frame(0, tight, dims).unwrap();
        assert!(third.warm);
        assert_eq!(third.bytes_loaded, 0);
        assert_eq!(third.data, first.data);
        assert_eq!(run.stats().chunks_read, s2.chunks_read);
        let s3 = run.stats();
        assert_eq!((s3.cold_loads, s3.warm_hits), (2, 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_fetched_frame_bins_its_grid_without_reading_and_dims_are_honoured() {
        let data = frames(1, 900);
        let path = scratch("fetched");
        write_run_file(&path, &data, 4_096).unwrap();
        let run = ResidentRun::open(&path, u64::MAX).unwrap();
        run.fetch(0).unwrap();
        let reads = run.stats().chunks_read;
        let t = threshold_for_budget(&data[0], 300);
        let built = run.frame(0, t, [8, 8, 8]).unwrap();
        assert!(built.warm, "the whole frame is resident");
        assert_eq!(run.stats().chunks_read, reads);
        assert_eq!(
            built.data,
            HybridFrame::from_partition(&data[0], 0, t, [8, 8, 8])
        );
        // The fetched frame stays whole for `fetch`.
        assert!(run.fetch(0).unwrap().warm);
        // Another volume size is another grid, binned at its own dims.
        let other = run.frame(0, t, [4, 4, 4]).unwrap();
        assert_eq!(
            other.data,
            HybridFrame::from_partition(&data[0], 0, t, [4, 4, 4])
        );
        let _ = std::fs::remove_file(&path);
    }
}
