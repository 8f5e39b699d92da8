//! The multi-client frame server.
//!
//! A [`FrameServer`] owns the *partitioned* data — the density-sorted
//! stores produced by preprocessing — and extracts hybrid frames on
//! demand at whatever threshold a client dials, which is exactly the
//! paper's split: preprocessing near the simulation, compact hybrid
//! frames shipped to the desktop. Connections come in through the
//! crate's one front door (`crate::front`): one acceptor thread and one
//! handler thread per admitted connection. Every handler shares one
//! [`FrameCache`] and one per-server metrics [`Registry`] (counters
//! under the `serve.*` names in [`crate::stats`]).
//!
//! Protection: the server sheds rather than degrades. Past
//! [`ServerConfig::max_connections`] a new connection gets one in-band
//! `ERR_BUSY` (with a retry-after hint) from a small bounded pool and is
//! closed, so a connect flood cannot mint threads. Past
//! [`ServerConfig::max_inflight_extractions`] a frame request that
//! would start a *new* extraction gets `ERR_BUSY` on its live connection
//! (cached and coalescing requests are always admitted — they are
//! cheap). A panicking request handler is isolated: the client gets
//! `ERR_INTERNAL`, the connection and the listener survive. Repeated
//! `accept(2)` failures (fd exhaustion) back off exponentially and are
//! counted under `serve.accept_errors` instead of hot-spinning. Shutdown
//! wakes the acceptor deterministically through a self-pipe and drains
//! in-flight replies before returning, bounded by
//! [`ServerConfig::drain_timeout`].
//!
//! Scale-out: N of these servers can sit behind one
//! [`crate::router::FrameRouter`], each owning a rendezvous-hashed slice
//! of the catalog — clients speak the identical protocol to the router
//! and cannot tell the difference (`crate::router`).

use crate::cache::{CacheKey, FrameCache, Outcome, Probe, ServedFrame};
use crate::fault::FaultScript;
use crate::front::{CountGuard, Counters, FrontDoor, Service, Settings};
use crate::protocol::{
    negotiate_hello, progressive_gate, reject_frame_request, write_response_v, FrameInfo, Request,
    Response, ERR_BUSY, ERR_INTERNAL,
};
use crate::stats::{
    ServerStats, CTR_ACCEPT_ERRORS, CTR_BYTES_SENT, CTR_CACHE_HITS, CTR_CACHE_MISSES,
    CTR_FRAMES_SERVED, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_FRAME_ENCODES,
    CTR_HANDLER_PANICS, CTR_LOD_BYTES_WIRE, CTR_LOD_CHUNKS, CTR_LOD_REQUESTS, CTR_REQUESTS,
    CTR_SHED_CONNECTIONS, CTR_SHED_EXTRACTIONS, HIST_LATENCY,
};
use crate::wire::encode_frame_envelope;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::extraction::{threshold_for_budget, threshold_for_budget_tree};
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::Registry;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Extractions the shared cache holds. Each entry also keeps the
    /// encoded reply envelope for every protocol version it has been
    /// served at, so the cache holds at most this many frames plus one
    /// envelope per negotiated version each; eviction frees both.
    pub cache_capacity: usize,
    /// Resolution of the density volume in served frames.
    pub volume_dims: [usize; 3],
    /// Point budget behind the catalog's suggested threshold.
    pub point_budget: usize,
    /// How long a connection's handler blocks reading a request before
    /// the connection is dropped; `None` waits forever. Without a bound,
    /// a client that connects and goes silent (or dribbles bytes) pins
    /// its handler thread indefinitely.
    pub read_timeout: Option<Duration>,
    /// Same bound for writes (a client that stops draining its socket).
    pub write_timeout: Option<Duration>,
    /// Connections served concurrently; past this, new arrivals get one
    /// in-band `ERR_BUSY` and are closed (thread-per-connection must not
    /// become thread-per-attacker).
    pub max_connections: usize,
    /// Frame requests allowed to start *new* extractions concurrently;
    /// past this they are shed with `ERR_BUSY` on their live connection.
    /// Cached and coalescing requests are always admitted.
    pub max_inflight_extractions: usize,
    /// How long shutdown waits for in-flight replies to finish.
    pub drain_timeout: Duration,
    /// Has no effect: every admitted connection gets its own handler
    /// thread, so there is no worker pool to size. Nothing reads this
    /// field; it remains so struct literals that still set it compile.
    pub worker_threads: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            cache_capacity: 8,
            volume_dims: [16, 16, 16],
            point_budget: 1_000,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 64,
            max_inflight_extractions: 8,
            drain_timeout: Duration::from_secs(1),
            worker_threads: 4,
        }
    }
}

/// Where the server's frames live: fully resident in memory (the
/// original topology — every partitioned store loaded up front), or
/// backed by an on-disk run whose particle data pages in and out under
/// [`ResidentRun`]'s byte budget. The request handlers are written
/// against this enum, so an out-of-core server speaks the identical
/// protocol and serves bit-identical frames.
enum Backend {
    /// Every frame's partitioned store held in memory.
    Resident(Vec<PartitionedData>),
    /// Frames fetched on demand from an `accelviz-store` run file.
    Stored(Arc<ResidentRun>),
}

impl Backend {
    fn frame_count(&self) -> usize {
        match self {
            Backend::Resident(data) => data.len(),
            Backend::Stored(run) => run.frame_count(),
        }
    }

    /// The frame catalog. The stored backend answers from directory
    /// metadata and the always-resident octrees — no particle I/O.
    fn frame_infos(&self, point_budget: usize) -> Vec<FrameInfo> {
        match self {
            Backend::Resident(data) => data
                .iter()
                .enumerate()
                .map(|(i, d)| FrameInfo {
                    frame: i as u32,
                    step: i as u64,
                    particles: d.particles().len() as u64,
                    default_threshold: threshold_for_budget(d, point_budget),
                })
                .collect(),
            Backend::Stored(run) => (0..run.frame_count())
                .map(|i| FrameInfo {
                    frame: i as u32,
                    step: i as u64,
                    particles: run.particle_count(i),
                    default_threshold: threshold_for_budget_tree(&run.tree(i).0, point_budget),
                })
                .collect(),
        }
    }
}

/// The state every request handler shares.
struct Shared {
    backend: Backend,
    config: ServerConfig,
    cache: FrameCache,
    metrics: Registry,
    building_extractions: AtomicUsize,
}

/// The `serve.*` names the front door counts under.
static SERVE_COUNTERS: Counters = Counters {
    requests: CTR_REQUESTS,
    frames_served: CTR_FRAMES_SERVED,
    bytes_sent: CTR_BYTES_SENT,
    latency: HIST_LATENCY,
    handler_panics: CTR_HANDLER_PANICS,
    shed_connections: CTR_SHED_CONNECTIONS,
    accept_errors: CTR_ACCEPT_ERRORS,
};

impl Service for Shared {
    fn metrics(&self) -> &Registry {
        &self.metrics
    }

    fn respond<S: Write>(
        &self,
        req: Request,
        stream: &mut S,
        session_version: &mut u16,
    ) -> crate::error::Result<(u64, bool)> {
        let _span = accelviz_trace::span("serve.request");
        match req {
            Request::Hello { version } => {
                let reply = negotiate_hello(version, self.backend.frame_count(), session_version);
                Ok((write_response_v(stream, *session_version, &reply)?, false))
            }
            Request::ListFrames => {
                let frames = self.backend.frame_infos(self.config.point_budget);
                Ok((
                    write_response_v(stream, *session_version, &Response::FrameList(frames))?,
                    false,
                ))
            }
            Request::RequestFrame { frame, threshold } => {
                let served = match acquire_frame(self, frame, threshold, stream, *session_version)?
                {
                    Ok(served) => served,
                    Err(reply_written) => return Ok(reply_written),
                };
                // The first request at this session version encodes the
                // envelope into the cache entry; every later one writes the
                // stored bytes. Both lengths are counted per reply so the
                // stats expose the live compression ratio.
                let envelope = served.envelope(*session_version).get_or_init(|| {
                    let _span = accelviz_trace::span("serve.encode");
                    self.metrics.add(CTR_FRAME_ENCODES, 1);
                    encode_frame_envelope(&served.frame, *session_version)
                });
                self.metrics.add(CTR_FRAME_BYTES_RAW, envelope.raw_len);
                self.metrics
                    .add(CTR_FRAME_BYTES_WIRE, envelope.payload_len());
                let mut span = accelviz_trace::span("serve.send");
                let bytes = envelope.write_to(stream)?;
                span.arg("bytes", bytes as f64);
                Ok((bytes, true))
            }
            Request::RequestFrameProgressive {
                frame,
                threshold,
                chunk_bytes,
            } => {
                if let Some(reply) = progressive_gate(*session_version) {
                    return Ok((write_response_v(stream, *session_version, &reply)?, false));
                }
                let served = match acquire_frame(self, frame, threshold, stream, *session_version)?
                {
                    Ok(served) => served,
                    Err(reply_written) => return Ok(reply_written),
                };
                // Same cache entry as a plain fetch — a progressive and a
                // full request for the same (frame, threshold) coalesce on
                // one extraction; only the wire shape differs from here on.
                let records = {
                    let mut span = accelviz_trace::span("serve.lod_send");
                    let records = crate::lod::plan_frame_chunks(
                        &served.frame,
                        crate::lod::chunk_budget(chunk_bytes),
                    );
                    span.arg("chunks", records.len() as f64);
                    records
                };
                let mut bytes = 0u64;
                for record in &records {
                    bytes += crate::protocol::write_chunk(stream, record)?;
                }
                self.metrics.add(CTR_LOD_REQUESTS, 1);
                self.metrics.add(CTR_LOD_CHUNKS, records.len() as u64);
                self.metrics.add(CTR_LOD_BYTES_WIRE, bytes);
                Ok((bytes, true))
            }
            Request::Stats => {
                let snapshot = ServerStats::from_registry(&self.metrics);
                Ok((
                    write_response_v(stream, *session_version, &Response::Stats(snapshot))?,
                    false,
                ))
            }
        }
    }
}

/// A running frame server. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the acceptor — woken
/// deterministically through a self-pipe, so an *idle* server shuts down
/// promptly too — then drains in-flight replies (bounded by
/// [`ServerConfig::drain_timeout`]).
pub struct FrameServer {
    shared: Arc<Shared>,
    front: FrontDoor<Shared>,
}

impl FrameServer {
    /// Binds a loopback server on an OS-assigned port — the test and
    /// example topology. The partitioned stores are served in index
    /// order; frame `i`'s step is `i`.
    pub fn spawn_loopback(
        data: Vec<PartitionedData>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn("127.0.0.1:0", data, config)
    }

    /// Binds `addr` and starts accepting clients.
    pub fn spawn(
        addr: &str,
        data: Vec<PartitionedData>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, Backend::Resident(data), config, None)
    }

    /// Binds a loopback server over an out-of-core run: frames come from
    /// `run`'s disk file and only [`ResidentRun`]'s budget worth of
    /// particle data is ever in memory.
    pub fn spawn_stored_loopback(
        run: Arc<ResidentRun>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_stored("127.0.0.1:0", run, config)
    }

    /// Binds `addr` over an out-of-core run backend.
    pub fn spawn_stored(
        addr: &str,
        run: Arc<ResidentRun>,
        config: ServerConfig,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner(addr, Backend::Stored(run), config, None)
    }

    /// A loopback server whose every connection is faulted by `script` —
    /// the server-side chaos hook. Only tests call this; [`spawn`] never
    /// wraps streams.
    ///
    /// [`spawn`]: FrameServer::spawn
    pub fn spawn_chaos(
        data: Vec<PartitionedData>,
        config: ServerConfig,
        script: Arc<FaultScript>,
    ) -> io::Result<FrameServer> {
        FrameServer::spawn_inner("127.0.0.1:0", Backend::Resident(data), config, Some(script))
    }

    fn spawn_inner(
        addr: &str,
        backend: Backend,
        config: ServerConfig,
        faults: Option<Arc<FaultScript>>,
    ) -> io::Result<FrameServer> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            backend,
            config,
            cache: FrameCache::new(config.cache_capacity as u64, |_| 1),
            metrics: Registry::new(),
            building_extractions: AtomicUsize::new(0),
        });
        let settings = Settings {
            counters: &SERVE_COUNTERS,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_connections: config.max_connections,
            drain_timeout: config.drain_timeout,
            faults,
        };
        let front = FrontDoor::spawn(listener, Arc::clone(&shared), settings)?;
        Ok(FrameServer { shared, front })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// A local snapshot of the statistics (the same data a client gets
    /// from [`Request::Stats`]).
    pub fn stats(&self) -> ServerStats {
        ServerStats::from_registry(&self.shared.metrics)
    }

    /// This server's private metrics registry — the source the wire
    /// `Stats` snapshot is assembled from. Exposed so tests (and embedding
    /// applications) can assert on individual counters.
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Stops accepting connections, joins the acceptor, and drains
    /// in-flight replies (bounded by [`ServerConfig::drain_timeout`]).
    pub fn shutdown(mut self) {
        self.front.stop();
    }
}

/// Tries to take one extraction permit; `None` means the limit is
/// reached and the request should be shed.
fn try_extraction_permit(shared: &Shared) -> Option<CountGuard<'_>> {
    let limit = shared.config.max_inflight_extractions;
    let gauge = &shared.building_extractions;
    let mut current = gauge.load(Ordering::SeqCst);
    loop {
        if current >= limit {
            return None;
        }
        match gauge.compare_exchange(current, current + 1, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => return Some(CountGuard(gauge)),
            Err(actual) => current = actual,
        }
    }
}

/// The shared admission-and-build path behind both frame request kinds:
/// rejects a NaN threshold or unknown frame, applies extraction-limit
/// shedding, and resolves the extraction through the cache. On a policy
/// or build failure the in-band error reply is already written and the
/// inner `Err` carries `respond`'s return value for it; the outer `Err`
/// is a dead client connection.
fn acquire_frame<S: Write>(
    shared: &Shared,
    frame: u32,
    threshold: f64,
    stream: &mut S,
    session_version: u16,
) -> crate::error::Result<std::result::Result<Arc<ServedFrame>, (u64, bool)>> {
    if let Some(reply) = reject_frame_request(frame, threshold, shared.backend.frame_count()) {
        return Ok(Err((
            write_response_v(stream, session_version, &reply)?,
            false,
        )));
    }
    let key = CacheKey::new(frame, threshold);
    // Load shedding at the extraction limit: only requests that
    // would start a *new* extraction are shed — cached frames and
    // coalescing waiters are cheap and always admitted. The probe
    // is advisory (the entry may change before get_or_build), so
    // the limit is a strong bound, not a hard invariant.
    let _permit = match shared.cache.probe(&key) {
        Probe::Vacant => match try_extraction_permit(shared) {
            Some(p) => Some(p),
            None => {
                shared.metrics.add(CTR_SHED_EXTRACTIONS, 1);
                let reply = Response::Error {
                    code: ERR_BUSY,
                    message: "extraction capacity reached; retry after ~100 ms".to_string(),
                };
                return Ok(Err((
                    write_response_v(stream, session_version, &reply)?,
                    false,
                )));
            }
        },
        Probe::Ready | Probe::Building => None,
    };
    let (built, outcome) = {
        let mut span = accelviz_trace::span("serve.extract");
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let (built, outcome) = shared
            .cache
            .get_or_build(key, || build_frame(shared, frame as usize, threshold));
        span.arg("cache_hit", (outcome != Outcome::Built) as u64 as f64);
        (built, outcome)
    };
    let extracted = match built {
        Ok(extracted) => extracted,
        Err(message) => {
            let reply = Response::Error {
                code: ERR_INTERNAL,
                message,
            };
            return Ok(Err((
                write_response_v(stream, session_version, &reply)?,
                false,
            )));
        }
    };
    // A coalesced waiter shares the builder's extraction: a hit.
    shared.metrics.add(
        match outcome {
            Outcome::Hit | Outcome::Coalesced => CTR_CACHE_HITS,
            Outcome::Built => CTR_CACHE_MISSES,
        },
        1,
    );
    Ok(Ok(extracted))
}

/// Builds one frame for the cache. The stored backend pages the
/// frame's particles in here, so only the builder touches the disk
/// (coalesced waiters share its result) and a disk failure becomes the
/// build's error — an in-band `ERR_INTERNAL` for the builder and its
/// waiters that is never cached.
fn build_frame(shared: &Shared, frame: usize, threshold: f64) -> Result<HybridFrame, String> {
    let fetched;
    let data = match &shared.backend {
        Backend::Resident(data) => &data[frame],
        Backend::Stored(run) => {
            fetched = run
                .fetch(frame)
                .map_err(|e| format!("run store failed loading frame {frame}: {e}"))?;
            &*fetched.data
        }
    };
    let dims = shared.config.volume_dims;
    Ok(HybridFrame::from_partition(data, frame, threshold, dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelviz_beam::distribution::Distribution;
    use accelviz_octree::builder::{partition, BuildParams};
    use accelviz_octree::plots::PlotType;

    fn stores(n: usize) -> Vec<PartitionedData> {
        (0..n)
            .map(|i| {
                let ps = Distribution::default_beam().sample(800, i as u64 + 1);
                partition(&ps, PlotType::XYZ, BuildParams::default())
            })
            .collect()
    }

    #[test]
    fn server_binds_an_ephemeral_loopback_port() {
        let server = FrameServer::spawn_loopback(stores(1), ServerConfig::default()).unwrap();
        assert!(server.addr().port() != 0);
        assert!(server.addr().ip().is_loopback());
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_under_drop() {
        let server = FrameServer::spawn_loopback(stores(1), ServerConfig::default()).unwrap();
        drop(server); // Drop runs stop() after an explicit-path exercise elsewhere
    }

    #[test]
    fn extraction_permits_are_bounded_and_returned() {
        let config = ServerConfig {
            max_inflight_extractions: 2,
            ..ServerConfig::default()
        };
        let shared = Shared {
            backend: Backend::Resident(Vec::new()),
            config,
            cache: FrameCache::new(2, |_| 1),
            metrics: Registry::new(),
            building_extractions: AtomicUsize::new(0),
        };
        let a = try_extraction_permit(&shared);
        let b = try_extraction_permit(&shared);
        assert!(a.is_some() && b.is_some());
        assert!(try_extraction_permit(&shared).is_none(), "limit is 2");
        drop(a);
        assert!(
            try_extraction_permit(&shared).is_some(),
            "a dropped permit frees a slot"
        );
    }
}
