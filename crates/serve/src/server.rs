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
//! in-flight replies before returning, bounded by one second.
//!
//! One request path: one crate-private `respond` answers every request
//! on every frame service. A [`crate::router::FrameRouter`] is a frame server whose
//! `Backend` is its shard set — N of these servers, each owning a
//! rendezvous-hashed slice of the catalog — so clients speak the
//! identical protocol to the router and cannot tell the difference. The
//! backends differ in three answers only: the catalog (computed once at
//! spawn), how a frame is built on a cache miss, and what `Stats`
//! reports; the two kinds of service differ only in the names they count
//! under (`serve.*` or `router.*`).

use crate::cache::{CacheKey, FrameCache, Outcome, Probe, ServedFrame};
use crate::fault::FaultScript;
use crate::front::{CountGuard, Counters, FrontDoor};
use crate::protocol::{
    write_response_v, FrameInfo, Request, Response, ERR_BAD_REQUEST, ERR_BAD_THRESHOLD, ERR_BUSY,
    ERR_INTERNAL, ERR_NO_SUCH_FRAME,
};
use crate::router::{aggregate_stats, fetch_replicated, merge_catalogs, Shards};
use crate::stats::{
    ServerStats, CTR_ACCEPT_ERRORS, CTR_BYTES_SENT, CTR_CACHE_HITS, CTR_CACHE_MISSES,
    CTR_COALESCED, CTR_FRAMES_SERVED, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE, CTR_FRAME_ENCODES,
    CTR_HANDLER_PANICS, CTR_LOD_BYTES_WIRE, CTR_LOD_CHUNKS, CTR_LOD_REQUESTS, CTR_REQUESTS,
    CTR_SHED_CONNECTIONS, CTR_SHED_EXTRACTIONS, HIST_LATENCY,
};
use crate::wire::{encode_frame_envelope, V2, VERSION};
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
            worker_threads: 4,
        }
    }
}

/// Where a service's frames come from: fully resident in memory (the
/// original topology — every partitioned store loaded up front), an
/// on-disk run read through [`ResidentRun::frame`] — only each build's
/// kept prefix pages in, plus one full read per frame to bin its density
/// grid on first touch, all under the run's byte budget — or, for a
/// router, the shard servers upstream. The request handlers are written
/// against this enum, so every backend speaks the identical protocol and
/// serves bit-identical frames.
pub(crate) enum Backend {
    /// Every frame's partitioned store held in memory.
    Resident(Vec<PartitionedData>),
    /// Frames built on demand from an `accelviz-store` run file: the
    /// resident tree sizes each build's read to its kept prefix, and the
    /// frame's grid is binned once and held.
    Stored(Arc<ResidentRun>),
    /// Frames fetched from the owning shard servers.
    Shards(Arc<Shards>),
}

impl Backend {
    /// The frame catalog, computed once at spawn. The stored backend
    /// answers from directory metadata and the always-resident octrees —
    /// no particle I/O; the shard backend merges every shard's catalog.
    fn catalog(&self, point_budget: usize) -> io::Result<Vec<FrameInfo>> {
        Ok(match self {
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
            Backend::Shards(shards) => return merge_catalogs(shards),
        })
    }
}

/// The state every request handler of one service shares.
pub(crate) struct Shared {
    backend: Backend,
    pub(crate) catalog: Vec<FrameInfo>,
    pub(crate) config: ServerConfig,
    pub(crate) names: &'static Counters,
    cache: FrameCache,
    pub(crate) metrics: Registry,
    building_extractions: AtomicUsize,
}

/// The `serve.*` names a frame server counts under.
static SERVE_COUNTERS: Counters = Counters {
    requests: CTR_REQUESTS,
    frames_served: CTR_FRAMES_SERVED,
    bytes_sent: CTR_BYTES_SENT,
    latency: HIST_LATENCY,
    handler_panics: CTR_HANDLER_PANICS,
    shed_connections: CTR_SHED_CONNECTIONS,
    accept_errors: CTR_ACCEPT_ERRORS,
    shed_extractions: CTR_SHED_EXTRACTIONS,
    cache_hits: CTR_CACHE_HITS,
    cache_misses: CTR_CACHE_MISSES,
    coalesced: CTR_COALESCED,
    frame_encodes: CTR_FRAME_ENCODES,
    frame_bytes_raw: CTR_FRAME_BYTES_RAW,
    frame_bytes_wire: CTR_FRAME_BYTES_WIRE,
    lod_requests: CTR_LOD_REQUESTS,
    lod_chunks: CTR_LOD_CHUNKS,
    lod_bytes_wire: CTR_LOD_BYTES_WIRE,
    span_request: "serve.request",
    span_extract: "serve.extract",
    span_encode: "serve.encode",
    span_send: "serve.send",
    span_lod_send: "serve.lod_send",
};

/// Serves one request on any frame service; returns (wire bytes
/// written, was a frame reply). `session_version` is the connection's
/// negotiated protocol version: `Hello` updates it, and every reply is
/// framed with it.
pub(crate) fn respond<S: Write>(
    shared: &Shared,
    req: Request,
    stream: &mut S,
    session_version: &mut u16,
) -> crate::error::Result<(u64, bool)> {
    let names = shared.names;
    let _span = accelviz_trace::span(names.span_request);
    let reply = match req {
        // The session speaks the older of the two sides: a v1 client
        // keeps its byte-identical session, a v2 (or future) client gets
        // the newest encoding this build knows. Version 0 is rejected and
        // leaves the session version as it was.
        Request::Hello { version: 0 } => Response::Error {
            code: ERR_BAD_REQUEST,
            message: "protocol version must be at least 1, client sent 0".to_string(),
        },
        Request::Hello { version } => {
            *session_version = version.min(VERSION);
            Response::HelloAck {
                version: *session_version,
                frame_count: shared.catalog.len() as u32,
            }
        }
        Request::ListFrames => Response::FrameList(shared.catalog.clone()),
        Request::RequestFrame { frame, threshold } => match acquire_frame(shared, frame, threshold)
        {
            Err((code, message)) => Response::Error { code, message },
            Ok(served) => {
                // The first request at this session version encodes the
                // envelope into the cache entry; every later one writes
                // the stored bytes. Both codecs are deterministic, so a
                // router writes the bytes a direct server of the same
                // data writes. Both lengths are counted per reply so the
                // stats expose the live compression ratio.
                let envelope = served.envelope(*session_version).get_or_init(|| {
                    let _span = accelviz_trace::span(names.span_encode);
                    shared.metrics.add(names.frame_encodes, 1);
                    encode_frame_envelope(&served.frame, *session_version)
                });
                shared.metrics.add(names.frame_bytes_raw, envelope.raw_len);
                shared
                    .metrics
                    .add(names.frame_bytes_wire, envelope.payload_len());
                let mut span = accelviz_trace::span(names.span_send);
                let bytes = envelope.write_to(stream)?;
                span.arg("bytes", bytes as f64);
                return Ok((bytes, true));
            }
        },
        // The chunk records ride v2 envelopes and splice back into a
        // frame the v2 trailer can verify; a v1 session has neither, and
        // pre-v2 clients never send the request, so their byte streams
        // stay frozen.
        Request::RequestFrameProgressive { .. } if *session_version < V2 => Response::Error {
            code: ERR_BAD_REQUEST,
            message: "progressive streaming requires a v2 session; \
                      send Hello with version >= 2 first"
                .to_string(),
        },
        Request::RequestFrameProgressive {
            frame,
            threshold,
            chunk_bytes,
        } => match acquire_frame(shared, frame, threshold) {
            Err((code, message)) => Response::Error { code, message },
            Ok(served) => {
                // Same cache entry as a plain fetch — a progressive and a
                // full request for the same (frame, threshold) coalesce
                // on one build; only the wire shape differs from here on.
                // The planner is a pure function of (frame, budget), so a
                // router re-chunking a frame fetched whole writes the
                // records a direct server writes.
                let records = {
                    let mut span = accelviz_trace::span(names.span_lod_send);
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
                shared.metrics.add(names.lod_requests, 1);
                shared.metrics.add(names.lod_chunks, records.len() as u64);
                shared.metrics.add(names.lod_bytes_wire, bytes);
                return Ok((bytes, true));
            }
        },
        Request::Stats => Response::Stats(match &shared.backend {
            Backend::Shards(shards) => aggregate_stats(shards, &shared.metrics),
            _ => ServerStats::from_registry(&shared.metrics),
        }),
    };
    Ok((write_response_v(stream, *session_version, &reply)?, false))
}

/// A running frame server. Dropping it (or calling
/// [`FrameServer::shutdown`]) stops the acceptor — woken
/// deterministically through a self-pipe, so an *idle* server shuts down
/// promptly too — then drains in-flight replies (bounded by one
/// second).
pub struct FrameServer {
    pub(crate) shared: Arc<Shared>,
    front: FrontDoor,
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
        let cache = FrameCache::new(config.cache_capacity as u64, |_| 1);
        FrameServer::start(addr, backend, config, cache, &SERVE_COUNTERS, faults)
    }

    /// Computes `backend`'s catalog, binds `addr` and starts answering
    /// through the front door, counting under `names`.
    pub(crate) fn start(
        addr: &str,
        backend: Backend,
        config: ServerConfig,
        cache: FrameCache,
        names: &'static Counters,
        faults: Option<Arc<FaultScript>>,
    ) -> io::Result<FrameServer> {
        let catalog = backend.catalog(config.point_budget)?;
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            backend,
            catalog,
            config,
            names,
            cache,
            metrics: Registry::new(),
            building_extractions: AtomicUsize::new(0),
        });
        let front = FrontDoor::spawn(listener, Arc::clone(&shared), faults)?;
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
    /// in-flight replies (bounded by one second).
    pub fn shutdown(mut self) {
        self.front.stop();
    }
}

/// Tries to take one extraction permit; `None` means the limit is
/// reached and the request should be shed.
fn try_extraction_permit(shared: &Shared) -> Option<CountGuard<'_>> {
    let gauge = &shared.building_extractions;
    let limit = shared.config.max_inflight_extractions;
    gauge
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < limit).then_some(n + 1)
        })
        .ok()
        .map(|_| CountGuard(gauge))
}

/// The shared admission-and-build path behind both frame request kinds:
/// rejects a NaN threshold or unknown frame, applies extraction-limit
/// shedding, and resolves the frame through the cache. `Err` carries the
/// code and message of the in-band error reply. A failed build counts
/// as neither a hit nor a miss.
fn acquire_frame(
    shared: &Shared,
    frame: u32,
    threshold: f64,
) -> Result<Arc<ServedFrame>, (u16, String)> {
    let names = shared.names;
    // NaN has no place in the density order: extraction's
    // `partition_point` would silently return an empty prefix, and the
    // many NaN bit patterns would each occupy their own cache slot. (±Inf
    // stay valid dials: +Inf is the catalog's own "serve everything"
    // sentinel, -Inf an empty extraction.)
    if threshold.is_nan() {
        let message = format!("threshold must not be NaN, got {threshold}");
        return Err((ERR_BAD_THRESHOLD, message));
    }
    let frame_count = shared.catalog.len();
    if frame as usize >= frame_count {
        let message = format!("frame {frame} requested, {frame_count} available");
        return Err((ERR_NO_SUCH_FRAME, message));
    }
    let key = CacheKey::new(frame, threshold);
    // Load shedding at the extraction limit: only requests that
    // would start a *new* build are shed — cached frames and
    // coalescing waiters are cheap and always admitted. The probe
    // is advisory (the entry may change before get_or_build), so
    // the limit is a strong bound, not a hard invariant.
    let _permit = match shared.cache.probe(&key) {
        Probe::Vacant => match try_extraction_permit(shared) {
            Some(p) => Some(p),
            None => {
                shared.metrics.add(names.shed_extractions, 1);
                let message = "extraction capacity reached; retry after ~100 ms".to_string();
                return Err((ERR_BUSY, message));
            }
        },
        Probe::Ready | Probe::Building => None,
    };
    let (built, outcome) = {
        let mut span = accelviz_trace::span(names.span_extract);
        span.arg("frame", frame as f64);
        span.arg("threshold", threshold);
        let (built, outcome) = shared
            .cache
            .get_or_build(key, || build_frame(shared, frame, threshold));
        span.arg("cache_hit", (outcome != Outcome::Built) as u64 as f64);
        (built, outcome)
    };
    // A dead shard or a failed disk read degrades this frame in-band and
    // keeps the session; a resilient client turns it into a flagged
    // stale frame.
    let served = built.map_err(|message| (ERR_INTERNAL, message))?;
    // A coalesced waiter shares the builder's frame: a hit.
    match outcome {
        Outcome::Hit => shared.metrics.add(names.cache_hits, 1),
        Outcome::Coalesced => {
            shared.metrics.add(names.coalesced, 1);
            shared.metrics.add(names.cache_hits, 1)
        }
        Outcome::Built => shared.metrics.add(names.cache_misses, 1),
    };
    Ok(served)
}

/// Builds one frame for the cache. The stored backend pages the
/// frame's kept prefix (and, on first touch, its grid) in here and the
/// shard backend fetches upstream, so only the builder touches the disk
/// or a shard (coalesced waiters share its result) and a failure
/// becomes the build's error — an in-band `ERR_INTERNAL` for the builder
/// and its waiters that is never cached.
fn build_frame(shared: &Shared, frame: u32, threshold: f64) -> Result<HybridFrame, String> {
    let dims = shared.config.volume_dims;
    match &shared.backend {
        Backend::Resident(data) => Ok(HybridFrame::from_partition(
            &data[frame as usize],
            frame as usize,
            threshold,
            dims,
        )),
        Backend::Stored(run) => run
            .frame(frame as usize, threshold, dims)
            .map(|built| built.data)
            .map_err(|e| format!("run store failed loading frame {frame}: {e}")),
        Backend::Shards(shards) => fetch_replicated(shards, &shared.metrics, frame, threshold),
    }
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
            catalog: Vec::new(),
            config,
            names: &SERVE_COUNTERS,
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
