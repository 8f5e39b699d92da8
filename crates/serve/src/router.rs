//! The shard router: one frame service over N frame servers.
//!
//! The paper's remote pipeline pairs one server with one viewer; scaling
//! one terascale run to many concurrent dashboards means spreading the
//! frame catalog over N shard servers ([`crate::server::FrameServer`]s)
//! and putting a router in front that clients cannot tell from a single
//! big server. A router *is* a frame server whose backend is the shard
//! set: the same front door (`crate::front`: accept loop, connection cap
//! answered with `ERR_BUSY`, session loop, drain) and the same request
//! path (`crate::server::respond`: Hello negotiation, rejection, the
//! coalescing frame cache, encode-once envelopes, progressive
//! re-chunking) answer every request. Only three answers come from the
//! shards:
//!
//! - **Catalog.** `ListFrames` answers with the merged catalog: every
//!   shard's local catalog stitched back into global frame order at
//!   spawn time ([`FrameRouter::catalog`]).
//! - **Build.** A cache miss routes to the owning shard (the [`ShardMap`]
//!   built from an [`ShardSpec`] rendezvous layout) over a pooled
//!   upstream [`crate::client::Client`] — so the proxy leg inherits the
//!   client layer's reconnect-and-replay retry machinery unchanged — and
//!   falls through the frame's replicas in preference order.
//! - **`Stats`.** Sums every shard's counters into one wire-shaped
//!   [`ServerStats`]; the router's own `router.*` counters live in its
//!   private registry ([`FrameRouter::metrics`]) because the `Stats`
//!   wire shape is frozen.
//!
//! Herd coalescing: the router's frame cache is budgeted by frame bytes
//! — a thundering herd of M clients on one cold frame costs one upstream
//! fetch (and therefore at most one extraction on the owning shard).
//! Upstream *failures* are shared with every coalesced waiter but never
//! cached, so a shard coming back is observed on the very next request.
//!
//! Failure semantics (the PR 5 degradation model, one hop out): when a
//! shard dies mid-session the router retries per its upstream policy,
//! then answers that frame with an in-band `ERR_INTERNAL` while the
//! catalog and every other shard's frames keep serving. A resilient
//! client ([`crate::client::RemoteFrames`]) turns that into a
//! flagged-stale degraded frame instead of a dead session; when the
//! shard returns (or [`FrameRouter::set_shard_addr`] repoints its pool
//! at a replacement), the same requests simply succeed again.

use crate::breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::cache::FrameCache;
use crate::client::{Client, ClientConfig};
use crate::front::Counters;
use crate::health::{HealthConfig, Prober};
use crate::protocol::FrameInfo;
use crate::retry::splitmix64;
use crate::server::{Backend, FrameServer, ServerConfig};
use crate::stats::ServerStats;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::shard::ShardSpec;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_store::ResidentRun;
use accelviz_trace::registry::Registry;
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry counter: requests the router handled, across all clients
/// and kinds.
pub const CTR_ROUTER_REQUESTS: &str = "router.requests";
/// Registry counter: frame replies the router sent downstream.
pub const CTR_ROUTER_FRAMES_SERVED: &str = "router.frames_served";
/// Registry counter: payload + framing bytes the router wrote to
/// clients.
pub const CTR_ROUTER_BYTES_SENT: &str = "router.bytes_sent";
/// Registry counter: frame requests answered from the router's frame
/// cache (including coalesced waiters).
pub const CTR_ROUTER_CACHE_HITS: &str = "router.cache_hits";
/// Registry counter: frame requests whose upstream fetch succeeded (a
/// failed fetch counts only under `router.upstream_errors`).
pub const CTR_ROUTER_CACHE_MISSES: &str = "router.cache_misses";
/// Registry counter: frame requests that coalesced into an upstream
/// fetch already in flight (a subset of `router.cache_hits` — the herd
/// collapse at work).
pub const CTR_ROUTER_COALESCED: &str = "router.coalesced_fetches";
/// Registry counter: upstream fetches the router started (each one
/// costs the owning shard at most one extraction).
pub const CTR_ROUTER_UPSTREAM_FETCHES: &str = "router.upstream_fetches";
/// Registry counter: retries the pooled upstream clients burned against
/// shards (transient shard failures absorbed by the proxy leg).
pub const CTR_ROUTER_UPSTREAM_RETRIES: &str = "router.upstream_retries";
/// Registry counter: upstream operations that failed even after the
/// upstream retry policy — each one became an in-band `ERR_INTERNAL`
/// (for frames) or a zero contribution (for stats aggregation).
pub const CTR_ROUTER_UPSTREAM_ERRORS: &str = "router.upstream_errors";
/// Registry counter: connections refused at the router's connection cap
/// (the client got an in-band `ERR_BUSY` with a retry-after hint, exactly
/// as from a shard server, and the socket was closed).
pub const CTR_ROUTER_SHED_CONNECTIONS: &str = "router.shed_connections";
/// Registry counter: `accept(2)` failures on the router listener.
pub const CTR_ROUTER_ACCEPT_ERRORS: &str = "router.accept_errors";
/// Registry counter: request handlers that panicked and were isolated
/// (the client got `ERR_INTERNAL`; the listener survived).
pub const CTR_ROUTER_HANDLER_PANICS: &str = "router.handler_panics";
/// Registry histogram: router request service time, including the
/// upstream hop for cache misses.
pub const HIST_ROUTER_LATENCY: &str = "router.request_latency";
/// Registry counter: progressive (LOD) frame requests the router served
/// by fetching the full frame upstream and re-chunking it locally.
pub const CTR_ROUTER_LOD_REQUESTS: &str = "router.lod_requests";
/// Registry counter: progressive chunk records the router wrote.
pub const CTR_ROUTER_LOD_CHUNKS: &str = "router.lod_chunks";
/// Registry counter: wire bytes of progressive chunk envelopes the
/// router wrote.
pub const CTR_ROUTER_LOD_BYTES_WIRE: &str = "router.lod_bytes_wire";
/// Registry counter: frame reply envelopes the router encoded — once per
/// cached frame and protocol version, exactly as a direct server would.
pub const CTR_ROUTER_FRAME_ENCODES: &str = "router.frame_encodes";
/// Registry counter: what the router's frame replies would have occupied
/// as raw v1 payloads.
pub const CTR_ROUTER_FRAME_BYTES_RAW: &str = "router.frame_bytes_raw";
/// Registry counter: frame payload bytes the router actually wrote
/// (compressed under AVWF v2).
pub const CTR_ROUTER_FRAME_BYTES_WIRE: &str = "router.frame_bytes_wire";
/// Registry counter: frame requests refused at the router's in-flight
/// fetch limit. The limit is the connection cap and every in-flight
/// fetch holds its own connection, so this stays zero.
pub const CTR_ROUTER_SHED_EXTRACTIONS: &str = "router.shed_extractions";
/// Registry counter: breaker trips (Closed or HalfOpen → Open) — a
/// shard was ejected from routing until it proves itself again.
pub const CTR_ROUTER_BREAKER_OPEN: &str = "router.breaker_open";
/// Registry counter: breaker cooldowns that elapsed into a half-open
/// trial (Open → HalfOpen).
pub const CTR_ROUTER_BREAKER_HALF_OPEN: &str = "router.breaker_half_open";
/// Registry counter: breaker reinstatements (Open or HalfOpen →
/// Closed), whether from a successful trial, a successful probe, or a
/// `set_shard_addr` reset.
pub const CTR_ROUTER_BREAKER_CLOSED: &str = "router.breaker_closed";
/// Registry counter: fetch attempts an open breaker rejected in
/// microseconds instead of burning the upstream retry budget.
pub const CTR_ROUTER_BREAKER_FAST_FAILS: &str = "router.breaker_fast_fails";
/// Registry counter: background health probes a shard answered.
pub const CTR_ROUTER_PROBE_OK: &str = "router.probe_ok";
/// Registry counter: background health probes a shard failed.
pub const CTR_ROUTER_PROBE_FAIL: &str = "router.probe_fail";
/// Registry counter: frame fetches ultimately served by a replica other
/// than the frame's primary owner — the redundancy at work.
pub const CTR_ROUTER_REPLICA_FAILOVERS: &str = "router.replica_failovers";
/// Registry histogram: one upstream fetch attempt against a shard,
/// retries included.
pub const HIST_ROUTER_UPSTREAM_LATENCY: &str = "router.upstream_latency";

/// Where every global frame lives: which shards hold a replica of it
/// (preference-ordered, primary first) and which *local* index each of
/// those shards knows it by. Built once from a [`ShardSpec`], a frame
/// count, and a replication factor, then shared by the shard launcher
/// (to provision the — possibly overlapping — slices) and the router
/// (to route requests and fall through replicas on failure).
///
/// ```
/// use accelviz_core::shard::ShardSpec;
/// use accelviz_serve::ShardMap;
///
/// let map = ShardMap::sliced(&ShardSpec::new(2), 6);
/// assert_eq!(map.frame_count(), 6);
/// assert_eq!(map.replication(), 1);
/// let (shard, _local) = map.locate(4).expect("frame 4 exists");
/// assert!(shard < map.shard_count());
/// // Out-of-catalog frames have no owner.
/// assert!(map.locate(6).is_none());
///
/// // At replication 2 every frame lives on two shards.
/// let map = ShardMap::sliced_replicated(&ShardSpec::new(3), 6, 2);
/// assert_eq!(map.replication(), 2);
/// assert_eq!(map.replicas(0).expect("frame 0 exists").len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// `replicas[g]` = preference-ordered `(shard, local index)` pairs
    /// for global frame `g`; the first entry is the primary owner.
    replicas: Vec<Vec<(u32, u32)>>,
    shards: usize,
    replication: usize,
}

impl ShardMap {
    /// The single-replica sliced layout — identical to the
    /// pre-replication behavior: each shard holds only the frames it
    /// primarily owns, packed in ascending global order. Shorthand for
    /// [`ShardMap::sliced_replicated`] with `replication == 1`.
    pub fn sliced(spec: &ShardSpec, frame_count: usize) -> ShardMap {
        ShardMap::sliced_replicated(spec, frame_count, 1)
    }

    /// The layout for *physically sliced* shards at a replication
    /// factor: each shard holds every frame whose top-`replication`
    /// rendezvous owner set includes it, packed in ascending global
    /// order, so global frame `g` is that shard's `rank(g)`-th local
    /// frame. This is what
    /// [`ShardedFrameService::spawn_loopback_replicated`] feeds its
    /// shards. `replication` is clamped to the shard count; zero is
    /// rejected by the underlying [`ShardSpec::owners`].
    pub fn sliced_replicated(spec: &ShardSpec, frame_count: usize, replication: usize) -> ShardMap {
        let mut next_local = vec![0u32; spec.shards()];
        let replicas = (0..frame_count)
            .map(|g| {
                spec.owners(g as u32, replication)
                    .into_iter()
                    .map(|shard| {
                        let local = next_local[shard];
                        next_local[shard] += 1;
                        (shard as u32, local)
                    })
                    .collect()
            })
            .collect();
        ShardMap {
            replicas,
            shards: spec.shards(),
            replication: replication.min(spec.shards()),
        }
    }

    /// The single-replica shared layout (every shard exposes the full
    /// catalog); shorthand for [`ShardMap::shared_replicated`] with
    /// `replication == 1`.
    pub fn shared(spec: &ShardSpec, frame_count: usize) -> ShardMap {
        ShardMap::shared_replicated(spec, frame_count, 1)
    }

    /// The layout for shards that all expose the *full* catalog (e.g.
    /// N stored servers sharing one run file): routing preference still
    /// follows the rendezvous replica set, but a frame's local index on
    /// every replica is its global index. This is what
    /// [`ShardedFrameService::spawn_stored_loopback_replicated`] uses.
    pub fn shared_replicated(spec: &ShardSpec, frame_count: usize, replication: usize) -> ShardMap {
        let replicas = (0..frame_count)
            .map(|g| {
                spec.owners(g as u32, replication)
                    .into_iter()
                    .map(|shard| (shard as u32, g as u32))
                    .collect()
            })
            .collect();
        ShardMap {
            replicas,
            shards: spec.shards(),
            replication: replication.min(spec.shards()),
        }
    }

    /// Shards this map routes over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Global frames this map covers.
    pub fn frame_count(&self) -> usize {
        self.replicas.len()
    }

    /// Replicas every frame lives on (after clamping to the shard
    /// count).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Where global frame `g` primarily lives: `(shard, local index)`,
    /// or `None` when `g` is outside the catalog.
    pub fn locate(&self, g: u32) -> Option<(usize, u32)> {
        self.replicas
            .get(g as usize)
            .map(|set| (set[0].0 as usize, set[0].1))
    }

    /// Every `(shard, local index)` replica of global frame `g` in
    /// routing-preference order (primary first), or `None` when `g` is
    /// outside the catalog.
    pub fn replicas(&self, g: u32) -> Option<&[(u32, u32)]> {
        self.replicas.get(g as usize).map(|set| set.as_slice())
    }

    /// The global frames shard `s` holds a replica of (primary or
    /// fallback), ascending — the slice the shard launcher provisions.
    pub fn frames_owned_by(&self, s: usize) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, set)| set.iter().any(|&(shard, _)| shard as usize == s))
            .map(|(g, _)| g)
            .collect()
    }
}

/// Router tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Byte budget for the router's decoded-frame cache (the
    /// herd-coalescing layer), LRU by resident frame bytes
    /// ([`HybridFrame::total_bytes`] per frame); must be positive.
    /// Frames vary by orders of magnitude with threshold and grid
    /// dims, so the budget counts bytes rather than entries; a frame
    /// larger than the whole budget is still admitted (to serve its
    /// coalesced waiters) and becomes the next eviction victim.
    pub cache_bytes: u64,
    /// Bound on any single blocking read from a client; `None` waits
    /// forever.
    pub read_timeout: Option<Duration>,
    /// Same bound for writes.
    pub write_timeout: Option<Duration>,
    /// Client connections served concurrently; past this, new arrivals
    /// are counted under `router.shed_connections`, answered with one
    /// in-band `ERR_BUSY` and closed.
    pub max_connections: usize,
    /// The resilience knobs for the pooled upstream connections to the
    /// shards — retry/backoff on this leg is what turns a shard blip
    /// into a blip instead of a failed client request. `max_version` is
    /// honored, so a `wire::V1`-capped upstream config forces
    /// uncompressed shard hops. The retry seed is only a *base*: every
    /// fresh upstream dial derives its own jitter seed from `(base seed,
    /// shard, dial count)`, so a shard restart does not march every
    /// pooled connection through identical backoff schedules (a
    /// synchronized retry storm), while any fixed base seed still
    /// replays exactly.
    pub upstream: ClientConfig,
    /// When a shard's circuit breaker trips and how long it cools down.
    pub breaker: BreakerConfig,
    /// The background health prober's pacing (zero interval disables
    /// it).
    pub health: HealthConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            cache_bytes: 128 << 20,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            upstream: ClientConfig::default(),
            breaker: BreakerConfig::default(),
            health: HealthConfig::default(),
        }
    }
}

/// Idle upstream connections kept pooled per shard.
const UPSTREAM_IDLE: usize = 4;

/// One shard's pooled upstream connections. Checked-out clients that
/// finish their operation cleanly go back to the idle pool (up to
/// [`UPSTREAM_IDLE`]); any failure drops the connection instead — its stream
/// may be mid-envelope, and the next checkout dials fresh.
struct UpstreamPool {
    shard: usize,
    addr: Mutex<SocketAddr>,
    idle: Mutex<Vec<Client>>,
    config: ClientConfig,
    /// Fresh dials so far — the per-connection retry seed counter.
    dialed: AtomicU64,
}

impl UpstreamPool {
    fn new(shard: usize, addr: SocketAddr, config: ClientConfig) -> UpstreamPool {
        UpstreamPool {
            shard,
            addr: Mutex::new(addr),
            idle: Mutex::new(Vec::new()),
            config,
            dialed: AtomicU64::new(0),
        }
    }

    /// Where this pool currently dials — the address the health prober
    /// pings, so `set_shard_addr` repoints probing too.
    fn addr(&self) -> SocketAddr {
        *self.addr.lock()
    }

    /// Repoints the pool (shard restarted elsewhere); idle connections
    /// to the old address are dropped.
    fn set_addr(&self, addr: SocketAddr) {
        *self.addr.lock() = addr;
        self.idle.lock().clear();
    }

    /// The config for one fresh dial: the shared policy with a retry
    /// seed derived from `(base seed, shard, dial count)`. Each
    /// connection jitters its backoff on its own schedule — a shard
    /// restart must not turn N pooled connections into N synchronized
    /// retry volleys — while a fixed base seed keeps the whole pattern
    /// replayable.
    fn dial_config(&self) -> ClientConfig {
        let mut config = self.config;
        if let Some(retry) = &mut config.retry {
            let dial = self.dialed.fetch_add(1, Ordering::Relaxed);
            retry.seed = splitmix64(retry.seed ^ ((self.shard as u64) << 32) ^ dial);
        }
        config
    }

    /// Runs `op` on a pooled (or freshly dialed) client. Returns the
    /// result plus the retries the client burned inside the call — the
    /// upstream leg's resilience cost, surfaced for `router.*` counters.
    fn with<T>(
        &self,
        op: impl FnOnce(&mut Client) -> crate::error::Result<T>,
    ) -> crate::error::Result<(T, u64)> {
        let mut client = match self.idle.lock().pop() {
            Some(c) => c,
            None => Client::connect_with(self.addr(), self.dial_config())?,
        };
        let before = client.client_stats().retries;
        let value = op(&mut client)?;
        let retries = client.client_stats().retries - before;
        let mut idle = self.idle.lock();
        if idle.len() < UPSTREAM_IDLE {
            idle.push(client);
        }
        Ok((value, retries))
    }
}

/// A router's backend: where every frame lives, the pooled upstream
/// connections to the shards, and one circuit breaker per shard, fed by
/// upstream fetches, stats hops, and the background prober alike.
pub(crate) struct Shards {
    map: ShardMap,
    pools: Vec<UpstreamPool>,
    breakers: Vec<CircuitBreaker>,
}

/// The `router.*` names a router counts under.
static ROUTER_COUNTERS: Counters = Counters {
    requests: CTR_ROUTER_REQUESTS,
    frames_served: CTR_ROUTER_FRAMES_SERVED,
    bytes_sent: CTR_ROUTER_BYTES_SENT,
    latency: HIST_ROUTER_LATENCY,
    handler_panics: CTR_ROUTER_HANDLER_PANICS,
    shed_connections: CTR_ROUTER_SHED_CONNECTIONS,
    accept_errors: CTR_ROUTER_ACCEPT_ERRORS,
    shed_extractions: CTR_ROUTER_SHED_EXTRACTIONS,
    cache_hits: CTR_ROUTER_CACHE_HITS,
    cache_misses: CTR_ROUTER_CACHE_MISSES,
    coalesced: CTR_ROUTER_COALESCED,
    frame_encodes: CTR_ROUTER_FRAME_ENCODES,
    frame_bytes_raw: CTR_ROUTER_FRAME_BYTES_RAW,
    frame_bytes_wire: CTR_ROUTER_FRAME_BYTES_WIRE,
    lod_requests: CTR_ROUTER_LOD_REQUESTS,
    lod_chunks: CTR_ROUTER_LOD_CHUNKS,
    lod_bytes_wire: CTR_ROUTER_LOD_BYTES_WIRE,
    span_request: "router.request",
    span_extract: "router.extract",
    span_encode: "router.encode",
    span_send: "router.send",
    span_lod_send: "router.lod_send",
};

/// Lands a breaker state transition on the `router.breaker_*` counters.
fn note_transition(metrics: &Registry, transition: Option<Transition>) {
    let name = match transition {
        Some(Transition::Opened) => CTR_ROUTER_BREAKER_OPEN,
        Some(Transition::HalfOpened) => CTR_ROUTER_BREAKER_HALF_OPEN,
        Some(Transition::Closed) => CTR_ROUTER_BREAKER_CLOSED,
        None => return,
    };
    metrics.add(name, 1);
}

/// A running shard router: binds its own listener, speaks the unchanged
/// AVWF protocol to clients, and proxies frame requests to the owning
/// shard over pooled, retrying upstream connections. See the
/// [module docs](self) for the full semantics.
///
/// ```
/// use accelviz_beam::distribution::Distribution;
/// use accelviz_core::shard::ShardSpec;
/// use accelviz_octree::builder::{partition, BuildParams};
/// use accelviz_octree::plots::PlotType;
/// use accelviz_serve::{Client, FrameRouter, FrameServer, RouterConfig, ServerConfig, ShardMap};
///
/// // Two shards that each expose the full 3-frame catalog, so the
/// // shared layout applies (local index == global index).
/// let data: Vec<_> = (0..3u64)
///     .map(|i| {
///         let ps = Distribution::default_beam().sample(300, i + 1);
///         partition(&ps, PlotType::XYZ, BuildParams::default())
///     })
///     .collect();
/// let a = FrameServer::spawn_loopback(data.clone(), ServerConfig::default()).unwrap();
/// let b = FrameServer::spawn_loopback(data, ServerConfig::default()).unwrap();
///
/// let map = ShardMap::shared(&ShardSpec::new(2), 3);
/// let router = FrameRouter::spawn(
///     "127.0.0.1:0",
///     vec![a.addr(), b.addr()],
///     map,
///     RouterConfig::default(),
/// )
/// .unwrap();
///
/// // A stock client cannot tell the router from a single server.
/// let mut client = Client::connect(router.addr()).unwrap();
/// assert_eq!(client.frame_count(), 3);
/// let (frame, _) = client.fetch(1, f64::INFINITY).unwrap();
/// assert_eq!(frame.step, 1);
///
/// drop(client);
/// router.shutdown();
/// a.shutdown();
/// b.shutdown();
/// ```
pub struct FrameRouter {
    /// Declared first so it drops first: a dying deployment's shards
    /// going away must not race probe verdicts into the breakers while
    /// the front door drains.
    prober: Option<Prober>,
    shards: Arc<Shards>,
    server: FrameServer,
}

impl FrameRouter {
    /// Binds `addr` and starts routing over the given shard addresses.
    /// `shards[i]` must be the server owning every `(i, local)` entry of
    /// `map`. Fails fast — with an error, not a degraded catalog — when
    /// the shard set is empty, its length disagrees with the map, any
    /// shard is unreachable at spawn, or a shard advertises fewer frames
    /// than the map routes to it.
    pub fn spawn(
        addr: &str,
        shards: Vec<SocketAddr>,
        map: ShardMap,
        config: RouterConfig,
    ) -> io::Result<FrameRouter> {
        // A map routes over at least one shard, so this also rejects an
        // empty shard set.
        if shards.len() != map.shard_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard map routes over {} shards but {} addresses were given",
                    map.shard_count(),
                    shards.len()
                ),
            ));
        }
        let shard_count = shards.len();
        let shards = Arc::new(Shards {
            map,
            pools: shards
                .into_iter()
                .enumerate()
                .map(|(i, a)| UpstreamPool::new(i, a, config.upstream))
                .collect(),
            breakers: (0..shard_count)
                .map(|_| CircuitBreaker::new(config.breaker))
                .collect(),
        });
        let service = ServerConfig {
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_connections: config.max_connections,
            // Every in-flight fetch holds its own connection, so at this
            // limit a router never sheds a fetch.
            max_inflight_extractions: config.max_connections,
            ..ServerConfig::default()
        };
        let cache = FrameCache::new(config.cache_bytes.max(1), HybridFrame::total_bytes);
        let backend = Backend::Shards(Arc::clone(&shards));
        let server = FrameServer::start(addr, backend, service, cache, &ROUTER_COUNTERS, None)?;
        let (addrs, verdicts) = (Arc::clone(&shards), Arc::clone(&shards));
        let shared = Arc::clone(&server.shared);
        let prober = Prober::spawn(
            config.health,
            shard_count,
            move |i| addrs.pools[i].addr(),
            move |i, ok| {
                let breaker = &verdicts.breakers[i];
                let (name, transition) = match ok {
                    true => (CTR_ROUTER_PROBE_OK, breaker.on_success()),
                    false => (CTR_ROUTER_PROBE_FAIL, breaker.on_failure()),
                };
                shared.metrics.add(name, 1);
                note_transition(&shared.metrics, transition);
            },
        );
        Ok(FrameRouter {
            prober,
            shards,
            server,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Shards this router routes over.
    pub fn shard_count(&self) -> usize {
        self.shards.map.shard_count()
    }

    /// The merged catalog served to `ListFrames`, in global frame order.
    pub fn catalog(&self) -> &[FrameInfo] {
        &self.server.shared.catalog
    }

    /// The router's private metrics registry — every `router.*` counter
    /// documented in this module, for tests and embedders. The wire
    /// `Stats` reply carries the *summed shard* counters instead,
    /// because its shape is frozen.
    pub fn metrics(&self) -> &Registry {
        self.server.metrics()
    }

    /// Repoints shard `shard`'s upstream pool at `addr` — the failover
    /// hook for a shard restarted on a new address. Idle pooled
    /// connections to the old address are dropped, and the shard's
    /// circuit breaker is reset to Closed: a replacement shard must not
    /// inherit the dead one's verdict, or the router would keep
    /// fast-failing a healthy server until a cooldown elapsed. The
    /// merged catalog is kept, so the replacement must serve the same
    /// frame slice. Errors when `shard` is out of range.
    pub fn set_shard_addr(&self, shard: usize, addr: SocketAddr) -> io::Result<()> {
        let shards = &self.shards;
        let Some(pool) = shards.pools.get(shard) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("shard {shard} out of range ({} shards)", self.shard_count()),
            ));
        };
        pool.set_addr(addr);
        note_transition(self.metrics(), shards.breakers[shard].reset());
        Ok(())
    }

    /// Shard `shard`'s current circuit-breaker state, for dashboards
    /// and tests. Panics when `shard` is out of range.
    pub fn breaker_state(&self, shard: usize) -> BreakerState {
        self.shards.breakers[shard].state()
    }

    /// Stops probing, then stops accepting, joins the acceptor, and
    /// drains in-flight replies (bounded by one second, like a server).
    pub fn shutdown(self) {
        let FrameRouter { prober, server, .. } = self;
        drop(prober);
        server.shutdown();
    }
}

/// Fetches every shard's catalog and stitches the merged global catalog:
/// entry `g` comes from its *primary* owner's local slot, relabeled with
/// the global index (`frame = g`, `step = g` — the run-wide convention a
/// direct server of the unsliced data would report). Every fallback
/// replica's local index is validated against its shard's catalog too —
/// a replica that cannot actually serve its frames would otherwise only
/// be discovered during a failover, the worst possible moment.
pub(crate) fn merge_catalogs(shards: &Shards) -> io::Result<Vec<FrameInfo>> {
    let map = &shards.map;
    let mut shard_catalogs = Vec::with_capacity(shards.pools.len());
    for (i, pool) in shards.pools.iter().enumerate() {
        let (catalog, _retries) = pool.with(|c| c.list_frames()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("shard {i} catalog fetch failed: {e}"),
            )
        })?;
        shard_catalogs.push(catalog);
    }
    let mut merged = Vec::with_capacity(map.frame_count());
    for g in 0..map.frame_count() {
        let replicas = map.replicas(g as u32).expect("g < frame_count");
        for &(shard, local) in replicas {
            let (shard, local) = (shard as usize, local as usize);
            if local >= shard_catalogs[shard].len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "shard {shard} advertises {} frames but the map routes global frame {g} \
                         to its local index {local}",
                        shard_catalogs[shard].len()
                    ),
                ));
            }
        }
        let (shard, local) = (replicas[0].0 as usize, replicas[0].1 as usize);
        let entry = &shard_catalogs[shard][local];
        merged.push(FrameInfo {
            frame: g as u32,
            step: g as u64,
            particles: entry.particles,
            default_threshold: entry.default_threshold,
        });
    }
    Ok(merged)
}

/// Runs one upstream operation against shard `shard` through its pool,
/// if the shard's breaker admits it; `None` when the breaker fast-fails
/// (microseconds, no dial, no retry budget). The breaker is told the
/// outcome, and state transitions, fast-fails, retries burned and
/// errors land on the `router.*` counters. Admission is lazy — a
/// half-open trial slot is only claimed when the caller is actually
/// about to use it.
fn upstream<T>(
    shards: &Shards,
    metrics: &Registry,
    shard: usize,
    op: impl FnOnce(&UpstreamPool) -> crate::error::Result<(T, u64)>,
) -> Option<crate::error::Result<T>> {
    let breaker = &shards.breakers[shard];
    let (admission, transition) = breaker.admit();
    note_transition(metrics, transition);
    if admission == Admission::FastFail {
        metrics.add(CTR_ROUTER_BREAKER_FAST_FAILS, 1);
        return None;
    }
    Some(match op(&shards.pools[shard]) {
        Ok((value, retries)) => {
            metrics.add(CTR_ROUTER_UPSTREAM_RETRIES, retries);
            note_transition(metrics, breaker.on_success());
            Ok(value)
        }
        Err(e) => {
            metrics.add(CTR_ROUTER_UPSTREAM_ERRORS, 1);
            note_transition(metrics, breaker.on_failure());
            Err(e)
        }
    })
}

/// One logical frame fetch, resolved across the frame's replica set:
/// walk the preference order, skip replicas whose breaker fast-fails,
/// attempt the rest in turn, and stop at the first success. Only when
/// every replica has either fast-failed or genuinely failed does the
/// fetch fail, which the caller turns into the in-band `ERR_INTERNAL`
/// degraded path; with replication ≥ 2 a single dead shard therefore
/// costs zero degraded frames.
///
/// The decoded frame is relabeled with its *global* step index: a
/// sliced shard only knows its local frame numbering, and the run-wide
/// convention (what a direct server of the unsliced data bakes into the
/// frame, and what the merged catalog advertises) is `step == global
/// index`.
pub(crate) fn fetch_replicated(
    shards: &Shards,
    metrics: &Registry,
    frame: u32,
    threshold: f64,
) -> Result<HybridFrame, String> {
    let replicas = shards
        .map
        .replicas(frame)
        .expect("caller checked the frame exists");
    let mut last_err: Option<String> = None;
    for (idx, &(shard, local)) in replicas.iter().enumerate() {
        let fetched = upstream(shards, metrics, shard as usize, |pool| {
            metrics.add(CTR_ROUTER_UPSTREAM_FETCHES, 1);
            let t0 = Instant::now();
            let result = pool.with(|c| c.fetch(local, threshold));
            metrics.record_seconds(HIST_ROUTER_UPSTREAM_LATENCY, t0.elapsed().as_secs_f64());
            result
        });
        match fetched {
            None => {}
            Some(Ok((mut decoded, _metrics))) => {
                if idx > 0 {
                    metrics.add(CTR_ROUTER_REPLICA_FAILOVERS, 1);
                }
                decoded.step = frame as usize;
                return Ok(decoded);
            }
            Some(Err(e)) => {
                last_err = Some(format!(
                    "shard {shard} failed serving its frame {local}: {e}"
                ))
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        format!(
            "every replica's circuit breaker is open for frame {frame} \
             ({} replicas)",
            replicas.len()
        )
    }))
}

/// Sums every reachable shard's `Stats` snapshot into one wire-shaped
/// total; a shard that cannot answer contributes zeros (and an
/// `router.upstream_errors` count) instead of failing the reply, and a
/// shard whose breaker is open is skipped outright (a
/// `router.breaker_fast_fails` count) — one dead shard must not add its
/// full retry budget to every `Stats` round trip. Stats hops feed the
/// breakers like any other upstream traffic, so a `Stats` poll doubles
/// as a half-open trial once the cooldown elapses.
pub(crate) fn aggregate_stats(shards: &Shards, metrics: &Registry) -> ServerStats {
    let mut total = ServerStats::default();
    for shard in 0..shards.pools.len() {
        if let Some(Ok(s)) = upstream(shards, metrics, shard, |pool| pool.with(|c| c.stats())) {
            total.merge(&s);
        }
    }
    total
}

/// A whole sharded deployment in one handle: N loopback shard servers,
/// each owning its rendezvous slice of the catalog, fronted by a
/// [`FrameRouter`] — the test, example, and single-host topology. For a
/// distributed deployment, spawn [`FrameServer`]s where the data lives
/// and wire a [`FrameRouter::spawn`] to their addresses instead.
///
/// ```
/// use accelviz_beam::distribution::Distribution;
/// use accelviz_octree::builder::{partition, BuildParams};
/// use accelviz_octree::plots::PlotType;
/// use accelviz_serve::{Client, RouterConfig, ServerConfig, ShardedFrameService};
///
/// let data: Vec<_> = (0..3u64)
///     .map(|i| {
///         let ps = Distribution::default_beam().sample(300, i + 1);
///         partition(&ps, PlotType::XYZ, BuildParams::default())
///     })
///     .collect();
/// let service = ShardedFrameService::spawn_loopback(
///     data,
///     2,
///     ServerConfig::default(),
///     RouterConfig::default(),
/// )
/// .unwrap();
/// assert_eq!(service.shard_count(), 2);
///
/// let mut client = Client::connect(service.addr()).unwrap();
/// let catalog = client.list_frames().unwrap();
/// assert_eq!(catalog.len(), 3);
/// let (frame, _) = client.fetch(2, f64::INFINITY).unwrap();
/// assert_eq!(frame.step, 2);
///
/// drop(client);
/// service.shutdown();
/// ```
pub struct ShardedFrameService {
    /// `None` marks a shard killed by [`ShardedFrameService::kill_shard`]
    /// and not yet reinstated.
    shards: Vec<Option<FrameServer>>,
    /// What each shard serves — retained so a killed shard can be
    /// respawned bit-identically by
    /// [`ShardedFrameService::reinstate_shard`].
    sources: Vec<ShardSource>,
    shard_config: ServerConfig,
    router: FrameRouter,
}

/// The data a shard was provisioned with, kept for reinstatement.
enum ShardSource {
    /// A physically sliced shard's frames, in local-index order.
    Sliced(Vec<PartitionedData>),
    /// A stored shard's shared out-of-core run.
    Stored(Arc<ResidentRun>),
}

impl ShardedFrameService {
    /// Spawns `shards` loopback shard servers over `data` sliced by
    /// rendezvous ownership ([`ShardMap::sliced`]) plus the fronting
    /// router — the single-replica layout, bit-identical to the
    /// pre-replication service. Rejects an empty shard set with
    /// `InvalidInput`.
    pub fn spawn_loopback(
        data: Vec<PartitionedData>,
        shards: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        Self::spawn_loopback_replicated(data, shards, 1, shard_config, router_config)
    }

    /// Spawns `shards` loopback shard servers over `data`, each
    /// provisioned with the (overlapping, when `replication > 1`)
    /// slice of frames whose rendezvous replica set includes it
    /// ([`ShardMap::sliced_replicated`]), plus the fronting router.
    /// With `replication >= 2` every frame lives on at least two shards
    /// and a single shard kill costs zero degraded frames. Rejects an
    /// empty shard set or a zero replication factor with
    /// `InvalidInput`; `replication` above the shard count clamps.
    pub fn spawn_loopback_replicated(
        data: Vec<PartitionedData>,
        shards: usize,
        replication: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let spec = Self::validated_spec(shards, replication)?;
        let map = ShardMap::sliced_replicated(&spec, data.len(), replication);
        let mut slices: Vec<Vec<PartitionedData>> = (0..shards).map(|_| Vec::new()).collect();
        for (g, d) in data.into_iter().enumerate() {
            let set = map.replicas(g as u32).expect("g is in range");
            // Ascending-g pushes reproduce each shard's local ranking;
            // the last replica takes the original, the rest clone.
            let (last, rest) = set.split_last().expect("replica sets are nonempty");
            for &(shard, _) in rest {
                slices[shard as usize].push(d.clone());
            }
            slices[last.0 as usize].push(d);
        }
        let sources: Vec<ShardSource> = slices.into_iter().map(ShardSource::Sliced).collect();
        Self::front(sources, map, shard_config, router_config)
    }

    /// Spawns `shards` loopback shard servers that all read the same
    /// out-of-core `run` (ownership is logical, [`ShardMap::shared`]),
    /// plus the fronting router — single-replica routing preference.
    pub fn spawn_stored_loopback(
        run: Arc<ResidentRun>,
        shards: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        Self::spawn_stored_loopback_replicated(run, shards, 1, shard_config, router_config)
    }

    /// The replicated twin of
    /// [`ShardedFrameService::spawn_stored_loopback`]: every shard
    /// already exposes the full catalog, so replication here is purely
    /// a routing property ([`ShardMap::shared_replicated`]) — no frame
    /// is provisioned twice, but each request has `replication` shards
    /// to fall through.
    pub fn spawn_stored_loopback_replicated(
        run: Arc<ResidentRun>,
        shards: usize,
        replication: usize,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let spec = Self::validated_spec(shards, replication)?;
        let map = ShardMap::shared_replicated(&spec, run.frame_count(), replication);
        let sources = (0..shards)
            .map(|_| ShardSource::Stored(Arc::clone(&run)))
            .collect();
        Self::front(sources, map, shard_config, router_config)
    }

    fn validated_spec(shards: usize, replication: usize) -> io::Result<ShardSpec> {
        if shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded service needs at least one shard",
            ));
        }
        if replication == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sharded service needs a replication factor of at least 1",
            ));
        }
        Ok(ShardSpec::new(shards))
    }

    fn front(
        sources: Vec<ShardSource>,
        map: ShardMap,
        shard_config: ServerConfig,
        router_config: RouterConfig,
    ) -> io::Result<ShardedFrameService> {
        let servers = sources
            .iter()
            .map(|source| spawn_shard(source, shard_config))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = servers.iter().map(|s| s.addr()).collect();
        let router = FrameRouter::spawn("127.0.0.1:0", addrs, map, router_config)?;
        Ok(ShardedFrameService {
            shards: servers.into_iter().map(Some).collect(),
            sources,
            shard_config,
            router,
        })
    }

    /// The router address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Shard servers behind the router (killed ones included).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s server handle (its private address, metrics, stats).
    ///
    /// # Panics
    /// Panics when shard `i` is currently killed — a dead server has no
    /// handle to return.
    pub fn shard(&self, i: usize) -> &FrameServer {
        self.shards[i]
            .as_ref()
            .expect("shard was killed and not reinstated")
    }

    /// Whether shard `i` is currently live.
    pub fn shard_alive(&self, i: usize) -> bool {
        self.shards[i].is_some()
    }

    /// Kills shard `i`: shuts the server down and drops its handle, so
    /// every connection to it — pooled upstream connections included —
    /// starts failing. The router is told nothing; discovering the
    /// death (retries, breaker trip, probe failures) and surviving it
    /// (replica fall-through) is exactly what this hook exists to
    /// exercise. A no-op when the shard is already dead.
    pub fn kill_shard(&mut self, i: usize) {
        if let Some(server) = self.shards[i].take() {
            server.shutdown();
        }
    }

    /// Reinstates a killed shard `i`: respawns a server over the same
    /// source data (bit-identical frames, fresh address) and repoints
    /// the router's pool at it — which also resets the shard's breaker,
    /// per [`FrameRouter::set_shard_addr`]. A no-op when the shard is
    /// alive.
    pub fn reinstate_shard(&mut self, i: usize) -> io::Result<()> {
        if self.shards[i].is_some() {
            return Ok(());
        }
        let server = spawn_shard(&self.sources[i], self.shard_config)?;
        self.router.set_shard_addr(i, server.addr())?;
        self.shards[i] = Some(server);
        Ok(())
    }

    /// The fronting router (its `router.*` metrics, the failover hook).
    pub fn router(&self) -> &FrameRouter {
        &self.router
    }

    /// Sum of every *live* shard's local stats — the same totals a
    /// client reads with a `Stats` request through the router (which
    /// likewise counts a dead shard as zeros).
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for shard in self.shards.iter().flatten() {
            total.merge(&shard.stats());
        }
        total
    }

    /// Stops the router first (so no request races a dying shard), then
    /// every live shard.
    pub fn shutdown(self) {
        let ShardedFrameService { shards, router, .. } = self;
        router.shutdown();
        for shard in shards.into_iter().flatten() {
            shard.shutdown();
        }
    }
}

/// Spawns one shard server over its retained source.
fn spawn_shard(source: &ShardSource, config: ServerConfig) -> io::Result<FrameServer> {
    match source {
        ShardSource::Sliced(slice) => FrameServer::spawn_loopback(slice.clone(), config),
        ShardSource::Stored(run) => FrameServer::spawn_stored_loopback(Arc::clone(run), config),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliced_map_ranks_local_indices_per_shard() {
        let spec = ShardSpec::new(3);
        let map = ShardMap::sliced(&spec, 50);
        let mut seen = [0u32; 3];
        for g in 0..50u32 {
            let (shard, local) = map.locate(g).unwrap();
            assert_eq!(shard, spec.owner_of(g));
            assert_eq!(local, seen[shard], "locals are dense and ascending");
            seen[shard] += 1;
        }
        let total: u32 = seen.iter().sum();
        assert_eq!(total, 50);
        for (s, &count) in seen.iter().enumerate() {
            assert_eq!(map.frames_owned_by(s).len(), count as usize);
        }
    }

    #[test]
    fn shared_map_uses_global_indices_locally() {
        let map = ShardMap::shared(&ShardSpec::new(2), 10);
        for g in 0..10u32 {
            let (_, local) = map.locate(g).unwrap();
            assert_eq!(local, g);
        }
        assert!(map.locate(10).is_none());
    }
}
