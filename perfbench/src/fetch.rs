//! The three fetch workloads: `hot-view`, `sweep` and `sharded-playback`.
//!
//! Each one runs 2 closed-loop clients on their own threads, one
//! connection each, against servers spawned in this process on loopback.
//! A client sends its next request only once the previous reply is
//! decoded, verified by the client library, and checked here.

use crate::harness::{self, closed_loop, LoadGen, Stamp};
use crate::report::{Metrics, Outcome};
use crate::{spans, sys, Rng};
use accelviz_bench::workloads;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::extraction;
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::lod::{self, ProgressiveAssembler};
use accelviz_serve::router::{
    CTR_ROUTER_BREAKER_FAST_FAILS, CTR_ROUTER_CACHE_HITS, CTR_ROUTER_CACHE_MISSES,
    CTR_ROUTER_REPLICA_FAILOVERS, CTR_ROUTER_REQUESTS, CTR_ROUTER_UPSTREAM_ERRORS,
    CTR_ROUTER_UPSTREAM_FETCHES,
};
use accelviz_serve::stats::{
    CTR_CACHE_HITS, CTR_CACHE_MISSES, CTR_FRAME_BYTES_RAW, CTR_FRAME_BYTES_WIRE,
    CTR_SHED_CONNECTIONS, CTR_SHED_EXTRACTIONS,
};
use accelviz_serve::{
    wire, Client, ClientConfig, Connector, FrameServer, RouterConfig, ServeError, ServerConfig,
    ShardedFrameService, Transport,
};
use accelviz_store::ResidentRun;
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Frames in every series (`halo_series` records `steps + 1` snapshots).
const FRAMES: usize = 16;
const WORKER_THREADS: usize = 2;
/// Chunk budget of progressive fetches, fixed so the server's
/// environment cannot change the stream.
const CHUNK_BYTES: u64 = lod::DEFAULT_CHUNK_BYTES;
/// Replayed operations per traced run.
const REPLAYS: usize = 40;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    HotView,
    Sweep,
    Sharded,
}

/// Sizes of one fetch workload.
struct Params {
    particles: usize,
    volume: usize,
    point_budget: usize,
    /// Residency budget of the stored run, in frames (sweep only).
    resident_frames: u64,
    /// Router cache budget, in mean frames (sharded-playback only).
    router_frames: u64,
}

fn params(kind: Kind) -> Params {
    match kind {
        Kind::HotView | Kind::Sharded => Params {
            particles: 50_000,
            volume: 64,
            point_budget: 4_000,
            resident_frames: 0,
            router_frames: 4,
        },
        Kind::Sweep => Params {
            particles: 200_000,
            volume: 32,
            point_budget: 4_000,
            resident_frames: 3,
            router_frames: 0,
        },
    }
}

enum Service {
    Direct(FrameServer),
    Sharded(ShardedFrameService),
}

/// Everything one set-up builds: the served data, the servers, and the
/// local reference each served frame is checked against.
struct Env {
    kind: Kind,
    dims: [usize; 3],
    /// The partitioned frames, kept locally as the correctness oracle.
    parts: Vec<PartitionedData>,
    /// The catalog's default threshold per frame.
    thresholds: Vec<f64>,
    /// Local `HybridFrame::from_partition` at the default threshold
    /// (hot-view and sharded-playback, whose keys are all defaults).
    refs: Vec<Option<HybridFrame>>,
    /// The frames hot-view's clients cycle.
    hot: Vec<u32>,
    service: Service,
    run: Option<Arc<ResidentRun>>,
    /// The run file behind `run`, removed with the environment.
    run_path: Option<PathBuf>,
    /// Keys sweep has requested so far; every request must be new.
    seen: Mutex<HashSet<(u32, u64)>>,
    /// Id of the next client operation, shared by all its spans.
    next_op: AtomicU64,
    seed: u64,
    simulate_s: f64,
    partition_s: f64,
    write_s: f64,
}

impl Drop for Env {
    fn drop(&mut self) {
        // The server may still map the file; unlinking leaves that valid.
        if let Some(path) = &self.run_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Env {
    fn addr(&self) -> SocketAddr {
        match &self.service {
            Service::Direct(s) => s.addr(),
            Service::Sharded(s) => s.addr(),
        }
    }
}

fn setup(kind: Kind, seed: u64, out_dir: &std::path::Path, rep: usize) -> Env {
    let p = params(kind);
    let dims = [p.volume; 3];
    let t = Instant::now();
    let series = workloads::halo_series(p.particles, FRAMES - 1, seed);
    let simulate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let parts: Vec<PartitionedData> = series
        .iter()
        .map(|s| workloads::partitioned(s, PlotType::XYZ))
        .collect();
    drop(series);
    let partition_s = t.elapsed().as_secs_f64();

    let config = ServerConfig {
        volume_dims: dims,
        point_budget: p.point_budget,
        worker_threads: WORKER_THREADS,
        ..ServerConfig::default()
    };
    let mut write_s = 0.0;
    let mut run = None;
    let mut run_path = None;
    let mut refs: Vec<Option<HybridFrame>> = vec![None; FRAMES];
    let local_threshold = |f: usize| extraction::threshold_for_budget(&parts[f], p.point_budget);
    let mut hot = Vec::new();
    let service = match kind {
        Kind::HotView => {
            let mut rng = Rng::new(seed ^ 0x407);
            while hot.len() < 4 {
                let f = rng.below(FRAMES as u64) as u32;
                if !hot.contains(&f) {
                    hot.push(f);
                }
            }
            for &f in &hot {
                let f = f as usize;
                refs[f] = Some(HybridFrame::from_partition(
                    &parts[f],
                    f,
                    local_threshold(f),
                    dims,
                ));
            }
            Service::Direct(
                FrameServer::spawn_loopback(parts.clone(), config).expect("spawn hot-view server"),
            )
        }
        Kind::Sweep => {
            let t = Instant::now();
            let path = out_dir.join(format!("sweep-{}-{rep}.avrun", std::process::id()));
            accelviz_store::run::write_run_file(&path, &parts, accelviz_store::DEFAULT_CHUNK_BYTES)
                .expect("write the sweep run file");
            let total = accelviz_store::RunStore::open(&path)
                .expect("reopen the run file")
                .frame_bytes(0);
            let r = Arc::new(
                ResidentRun::open(&path, total * p.resident_frames).expect("open resident run"),
            );
            write_s = t.elapsed().as_secs_f64();
            run = Some(Arc::clone(&r));
            run_path = Some(path);
            Service::Direct(
                FrameServer::spawn_stored_loopback(r, config).expect("spawn sweep server"),
            )
        }
        Kind::Sharded => {
            let mut mean_bytes = 0u64;
            for (f, r) in refs.iter_mut().enumerate() {
                let frame = HybridFrame::from_partition(&parts[f], f, local_threshold(f), dims);
                mean_bytes += frame.total_bytes() / FRAMES as u64;
                *r = Some(frame);
            }
            let router = RouterConfig {
                cache_bytes: p.router_frames * mean_bytes,
                ..RouterConfig::default()
            };
            Service::Sharded(
                ShardedFrameService::spawn_loopback_replicated(parts.clone(), 2, 2, config, router)
                    .expect("spawn sharded service"),
            )
        }
    };
    let mut env = Env {
        kind,
        dims,
        parts,
        thresholds: Vec::new(),
        refs,
        hot,
        service,
        run,
        run_path,
        seen: Mutex::new(HashSet::new()),
        next_op: AtomicU64::new(0),
        seed,
        simulate_s,
        partition_s,
        write_s,
    };
    let mut client = Client::connect(env.addr()).expect("catalog client");
    env.thresholds = client
        .list_frames()
        .expect("list frames")
        .iter()
        .map(|i| i.default_threshold)
        .collect();
    assert_eq!(env.thresholds.len(), FRAMES, "catalog size");
    // Warm-up, untimed by the window: hot-view fills the server cache with
    // its hot keys, sharded-playback fills every shard cache once.
    let warm: Vec<u32> = match kind {
        Kind::HotView => env.hot.clone(),
        Kind::Sharded => (0..FRAMES as u32).collect(),
        Kind::Sweep => Vec::new(),
    };
    for f in warm {
        client
            .fetch(f, env.thresholds[f as usize])
            .expect("warm-up fetch");
    }
    env
}

/// Counters of every server-side layer, read before and after a window.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    shed: u64,
    raw_bytes: u64,
    wire_bytes: u64,
    router_requests: u64,
    router_hits: u64,
    router_misses: u64,
    router_upstream: u64,
    router_upstream_errors: u64,
    router_fast_fails: u64,
    router_failovers: u64,
    cold_loads: u64,
    warm_hits: u64,
    evictions: u64,
    bytes_read: u64,
}

impl Counters {
    fn read(env: &Env) -> Counters {
        let mut c = Counters::default();
        let mut add_server = |s: &FrameServer| {
            let m = s.metrics();
            c.hits += m.counter(CTR_CACHE_HITS);
            c.misses += m.counter(CTR_CACHE_MISSES);
            c.shed += m.counter(CTR_SHED_CONNECTIONS) + m.counter(CTR_SHED_EXTRACTIONS);
            c.raw_bytes += m.counter(CTR_FRAME_BYTES_RAW);
            c.wire_bytes += m.counter(CTR_FRAME_BYTES_WIRE);
        };
        match &env.service {
            Service::Direct(s) => add_server(s),
            Service::Sharded(svc) => {
                for i in 0..svc.shard_count() {
                    add_server(svc.shard(i));
                }
                let m = svc.router().metrics();
                c.router_requests = m.counter(CTR_ROUTER_REQUESTS);
                c.router_hits = m.counter(CTR_ROUTER_CACHE_HITS);
                c.router_misses = m.counter(CTR_ROUTER_CACHE_MISSES);
                c.router_upstream = m.counter(CTR_ROUTER_UPSTREAM_FETCHES);
                c.router_upstream_errors = m.counter(CTR_ROUTER_UPSTREAM_ERRORS);
                c.router_fast_fails = m.counter(CTR_ROUTER_BREAKER_FAST_FAILS);
                c.router_failovers = m.counter(CTR_ROUTER_REPLICA_FAILOVERS);
            }
        }
        if let Some(run) = &env.run {
            let s = run.stats();
            c.cold_loads = s.cold_loads;
            c.warm_hits = s.warm_hits;
            c.evictions = s.evictions;
            c.bytes_read = s.bytes_read;
        }
        c
    }

    fn zip(&self, other: &Counters, op: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            hits: op(self.hits, other.hits),
            misses: op(self.misses, other.misses),
            shed: op(self.shed, other.shed),
            raw_bytes: op(self.raw_bytes, other.raw_bytes),
            wire_bytes: op(self.wire_bytes, other.wire_bytes),
            router_requests: op(self.router_requests, other.router_requests),
            router_hits: op(self.router_hits, other.router_hits),
            router_misses: op(self.router_misses, other.router_misses),
            router_upstream: op(self.router_upstream, other.router_upstream),
            router_upstream_errors: op(self.router_upstream_errors, other.router_upstream_errors),
            router_fast_fails: op(self.router_fast_fails, other.router_fast_fails),
            router_failovers: op(self.router_failovers, other.router_failovers),
            cold_loads: op(self.cold_loads, other.cold_loads),
            warm_hits: op(self.warm_hits, other.warm_hits),
            evictions: op(self.evictions, other.evictions),
            bytes_read: op(self.bytes_read, other.bytes_read),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        self.zip(before, |a, b| a - b)
    }

    fn plus(&self, other: &Counters) -> Counters {
        self.zip(other, |a, b| a + b)
    }
}

/// Stamps the moment the first reply envelope after each request has
/// fully arrived, by watching the bytes a client reads. For a
/// progressive fetch that envelope is the coarse, renderable record.
#[derive(Default)]
struct ReplyProbe(Mutex<ProbeState>);

#[derive(Default)]
struct ProbeState {
    reading: bool,
    read: u64,
    header: Vec<u8>,
    first_at: Option<Instant>,
}

impl ReplyProbe {
    fn on_write(&self) {
        let mut s = self.0.lock().expect("probe lock");
        if s.reading {
            *s = ProbeState::default();
        }
    }

    fn on_read(&self, bytes: &[u8]) {
        let mut s = self.0.lock().expect("probe lock");
        s.reading = true;
        s.read += bytes.len() as u64;
        let want = (wire::HEADER_BYTES as usize).saturating_sub(s.header.len());
        s.header.extend_from_slice(&bytes[..want.min(bytes.len())]);
        if s.first_at.is_none() && s.header.len() == wire::HEADER_BYTES as usize {
            let len = u64::from_le_bytes(s.header[8..16].try_into().expect("8 bytes"));
            if s.read >= wire::HEADER_BYTES + len + wire::CHECKSUM_BYTES {
                s.first_at = Some(Instant::now());
            }
        }
    }

    fn first_at(&self) -> Option<Instant> {
        self.0.lock().expect("probe lock").first_at
    }
}

struct ProbedStream {
    stream: TcpStream,
    probe: Arc<ReplyProbe>,
}

impl Read for ProbedStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.probe.on_read(&buf[..n]);
        Ok(n)
    }
}

impl Write for ProbedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.probe.on_write();
        self.stream.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Dials like the client library's TCP connector (same timeouts, no
/// Nagle) and wraps each stream in a [`ReplyProbe`].
struct ProbedConnector {
    addr: SocketAddr,
    probe: Arc<ReplyProbe>,
}

impl Connector for ProbedConnector {
    fn connect(&mut self) -> accelviz_serve::Result<Box<dyn Transport>> {
        let timeout = Some(Duration::from_secs(30));
        let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(30))
            .map_err(ServeError::Io)?;
        stream.set_nodelay(true).map_err(ServeError::Io)?;
        stream.set_read_timeout(timeout).map_err(ServeError::Io)?;
        stream.set_write_timeout(timeout).map_err(ServeError::Io)?;
        Ok(Box::new(ProbedStream {
            stream,
            probe: Arc::clone(&self.probe),
        }))
    }
}

/// One completed operation of a window.
struct Op {
    stamp: Stamp,
    progressive: bool,
    wire_bytes: u64,
    first_chunk_ms: Option<f64>,
}

/// One load-generating client.
struct Gen<'e> {
    env: &'e Env,
    client: Client,
    probe: Option<Arc<ReplyProbe>>,
    rng: Rng,
    /// Position in this client's request sequence.
    i: u64,
    /// Where the sequence starts: the client's index.
    offset: u64,
    ops: Vec<Op>,
    issued: u64,
    failed: u64,
    errors: Vec<String>,
    /// Served sweep keys with the digest of the frame that came back.
    digests: Vec<(u32, f64, u64)>,
    cpu0: f64,
    cpu_s: f64,
}

impl<'e> Gen<'e> {
    fn new(env: &'e Env, c: usize, window: u64) -> Gen<'e> {
        let (client, probe) = match env.kind {
            Kind::Sharded => {
                let probe = Arc::new(ReplyProbe::default());
                let connector = ProbedConnector {
                    addr: env.addr(),
                    probe: Arc::clone(&probe),
                };
                let client = Client::connect_via(Box::new(connector), ClientConfig::default());
                (client, Some(probe))
            }
            _ => (Client::connect(env.addr()), None),
        };
        Gen {
            env,
            client: client.expect("load generator connects"),
            probe,
            rng: Rng::new(env.seed ^ (window << 32) ^ (c as u64 + 1)),
            i: 0,
            offset: c as u64,
            ops: Vec::new(),
            issued: 0,
            failed: 0,
            errors: Vec::new(),
            digests: Vec::new(),
            cpu0: 0.0,
            cpu_s: 0.0,
        }
    }

    /// The next (frame, threshold, progressive) request of this client.
    fn next_request(&mut self) -> (u32, f64, bool) {
        let i = self.i;
        self.i += 1;
        match self.env.kind {
            Kind::HotView => {
                let hot = &self.env.hot;
                let f = hot[((i + self.offset) % hot.len() as u64) as usize];
                (f, self.env.thresholds[f as usize], false)
            }
            Kind::Sharded => {
                // Each client plays every CLIENTS-th frame in order from
                // its own offset, so together they play the whole series
                // and never share a key: a client's lap (8 frames) is
                // longer than the router's cache (4), so nearly every
                // request goes upstream however the clients' phases
                // drift. The kind flips every lap so every frame is
                // fetched both ways.
                let lap = (FRAMES / CLIENTS) as u64;
                let f = (self.offset + CLIENTS as u64 * (i % lap)) as u32;
                let progressive = (i + i / lap) % 2 == 1;
                (f, self.env.thresholds[f as usize], progressive)
            }
            Kind::Sweep => loop {
                let f = self.rng.below(FRAMES as u64) as u32;
                // A seeded spread of thresholds around the catalog
                // default, a factor of e^0.7 either way.
                let t = self.env.thresholds[f as usize] * (1.4 * self.rng.unit() - 0.7).exp();
                let mut seen = self.env.seen.lock().expect("seen-keys lock");
                if seen.insert((f, t.to_bits())) {
                    break (f, t, false);
                }
            },
        }
    }

    fn check(&mut self, frame: u32, threshold: f64, got: &HybridFrame) -> bool {
        match self.env.kind {
            Kind::Sweep => {
                // Rebuilding a 200k-particle frame here would double the
                // client's CPU, so the frame is digested and rebuilt
                // after the window.
                let digest = wire::fnv1a64(&wire::encode_frame(got));
                self.digests.push((frame, threshold, digest));
                true
            }
            _ => {
                let want = self.env.refs[frame as usize]
                    .as_ref()
                    .expect("reference for every requested frame");
                if got != want {
                    self.errors
                        .push(format!("frame {frame} differs from local extraction"));
                }
                got == want
            }
        }
    }
}

impl LoadGen for Gen<'_> {
    fn begin(&mut self) {
        self.cpu0 = sys::thread_cpu_s();
    }

    fn step(&mut self) -> bool {
        let (frame, threshold, progressive) = self.next_request();
        self.issued += 1;
        let mut root = accelviz_trace::span("bench::op");
        root.arg(
            "op",
            self.env.next_op.fetch_add(1, Ordering::Relaxed) as f64,
        );
        let (stamp, result) = Stamp::time(|| {
            if progressive {
                let _s = accelviz_trace::span("client::fetch_progressive");
                self.client.fetch_progressive(frame, threshold, CHUNK_BYTES)
            } else {
                let _s = accelviz_trace::span("client::fetch");
                self.client.fetch(frame, threshold)
            }
        });
        let ok = match result {
            Ok((got, metrics)) => {
                let _s = accelviz_trace::span("bench::verify");
                let first_chunk_ms = match (&self.probe, progressive) {
                    (Some(p), true) => p.first_at().map(|t| (t - stamp.start).as_secs_f64() * 1e3),
                    _ => None,
                };
                let ok = self.check(frame, threshold, &got)
                    && (!progressive || first_chunk_ms.is_some());
                if ok {
                    self.ops.push(Op {
                        stamp,
                        progressive,
                        wire_bytes: metrics.wire_bytes,
                        first_chunk_ms,
                    });
                }
                ok
            }
            Err(e) => {
                self.errors.push(format!("frame {frame}: {e}"));
                false
            }
        };
        if !ok {
            self.failed += 1;
        }
        true
    }

    fn end(&mut self) {
        self.cpu_s = sys::thread_cpu_s() - self.cpu0;
    }
}

/// What one measured window produced.
struct Window {
    ops: Vec<Op>,
    wall_s: f64,
    issued: u64,
    failed: u64,
    errors: Vec<String>,
    digests: Vec<(u32, f64, u64)>,
    client_cpu_s: f64,
    process_cpu_s: f64,
    retries: u64,
    reconnects: u64,
    delta: Counters,
}

impl Window {
    fn all_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.stamp.ms()).collect()
    }

    fn plain_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|o| !o.progressive)
            .map(|o| o.stamp.ms())
            .collect()
    }
}

fn measure(env: &Env, seconds: f64, window: u64) -> Window {
    let before = Counters::read(env);
    let cpu0 = sys::process_cpu_s();
    let gens = closed_loop(CLIENTS, Duration::from_secs_f64(seconds), |c| {
        Gen::new(env, c, window)
    });
    let process_cpu_s = sys::process_cpu_s() - cpu0;
    let delta = Counters::read(env).since(&before);
    let mut w = Window {
        ops: Vec::new(),
        wall_s: 0.0,
        issued: 0,
        failed: 0,
        errors: Vec::new(),
        digests: Vec::new(),
        client_cpu_s: 0.0,
        process_cpu_s,
        retries: 0,
        reconnects: 0,
        delta,
    };
    for g in gens {
        let stats = g.client.client_stats();
        w.retries += stats.retries;
        w.reconnects += stats.reconnects;
        w.issued += g.issued;
        w.failed += g.failed;
        w.client_cpu_s += g.cpu_s;
        w.errors.extend(g.errors);
        w.digests.extend(g.digests);
        w.ops.extend(g.ops);
    }
    w.wall_s = harness::wall_seconds(w.ops.iter().map(|o| &o.stamp));
    ledger(env, &mut w);
    w
}

/// Cross-checks the server-side counters against what the clients sent,
/// so a harness that loses or double-counts requests fails loudly.
fn ledger(env: &Env, w: &mut Window) {
    let d = w.delta;
    // A retried request may or may not have reached the server.
    let within = |n: u64| n >= w.issued && n <= w.issued + w.retries;
    let mut bad = Vec::new();
    match env.kind {
        Kind::HotView | Kind::Sweep => {
            if !within(d.hits + d.misses) {
                bad.push(format!(
                    "server saw {} frame requests, clients issued {}",
                    d.hits + d.misses,
                    w.issued
                ));
            }
        }
        Kind::Sharded => {
            // The router also counts each connection's Hello.
            let handshakes = (CLIENTS as u64) + w.reconnects;
            if !within(d.router_requests - handshakes.min(d.router_requests))
                || !within(d.router_hits + d.router_misses)
            {
                bad.push(format!(
                    "router counted {} requests ({} cache lookups), clients issued {}",
                    d.router_requests,
                    d.router_hits + d.router_misses,
                    w.issued
                ));
            }
            if d.hits + d.misses != d.router_upstream {
                bad.push(format!(
                    "shards saw {} frame requests, router sent {} upstream",
                    d.hits + d.misses,
                    d.router_upstream
                ));
            }
        }
    }
    if env.kind == Kind::Sweep {
        if d.hits != 0 {
            bad.push(format!("{} sweep requests hit a cache entry", d.hits));
        }
        if d.cold_loads + d.warm_hits != d.misses {
            bad.push(format!(
                "store served {} page-ins for {} extractions",
                d.cold_loads + d.warm_hits,
                d.misses
            ));
        }
    }
    w.failed += bad.len() as u64;
    w.errors.extend(bad);
}

/// Rebuilds every served sweep key locally and compares digests.
fn verify_digests(env: &Env, digests: &[(u32, f64, u64)]) -> Vec<String> {
    let half = digests.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = digests
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|&(f, t, digest)| {
                            let local = HybridFrame::from_partition(
                                &env.parts[f as usize],
                                f as usize,
                                t,
                                env.dims,
                            );
                            (wire::fnv1a64(&wire::encode_frame(&local)) != digest).then(|| {
                                format!("sweep frame {f} at threshold {t} differs from local extraction")
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread"))
            .collect()
    })
}

/// Fetches every frame through the router and directly from its owning
/// shard; both must equal the local reference (the shard's frame after
/// relabelling its local step with the global one). Returns the per-key
/// (router ms, direct ms) timings and any mismatches.
fn router_vs_shards(env: &Env, laps: usize) -> (Vec<(f64, f64)>, Vec<String>) {
    let Service::Sharded(svc) = &env.service else {
        return (Vec::new(), Vec::new());
    };
    let spec = accelviz_core::shard::ShardSpec::new(svc.shard_count());
    let map = accelviz_serve::ShardMap::sliced_replicated(&spec, FRAMES, 2);
    let mut via_router = Client::connect(svc.addr()).expect("router client");
    let mut direct: Vec<Client> = (0..svc.shard_count())
        .map(|i| Client::connect(svc.shard(i).addr()).expect("shard client"))
        .collect();
    let mut times = Vec::new();
    let mut errors = Vec::new();
    for _ in 0..laps {
        for g in 0..FRAMES as u32 {
            let t = env.thresholds[g as usize];
            let (shard, local) = map.locate(g).expect("frame in catalog");
            let (r_stamp, routed) = Stamp::time(|| via_router.fetch(g, t));
            let (d_stamp, owned) = Stamp::time(|| direct[shard].fetch(local, t));
            let want = env.refs[g as usize].as_ref().expect("reference frame");
            match (routed, owned) {
                (Ok((routed, _)), Ok((mut owned, _))) => {
                    owned.step = g as usize;
                    if routed != owned || &owned != want {
                        errors.push(format!("frame {g}: router and owning shard disagree"));
                    }
                    times.push((r_stamp.ms(), d_stamp.ms()));
                }
                (r, d) => errors.push(format!(
                    "frame {g}: router {:?}, shard {:?}",
                    r.err(),
                    d.err()
                )),
            }
        }
    }
    (times, errors)
}

/// A correctness failure list: the first few messages, and the count.
fn report_errors(errors: &[String]) {
    for e in errors.iter().take(5) {
        eprintln!("perfbench: MISMATCH {e}");
    }
    if errors.len() > 5 {
        eprintln!("perfbench: ... and {} more", errors.len() - 5);
    }
}

pub fn run(kind: Kind, seed: u64, seconds: f64, trace: bool, out_dir: &std::path::Path) -> Outcome {
    let (env, setup_s) = crate::repeated_setup(|rep| setup(kind, seed, out_dir, rep));
    let p = params(kind);
    let mut out = Outcome::default();
    out.param("particles", p.particles as f64);
    out.param("frames", FRAMES as f64);
    out.param("volume", p.volume as f64);
    out.param("point_budget", p.point_budget as f64);
    out.param("clients", CLIENTS as f64);
    out.param("worker_threads", WORKER_THREADS as f64);
    if kind == Kind::Sweep {
        out.param("resident_frames", p.resident_frames as f64);
    }
    if kind == Kind::Sharded {
        out.param("shards", 2.0);
        out.param("replication", 2.0);
        out.param("router_cache_frames", p.router_frames as f64);
    }

    let windows: Vec<Window> = if trace {
        // Untraced half first, then the same load with spans recorded:
        // the difference is the tracing overhead.
        let a = measure(&env, seconds / 2.0, 0);
        accelviz_trace::global().set_spans_enabled(true);
        let b = measure(&env, seconds / 2.0, 1);
        vec![a, b]
    } else {
        vec![measure(&env, seconds, 0)]
    };

    let mut errors: Vec<String> = windows.iter().flat_map(|w| w.errors.clone()).collect();
    let mut attempted: u64 = windows.iter().map(|w| w.issued).sum();
    let mut failed: u64 = windows.iter().map(|w| w.failed).sum();
    if kind == Kind::Sweep {
        let digests: Vec<_> = windows.iter().flat_map(|w| w.digests.clone()).collect();
        let bad = verify_digests(&env, &digests);
        failed += bad.len() as u64;
        errors.extend(bad);
    }
    let hop = router_vs_shards(&env, if trace { 4 } else { 1 });
    attempted += 2 * (hop.0.len() + hop.1.len()) as u64;
    failed += hop.1.len() as u64;
    errors.extend(hop.1.iter().cloned());
    report_errors(&errors);
    out.attempted = attempted;
    out.failed = failed;

    let last = windows.last().expect("one window");
    let plain = last.plain_ms();
    let ops = last.ops.len() as f64;
    let frames_per_s = ops / last.wall_s;
    let wire_kb = last.ops.iter().map(|o| o.wire_bytes).sum::<u64>() as f64 / ops / 1e3;
    let server_cpu_ms = (last.process_cpu_s - last.client_cpu_s) / ops * 1e3;
    let progressive: Vec<&Op> = last.ops.iter().filter(|o| o.progressive).collect();
    let named = &mut out.named;
    named.put("fetch_ms_p50", harness::median(&plain), "ms");
    named.put("fetch_ms_p90", harness::quantile(&plain, 0.90), "ms");
    named.put("fetch_ms_p99", harness::quantile(&plain, 0.99), "ms");
    named.put("fetch_samples", plain.len() as f64, "count");
    named.put("frames_per_s", frames_per_s, "1/s");
    let first: Vec<f64> = progressive
        .iter()
        .filter_map(|o| o.first_chunk_ms)
        .collect();
    let refined: Vec<f64> = progressive.iter().map(|o| o.stamp.ms()).collect();
    let first_chunk_ms = harness::median(&first);
    let refined_ms = harness::median(&refined);
    if kind == Kind::Sharded {
        named.put("first_chunk_ms_p50", first_chunk_ms, "ms");
        named.put("refined_ms_p50", refined_ms, "ms");
    }
    named.put("wire_kb_per_frame", wire_kb, "KB");
    named.put("server_cpu_ms_per_frame", server_cpu_ms, "ms");
    named.put(
        "client_cpu_ms_per_frame",
        last.client_cpu_s / ops * 1e3,
        "ms",
    );

    if !trace {
        let e2e = &mut out.metrics;
        // Every fetch is an operation; on sharded-playback half of them
        // are progressive, timed to the verified, fully refined frame.
        let all = last.all_ms();
        e2e.put("op_ms_p50", harness::median(&all), "ms");
        e2e.put("op_ms_p90", harness::quantile(&all, 0.90), "ms");
        e2e.put("ops_per_s", frames_per_s, "1/s");
        e2e.put("server_cpu_ms_per_op", server_cpu_ms, "ms");
        e2e.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
        e2e.put("setup_s", setup_s, "s");
        return out;
    }

    // Traced run: per-layer numbers over both windows.
    let (a, b) = (&windows[0], &windows[1]);
    let d = a.delta.plus(&b.delta);
    let ops = (a.ops.len() + b.ops.len()) as f64;
    let client_cpu_s = a.client_cpu_s + b.client_cpu_s;
    let server_cpu_s = a.process_cpu_s + b.process_cpu_s - client_cpu_s;
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let count = |n: u64| n as f64;
    let m = &mut out.metrics;
    m.put(
        "serve.cache_hit_ratio",
        ratio(d.hits, d.hits + d.misses),
        "ratio",
    );
    m.put(
        "serve.wire_ratio",
        ratio(d.raw_bytes, d.wire_bytes),
        "ratio",
    );
    m.put("serve.wire_kb_per_frame", wire_kb, "KB");
    m.put("serve.shed", count(d.shed), "count");
    m.put("serve.cpu_ms_per_frame", server_cpu_s / ops * 1e3, "ms");
    m.put("client.cpu_ms_per_frame", client_cpu_s / ops * 1e3, "ms");
    m.put("client.retries", count(a.retries + b.retries), "count");
    m.put(
        "client.reconnects",
        count(a.reconnects + b.reconnects),
        "count",
    );
    m.put("store.cold_loads", count(d.cold_loads), "count");
    m.put("store.evictions", count(d.evictions), "count");
    m.put("store.read_mb", d.bytes_read as f64 / 1e6, "MB");
    m.put(
        "router.miss_ratio",
        ratio(d.router_upstream, d.router_requests),
        "ratio",
    );
    m.put(
        "router.upstream_errors",
        count(d.router_upstream_errors),
        "count",
    );
    m.put(
        "router.breaker_fast_fails",
        count(d.router_fast_fails),
        "count",
    );
    m.put(
        "router.replica_failovers",
        count(d.router_failovers),
        "count",
    );
    if kind == Kind::Sharded {
        let hop = |col: fn(&(f64, f64)) -> f64| {
            harness::median(&hop.0.iter().map(col).collect::<Vec<_>>())
        };
        m.put("router.hop_ms", hop(|t| t.0) - hop(|t| t.1), "ms");
        m.put("lod.first_chunk_ms_p50", first_chunk_ms, "ms");
        m.put("lod.refined_ms_p50", refined_ms, "ms");
    }
    m.put("beam.simulate_s", env.simulate_s, "s");
    m.put("octree.partition_s", env.partition_s, "s");
    m.put("store.write_s", env.write_s, "s");

    replay(&env, b, m);
    accelviz_trace::global().set_spans_enabled(false);

    let untraced = harness::median(&a.plain_ms());
    let traced = harness::median(&b.plain_ms());
    m.put(
        "trace.overhead_frac",
        (traced - untraced) / untraced,
        "ratio",
    );
    let layers = spans::layer_self_ms(&accelviz_trace::global().spans());
    // The plain fetch path: the shard or server's layers, the router's
    // hop, and the client's decode. Progressive streaming (lod) is off it.
    let mut attributed = m.get("router.hop_ms");
    for (layer, ms) in &layers {
        m.put(&format!("self_ms.{layer}"), *ms, "ms");
        if layer != "lod" {
            attributed += ms;
        }
    }
    m.put("trace.attributed_frac", attributed / traced, "ratio");
    out
}

/// Replays the layer calls behind the window's served keys, one traced
/// root span per replayed operation, and records their medians.
fn replay(env: &Env, window: &Window, m: &mut Metrics) {
    // The keys to replay, in an order that keeps sweep's page-ins cold:
    // no frame repeats within its residency window.
    let mut keys: Vec<(u32, f64)> = Vec::new();
    match env.kind {
        Kind::Sweep => {
            let mut recent: Vec<u32> = Vec::new();
            for &(f, t, _) in &window.digests {
                if !recent.contains(&f) {
                    keys.push((f, t));
                    recent.push(f);
                    if recent.len() > params(Kind::Sweep).resident_frames as usize {
                        recent.remove(0);
                    }
                }
                if keys.len() == REPLAYS {
                    break;
                }
            }
        }
        Kind::HotView | Kind::Sharded => {
            let cycle: Vec<u32> = match env.kind {
                Kind::HotView => env.hot.clone(),
                _ => (0..FRAMES as u32).collect(),
            };
            for i in 0..REPLAYS {
                let f = cycle[i % cycle.len()];
                keys.push((f, env.thresholds[f as usize]));
            }
        }
    }
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut extract = Vec::new();
    let mut store_fetch = Vec::new();
    let mut plan = Vec::new();
    let mut assemble = Vec::new();
    let mut first_fraction = Vec::new();
    for (n, &(f, t)) in keys.iter().enumerate() {
        let mut root = accelviz_trace::span(spans::REPLAY_ROOT);
        root.arg("op", n as f64);
        let frame = match env.kind {
            Kind::Sweep => {
                let run = env.run.as_ref().expect("sweep has a run");
                let (s, fetched) = Stamp::time(|| {
                    let _s = accelviz_trace::span("store::fetch");
                    run.fetch(f as usize).expect("replayed page-in")
                });
                if !fetched.warm {
                    store_fetch.push(s.ms());
                }
                let (s1, _) = Stamp::time(|| {
                    let _s = accelviz_trace::span("octree::extract");
                    std::hint::black_box(extraction::extract(&fetched.data, t).particles.len())
                });
                let (s2, frame) = Stamp::time(|| {
                    let _s = accelviz_trace::span("core::from_partition");
                    HybridFrame::from_partition(&fetched.data, f as usize, t, env.dims)
                });
                extract.push(s1.ms() + s2.ms());
                frame
            }
            _ => env.refs[f as usize].clone().expect("reference frame"),
        };
        let (s, (payload, _)) = Stamp::time(|| {
            let _s = accelviz_trace::span("wire::encode_frame_v2");
            wire::encode_frame_v2(&frame)
        });
        encode.push(s.ms());
        let (s, decoded) = Stamp::time(|| {
            let _s = accelviz_trace::span("wire::decode_frame_v2");
            wire::decode_frame_v2(&payload).expect("replayed decode")
        });
        decode.push(s.ms());
        assert!(decoded == frame, "v2 round trip must be lossless");
        if env.kind == Kind::Sharded {
            let (s, records) = Stamp::time(|| {
                let _s = accelviz_trace::span("lod::plan_frame_chunks");
                lod::plan_frame_chunks(&frame, CHUNK_BYTES)
            });
            plan.push(s.ms());
            first_fraction.push(records[0].len() as f64 / payload.len() as f64);
            let (s, assembled) = Stamp::time(|| {
                let _s = accelviz_trace::span("lod::assemble");
                let mut asm = ProgressiveAssembler::new();
                for r in &records {
                    asm.accept(r).expect("replayed record");
                }
                asm.into_frame().expect("complete stream")
            });
            assemble.push(s.ms());
            assert!(assembled == frame, "progressive replay must be lossless");
        }
    }
    m.put("serve.encode_ms", harness::median(&encode), "ms");
    m.put("client.decode_ms", harness::median(&decode), "ms");
    m.put("octree.extract_ms", harness::median(&extract), "ms");
    m.put("store.fetch_ms", harness::median(&store_fetch), "ms");
    m.put("lod.plan_ms", harness::median(&plan), "ms");
    m.put("lod.assemble_ms", harness::median(&assemble), "ms");
    m.put(
        "lod.first_chunk_fraction",
        harness::median(&first_fraction),
        "ratio",
    );
}
