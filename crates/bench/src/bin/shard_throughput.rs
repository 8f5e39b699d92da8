//! BENCH — sharded frame service: sessions per second through one
//! router at 1, 2, and 4 shards, plus the thundering-herd collapse
//! ratio the router's coalescing cache buys.
//!
//! Each "client session" is the full remote-viewer handshake a fresh
//! viewer pays against the router: connect, `Hello`, fetch one hybrid
//! frame, disconnect. Sessions spread their requests round-robin across
//! the catalog so every shard sees traffic. The router serves warmed
//! frames from its own cache, so the shard counts measure the router's
//! front-door throughput — on a single box all shards share the same
//! cores, so expect *parity* across shard counts rather than speedup;
//! the bench exists to show the router adds no cliff, and to record the
//! numbers a real multi-host deployment would compare against.
//!
//! Timing: every session stamps its own start (after the starting gun)
//! and end (after its disconnect), and a storm's wall is max(end) −
//! min(start). Reading the clock on the main thread instead undercounts
//! badly: with ~N runnable client threads on a few cores, the clients
//! can finish before the main thread is scheduled again. Each row
//! reports the median and p10/p90 over the reps, never the best one.
//!
//! The herd row is the router's reason to exist: H cold clients all
//! requesting the same frame of a 2-shard service collapse to exactly
//! one upstream extraction (`collapse_ratio` = H / upstream fetches —
//! counter-measured, not inferred).
//!
//! Usage:
//!   cargo run -p accelviz-bench --release --bin shard_throughput            # full, writes BENCH_shard.json
//!   cargo run -p accelviz-bench --release --bin shard_throughput -- --smoke # small CI workload, no JSON
//!
//! Writes `BENCH_shard.json` into the current directory (full mode only).

use accelviz_beam::distribution::Distribution;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::router::CTR_ROUTER_UPSTREAM_FETCHES;
use accelviz_serve::{
    Client, ClientConfig, RetryPolicy, RouterConfig, ServerConfig, ShardedFrameService,
};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

struct Scale {
    particles: usize,
    frames: usize,
    storm_clients: usize,
    herd_clients: usize,
    reps: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            particles: 5_000,
            frames: 4,
            storm_clients: 16,
            herd_clients: 16,
            reps: 3,
        }
    } else {
        Scale {
            particles: 20_000,
            frames: 8,
            storm_clients: 96,
            herd_clients: 64,
            reps: 7,
        }
    }
}

fn stores(frames: usize, particles: usize) -> Vec<PartitionedData> {
    (0..frames)
        .map(|i| {
            let ps = Distribution::default_beam().sample(particles, i as u64 + 7);
            partition(&ps, PlotType::XYZ, BuildParams::default())
        })
        .collect()
}

fn service(data: &[PartitionedData], shards: usize) -> ShardedFrameService {
    let shard_config = ServerConfig {
        max_connections: 64,
        ..ServerConfig::default()
    };
    let router_config = RouterConfig {
        max_connections: 512,
        ..RouterConfig::default()
    };
    ShardedFrameService::spawn_loopback(data.to_vec(), shards, shard_config, router_config)
        .expect("spawn sharded service")
}

/// Runs `n` simultaneous sessions against `addr`, session `i` fetching
/// frame `i % frames`; returns wall seconds from the first session's
/// start to the last session's disconnect, each read by the session
/// itself, plus total client retries burned.
fn storm(addr: SocketAddr, n: usize, frames: usize, seed: u64) -> (f64, u64) {
    let gun = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let gun = Arc::clone(&gun);
            let frame = (i % frames) as u32;
            std::thread::spawn(move || {
                let config = ClientConfig {
                    retry: Some(RetryPolicy::fast(seed + i as u64)),
                    ..ClientConfig::default()
                };
                gun.wait();
                let start = Instant::now();
                let mut client = Client::connect_with(addr, config).expect("session connect");
                let (got, _) = client.fetch(frame, f64::INFINITY).expect("session fetch");
                assert_eq!(got.step, frame as usize);
                let retries = client.client_stats().retries;
                drop(client);
                (start, Instant::now(), retries)
            })
        })
        .collect();
    let sessions: Vec<_> = clients
        .into_iter()
        .map(|h| h.join().expect("client session must not panic"))
        .collect();
    let first = sessions.iter().map(|s| s.0).min().expect("n > 0");
    let last = sessions.iter().map(|s| s.1).max().expect("n > 0");
    let retries = sessions.iter().map(|s| s.2).sum();
    ((last - first).as_secs_f64(), retries)
}

/// The `q` quantile of `values`, interpolating between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale(smoke);
    let data = stores(s.frames, s.particles);
    println!(
        "workload: {} particles x {} frames, {} sessions/storm",
        s.particles, s.frames, s.storm_clients
    );

    // Sessions/sec at rising shard counts, through one router.
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let svc = service(&data, shards);
        // Warm every frame through the router so the storm measures the
        // service path, not first-touch extraction.
        let mut warm = Client::connect(svc.addr()).expect("warm connect");
        for f in 0..s.frames as u32 {
            warm.fetch(f, f64::INFINITY).expect("warm fetch");
        }
        drop(warm);

        let mut rates = Vec::with_capacity(s.reps);
        let mut walls = Vec::with_capacity(s.reps);
        let mut retries = 0;
        for _ in 0..s.reps {
            let (wall, r) = storm(svc.addr(), s.storm_clients, s.frames, 3000);
            rates.push(s.storm_clients as f64 / wall);
            walls.push(wall);
            retries += r;
        }
        let (p10, median, p90) = (
            quantile(&rates, 0.1),
            quantile(&rates, 0.5),
            quantile(&rates, 0.9),
        );
        let wall = quantile(&walls, 0.5);
        println!(
            "shards={shards}  N={:<4} {median:>7.0} sessions/s median (p10 {p10:.0}, p90 {p90:.0}; {wall:.3}s median wall, {retries} retries)",
            s.storm_clients
        );
        rows.push(format!(
            "    {{\"shards\": {shards}, \"clients\": {}, \"reps\": {}, \"sessions_per_sec\": {{\"median\": {median:.1}, \"p10\": {p10:.1}, \"p90\": {p90:.1}}}, \"wall_s_median\": {wall:.4}, \"retries\": {retries}}}",
            s.storm_clients, s.reps
        ));
        svc.shutdown();
    }

    // Herd collapse: H cold clients, one frame, 2 shards. The router
    // must pay exactly one upstream extraction for the whole herd.
    let svc = service(&data, 2);
    let h = s.herd_clients;
    let (herd_wall, _) = storm(svc.addr(), h, 1, 9000);
    let upstream = svc.router().metrics().counter(CTR_ROUTER_UPSTREAM_FETCHES);
    assert!(upstream >= 1, "the herd must reach at least one shard");
    let collapse = h as f64 / upstream as f64;
    println!(
        "herd      H={h:<4} upstream_fetches={upstream}  collapse_ratio={collapse:.1}  ({herd_wall:.3}s wall)"
    );
    svc.shutdown();

    // Flush the trace before either exit, so a traced smoke run
    // leaves its trace file too.
    let _ = accelviz_trace::flush();
    if smoke {
        println!("smoke mode: skipping BENCH_shard.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"shard_throughput\",\n  \"cores\": {},\n  \"workload\": {{\"particles\": {}, \"frames\": {}, \"storm_clients\": {}}},\n  \"sessions\": [\n{}\n  ],\n  \"herd\": {{\"clients\": {h}, \"upstream_fetches\": {upstream}, \"collapse_ratio\": {collapse:.1}, \"wall_s\": {herd_wall:.4}}}\n}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        s.particles,
        s.frames,
        s.storm_clients,
        rows.join(",\n")
    );
    let path = "BENCH_shard.json";
    let mut f = std::fs::File::create(path).expect("create json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote {path}");
}
