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
//! numbers a real multi-host deployment would compare against. As with
//! `concurrent_clients`, wall times on a small shared box are dominated
//! by OS scheduling of ~2N threads and can swing 10x run to run;
//! compare rows within one run, not across machines or runs.
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
            reps: 1,
        }
    } else {
        Scale {
            particles: 20_000,
            frames: 8,
            storm_clients: 96,
            herd_clients: 64,
            reps: 3,
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

/// Runs `n` simultaneous sessions against the router, session `i`
/// fetching frame `i % frames`; returns wall seconds from the starting
/// gun to the last disconnect, plus total client retries burned.
fn storm(service: &ShardedFrameService, n: usize, frames: usize) -> (f64, u64) {
    let gun = Arc::new(Barrier::new(n + 1));
    let addr = service.addr();
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let gun = Arc::clone(&gun);
            let frame = (i % frames) as u32;
            std::thread::spawn(move || {
                let config = ClientConfig {
                    retry: Some(RetryPolicy::fast(3000 + i as u64)),
                    ..ClientConfig::default()
                };
                gun.wait();
                let mut client = Client::connect_with(addr, config).expect("session connect");
                let (got, _) = client.fetch(frame, f64::INFINITY).expect("session fetch");
                assert_eq!(got.step, frame as usize);
                client.client_stats().retries
            })
        })
        .collect();
    gun.wait();
    let t0 = Instant::now();
    let mut retries = 0;
    for handle in clients {
        retries += handle.join().expect("client session must not panic");
    }
    (t0.elapsed().as_secs_f64(), retries)
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

        let mut best = f64::INFINITY;
        let mut retries = 0;
        for _ in 0..s.reps {
            let (wall, r) = storm(&svc, s.storm_clients, s.frames);
            best = best.min(wall);
            retries += r;
        }
        let rate = s.storm_clients as f64 / best;
        println!(
            "shards={shards}  N={:<4} {rate:>9.0} sessions/s  ({best:.3}s wall, {retries} retries)",
            s.storm_clients
        );
        rows.push(format!(
            "    {{\"shards\": {shards}, \"clients\": {}, \"sessions_per_sec\": {rate:.1}, \"wall_s\": {best:.4}, \"retries\": {retries}}}",
            s.storm_clients
        ));
        svc.shutdown();
    }

    // Herd collapse: H cold clients, one frame, 2 shards. The router
    // must pay exactly one upstream extraction for the whole herd.
    let svc = service(&data, 2);
    let h = s.herd_clients;
    let gun = Arc::new(Barrier::new(h + 1));
    let addr = svc.addr();
    let herd: Vec<_> = (0..h)
        .map(|i| {
            let gun = Arc::clone(&gun);
            std::thread::spawn(move || {
                let config = ClientConfig {
                    retry: Some(RetryPolicy::fast(9000 + i as u64)),
                    ..ClientConfig::default()
                };
                gun.wait();
                let mut client = Client::connect_with(addr, config).expect("herd connect");
                client.fetch(0, f64::INFINITY).expect("herd fetch");
            })
        })
        .collect();
    gun.wait();
    let t0 = Instant::now();
    for handle in herd {
        handle.join().expect("herd client must not panic");
    }
    let herd_wall = t0.elapsed().as_secs_f64();
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
        "{{\n  \"bench\": \"shard_throughput\",\n  \"workload\": {{\"particles\": {}, \"frames\": {}, \"storm_clients\": {}}},\n  \"sessions\": [\n{}\n  ],\n  \"herd\": {{\"clients\": {h}, \"upstream_fetches\": {upstream}, \"collapse_ratio\": {collapse:.1}, \"wall_s\": {herd_wall:.4}}}\n}}\n",
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
