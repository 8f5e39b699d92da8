//! BENCH — frame-service concurrency: clients served per second at
//! rising fan-in, for both connection backends.
//!
//! Each "client session" is the full remote-viewer handshake a fresh
//! viewer pays: connect, `Hello`, fetch one hybrid frame, disconnect.
//! For every backend ({threaded, reactor}) and every fan-in
//! N ∈ {8, 64, 256}, the bench launches N sessions simultaneously and
//! reports N divided by the wall time for all of them to finish —
//! sessions per second at that concurrency.
//!
//! The JSON rows carry the retry totals alongside the rates: zero
//! retries means the wall time is pure service time. On a single-core
//! box (like the reference container) wall times at high fan-in are
//! dominated by OS scheduling of the N client threads the bench itself
//! spawns, so expect large run-to-run variance there; the numbers are
//! comparable *between backends within one run*, not across machines.
//!
//! Usage:
//!   cargo run -p accelviz-bench --release --bin concurrent_clients            # full, writes BENCH_concurrency.json
//!   cargo run -p accelviz-bench --release --bin concurrent_clients -- --smoke # small CI workload, no JSON
//!
//! Writes `BENCH_concurrency.json` into the current directory (full mode
//! only).

use accelviz_beam::distribution::Distribution;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::plots::PlotType;
use accelviz_octree::sorted_store::PartitionedData;
use accelviz_serve::{Client, ClientConfig, FrameServer, RetryPolicy, ServeBackend, ServerConfig};
use std::io::Write;
use std::sync::{Arc, Barrier};
use std::time::Instant;

struct Scale {
    particles: usize,
    fan_ins: Vec<usize>,
    reps: usize,
}

fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            particles: 5_000,
            fan_ins: vec![8, 32],
            reps: 1,
        }
    } else {
        Scale {
            particles: 20_000,
            fan_ins: vec![8, 64, 256],
            reps: 3,
        }
    }
}

fn store(particles: usize) -> Vec<PartitionedData> {
    let ps = Distribution::default_beam().sample(particles, 7);
    vec![partition(&ps, PlotType::XYZ, BuildParams::default())]
}

fn backends() -> Vec<(&'static str, ServeBackend)> {
    if cfg!(unix) {
        vec![
            ("threaded", ServeBackend::Threaded),
            ("reactor", ServeBackend::Reactor),
        ]
    } else {
        vec![("threaded", ServeBackend::Threaded)]
    }
}

/// Runs `n` simultaneous sessions against `server`; returns the wall
/// seconds from the starting gun to the last session's disconnect, plus
/// the total retries the sessions burned (nonzero retries mean the wall
/// time includes backoff sleeps, not just service time).
fn storm(server: &FrameServer, n: usize) -> (f64, u64) {
    let gun = Arc::new(Barrier::new(n + 1));
    let addr = server.addr();
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let gun = Arc::clone(&gun);
            std::thread::spawn(move || {
                // Retry-enabled so a transient accept-queue hiccup at
                // high fan-in is absorbed instead of failing the run.
                let config = ClientConfig {
                    retry: Some(RetryPolicy::fast(1000 + i as u64)),
                    ..ClientConfig::default()
                };
                gun.wait();
                let mut client = Client::connect_with(addr, config).expect("session connect");
                let (frame, _) = client.fetch(0, f64::INFINITY).expect("session fetch");
                assert_eq!(frame.step, 0);
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
    let data = store(s.particles);
    println!(
        "workload: {} particles, 1 frame, fan-ins {:?}",
        s.particles, s.fan_ins
    );

    let mut rows = Vec::new();
    for (name, backend) in backends() {
        let config = ServerConfig {
            backend,
            worker_threads: 4,
            max_connections: 512,
            ..ServerConfig::default()
        };
        let server = FrameServer::spawn_loopback(data.clone(), config).unwrap();
        assert_eq!(server.backend(), backend);
        // Warm the extraction cache so the bench measures the service
        // path, not one extraction amortized across every session.
        let mut warm = Client::connect(server.addr()).unwrap();
        warm.fetch(0, f64::INFINITY).unwrap();
        drop(warm);

        for &n in &s.fan_ins {
            let mut best = f64::INFINITY;
            let mut retries = 0;
            for _ in 0..s.reps {
                let (wall, r) = storm(&server, n);
                best = best.min(wall);
                retries += r;
            }
            let rate = n as f64 / best;
            println!(
                "{name:>8}  N={n:<4} {rate:>9.0} sessions/s  ({best:.3}s wall, {retries} retries)"
            );
            rows.push(format!(
                "    {{\"backend\": \"{name}\", \"clients\": {n}, \"sessions_per_sec\": {rate:.1}, \"wall_s\": {best:.4}, \"retries\": {retries}}}"
            ));
        }
        server.shutdown();
    }

    // Flush the trace before either exit, so a traced smoke run
    // leaves its trace file too.
    let _ = accelviz_trace::flush();
    if smoke {
        println!("smoke mode: skipping BENCH_concurrency.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"concurrent_clients\",\n  \"workload\": {{\"particles\": {}, \"frames\": 1, \"worker_threads\": 4}},\n  \"sessions\": [\n{}\n  ]\n}}\n",
        s.particles,
        rows.join(",\n")
    );
    let path = "BENCH_concurrency.json";
    let mut f = std::fs::File::create(path).expect("create json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote {path}");
}
