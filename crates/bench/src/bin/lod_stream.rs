//! BENCH — progressive (LOD) streaming on the Figure 1 workload.
//!
//! Measures, for a developed-halo hybrid frame served over loopback TCP:
//! - the chunk plan at the default budget: record count, first-chunk
//!   bytes, and the first chunk as a fraction of the full v2 wire frame
//!   (the issue's acceptance bar is < 25%, asserted in full mode);
//! - time-to-first-chunk over a real socket versus time to drain the
//!   whole refinement stream, and versus a plain full fetch;
//! - client-side assembly throughput (accept + splice for every record,
//!   including the trailer re-encode check).
//!
//! Usage:
//!   cargo run -p accelviz-bench --release --bin lod_stream             # full, writes BENCH_lod.json
//!   cargo run -p accelviz-bench --release --bin lod_stream -- --smoke  # small CI workload, no JSON
//!
//! Writes `BENCH_lod.json` into the current directory (full mode only).

use accelviz_bench::workloads;
use accelviz_core::hybrid::HybridFrame;
use accelviz_octree::builder::{partition, BuildParams};
use accelviz_octree::extraction::threshold_for_budget;
use accelviz_octree::plots::PlotType;
use accelviz_serve::lod::{plan_frame_chunks, ProgressiveAssembler, DEFAULT_CHUNK_BYTES};
use accelviz_serve::protocol::{
    read_chunk_reply, read_response, write_request, ChunkReply, Request,
};
use accelviz_serve::wire::encode_frame_v2;
use accelviz_serve::{Client, FrameServer, ServerConfig};
use std::io::Write;
use std::time::Instant;

struct Scale {
    particles: usize,
    cells: usize,
    grid: [usize; 3],
    reps: usize,
}

/// The Figure 1 halo workload at full scale, or a fast CI smoke cut.
fn scale(smoke: bool) -> Scale {
    if smoke {
        Scale {
            particles: 20_000,
            cells: 10,
            grid: [32, 32, 32],
            reps: 3,
        }
    } else {
        Scale {
            particles: 100_000,
            cells: 40,
            grid: [64, 64, 64],
            reps: 10,
        }
    }
}

fn best_of(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = scale(smoke);
    let seed = 11u64;

    let snap = workloads::halo_snapshot(s.particles, s.cells, seed);
    let data = partition(&snap.particles, PlotType::X_PX_Y, BuildParams::default());
    let budget = s.particles / 25;
    let threshold = threshold_for_budget(&data, budget);
    // Index 0, matching the store position it is served from below.
    let frame = HybridFrame::from_partition(&data, 0, threshold, s.grid);
    println!(
        "workload: {} particles, {} halo points, {}^3 grid",
        s.particles,
        frame.points.len(),
        s.grid[0]
    );

    // The chunk plan at the server's default budget, against the full v2
    // wire frame a plain fetch would ship.
    let records = plan_frame_chunks(&frame, DEFAULT_CHUNK_BYTES);
    let (full_wire, _) = encode_frame_v2(&frame);
    let first = records[0].len();
    let fraction = first as f64 / full_wire.len() as f64;
    println!(
        "plan: {} records at {} KiB budget; first chunk {} B = {:.1}% of the {} B full v2 frame",
        records.len(),
        DEFAULT_CHUNK_BYTES / 1024,
        first,
        100.0 * fraction,
        full_wire.len()
    );
    if !smoke {
        assert!(
            fraction < 0.25,
            "acceptance: first chunk must be < 25% of the full wire frame, got {:.1}%",
            100.0 * fraction
        );
    }

    // Client-side assembly throughput over the whole record stream.
    let assemble_s = best_of(s.reps, || {
        let mut asm = ProgressiveAssembler::new();
        for record in &records {
            std::hint::black_box(asm.accept(record).expect("record applies"));
        }
    });
    let stream_bytes: usize = records.iter().map(Vec::len).sum();
    let mib = stream_bytes as f64 / (1024.0 * 1024.0);
    println!(
        "assembly: {:.1} MiB/s over {} records ({:.2} MiB stream)",
        mib / assemble_s,
        records.len(),
        mib
    );

    // Measured over loopback TCP: time to the first renderable chunk vs
    // time to full refinement vs a plain full fetch. The raw-socket
    // session lets us timestamp the first chunk's arrival, which
    // `Client::fetch_progressive` folds into its total.
    let server = FrameServer::spawn_loopback(
        vec![data],
        ServerConfig {
            volume_dims: s.grid,
            ..Default::default()
        },
    )
    .expect("loopback bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    write_request(&mut stream, &Request::Hello { version: 2 }).expect("hello");
    let _ = read_response(&mut stream).expect("hello ack");

    let mut first_chunk_s = f64::INFINITY;
    let mut drain_s = f64::INFINITY;
    for _ in 0..s.reps {
        let t0 = Instant::now();
        write_request(
            &mut stream,
            &Request::RequestFrameProgressive {
                frame: 0,
                threshold,
                chunk_bytes: DEFAULT_CHUNK_BYTES,
            },
        )
        .expect("request");
        let mut asm = ProgressiveAssembler::new();
        let mut t_first = None;
        loop {
            let (reply, _) = read_chunk_reply(&mut stream).expect("chunk");
            let record = match reply {
                ChunkReply::Chunk(record) => record,
                ChunkReply::Error { code, message } => panic!("server error {code}: {message}"),
            };
            let done = asm.accept(&record).expect("record applies");
            t_first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            if done {
                break;
            }
        }
        let refined = asm.into_frame().expect("complete");
        assert_eq!(refined, frame, "refined frame must be bit-identical");
        first_chunk_s = first_chunk_s.min(t_first.unwrap());
        drain_s = drain_s.min(t0.elapsed().as_secs_f64());
    }
    drop(stream);

    let mut client = Client::connect(server.addr()).expect("connect");
    let full_fetch_s = best_of(s.reps, || {
        let (f, _) = client.fetch(0, threshold).expect("full fetch");
        assert_eq!(f, frame);
    });
    println!(
        "loopback: first chunk {:.2} ms, full refinement {:.2} ms, plain fetch {:.2} ms",
        first_chunk_s * 1e3,
        drain_s * 1e3,
        full_fetch_s * 1e3
    );
    server.shutdown();

    // Flush the trace before either exit, so a traced smoke run
    // leaves its trace file too.
    let _ = accelviz_trace::flush();
    if smoke {
        println!("smoke mode: skipping BENCH_lod.json");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"lod_stream\",\n  \"workload\": {{\"figure\": 1, \"particles\": {}, \"cells\": {}, \"seed\": {seed}, \"point_budget\": {budget}, \"grid\": [{}, {}, {}], \"halo_points\": {}}},\n  \"chunk_budget_bytes\": {},\n  \"records\": {},\n  \"first_chunk_bytes\": {first},\n  \"full_v2_wire_bytes\": {},\n  \"first_chunk_fraction\": {fraction:.4},\n  \"assembly_mib_s\": {:.1},\n  \"first_chunk_ms\": {:.3},\n  \"full_refinement_ms\": {:.3},\n  \"plain_fetch_ms\": {:.3}\n}}\n",
        s.particles,
        s.cells,
        s.grid[0],
        s.grid[1],
        s.grid[2],
        frame.points.len(),
        DEFAULT_CHUNK_BYTES,
        records.len(),
        full_wire.len(),
        mib / assemble_s,
        first_chunk_s * 1e3,
        drain_s * 1e3,
        full_fetch_s * 1e3,
    );
    let path = "BENCH_lod.json";
    let mut f = std::fs::File::create(path).expect("create json");
    f.write_all(json.as_bytes()).expect("write json");
    println!("wrote {path}");
}
