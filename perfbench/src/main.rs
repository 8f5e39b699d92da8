//! The remote viewer's benchmark: four named workloads run against the
//! public APIs of the accelviz crates, each printing its end-to-end
//! metrics (untraced) or its per-layer metrics (traced) and checking
//! every output it measures. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <hot-view|sweep|sharded-playback|render>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only when every check passed.

mod fetch;
mod harness;
mod render;
mod report;
mod spans;
mod sys;

use std::path::Path;
use std::time::Instant;

/// Metrics every untraced run reports, on every workload.
const END_TO_END: &[&str] = &[
    "op_ms_p50",
    "op_ms_p90",
    "ops_per_s",
    "server_cpu_ms_per_op",
    "peak_rss_mb",
    "setup_s",
];

/// Metrics every traced run reports, on every workload; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.encode_ms", "ms"),
    ("serve.wire_ratio", "ratio"),
    ("serve.wire_kb_per_frame", "KB"),
    ("serve.shed", "count"),
    ("serve.cpu_ms_per_frame", "ms"),
    ("client.decode_ms", "ms"),
    ("client.cpu_ms_per_frame", "ms"),
    ("client.retries", "count"),
    ("client.reconnects", "count"),
    ("octree.extract_ms", "ms"),
    ("store.fetch_ms", "ms"),
    ("store.cold_loads", "count"),
    ("store.evictions", "count"),
    ("store.read_mb", "MB"),
    ("router.miss_ratio", "ratio"),
    ("router.hop_ms", "ms"),
    ("router.upstream_errors", "count"),
    ("router.breaker_fast_fails", "count"),
    ("router.replica_failovers", "count"),
    ("lod.plan_ms", "ms"),
    ("lod.assemble_ms", "ms"),
    ("lod.first_chunk_fraction", "ratio"),
    ("lod.first_chunk_ms_p50", "ms"),
    ("lod.refined_ms_p50", "ms"),
    ("render.interaction_ms_p50", "ms"),
    ("render.lines_ms_p50", "ms"),
    ("render.volume_ms", "ms"),
    ("render.points_ms", "ms"),
    ("render.volume_samples", "count"),
    ("render.points_drawn", "count"),
    ("render.lines_ms", "ms"),
    ("render.triangles", "count"),
    ("beam.simulate_s", "s"),
    ("octree.partition_s", "s"),
    ("store.write_s", "s"),
    ("self_ms.wire", "ms"),
    ("self_ms.lod", "ms"),
    ("self_ms.octree", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.store", "ms"),
    ("self_ms.render", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Where runs keep their scratch files and traces, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench_out";

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the command line.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Builds the workload's environment [`SETUPS`] times, dropping all but
/// the last, and returns it with the median set-up time in seconds.
pub fn repeated_setup<E>(mut build: impl FnMut(usize) -> E) -> (E, f64) {
    let mut times = Vec::new();
    let mut env = None;
    for rep in 0..SETUPS {
        drop(env.take());
        let t = Instant::now();
        env = Some(build(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    let median = harness::median(&times);
    (env.expect("at least one set-up"), median)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).expect("create the output directory");
    let (s, seed, trace) = (args.seconds, args.seed, args.trace);
    let mut outcome = match args.workload.as_str() {
        "hot-view" => fetch::run(fetch::Kind::HotView, seed, s, trace, out_dir),
        "sweep" => fetch::run(fetch::Kind::Sweep, seed, s, trace, out_dir),
        "sharded-playback" => fetch::run(fetch::Kind::Sharded, seed, s, trace, out_dir),
        "render" => render::run(seed, s, trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if trace {
        spans::write_chrome(out_dir, &format!("{}-{seed}", args.workload));
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.contains(name) {
                outcome.metrics.put(name, 0.0, unit);
            }
        }
        outcome
            .metrics
            .retain(|n| PER_LAYER.iter().any(|(p, _)| *p == n));
    } else {
        for name in END_TO_END {
            assert!(outcome.metrics.contains(name), "missing metric {name}");
        }
    }
    let correct = outcome.failed == 0;
    report::print(
        &report::Provenance {
            workload: &args.workload,
            seed,
            seconds: s,
            trace,
            git_rev: sys::git_rev(),
            nproc: sys::nproc(),
        },
        &outcome,
        correct,
    );
    if !correct {
        std::process::exit(1);
    }
}
