//! The `render` workload: a local viewer session driven by a seeded
//! interaction script on one thread, plus a cavity field-line view drawn
//! as self-orienting surfaces under an orbiting camera. Nothing is
//! served; the render layer does all the work.
//!
//! The scene is the same for every seed and the seed drives the script.
//! Render cost follows the scene closely (two seeded halo series differed
//! by 17% in CPU per view), which would swamp run-to-run comparisons made
//! on different seeds.

use crate::harness::{self, Stamp};
use crate::report::{Metrics, Outcome};
use crate::{spans, sys, Rng};
use accelviz_bench::workloads;
use accelviz_core::hybrid::HybridFrame;
use accelviz_core::scene::{render_hybrid_frame, render_line_set, LineRepresentation, RenderMode};
use accelviz_core::session::{SessionOp, ViewerSession};
use accelviz_emsim::sample::VectorField3;
use accelviz_fieldlines::line::FieldLine;
use accelviz_fieldlines::style::LineStyle;
use accelviz_math::{Rgba, Vec3};
use accelviz_octree::plots::PlotType;
use accelviz_render::camera::Camera;
use accelviz_render::framebuffer::Framebuffer;
use accelviz_render::points::PointStyle;
use accelviz_render::volume::VolumeStyle;
use accelviz_serve::wire::fnv1a64;
use std::time::{Duration, Instant};

const FRAMES: usize = 16;
const PARTICLES: usize = 50_000;
const VOLUME: usize = 64;
const POINT_BUDGET: usize = 4_000;
const SIZE: usize = 256;
const LINES: usize = 100;
const FIELD_RES: usize = 16;
const FIELD_WARMUP: usize = 300;
const LINE_HALF_WIDTH: f64 = 0.012;
const REPLAYS: usize = 24;
/// Seed of the scene: the halo series and the field-line set.
const SCENE_SEED: u64 = 1;

/// Framebuffer digest of the fixed view (see [`fixed_view_digest`]),
/// recorded from this renderer. A change that alters rendered pixels
/// changes it.
const FIXED_VIEW_DIGEST: u64 = 0x8bc3_95eb_9802_045c;

struct Env {
    session: ViewerSession,
    frames: Vec<HybridFrame>,
    lines: Vec<FieldLine>,
    style: LineStyle,
    line_center: Vec3,
    line_distance: f64,
    simulate_s: f64,
    partition_s: f64,
}

fn setup() -> Env {
    let t = Instant::now();
    let series = workloads::halo_series(PARTICLES, FRAMES - 1, SCENE_SEED);
    let simulate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let frames: Vec<HybridFrame> = series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let part = workloads::partitioned(s, PlotType::XYZ);
            workloads::hybrid_frame(&part, i, POINT_BUDGET, [VOLUME; 3])
        })
        .collect();
    let partition_s = t.elapsed().as_secs_f64();
    let field = workloads::three_cell_e_field(FIELD_RES, FIELD_WARMUP);
    let lines: Vec<FieldLine> = workloads::cavity_lines(&field, LINES, SCENE_SEED)
        .into_iter()
        .map(|l| l.line)
        .collect();
    let b = field.bounds();
    Env {
        session: ViewerSession::open(frames.clone()),
        frames,
        lines,
        style: LineStyle::electric(field.max_magnitude()),
        line_center: b.center(),
        line_distance: b.longest_edge() * 1.8,
        simulate_s,
        partition_s,
    }
}

fn digest(fb: &Framebuffer) -> u64 {
    let bytes: Vec<u8> = fb
        .pixels()
        .iter()
        .flat_map(|p| [p.r, p.g, p.b, p.a])
        .flat_map(f32::to_le_bytes)
        .collect();
    fnv1a64(&bytes)
}

/// The digest of one fixed view of the scene: its first frame from the
/// session's opening camera, and the line set from a fixed azimuth, into
/// one framebuffer.
fn fixed_view_digest(env: &Env) -> u64 {
    let mut fb = Framebuffer::new(SIZE, SIZE);
    ViewerSession::open(vec![env.frames[0].clone()]).render(&mut fb);
    let cam = Camera::orbit(env.line_center, env.line_distance, 0.9, 0.35, 1.0);
    render_line_set(
        &mut fb,
        &cam,
        &env.lines,
        LineRepresentation::SelfOrientingSurfaces,
        &env.style,
        LINE_HALF_WIDTH,
    );
    digest(&fb)
}

#[derive(Clone, Copy)]
enum Step {
    Interact(SessionOp),
    /// The field-line view at this camera azimuth.
    LineView(f64),
}

/// The seeded interaction script. Its cycle of steps is fixed, so every
/// seed renders the same mix of modes. The seed draws frames, camera
/// angles and boundaries independently at each step, so a run averages
/// over them instead of following one random walk of the camera.
struct Script {
    rng: Rng,
    i: u64,
    /// The session camera's angles, tracked to turn absolute draws into
    /// the relative `Orbit` the session takes. They start where
    /// `ViewerSession` opens, and elevation draws stay inside its clamp.
    theta: f64,
    phi: f64,
    line_azimuth: f64,
}

impl Script {
    fn new(seed: u64) -> Script {
        Script {
            rng: Rng::new(seed ^ 0x4e4d),
            i: 0,
            theta: 0.5,
            phi: 0.35,
            line_azimuth: 0.9,
        }
    }

    fn next(&mut self) -> Step {
        let i = self.i;
        self.i += 1;
        let rng = &mut self.rng;
        match i % 8 {
            0 => Step::Interact(SessionOp::StepTo(rng.below(FRAMES as u64) as usize)),
            1 | 5 => {
                let (theta, phi) = (std::f64::consts::TAU * rng.unit(), 2.0 * rng.unit() - 1.0);
                let op = SessionOp::Orbit(theta - self.theta, phi - self.phi);
                (self.theta, self.phi) = (theta, phi);
                Step::Interact(op)
            }
            2 => Step::Interact(SessionOp::SetBoundary(0.02 + 0.2 * rng.unit())),
            3 => {
                self.line_azimuth += 0.3;
                Step::LineView(self.line_azimuth)
            }
            4 => Step::Interact(SessionOp::SetMode(RenderMode::VolumeOnly)),
            6 => Step::Interact(SessionOp::SetMode(RenderMode::PointsOnly)),
            _ => Step::Interact(SessionOp::SetMode(RenderMode::Hybrid)),
        }
    }
}

struct Window {
    view_ms: Vec<f64>,
    lines_ms: Vec<f64>,
    stamps: Vec<Stamp>,
    cpu_s: f64,
    failed: u64,
}

fn measure(env: &mut Env, seconds: f64, script: &mut Script) -> Window {
    let mut fb = Framebuffer::new(SIZE, SIZE);
    let mut w = Window {
        view_ms: Vec::new(),
        lines_ms: Vec::new(),
        stamps: Vec::new(),
        cpu_s: 0.0,
        failed: 0,
    };
    let cpu0 = sys::process_cpu_s();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let step = script.next();
        fb.clear(Rgba::TRANSPARENT);
        let mut root = accelviz_trace::span("bench::op");
        root.arg("op", script.i as f64);
        match step {
            Step::Interact(op) => {
                if env.session.apply(op).failed {
                    w.failed += 1;
                    continue;
                }
                let (stamp, _) = Stamp::time(|| {
                    let _s = accelviz_trace::span("core::render");
                    env.session.render(&mut fb)
                });
                w.view_ms.push(stamp.ms());
                w.stamps.push(stamp);
            }
            Step::LineView(azimuth) => {
                let cam = Camera::orbit(env.line_center, env.line_distance, azimuth, 0.35, 1.0);
                let (stamp, _) = Stamp::time(|| {
                    let _s = accelviz_trace::span("core::render_line_set");
                    render_line_set(
                        &mut fb,
                        &cam,
                        &env.lines,
                        LineRepresentation::SelfOrientingSurfaces,
                        &env.style,
                        LINE_HALF_WIDTH,
                    )
                });
                w.lines_ms.push(stamp.ms());
                w.stamps.push(stamp);
            }
        }
    }
    w.cpu_s = sys::process_cpu_s() - cpu0;
    w
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (mut env, setup_s) = crate::repeated_setup(|_| setup());
    let mut out = Outcome::default();
    out.param("particles", PARTICLES as f64);
    out.param("frames", FRAMES as f64);
    out.param("volume", VOLUME as f64);
    out.param("point_budget", POINT_BUDGET as f64);
    out.param("framebuffer", SIZE as f64);
    out.param("field_lines", env.lines.len() as f64);

    // The fixed view must render identically before the window, after
    // it, and on every run.
    let before = fixed_view_digest(&env);
    let mut script = Script::new(seed);
    let windows: Vec<Window> = if trace {
        let a = measure(&mut env, seconds / 2.0, &mut script);
        accelviz_trace::global().set_spans_enabled(true);
        let b = measure(&mut env, seconds / 2.0, &mut script);
        vec![a, b]
    } else {
        vec![measure(&mut env, seconds, &mut script)]
    };
    let after = fixed_view_digest(&env);
    let mut failed: u64 = windows.iter().map(|w| w.failed).sum();
    let attempted: u64 = windows
        .iter()
        .map(|w| w.stamps.len() as u64 + w.failed)
        .sum::<u64>()
        + 2;
    for (when, d) in [("before", before), ("after", after)] {
        if d != FIXED_VIEW_DIGEST {
            eprintln!(
                "perfbench: MISMATCH fixed view digest {when} the window is {d:#018x}, \
                 expected {FIXED_VIEW_DIGEST:#018x}"
            );
            failed += 1;
        }
    }
    out.attempted = attempted;
    out.failed = failed;

    let last = windows.last().expect("one window");
    let all_ms: Vec<f64> = last.stamps.iter().map(Stamp::ms).collect();
    let ops = all_ms.len() as f64;
    let per_s = ops / harness::wall_seconds(&last.stamps);
    let n = &mut out.named;
    n.put("render_ms_p50", harness::median(&last.view_ms), "ms");
    n.put(
        "render_ms_p90",
        harness::quantile(&last.view_ms, 0.90),
        "ms",
    );
    n.put(
        "render_ms_p99",
        harness::quantile(&last.view_ms, 0.99),
        "ms",
    );
    n.put("render_samples", last.view_ms.len() as f64, "count");
    n.put("lines_ms_p50", harness::median(&last.lines_ms), "ms");
    n.put("views_per_s", per_s, "1/s");

    if !trace {
        let e2e = &mut out.metrics;
        e2e.put("op_ms_p50", harness::median(&all_ms), "ms");
        e2e.put("op_ms_p90", harness::quantile(&all_ms, 0.90), "ms");
        e2e.put("ops_per_s", per_s, "1/s");
        e2e.put("server_cpu_ms_per_op", last.cpu_s / ops * 1e3, "ms");
        e2e.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
        e2e.put("setup_s", setup_s, "s");
        return out;
    }

    let (a, b) = (&windows[0], &windows[1]);
    let m = &mut out.metrics;
    m.put(
        "render.interaction_ms_p50",
        harness::median(&b.view_ms),
        "ms",
    );
    m.put("render.lines_ms_p50", harness::median(&b.lines_ms), "ms");
    m.put("beam.simulate_s", env.simulate_s, "s");
    m.put("octree.partition_s", env.partition_s, "s");
    replay(&env, &mut script.rng, m);
    accelviz_trace::global().set_spans_enabled(false);
    let untraced = harness::median(&a.view_ms);
    let traced = harness::median(&b.view_ms);
    m.put(
        "trace.overhead_frac",
        (traced - untraced) / untraced,
        "ratio",
    );
    let layers = spans::layer_self_ms(&accelviz_trace::global().spans());
    for (layer, ms) in &layers {
        m.put(&format!("self_ms.{layer}"), *ms, "ms");
    }
    let attributed = m.get("render.volume_ms") + m.get("render.points_ms");
    m.put("trace.attributed_frac", attributed / traced, "ratio");
    out
}

/// Renders the volume and point passes of seeded session states
/// separately, and the line view, one traced root span per state.
fn replay(env: &Env, rng: &mut Rng, m: &mut Metrics) {
    let mut fb = Framebuffer::new(SIZE, SIZE);
    let (mut volume, mut points, mut lines) = (Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut drawn, mut triangles) = (Vec::new(), Vec::new(), Vec::new());
    for n in 0..REPLAYS {
        let mut root = accelviz_trace::span(spans::REPLAY_ROOT);
        root.arg("op", n as f64);
        let frame = &env.frames[rng.below(FRAMES as u64) as usize];
        let cam = Camera::orbit(
            frame.bounds.center(),
            frame.bounds.longest_edge() * 2.2,
            0.5 + rng.unit(),
            0.35,
            1.0,
        );
        for (mode, name, ms, count) in [
            (
                RenderMode::VolumeOnly,
                "render::volume",
                &mut volume,
                &mut samples,
            ),
            (
                RenderMode::PointsOnly,
                "render::points",
                &mut points,
                &mut drawn,
            ),
        ] {
            fb.clear(Rgba::TRANSPARENT);
            let (s, stats) = Stamp::time(|| {
                let _s = accelviz_trace::span(name);
                render_hybrid_frame(
                    &mut fb,
                    &cam,
                    frame,
                    &env.session.tfs,
                    mode,
                    &VolumeStyle {
                        steps: 48,
                        ..Default::default()
                    },
                    &PointStyle::default(),
                )
            });
            ms.push(s.ms());
            count.push(if mode == RenderMode::VolumeOnly {
                stats.volume_samples as f64
            } else {
                stats.points_drawn as f64
            });
        }
        fb.clear(Rgba::TRANSPARENT);
        let cam = Camera::orbit(
            env.line_center,
            env.line_distance,
            std::f64::consts::TAU * rng.unit(),
            0.35,
            1.0,
        );
        let (s, stats) = Stamp::time(|| {
            let _s = accelviz_trace::span("render::lines");
            render_line_set(
                &mut fb,
                &cam,
                &env.lines,
                LineRepresentation::SelfOrientingSurfaces,
                &env.style,
                LINE_HALF_WIDTH,
            )
        });
        lines.push(s.ms());
        triangles.push(stats.triangles as f64);
    }
    m.put("render.volume_ms", harness::median(&volume), "ms");
    m.put("render.points_ms", harness::median(&points), "ms");
    m.put("render.volume_samples", harness::median(&samples), "count");
    m.put("render.points_drawn", harness::median(&drawn), "count");
    m.put("render.lines_ms", harness::median(&lines), "ms");
    m.put("render.triangles", harness::median(&triangles), "count");
}
