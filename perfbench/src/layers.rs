//! `--trace 1`: per-layer host time, measured by timing calls into each
//! crate's public functions from this file, plus the simulated counters
//! that must stay bit-identical under simulator-speed changes.
//!
//! Layers and the calls that measure them:
//!
//! * `bvh` — `AccelStruct::build`, monolithic and two-level;
//! * `shard` — `ShardedAccel::build` (plan / subtree / assemble phases);
//! * `render` — `render_functional` (traversal, math kernels, k-buffer,
//!   blending with no cost model), and the engine's `plan_launch` /
//!   `simulate_fragment` / `merge_launch` driven by hand on one thread;
//! * `sim` — the fragment time beyond functional rendering is the cost
//!   model's bookkeeping. Its memory-model share is measured by capturing
//!   each SM's fetch stream with a recording `TraversalObserver` (driven in
//!   the engine's warp-queue order) and replaying it through
//!   `MemorySystem::access`; what is left is the reconciliation residual;
//! * `pipeline` — span sums from the stream's own telemetry handle.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use grtx::{
    AccelStruct, Camera, GaussianScene, PipelineVariant, RenderEngine, RenderReport, Telemetry,
};
use grtx_bvh::{FetchKind, TraversalObserver};
use grtx_math::Ray;
use grtx_render::renderer::render_functional;
use grtx_render::{RayTracer, RenderConfig};
use grtx_sim::{AccessClass, GpuConfig, MemorySystem, WarpSchedule};
use grtx_telemetry::{SpanRecorder, TelemetryReport};

use crate::stats::{self, Checks, Tally, PAPER_FIG13_SPEEDUPS};
use crate::workloads::{gpu, render_config, same_report, Passes, Workload, SLUGS, THREADS};
use crate::Metrics;

/// Runs `f` inside a span named `name` and returns its result with its
/// wall seconds.
fn timed<R>(
    rec: &mut SpanRecorder,
    name: &'static str,
    key: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    rec.scope(name, key, |_| {
        let start = Instant::now();
        let r = f();
        (r, start.elapsed().as_secs_f64())
    })
}

/// Sum, in seconds, of every span whose last path component is `name`.
fn span_seconds(report: &TelemetryReport, name: &str) -> f64 {
    report
        .spans
        .iter()
        .filter(|s| s.path.rsplit('/').next() == Some(name))
        .map(|s| s.total_us as f64 / 1e6)
        .sum()
}

/// Runs the traced probes of the workload behind `passes` and pushes every
/// per-layer metric. `gen_s` is the set-up's median scene-synthesis time.
pub fn run_traced(
    passes: &mut Passes,
    seed: u64,
    gen_s: f64,
    metrics: &mut Metrics,
    tally: &mut Tally,
) {
    let telemetry = Telemetry::enabled();
    let disabled = Telemetry::disabled();
    let mut rec = telemetry.recorder("perfbench");

    // The workload's stream (for `fig13-train`, its two-frame pipeline
    // probe) untraced, traced, and at depth 1: tracing overhead, pipeline
    // spans, and overlap gain. `fig13-train` also runs its four launches
    // once, whose first view is the reference its layer probes reproduce.
    if passes.workload() == Workload::Fig13Train {
        rec.scope("bench.pass", 0, |_| passes.pass(&disabled, tally));
    }
    let depth = passes.depth();
    let untraced = rec.scope("bench.stream", 0, |_| {
        passes.stream(depth, &disabled, tally)
    });
    let traced = rec.scope("bench.stream", 1, |_| {
        passes.stream(depth, &telemetry, tally)
    });
    let depth_1 = rec.scope("bench.stream", 2, |_| passes.stream(1, &disabled, tally));

    let setup = passes.scene();
    let scene = &setup.scene;
    let camera = &setup.camera;
    metrics.push("scene.gen_s", gen_s, "s");
    metrics.push("scene.gaussians", scene.len() as f64, "count");

    // bvh: both organizations the Fig. 13 variants use.
    let layout = grtx::LayoutConfig::default();
    let (mono, mono_s) = timed(&mut rec, "bvh.build", 0, || {
        setup.build_accel(&PipelineVariant::baseline(), &layout)
    });
    let (two_level, two_level_s) = timed(&mut rec, "bvh.build", 1, || {
        setup.build_accel(&PipelineVariant::grtx_sw(), &layout)
    });
    metrics.push("bvh.build_s.mono", mono_s, "s");
    metrics.push("bvh.build_s.two_level", two_level_s, "s");
    metrics.push("bvh.bytes.mono", mono.size_report().total_bytes as f64, "B");
    metrics.push(
        "bvh.bytes.two_level",
        two_level.size_report().total_bytes as f64,
        "B",
    );

    // shard: the Baseline structure built as 2 spatial shards.
    let (sharded, _) = timed(&mut rec, "shard.build", 0, || {
        setup.build_sharded_accel(&PipelineVariant::baseline(), &layout, 2, THREADS)
    });
    metrics.push("shard.plan_s", sharded.plan_seconds(), "s");
    metrics.push("shard.subtree_s", sharded.build_seconds(), "s");
    metrics.push("shard.assemble_s", sharded.assemble_seconds(), "s");
    tally.record(if sharded.size_report() == mono.size_report() {
        Ok(())
    } else {
        Err("sharded structure differs from the monolithic build".to_string())
    });
    drop(sharded);

    // render + sim, per variant, on the workload's first camera.
    let structures = [&mono, &two_level];
    let lineup = PipelineVariant::fig13_lineup();
    let mut plan_s = Vec::new();
    let mut merge_s = Vec::new();
    let mut cycles = Vec::new();
    for (i, variant) in lineup.iter().enumerate() {
        let accel = structures[usize::from(variant.two_level)];
        let config = render_config(variant);
        let reference = match passes.first_report(i) {
            Some(report) => Ok(report.clone()),
            None => RenderEngine::new(gpu())
                .with_threads(THREADS)
                .try_render(accel, scene, camera, None, &config),
        };
        let reference = match reference {
            Ok(r) => r,
            Err(e) => {
                tally.record(Err(format!("{} reference render: {e}", SLUGS[i])));
                continue;
            }
        };
        let probe = rec.scope("layers.variant", i as u64, |rec| {
            probe_variant(rec, accel, scene, camera, &config, &reference)
        });
        plan_s.push(probe.plan_s);
        merge_s.push(probe.merge_s);
        cycles.push(reference.cycles);
        probe.push_metrics(SLUGS[i], metrics);
        tally.record(probe.checks(SLUGS[i]));
        push_counters(SLUGS[i], variant, &reference, cycles[0], metrics);
    }
    if plan_s.len() == lineup.len() {
        metrics.push("render.plan_s", stats::median(&plan_s), "s");
        metrics.push("render.merge_s", stats::median(&merge_s), "s");
        let simulated: Vec<f64> = cycles[1..]
            .iter()
            .map(|&c| stats::speedup(cycles[0], c))
            .collect();
        let err = stats::paper_error_pct(&simulated, &PAPER_FIG13_SPEEDUPS);
        println!(
            "Fig. 13 speedups: SW {:.3}x HW {:.3}x GRTX {:.3}x; max error vs paper {err:.2}%",
            simulated[0], simulated[1], simulated[2]
        );
        metrics.push("fig13_err_pct", err, "%");
    }

    // pipeline: the traced stream's own spans and counters.
    drop(rec);
    let report = telemetry.report().expect("enabled telemetry reports");
    metrics.push(
        "pipeline.update_s",
        span_seconds(&report, "pipeline.update"),
        "s",
    );
    metrics.push(
        "pipeline.build_s",
        span_seconds(&report, "pipeline.build"),
        "s",
    );
    metrics.push(
        "pipeline.render_s",
        span_seconds(&report, "pipeline.fragment"),
        "s",
    );
    metrics.push(
        "pipeline.merge_s",
        span_seconds(&report, "pipeline.merge"),
        "s",
    );
    let rebuilds = report
        .counters
        .iter()
        .find(|c| c.name == "pipeline.rebuilds")
        .map_or(0, |c| c.value);
    metrics.push("pipeline.rebuilds", rebuilds as f64, "count");
    metrics.push("pipeline.overlap_gain", depth_1 / untraced, "ratio");
    metrics.push(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );

    let path = std::path::Path::new(".bench_build/perfbench").join(format!(
        "{}-seed{seed}.trace.json",
        passes.workload().name()
    ));
    let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
        .and_then(|()| std::fs::write(&path, telemetry.chrome_trace().expect("enabled telemetry")));
    match written {
        Ok(()) => println!("chrome trace: {}", path.display()),
        Err(e) => tally.record(Err(format!("writing {}: {e}", path.display()))),
    }
}

/// Host time of one variant's layers.
struct VariantProbe {
    functional_s: f64,
    plan_s: f64,
    /// Per-SM `simulate_fragment` seconds.
    fragment_s: Vec<f64>,
    merge_s: f64,
    /// Memory-model replay seconds, summed over SMs.
    mem_s: f64,
    /// Demand fetches captured, summed over SMs.
    fetches: u64,
    /// Failed consistency checks.
    failures: Checks,
}

impl VariantProbe {
    fn checks(self, slug: &str) -> Result<(), String> {
        self.failures
            .outcome()
            .map_err(|e| format!("{slug} layers: {e}"))
    }

    /// Pushes the host-time metrics and prints the reconciliation.
    fn push_metrics(&self, slug: &str, metrics: &mut Metrics) {
        let fragment: f64 = self.fragment_s.iter().sum();
        let fragment_max = self.fragment_s.iter().copied().fold(0.0, f64::max);
        let bookkeeping = fragment - self.functional_s;
        let residual = bookkeeping - self.mem_s;
        let fetches = self.fetches.max(1) as f64;
        println!(
            "reconcile {slug}: fragments {fragment:.4}s = functional {:.4}s + bookkeeping \
             {bookkeeping:.4}s; bookkeeping = mem {:.4}s + residual {residual:.4}s",
            self.functional_s, self.mem_s
        );
        metrics.push(
            format!("render.functional_s.{slug}"),
            self.functional_s,
            "s",
        );
        metrics.push(format!("render.fragment_s.{slug}"), fragment, "s");
        metrics.push(format!("render.fragment_max_s.{slug}"), fragment_max, "s");
        metrics.push(format!("sim.bookkeeping_s.{slug}"), bookkeeping, "s");
        metrics.push(
            format!("sim.mem_ns_per_access.{slug}"),
            self.mem_s / fetches * 1e9,
            "ns",
        );
        metrics.push(format!("sim.residual_s.{slug}"), residual, "s");
        metrics.push(
            format!("sim.host_ns_per_fetch.{slug}"),
            fragment / fetches * 1e9,
            "ns",
        );
    }
}

/// Pushes the deterministic simulated counters of one variant.
fn push_counters(
    slug: &str,
    variant: &PipelineVariant,
    r: &RenderReport,
    baseline_cycles: u64,
    metrics: &mut Metrics,
) {
    let s = &r.stats;
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(format!("sim.{name}.{slug}"), value, unit);
    };
    push("cycles", r.cycles as f64, "cycles");
    push("speedup", stats::speedup(baseline_cycles, r.cycles), "x");
    push(
        "rounds_per_ray",
        s.rounds as f64 / s.rays.max(1) as f64,
        "rounds",
    );
    // Checkpoint and eviction counters are 0 by construction without
    // GRTX-HW; only the variants that run it report them.
    if variant.checkpointing {
        push("checkpoint_writes", s.checkpoint_writes as f64, "count");
        push("checkpoint_reads", s.checkpoint_reads as f64, "count");
        push("eviction_writes", s.eviction_writes as f64, "count");
    }
    push("node_fetches", s.node_fetches_total as f64, "count");
    push("redundancy", s.redundancy(), "ratio");
    push("l1_hit_rate", r.l1_hit_rate, "ratio");
    push("l2_accesses", r.l2_accesses as f64, "count");
    push("dram_accesses", r.dram_accesses as f64, "count");
    push("avg_fetch_latency", r.avg_fetch_latency, "cycles");
}

/// Times one variant's layers on `camera` and checks each hand-driven
/// result against the engine's `reference` render.
fn probe_variant(
    rec: &mut SpanRecorder,
    accel: &AccelStruct,
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
    reference: &RenderReport,
) -> VariantProbe {
    let gpu = gpu();
    let mut failures = Checks::default();

    let (image, functional_s) = timed(rec, "render.functional", 0, || {
        render_functional(accel, scene, camera, config)
    });
    failures.expect(image.pixels() == reference.image.pixels(), || {
        "functional image differs from the simulated render".into()
    });

    let engine = RenderEngine::new(gpu.clone()).with_threads(1);
    let (launch, plan_s) = timed(rec, "render.plan", 0, || engine.plan_launch(camera, None));
    let mut fragment_s = Vec::new();
    let outcomes: Vec<_> = (0..engine.fragments_per_launch())
        .map(|sm| {
            let (outcome, secs) = timed(rec, "render.fragment", sm as u64, || {
                engine.simulate_fragment(accel, scene, config, &launch, sm)
            });
            fragment_s.push(secs);
            outcome
        })
        .collect();
    let (merged, merge_s) = timed(rec, "render.merge", 0, || {
        engine.merge_launch(&launch, camera, config, outcomes)
    });
    failures.expect(same_report(&merged, reference), || {
        "hand-driven plan/fragment/merge differs from the engine render".into()
    });

    // Memory model: capture each SM's fetch stream, then replay it alone.
    let rays: Vec<Ray> = camera.rays().map(|(_, ray)| ray).collect();
    let (mut mem_s, mut fetches, mut l2, mut dram) = (0.0, 0u64, 0u64, 0u64);
    for sm in 0..gpu.num_sms {
        let (log, _) = timed(rec, "sim.capture", sm as u64, || {
            capture_fetches(accel, scene, &rays, config, &gpu, sm)
        });
        let (mem, secs) = timed(rec, "sim.mem_replay", sm as u64, || {
            replay(&log.events, &gpu)
        });
        mem_s += secs;
        fetches += log.demand;
        l2 += mem.l2_structure_accesses;
        dram += mem.dram_structure_accesses;
    }
    failures.expect(
        fetches == reference.stats.node_fetches_total
            && l2 == reference.l2_accesses
            && dram == reference.dram_accesses,
        || {
            format!(
                "replayed fetch stream (fetches {fetches}, L2 {l2}, DRAM {dram}) does not \
                 reproduce the render ({}, {}, {})",
                reference.stats.node_fetches_total, reference.l2_accesses, reference.dram_accesses
            )
        },
    );

    VariantProbe {
        functional_s,
        plan_s,
        fragment_s,
        merge_s,
        mem_s,
        fetches,
        failures,
    }
}

/// A recorded fetch stream: `addr << 16 | bytes << 1 | is_prefetch`.
#[derive(Default)]
struct FetchLog {
    events: Vec<u64>,
    demand: u64,
}

impl FetchLog {
    fn push(&mut self, addr: u64, bytes: u64, prefetch: bool) {
        assert!(
            addr < 1 << 48 && bytes < 1 << 15,
            "fetch {addr:#x}+{bytes} does not pack"
        );
        self.events
            .push(addr << 16 | bytes << 1 | u64::from(prefetch));
    }
}

impl TraversalObserver for FetchLog {
    fn node_fetch(&mut self, addr: u64, bytes: u64, _kind: FetchKind) {
        self.demand += 1;
        self.push(addr, bytes, false);
    }

    fn prefetch_hint(&mut self, addr: u64, bytes: u64) {
        self.push(addr, bytes, true);
    }
}

/// Traces SM `sm`'s warps of a launch of `rays` in the order the engine's
/// warp queue runs them — up to `warp_buffer_size` resident warps, each
/// advancing one round per sweep — and records every fetch.
fn capture_fetches(
    accel: &AccelStruct,
    scene: &GaussianScene,
    rays: &[Ray],
    config: &RenderConfig,
    gpu: &GpuConfig,
    sm: usize,
) -> FetchLog {
    let warp_size = gpu.warp_size.max(1);
    let schedule = WarpSchedule::new(gpu);
    let mut pending: VecDeque<usize> = (0..rays.len().div_ceil(warp_size))
        .filter(|&w| schedule.sm_of_launch_warp(w) == sm)
        .collect();
    let mut resident: Vec<Vec<RayTracer>> = Vec::new();
    let mut log = FetchLog::default();
    loop {
        while resident.len() < gpu.warp_buffer_size.max(1) {
            let Some(w) = pending.pop_front() else { break };
            let chunk = &rays[w * warp_size..((w + 1) * warp_size).min(rays.len())];
            resident.push(
                chunk
                    .iter()
                    .map(|&ray| RayTracer::new(accel, scene, ray, config.params))
                    .collect(),
            );
        }
        if resident.is_empty() {
            return log;
        }
        let mut finished = Vec::new();
        for (slot, warp) in resident.iter_mut().enumerate() {
            for tracer in warp.iter_mut().filter(|t| !t.is_done()) {
                tracer.round(&mut log);
            }
            if warp.iter().all(RayTracer::is_done) {
                finished.push(slot);
            }
        }
        for &slot in finished.iter().rev() {
            resident.swap_remove(slot);
        }
    }
}

/// Replays a fetch stream through a fresh SM-slice memory hierarchy.
fn replay(events: &[u64], gpu: &GpuConfig) -> MemorySystem {
    let mut mem = MemorySystem::new(&gpu.sm_slice());
    for &e in events {
        let (addr, bytes) = (e >> 16, (e >> 1) & 0x7fff);
        if e & 1 == 1 {
            mem.prefetch(0, addr, bytes);
        } else {
            black_box(mem.access(0, addr, bytes, AccessClass::Structure));
        }
    }
    mem
}
