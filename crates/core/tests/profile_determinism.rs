//! The profiler must be a pure observer on a deterministic timebase:
//! every image, cycle count, and statistic is bit-identical with
//! profiling on or off, across the batched engine and the frame
//! pipeline at every depth/thread/shard combination; two profiled runs
//! — even at different thread counts — produce byte-identical
//! `grtx-prof-v1` reports and virtual-clock Chrome traces; and the
//! per-(launch, SM) counter matrix sums exactly to the global
//! [`grtx_sim::SimStats`].

use grtx::{ExperimentResult, PipelineVariant, Profiler, RunOptions, SceneSetup};
use grtx_scene::SceneKind;
use grtx_sim::SimStats;

fn tiny_setup() -> SceneSetup {
    SceneSetup::evaluation(SceneKind::Room, 2000, 24, 11)
}

fn assert_results_identical(a: &ExperimentResult, b: &ExperimentResult, what: &str) {
    assert_eq!(
        a.report.image.pixels(),
        b.report.image.pixels(),
        "{what}: image"
    );
    assert_eq!(a.report.cycles, b.report.cycles, "{what}: cycles");
    assert_eq!(a.report.stats, b.report.stats, "{what}: stats");
    assert_eq!(
        a.report.l2_accesses, b.report.l2_accesses,
        "{what}: L2 accesses"
    );
    assert_eq!(
        a.report.dram_accesses, b.report.dram_accesses,
        "{what}: DRAM accesses"
    );
    assert_eq!(
        a.report.footprint_bytes, b.report.footprint_bytes,
        "{what}: footprint"
    );
    assert_eq!(a.report.secondary, b.report.secondary, "{what}: secondary");
}

#[test]
fn render_batch_is_bit_identical_with_profiling_on() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    for threads in [1, 4] {
        let off = RunOptions {
            k: 8,
            threads,
            ..Default::default()
        };
        let on = RunOptions {
            profiler: Profiler::enabled(),
            ..off.clone()
        };
        let plain = setup.run_views(&variant, &off, 2);
        let profiled = setup.run_views(&variant, &on, 2);
        assert_eq!(plain.len(), profiled.len());
        for (a, b) in plain.iter().zip(&profiled) {
            assert_results_identical(a, b, &format!("render_batch threads={threads}"));
        }
        // The profiled run actually collected the full matrix: one row
        // per (launch, SM), launches keyed by camera index.
        let report = on.profiler.report().expect("enabled handle reports");
        let sms = on.gpu.num_sms;
        assert_eq!(report.launches.len(), 2, "one launch per view");
        assert_eq!(report.matrix.len(), 2 * sms, "one cell per (launch, SM)");
    }
}

#[test]
fn run_stream_is_bit_identical_with_profiling_on() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    for depth in [1, 3] {
        for threads in [1, 4] {
            for shards in [1, 4] {
                let off = RunOptions {
                    k: 8,
                    threads,
                    shards,
                    ..Default::default()
                };
                let on = RunOptions {
                    profiler: Profiler::enabled(),
                    ..off.clone()
                };
                let what = format!("run_stream depth={depth} threads={threads} shards={shards}");
                let source = setup.jitter_source(0.05, 2);
                let plain = setup.run_stream(&source, 4, &variant, &off, depth);
                let profiled = setup.run_stream(&source, 4, &variant, &on, depth);
                assert_eq!(plain.len(), profiled.len(), "{what}: frame count");
                for (fa, fb) in plain.iter().zip(&profiled) {
                    assert_eq!(fa.index(), fb.index(), "{what}: frame order");
                    assert_eq!(fa.rebuilt(), fb.rebuilt(), "{what}: rebuild decisions");
                    assert_eq!(fa.results().len(), fb.results().len());
                    for (a, b) in fa.results().iter().zip(fb.results()) {
                        assert_results_identical(a, b, &what);
                    }
                }
            }
        }
    }
}

/// The acceptance bar for the virtual clock: the profile artifacts are
/// bit-identical across runs *and* across thread counts, pipeline
/// depths, and shard counts — the scheduler decides when fragments run,
/// never what they record, and every export re-sorts into canonical
/// `(launch, SM)` order.
#[test]
fn profiled_artifacts_are_byte_identical_across_schedules() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let run = |depth: usize, threads: usize, shards: usize| {
        let options = RunOptions {
            k: 8,
            threads,
            shards,
            profiler: Profiler::enabled(),
            ..Default::default()
        };
        let source = setup.jitter_source(0.05, 2);
        let frames = setup.run_stream(&source, 4, &variant, &options, depth);
        assert_eq!(frames.len(), 4);
        let report = options.profiler.report().expect("enabled handle reports");
        let trace = options
            .profiler
            .chrome_trace()
            .expect("enabled handle traces");
        (report.to_json(), trace)
    };
    let (base_json, base_trace) = run(3, 4, 4);
    for (depth, threads, shards) in [(3, 4, 4), (1, 1, 1), (3, 1, 4), (1, 4, 1)] {
        let (json, trace) = run(depth, threads, shards);
        assert_eq!(
            base_json, json,
            "grtx-prof-v1 report must be byte-identical at depth={depth} threads={threads} shards={shards}"
        );
        assert_eq!(
            base_trace, trace,
            "virtual-clock trace must be byte-identical at depth={depth} threads={threads} shards={shards}"
        );
    }
}

/// The counter-matrix conservation law: folding every `(launch, SM)`
/// cell with [`SimStats::merge`] reproduces exactly the global
/// statistics the launches reported — every event the simulator counted
/// is attributed to precisely one cell.
#[test]
fn counter_matrix_sums_exactly_to_global_simstats() {
    let setup = tiny_setup();
    let variant = PipelineVariant::grtx();
    let options = RunOptions {
        k: 8,
        threads: 4,
        shards: 4,
        profiler: Profiler::enabled(),
        ..Default::default()
    };
    let source = setup.jitter_source(0.05, 2);
    let frames = setup.run_stream(&source, 4, &variant, &options, 3);
    let mut global = SimStats::default();
    for frame in &frames {
        for result in frame.results() {
            global.merge(&result.report.stats);
        }
    }
    let report = options.profiler.report().expect("enabled handle reports");
    assert_eq!(
        report.matrix_totals(),
        global,
        "per-(launch, SM) matrix cells must fold to the global SimStats"
    );
    assert!(global.rounds > 0, "the workload really simulated");
}
