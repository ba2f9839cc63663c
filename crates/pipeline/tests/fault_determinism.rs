//! The failure-path determinism contract: the same seed-scattered
//! `FaultPlan` produces the same `FaultLog` — and the same per-frame
//! outcomes — at any thread count and any pipeline depth, recovered
//! transient-fault streams are bit-identical to fault-free runs, and
//! frames with invalid inputs fail typed without disturbing the rest.

use grtx_fault::{
    silence_injected_panics, FaultInjector, FaultLog, FaultPlan, FaultSite, GrtxError, RetryPolicy,
};
use grtx_pipeline::{
    try_run_stream, FrameOutcome, FrameSource, FrameSpec, JitterSource, StreamConfig,
};
use grtx_scene::synth::generate_scene;
use grtx_scene::{Camera, CameraModel, GaussianScene, SceneKind};
use proptest::prelude::*;
use std::sync::Arc;

const FRAMES: usize = 5;

fn source() -> JitterSource {
    let scene = Arc::new(generate_scene(
        SceneKind::Train.profile().with_gaussian_budget(120),
        7,
    ));
    let camera = Camera::look_at(
        14,
        14,
        CameraModel::Pinhole { fov_y: 0.9 },
        SceneKind::Train.profile().camera_eye(),
        grtx_math::Vec3::ZERO,
        grtx_math::Vec3::Y,
    );
    JitterSource::with_period(scene, vec![camera], 0.15, 2)
}

fn run_scattered(seed: u64, threads: usize, depth: usize) -> (Vec<FrameOutcome>, FaultLog) {
    let plan = FaultPlan::scatter(seed, &FaultSite::INJECTABLE, FRAMES as u64, 400, 1);
    let injector = FaultInjector::with_plan(plan);
    let config = StreamConfig {
        depth,
        threads,
        faults: injector.clone(),
        retry: RetryPolicy::resilient(3),
        ..Default::default()
    };
    let outcomes = try_run_stream(&source(), FRAMES, &config).expect("valid configuration");
    (outcomes, injector.log())
}

fn assert_outcomes_identical(label: &str, a: &[FrameOutcome], b: &[FrameOutcome]) {
    assert_eq!(a.len(), b.len(), "{label}: frame count");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{label}, frame {}", x.index());
        assert_eq!(x.index(), y.index(), "{tag}: index");
        assert_eq!(x.is_failed(), y.is_failed(), "{tag}: failure status");
        match (x.rendered(), y.rendered()) {
            (Some(r), Some(s)) => {
                assert_eq!(r.rebuilt, s.rebuilt, "{tag}: rebuilt");
                assert_eq!(r.size, s.size, "{tag}: size report");
                assert_eq!(r.reports.len(), s.reports.len(), "{tag}: view count");
                for (view, (p, q)) in r.reports.iter().zip(&s.reports).enumerate() {
                    let tag = format!("{tag}, view {view}");
                    assert_eq!(p.image.pixels(), q.image.pixels(), "{tag}: image");
                    assert_eq!(p.cycles, q.cycles, "{tag}: cycles");
                    assert_eq!(p.stats, q.stats, "{tag}: stats");
                }
            }
            (None, None) => assert_eq!(x.error(), y.error(), "{tag}: error"),
            _ => unreachable!("failure status compared above"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed → same `FaultLog` and same outcomes, across the
    /// threads × depth grid: the probe set never depends on the
    /// schedule.
    #[test]
    fn fault_log_is_schedule_independent(seed in 0u64..512) {
        silence_injected_panics();
        let (reference_outcomes, reference_log) = run_scattered(seed, 1, 1);
        for depth in [1usize, 3] {
            for threads in [1usize, 4] {
                let (outcomes, log) = run_scattered(seed, threads, depth);
                prop_assert_eq!(
                    &log,
                    &reference_log,
                    "seed {} depth {} threads {}: fault log diverged",
                    seed,
                    depth,
                    threads
                );
                assert_outcomes_identical(
                    &format!("seed {seed} depth {depth} threads {threads}"),
                    &outcomes,
                    &reference_outcomes,
                );
            }
        }
    }
}

/// Transient faults recovered by retries leave no trace in the results:
/// the stream is bit-identical to a fault-free run of the same
/// configuration, and every injection was logged.
#[test]
fn recovered_streams_match_fault_free_runs() {
    silence_injected_panics();
    let plan = FaultPlan::new()
        .transient(FaultSite::Partition, 0, 1)
        .transient(FaultSite::Build, 2, 2)
        .transient(FaultSite::Fragment, 1, 1)
        .transient(FaultSite::Merge, 3, 2);
    for depth in [1usize, 3] {
        let injector = FaultInjector::with_plan(plan.clone());
        let faulty = StreamConfig {
            depth,
            threads: 2,
            faults: injector.clone(),
            retry: RetryPolicy::resilient(3),
            ..Default::default()
        };
        let clean = StreamConfig {
            depth,
            threads: 2,
            retry: RetryPolicy::resilient(3),
            ..Default::default()
        };
        let recovered = try_run_stream(&source(), FRAMES, &faulty).expect("valid configuration");
        let baseline = try_run_stream(&source(), FRAMES, &clean).expect("valid configuration");
        assert!(
            recovered.iter().all(|o| !o.is_failed()),
            "depth {depth}: transient faults within the retry budget must recover"
        );
        assert_outcomes_identical(&format!("depth {depth}"), &recovered, &baseline);
        let log = injector.log();
        assert!(
            log.count_for(FaultSite::Build) >= 2,
            "depth {depth}: the frame-2 build fault fails twice before succeeding"
        );
        assert!(log.count_for(FaultSite::Merge) >= 2, "depth {depth}");
    }
}

/// [`source`] with a NaN sigma bound on frame 2's fresh scene (scene
/// constructors drop invalid Gaussians, so this is the non-finite value
/// a scene can carry) and a 0×0 camera on frame 5.
struct Broken(JitterSource);

impl FrameSource for Broken {
    fn frame(&self, index: usize) -> FrameSpec {
        let mut spec = self.0.frame(index);
        if index == 2 {
            let gaussians = spec.scene.take().expect("fresh frame").gaussians().to_vec();
            let scene = GaussianScene::with_sigma_bound(gaussians, f32::NAN);
            spec.scene = Some(Arc::new(scene));
        }
        if index == 5 {
            spec.cameras[0].width = 0;
            spec.cameras[0].height = 0;
        }
        spec
    }
}

/// The update task validates every frame, under every retry policy and
/// at every depth: an invalid scene or camera fails its frame with a
/// typed error, a successor that reuses the invalid frame's scene fails
/// as its dependent, and the next fresh scene renders bit-identically to
/// a clean stream.
#[test]
fn invalid_frames_fail_typed_and_the_stream_resumes() {
    for retry in [RetryPolicy::default(), RetryPolicy::resilient(3)] {
        for depth in [1usize, 3] {
            let tag = format!("{retry:?}, depth {depth}");
            let config = StreamConfig {
                depth,
                threads: 2,
                retry,
                ..Default::default()
            };
            let clean = try_run_stream(&source(), 6, &config).expect("valid configuration");
            let broken =
                try_run_stream(&Broken(source()), 6, &config).expect("valid configuration");
            let errors: Vec<_> = broken.iter().map(FrameOutcome::error).collect();
            let failed: Vec<_> = errors.iter().map(Option::is_some).collect();
            assert_eq!(failed, [false, false, true, true, false, true], "{tag}");
            assert!(
                matches!(errors[2], Some(GrtxError::InvalidScene { .. })),
                "{tag}: {errors:?}"
            );
            let dependent = GrtxError::DependencyFailed {
                frame: 3,
                dependency: 2,
            };
            assert_eq!(errors[3], Some(&dependent), "{tag}");
            assert!(
                matches!(errors[5], Some(GrtxError::InvalidCamera { .. })),
                "{tag}: {errors:?}"
            );
            assert_outcomes_identical(&tag, &broken[..2], &clean[..2]);
            assert_outcomes_identical(&tag, &broken[4..5], &clean[4..5]);
        }
    }
}
