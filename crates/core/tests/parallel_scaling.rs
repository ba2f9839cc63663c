//! The parallel render engine's contract, enforced end-to-end through
//! the experiment layer: thread count changes wall-clock time only —
//! never images, cycles, or statistics.

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

/// Bit-identity across thread counts, through `RunOptions::threads`.
#[test]
fn thread_count_is_invisible_in_every_report_field() {
    let setup = SceneSetup::evaluation(SceneKind::Train, 500, 48, 42);
    let variant = PipelineVariant::grtx();
    let run = |threads: usize| {
        setup.run(
            &variant,
            &RunOptions {
                k: 8,
                threads,
                ..Default::default()
            },
        )
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let parallel = run(threads);
        assert_eq!(
            serial.report.image.pixels(),
            parallel.report.image.pixels(),
            "{threads} threads: image bytes must be identical"
        );
        assert_eq!(
            serial.report.cycles, parallel.report.cycles,
            "{threads} threads: cycles"
        );
        assert_eq!(
            serial.report.stats, parallel.report.stats,
            "{threads} threads: SimStats"
        );
        assert_eq!(
            serial.report.footprint_bytes, parallel.report.footprint_bytes,
            "{threads} threads: footprint"
        );
        assert_eq!(
            serial.report.l2_accesses, parallel.report.l2_accesses,
            "{threads} threads: L2 accesses"
        );
    }
}

/// Secondary rays (Fig. 23 effects) follow the same contract.
#[test]
fn thread_count_is_invisible_with_secondary_rays() {
    let setup = SceneSetup::evaluation(SceneKind::Room, 1000, 32, 7);
    let variant = PipelineVariant::grtx_hw();
    let run = |threads: usize| {
        setup.run(
            &variant,
            &RunOptions {
                effects_seed: Some(5),
                threads,
                ..Default::default()
            },
        )
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.report.image.pixels(), parallel.report.image.pixels());
    assert_eq!(serial.report.cycles, parallel.report.cycles);
    assert_eq!(serial.report.stats, parallel.report.stats);
}
