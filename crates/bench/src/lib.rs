#![forbid(unsafe_code)]

//! Shared support for the paper-reproduction bench harnesses.
//!
//! Every bench target regenerates one table or figure from the paper's
//! evaluation section and prints the same rows/series the paper reports.
//! Scene scale and resolution default to `GRTX_SCALE=40` (1/40 of the
//! paper's Gaussian counts) and `GRTX_RES=96` for tractable wall-clock
//! time; set the environment variables for higher-fidelity runs
//! (`GRTX_SCALE=20 GRTX_RES=128` matches the paper's setup one-to-one,
//! modulo the documented synthetic-scene substitution).

use grtx::{PipelineVariant, RunOptions, SceneSetup};
use grtx_scene::SceneKind;

/// Seed used by all benches so every figure sees identical scenes.
pub const BENCH_SEED: u64 = 42;

/// Scene-scale divisor the smoke profile pins (1/800 of paper scale).
pub const SMOKE_SCALE_DIVISOR: &str = "800";

/// Resolution the smoke profile pins.
pub const SMOKE_RESOLUTION: &str = "32";

/// `true` when this bench run should use the fast smoke profile:
/// `cargo bench -- --test` (CI) or `GRTX_SMOKE=1`.
pub fn smoke_requested() -> bool {
    std::env::args().any(|a| a == "--test")
        || std::env::var("GRTX_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Applies the smoke profile by pinning `GRTX_SCALE`/`GRTX_RES` to tiny
/// values — unless the user already set them — so every bench target
/// finishes in seconds. Called from [`banner`], which every figure/table
/// bench prints before building scenes. Returns whether smoke is active.
pub fn apply_smoke_profile() -> bool {
    if !smoke_requested() {
        return false;
    }
    if std::env::var("GRTX_SCALE").is_err() {
        std::env::set_var("GRTX_SCALE", SMOKE_SCALE_DIVISOR);
    }
    if std::env::var("GRTX_RES").is_err() {
        std::env::set_var("GRTX_RES", SMOKE_RESOLUTION);
    }
    true
}

/// Builds the six evaluation scenes at the env-configured scale.
pub fn evaluation_scenes() -> Vec<SceneSetup> {
    let divisor = SceneSetup::env_divisor();
    let res = SceneSetup::env_resolution();
    SceneKind::ALL
        .iter()
        .map(|&kind| SceneSetup::evaluation(kind, divisor, res, BENCH_SEED))
        .collect()
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a figure/table banner with the run configuration. Also
/// applies the smoke profile when `--test` / `GRTX_SMOKE` asks for it.
pub fn banner(title: &str, paper_ref: &str) {
    let smoke = apply_smoke_profile();
    println!();
    println!("================================================================");
    println!("{title}");
    println!(
        "(reproduces {paper_ref}; scale divisor {}, resolution {}x{}{})",
        SceneSetup::env_divisor(),
        SceneSetup::env_resolution(),
        SceneSetup::env_resolution(),
        if smoke { "; SMOKE profile" } else { "" }
    );
    println!("================================================================");
}

/// Prints one row of named numeric columns.
pub fn row(label: &str, columns: &[(&str, f64)]) {
    print!("{label:<12}");
    for (name, value) in columns {
        print!("  {name}={value:<10.4}");
    }
    println!();
}

/// Default options (k = 16, Table I GPU) shared by most benches.
pub fn default_options() -> RunOptions {
    RunOptions::default()
}

/// The Fig. 13 variant lineup, re-exported for benches.
pub fn fig13_variants() -> [PipelineVariant; 4] {
    PipelineVariant::fig13_lineup()
}

/// Eight sibling boxes as one full BVH-8 node holds them — the
/// slab-test fixture shared by `benches/kernels.rs` and the committed
/// `BENCH_kernels.json` baseline dump, so their numbers stay
/// comparable. (Before the BVH-8 collapse this fixture held six boxes;
/// `slab6_*` rows in old baselines are not directly comparable to the
/// `slab8_*` rows dumped now.)
pub fn kernel_node_boxes() -> Vec<grtx_math::Aabb> {
    use grtx_math::{Aabb, Vec3};
    (0..8)
        .map(|i| {
            Aabb::from_center_half_extent(
                Vec3::new((i % 4) as f32 * 1.5, (i / 4) as f32 * 1.5, i as f32 * 0.4),
                Vec3::splat(0.8),
            )
        })
        .collect()
}

/// The ray the slab-test fixture is probed with.
pub fn kernel_slab_ray() -> grtx_math::Ray {
    use grtx_math::{Ray, Vec3};
    Ray::new(
        Vec3::new(-3.0, 0.4, -2.0),
        Vec3::new(1.0, 0.1, 0.6).normalized(),
    )
}

/// Four leaf triangles — the batched-triangle fixture shared by the
/// kernel bench and the baseline dump.
pub fn kernel_triangles() -> Vec<[grtx_math::Vec3; 3]> {
    use grtx_math::Vec3;
    (0..4)
        .map(|i| {
            let base = Vec3::new(i as f32 * 0.2 - 0.3, -0.4, 1.0 + i as f32 * 0.1);
            [
                base,
                base + Vec3::new(1.0, 0.1, 0.0),
                base + Vec3::new(0.3, 1.2, 0.1),
            ]
        })
        .collect()
}

/// The ray the triangle fixture is probed with.
pub fn kernel_tri_ray() -> grtx_math::Ray {
    use grtx_math::{Ray, Vec3};
    Ray::new(
        Vec3::new(0.1, 0.2, -3.0),
        Vec3::new(0.05, 0.02, 1.0).normalized(),
    )
}

/// The ray the node-visit sweep (and the `GRTX_PERF` speedup gate)
/// fires through the [`kernel_grid_prims`] BVH.
pub fn kernel_visit_ray() -> grtx_math::Ray {
    use grtx_math::{Ray, Vec3};
    Ray::new(
        Vec3::new(-10.0, 40.0, 45.0),
        Vec3::new(1.0, 0.1, 0.2).normalized(),
    )
}

/// Pseudo-random grid of build primitives shared by the kernel benches,
/// the committed `BENCH_kernels.json` baseline dump, and the
/// `GRTX_PERF`-gated kernel speedup test — one definition so their
/// numbers stay comparable.
pub fn kernel_grid_prims(n: usize) -> Vec<grtx_bvh::BuildPrim> {
    use grtx_math::Vec3;
    (0..n)
        .map(|i| {
            let p = Vec3::new(
                ((i * 131) % 97) as f32,
                ((i * 17) % 89) as f32,
                ((i * 7) % 101) as f32,
            );
            grtx_bvh::BuildPrim::from_aabb(grtx_math::Aabb::from_center_half_extent(
                p,
                Vec3::splat(0.4),
            ))
        })
        .collect()
}

/// AoS copy of a wide BVH's per-node child boxes, replicating the
/// pre-SIMD `Vec<WideChild>` layout for scalar-loop baselines.
#[allow(clippy::type_complexity)]
pub fn aos_node_boxes(
    bvh: &grtx_bvh::WideBvh,
) -> Vec<(usize, [grtx_math::Aabb; grtx_bvh::wide::MAX_WIDTH])> {
    bvh.nodes
        .iter()
        .map(|n| {
            let mut boxes = [grtx_math::Aabb::EMPTY; grtx_bvh::wide::MAX_WIDTH];
            for (i, c) in n.children().enumerate() {
                boxes[i] = c.aabb;
            }
            (n.len(), boxes)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[4.0, 0.25]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_empty_is_zero() {
        assert_eq!(geomean(&[]), 0.0);
    }
}
