//! Sharded acceleration-structure construction.
//!
//! [`ShardedAccel::build`] splits the structure's build primitives into K
//! spatial shards along the canonical builder's own top-of-tree splits
//! ([`grtx_bvh::plan_frontier`]), builds one subtree per shard **in
//! parallel** over scoped worker threads (shard `s` goes to worker
//! `s % threads`, the same fan-out policy as the render engine), then
//! stitches subtrees back in shard order ([`grtx_bvh::assemble_wide_bvh`]).
//!
//! The stitched structure is **bit-identical** to the serial
//! [`AccelStruct::build`] — node arrays, primitive order, and therefore
//! every simulated fetch address. The shard *directory* (the small
//! top-level shard BVH a ray walks before dispatching into a shard's
//! subtree) is the materialized top of the stitched tree; per-shard node
//! and byte accounting is recovered by classifying each wide node by the
//! contiguous primitive range it covers, and merged deterministically in
//! shard order. Shard count and thread count therefore change build
//! wall-clock time only — never images, cycles, or statistics.

use crate::effective_threads;
use grtx_bvh::{
    assemble_wide_bvh, build_subtree, plan_frontier, AccelStruct, BinarySubtree, BoundingPrimitive,
    BuildPrim, BuilderConfig, BvhSizeReport, ChildKind, FrontierRange, LayoutConfig, MonolithicBvh,
    TwoLevelBvh, WideBvh,
};
use grtx_math::Aabb;
use grtx_scene::GaussianScene;
use grtx_telemetry::Telemetry;

/// Per-shard build outcome and accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Shard id in canonical (left-to-right structure) order.
    pub id: usize,
    /// First position of the shard's primitives in the structure's
    /// `prim_order`.
    pub prim_start: usize,
    /// Number of build primitives the shard owns (Gaussians for two-level
    /// and custom-ellipsoid structures, proxy triangles for mesh
    /// monolithic ones).
    pub prim_count: usize,
    /// Union of the shard's primitive AABBs.
    pub bounds: Aabb,
    /// Byte-accurate accounting of the shard's slice of the structure
    /// (its subtree nodes plus its leaf/instance records).
    pub size: BvhSizeReport,
    /// Wall-clock seconds this shard's subtree build took on its worker.
    pub build_seconds: f64,
}

/// Deterministically merged sharding metadata, small enough to ride along
/// in experiment results.
///
/// All `*_seconds` fields come from the telemetry clock of the build's
/// [`Telemetry`] handle: wall-clock for the disabled/default handle and
/// for [`grtx_telemetry::ClockMode::Wall`], and exactly `0.0` under
/// [`grtx_telemetry::ClockMode::Null`] — which makes two null-clock
/// builds comparable with plain `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingSummary {
    /// Number of shards actually built (≤ requested for tiny scenes).
    pub shard_count: usize,
    /// Worker threads the parallel build used.
    pub threads: usize,
    /// Shard-directory accounting: the top-level nodes above every shard
    /// subtree, plus the shared BLAS for two-level structures.
    pub directory: BvhSizeReport,
    /// Per-shard accounting in shard order.
    pub shard_sizes: Vec<BvhSizeReport>,
    /// Serial frontier-planning seconds.
    pub plan_seconds: f64,
    /// Wall-clock seconds of the parallel subtree fan-out.
    pub build_seconds: f64,
    /// Serial stitch + collapse seconds.
    pub assemble_seconds: f64,
}

/// An acceleration structure built shard-by-shard in parallel, with the
/// per-shard directory/accounting that sharding adds.
#[derive(Debug)]
pub struct ShardedAccel {
    accel: AccelStruct,
    shards: Vec<ShardInfo>,
    directory: BvhSizeReport,
    plan_seconds: f64,
    build_seconds: f64,
    assemble_seconds: f64,
    threads_used: usize,
}

impl ShardedAccel {
    /// Builds the structure `AccelStruct::build(scene, primitive,
    /// two_level, layout)` would produce — bit-identically — as `shards`
    /// spatial shards constructed on `threads` worker threads (`0` = all
    /// available cores, capped at the shard count).
    ///
    /// # Panics
    ///
    /// Panics if `primitive` is [`BoundingPrimitive::UnitSphere`] with a
    /// monolithic organization, exactly as the serial build does.
    pub fn build(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
        two_level: bool,
        layout: &LayoutConfig,
        shards: usize,
        threads: usize,
    ) -> Self {
        Self::build_traced(
            scene,
            primitive,
            two_level,
            layout,
            shards,
            threads,
            &Telemetry::disabled(),
        )
    }

    /// [`Self::build`] with telemetry: the planner, each shard subtree,
    /// and the stitch record spans (`shard.plan`, `shard.subtree`,
    /// `shard.assemble`), and the summary's wall-clock seconds route
    /// through the handle's clock. A disabled handle reproduces
    /// [`Self::build`] exactly; telemetry never changes the structure.
    #[allow(
        clippy::too_many_arguments,
        reason = "`build`'s parameters plus the telemetry handle"
    )]
    pub fn build_traced(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
        two_level: bool,
        layout: &LayoutConfig,
        shards: usize,
        threads: usize,
        telemetry: &Telemetry,
    ) -> Self {
        if two_level {
            let prims = TwoLevelBvh::tlas_build_prims(scene);
            let config = TwoLevelBvh::tlas_builder_config(layout);
            let mut built = build_wide_parallel(&prims, &config, shards, threads, telemetry);
            let two =
                TwoLevelBvh::from_tlas(scene, primitive, layout, std::mem::take(&mut built.wide));
            let global = two.size_report;
            let accounting = PrimAccounting::Instances(layout.instance_bytes);
            Self::finish(
                AccelStruct::TwoLevel(two),
                built,
                global,
                layout.node_bytes,
                accounting,
            )
        } else {
            match primitive {
                BoundingPrimitive::CustomEllipsoid => {
                    let prims = MonolithicBvh::custom_build_prims(scene);
                    let config = MonolithicBvh::builder_config(layout);
                    let mut built =
                        build_wide_parallel(&prims, &config, shards, threads, telemetry);
                    let mono =
                        MonolithicBvh::assemble_custom(std::mem::take(&mut built.wide), layout);
                    let global = mono.size_report;
                    Self::finish(
                        AccelStruct::Monolithic(mono),
                        built,
                        global,
                        layout.node_bytes,
                        PrimAccounting::MonoPrims(layout.ellipsoid_prim_bytes),
                    )
                }
                BoundingPrimitive::Mesh20 | BoundingPrimitive::Mesh80 => {
                    let (prims, verts, gaussian_of) =
                        MonolithicBvh::mesh_build_prims(scene, primitive);
                    let config = MonolithicBvh::builder_config(layout);
                    let mut built =
                        build_wide_parallel(&prims, &config, shards, threads, telemetry);
                    let wide = std::mem::take(&mut built.wide);
                    let mono =
                        MonolithicBvh::assemble_mesh(primitive, verts, gaussian_of, wide, layout);
                    let global = mono.size_report;
                    Self::finish(
                        AccelStruct::Monolithic(mono),
                        built,
                        global,
                        layout.node_bytes,
                        PrimAccounting::MonoPrims(layout.triangle_bytes),
                    )
                }
                BoundingPrimitive::UnitSphere => {
                    panic!(
                        "unit-sphere primitives require the two-level (shared BLAS) organization"
                    )
                }
            }
        }
    }

    /// Classifies nodes, fills per-shard accounting, and wraps up.
    fn finish(
        accel: AccelStruct,
        built: ParallelWide,
        global: BvhSizeReport,
        node_bytes: u64,
        prim: PrimAccounting,
    ) -> Self {
        let bvh = match &accel {
            AccelStruct::TwoLevel(t) => &t.tlas,
            AccelStruct::Monolithic(m) => &m.bvh,
        };
        let (shard_nodes, dir_nodes) = classify_nodes(bvh, &built.ranges);
        let mut shards = Vec::with_capacity(built.ranges.len());
        let mut shard_prim_bytes_total = 0u64;
        for (i, range) in built.ranges.iter().enumerate() {
            let prim_bytes = match prim {
                PrimAccounting::Instances(stride) | PrimAccounting::MonoPrims(stride) => {
                    range.count as u64 * stride
                }
            };
            shard_prim_bytes_total += prim_bytes;
            let nodes = shard_nodes[i];
            let size = BvhSizeReport {
                total_bytes: nodes * node_bytes + prim_bytes,
                node_bytes: nodes * node_bytes,
                prim_bytes,
                tlas_bytes: match prim {
                    PrimAccounting::Instances(_) => nodes * node_bytes + prim_bytes,
                    PrimAccounting::MonoPrims(_) => 0,
                },
                blas_bytes: 0,
                node_count: nodes,
                prim_count: match prim {
                    PrimAccounting::Instances(_) => 0,
                    PrimAccounting::MonoPrims(_) => range.count as u64,
                },
                instance_count: match prim {
                    PrimAccounting::Instances(_) => range.count as u64,
                    PrimAccounting::MonoPrims(_) => 0,
                },
            };
            shards.push(ShardInfo {
                id: i,
                prim_start: range.start,
                prim_count: range.count,
                bounds: range.aabb,
                size,
                build_seconds: built.shard_seconds[i],
            });
        }
        // Everything not owned by a shard lands in the directory: the
        // top-level nodes above the shard subtrees, and (for two-level
        // structures) the shared BLAS every shard references.
        let blas_node_count = global.node_count - bvh.node_count() as u64;
        let directory = BvhSizeReport {
            total_bytes: dir_nodes * node_bytes + global.blas_bytes,
            node_bytes: (dir_nodes + blas_node_count) * node_bytes,
            prim_bytes: global.prim_bytes - shard_prim_bytes_total,
            tlas_bytes: match prim {
                PrimAccounting::Instances(_) => dir_nodes * node_bytes,
                PrimAccounting::MonoPrims(_) => 0,
            },
            blas_bytes: global.blas_bytes,
            node_count: dir_nodes + blas_node_count,
            prim_count: match prim {
                PrimAccounting::Instances(_) => global.prim_count,
                PrimAccounting::MonoPrims(_) => 0,
            },
            instance_count: 0,
        };
        debug_assert_eq!(
            directory.total_bytes + shards.iter().map(|s| s.size.total_bytes).sum::<u64>(),
            global.total_bytes,
            "shard + directory accounting must cover the structure exactly"
        );
        Self {
            accel,
            shards,
            directory,
            plan_seconds: built.plan_seconds,
            build_seconds: built.build_seconds,
            assemble_seconds: built.assemble_seconds,
            threads_used: built.threads_used,
        }
    }

    /// The built structure — bit-identical to the serial
    /// [`AccelStruct::build`], so it renders through the unchanged
    /// traversal and simulation paths.
    pub fn accel(&self) -> &AccelStruct {
        &self.accel
    }

    /// Consumes the wrapper, returning the structure.
    pub fn into_accel(self) -> AccelStruct {
        self.accel
    }

    /// Per-shard build outcomes, in shard order.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Number of shards actually built.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard-directory accounting (top-level nodes + shared BLAS).
    pub fn directory(&self) -> &BvhSizeReport {
        &self.directory
    }

    /// Whole-structure size report (identical to the serial build's).
    pub fn size_report(&self) -> &BvhSizeReport {
        self.accel.size_report()
    }

    /// The build primitives shard `id` owns, as a slice of the
    /// structure's primitive order. For two-level and custom-ellipsoid
    /// structures these are Gaussian ids; for mesh monolithic structures
    /// they are proxy-triangle ids.
    pub fn shard_prims(&self, id: usize) -> &[u32] {
        let bvh = match &self.accel {
            AccelStruct::TwoLevel(t) => &t.tlas,
            AccelStruct::Monolithic(m) => &m.bvh,
        };
        let s = &self.shards[id];
        &bvh.prim_order[s.prim_start..s.prim_start + s.prim_count]
    }

    /// Worker threads the parallel build used.
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    /// Serial frontier-planning seconds.
    pub fn plan_seconds(&self) -> f64 {
        self.plan_seconds
    }

    /// Wall-clock seconds of the parallel subtree fan-out.
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    /// Serial stitch + collapse seconds.
    pub fn assemble_seconds(&self) -> f64 {
        self.assemble_seconds
    }

    /// The summary embedded in experiment results.
    pub fn summary(&self) -> ShardingSummary {
        ShardingSummary {
            shard_count: self.shards.len(),
            threads: self.threads_used,
            directory: self.directory,
            shard_sizes: self.shards.iter().map(|s| s.size).collect(),
            plan_seconds: self.plan_seconds,
            build_seconds: self.build_seconds,
            assemble_seconds: self.assemble_seconds,
        }
    }
}

/// Which leaf-record accounting the structure kind uses.
#[derive(Debug, Clone, Copy)]
enum PrimAccounting {
    /// Two-level: shards own TLAS instance records.
    Instances(u64),
    /// Monolithic: shards own leaf primitive records.
    MonoPrims(u64),
}

/// Output of the parallel wide-BVH build.
struct ParallelWide {
    wide: WideBvh,
    ranges: Vec<FrontierRange>,
    shard_seconds: Vec<f64>,
    plan_seconds: f64,
    build_seconds: f64,
    assemble_seconds: f64,
    threads_used: usize,
}

/// Plans the shard frontier, fans subtree builds out over scoped worker
/// threads, and stitches — producing exactly `build_wide_bvh(prims,
/// config)`.
fn build_wide_parallel(
    prims: &[BuildPrim],
    config: &BuilderConfig,
    shards: usize,
    threads: usize,
    telemetry: &Telemetry,
) -> ParallelWide {
    let mut recorder = telemetry.recorder("shard-build");
    let plan_watch = telemetry.stopwatch();
    let mut indices: Vec<u32> = (0..prims.len() as u32).collect();
    let plan = recorder.scope("shard.plan", 0, |_| {
        plan_frontier(prims, &mut indices, shards, config)
    });
    let plan_seconds = plan_watch.seconds();
    let ranges = plan.ranges().to_vec();
    let k = ranges.len();
    let threads_used = effective_threads(threads, k);

    let build_watch = telemetry.stopwatch();
    let mut results: Vec<Option<(BinarySubtree, f64)>> = (0..k).map(|_| None).collect();
    {
        // Hand each worker its shards' disjoint index slices: shard `s`
        // goes to worker `s % threads` (the render engine's fan-out
        // policy). Results land back in shard order, so thread count can
        // only change wall-clock time.
        let mut per_worker: Vec<Vec<(usize, &mut [u32])>> =
            (0..threads_used).map(|_| Vec::new()).collect();
        let mut rest: &mut [u32] = &mut indices;
        for (i, range) in ranges.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(range.count);
            per_worker[i % threads_used].push((i, head));
            rest = tail;
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = per_worker
                .into_iter()
                .enumerate()
                .map(|(worker, mine)| {
                    scope.spawn(move || {
                        let mut recorder = telemetry.recorder(format!("shard-worker-{worker:02}"));
                        mine.into_iter()
                            .map(|(i, slice)| {
                                let watch = telemetry.stopwatch();
                                let subtree = recorder.scope("shard.subtree", i as u64, |_| {
                                    build_subtree(prims, slice, config)
                                });
                                (i, subtree, watch.seconds())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (i, subtree, seconds) in handle.join().expect("shard build worker panicked") {
                    results[i] = Some((subtree, seconds));
                }
            }
        });
    }
    let build_seconds = build_watch.seconds();

    let mut subtrees = Vec::with_capacity(k);
    let mut shard_seconds = Vec::with_capacity(k);
    for result in results {
        let (subtree, seconds) = result.expect("every shard subtree built");
        subtrees.push(subtree);
        shard_seconds.push(seconds);
    }
    let assemble_watch = telemetry.stopwatch();
    let wide = recorder.scope("shard.assemble", 0, |_| {
        assemble_wide_bvh(&plan, subtrees, indices)
    });
    let assemble_seconds = assemble_watch.seconds();

    ParallelWide {
        wide,
        ranges,
        shard_seconds,
        plan_seconds,
        build_seconds,
        assemble_seconds,
        threads_used,
    }
}

/// Counts wide nodes per shard: a node belongs to shard `s` when the
/// contiguous `prim_order` range its subtree covers lies inside `s`'s
/// range; every other node (the top of the tree above the shard
/// subtrees) is a directory node. Returns `(per-shard counts, directory
/// count)`.
fn classify_nodes(bvh: &WideBvh, ranges: &[FrontierRange]) -> (Vec<u64>, u64) {
    let mut shard_nodes = vec![0u64; ranges.len()];
    let mut dir_nodes = 0u64;
    if bvh.node_count() == 0 || ranges.is_empty() {
        return (shard_nodes, dir_nodes);
    }
    let mut coverage = vec![(u32::MAX, 0u32); bvh.node_count()];
    node_coverage(bvh, 0, &mut coverage);
    let starts: Vec<u32> = ranges.iter().map(|r| r.start as u32).collect();
    for &(lo, hi) in &coverage {
        let shard = starts.partition_point(|&s| s <= lo) - 1;
        let end = (ranges[shard].start + ranges[shard].count) as u32;
        if hi <= end {
            shard_nodes[shard] += 1;
        } else {
            dir_nodes += 1;
        }
    }
    (shard_nodes, dir_nodes)
}

/// Post-order computation of each node's `prim_order` coverage
/// `[lo, hi)`.
fn node_coverage(bvh: &WideBvh, id: u32, coverage: &mut [(u32, u32)]) -> (u32, u32) {
    let mut lo = u32::MAX;
    let mut hi = 0u32;
    for child in bvh.nodes[id as usize].children() {
        let (s, e) = match child.kind {
            ChildKind::Leaf { start, count } => (start, start + count),
            ChildKind::Node(c) => node_coverage(bvh, c, coverage),
        };
        lo = lo.min(s);
        hi = hi.max(e);
    }
    coverage[id as usize] = (lo, hi);
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_math::Vec3;
    use grtx_scene::Gaussian;

    fn grid_scene(n: usize) -> GaussianScene {
        (0..n)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new(
                        (i % 11) as f32,
                        ((i / 11) % 6) as f32,
                        (i / 66) as f32 * 1.5,
                    ),
                    0.2,
                    0.6,
                    Vec3::ONE,
                )
            })
            .collect()
    }

    #[test]
    fn accounting_sums_to_the_global_report() {
        let scene = grid_scene(120);
        for (primitive, two_level) in [
            (BoundingPrimitive::UnitSphere, true),
            (BoundingPrimitive::Mesh20, true),
            (BoundingPrimitive::Mesh20, false),
            (BoundingPrimitive::CustomEllipsoid, false),
        ] {
            let sharded =
                ShardedAccel::build(&scene, primitive, two_level, &LayoutConfig::default(), 4, 2);
            let total: u64 = sharded.directory().total_bytes
                + sharded
                    .shards()
                    .iter()
                    .map(|s| s.size.total_bytes)
                    .sum::<u64>();
            assert_eq!(
                total,
                sharded.size_report().total_bytes,
                "{primitive} two_level={two_level}: bytes must sum exactly"
            );
            let nodes: u64 = sharded.directory().node_count
                + sharded
                    .shards()
                    .iter()
                    .map(|s| s.size.node_count)
                    .sum::<u64>();
            assert_eq!(nodes, sharded.size_report().node_count);
        }
    }

    #[test]
    fn shard_prims_tile_the_prim_order() {
        let scene = grid_scene(90);
        let sharded = ShardedAccel::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
            6,
            0,
        );
        assert_eq!(sharded.shard_count(), 6);
        let mut all: Vec<u32> = (0..6)
            .flat_map(|i| sharded.shard_prims(i).to_vec())
            .collect();
        assert_eq!(all.len(), 90);
        all.sort_unstable();
        assert_eq!(all, (0..90).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_scene_builds_empty_sharded_structure() {
        let sharded = ShardedAccel::build(
            &GaussianScene::default(),
            BoundingPrimitive::UnitSphere,
            true,
            &LayoutConfig::default(),
            4,
            2,
        );
        assert_eq!(sharded.shard_count(), 0);
        // The shared BLAS exists even without instances; it is all the
        // directory holds.
        assert_eq!(
            sharded.directory().node_count,
            sharded.size_report().node_count
        );
        assert_eq!(
            sharded.directory().total_bytes,
            sharded.size_report().total_bytes
        );
    }

    #[test]
    #[should_panic(expected = "two-level")]
    fn unit_sphere_monolithic_panics() {
        let _ = ShardedAccel::build(
            &grid_scene(10),
            BoundingPrimitive::UnitSphere,
            false,
            &LayoutConfig::default(),
            2,
            1,
        );
    }
}
