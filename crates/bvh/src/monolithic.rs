//! Monolithic single-level BVH — the baseline organization.
//!
//! Every Gaussian contributes its own proxy geometry to one scene-wide
//! BVH: either a stretched icosahedron/icosphere mesh (20 or 80 triangles
//! per Gaussian, exploiting hardware ray–triangle units) or a single
//! custom ellipsoid primitive intersected in software (paper Fig. 5).

use crate::builder::{build_wide_bvh, BuildPrim, BuilderConfig};
use crate::layout::{AddressSpace, BvhSizeReport, LayoutConfig};
use crate::wide::WideBvh;
use crate::BoundingPrimitive;
use grtx_math::{intersect, Ray, Vec3};
use grtx_scene::{GaussianScene, TemplateMesh};

/// Primitive payloads stored in monolithic leaves.
#[derive(Debug)]
pub enum MonoPrimData {
    /// World-space proxy triangles: per-triangle corner positions and
    /// owning Gaussian.
    Triangles {
        /// Corner positions per triangle.
        verts: Vec<[Vec3; 3]>,
        /// Owning Gaussian per triangle.
        gaussian_of: Vec<u32>,
    },
    /// One software ellipsoid per Gaussian; primitive id == Gaussian id,
    /// geometry read from the scene at test time.
    Ellipsoids,
}

/// The baseline monolithic acceleration structure.
#[derive(Debug)]
pub struct MonolithicBvh {
    /// The scene-wide wide BVH (leaves index primitives).
    pub bvh: WideBvh,
    /// Which proxy the leaves hold.
    pub primitive: BoundingPrimitive,
    /// Primitive payloads.
    pub prims: MonoPrimData,
    /// Byte accounting.
    pub size_report: BvhSizeReport,
    /// Base address of the node array.
    pub node_base: u64,
    /// Base address of the primitive array.
    pub prim_base: u64,
    /// Bytes per primitive record.
    pub prim_stride: u64,
    /// Bytes per node record.
    pub node_stride: u64,
}

impl MonolithicBvh {
    /// Builds the monolithic BVH for a scene.
    ///
    /// # Panics
    ///
    /// Panics if `primitive` is [`BoundingPrimitive::UnitSphere`]
    /// (hardware spheres require instance transforms, i.e. the two-level
    /// organization).
    pub fn build(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
        layout: &LayoutConfig,
    ) -> Self {
        let builder_cfg = Self::builder_config(layout);
        match primitive {
            BoundingPrimitive::Mesh20 | BoundingPrimitive::Mesh80 => {
                let (build_prims, verts, gaussian_of) = Self::mesh_build_prims(scene, primitive);
                let bvh = build_wide_bvh(&build_prims, &builder_cfg);
                Self::assemble_mesh(primitive, verts, gaussian_of, bvh, layout)
            }
            BoundingPrimitive::CustomEllipsoid => {
                let build_prims = Self::custom_build_prims(scene);
                let bvh = build_wide_bvh(&build_prims, &builder_cfg);
                Self::assemble_custom(bvh, layout)
            }
            BoundingPrimitive::UnitSphere => {
                panic!("unit-sphere primitives require the two-level organization")
            }
        }
    }

    /// The builder configuration monolithic structures use for a layout.
    pub fn builder_config(layout: &LayoutConfig) -> BuilderConfig {
        BuilderConfig {
            max_leaf_size: layout.mono_max_leaf,
            ..Default::default()
        }
    }

    /// Build inputs for a mesh-proxy monolithic BVH: one [`BuildPrim`]
    /// per world-space proxy triangle (Gaussian-major order), plus the
    /// triangle corners and owning-Gaussian table the leaves store.
    /// Exposed so `grtx-shard` can run the sharded parallel build over
    /// exactly the same primitives.
    ///
    /// # Panics
    ///
    /// Panics if `primitive` is not [`BoundingPrimitive::Mesh20`] or
    /// [`BoundingPrimitive::Mesh80`].
    #[allow(
        clippy::type_complexity,
        reason = "the (prims, world triangles, owners) triple the mesh builders destructure"
    )]
    pub fn mesh_build_prims(
        scene: &GaussianScene,
        primitive: BoundingPrimitive,
    ) -> (Vec<BuildPrim>, Vec<[Vec3; 3]>, Vec<u32>) {
        let template = match primitive {
            BoundingPrimitive::Mesh20 => TemplateMesh::icosahedron(),
            BoundingPrimitive::Mesh80 => TemplateMesh::icosphere_80(),
            _ => panic!("mesh build prims require a mesh bounding primitive"),
        };
        let tri_per = template.triangle_count();
        let n = scene.len();
        let mut verts = Vec::with_capacity(n * tri_per);
        let mut gaussian_of = Vec::with_capacity(n * tri_per);
        let mut build_prims = Vec::with_capacity(n * tri_per);
        for (g_idx, _) in scene.world_aabbs() {
            let instance = scene.instance_transform(g_idx);
            for t in 0..tri_per {
                let corners = template.triangle_vertices(t);
                let world = [
                    instance.transform_point(corners[0]),
                    instance.transform_point(corners[1]),
                    instance.transform_point(corners[2]),
                ];
                let mut aabb = grtx_math::Aabb::EMPTY;
                for &c in &world {
                    aabb.grow_point(c);
                }
                build_prims.push(BuildPrim::from_aabb(aabb));
                verts.push(world);
                gaussian_of.push(g_idx as u32);
            }
        }
        (build_prims, verts, gaussian_of)
    }

    /// Build inputs for the custom-ellipsoid monolithic BVH: one
    /// [`BuildPrim`] per Gaussian, in Gaussian-id order.
    pub fn custom_build_prims(scene: &GaussianScene) -> Vec<BuildPrim> {
        crate::gaussian_build_prims(scene)
    }

    /// Wraps an externally built mesh-proxy BVH (e.g. a sharded parallel
    /// build over [`Self::mesh_build_prims`]) with the leaf payloads,
    /// addresses, and byte accounting.
    pub fn assemble_mesh(
        primitive: BoundingPrimitive,
        verts: Vec<[Vec3; 3]>,
        gaussian_of: Vec<u32>,
        bvh: WideBvh,
        layout: &LayoutConfig,
    ) -> Self {
        let mut space = AddressSpace::new();
        let node_base = space.alloc(bvh.node_count() as u64, layout.node_bytes);
        let prim_base = space.alloc(bvh.prim_count() as u64, layout.triangle_bytes);
        let size_report = mono_size_report(&bvh, layout.node_bytes, layout.triangle_bytes);
        Self {
            bvh,
            primitive,
            prims: MonoPrimData::Triangles { verts, gaussian_of },
            size_report,
            node_base,
            prim_base,
            prim_stride: layout.triangle_bytes,
            node_stride: layout.node_bytes,
        }
    }

    /// Wraps an externally built BVH over [`Self::custom_build_prims`]
    /// with the ellipsoid payload, addresses, and byte accounting.
    pub fn assemble_custom(bvh: WideBvh, layout: &LayoutConfig) -> Self {
        let mut space = AddressSpace::new();
        let node_base = space.alloc(bvh.node_count() as u64, layout.node_bytes);
        let prim_base = space.alloc(bvh.prim_count() as u64, layout.ellipsoid_prim_bytes);
        let size_report = mono_size_report(&bvh, layout.node_bytes, layout.ellipsoid_prim_bytes);
        Self {
            bvh,
            primitive: BoundingPrimitive::CustomEllipsoid,
            prims: MonoPrimData::Ellipsoids,
            size_report,
            node_base,
            prim_base,
            prim_stride: layout.ellipsoid_prim_bytes,
            node_stride: layout.node_bytes,
        }
    }

    /// Intersects primitive `prim_pos` (a position in the BVH's
    /// `prim_order`) with a world-space ray.
    ///
    /// Mesh proxies are backface-culled so a closed convex proxy reports
    /// exactly one hit per ray, as 3DGRT configures its traversal.
    /// Returns `(gaussian id, t_hit)`.
    pub fn intersect_prim(
        &self,
        scene: &GaussianScene,
        prim_pos: u32,
        ray: &Ray,
    ) -> Option<(u32, f32)> {
        let prim_id = self.bvh.prim_order[prim_pos as usize];
        match &self.prims {
            MonoPrimData::Triangles { verts, gaussian_of } => {
                let [a, b, c] = verts[prim_id as usize];
                // Backface culling: keep only front-facing hits
                // (direction opposing the outward normal).
                let n = (b - a).cross(c - a);
                if ray.direction.dot(n) >= 0.0 {
                    return None;
                }
                intersect::ray_triangle(ray, a, b, c).map(|h| (gaussian_of[prim_id as usize], h.t))
            }
            MonoPrimData::Ellipsoids => {
                let g = scene.gaussian(prim_id as usize);
                let instance = scene.instance_transform(prim_id as usize);
                let local = instance.inverse_transform_ray(ray);
                intersect::ray_sphere_unit(&local).map(|h| {
                    let t = if h.t_enter > 0.0 { h.t_enter } else { h.t_exit };
                    let _ = g;
                    (prim_id, t)
                })
            }
        }
    }

    /// Batched leaf test: up to 4 consecutive proxy triangles
    /// (`prim_order` positions `start..start + n`) against a world-space
    /// ray in one [`grtx_math::simd::ray_triangle_4`] kernel call. Slot `i` is
    /// bit-identical to [`Self::intersect_prim`]`(scene, start + i,
    /// ray)`, backface culling included.
    ///
    /// # Panics
    ///
    /// Panics if the leaves do not hold mesh triangles or `n > 4`.
    pub fn intersect_tri4(&self, start: u32, n: usize, ray: &Ray) -> [Option<(u32, f32)>; 4] {
        let MonoPrimData::Triangles { verts, gaussian_of } = &self.prims else {
            panic!("batched triangle tests require mesh proxies")
        };
        assert!(n <= 4, "at most 4 lanes");
        let mut tris = [[Vec3::ZERO; 3]; 4];
        let mut gaussians = [0u32; 4];
        for (i, lane) in tris.iter_mut().enumerate().take(n) {
            let prim_id = self.bvh.prim_order[start as usize + i] as usize;
            *lane = verts[prim_id];
            gaussians[i] = gaussian_of[prim_id];
        }
        let hits = crate::intersect_tri_lanes(&tris[..n], ray);
        let mut out = [None; 4];
        for i in 0..n {
            out[i] = hits[i].map(|t| (gaussians[i], t));
        }
        out
    }

    /// Byte address of node `id`.
    pub fn node_addr(&self, id: u32) -> u64 {
        self.node_base + id as u64 * self.node_stride
    }

    /// Byte address of the record at `prim_pos` in leaf order.
    pub fn prim_addr(&self, prim_pos: u32) -> u64 {
        self.prim_base + prim_pos as u64 * self.prim_stride
    }
}

fn mono_size_report(bvh: &WideBvh, node_bytes: u64, prim_bytes: u64) -> BvhSizeReport {
    let node_total = bvh.node_count() as u64 * node_bytes;
    let prim_total = bvh.prim_count() as u64 * prim_bytes;
    BvhSizeReport {
        total_bytes: node_total + prim_total,
        node_bytes: node_total,
        prim_bytes: prim_total,
        tlas_bytes: 0,
        blas_bytes: 0,
        node_count: bvh.node_count() as u64,
        prim_count: bvh.prim_count() as u64,
        instance_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_scene::Gaussian;

    fn small_scene() -> GaussianScene {
        (0..20)
            .map(|i| {
                Gaussian::isotropic(
                    Vec3::new((i % 5) as f32 * 2.0, (i / 5) as f32 * 2.0, 0.0),
                    0.2,
                    0.8,
                    Vec3::ONE,
                )
            })
            .collect()
    }

    #[test]
    fn mesh20_has_20_prims_per_gaussian() {
        let scene = small_scene();
        let m = MonolithicBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        assert_eq!(m.bvh.prim_count(), scene.len() * 20);
    }

    #[test]
    fn mesh80_is_four_times_larger_than_mesh20() {
        let scene = small_scene();
        let m20 = MonolithicBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        let m80 = MonolithicBvh::build(&scene, BoundingPrimitive::Mesh80, &LayoutConfig::default());
        assert_eq!(m80.bvh.prim_count(), 4 * m20.bvh.prim_count());
        assert!(m80.size_report.total_bytes > 3 * m20.size_report.total_bytes);
    }

    #[test]
    fn custom_has_one_prim_per_gaussian_and_smaller_bvh() {
        let scene = small_scene();
        let custom = MonolithicBvh::build(
            &scene,
            BoundingPrimitive::CustomEllipsoid,
            &LayoutConfig::default(),
        );
        let mesh =
            MonolithicBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        assert_eq!(custom.bvh.prim_count(), scene.len());
        assert!(custom.size_report.total_bytes < mesh.size_report.total_bytes / 4);
    }

    #[test]
    #[should_panic(expected = "two-level")]
    fn unit_sphere_monolithic_panics() {
        let scene = small_scene();
        let _ = MonolithicBvh::build(
            &scene,
            BoundingPrimitive::UnitSphere,
            &LayoutConfig::default(),
        );
    }

    #[test]
    fn mesh_prim_intersection_reports_one_front_hit_per_gaussian() {
        let scene = small_scene();
        let m = MonolithicBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        // Ray through Gaussian 0 at the origin, offset slightly so it
        // cannot pass exactly through a proxy-mesh edge.
        let ray = Ray::new(Vec3::new(0.05, 0.03, -5.0), Vec3::Z);
        let mut hits_per_gaussian = std::collections::BTreeMap::new();
        for pos in 0..m.bvh.prim_count() as u32 {
            if let Some((g, _t)) = m.intersect_prim(&scene, pos, &ray) {
                *hits_per_gaussian.entry(g).or_insert(0u32) += 1;
            }
        }
        assert!(
            hits_per_gaussian.contains_key(&0),
            "must hit Gaussian 0's proxy"
        );
        for (&g, &n) in &hits_per_gaussian {
            assert_eq!(n, 1, "gaussian {g} reported {n} front-face hits");
        }
    }

    #[test]
    fn ellipsoid_prim_hits_match_direct_test() {
        let scene = small_scene();
        let m = MonolithicBvh::build(
            &scene,
            BoundingPrimitive::CustomEllipsoid,
            &LayoutConfig::default(),
        );
        let ray = Ray::new(Vec3::new(0.05, 0.03, -5.0), Vec3::Z);
        let mut hit_any = false;
        for pos in 0..m.bvh.prim_count() as u32 {
            if let Some((g, t)) = m.intersect_prim(&scene, pos, &ray) {
                hit_any = true;
                // Hit point lies on the bounding ellipsoid surface, so it
                // must sit inside the (slightly padded) world AABB.
                let p = ray.at(t);
                let aabb = scene.gaussian(g as usize).world_aabb(3.0);
                let padded = grtx_math::Aabb::new(
                    aabb.min - Vec3::splat(1e-3),
                    aabb.max + Vec3::splat(1e-3),
                );
                assert!(padded.contains_point(p));
            }
        }
        assert!(hit_any);
    }

    #[test]
    fn addresses_are_disjoint_between_nodes_and_prims() {
        let scene = small_scene();
        let m = MonolithicBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        let last_node_end = m.node_addr(m.bvh.node_count() as u32 - 1) + m.node_stride;
        assert!(m.prim_addr(0) >= last_node_end);
    }

    #[test]
    fn bvh_structure_is_valid() {
        let scene = small_scene();
        let m = MonolithicBvh::build(&scene, BoundingPrimitive::Mesh20, &LayoutConfig::default());
        let aabbs: Vec<grtx_math::Aabb> = match &m.prims {
            MonoPrimData::Triangles { verts, .. } => verts
                .iter()
                .map(|tri| {
                    let mut b = grtx_math::Aabb::EMPTY;
                    for &v in tri {
                        b.grow_point(v);
                    }
                    b
                })
                .collect(),
            _ => unreachable!(),
        };
        m.bvh.validate(&aabbs, 1e-3).expect("valid");
    }
}
