//! Template bounding meshes for Gaussian proxies.
//!
//! The baseline 3DGRT encloses every Gaussian in a *stretched regular
//! icosahedron* (20 triangles); Condor et al. use a subdivided icosphere
//! (80 triangles) to reduce false-positive intersections. GRTX-SW keeps a
//! single template mesh in the shared BLAS instead of stretching one copy
//! per Gaussian.

use grtx_math::{Affine3, Vec3};

/// An indexed triangle mesh template (unit-sphere circumscribed).
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateMesh {
    /// Vertex positions on/around the unit sphere.
    pub vertices: Vec<Vec3>,
    /// Triangle vertex indices.
    pub triangles: Vec<[u32; 3]>,
}

impl TemplateMesh {
    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Returns the three corner positions of triangle `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn triangle_vertices(&self, i: usize) -> [Vec3; 3] {
        let [a, b, c] = self.triangles[i];
        [
            self.vertices[a as usize],
            self.vertices[b as usize],
            self.vertices[c as usize],
        ]
    }

    /// A regular icosahedron **circumscribing** the unit sphere: the
    /// insphere of the mesh has radius 1, so the mesh conservatively
    /// bounds the sphere (no false negatives). This is the 20-triangle
    /// proxy of the baseline.
    pub fn icosahedron() -> Self {
        let phi = (1.0 + 5.0_f32.sqrt()) / 2.0;
        // Circumradius of the unit-edge icosahedron relative to insphere:
        // scale vertices so the *insphere* radius becomes 1.
        let raw: Vec<Vec3> = [
            (-1.0, phi, 0.0),
            (1.0, phi, 0.0),
            (-1.0, -phi, 0.0),
            (1.0, -phi, 0.0),
            (0.0, -1.0, phi),
            (0.0, 1.0, phi),
            (0.0, -1.0, -phi),
            (0.0, 1.0, -phi),
            (phi, 0.0, -1.0),
            (phi, 0.0, 1.0),
            (-phi, 0.0, -1.0),
            (-phi, 0.0, 1.0),
        ]
        .iter()
        .map(|&(x, y, z)| Vec3::new(x, y, z))
        .collect();

        let triangles: Vec<[u32; 3]> = vec![
            [0, 11, 5],
            [0, 5, 1],
            [0, 1, 7],
            [0, 7, 10],
            [0, 10, 11],
            [1, 5, 9],
            [5, 11, 4],
            [11, 10, 2],
            [10, 7, 6],
            [7, 1, 8],
            [3, 9, 4],
            [3, 4, 2],
            [3, 2, 6],
            [3, 6, 8],
            [3, 8, 9],
            [4, 9, 5],
            [2, 4, 11],
            [6, 2, 10],
            [8, 6, 7],
            [9, 8, 1],
        ];

        // Current insphere radius = distance from origin to a face plane.
        let v = [raw[0], raw[11], raw[5]];
        let n = (v[1] - v[0]).cross(v[2] - v[0]).normalized();
        let insphere = n.dot(v[0]).abs();
        let scale = 1.0 / insphere;
        let vertices = raw.into_iter().map(|p| p * scale).collect();
        Self {
            vertices,
            triangles,
        }
    }

    /// An 80-triangle icosphere (one subdivision of the icosahedron),
    /// rescaled so its insphere has radius 1 — the tighter proxy of
    /// Condor et al. with ~4× fewer false positives.
    pub fn icosphere_80() -> Self {
        let base = Self::icosahedron();
        // Project base vertices onto the unit sphere, subdivide, re-project,
        // then scale out to circumscribe.
        let mut vertices: Vec<Vec3> = base.vertices.iter().map(|v| v.normalized()).collect();
        let mut triangles = Vec::with_capacity(80);
        let mut midpoint_cache = std::collections::BTreeMap::<(u32, u32), u32>::new();
        let mut midpoint = |a: u32, b: u32, vertices: &mut Vec<Vec3>| -> u32 {
            let key = if a < b { (a, b) } else { (b, a) };
            *midpoint_cache.entry(key).or_insert_with(|| {
                let m = ((vertices[a as usize] + vertices[b as usize]) * 0.5).normalized();
                vertices.push(m);
                (vertices.len() - 1) as u32
            })
        };
        for &[a, b, c] in &base.triangles {
            let ab = midpoint(a, b, &mut vertices);
            let bc = midpoint(b, c, &mut vertices);
            let ca = midpoint(c, a, &mut vertices);
            triangles.push([a, ab, ca]);
            triangles.push([b, bc, ab]);
            triangles.push([c, ca, bc]);
            triangles.push([ab, bc, ca]);
        }
        // Insphere of the subdivided mesh: min distance to any face plane.
        let mut insphere = f32::INFINITY;
        for &[a, b, c] in &triangles {
            let (va, vb, vc) = (
                vertices[a as usize],
                vertices[b as usize],
                vertices[c as usize],
            );
            let n = (vb - va).cross(vc - va).normalized();
            insphere = insphere.min(n.dot(va).abs());
        }
        let scale = 1.0 / insphere;
        let vertices = vertices.into_iter().map(|p| p * scale).collect();
        Self {
            vertices,
            triangles,
        }
    }

    /// Instantiates the template for one Gaussian: applies the instance
    /// transform to every vertex (the baseline's per-Gaussian stretched
    /// mesh used by the monolithic BVH).
    pub fn stretched(&self, instance: &Affine3) -> Self {
        Self {
            vertices: self
                .vertices
                .iter()
                .map(|&v| instance.transform_point(v))
                .collect(),
            triangles: self.triangles.clone(),
        }
    }

    /// Approximate bytes needed to store this mesh (vertices + indices),
    /// used by the BVH size accounting.
    pub fn storage_bytes(&self) -> usize {
        self.vertices.len() * 12 + self.triangles.len() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grtx_math::intersect::ray_triangle;
    use grtx_math::Ray;

    fn mesh_hit(mesh: &TemplateMesh, ray: &Ray) -> Option<f32> {
        let mut best: Option<f32> = None;
        for i in 0..mesh.triangle_count() {
            let [a, b, c] = mesh.triangle_vertices(i);
            if let Some(hit) = ray_triangle(ray, a, b, c) {
                best = Some(best.map_or(hit.t, |t: f32| t.min(hit.t)));
            }
        }
        best
    }

    #[test]
    fn icosahedron_has_20_faces_12_vertices() {
        let m = TemplateMesh::icosahedron();
        assert_eq!(m.triangle_count(), 20);
        assert_eq!(m.vertices.len(), 12);
    }

    #[test]
    fn icosphere_has_80_faces() {
        let m = TemplateMesh::icosphere_80();
        assert_eq!(m.triangle_count(), 80);
        assert_eq!(m.vertices.len(), 42);
    }

    #[test]
    fn icosahedron_circumscribes_unit_sphere() {
        // Any ray hitting the unit sphere must hit the proxy (no false
        // negatives). Fire rays at random sphere points from outside.
        let m = TemplateMesh::icosahedron();
        for i in 0..64 {
            let theta = i as f32 * 0.41;
            let phi = i as f32 * 1.13;
            let target = Vec3::new(
                theta.sin() * phi.cos(),
                theta.sin() * phi.sin(),
                theta.cos(),
            ) * 0.99;
            let origin = Vec3::new(7.0, -4.0, 3.0);
            let ray = Ray::new(origin, (target - origin).normalized());
            assert!(
                mesh_hit(&m, &ray).is_some(),
                "proxy misses sphere point {target}"
            );
        }
    }

    #[test]
    fn icosphere_is_tighter_than_icosahedron() {
        let ico = TemplateMesh::icosahedron();
        let sphere80 = TemplateMesh::icosphere_80();
        let max_r = |m: &TemplateMesh| m.vertices.iter().map(|v| v.length()).fold(0.0f32, f32::max);
        assert!(
            max_r(&sphere80) < max_r(&ico),
            "80-tri proxy should hug the sphere tighter"
        );
    }

    #[test]
    fn stretched_mesh_moves_with_instance() {
        use grtx_math::{Mat3, Vec3};
        let m = TemplateMesh::icosahedron();
        let inst = grtx_math::Affine3::new(
            Mat3::from_diagonal(Vec3::new(2.0, 1.0, 1.0)),
            Vec3::new(10.0, 0.0, 0.0),
        )
        .unwrap();
        let s = m.stretched(&inst);
        let centroid: Vec3 =
            s.vertices.iter().fold(Vec3::ZERO, |acc, &v| acc + v) / s.vertices.len() as f32;
        assert!((centroid - Vec3::new(10.0, 0.0, 0.0)).length() < 1e-3);
    }

    #[test]
    fn storage_bytes_counts_both_arrays() {
        let m = TemplateMesh::icosahedron();
        assert_eq!(m.storage_bytes(), 12 * 12 + 20 * 12);
    }
}
