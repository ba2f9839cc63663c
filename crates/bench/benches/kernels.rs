//! Criterion micro-benchmarks for the hot kernels: intersection tests
//! (scalar and the 8-wide/4-wide SIMD batches), k-buffer insertion, BVH
//! construction, node visits over a real built BVH, and cache lookups.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use grtx_bvh::builder::{build_wide_bvh, BuilderConfig};
use grtx_math::intersect::{ray_sphere_unit, ray_triangle};
use grtx_math::simd::{ray_triangle_4, slab_test_8, SoaAabbs, Tri4};
use grtx_math::{Aabb, Ray, Vec3};
use grtx_render::kbuffer::KBuffer;
use grtx_sim::Cache;

fn bench_intersections(c: &mut Criterion) {
    let ray = Ray::new(
        Vec3::new(0.1, 0.2, -3.0),
        Vec3::new(0.05, 0.02, 1.0).normalized(),
    );
    let aabb = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
    c.bench_function("ray_aabb", |b| {
        b.iter(|| black_box(&aabb).intersect_ray(black_box(&ray)))
    });
    c.bench_function("ray_sphere_unit", |b| {
        b.iter(|| ray_sphere_unit(black_box(&ray)))
    });
    let (v0, v1, v2) = (
        Vec3::new(-1.0, -1.0, 0.0),
        Vec3::new(1.0, -1.0, 0.0),
        Vec3::new(0.0, 1.5, 0.0),
    );
    c.bench_function("ray_triangle", |b| {
        b.iter(|| ray_triangle(black_box(&ray), black_box(v0), black_box(v1), black_box(v2)))
    });
}

/// The scalar-vs-SIMD pair the acceptance criterion tracks: one full
/// BVH-8 node's eight child slabs tested by the old per-child loop vs
/// one batched `slab_test_8` call (fixtures shared with the committed
/// `BENCH_kernels.json` baseline via `grtx_bench`).
fn bench_slab8(c: &mut Criterion) {
    let boxes = grtx_bench::kernel_node_boxes();
    let soa = SoaAabbs::from_aabbs(&boxes);
    let ray = grtx_bench::kernel_slab_ray();
    let arr: [Aabb; 8] = boxes.try_into().unwrap();
    c.bench_function("slab8_scalar", |b| {
        b.iter(|| {
            let ray = black_box(&ray);
            let mut hits = 0u32;
            for aabb in black_box(&arr) {
                if aabb.intersect_ray(ray).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    let inv = ray.inv();
    c.bench_function("slab8_simd", |b| {
        b.iter(|| {
            slab_test_8(black_box(&inv), black_box(&soa))
                .mask
                .count_ones()
        })
    });
}

/// Four leaf triangles: scalar loop vs one batched kernel call.
fn bench_triangle4(c: &mut Criterion) {
    let tris = grtx_bench::kernel_triangles();
    let packet = Tri4::from_triangles(&tris);
    let ray = grtx_bench::kernel_tri_ray();
    let arr: [[Vec3; 3]; 4] = tris.try_into().unwrap();
    c.bench_function("triangle4_scalar", |b| {
        b.iter(|| {
            let ray = black_box(&ray);
            let mut hits = 0u32;
            for [a, bb, cc] in black_box(&arr) {
                if ray_triangle(ray, *a, *bb, *cc).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    c.bench_function("triangle4_simd", |b| {
        b.iter(|| {
            ray_triangle_4(black_box(&ray), black_box(&packet))
                .mask
                .count_ones()
        })
    });
}

/// Sweeps every node of a real BVH (~2k nodes over 16k grid prims) with
/// the batched kernel vs the scalar per-child loop over an AoS copy
/// (the pre-SIMD layout): the in-situ hot-loop comparison, including
/// real memory traffic.
fn bench_node_visits(c: &mut Criterion) {
    let prims = grtx_bench::kernel_grid_prims(16 * 1024);
    let bvh = build_wide_bvh(&prims, &BuilderConfig::default());
    let aos = grtx_bench::aos_node_boxes(&bvh);
    let ray = grtx_bench::kernel_visit_ray();
    c.bench_function("node_visit_scalar", |b| {
        b.iter(|| {
            let ray = black_box(&ray);
            let mut hits = 0u32;
            for (len, boxes) in black_box(&aos) {
                for aabb in &boxes[..*len] {
                    if aabb.intersect_ray(ray).is_some() {
                        hits += 1;
                    }
                }
            }
            hits
        })
    });
    let inv = ray.inv();
    c.bench_function("node_visit_simd", |b| {
        b.iter(|| {
            let inv = black_box(&inv);
            let mut hits = 0u32;
            for node in black_box(&bvh.nodes) {
                hits += slab_test_8(inv, &node.bounds).mask.count_ones();
            }
            hits
        })
    });
}

fn bench_kbuffer(c: &mut Criterion) {
    c.bench_function("kbuffer_insert_k16", |b| {
        b.iter(|| {
            let mut buf = KBuffer::new(16);
            for i in 0..64u32 {
                let t = ((i * 37) % 64) as f32;
                black_box(buf.insert(t, i));
            }
            buf
        })
    });
}

fn bench_builder(c: &mut Criterion) {
    let prims = grtx_bench::kernel_grid_prims(4096);
    c.bench_function("bvh8_build_4k_prims", |b| {
        b.iter(|| build_wide_bvh(black_box(&prims), &BuilderConfig::default()))
    });
    // The pre-collapse BVH-6 baseline, kept for the width comparison.
    let cfg6 = BuilderConfig {
        wide_width: 6,
        ..BuilderConfig::default()
    };
    c.bench_function("bvh6_build_4k_prims", |b| {
        b.iter(|| build_wide_bvh(black_box(&prims), black_box(&cfg6)))
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache_access_stream", |b| {
        let mut cache = Cache::new(128 * 1024, 128, 256);
        let mut i = 0u64;
        b.iter(|| {
            i = (i * 2862933555777941757).wrapping_add(3037000493) % (1 << 22);
            cache.access(black_box(i * 128))
        })
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(500)).warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_intersections, bench_slab8, bench_triangle4, bench_node_visits, bench_kbuffer, bench_builder, bench_cache
}
criterion_main!(kernels);
