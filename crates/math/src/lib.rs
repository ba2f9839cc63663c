#![allow(
    unsafe_code,
    reason = "the one audited unsafe boundary: SIMD intrinsics and target-feature dispatch"
)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

//! Linear algebra and geometric intersection primitives for GRTX.
//!
//! This crate is the lowest-level substrate of the GRTX reproduction. It
//! provides the vector/matrix types, rays, axis-aligned bounding boxes,
//! affine instance transforms, and the three intersection routines that the
//! paper's ray-tracing hardware model exposes as fixed-function units:
//! ray–AABB, ray–triangle, and ray–sphere.
//!
//! All arithmetic is `f32`, matching GPU shader and RT-core precision.
//!
//! # Examples
//!
//! ```
//! use grtx_math::{Ray, Vec3, intersect::ray_sphere_unit};
//!
//! let ray = Ray::new(Vec3::new(0.0, 0.0, -3.0), Vec3::new(0.0, 0.0, 1.0));
//! let hit = ray_sphere_unit(&ray).expect("ray points at the unit sphere");
//! assert!((hit.t_enter - 2.0).abs() < 1e-6);
//! ```
//!
//! # Safety
//!
//! `grtx-math` is the **only** workspace crate allowed to contain
//! `unsafe` code: every other crate pins `#![forbid(unsafe_code)]`, and
//! CI runs clippy with `-D unsafe_code`, which this crate alone allows.
//! All unsafe lives in [`simd`] and falls into exactly three shapes,
//! each annotated with a `SAFETY:` comment at the site:
//!
//! 1. **Target-feature dispatch** — calling an AVX2
//!    `#[target_feature]` kernel after
//!    `is_x86_feature_detected!` confirmed the CPU support;
//! 2. **Aligned/unaligned vector loads and stores** — raw-pointer
//!    intrinsics over `#[repr(C, align(32))]`/`align(16)` SoA arrays
//!    whose layout guarantees in-bounds, sufficiently-aligned access;
//! 3. **Baseline-feature intrinsics** — NEON value ops on `aarch64`
//!    (mandatory feature) and SSE2 on `x86-64` (baseline feature).
//!
//! `#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]`
//! keeps those obligations visible: every unsafe operation needs its
//! own `unsafe { }` block with a `SAFETY:` comment, even inside
//! `unsafe fn` bodies. Clippy's `missing_safety_doc`, extended to
//! private items by the workspace `clippy.toml`, requires a `# Safety`
//! section on every `unsafe fn`.

pub mod aabb;
pub mod intersect;
pub mod mat;
pub mod quat;
pub mod ray;
pub mod simd;
pub mod transform;
pub mod vec;

pub use aabb::Aabb;
pub use mat::{Mat3, Mat4};
pub use quat::Quat;
pub use ray::{Ray, RayInv};
pub use transform::Affine3;
pub use vec::{Vec2, Vec3, Vec4};

/// Tolerance used by the test-suite for floating point comparisons.
pub const EPS: f32 = 1e-5;
