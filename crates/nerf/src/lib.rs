//! NeRF training substrate for the Instant-3D (ISCA 2023) reproduction.
//!
//! This crate implements, from scratch, every numerical building block the
//! paper's training pipeline needs:
//!
//! * [`math`] — 3-vectors, axis-aligned boxes, small numeric helpers.
//! * [`fp16`] — software half-precision storage (the accelerator computes in
//!   16-bit floats; grid features are stored rounded to fp16).
//! * [`camera`] — pinhole cameras, look-at poses and per-pixel ray generation
//!   (Step ② of the paper's six-step pipeline).
//! * [`hash`] — the spatial hash of Eq. 3 (`h = (π₁x ⊕ π₂y ⊕ π₃z) mod T`).
//! * [`grid`] — the multiresolution hash-grid encoding of Instant-NGP
//!   (Step ③-①): trilinear interpolation forward and gradient scatter
//!   backward, with optional access observers for trace capture. The
//!   per-level scalar kernels (`encode_level_observed`,
//!   `scatter_level_observed`) are the one reference body: the per-point
//!   `encode_into` / `backward_into` loop them over levels, and the batched
//!   SoA dispatchers (`par_encode_batch_with`, `par_backward_batch_with`,
//!   and the engine's `par_backward_step_with`, which merges each level's
//!   scatter with its optimizer sweep) process whole point batches
//!   through a kernel backend — level-major for cache locality,
//!   level-parallel for the scatter — with bit-identical results.
//! * [`kernels`] — the **kernel-backend API**: the [`Kernels`] trait
//!   the batched engine dispatches through — five seams: level-subset grid
//!   encode (a full encode is every level), per-level scatter, MLP
//!   forward, MLP backward, compositing — and a closed set of three
//!   built-in backends, looked up by name for `TrainConfig`, the
//!   `INSTANT3D_KERNEL_BACKEND` env override and workload stats: the
//!   scalar reference ([`kernels::ScalarKernels`]), the lane-batched SIMD
//!   default ([`kernels::SimdKernels`]) and the scalar shadow executor
//!   ([`kernels::CheckedKernels`]). Every backend claims the
//!   **bit-identity contract** (additive-order-preserving, FMA-free) — see
//!   the module docs; the differential suites iterate over every
//!   built-in backend to pin it.
//! * [`simd`] — portable fixed-width SIMD lane types the lane kernels are
//!   built on.
//! * [`sh`] — spherical-harmonics direction encoding for the color head.
//! * [`mlp`] — small fully-connected networks with hand-derived backprop
//!   (Step ③-②); `forward_batch_with` / `backward_batch_with` run whole
//!   batches over retained row-major activations (no re-forward in
//!   backward).
//! * [`adam`] — the Adam optimizer used for both grids and MLPs.
//! * [`render`] — classical volume rendering (Eq. 1), forward and backward
//!   (Steps ④–⑥), over structure-of-arrays ray batches.
//! * [`metrics`] — PSNR/MSE image metrics used throughout the evaluation.
//! * [`field`] — the `RadianceField` abstraction shared by analytic
//!   ground-truth scenes and learned models.
//! * [`sampler`] — pixel-batch and along-ray point samplers (Steps ①/③).
//! * [`occupancy`] — the density occupancy grid used to skip empty space.
//! * [`image`] — minimal RGB/depth image containers.
//!
//! # Example
//!
//! ```
//! use instant3d_nerf::grid::{HashGrid, HashGridConfig};
//! use instant3d_nerf::math::Vec3;
//!
//! let grid = HashGrid::new(HashGridConfig::default());
//! let emb = grid.encode(Vec3::new(0.3, 0.4, 0.5));
//! assert_eq!(emb.len(), grid.output_dim());
//! ```

// The only `unsafe` in this crate is the runtime-guarded call of a
// kernel's `#[target_feature]` arm inside the one dispatch macro in
// `kernels/mod.rs` (stamped for the six `simd` kernels and the grid
// optimizer tail in `kernels/builtin.rs`) and the SSE2 lane intrinsics in
// `simd.rs`, each opted in with an item-level
// `#[allow(unsafe_code, reason = ..)]`;
// anything else — a raw-pointer dispatcher, say — has to justify itself.
#![deny(unsafe_code)]

pub mod activation;
pub mod adam;
pub mod camera;
pub mod encoding;
pub mod field;
pub mod fp16;
pub mod grid;
pub mod hash;
pub mod image;
pub mod kernels;
pub mod math;
pub mod metrics;
pub mod mlp;
pub mod occupancy;
pub mod render;
pub mod sampler;
pub mod sh;
pub mod simd;
pub mod ssim;

pub use camera::Camera;
pub use field::RadianceField;
pub use grid::{GridLayout, HashGrid, HashGridConfig};
pub use image::{DepthImage, RgbImage};
pub use kernels::{BackendHandle, Kernels};
pub use math::{Aabb, Ray, Vec3};
