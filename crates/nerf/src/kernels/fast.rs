//! The first lossy-tier backend: fused multiply-add kernels with
//! runtime-detected AVX2/FMA specializations.
//!
//! [`FastKernels`] runs the training hot paths — MLP forward/backward
//! sweeps, grid encode/scatter, compositing — with `f32::mul_add`: one
//! rounding per multiply-accumulate instead of two, and (where AVX2+FMA
//! is present) a single `vfmadd` instruction per lane instead of a
//! multiply + add pair. Every kernel is the `Fused` monomorph of the body
//! `simd` runs `Strict` (see [`crate::simd`]). That breaks the strict
//! tier's bit-identity contract, so the backend registers as
//! [`Tier::Lossy`](super::Tier::Lossy) with the tolerance declared in
//! [`FastKernels::TOLERANCE`] — enforced per-kernel by the tolerance
//! differential suite and end-to-end by the PSNR/SSIM gate.
//!
//! Two properties worth keeping in mind:
//!
//! - **Deterministic everywhere.** `f32::mul_add` is correctly rounded
//!   on every Rust target (hardware `vfmadd` and the portable libm
//!   fallback agree bit-for-bit), and the fast kernels run the identical
//!   per-point fused sequence wherever a point falls in a lane. So
//!   `fast` results are reproducible across machines, chunkings and
//!   worker counts — they are *lossy relative to the scalar reference*,
//!   not nondeterministic.
//! - **Feature detection is a speed switch, not a numerics switch.**
//!   Where AVX2+FMA is absent the same fused bodies compile to SSE2 /
//!   libm `fmaf` code paths with the same bits, so the backend runs on
//!   every host — it is merely slower without the wide FMA units.

use super::{Kernels, Tier, Tolerance};
use crate::grid::HashGrid;
use crate::math::Vec3;
use crate::mlp::{Mlp, MlpBatchWorkspace, MlpGradients, Sweeps};
use crate::render::{composite_slices_fast, RenderOutput};

/// The fused-FMA lossy backend (`"fast"`). See the module docs for the
/// contract; [`FastKernels::TOLERANCE`] for the declared error bounds.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastKernels;

impl FastKernels {
    /// The declared numeric contract: per-kernel element error within
    /// `rel·|ref| + norm·‖ref‖∞` or 64 ULPs, end-to-end PSNR within
    /// 0.05 dB and SSIM within 1e-3 of the scalar golden eval.
    pub const TOLERANCE: Tolerance = Tolerance {
        max_rel_error: 1e-4,
        max_norm_error: 1e-4,
        max_ulps: 64,
        max_psnr_drop_db: 0.05,
        max_ssim_drop: 1e-3,
    };

    /// Constructs the backend (stateless; exists for registry symmetry).
    pub fn new() -> Self {
        FastKernels
    }
}

impl Kernels for FastKernels {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn tier(&self) -> Tier {
        Tier::Lossy(Self::TOLERANCE)
    }

    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        unit_positions: &[Vec3],
        out: &mut [f32],
    ) {
        for &l in levels {
            grid.encode_level_fast(l, unit_positions, out);
        }
    }

    fn grid_scatter_level(
        &self,
        grid: &HashGrid,
        level: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        grid.scatter_level_fast(level, level_grads, unit_positions, d_out);
    }

    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        mlp.forward_batch_impl(&Sweeps::FUSED, inputs, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        mlp.backward_batch_impl(&Sweeps::FUSED, d_output, ws, grads, d_input);
    }

    fn composite_ray(
        &self,
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize) {
        composite_slices_fast(t, dt, sigma, rgb, background, cache)
    }
}
