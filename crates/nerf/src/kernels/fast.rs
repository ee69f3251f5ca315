//! The lossy tier: the first lossy backend, its fused accumulate policy
//! and the crate's only fused multiply-adds.
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
//! The strict/lossy boundary is this module's boundary. `Fused` is
//! private here, so a strict kernel module that names it does not
//! compile, and the crate's `clippy.toml` disallows `f32::mul_add`
//! everywhere but `Fused`'s impl.
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
//!   The six fused wrappers are stamped by the same dispatch macro as
//!   `simd`'s six strict ones (`kernels/mod.rs`), with this tier's feature
//!   list, AVX2 plus FMA: each body is compiled twice — with those
//!   features (256-bit `vfmadd`) and portably (SSE2 / libm `fmaf`) — and
//!   dispatched per call on a once-per-process CPUID check. Both arms
//!   produce the same bits, so the backend runs on every host; it is
//!   merely slower without the wide FMA units.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::{Kernels, Tier, Tolerance};
use crate::grid::HashGrid;
use crate::math::Vec3;
use crate::mlp::{self, Linear, Mlp, MlpBatchWorkspace, MlpGradients, Sweeps};
use crate::render::{composite_slices_lanes, RenderOutput};
use crate::simd::{Accumulate, F32x8};

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
            encode_level(grid, l, unit_positions, out);
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
        scatter_level(grid, level, level_grads, unit_positions, d_out);
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
        composite(t, dt, sigma, rgb, background, cache)
    }
}

/// One correctly-rounded fused multiply-add per accumulate — the lossy
/// accumulate policy, private to this module.
struct Fused;

#[expect(
    clippy::disallowed_methods,
    reason = "the lossy tier's single-rounding accumulate, correctly rounded on every host"
)]
impl Accumulate for Fused {
    #[inline(always)]
    fn scalar(acc: f32, w: f32, x: f32) -> f32 {
        w.mul_add(x, acc)
    }

    #[inline(always)]
    fn lanes(acc: F32x8, w: F32x8, x: F32x8) -> F32x8 {
        let mut v = w.0;
        for ((lane, x), acc) in v.iter_mut().zip(&x.0).zip(&acc.0) {
            *lane = lane.mul_add(*x, *acc);
        }
        F32x8(v)
    }
}

dispatched_kernels! {
    ["avx2", "fma"]

    /// One level's grid encode: [`HashGrid::encode_level_lanes`], fused.
    fn encode_level(grid: &HashGrid, l: usize, unit_positions: &[Vec3], out: &mut [f32]) {
        grid.encode_level_lanes::<Fused>(l, unit_positions, out)
    }

    /// One level's grid scatter: [`HashGrid::scatter_level_lanes`], fused.
    fn scatter_level(
        grid: &HashGrid,
        l: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        grid.scatter_level_lanes::<Fused>(l, level_grads, unit_positions, d_out)
    }

    /// Forward rows of one layer: [`Linear::forward_rows`], fused.
    fn forward_rows(layer: &Linear, wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        layer.forward_rows::<Fused>(wt, xc, prec, yc)
    }

    /// Parameter-gradient rows: [`mlp::grad_rows`], fused.
    fn grad_rows(
        x: &[f32],
        dz: &[f32],
        iw: usize,
        ow: usize,
        o0: usize,
        gw_rows: &mut [f32],
        gb_rows: &mut [f32],
    ) {
        mlp::grad_rows::<Fused>(x, dz, iw, ow, o0, gw_rows, gb_rows)
    }

    /// Input gradient: [`mlp::input_grad`], fused.
    fn input_grad(dnc: &mut [f32], dzc: &[f32], w: &[f32], iw: usize, ow: usize) {
        mlp::input_grad::<Fused>(dnc, dzc, w, iw, ow)
    }

    /// One ray's compositing: [`composite_slices_lanes`], fused.
    fn composite(
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize) {
        composite_slices_lanes::<Fused>(t, dt, sigma, rgb, background, cache)
    }
}

impl Sweeps {
    /// The blocked MLP sweeps rounding once per accumulate, each
    /// AVX2/FMA-dispatched per chunk.
    const FUSED: Sweeps = Sweeps {
        forward_rows,
        grad_rows,
        input_grad,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::LaneBodies;
    use crate::simd::Strict;

    #[test]
    fn fused_lanes_are_correctly_rounded_per_lane() {
        // Inputs where fused and unfused rounding differ: each lane must
        // match the scalar fused accumulate (single rounding).
        let w = [
            1.0 + f32::EPSILON,
            0.3,
            -2.5,
            65504.0,
            1e-20,
            7.0,
            -0.1,
            0.5,
        ];
        let x = [
            1.0 - f32::EPSILON,
            123.456,
            0.5,
            2.0e-4,
            1e-20,
            3.0,
            -0.1,
            4.0,
        ];
        let acc = [-1.0f32, -9.87, 0.3, 0.1, 1e-30, -21.0, 0.01, -2.0];
        let v = Fused::lanes(F32x8(acc), F32x8(w), F32x8(x));
        for k in 0..8 {
            assert_eq!(v[k].to_bits(), Fused::scalar(acc[k], w[k], x[k]).to_bits());
        }
        // (1+ε)(1−ε) − 1 is exactly −ε² rounded once, and 0 rounded twice.
        assert_eq!(v[0], -(f32::EPSILON * f32::EPSILON));
        assert_eq!(Strict::lanes(F32x8(acc), F32x8(w), F32x8(x))[0], 0.0);
    }

    /// On an AVX2 host the fused kernels take their `#[target_feature]`
    /// arm and nothing else runs the portable `Fused` monomorphs; the
    /// lossy tier's cross-host determinism rests on the two agreeing.
    /// Each kernel family also differs from the scalar reference, so equal
    /// bits are not vacuous.
    #[test]
    fn fused_kernels_have_the_same_bits_on_both_dispatch_arms() {
        let dispatched = LaneBodies {
            encode: encode_level,
            scatter: scatter_level,
            sweeps: Sweeps::FUSED,
            composite,
        }
        .bits();
        assert_eq!(dispatched, LaneBodies::portable::<Fused>().bits());
        for (fused, reference) in dispatched.iter().zip(LaneBodies::scalar().bits()) {
            assert_ne!(*fused, reference);
        }
    }
}
