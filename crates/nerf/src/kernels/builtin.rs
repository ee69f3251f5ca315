//! The two built-in numeric backends: the scalar reference kernels and
//! the lane-batched SIMD kernels.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::Kernels;
use crate::grid::{HashGrid, NullObserver};
use crate::math::Vec3;
use crate::mlp::{self, Linear, Mlp, MlpBatchWorkspace, MlpGradients, Sweeps};
use crate::render::{composite_slices, composite_slices_lanes, RenderOutput};
use crate::simd::Strict;

/// The scalar reference backend (`"scalar"`): level-major scalar grid
/// kernels, the unblocked row-major MLP rows, scalar compositing. This is the
/// executable specification — every other backend's bits are pinned
/// against it by the differential suites.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernels;

impl Kernels for ScalarKernels {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        unit_positions: &[Vec3],
        out: &mut [f32],
    ) {
        for &l in levels {
            grid.encode_level_observed(l, unit_positions, out, &mut NullObserver);
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
        let obs = &mut NullObserver;
        grid.scatter_level_observed(level, level_grads, unit_positions, d_out, obs);
    }

    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        mlp.forward_batch_impl(&Sweeps::SCALAR, inputs, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        mlp.backward_batch_impl(&Sweeps::SCALAR, d_output, ws, grads, d_input);
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
        composite_slices(t, dt, sigma, rgb, background, cache)
    }
}

/// The lane-batched SIMD backend (`"simd"`, the default): the `Strict`
/// monomorphs of the shared kernel bodies (grid encode/scatter with
/// lane-batched corner weights and addresses, lane-batched `−σδ`
/// compositing products, the four-wide blocked MLP sweeps), each
/// dispatched per call to an AVX2 arm where the host has AVX2.
/// Bit-identical to [`ScalarKernels`] on either arm by the additive-order
/// / no-FMA contract (see [`crate::simd`] and the [`super`] module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdKernels;

impl Kernels for SimdKernels {
    fn name(&self) -> &'static str {
        "simd"
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
        mlp.forward_batch_impl(&Sweeps::STRICT, inputs, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        mlp.backward_batch_impl(&Sweeps::STRICT, d_output, ws, grads, d_input);
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

// AVX2 alone: without FMA enabled the strict arm cannot contain a fused
// multiply-add whatever the compiler does, so `acc + w * x` stays two
// roundings on eight lanes.
dispatched_kernels! {
    ["avx2"]

    /// One level's grid encode: [`HashGrid::encode_level_lanes`], strict.
    fn encode_level(grid: &HashGrid, l: usize, unit_positions: &[Vec3], out: &mut [f32]) {
        grid.encode_level_lanes::<Strict>(l, unit_positions, out)
    }

    /// One level's grid scatter: [`HashGrid::scatter_level_lanes`], strict.
    fn scatter_level(
        grid: &HashGrid,
        l: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        grid.scatter_level_lanes::<Strict>(l, level_grads, unit_positions, d_out)
    }

    /// Forward rows of one layer: [`Linear::forward_rows`], strict.
    fn forward_rows(layer: &Linear, wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        layer.forward_rows::<Strict>(wt, xc, prec, yc)
    }

    /// Parameter-gradient rows: [`mlp::grad_rows`], strict.
    fn grad_rows(
        x: &[f32],
        dz: &[f32],
        iw: usize,
        ow: usize,
        o0: usize,
        gw_rows: &mut [f32],
        gb_rows: &mut [f32],
    ) {
        mlp::grad_rows::<Strict>(x, dz, iw, ow, o0, gw_rows, gb_rows)
    }

    /// Input gradient: [`mlp::input_grad`], strict.
    fn input_grad(dnc: &mut [f32], dzc: &[f32], w: &[f32], iw: usize, ow: usize) {
        mlp::input_grad::<Strict>(dnc, dzc, w, iw, ow)
    }

    /// One ray's compositing: [`composite_slices_lanes`], strict.
    fn composite(
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize) {
        composite_slices_lanes::<Strict>(t, dt, sigma, rgb, background, cache)
    }
}

impl Sweeps {
    /// The blocked MLP sweeps rounding twice per accumulate, each
    /// AVX2-dispatched per chunk — bit-identical to [`Sweeps::SCALAR`].
    const STRICT: Sweeps = Sweeps {
        forward_rows,
        grad_rows,
        input_grad,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tests::LaneBodies;

    /// On an AVX2 host `simd` runs only the `#[target_feature]` arms of
    /// its six wrappers, `checked` shadows those same arms, and `scalar`
    /// has bodies of its own, so nothing else runs the portable `Strict`
    /// monomorphs. All three must have the reference's bits.
    #[test]
    fn strict_kernels_have_the_same_bits_on_both_dispatch_arms() {
        let dispatched = LaneBodies {
            encode: encode_level,
            scatter: scatter_level,
            sweeps: Sweeps::STRICT,
            composite,
        }
        .bits();
        assert_eq!(dispatched, LaneBodies::portable::<Strict>().bits());
        assert_eq!(dispatched, LaneBodies::scalar().bits());
    }
}
