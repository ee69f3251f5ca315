//! The two built-in numeric backends: the scalar reference kernels and
//! the lane-batched SIMD kernels.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::Kernels;
use crate::grid::{HashGrid, NullObserver};
use crate::math::Vec3;
use crate::mlp::{Mlp, MlpBatchWorkspace, MlpGradients, Sweeps};
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
/// compositing products, the four-wide blocked MLP sweeps).
/// Bit-identical to [`ScalarKernels`] by the additive-order / no-FMA
/// contract (see [`crate::simd`] and the [`super`] module docs).
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
            grid.encode_level_lanes::<Strict>(l, unit_positions, out);
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
        grid.scatter_level_lanes::<Strict>(level, level_grads, unit_positions, d_out);
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
        composite_slices_lanes::<Strict>(t, dt, sigma, rgb, background, cache)
    }
}
