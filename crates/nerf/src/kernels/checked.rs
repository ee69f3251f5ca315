//! The scalar shadow-execution backend.
//!
//! [`CheckedKernels`] (`"checked"`) wraps [`SimdKernels`] and *executes*
//! the half of the registration contract the type system cannot see (see
//! the [contract-enforcement docs](super#contract-enforcement)): **fixed
//! accumulation order**. Every kernel seam is re-run through the scalar
//! reference kernels ([`ScalarKernels`]) on a shadow copy of its output
//! and compared bit-for-bit, so a task that writes only its own range but
//! reorders additions (the one way worker count can still leak into
//! results) panics, naming the kernel and the first diverging element.
//!
//! Write *disjointness* needs no run-time check: every dispatch seam hands
//! its tasks `&mut` slices cut by `par_chunks_mut` / `split_at_mut`, so
//! overlapping or aliased writes are compile errors.
//!
//! The backend is built in (see [`registered`](super::registered)) as
//! `"checked"` and rides the CI backend × worker matrix, so the
//! accumulation-order contract is re-executed on every push instead of
//! trusted.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::{Kernels, ScalarKernels, SimdKernels};
use crate::grid::{GridLayout, HashGrid};
use crate::math::Vec3;
use crate::mlp::{Mlp, MlpBatchWorkspace, MlpGradients, RowFill};
use crate::render::RenderOutput;

/// Panics with the kernel identity and first diverging element when a
/// checked kernel's bits differ from the scalar reference — the runtime
/// teeth of the fixed-accumulation-order half of the contract.
#[expect(
    clippy::panic,
    reason = "a bit divergence from the scalar reference means the backend broke the fixed accumulation order; the checker exists to abort on exactly this"
)]
fn compare_bits(kernel: &str, checked: &[f32], reference: &[f32]) {
    assert_eq!(
        checked.len(),
        reference.len(),
        "checked backend: {kernel}: shadow shape mismatch"
    );
    for (i, (c, r)) in checked.iter().zip(reference).enumerate() {
        if c.to_bits() != r.to_bits() {
            panic!(
                "checked backend: accumulation-order violation in {kernel}: \
                 element {i} is {c:e} (0x{:08x}) but the scalar reference \
                 (fixed point order) produced {r:e} (0x{:08x})",
                c.to_bits(),
                r.to_bits()
            );
        }
    }
}

fn compare_render(
    kernel: &str,
    checked: &(RenderOutput, usize),
    reference: &(RenderOutput, usize),
) {
    let flat = |o: &RenderOutput| {
        [
            o.color.x,
            o.color.y,
            o.color.z,
            o.depth,
            o.opacity,
            o.transmittance,
        ]
    };
    compare_bits(kernel, &flat(&checked.0), &flat(&reference.0));
    assert_eq!(
        checked.1, reference.1,
        "checked backend: {kernel}: integrated sample count diverged from the scalar reference"
    );
}

/// The `"checked"` shadow-execution backend: wraps
/// [`SimdKernels`], re-runs every seam through [`ScalarKernels`] on a
/// shadow copy and panics on the first diverging bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckedKernels {
    inner: SimdKernels,
    reference: ScalarKernels,
}

impl CheckedKernels {
    /// A fresh checker (stateless: every call compares and returns).
    pub fn new() -> Self {
        CheckedKernels::default()
    }
}

impl Kernels for CheckedKernels {
    fn name(&self) -> &'static str {
        "checked"
    }

    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        unit_positions: &[Vec3],
        out: &mut [f32],
    ) {
        let task = format!(
            "grid encode levels chunk (levels {levels:?}, {} points)",
            unit_positions.len()
        );
        // The level-subset encode must leave other levels' columns
        // untouched: the shadow starts from the same pre-state so any
        // out-of-subset write diverges the comparison.
        let mut shadow = out.to_vec();
        self.inner
            .grid_encode_levels_chunk(grid, levels, unit_positions, out);
        self.reference
            .grid_encode_levels_chunk(grid, levels, unit_positions, &mut shadow);
        compare_bits(&task, out, &shadow);
    }

    fn grid_scatter_level(
        &self,
        grid: &GridLayout,
        level: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        let task = format!(
            "grid scatter level {level} ({} points)",
            unit_positions.len()
        );
        let mut shadow = level_grads.to_vec();
        self.inner
            .grid_scatter_level(grid, level, level_grads, unit_positions, d_out);
        self.reference
            .grid_scatter_level(grid, level, &mut shadow, unit_positions, d_out);
        compare_bits(&task, level_grads, &shadow);
    }

    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        // The shadow runs in the same mode, so both modes are checked.
        let mut shadow_ws = MlpBatchWorkspace::default();
        let shadow = self
            .reference
            .mlp_forward_batch(mlp, n, fill, retain, &mut shadow_ws);
        let out = self.inner.mlp_forward_batch(mlp, n, fill, retain, ws);
        compare_bits("mlp forward batch", out, shadow);
        out
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        // Scalar shadow first: the backward re-derives its upstream
        // gradient from `d_output` and only *reads* the forward
        // activations, so running it twice on the same workspace is safe.
        // Both runs start from the same gradient pre-state (gradients
        // accumulate across calls).
        let mut shadow_grads = grads.clone();
        let mut shadow_d_input = d_input.to_vec();
        self.reference.mlp_backward_batch(
            mlp,
            d_output,
            ws,
            &mut shadow_grads,
            &mut shadow_d_input,
        );
        self.inner
            .mlp_backward_batch(mlp, d_output, ws, grads, d_input);
        for (i, ((gw, gb), (sw, sb))) in grads.layers.iter().zip(&shadow_grads.layers).enumerate() {
            compare_bits(
                &format!("mlp backward batch (layer {i} weight grads)"),
                gw,
                sw,
            );
            compare_bits(
                &format!("mlp backward batch (layer {i} bias grads)"),
                gb,
                sb,
            );
        }
        compare_bits("mlp backward batch (input grads)", d_input, &shadow_d_input);
        assert_eq!(
            grads.count, shadow_grads.count,
            "checked backend: mlp backward batch: accumulation count diverged"
        );
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
        match cache {
            None => {
                let real = self
                    .inner
                    .composite_ray(t, dt, sigma, rgb, background, None);
                let shadow = self
                    .reference
                    .composite_ray(t, dt, sigma, rgb, background, None);
                compare_render("composite ray", &real, &shadow);
                real
            }
            Some((weights, trans, oma)) => {
                let task = format!("composite ray ({} samples, cached)", t.len());
                // Early termination leaves the cache tail untouched: the
                // shadow starts from the same pre-state so the comparison
                // covers exactly what the kernel wrote.
                let mut sw = weights.to_vec();
                let mut st = trans.to_vec();
                let mut so = oma.to_vec();
                let real = self.inner.composite_ray(
                    t,
                    dt,
                    sigma,
                    rgb,
                    background,
                    Some((&mut *weights, &mut *trans, &mut *oma)),
                );
                let shadow = self.reference.composite_ray(
                    t,
                    dt,
                    sigma,
                    rgb,
                    background,
                    Some((&mut sw, &mut st, &mut so)),
                );
                compare_render(&task, &real, &shadow);
                compare_bits(&format!("{task} [weights]"), weights, &sw);
                compare_bits(&format!("{task} [trans]"), trans, &st);
                compare_bits(&format!("{task} [one_minus_alpha]"), oma, &so);
                real
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{HashGrid, HashGridConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::catch_unwind;

    fn tiny_grid() -> HashGrid {
        HashGrid::new_random(
            HashGridConfig {
                levels: 3,
                log2_table_size: 9,
                base_resolution: 4,
                max_resolution: 32,
                ..HashGridConfig::default()
            },
            &mut StdRng::seed_from_u64(7),
        )
    }

    fn points(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| {
                let f = (i as f32 + 0.5) / n as f32;
                Vec3::new(f, (f * 7.3).fract(), (f * 3.1).fract())
            })
            .collect()
    }

    #[test]
    fn checked_matches_scalar_on_clean_dispatches() {
        let grid = tiny_grid();
        let backend = CheckedKernels::new();
        let pts = points(33);
        let w = grid.output_dim();
        let all: Vec<usize> = (0..grid.levels().len()).collect();
        let mut out = vec![0.0f32; pts.len() * w];
        backend.grid_encode_levels_chunk(&grid, &all, &pts, &mut out);
        let mut reference = vec![0.0f32; pts.len() * w];
        ScalarKernels.grid_encode_levels_chunk(&grid, &all, &pts, &mut reference);
        assert_eq!(out, reference);

        // A full scatter dispatch passes the per-level shadow comparison.
        let d_out = vec![0.125f32; pts.len() * w];
        let mut grads = grid.zero_grads();
        grid.par_backward_batch_with(
            &super::super::BackendHandle::new(backend),
            &pts,
            &d_out,
            &mut grads,
        );
        let mut ref_grads = grid.zero_grads();
        grid.par_backward_batch_with(&super::super::scalar(), &pts, &d_out, &mut ref_grads);
        assert_eq!(grads.values, ref_grads.values);
    }

    #[test]
    fn shadow_comparison_rejects_reordered_accumulation() {
        let err = catch_unwind(|| {
            compare_bits("demo kernel", &[1.0, 2.0 + 1e-6], &[1.0, 2.0]);
        })
        .expect_err("bit divergence must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(
            msg.contains("accumulation-order violation") && msg.contains("demo kernel"),
            "{msg}"
        );
    }
}
