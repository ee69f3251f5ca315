//! The two built-in numeric backends: the scalar reference kernels and
//! the lane-batched SIMD kernels.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::Kernels;
use crate::adam::SparseUpdate;
use crate::fp16::F16;
use crate::grid::{GridLayout, HashGrid, NullObserver};
use crate::math::Vec3;
use crate::mlp::{
    self, Blocked, GradTile, Linear, Mlp, MlpBatchWorkspace, MlpGradients, RowFill, Sweeps,
};
use crate::render::{composite_slices, composite_slices_lanes, RenderOutput};

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
        grid: &GridLayout,
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
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        mlp.forward_batch_impl(&Sweeps::SCALAR, n, fill, retain, ws)
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

/// The lane-batched SIMD backend (`"simd"`, the default): the shared
/// kernel bodies (grid encode/scatter with lane-batched corner weights and
/// addresses, lane-batched `−σδ` compositing products, the register-tiled
/// MLP sweeps), each dispatched per call to an AVX2 arm where the host has
/// AVX2.
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
        grid: &GridLayout,
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
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        mlp.forward_batch_impl(&Sweeps::SIMD, n, fill, retain, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        mlp.backward_batch_impl(&Sweeps::SIMD, d_output, ws, grads, d_input);
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

dispatched_kernels! {
    /// One level's grid encode: [`HashGrid::encode_level_lanes`].
    fn encode_level(grid: &HashGrid, l: usize, unit_positions: &[Vec3], out: &mut [f32]) {
        grid.encode_level_lanes(l, unit_positions, out)
    }

    /// One level's grid scatter: [`GridLayout::scatter_level_lanes`].
    fn scatter_level(
        grid: &GridLayout,
        l: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        grid.scatter_level_lanes(l, level_grads, unit_positions, d_out)
    }

    /// Forward rows of one layer: [`Linear::forward_rows`].
    fn forward_rows(layer: &Linear, wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        layer.forward_rows(wt, xc, prec, yc)
    }

    /// One parameter-gradient tile: [`mlp::grad_rows`].
    fn grad_rows(
        layer: &Linear,
        x: Blocked<'_>,
        dz: Blocked<'_>,
        tile: GradTile,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        mlp::grad_rows(layer, x, dz, tile, gw, gb)
    }

    /// Backward step through one layer: [`mlp::input_grad`].
    fn input_grad(
        layer: &Linear,
        dz: &mut [f32],
        pre: &[f32],
        y: &[f32],
        dn: &mut [f32],
        k: usize,
    ) {
        mlp::input_grad(layer, dz, pre, y, dn, k)
    }

    /// One ray's compositing: [`composite_slices_lanes`].
    fn composite(
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize) {
        composite_slices_lanes(t, dt, sigma, rgb, background, cache)
    }

    /// One level of the hash-grid optimizer tail: [`SparseUpdate::consume`].
    /// Not a [`Kernels`] seam — every backend's trainer runs it.
    pub(crate) fn consume_sweep(
        k: &SparseUpdate,
        p: &mut [F16],
        m: &mut [f32],
        v: &mut [f32],
        g: &mut [f32],
    ) -> bool {
        k.consume(p, m, v, g)
    }
}

impl Sweeps {
    /// The register-tiled MLP sweeps, each AVX2-dispatched per block —
    /// bit-identical to [`Sweeps::SCALAR`].
    const SIMD: Sweeps = Sweeps {
        forward_rows,
        grad_rows,
        input_grad,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::adam::{Adam, AdamConfig};
    use crate::grid::HashGridConfig;
    use crate::mlp::MlpConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Composite = fn(
        &[f32],
        &[f32],
        &[f32],
        &[Vec3],
        Vec3,
        Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize);

    type Consume = fn(&SparseUpdate, &mut [F16], &mut [f32], &mut [f32], &mut [f32]) -> bool;

    /// One arm of the seven shared lane bodies — grid encode, grid
    /// scatter, the three MLP sweeps, compositing, the grid optimizer
    /// tail — or the scalar reference's stand-in for each.
    struct LaneBodies {
        encode: fn(&HashGrid, usize, &[Vec3], &mut [f32]),
        scatter: fn(&GridLayout, usize, &mut [f32], &[Vec3], &[f32]),
        sweeps: Sweeps,
        composite: Composite,
        consume: Consume,
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    impl LaneBodies {
        /// The shared bodies compiled for the baseline ISA.
        fn portable() -> LaneBodies {
            LaneBodies {
                encode: HashGrid::encode_level_lanes,
                scatter: GridLayout::scatter_level_lanes,
                sweeps: Sweeps {
                    forward_rows: Linear::forward_rows,
                    grad_rows: mlp::grad_rows,
                    input_grad: mlp::input_grad,
                },
                composite: composite_slices_lanes,
                consume: SparseUpdate::consume,
            }
        }

        /// [`ScalarKernels`]' bodies.
        fn scalar() -> LaneBodies {
            LaneBodies {
                encode: |g, l, p, o| g.encode_level_observed(l, p, o, &mut NullObserver),
                scatter: |g, l, lg, p, d| g.scatter_level_observed(l, lg, p, d, &mut NullObserver),
                sweeps: Sweeps::SCALAR,
                composite: composite_slices,
                // `Adam::step_sparse`'s per-element update on the `!= 0.0`
                // elements, then a zeroed gradient chunk.
                consume: |k, p, m, v, g| {
                    let mut any = false;
                    for i in 0..p.len() {
                        if g[i] != 0.0 {
                            k.apply(&mut p[i], &mut m[i], &mut v[i], g[i]);
                            any = true;
                        }
                    }
                    g.fill(0.0);
                    any
                },
            }
        }

        /// The output bits of the MLP, grid, compositing and optimizer
        /// families on fixed inputs: tails in every tiled dimension, dense and hashed levels, a scatter onto non-zero
        /// gradients, a ray that terminates early, and optimizer chunks of
        /// every tail length holding fp16 boundary values and every kind
        /// of zero and non-finite gradient.
        fn bits(&self) -> [Vec<Vec<u32>>; 4] {
            let mut rng = StdRng::seed_from_u64(3);

            // MLP sweeps through the batch drivers: a 13-wide layer runs an
            // eight-wide tile and a five-wide narrow one, 7 input columns
            // run untiled, and 37 items are a full 32-item block and a
            // five-item tail.
            let (iw, ow, n) = (7, 13, 37);
            let mut net = Mlp::new(
                MlpConfig::new(iw, &[ow], ow, Activation::Relu, Activation::None),
                &mut rng,
            );
            // Non-zero biases, so every output's first accumulate rounds too.
            net.for_each_param_mut(&net.zero_grads(), |p, _| {
                p.iter_mut().for_each(|v| *v += 0.3)
            });
            let x: Vec<f32> = (0..n * iw).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let dy: Vec<f32> = (0..n * ow).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let mut ws = net.batch_workspace(n);
            let fill = |items: std::ops::Range<usize>, rows: &mut [f32]| {
                rows.copy_from_slice(&x[items.start * iw..items.end * iw]);
            };
            let out = net.forward_batch_impl(&self.sweeps, n, &fill, true, &mut ws);
            let mut mlp_bits = vec![bits(out)];
            let mut grads = net.zero_grads();
            let mut dx = vec![0.0; n * iw];
            // Twice, so the second pass accumulates onto non-zero gradients.
            for _ in 0..2 {
                net.backward_batch_impl(&self.sweeps, &dy, &mut ws, &mut grads, &mut dx);
            }
            for (gw, gb) in &grads.layers {
                mlp_bits.extend([bits(gw), bits(gb)]);
            }
            mlp_bits.push(bits(&dx));

            // Grid encode + scatter over dense and hashed levels: two full
            // lanes plus a five-point tail, scattered onto non-zero gradients.
            let grid = HashGrid::new_random(
                HashGridConfig {
                    levels: 3,
                    log2_table_size: 10,
                    base_resolution: 4,
                    max_resolution: 32,
                    init_scale: 0.3,
                    ..HashGridConfig::default()
                },
                &mut rng,
            );
            let pts: Vec<Vec3> = (0..21)
                .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let d_out: Vec<f32> = (0..pts.len() * grid.output_dim())
                .map(|_| rng.gen_range(-1.0..=1.0))
                .collect();
            let mut emb = vec![0.0; d_out.len()];
            let mut grid_grads = vec![0.5; grid.num_params()];
            for (l, level) in grid.levels().iter().enumerate() {
                (self.encode)(&grid, l, &pts, &mut emb);
                let start = level.entry_offset as usize * 2;
                let level_grads = &mut grid_grads[start..start + level.table_size as usize * 2];
                (self.scatter)(&grid, l, level_grads, &pts, &d_out);
            }
            let grid_bits = vec![bits(&emb), bits(&grid_grads)];

            // Compositing: a translucent ray through two lanes and a tail,
            // and one that terminates early inside its second lane.
            let k = 21;
            let t: Vec<f32> = (0..k).map(|i| (i as f32 + 0.5) / k as f32).collect();
            let dt = vec![1.0 / k as f32; k];
            let rgb: Vec<Vec3> = (0..k)
                .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let translucent: Vec<f32> = (0..k).map(|_| rng.gen::<f32>() * 2.0).collect();
            let terminating: Vec<f32> = (0..k).map(|i| if i < 10 { 0.5 } else { 500.0 }).collect();
            let mut composite_bits = Vec::new();
            for (sigma, integrated) in [(&translucent, k..k + 1), (&terminating, 8..16)] {
                let (mut cw, mut ct, mut co) = (vec![0.0; k], vec![0.0; k], vec![0.0; k]);
                let cache = Some((&mut cw[..], &mut ct[..], &mut co[..]));
                let bg = Vec3::new(0.2, 0.4, 0.8);
                let (o, active) = (self.composite)(&t, &dt, sigma, &rgb, bg, cache);
                assert!(integrated.contains(&active), "{active} samples integrated");
                let c = o.color;
                let scalars = [c.x, c.y, c.z, o.depth, o.opacity, o.transmittance];
                composite_bits.extend([bits(&scalars), vec![active as u32], bits(&cw)]);
                composite_bits.extend([bits(&ct), bits(&co)]);
            }

            // The optimizer tail: 45 elements are five lane groups and a
            // five-element tail; the prefixes cover every tail length.
            let specials = [
                0.0f32,
                -0.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1e-30,
            ];
            // The largest fp16 subnormal, the smallest normal, ±65504.
            let min_normal = (2.0f32).powi(-14);
            let boundaries = [
                min_normal - (2.0f32).powi(-24),
                min_normal,
                65504.0,
                -65504.0,
            ];
            let g0: Vec<f32> = (0..45)
                .map(|i| match i % 9 {
                    0..=5 => specials[i % 6],
                    _ => rng.gen_range(-1.0..=1.0),
                })
                .collect();
            let p0: Vec<F16> = (0..45)
                .map(|i| match i % 7 {
                    0..=3 => F16::from_f32(boundaries[i % 4]),
                    _ => F16::from_f32(rng.gen_range(-1.0..=1.0)),
                })
                .collect();
            let m0: Vec<f32> = (0..45).map(|_| rng.gen_range(-0.1..=0.1)).collect();
            let v0: Vec<f32> = (0..45).map(|_| rng.gen_range(0.0..=0.01)).collect();
            let mut consume_bits = Vec::new();
            for lr in [0.1, 32.0] {
                let mut opt = Adam::new(AdamConfig::for_grid(), 0);
                opt.set_lr(lr);
                let k = opt.sparse_update(3);
                for n in (0..=17).chain([45]) {
                    let (mut p, mut m) = (p0[..n].to_vec(), m0[..n].to_vec());
                    let (mut v, mut g) = (v0[..n].to_vec(), g0[..n].to_vec());
                    let any = (self.consume)(&k, &mut p, &mut m, &mut v, &mut g);
                    let p = p.iter().map(|h| u32::from(h.0)).collect();
                    consume_bits.extend([p, bits(&m), bits(&v), bits(&g)]);
                    consume_bits.push(vec![u32::from(any)]);
                }
            }
            [mlp_bits, grid_bits, composite_bits, consume_bits]
        }
    }

    /// On an AVX2 host `simd` runs only the `#[target_feature]` arms of
    /// its seven wrappers (every backend's trainer runs the optimizer
    /// tail's), `checked` shadows those same arms, and `scalar` has bodies
    /// of its own, so nothing else runs the portable bodies. All three
    /// must have the reference's bits.
    #[test]
    fn strict_kernels_have_the_same_bits_on_both_dispatch_arms() {
        let dispatched = LaneBodies {
            encode: encode_level,
            scatter: scatter_level,
            sweeps: Sweeps::SIMD,
            composite,
            consume: consume_sweep,
        }
        .bits();
        assert_eq!(dispatched, LaneBodies::portable().bits());
        assert_eq!(dispatched, LaneBodies::scalar().bits());
    }
}
