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
//!   Every fused kernel is compiled twice — under
//!   `#[target_feature(enable = "avx2,fma")]` (256-bit `vfmadd`) and
//!   portably (SSE2 / libm `fmaf`) — and dispatched per call on a
//!   once-per-process AVX2/FMA check. Both arms produce the same bits,
//!   so the backend runs on every host; it is merely slower without the
//!   wide FMA units.

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

/// Whether this host can run the AVX2+FMA arms of the fused kernels.
/// Detected once per process and cached; always `false` off x86_64.
#[inline]
fn avx2_fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Defines a fused kernel `fn $name` whose `$body` is compiled twice: as
/// a safe `#[target_feature(enable = "avx2,fma")]` fn, called when
/// [`avx2_fma_available`] holds, and portably otherwise.
macro_rules! fused_kernel {
    ($(#[$doc:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block) => {
        $(#[$doc])*
        #[allow(unsafe_code, reason = "calls the AVX2 arm behind its runtime guard")]
        fn $name($($arg: $ty),*) $(-> $ret)? {
            /// The body, compiled with AVX2 and FMA enabled.
            ///
            /// # Safety
            ///
            /// Callable only on a host with AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            fn avx2($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            if avx2_fma_available() {
                // SAFETY: `avx2_fma_available()` just confirmed that this
                // host has AVX2 and FMA, the only obligation of `avx2`.
                return unsafe { avx2($($arg),*) };
            }
            $body
        }
    };
}

fused_kernel! {
    /// One level's grid encode: [`HashGrid::encode_level_lanes`], fused.
    fn encode_level(grid: &HashGrid, l: usize, unit_positions: &[Vec3], out: &mut [f32]) {
        grid.encode_level_lanes::<Fused>(l, unit_positions, out)
    }
}

fused_kernel! {
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
}

fused_kernel! {
    /// Forward rows of one layer: [`Linear::forward_rows`], fused.
    fn forward_rows(layer: &Linear, wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        layer.forward_rows::<Fused>(wt, xc, prec, yc)
    }
}

fused_kernel! {
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
}

fused_kernel! {
    /// Input gradient: [`mlp::input_grad`], fused.
    fn input_grad(dnc: &mut [f32], dzc: &[f32], w: &[f32], iw: usize, ow: usize) {
        mlp::input_grad::<Fused>(dnc, dzc, w, iw, ow)
    }
}

fused_kernel! {
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
    use crate::activation::Activation;
    use crate::grid::HashGridConfig;
    use crate::mlp::MlpConfig;
    use crate::simd::Strict;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn feature_detection_is_stable_across_calls() {
        assert_eq!(avx2_fma_available(), avx2_fma_available());
    }

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
    /// Each kernel family is also run `Strict`, so equal bits are not
    /// vacuous.
    #[test]
    fn fused_kernels_have_the_same_bits_on_both_dispatch_arms() {
        let mut rng = StdRng::seed_from_u64(3);

        // MLP sweeps through the batch drivers. Tails in all three
        // blocked dimensions: in_dim % 4 = 3, out_dim % 4 = 1, n % 4 = 2.
        let (iw, ow, n) = (7, 5, 6);
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
        let mlp_bits = |sweeps: &Sweeps| {
            let mut ws = net.batch_workspace(n);
            let mut out = vec![bits(net.forward_batch_impl(sweeps, &x, &mut ws))];
            let mut grads = net.zero_grads();
            let mut dx = vec![0.0; n * iw];
            // Twice, so the second pass accumulates onto non-zero gradients.
            for _ in 0..2 {
                net.backward_batch_impl(sweeps, &dy, &mut ws, &mut grads, &mut dx);
            }
            for (gw, gb) in &grads.layers {
                out.extend([bits(gw), bits(gb)]);
            }
            out.push(bits(&dx));
            out
        };
        let portable = Sweeps {
            forward_rows: Linear::forward_rows::<Fused>,
            grad_rows: mlp::grad_rows::<Fused>,
            input_grad: mlp::input_grad::<Fused>,
        };
        assert_eq!(mlp_bits(&Sweeps::FUSED), mlp_bits(&portable));
        assert_ne!(mlp_bits(&Sweeps::FUSED), mlp_bits(&Sweeps::STRICT));

        // Grid encode + scatter over dense and hashed levels: two full
        // lanes plus a five-point tail, scattered onto non-zero gradients.
        let grid = HashGrid::new_random(
            HashGridConfig {
                levels: 3,
                log2_table_size: 10,
                base_resolution: 4,
                max_resolution: 32,
                store_fp16: false,
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
        type Encode = fn(&HashGrid, usize, &[Vec3], &mut [f32]);
        type Scatter = fn(&HashGrid, usize, &mut [f32], &[Vec3], &[f32]);
        let grid_bits = |encode: Encode, scatter: Scatter| {
            let mut emb = vec![0.0; d_out.len()];
            let mut grads = vec![0.5; grid.num_params()];
            for (l, level) in grid.levels().iter().enumerate() {
                encode(&grid, l, &pts, &mut emb);
                let start = level.entry_offset as usize * 2;
                let level_grads = &mut grads[start..start + level.table_size as usize * 2];
                scatter(&grid, l, level_grads, &pts, &d_out);
            }
            (bits(&emb), bits(&grads))
        };
        let dispatched = grid_bits(encode_level, scatter_level);
        assert_eq!(
            dispatched,
            grid_bits(
                |g, l, p, o| g.encode_level_lanes::<Fused>(l, p, o),
                |g, l, lg, p, d| g.scatter_level_lanes::<Fused>(l, lg, p, d),
            )
        );
        assert_ne!(
            dispatched,
            grid_bits(
                |g, l, p, o| g.encode_level_lanes::<Strict>(l, p, o),
                |g, l, lg, p, d| g.scatter_level_lanes::<Strict>(l, lg, p, d),
            )
        );

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
        type Composite = fn(
            &[f32],
            &[f32],
            &[f32],
            &[Vec3],
            Vec3,
            Option<(&mut [f32], &mut [f32], &mut [f32])>,
        ) -> (RenderOutput, usize);
        let composite_bits = |f: Composite| {
            let mut out = Vec::new();
            for (sigma, integrated) in [(&translucent, k..k + 1), (&terminating, 8..16)] {
                let (mut cw, mut ct, mut co) = (vec![0.0; k], vec![0.0; k], vec![0.0; k]);
                let cache = Some((&mut cw[..], &mut ct[..], &mut co[..]));
                let (o, active) = f(&t, &dt, sigma, &rgb, Vec3::new(0.2, 0.4, 0.8), cache);
                assert!(integrated.contains(&active), "{active} samples integrated");
                let c = o.color;
                let scalars = [c.x, c.y, c.z, o.depth, o.opacity, o.transmittance];
                out.extend([bits(&scalars), vec![active as u32], bits(&cw), bits(&ct)]);
                out.push(bits(&co));
            }
            out
        };
        let dispatched = composite_bits(composite);
        assert_eq!(dispatched, composite_bits(composite_slices_lanes::<Fused>));
        assert_ne!(dispatched, composite_bits(composite_slices_lanes::<Strict>));
    }
}
