//! Classical volume rendering (the paper's Eq. 1) — forward and backward.
//!
//! For samples `k = 1..N` along a ray with densities `σ_k`, colors `c_k`
//! and segment lengths `δ_k = t_{k+1} − t_k`:
//!
//! ```text
//! α_k = 1 − exp(−σ_k δ_k)
//! T_k = Π_{j<k} (1 − α_j)          (accumulated transmittance)
//! w_k = T_k α_k                     (compositing weight)
//! Ĉ   = Σ_k w_k c_k + T_end · bg    (Step ④, with background)
//! ```
//!
//! The backward pass implements the analytic gradients used by Step ⑥:
//!
//! ```text
//! ∂Ĉ/∂c_k = w_k
//! ∂Ĉ/∂σ_k = δ_k · ( T_k (1−α_k) c_k − S_k )
//! S_k     = Σ_{j>k} w_j c_j + T_end · bg    (suffix color)
//! ```
//!
//! Samples live in structure-of-arrays form ([`RayBatch`]). The scalar
//! pair [`composite_slices`] / [`composite_backward_slices`] is the one
//! reference body: the `scalar` kernel backend, the point-at-a-time
//! reference training steps and the field renderer
//! ([`crate::field::render_ray`]) all call it. [`integrated_prefix`] runs
//! the same transmittance recurrence on `σ` alone: the samples a ray
//! integrates before early termination, the only ones whose colour the
//! compositor reads.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::math::Vec3;
use crate::simd::F32x8;

/// Output of compositing one ray.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RenderOutput {
    /// Predicted pixel color Ĉ (Eq. 1, plus background).
    pub color: Vec3,
    /// Expected termination depth Σ w_k t_k (used for the Fig. 5 depth maps).
    pub depth: f32,
    /// Total opacity Σ w_k = 1 − T_end.
    pub opacity: f32,
    /// Transmittance remaining after the last sample.
    pub transmittance: f32,
}

/// Transmittance below which integration stops early (matches Instant-NGP's
/// 1e-4 early-ray-termination threshold).
pub const EARLY_STOP_TRANSMITTANCE: f32 = 1e-4;

/// A batch of rays in structure-of-arrays form: per-sample attributes live
/// in flat arrays, with `offsets` marking each ray's sample range. Buffers
/// are cleared and refilled each iteration (or each ray, for the
/// point-at-a-time callers), growing once to the high-water mark — zero
/// steady-state allocation.
#[derive(Debug, Clone, Default)]
pub struct RayBatch {
    /// Ray `r` owns samples `offsets[r]..offsets[r+1]`. Always non-empty;
    /// starts as `[0]`.
    offsets: Vec<usize>,
    /// Distance from the ray origin, per sample.
    pub t: Vec<f32>,
    /// Segment length δ, per sample.
    pub dt: Vec<f32>,
    /// Volume density σ, per sample (filled by the model's batched heads).
    pub sigma: Vec<f32>,
    /// Emitted RGB, per sample (filled by the model's batched heads).
    pub rgb: Vec<Vec3>,
}

impl RayBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RayBatch {
            offsets: vec![0],
            ..RayBatch::default()
        }
    }

    /// Clears all rays and samples, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.t.clear();
        self.dt.clear();
        self.sigma.clear();
        self.rgb.clear();
    }

    /// Appends a sample to the ray currently being built.
    #[inline]
    pub fn push_sample(&mut self, t: f32, dt: f32) {
        self.t.push(t);
        self.dt.push(dt);
        self.sigma.push(0.0);
        self.rgb.push(Vec3::ZERO);
    }

    /// Finishes the ray currently being built (possibly with no samples).
    #[inline]
    pub fn end_ray(&mut self) {
        self.offsets.push(self.t.len());
    }

    /// Number of completed rays.
    pub fn num_rays(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total samples across all completed rays.
    pub fn num_samples(&self) -> usize {
        self.t.len()
    }

    /// The flat sample range of ray `r`.
    #[inline]
    pub fn ray_range(&self, r: usize) -> std::ops::Range<usize> {
        self.offsets[r]..self.offsets[r + 1]
    }
}

/// Flat per-sample compositing state for a whole [`RayBatch`], retained for
/// the backward pass.
///
/// Ray `r` owns rows `batch.ray_range(r)` of the three per-sample buffers
/// and its compositing task receives them as `&mut` sub-slices, so rays
/// with disjoint rows may composite concurrently:
///
/// ```
/// use instant3d_nerf::math::Vec3;
/// use instant3d_nerf::render::{composite_slices, RayBatchCache};
///
/// // Two rays of two samples each: ray 0 owns rows 0..2, ray 1 rows 2..4.
/// let (t, dt, sigma, rgb) = ([0.5f32, 0.6], [0.1f32; 2], [1.0f32; 2], [Vec3::ZERO; 2]);
/// let mut cache = RayBatchCache::default();
/// for buf in [&mut cache.weights, &mut cache.trans, &mut cache.one_minus_alpha] {
///     buf.resize(4, 0.0);
/// }
/// let ray = |rows| composite_slices(&t, &dt, &sigma, &rgb, Vec3::ZERO, Some(rows));
/// let (w0, w1) = cache.weights.split_at_mut(2);
/// let (t0, t1) = cache.trans.split_at_mut(2);
/// let (o0, o1) = cache.one_minus_alpha.split_at_mut(2);
/// rayon::join(|| ray((w0, t0, o0)), || ray((w1, t1, o1)));
/// ```
///
/// Two concurrent rays sharing cache rows — once a run-time fixture of
/// the `checked` backend — is a type error:
///
/// ```compile_fail,E0524
/// # use instant3d_nerf::math::Vec3;
/// # use instant3d_nerf::render::{composite_slices, RayBatchCache};
/// #
/// # // Two rays of two samples each: ray 0 owns rows 0..2, ray 1 rows 2..4.
/// # let (t, dt, sigma, rgb) = ([0.5f32, 0.6], [0.1f32; 2], [1.0f32; 2], [Vec3::ZERO; 2]);
/// # let mut cache = RayBatchCache::default();
/// # for buf in [&mut cache.weights, &mut cache.trans, &mut cache.one_minus_alpha] {
/// #     buf.resize(4, 0.0);
/// # }
/// # let ray = |rows| composite_slices(&t, &dt, &sigma, &rgb, Vec3::ZERO, Some(rows));
/// let c = &mut cache;
/// rayon::join(
///     || ray((&mut c.weights[0..2], &mut c.trans[0..2], &mut c.one_minus_alpha[0..2])),
///     || ray((&mut c.weights[1..3], &mut c.trans[1..3], &mut c.one_minus_alpha[1..3])),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct RayBatchCache {
    /// Compositing weight w_k, per sample (valid up to each ray's `active`).
    pub weights: Vec<f32>,
    /// Transmittance entering each sample.
    pub trans: Vec<f32>,
    /// `1 − α_k` per sample.
    pub one_minus_alpha: Vec<f32>,
    /// Samples actually integrated per ray (early termination truncates).
    pub active: Vec<usize>,
    /// Forward output per ray.
    pub outputs: Vec<RenderOutput>,
}

impl RayBatchCache {
    /// Resizes every buffer for `batch`, keeping capacity across calls.
    pub fn reserve_for(&mut self, batch: &RayBatch) {
        let n = batch.num_samples();
        self.weights.resize(n, 0.0);
        self.trans.resize(n, 0.0);
        self.one_minus_alpha.resize(n, 0.0);
        self.active.resize(batch.num_rays(), 0);
        self.outputs
            .resize(batch.num_rays(), RenderOutput::default());
    }
}

/// The transmittance recurrence and the early-termination rule: the part
/// of compositing that reads the densities alone. [`CompositeAccum`] runs
/// it after integrating each sample, and [`integrated_prefix`] runs it on
/// its own, so the compositor and the prefix rule cannot drift apart.
struct March {
    trans: f32,
    active: usize,
}

impl March {
    fn new() -> Self {
        March {
            trans: 1.0,
            active: 0,
        }
    }

    /// Passes sample `k`; returns `true` when the ray early-terminates. A
    /// NaN transmittance compares false, so a NaN `σ` never terminates a
    /// ray.
    #[inline(always)]
    fn pass(&mut self, k: usize, one_minus_alpha: f32) -> bool {
        self.trans *= one_minus_alpha;
        self.active = k + 1;
        self.trans < EARLY_STOP_TRANSMITTANCE
    }
}

/// The number of samples [`composite_slices`] — and so every backend's
/// `composite_ray` — integrates on one ray: its prefix up to and including
/// the early-terminating sample, or the whole ray. It reads only `δ` and
/// `σ`, so a renderer can find it before evaluating any colour: the
/// compositor reads `rgb[k]` for `k` below it and for no other `k`.
pub fn integrated_prefix(dt: &[f32], sigma: &[f32]) -> usize {
    let mut march = March::new();
    for (k, (&d, &s)) in dt.iter().zip(sigma).enumerate() {
        if march.pass(k, (-s * d).exp()) {
            break;
        }
    }
    march.active
}

/// The sequential per-ray compositing recurrence, shared verbatim by every
/// compositing kernel — they only differ in how `one_minus_alpha` values
/// are *produced* (per sample vs a lane-batched `−σδ` precompute); every
/// consuming operation lives here, so the loop body cannot drift between
/// backends.
struct CompositeAccum {
    color: Vec3,
    depth: f32,
    opacity: f32,
    march: March,
}

impl CompositeAccum {
    fn new() -> Self {
        CompositeAccum {
            color: Vec3::ZERO,
            depth: 0.0,
            opacity: 0.0,
            march: March::new(),
        }
    }

    /// Integrates sample `k`; returns `true` when the ray early-terminates.
    #[inline(always)]
    fn step(
        &mut self,
        k: usize,
        one_minus_alpha: f32,
        t: &[f32],
        rgb: &[Vec3],
        cache: &mut Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> bool {
        let alpha = 1.0 - one_minus_alpha;
        let trans = self.march.trans;
        let w = trans * alpha;
        if let Some((cw, ct, co)) = cache.as_mut() {
            cw[k] = w;
            ct[k] = trans;
            co[k] = one_minus_alpha;
        }
        self.color.x += w * rgb[k].x;
        self.color.y += w * rgb[k].y;
        self.color.z += w * rgb[k].z;
        self.depth += w * t[k];
        self.opacity += w;
        self.march.pass(k, one_minus_alpha)
    }

    fn finish(mut self, background: Vec3) -> (RenderOutput, usize) {
        let March { trans, active } = self.march;
        self.color += background * trans;
        (
            RenderOutput {
                color: self.color,
                depth: self.depth,
                opacity: self.opacity,
                transmittance: trans,
            },
            active,
        )
    }
}

/// Composites one ray front-to-back (Eq. 1), given as SoA slices — the
/// scalar reference kernel. Returns the ray's output and the number of
/// samples integrated before early termination; the optional cache slices
/// `(weights, trans, one_minus_alpha)` (same length as the sample slices)
/// receive that many rows of per-sample state for
/// [`composite_backward_slices`]. Pass `None` when only rendering.
pub fn composite_slices(
    t: &[f32],
    dt: &[f32],
    sigma: &[f32],
    rgb: &[Vec3],
    background: Vec3,
    mut cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
) -> (RenderOutput, usize) {
    let mut acc = CompositeAccum::new();
    for k in 0..t.len() {
        // Rejects a negative density; a NaN composites (and never
        // terminates the ray) in every build profile.
        debug_assert!(
            sigma[k] >= 0.0 || sigma[k].is_nan(),
            "density must be non-negative"
        );
        let one_minus_alpha = (-sigma[k] * dt[k]).exp();
        if acc.step(k, one_minus_alpha, t, rgb, &mut cache) {
            break;
        }
    }
    acc.finish(background)
}

/// The lane-batched compositing kernel: precomputes the per-sample
/// `(−σ·δ)` products in lanes of 8 (the `exp` stays scalar per lane —
/// vector exp approximations would break bit-equality) and keeps the
/// transmittance recurrence, cache writes and early termination
/// sequential, so outputs, cache contents and the integrated sample count
/// are bit-identical to [`composite_slices`].
#[inline(always)]
pub(crate) fn composite_slices_lanes(
    t: &[f32],
    dt: &[f32],
    sigma: &[f32],
    rgb: &[Vec3],
    background: Vec3,
    mut cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
) -> (RenderOutput, usize) {
    const LANES: usize = F32x8::LANES;
    let n = t.len();
    let mut acc = CompositeAccum::new();
    let mut oma = [0.0f32; LANES];
    'rays: for c0 in (0..n).step_by(LANES) {
        let m = (n - c0).min(LANES);
        if m == LANES {
            let mut negs = [0.0f32; LANES];
            for (k, s) in sigma[c0..c0 + LANES].iter().enumerate() {
                negs[k] = -s;
            }
            let prod = F32x8(negs) * F32x8::from_slice(&dt[c0..]);
            for (k, o) in oma.iter_mut().enumerate() {
                *o = prod[k].exp();
            }
        } else {
            for k in 0..m {
                oma[k] = (-sigma[c0 + k] * dt[c0 + k]).exp();
            }
        }
        for (k, &one_minus_alpha) in oma.iter().enumerate().take(m) {
            let kk = c0 + k;
            debug_assert!(
                sigma[kk] >= 0.0 || sigma[kk].is_nan(),
                "density must be non-negative"
            );
            if acc.step(kk, one_minus_alpha, t, rgb, &mut cache) {
                break 'rays;
            }
        }
    }
    acc.finish(background)
}

/// Backward pass of [`composite_slices`] for the color output: given
/// `d_color` = dL/dĈ, writes dL/dσ and dL/dc for every sample into the SoA
/// gradient slices. Samples past `active` (the early-termination point)
/// receive zero gradient, exactly as in Instant-NGP's CUDA kernels.
#[allow(
    clippy::too_many_arguments,
    reason = "one SoA slice per per-sample quantity"
)]
pub fn composite_backward_slices(
    dt: &[f32],
    rgb: &[Vec3],
    background: Vec3,
    weights: &[f32],
    trans: &[f32],
    one_minus_alpha: &[f32],
    active: usize,
    out: &RenderOutput,
    d_color: Vec3,
    d_sigma: &mut [f32],
    d_rgb: &mut [Vec3],
) {
    debug_assert!(active <= dt.len());
    d_sigma.fill(0.0);
    d_rgb.fill(Vec3::ZERO);
    // Suffix color S_k = Σ_{j>k} w_j c_j + T_end·bg, built in reverse.
    let mut suffix = background * out.transmittance;
    for k in (0..active).rev() {
        let w = weights[k];
        d_rgb[k] = d_color * w;
        // ∂Ĉ/∂σ_k = δ_k (T_k (1−α_k) c_k − S_k); chain with dL/dĈ.
        let dc_dsigma = (rgb[k] * (trans[k] * one_minus_alpha[k]) - suffix) * dt[k];
        d_sigma[k] = d_color.dot(dc_dsigma);
        suffix += rgb[k] * w;
    }
}

/// Squared-error loss between a predicted and ground-truth pixel (Eq. 2
/// contribution of one ray) and its gradient dL/dĈ.
#[inline]
pub fn pixel_loss(pred: Vec3, truth: Vec3) -> (f32, Vec3) {
    let diff = pred - truth;
    (diff.norm_squared(), diff * 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One ray of `n` uniform samples over `[0, 1]`.
    fn uniform_ray(n: usize, sigma: f32, rgb: Vec3) -> RayBatch {
        let dt = 1.0 / n as f32;
        let mut ray = RayBatch::new();
        for i in 0..n {
            ray.push_sample((i as f32 + 0.5) * dt, dt);
        }
        ray.sigma.fill(sigma);
        ray.rgb.fill(rgb);
        ray.end_ray();
        ray
    }

    fn integrate(ray: &RayBatch, background: Vec3) -> RenderOutput {
        composite_slices(&ray.t, &ray.dt, &ray.sigma, &ray.rgb, background, None).0
    }

    /// Forward pass with the cache filled (`outputs[0]`, `active[0]`).
    fn composite_cached(ray: &RayBatch, background: Vec3) -> RayBatchCache {
        let mut cache = RayBatchCache::default();
        cache.reserve_for(ray);
        let rows = (
            &mut cache.weights[..],
            &mut cache.trans[..],
            &mut cache.one_minus_alpha[..],
        );
        let (out, active) = composite_slices(
            &ray.t,
            &ray.dt,
            &ray.sigma,
            &ray.rgb,
            background,
            Some(rows),
        );
        cache.outputs[0] = out;
        cache.active[0] = active;
        cache
    }

    /// Backward pass of [`composite_cached`]: `(dL/dσ, dL/dc)` per sample.
    fn backward(
        ray: &RayBatch,
        background: Vec3,
        cache: &RayBatchCache,
        d_color: Vec3,
    ) -> (Vec<f32>, Vec<Vec3>) {
        let n = ray.num_samples();
        let (mut d_sigma, mut d_rgb) = (vec![0.0; n], vec![Vec3::ZERO; n]);
        composite_backward_slices(
            &ray.dt,
            &ray.rgb,
            background,
            &cache.weights,
            &cache.trans,
            &cache.one_minus_alpha,
            cache.active[0],
            &cache.outputs[0],
            d_color,
            &mut d_sigma,
            &mut d_rgb,
        );
        (d_sigma, d_rgb)
    }

    #[test]
    fn empty_ray_returns_background() {
        let bg = Vec3::new(0.2, 0.4, 0.6);
        let out = integrate(&uniform_ray(0, 1.0, Vec3::ONE), bg);
        assert_eq!(out.color, bg);
        assert_eq!(out.opacity, 0.0);
        assert_eq!(out.transmittance, 1.0);
    }

    #[test]
    fn zero_density_is_transparent() {
        let bg = Vec3::new(1.0, 0.0, 0.0);
        let out = integrate(&uniform_ray(16, 0.0, Vec3::ONE), bg);
        assert_eq!(out.color, bg);
        assert_eq!(out.opacity, 0.0);
    }

    #[test]
    fn opaque_wall_returns_surface_color() {
        let bg = Vec3::ZERO;
        let c = Vec3::new(0.3, 0.6, 0.9);
        let ray = uniform_ray(64, 1e4, c);
        let out = integrate(&ray, bg);
        assert!((out.color - c).norm() < 1e-3);
        assert!(out.opacity > 0.999);
        // Depth concentrates at the first sample for an opaque medium.
        assert!(out.depth < ray.t[1]);
    }

    #[test]
    fn analytic_homogeneous_medium() {
        // For constant σ over [0,1]: opacity = 1 − e^{−σ}.
        let sigma = 2.0f32;
        let out = integrate(&uniform_ray(1000, sigma, Vec3::ONE), Vec3::ZERO);
        let expect = 1.0 - (-sigma).exp();
        assert!(
            (out.opacity - expect).abs() < 1e-3,
            "opacity {} vs analytic {expect}",
            out.opacity
        );
    }

    #[test]
    fn weights_sum_to_opacity_and_match_transmittance() {
        let cache = composite_cached(&uniform_ray(32, 3.0, Vec3::ONE), Vec3::ZERO);
        let out = cache.outputs[0];
        let wsum: f32 = cache.weights[..cache.active[0]].iter().sum();
        assert!((wsum - out.opacity).abs() < 1e-5);
        assert!((out.opacity + out.transmittance - 1.0).abs() < 1e-5);
    }

    #[test]
    fn early_termination_truncates_cache() {
        let cache = composite_cached(&uniform_ray(1000, 1e4, Vec3::ONE), Vec3::ZERO);
        assert!(
            cache.active[0] < 20,
            "opaque ray should terminate quickly, used {} samples",
            cache.active[0]
        );
    }

    #[test]
    fn backward_color_gradient_is_weight() {
        let ray = uniform_ray(8, 1.5, Vec3::splat(0.5));
        let cache = composite_cached(&ray, Vec3::ZERO);
        let d_color = Vec3::new(1.0, 0.0, 0.0);
        let (_, d_rgb) = backward(&ray, Vec3::ZERO, &cache, d_color);
        let active = cache.active[0];
        for (d, w) in d_rgb.iter().zip(&cache.weights[..active]) {
            assert!((d.x - w).abs() < 1e-6);
            assert_eq!(d.y, 0.0);
        }
    }

    #[test]
    fn backward_sigma_matches_finite_difference() {
        let mut ray = uniform_ray(12, 2.0, Vec3::ZERO);
        // Give each sample a distinct color so the gradient is nontrivial.
        for i in 0..ray.num_samples() {
            ray.rgb[i] = Vec3::new(i as f32 / 12.0, 0.5, 1.0 - i as f32 / 12.0);
            ray.sigma[i] = 0.5 + 0.2 * i as f32;
        }
        let bg = Vec3::new(0.1, 0.2, 0.3);
        let d_color = Vec3::new(0.7, -0.4, 0.2);
        let cache = composite_cached(&ray, bg);
        let (d_sigma, _) = backward(&ray, bg, &cache, d_color);

        let loss = |r: &RayBatch| d_color.dot(integrate(r, bg).color);
        let eps = 1e-3;
        for (k, analytic) in d_sigma.iter().enumerate() {
            let mut rp = ray.clone();
            rp.sigma[k] += eps;
            let mut rm = ray.clone();
            rm.sigma[k] -= eps;
            let fd = (loss(&rp) - loss(&rm)) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 1e-3,
                "sample {k}: fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn backward_includes_background_through_sigma() {
        // A single translucent sample in front of a bright background: more
        // density blocks background light, so dĈ/dσ must be negative when
        // the sample is darker than the background.
        let mut ray = RayBatch::new();
        ray.push_sample(0.5, 0.5);
        ray.sigma[0] = 1.0;
        ray.end_ray();
        let bg = Vec3::ONE;
        let cache = composite_cached(&ray, bg);
        let (d_sigma, _) = backward(&ray, bg, &cache, Vec3::ONE);
        assert!(d_sigma[0] < 0.0);
    }

    #[test]
    fn pixel_loss_gradient() {
        let pred = Vec3::new(0.5, 0.5, 0.5);
        let truth = Vec3::new(0.25, 0.75, 0.5);
        let (l, g) = pixel_loss(pred, truth);
        assert!((l - (0.0625 + 0.0625)).abs() < 1e-6);
        assert_eq!(g, Vec3::new(0.5, -0.5, 0.0));
        let (l0, g0) = pixel_loss(truth, truth);
        assert_eq!(l0, 0.0);
        assert_eq!(g0, Vec3::ZERO);
    }
}
