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

use crate::math::Vec3;
use crate::simd::{Accumulate, F32x8, Strict};

/// One integration sample along a ray: position parameters and the queried
/// features (density σ and color c) from Step ③.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaySample {
    /// Distance from the ray origin.
    pub t: f32,
    /// Segment length δ to the next sample.
    pub dt: f32,
    /// Volume density σ ≥ 0.
    pub sigma: f32,
    /// Emitted RGB color.
    pub rgb: Vec3,
}

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

/// Per-sample state retained for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct RenderCache {
    /// Compositing weight w_k per sample.
    pub weights: Vec<f32>,
    /// Transmittance T_k entering each sample.
    pub trans: Vec<f32>,
    /// 1 − α_k per sample.
    pub one_minus_alpha: Vec<f32>,
}

/// Transmittance below which integration stops early (matches Instant-NGP's
/// 1e-4 early-ray-termination threshold).
pub const EARLY_STOP_TRANSMITTANCE: f32 = 1e-4;

/// Composites samples front-to-back (Eq. 1). The cache enables
/// [`composite_backward`]; pass `None` when only rendering.
pub fn composite(
    samples: &[RaySample],
    background: Vec3,
    mut cache: Option<&mut RenderCache>,
) -> RenderOutput {
    if let Some(c) = cache.as_deref_mut() {
        c.weights.clear();
        c.trans.clear();
        c.one_minus_alpha.clear();
    }
    let mut color = Vec3::ZERO;
    let mut depth = 0.0f32;
    let mut opacity = 0.0f32;
    let mut trans = 1.0f32;
    for s in samples {
        debug_assert!(s.sigma >= 0.0, "density must be non-negative");
        let one_minus_alpha = (-s.sigma * s.dt).exp();
        let alpha = 1.0 - one_minus_alpha;
        let w = trans * alpha;
        if let Some(c) = cache.as_deref_mut() {
            c.weights.push(w);
            c.trans.push(trans);
            c.one_minus_alpha.push(one_minus_alpha);
        }
        color += s.rgb * w;
        depth += s.t * w;
        opacity += w;
        trans *= one_minus_alpha;
        if trans < EARLY_STOP_TRANSMITTANCE {
            // Early termination: remaining samples contribute ~nothing.
            // The cache stays truncated; backward treats them as zero-weight.
            break;
        }
    }
    color += background * trans;
    RenderOutput {
        color,
        depth,
        opacity,
        transmittance: trans,
    }
}

/// Gradients of a scalar loss w.r.t. each sample's density and color.
#[derive(Debug, Clone, Default)]
pub struct SampleGradients {
    /// dL/dσ_k per sample (zero for early-terminated samples).
    pub d_sigma: Vec<f32>,
    /// dL/dc_k per sample.
    pub d_rgb: Vec<Vec3>,
}

/// Backward pass of [`composite`] for the color output.
///
/// `d_color` is dL/dĈ; returns dL/dσ_k and dL/dc_k for every sample
/// (samples past the early-termination point receive zero gradient, exactly
/// as in Instant-NGP's CUDA kernels).
///
/// # Panics
///
/// Panics if the cache does not correspond to `samples` (it must come from
/// a [`composite`] call on the same sample list).
pub fn composite_backward(
    samples: &[RaySample],
    background: Vec3,
    cache: &RenderCache,
    out: &RenderOutput,
    d_color: Vec3,
) -> SampleGradients {
    let n_active = cache.weights.len();
    assert!(
        n_active <= samples.len(),
        "cache has more samples than the ray"
    );
    let mut grads = SampleGradients {
        d_sigma: vec![0.0; samples.len()],
        d_rgb: vec![Vec3::ZERO; samples.len()],
    };
    // Suffix color S_k = Σ_{j>k} w_j c_j + T_end·bg, built in reverse.
    let mut suffix = background * out.transmittance;
    for k in (0..n_active).rev() {
        let s = &samples[k];
        let w = cache.weights[k];
        grads.d_rgb[k] = d_color * w;
        // ∂Ĉ/∂σ_k = δ_k (T_k (1−α_k) c_k − S_k); chain with dL/dĈ.
        let dc_dsigma = (s.rgb * (cache.trans[k] * cache.one_minus_alpha[k]) - suffix) * s.dt;
        grads.d_sigma[k] = d_color.dot(dc_dsigma);
        suffix += s.rgb * w;
    }
    grads
}

// ---------------------------------------------------------------------------
// Batched (SoA) compositing
// ---------------------------------------------------------------------------

/// A batch of rays in structure-of-arrays form: per-sample attributes live
/// in flat arrays, with `offsets` marking each ray's sample range. This is
/// the zero-allocation replacement for per-ray `Vec<RaySample>` lists in
/// the batched training engine — buffers are cleared and refilled each
/// iteration, growing once to the high-water mark.
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
/// the backward pass (the SoA counterpart of [`RenderCache`]).
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
///
/// and so is keeping a ray's rows across a batch dispatch, which borrows
/// the whole cache exclusively:
///
/// ```compile_fail,E0499
/// # use instant3d_nerf::math::Vec3;
/// # use instant3d_nerf::render::{composite_batch, RayBatch, RayBatchCache};
/// # let batch = RayBatch::new();
/// # let mut cache = RayBatchCache::default();
/// # cache.weights.resize(2, 0.0);
/// let kept = &mut cache.weights[0..2];
/// composite_batch(&batch, Vec3::ZERO, &mut cache);
/// kept[0] = 1.0;
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

/// The sequential per-ray compositing recurrence, shared verbatim by every
/// compositing kernel — they only differ in how `one_minus_alpha` values
/// are *produced* (per sample vs a lane-batched `−σδ` precompute) and in
/// how the color/depth accumulates are rounded (see [`crate::simd`]);
/// every consuming operation lives here, so the loop body cannot drift
/// between backends.
struct CompositeAccum {
    color: Vec3,
    depth: f32,
    opacity: f32,
    trans: f32,
    active: usize,
}

impl CompositeAccum {
    fn new() -> Self {
        CompositeAccum {
            color: Vec3::ZERO,
            depth: 0.0,
            opacity: 0.0,
            trans: 1.0,
            active: 0,
        }
    }

    /// Integrates sample `k`; returns `true` when the ray early-terminates.
    /// Weight, cache and early-termination logic are the same for every
    /// policy; `A` only rounds the color/depth accumulates.
    #[inline(always)]
    fn step<A: Accumulate>(
        &mut self,
        k: usize,
        one_minus_alpha: f32,
        t: &[f32],
        rgb: &[Vec3],
        cache: &mut Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> bool {
        let alpha = 1.0 - one_minus_alpha;
        let w = self.trans * alpha;
        if let Some((cw, ct, co)) = cache.as_mut() {
            cw[k] = w;
            ct[k] = self.trans;
            co[k] = one_minus_alpha;
        }
        self.color.x = A::scalar(self.color.x, w, rgb[k].x);
        self.color.y = A::scalar(self.color.y, w, rgb[k].y);
        self.color.z = A::scalar(self.color.z, w, rgb[k].z);
        self.depth = A::scalar(self.depth, w, t[k]);
        self.opacity += w;
        self.trans *= one_minus_alpha;
        self.active = k + 1;
        self.trans < EARLY_STOP_TRANSMITTANCE
    }

    fn finish(mut self, background: Vec3) -> (RenderOutput, usize) {
        self.color += background * self.trans;
        (
            RenderOutput {
                color: self.color,
                depth: self.depth,
                opacity: self.opacity,
                transmittance: self.trans,
            },
            self.active,
        )
    }
}

/// Composites one ray given as SoA slices; cache slices (same length as the
/// sample slices) receive per-sample state and the integrated sample count.
/// Arithmetic is identical to [`composite`] — outputs agree bit-for-bit.
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
        debug_assert!(sigma[k] >= 0.0, "density must be non-negative");
        let one_minus_alpha = (-sigma[k] * dt[k]).exp();
        if acc.step::<Strict>(k, one_minus_alpha, t, rgb, &mut cache) {
            break;
        }
    }
    acc.finish(background)
}

/// The lane-batched compositing kernel: precomputes the per-sample
/// `(−σ·δ)` products in lanes of 8 (the `exp` stays scalar per lane —
/// vector exp approximations would break bit-equality) and keeps the
/// transmittance recurrence, cache writes and early termination
/// sequential. The one body behind both lane backends: with `Strict`
/// accumulation (the `simd` backend) outputs, cache contents and the
/// integrated sample count are bit-identical to [`composite_slices`];
/// with `Fused` ([`composite_slices_fast`]) the color/depth accumulates
/// round once instead of twice.
#[inline(always)]
pub(crate) fn composite_slices_lanes<A: Accumulate>(
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
            debug_assert!(sigma[kk] >= 0.0, "density must be non-negative");
            if acc.step::<A>(kk, one_minus_alpha, t, rgb, &mut cache) {
                break 'rays;
            }
        }
    }
    acc.finish(background)
}

// CONTRACT: lossy-tier — fused compositing backing `FastKernels`.
// CALLER: `composite_slices_fast` gates this behind
// `simd::avx2_fma_available()` runtime detection.
// SAFETY: only safe slice code inside; the sole obligation is the
// AVX2+FMA target features, established by the caller's guard.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
unsafe fn composite_slices_fast_avx2(
    t: &[f32],
    dt: &[f32],
    sigma: &[f32],
    rgb: &[Vec3],
    background: Vec3,
    cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
) -> (RenderOutput, usize) {
    composite_slices_lanes::<crate::simd::Fused>(t, dt, sigma, rgb, background, cache)
}

/// The fused (lossy-tier) compositing kernel: outputs differ from the
/// strict kernels by bounded rounding (one rounding per color/depth
/// accumulate instead of two). The fused accumulate is correctly rounded
/// on every path, so results are identical whether the AVX2/FMA
/// specialization or the portable fallback runs — feature detection only
/// picks the faster encoding.
// CONTRACT: lossy-tier — fused compositing backing `FastKernels`.
#[allow(unsafe_code)]
pub fn composite_slices_fast(
    t: &[f32],
    dt: &[f32],
    sigma: &[f32],
    rgb: &[Vec3],
    background: Vec3,
    cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
) -> (RenderOutput, usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx2_fma_available() {
        // SAFETY: AVX2+FMA presence was just verified at runtime.
        return unsafe { composite_slices_fast_avx2(t, dt, sigma, rgb, background, cache) };
    }
    composite_slices_lanes::<crate::simd::Fused>(t, dt, sigma, rgb, background, cache)
}

/// Backward pass of [`composite_slices`]: writes dL/dσ and dL/dc for every
/// sample into the SoA gradient slices (zeros past `active`, exactly like
/// [`composite_backward`]).
#[allow(clippy::too_many_arguments)]
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
    let mut suffix = background * out.transmittance;
    for k in (0..active).rev() {
        let w = weights[k];
        d_rgb[k] = d_color * w;
        let dc_dsigma = (rgb[k] * (trans[k] * one_minus_alpha[k]) - suffix) * dt[k];
        d_sigma[k] = d_color.dot(dc_dsigma);
        suffix += rgb[k] * w;
    }
}

/// Composites every ray of `batch` front-to-back, filling `cache`.
pub fn composite_batch(batch: &RayBatch, background: Vec3, cache: &mut RayBatchCache) {
    cache.reserve_for(batch);
    for r in 0..batch.num_rays() {
        let range = batch.ray_range(r);
        let (out, active) = composite_slices(
            &batch.t[range.clone()],
            &batch.dt[range.clone()],
            &batch.sigma[range.clone()],
            &batch.rgb[range.clone()],
            background,
            Some((
                &mut cache.weights[range.clone()],
                &mut cache.trans[range.clone()],
                &mut cache.one_minus_alpha[range],
            )),
        );
        cache.outputs[r] = out;
        cache.active[r] = active;
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

    fn uniform_samples(n: usize, sigma: f32, rgb: Vec3) -> Vec<RaySample> {
        let dt = 1.0 / n as f32;
        (0..n)
            .map(|i| RaySample {
                t: (i as f32 + 0.5) * dt,
                dt,
                sigma,
                rgb,
            })
            .collect()
    }

    #[test]
    fn empty_ray_returns_background() {
        let bg = Vec3::new(0.2, 0.4, 0.6);
        let out = composite(&[], bg, None);
        assert_eq!(out.color, bg);
        assert_eq!(out.opacity, 0.0);
        assert_eq!(out.transmittance, 1.0);
    }

    #[test]
    fn zero_density_is_transparent() {
        let bg = Vec3::new(1.0, 0.0, 0.0);
        let samples = uniform_samples(16, 0.0, Vec3::ONE);
        let out = composite(&samples, bg, None);
        assert_eq!(out.color, bg);
        assert_eq!(out.opacity, 0.0);
    }

    #[test]
    fn opaque_wall_returns_surface_color() {
        let bg = Vec3::ZERO;
        let c = Vec3::new(0.3, 0.6, 0.9);
        let samples = uniform_samples(64, 1e4, c);
        let out = composite(&samples, bg, None);
        assert!((out.color - c).norm() < 1e-3);
        assert!(out.opacity > 0.999);
        // Depth concentrates at the first sample for an opaque medium.
        assert!(out.depth < samples[1].t);
    }

    #[test]
    fn analytic_homogeneous_medium() {
        // For constant σ over [0,1]: opacity = 1 − e^{−σ}.
        let sigma = 2.0f32;
        let samples = uniform_samples(1000, sigma, Vec3::ONE);
        let out = composite(&samples, Vec3::ZERO, None);
        let expect = 1.0 - (-sigma).exp();
        assert!(
            (out.opacity - expect).abs() < 1e-3,
            "opacity {} vs analytic {expect}",
            out.opacity
        );
    }

    #[test]
    fn weights_sum_to_opacity_and_match_transmittance() {
        let samples = uniform_samples(32, 3.0, Vec3::ONE);
        let mut cache = RenderCache::default();
        let out = composite(&samples, Vec3::ZERO, Some(&mut cache));
        let wsum: f32 = cache.weights.iter().sum();
        assert!((wsum - out.opacity).abs() < 1e-5);
        assert!((out.opacity + out.transmittance - 1.0).abs() < 1e-5);
    }

    #[test]
    fn early_termination_truncates_cache() {
        let samples = uniform_samples(1000, 1e4, Vec3::ONE);
        let mut cache = RenderCache::default();
        let _ = composite(&samples, Vec3::ZERO, Some(&mut cache));
        assert!(
            cache.weights.len() < 20,
            "opaque ray should terminate quickly, used {} samples",
            cache.weights.len()
        );
    }

    #[test]
    fn backward_color_gradient_is_weight() {
        let samples = uniform_samples(8, 1.5, Vec3::splat(0.5));
        let mut cache = RenderCache::default();
        let out = composite(&samples, Vec3::ZERO, Some(&mut cache));
        let d_color = Vec3::new(1.0, 0.0, 0.0);
        let grads = composite_backward(&samples, Vec3::ZERO, &cache, &out, d_color);
        for k in 0..cache.weights.len() {
            assert!((grads.d_rgb[k].x - cache.weights[k]).abs() < 1e-6);
            assert_eq!(grads.d_rgb[k].y, 0.0);
        }
    }

    #[test]
    fn backward_sigma_matches_finite_difference() {
        let mut samples = uniform_samples(12, 2.0, Vec3::ZERO);
        // Give each sample a distinct color so the gradient is nontrivial.
        for (i, s) in samples.iter_mut().enumerate() {
            s.rgb = Vec3::new(i as f32 / 12.0, 0.5, 1.0 - i as f32 / 12.0);
            s.sigma = 0.5 + 0.2 * i as f32;
        }
        let bg = Vec3::new(0.1, 0.2, 0.3);
        let d_color = Vec3::new(0.7, -0.4, 0.2);
        let mut cache = RenderCache::default();
        let out = composite(&samples, bg, Some(&mut cache));
        let grads = composite_backward(&samples, bg, &cache, &out, d_color);

        let loss = |ss: &[RaySample]| -> f32 {
            let o = composite(ss, bg, None);
            d_color.dot(o.color)
        };
        let eps = 1e-3;
        for k in 0..samples.len() {
            let mut sp = samples.clone();
            sp[k].sigma += eps;
            let lp = loss(&sp);
            let mut sm = samples.clone();
            sm[k].sigma -= eps;
            let lm = loss(&sm);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads.d_sigma[k]).abs() < 1e-3,
                "sample {k}: fd {fd} vs analytic {}",
                grads.d_sigma[k]
            );
        }
    }

    #[test]
    fn backward_includes_background_through_sigma() {
        // A single translucent sample in front of a bright background: more
        // density blocks background light, so dĈ/dσ must be negative when
        // the sample is darker than the background.
        let samples = vec![RaySample {
            t: 0.5,
            dt: 0.5,
            sigma: 1.0,
            rgb: Vec3::ZERO,
        }];
        let bg = Vec3::ONE;
        let mut cache = RenderCache::default();
        let out = composite(&samples, bg, Some(&mut cache));
        let grads = composite_backward(&samples, bg, &cache, &out, Vec3::ONE);
        assert!(grads.d_sigma[0] < 0.0);
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
