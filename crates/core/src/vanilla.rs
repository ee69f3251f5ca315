//! The vanilla-NeRF baseline (§2.1): a frequency-encoded MLP radiance
//! field, plus the training-cost model behind the paper's "353,895
//! trillion FLOPs, > 1 day on a V100" motivation.
//!
//! Vanilla NeRF replaces Step ③'s grid+small-MLP with one large MLP: the
//! position is frequency-encoded (10 octaves) and pushed through a deep
//! trunk; the view direction (4 octaves) joins for the color output. This
//! module provides a laptop-scale trainable version (the trunk is
//! configurable; the paper-scale 10×256 network is represented in the cost
//! model) so the repository can demonstrate the convergence gap that
//! motivated Instant-NGP and, in turn, Instant-3D.
//!
//! Note vanilla NeRF integrates *every* stratified sample — there is no
//! occupancy grid here by design (§2.1), which is exactly why its
//! `points_per_iter` dwarfs the grid models'. The batched occupancy
//! subsystem that keeps the grid trainers' point counts low lives in
//! `instant3d_nerf::occupancy` and is wired through [`crate::Trainer`].

use instant3d_nerf::activation::Activation;
use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::encoding::{freq_encode_into, freq_encoding_dim};
use instant3d_nerf::field::RadianceField;
use instant3d_nerf::kernels::{self, BackendHandle};
use instant3d_nerf::math::{Aabb, Vec3};
use instant3d_nerf::mlp::{Mlp, MlpBatchWorkspace, MlpConfig, MlpGradients, MlpWorkspace};
use instant3d_nerf::render::{
    composite_backward_slices, composite_slices, pixel_loss, RayBatch, RayBatchCache,
};
use instant3d_nerf::sampler::{
    sample_pixel_batch, sample_pixel_batch_into, sample_segments, sample_segments_into, Segment,
    TrainRay,
};
use instant3d_scenes::Dataset;
use rand::Rng;

/// Configuration of the vanilla-NeRF baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct VanillaConfig {
    /// Octaves of positional frequency encoding (vanilla: 10).
    pub pos_levels: usize,
    /// Octaves of directional frequency encoding (vanilla: 4).
    pub dir_levels: usize,
    /// Hidden width (vanilla: 256).
    pub hidden_dim: usize,
    /// Hidden layers in the trunk (vanilla: 10; laptop default smaller).
    pub hidden_layers: usize,
    /// Rays per batch.
    pub rays_per_batch: usize,
    /// Samples per ray (no occupancy culling in vanilla NeRF).
    pub samples_per_ray: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Kernel backend for the batched step (same open registry dispatch —
    /// and the same bit-identity contract — as the grid engine's
    /// `TrainConfig::kernel_backend`; env override
    /// `INSTANT3D_KERNEL_BACKEND`).
    pub kernel_backend: BackendHandle,
}

impl Default for VanillaConfig {
    /// A laptop-scale trunk (4×64) that keeps iteration times comparable
    /// to the grid models while preserving vanilla NeRF's structure.
    fn default() -> Self {
        VanillaConfig {
            pos_levels: 6,
            dir_levels: 2,
            hidden_dim: 64,
            hidden_layers: 4,
            rays_per_batch: 256,
            samples_per_ray: 48,
            lr: 5e-4,
            kernel_backend: kernels::from_env_or_default(),
        }
    }
}

/// The vanilla-NeRF model: one MLP mapping
/// `[γ_pos(x) ++ γ_dir(d)] → (σ, rgb)`.
#[derive(Debug, Clone)]
pub struct VanillaNerf {
    cfg: VanillaConfig,
    aabb: Aabb,
    mlp: Mlp,
}

/// Scratch for per-point evaluation.
#[derive(Debug, Clone)]
pub struct VanillaWorkspace {
    input: Vec<f32>,
    ws: MlpWorkspace,
    d_out: [f32; 4],
}

impl VanillaNerf {
    /// Builds the model for a scene volume.
    pub fn new<R: Rng + ?Sized>(cfg: VanillaConfig, aabb: Aabb, rng: &mut R) -> Self {
        let in_dim =
            freq_encoding_dim(cfg.pos_levels, true) + freq_encoding_dim(cfg.dir_levels, false);
        let hidden: Vec<usize> = vec![cfg.hidden_dim; cfg.hidden_layers];
        // 4 outputs: raw density + rgb. Density uses TruncExp downstream;
        // keep the MLP output linear and activate per-channel ourselves.
        let mlp = Mlp::new(
            MlpConfig::new(in_dim, &hidden, 4, Activation::Relu, Activation::None),
            rng,
        );
        VanillaNerf { cfg, aabb, mlp }
    }

    /// The configuration.
    pub fn config(&self) -> &VanillaConfig {
        &self.cfg
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.mlp.num_params()
    }

    /// Multiply-accumulates per queried point (forward).
    pub fn flops_per_point(&self) -> usize {
        self.mlp.flops()
    }

    /// Allocates a workspace.
    pub fn workspace(&self) -> VanillaWorkspace {
        VanillaWorkspace {
            input: vec![0.0; self.mlp.in_dim()],
            ws: self.mlp.workspace(),
            d_out: [0.0; 4],
        }
    }

    fn encode_input(&self, pos: Vec3, dir: Vec3, input: &mut [f32]) {
        let unit = self.aabb.to_unit(pos);
        let pos_dim = freq_encoding_dim(self.cfg.pos_levels, true);
        freq_encode_into(unit, self.cfg.pos_levels, true, &mut input[..pos_dim]);
        freq_encode_into(dir, self.cfg.dir_levels, false, &mut input[pos_dim..]);
    }

    /// Forward query leaving MLP state in `ws` for a subsequent backward.
    pub fn query_ws(&self, pos: Vec3, dir: Vec3, ws: &mut VanillaWorkspace) -> (f32, Vec3) {
        self.encode_input(pos, dir, &mut ws.input);
        let out = self.mlp.forward(&ws.input, &mut ws.ws);
        let sigma = Activation::TruncExp.apply(out[0]);
        let rgb = Vec3::new(
            Activation::Sigmoid.apply(out[1]),
            Activation::Sigmoid.apply(out[2]),
            Activation::Sigmoid.apply(out[3]),
        );
        (sigma, rgb)
    }

    /// Backward for the point most recently queried on `ws`.
    pub fn backward_ws(
        &self,
        sigma: f32,
        rgb: Vec3,
        d_sigma: f32,
        d_rgb: Vec3,
        ws: &mut VanillaWorkspace,
        grads: &mut MlpGradients,
    ) {
        // Chain through the per-channel output activations.
        ws.d_out[0] = d_sigma * sigma; // d/dx TruncExp = exp (unclamped range)
        ws.d_out[1] = d_rgb.x * rgb.x * (1.0 - rgb.x);
        ws.d_out[2] = d_rgb.y * rgb.y * (1.0 - rgb.y);
        ws.d_out[3] = d_rgb.z * rgb.z * (1.0 - rgb.z);
        let d_out = ws.d_out;
        self.mlp.backward(&d_out, &mut ws.ws, grads, &mut []);
    }
}

impl RadianceField for VanillaNerf {
    fn aabb(&self) -> Aabb {
        self.aabb
    }

    fn query(&self, pos: Vec3, dir: Vec3) -> (f32, Vec3) {
        let mut ws = self.workspace();
        self.query_ws(pos, dir, &mut ws)
    }
}

/// Preallocated SoA buffers for the batched vanilla training step — the
/// vanilla-NeRF counterpart of [`crate::batch::BatchWorkspace`].
#[derive(Debug)]
pub struct VanillaBatchWorkspace {
    rays: RayBatch,
    cache: RayBatchCache,
    /// Frequency-encoded MLP input rows (`n × in_dim`).
    inputs: Vec<f32>,
    ws: MlpBatchWorkspace,
    d_sigma: Vec<f32>,
    d_rgb: Vec<Vec3>,
    /// Chained output-activation gradient rows (`n × 4`).
    d_out: Vec<f32>,
}

impl VanillaBatchWorkspace {
    fn new(model: &VanillaNerf) -> Self {
        VanillaBatchWorkspace {
            rays: RayBatch::new(),
            cache: RayBatchCache::default(),
            inputs: Vec::new(),
            ws: model.mlp.batch_workspace(0),
            d_sigma: Vec::new(),
            d_rgb: Vec::new(),
            d_out: Vec::new(),
        }
    }
}

/// A minimal trainer for the vanilla baseline (no occupancy grid, no
/// decomposition — faithful to §2.1's pipeline). The default
/// [`VanillaTrainer::step`] runs on batched SoA buffers;
/// [`VanillaTrainer::step_scalar`] keeps the point-at-a-time reference.
#[derive(Debug)]
pub struct VanillaTrainer {
    model: VanillaNerf,
    opts: Vec<Adam>,
    grads: MlpGradients,
    ws: VanillaWorkspace,
    bws: VanillaBatchWorkspace,
    ray_scratch: Vec<TrainRay>,
    seg_scratch: Vec<Segment>,
    cameras: Vec<instant3d_nerf::camera::Camera>,
    images: Vec<instant3d_nerf::image::RgbImage>,
    background: Vec3,
    iter: u64,
}

impl VanillaTrainer {
    /// Builds the trainer for a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no training views.
    pub fn new<R: Rng + ?Sized>(cfg: VanillaConfig, dataset: &Dataset, rng: &mut R) -> Self {
        assert!(
            !dataset.train_views.is_empty(),
            "dataset has no training views"
        );
        let model = VanillaNerf::new(cfg.clone(), dataset.aabb, rng);
        let adam = AdamConfig {
            lr: cfg.lr,
            ..AdamConfig::for_mlp()
        };
        let opts = model
            .mlp
            .layers()
            .iter()
            .flat_map(|l| {
                let s = l.spec();
                [s.in_dim * s.out_dim, s.out_dim]
            })
            .map(|n| Adam::new(adam, n))
            .collect();
        let grads = model.mlp.zero_grads();
        let ws = model.workspace();
        let bws = VanillaBatchWorkspace::new(&model);
        VanillaTrainer {
            model,
            opts,
            grads,
            ws,
            bws,
            ray_scratch: Vec::new(),
            seg_scratch: Vec::new(),
            cameras: dataset.train_cameras(),
            images: dataset.train_images(),
            background: dataset.background,
            iter: 0,
        }
    }

    /// The model under training.
    pub fn model(&self) -> &VanillaNerf {
        &self.model
    }

    /// Iterations executed.
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// One batched training iteration; returns the batch loss.
    ///
    /// Gathers all ray samples into SoA buffers, frequency-encodes them in
    /// one sweep, runs a single batched MLP forward/backward (no per-point
    /// re-forward), and composites per ray. RNG consumption and per-point
    /// arithmetic match [`VanillaTrainer::step_scalar`], so the two paths
    /// produce identical losses and parameters.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        let cfg = self.model.cfg.clone();
        sample_pixel_batch_into(
            &self.cameras,
            &self.images,
            cfg.rays_per_batch,
            rng,
            &mut self.ray_scratch,
        );
        self.grads.zero();
        let aabb = self.model.aabb;
        let bws = &mut self.bws;
        bws.rays.clear();
        // Sampling (identical RNG order to the scalar path).
        for tr in &self.ray_scratch {
            sample_segments_into(
                &tr.ray,
                &aabb,
                cfg.samples_per_ray,
                Some(rng),
                &mut self.seg_scratch,
            );
            for &(t, dt) in &self.seg_scratch {
                bws.rays.push_sample(t, dt);
            }
            bws.rays.end_ray();
        }
        let n = bws.rays.num_samples();
        let in_dim = self.model.mlp.in_dim();

        // Frequency-encode every sample into the flat input rows.
        bws.inputs.resize(n * in_dim, 0.0);
        {
            let mut k = 0usize;
            for (r, tr) in self.ray_scratch.iter().enumerate() {
                for s in bws.rays.ray_range(r) {
                    let pos = tr.ray.at(bws.rays.t[s]);
                    self.model.encode_input(
                        pos,
                        tr.ray.dir,
                        &mut bws.inputs[k * in_dim..(k + 1) * in_dim],
                    );
                    k += 1;
                }
            }
            debug_assert_eq!(k, n);
        }

        // One batched MLP forward, then per-channel output activations
        // written straight into the ray batch.
        let out = self
            .model
            .mlp
            .forward_batch_with(&cfg.kernel_backend, &bws.inputs, &mut bws.ws);
        for i in 0..n {
            let row = &out[i * 4..(i + 1) * 4];
            bws.rays.sigma[i] = Activation::TruncExp.apply(row[0]);
            bws.rays.rgb[i] = Vec3::new(
                Activation::Sigmoid.apply(row[1]),
                Activation::Sigmoid.apply(row[2]),
                Activation::Sigmoid.apply(row[3]),
            );
        }

        // Composite + loss + render backward, per ray over SoA slices.
        // (Only the per-sample cache arrays are needed — per-ray outputs
        // are consumed immediately in the loss loop below.)
        bws.cache.weights.resize(n, 0.0);
        bws.cache.trans.resize(n, 0.0);
        bws.cache.one_minus_alpha.resize(n, 0.0);
        bws.d_sigma.resize(n, 0.0);
        bws.d_rgb.resize(n, Vec3::ZERO);
        let inv = 1.0 / self.ray_scratch.len().max(1) as f32;
        let mut total_loss = 0.0;
        for (r, tr) in self.ray_scratch.iter().enumerate() {
            let range = bws.rays.ray_range(r);
            let (out, active) = cfg.kernel_backend.composite_ray(
                &bws.rays.t[range.clone()],
                &bws.rays.dt[range.clone()],
                &bws.rays.sigma[range.clone()],
                &bws.rays.rgb[range.clone()],
                self.background,
                Some((
                    &mut bws.cache.weights[range.clone()],
                    &mut bws.cache.trans[range.clone()],
                    &mut bws.cache.one_minus_alpha[range.clone()],
                )),
            );
            let (loss, d_color) = pixel_loss(out.color, tr.target);
            total_loss += loss;
            composite_backward_slices(
                &bws.rays.dt[range.clone()],
                &bws.rays.rgb[range.clone()],
                self.background,
                &bws.cache.weights[range.clone()],
                &bws.cache.trans[range.clone()],
                &bws.cache.one_minus_alpha[range.clone()],
                active,
                &out,
                d_color * inv,
                &mut bws.d_sigma[range.clone()],
                &mut bws.d_rgb[range],
            );
        }

        // Chain through the per-channel output activations, then one
        // batched MLP backward over the retained activations.
        bws.d_out.resize(n * 4, 0.0);
        for i in 0..n {
            let row = &mut bws.d_out[i * 4..(i + 1) * 4];
            let (s, c) = (bws.rays.sigma[i], bws.rays.rgb[i]);
            row[0] = bws.d_sigma[i] * s; // d/dx TruncExp = exp (unclamped range)
            row[1] = bws.d_rgb[i].x * c.x * (1.0 - c.x);
            row[2] = bws.d_rgb[i].y * c.y * (1.0 - c.y);
            row[3] = bws.d_rgb[i].z * c.z * (1.0 - c.z);
        }
        self.model.mlp.backward_batch_with(
            &cfg.kernel_backend,
            &bws.d_out,
            &mut bws.ws,
            &mut self.grads,
            &mut [],
        );

        let mut idx = 0;
        let opts = &mut self.opts;
        self.model
            .mlp
            .for_each_param_mut(&self.grads, |params, grads| {
                opts[idx].step(params, grads);
                idx += 1;
            });
        self.iter += 1;
        total_loss * inv
    }

    /// One scalar (point-at-a-time) training iteration — the reference
    /// implementation the batched [`VanillaTrainer::step`] is gated
    /// against; returns the batch loss.
    pub fn step_scalar<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f32 {
        let cfg = self.model.cfg.clone();
        let batch = sample_pixel_batch(&self.cameras, &self.images, cfg.rays_per_batch, rng);
        self.grads.zero();
        // One ray at a time through the batch buffers, reused across rays.
        let mut ray = RayBatch::new();
        let mut cache = RayBatchCache::default();
        let mut d_sigma: Vec<f32> = Vec::new();
        let mut d_rgb: Vec<Vec3> = Vec::new();
        let mut total_loss = 0.0;
        let inv = 1.0 / batch.len().max(1) as f32;
        for tr in &batch {
            let segs = sample_segments(&tr.ray, &self.model.aabb, cfg.samples_per_ray, Some(rng));
            ray.clear();
            for (k, &(t, dt)) in segs.iter().enumerate() {
                ray.push_sample(t, dt);
                (ray.sigma[k], ray.rgb[k]) =
                    self.model.query_ws(tr.ray.at(t), tr.ray.dir, &mut self.ws);
            }
            ray.end_ray();
            let n = ray.num_samples();
            cache.reserve_for(&ray);
            let rows = (
                &mut cache.weights[..],
                &mut cache.trans[..],
                &mut cache.one_minus_alpha[..],
            );
            let (t, dt, sigma, rgb) = (&ray.t, &ray.dt, &ray.sigma, &ray.rgb);
            let (out, active) = composite_slices(t, dt, sigma, rgb, self.background, Some(rows));
            let (loss, d_color) = pixel_loss(out.color, tr.target);
            total_loss += loss;
            d_sigma.resize(n, 0.0);
            d_rgb.resize(n, Vec3::ZERO);
            composite_backward_slices(
                dt,
                rgb,
                self.background,
                &cache.weights,
                &cache.trans,
                &cache.one_minus_alpha,
                active,
                &out,
                d_color * inv,
                &mut d_sigma,
                &mut d_rgb,
            );
            for k in 0..n {
                // Re-forward to restore MLP state, then backward.
                let (sigma_k, rgb_k) =
                    self.model
                        .query_ws(tr.ray.at(t[k]), tr.ray.dir, &mut self.ws);
                debug_assert_eq!(sigma[k], sigma_k);
                self.model.backward_ws(
                    sigma_k,
                    rgb_k,
                    d_sigma[k],
                    d_rgb[k],
                    &mut self.ws,
                    &mut self.grads,
                );
            }
        }
        let mut idx = 0;
        let opts = &mut self.opts;
        self.model
            .mlp
            .for_each_param_mut(&self.grads, |params, grads| {
                opts[idx].step(params, grads);
                idx += 1;
            });
        self.iter += 1;
        total_loss * inv
    }
}

/// The §2.1 training-cost model of paper-scale vanilla NeRF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VanillaCostModel {
    /// Training iterations per scene ("around 150,000").
    pub iterations: f64,
    /// Points per iteration ("batch size of 786,432 = 192 points/pixel ×
    /// 4,096 pixels").
    pub points_per_iter: f64,
    /// MLP FLOPs per point ("an MLP model of 1 million FLOPs").
    pub flops_per_point: f64,
    /// Backward-pass multiplier on forward FLOPs (forward + backward ≈ 3×).
    pub backward_factor: f64,
}

impl Default for VanillaCostModel {
    fn default() -> Self {
        VanillaCostModel {
            iterations: 150_000.0,
            points_per_iter: 786_432.0,
            flops_per_point: 1e6,
            backward_factor: 3.0,
        }
    }
}

impl VanillaCostModel {
    /// Total training FLOPs (paper: "353,895 trillion FLOPs").
    pub fn total_flops(&self) -> f64 {
        self.iterations * self.points_per_iter * self.flops_per_point * self.backward_factor
    }

    /// Training days on a GPU with `peak_flops` at `efficiency` (paper:
    /// "> 1 day of training time on one V100").
    pub fn days_on(&self, peak_flops: f64, efficiency: f64) -> f64 {
        self.total_flops() / (peak_flops * efficiency) / 86_400.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant3d_scenes::SceneLibrary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_cfg() -> VanillaConfig {
        VanillaConfig {
            pos_levels: 4,
            dir_levels: 2,
            hidden_dim: 32,
            hidden_layers: 2,
            rays_per_batch: 48,
            samples_per_ray: 24,
            lr: 1e-3,
            ..VanillaConfig::default()
        }
    }

    #[test]
    fn cost_model_reproduces_section_21_numbers() {
        let c = VanillaCostModel::default();
        // "353,895 trillion FLOPs".
        let trillions = c.total_flops() / 1e12;
        assert!(
            (trillions - 353_895.0).abs() / 353_895.0 < 0.01,
            "total {trillions:.0} trillion FLOPs"
        );
        // "> 1 day on one V100" (15.7 TFLOPS fp32 at ~25% utilisation).
        let days = c.days_on(15.7e12, 0.25);
        assert!(days > 1.0, "{days:.2} days should exceed 1");
    }

    #[test]
    fn forward_outputs_are_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = VanillaNerf::new(small_cfg(), Aabb::UNIT, &mut rng);
        let (sigma, rgb) = m.query(Vec3::splat(0.5), Vec3::Z);
        assert!(sigma >= 0.0 && sigma.is_finite());
        for k in 0..3 {
            assert!((0.0..=1.0).contains(&rgb[k]));
        }
        assert!(m.num_params() > 0);
        assert!(m.flops_per_point() > 0);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = VanillaNerf::new(small_cfg(), Aabb::UNIT, &mut rng);
        let pos = Vec3::new(0.3, 0.7, 0.4);
        let dir = Vec3::new(0.0, 0.6, 0.8);
        let (d_sigma, d_rgb) = (0.5f32, Vec3::new(1.0, -0.5, 0.25));
        let mut ws = m.workspace();
        let mut grads = m.mlp.zero_grads();
        let (s, c) = m.query_ws(pos, dir, &mut ws);
        m.backward_ws(s, c, d_sigma, d_rgb, &mut ws, &mut grads);

        let loss = |m: &VanillaNerf| {
            let (s, c) = m.query(pos, dir);
            d_sigma * s + d_rgb.dot(c)
        };
        let eps = 1e-3;
        // Probe a few weights of the first layer via the param visitor.
        let analytic = grads.layers[0].0[3];
        {
            let mut probe = |delta: f32| -> f32 {
                let g0 = m.mlp.zero_grads();
                let mut val = 0.0;
                let mut idx = 0;
                m.mlp.for_each_param_mut(&g0, |params, _| {
                    if idx == 0 {
                        params[3] += delta;
                        val = params[3];
                    }
                    idx += 1;
                });
                let _ = val;
                loss(&m)
            };
            let lp = probe(eps);
            let lm = probe(-2.0 * eps);
            probe(eps); // restore
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
                "fd {fd} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
        let mut t = VanillaTrainer::new(small_cfg(), &ds, &mut rng);
        let first: f32 = (0..3).map(|_| t.step(&mut rng)).sum::<f32>() / 3.0;
        for _ in 0..40 {
            t.step(&mut rng);
        }
        let last: f32 = (0..3).map(|_| t.step(&mut rng)).sum::<f32>() / 3.0;
        assert!(last < first, "loss should decrease: {first} -> {last}");
        assert_eq!(t.iteration(), 46);
    }

    #[test]
    fn batched_step_matches_scalar_reference() {
        // Same RNG consumption and per-point arithmetic → identical
        // losses and identical parameters, step for step, on whichever
        // backend `INSTANT3D_KERNEL_BACKEND` names.
        let cfg = VanillaConfig {
            kernel_backend: kernels::from_env_or_default(),
            ..small_cfg()
        };
        let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut StdRng::seed_from_u64(1));
        let mut batched = VanillaTrainer::new(cfg.clone(), &ds, &mut StdRng::seed_from_u64(2));
        let mut scalar = VanillaTrainer::new(cfg, &ds, &mut StdRng::seed_from_u64(2));
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        for i in 0..4 {
            let lb = batched.step(&mut rng_a);
            let ls = scalar.step_scalar(&mut rng_b);
            assert_eq!(lb, ls, "step {i}: batched vs scalar loss");
        }
        let probe = Vec3::new(0.4, 0.3, 0.6);
        let (sb, cb) = batched.model().query(probe, Vec3::Z);
        let (ss, cs) = scalar.model().query(probe, Vec3::Z);
        assert_eq!(sb, ss);
        assert_eq!(cb, cs);
    }
}
