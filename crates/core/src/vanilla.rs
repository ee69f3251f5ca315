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
use instant3d_nerf::render::{composite_backward_slices, pixel_loss, RayBatch, RayBatchCache};
use instant3d_nerf::sampler::{sample_pixel_batch_into, sample_segments_into, Segment, TrainRay};
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
        }
    }

    fn encode_input(&self, pos: Vec3, dir: Vec3, input: &mut [f32]) {
        let unit = self.aabb.to_unit(pos);
        let pos_dim = freq_encoding_dim(self.cfg.pos_levels, true);
        freq_encode_into(unit, self.cfg.pos_levels, true, &mut input[..pos_dim]);
        freq_encode_into(dir, self.cfg.dir_levels, false, &mut input[pos_dim..]);
    }

    /// Forward query on reusable scratch `ws`.
    pub fn query_ws(&self, pos: Vec3, dir: Vec3, ws: &mut VanillaWorkspace) -> (f32, Vec3) {
        self.encode_input(pos, dir, &mut ws.input);
        activate_outputs(self.mlp.forward(&ws.input, &mut ws.ws))
    }
}

/// The per-channel output activations of one raw MLP output row
/// `[σ_raw, r, g, b]`: TruncExp density, sigmoid color.
fn activate_outputs(raw: &[f32]) -> (f32, Vec3) {
    let sigma = Activation::TruncExp.apply(raw[0]);
    let rgb = Vec3::new(
        Activation::Sigmoid.apply(raw[1]),
        Activation::Sigmoid.apply(raw[2]),
        Activation::Sigmoid.apply(raw[3]),
    );
    (sigma, rgb)
}

/// Chains one point's rendering gradients `(d_sigma, d_rgb)` through the
/// output activations of [`activate_outputs`], overwriting the point's raw
/// output `row` with the gradient w.r.t. it. The density term goes through
/// [`Activation::derivative`], so it is 0 where TruncExp clamps.
fn chain_output_activations(row: &mut [f32], sigma: f32, rgb: Vec3, d_sigma: f32, d_rgb: Vec3) {
    row[0] = d_sigma * Activation::TruncExp.derivative(row[0], sigma);
    row[1] = d_rgb.x * rgb.x * (1.0 - rgb.x);
    row[2] = d_rgb.y * rgb.y * (1.0 - rgb.y);
    row[3] = d_rgb.z * rgb.z * (1.0 - rgb.z);
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
    /// Raw MLP output rows (`n × 4`), overwritten in place by their
    /// chained output-activation gradients.
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
/// decomposition — faithful to §2.1's pipeline), stepping on batched SoA
/// buffers.
#[derive(Debug)]
pub struct VanillaTrainer {
    model: VanillaNerf,
    backend: BackendHandle,
    opts: Vec<Adam>,
    grads: MlpGradients,
    bws: VanillaBatchWorkspace,
    ray_scratch: Vec<TrainRay>,
    seg_scratch: Vec<Segment>,
    cameras: Vec<instant3d_nerf::camera::Camera>,
    images: Vec<instant3d_nerf::image::RgbImage>,
    background: Vec3,
    iter: u64,
}

impl VanillaTrainer {
    /// Builds the trainer for a dataset. The MLP and compositing kernels
    /// come from [`kernels::from_env_or_default`] (env override
    /// `INSTANT3D_KERNEL_BACKEND`), with the grid engine's bit-identity
    /// contract.
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
        let bws = VanillaBatchWorkspace::new(&model);
        VanillaTrainer {
            model,
            backend: kernels::from_env_or_default(),
            opts,
            grads,
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
    /// one sweep, runs a single batched MLP forward/backward, and
    /// composites per ray.
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

        // One batched MLP forward; the raw rows are kept for the chain
        // rule and their activations written straight into the ray batch.
        let out = self
            .model
            .mlp
            .forward_batch_with(&self.backend, &bws.inputs, &mut bws.ws);
        bws.d_out.clear();
        bws.d_out.extend_from_slice(out);
        for (i, row) in bws.d_out.chunks_exact(4).enumerate() {
            (bws.rays.sigma[i], bws.rays.rgb[i]) = activate_outputs(row);
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
            let (out, active) = self.backend.composite_ray(
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
        for (i, row) in bws.d_out.chunks_exact_mut(4).enumerate() {
            let (s, c) = (bws.rays.sigma[i], bws.rays.rgb[i]);
            chain_output_activations(row, s, c, bws.d_sigma[i], bws.d_rgb[i]);
        }
        self.model.mlp.backward_batch_with(
            &self.backend,
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
    use instant3d_nerf::activation::TRUNC_EXP_BOUND;
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
        }
    }

    /// A loss `d_sigma · σ + d_rgb · rgb` at one point, differentiated
    /// both ways: analytically through the trainer's output-activation
    /// chain rule plus [`Mlp::backward`], and by central differences.
    struct Probe {
        pos: Vec3,
        dir: Vec3,
        d_sigma: f32,
        d_rgb: Vec3,
    }

    impl Probe {
        fn loss(&self, m: &VanillaNerf) -> f32 {
            let (s, c) = m.query(self.pos, self.dir);
            self.d_sigma * s + self.d_rgb.dot(c)
        }

        fn analytic(&self, m: &VanillaNerf) -> MlpGradients {
            let mut ws = m.workspace();
            m.encode_input(self.pos, self.dir, &mut ws.input);
            let mut row = [0.0f32; 4];
            row.copy_from_slice(m.mlp.forward(&ws.input, &mut ws.ws));
            let (sigma, rgb) = activate_outputs(&row);
            chain_output_activations(&mut row, sigma, rgb, self.d_sigma, self.d_rgb);
            let mut grads = m.mlp.zero_grads();
            m.mlp.backward(&row, &mut ws.ws, &mut grads, &mut []);
            grads
        }

        /// Central difference w.r.t. element `index` of the `param`-th
        /// slice in [`Mlp::for_each_param_mut`] order (w0, b0, w1, …).
        fn finite_difference(&self, m: &mut VanillaNerf, param: usize, index: usize) -> f32 {
            let eps = 1e-3;
            nudge(m, param, index, eps);
            let lp = self.loss(m);
            nudge(m, param, index, -2.0 * eps);
            let lm = self.loss(m);
            nudge(m, param, index, eps);
            (lp - lm) / (2.0 * eps)
        }
    }

    fn nudge(m: &mut VanillaNerf, param: usize, index: usize, delta: f32) {
        let zero = m.mlp.zero_grads();
        let mut k = 0;
        m.mlp.for_each_param_mut(&zero, |params, _| {
            if k == param {
                params[index] += delta;
            }
            k += 1;
        });
    }

    fn probe() -> Probe {
        Probe {
            pos: Vec3::new(0.3, 0.7, 0.4),
            dir: Vec3::new(0.0, 0.6, 0.8),
            d_sigma: 0.5,
            d_rgb: Vec3::new(1.0, -0.5, 0.25),
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
        let p = probe();
        // A first-layer weight.
        let analytic = p.analytic(&m).layers[0].0[3];
        let fd = p.finite_difference(&mut m, 0, 3);
        assert!(
            (fd - analytic).abs() < 2e-2 * (1.0 + analytic.abs()),
            "fd {fd} vs analytic {analytic}"
        );
    }

    #[test]
    fn density_gradient_vanishes_where_trunc_exp_clamps() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = VanillaNerf::new(small_cfg(), Aabb::UNIT, &mut rng);
        // Drive the raw density far past the TruncExp bound through the
        // last layer's density bias (the final parameter slice).
        let bias = 2 * m.mlp.layers().len() - 1;
        nudge(&mut m, bias, 0, 40.0);
        let p = probe();
        let (sigma, _) = m.query(p.pos, p.dir);
        assert_eq!(sigma, TRUNC_EXP_BOUND.exp(), "density must be clamped");
        let analytic = p.analytic(&m).layers.last().map(|(_, b)| b[0]);
        let fd = p.finite_difference(&mut m, bias, 0);
        assert_eq!(fd, 0.0);
        assert_eq!(analytic, Some(fd), "clamped density has no gradient");
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
}
