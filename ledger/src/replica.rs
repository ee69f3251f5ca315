//! A replica of `Trainer::step`, rebuilt from outside out of the kernel
//! seams, so the traced run can put one span around each seam.
//!
//! The replica starts from a clone of the trainer's freshly initialised
//! model and a clone of its RNG, keeps its own optimizers, gradients,
//! occupancy grid and scratch, and then re-executes the trainer's
//! iteration operation by operation: same RNG draws, same batch layout,
//! same accumulation order, same update schedules. Because the engine is
//! deterministic, the replica's loss must equal the real step's loss bit
//! for bit at every iteration — the check that it explains the step it
//! claims to explain. Time between spans (packing and unpacking between
//! seams) is the `replica.step` span's self time, reported as glue.

use crate::span::Tracer;
use crate::surface::{
    composite_backward_slices, pixel_loss, sample_pixel_batch_into, sample_segments_into, Adam,
    AdamConfig, BackendHandle, Camera, Dataset, GridGradients, GridTopology, HashGrid, Mlp,
    MlpBatchWorkspace, MlpGradients, NerfModel, OccupancyGrid, OccupancyWorkspace, RayBatch,
    RayBatchCache, RefreshMode, RgbImage, Segment, StdRng, TrainConfig, TrainRay, Vec3,
};

/// Exact work counts the replica tallies at the seams.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub iterations: u64,
    pub rays: u64,
    /// Stratified samples drawn before occupancy culling.
    pub candidates: u64,
    /// Samples that survived culling (points through grid and MLPs).
    pub points: u64,
    /// Points scattered into the color grid (0 on skipped iterations).
    pub color_scatter_points: u64,
    /// Iterations on which the color grid was a separate encode.
    pub color_encode_points: u64,
    /// Non-zero gradient entries handed to sparse Adam.
    pub adam_touched: u64,
    /// Gradient entries scanned to find them.
    pub adam_scanned: u64,
    pub occupancy_refreshes: u64,
    pub occupancy_cells: u64,
}

struct Optimizers {
    grid_density: Adam,
    grid_color: Option<Adam>,
    sigma_mlp: Vec<Adam>,
    color_mlp: Vec<Adam>,
}

impl Optimizers {
    /// The optimizer set `Trainer::new` builds: grid Adam(s) at
    /// `cfg.grid_lr`, one MLP Adam per weight and bias tensor at
    /// `cfg.mlp_lr`.
    fn new(cfg: &TrainConfig, model: &NerfModel) -> Self {
        let grid_cfg = AdamConfig {
            lr: cfg.grid_lr,
            ..AdamConfig::for_grid()
        };
        let mlp_cfg = AdamConfig {
            lr: cfg.mlp_lr,
            ..AdamConfig::for_mlp()
        };
        let per_tensor = |mlp: &Mlp| -> Vec<Adam> {
            mlp.layers()
                .iter()
                .flat_map(|l| {
                    let s = l.spec();
                    [s.in_dim * s.out_dim, s.out_dim]
                })
                .map(|n| Adam::new(mlp_cfg, n))
                .collect()
        };
        Optimizers {
            grid_density: Adam::new(grid_cfg, model.density_grid().num_params()),
            grid_color: model
                .color_grid()
                .map(|g| Adam::new(grid_cfg, g.num_params())),
            sigma_mlp: per_tensor(model.sigma_mlp()),
            color_mlp: per_tensor(model.color_mlp()),
        }
    }

    fn decay_lr(&mut self, factor: f32) {
        let all = std::iter::once(&mut self.grid_density)
            .chain(self.grid_color.as_mut())
            .chain(self.sigma_mlp.iter_mut())
            .chain(self.color_mlp.iter_mut());
        for opt in all {
            let lr = opt.config().lr * factor;
            opt.set_lr(lr);
        }
    }
}

/// The step replica. See the module docs.
pub struct Replica {
    cfg: TrainConfig,
    model: NerfModel,
    backend: BackendHandle,
    cameras: Vec<Camera>,
    images: Vec<RgbImage>,
    background: Vec3,
    occupancy: Option<OccupancyGrid>,
    occ_ws: OccupancyWorkspace,
    opts: Optimizers,
    grad_density: GridGradients,
    grad_color: Option<GridGradients>,
    grad_sigma: MlpGradients,
    grad_rgb: MlpGradients,
    iter: u64,
    pub counters: Counters,

    rays: Vec<TrainRay>,
    segs: Vec<Segment>,
    batch: RayBatch,
    positions: Vec<Vec3>,
    point_ray: Vec<u32>,
    sh: Vec<f32>,
    unit_positions: Vec<Vec3>,
    emb_d: Vec<f32>,
    emb_c: Vec<f32>,
    color_in: Vec<f32>,
    ws_sigma: MlpBatchWorkspace,
    ws_color: MlpBatchWorkspace,
    cache: RayBatchCache,
    d_color: Vec<Vec3>,
    d_sigma: Vec<f32>,
    d_rgb: Vec<Vec3>,
    d_rgb_flat: Vec<f32>,
    d_emb_d: Vec<f32>,
    d_emb_c: Vec<f32>,
    d_color_in: Vec<f32>,
    touched: Vec<usize>,
}

impl Replica {
    /// A replica of a trainer at iteration 0: `model` is a clone of
    /// `trainer.model()` taken right after `Trainer::new`.
    pub fn new(cfg: TrainConfig, model: NerfModel, ds: &Dataset) -> Self {
        let backend = model.kernel_backend().clone();
        Replica {
            opts: Optimizers::new(&cfg, &model),
            grad_density: model.density_grid().zero_grads(),
            grad_color: model.color_grid().map(HashGrid::zero_grads),
            grad_sigma: model.sigma_mlp().zero_grads(),
            grad_rgb: model.color_mlp().zero_grads(),
            occupancy: (cfg.occupancy_resolution > 0)
                .then(|| OccupancyGrid::new(ds.aabb, cfg.occupancy_resolution)),
            occ_ws: OccupancyWorkspace::new(cfg.kernel_backend.clone()),
            ws_sigma: model.sigma_mlp().batch_workspace(0),
            ws_color: model.color_mlp().batch_workspace(0),
            cameras: ds.train_cameras(),
            images: ds.train_images(),
            background: ds.background,
            cfg,
            model,
            backend,
            iter: 0,
            counters: Counters::default(),
            rays: Vec::new(),
            segs: Vec::new(),
            batch: RayBatch::new(),
            positions: Vec::new(),
            point_ray: Vec::new(),
            sh: Vec::new(),
            unit_positions: Vec::new(),
            emb_d: Vec::new(),
            emb_c: Vec::new(),
            color_in: Vec::new(),
            cache: RayBatchCache::default(),
            d_color: Vec::new(),
            d_sigma: Vec::new(),
            d_rgb: Vec::new(),
            d_rgb_flat: Vec::new(),
            d_emb_d: Vec::new(),
            d_emb_c: Vec::new(),
            d_color_in: Vec::new(),
            touched: Vec::new(),
        }
    }

    pub fn model(&self) -> &NerfModel {
        &self.model
    }

    /// One training iteration; returns the batch loss. Every seam call
    /// sits in its own child span of `replica.step`.
    pub fn step(&mut self, rng: &mut StdRng, tr: &mut Tracer) -> f32 {
        let step_span = tr.enter("replica.step");
        let update_density = self
            .iter
            .is_multiple_of(u64::from(self.cfg.density_update_every));
        let coupled = self.model.topology() == GridTopology::Coupled;
        let update_color = if coupled {
            update_density
        } else {
            self.iter
                .is_multiple_of(u64::from(self.cfg.color_update_every))
        };
        let decoupled = !coupled && self.model.color_grid().is_some();

        let s = tr.enter("sampler.pixels");
        sample_pixel_batch_into(
            &self.cameras,
            &self.images,
            self.cfg.rays_per_batch,
            rng,
            &mut self.rays,
        );
        tr.exit(s);

        let s = tr.enter("grid.zero_grads");
        self.grad_density.zero();
        if let Some(g) = &mut self.grad_color {
            g.zero();
        }
        tr.exit(s);
        self.grad_sigma.zero();
        self.grad_rgb.zero();

        // Stratified segments + occupancy culling, ray by ray.
        let s = tr.enter("sampler.segments");
        let aabb = self.model.aabb();
        let sh_dim = self.model.sh_dim();
        let n_rays = self.rays.len();
        self.batch.clear();
        self.positions.clear();
        self.point_ray.clear();
        self.sh.clear();
        self.sh.resize(n_rays * sh_dim, 0.0);
        self.d_color.resize(n_rays, Vec3::ZERO);
        let mut candidates = 0u64;
        for (r, ray) in self.rays.iter().enumerate() {
            sample_segments_into(
                &ray.ray,
                &aabb,
                self.cfg.samples_per_ray,
                Some(&mut *rng),
                &mut self.segs,
            );
            self.model
                .encode_dir(ray.ray.dir, &mut self.sh[r * sh_dim..(r + 1) * sh_dim]);
            candidates += self.segs.len() as u64;
            for &(t, dt) in &self.segs {
                let p = ray.ray.at(t);
                if self.occupancy.as_ref().is_some_and(|o| !o.occupied_at(p)) {
                    continue;
                }
                self.batch.push_sample(t, dt);
                self.positions.push(p);
                self.point_ray.push(r as u32);
            }
            self.batch.end_ray();
        }
        tr.exit(s);
        let n = self.positions.len();

        // Grid forward.
        let (ed, ec) = (
            self.model.density_grid().output_dim(),
            self.model.color_mlp().in_dim() - sh_dim,
        );
        self.unit_positions.clear();
        self.unit_positions
            .extend(self.positions.iter().map(|p| aabb.to_unit(*p)));
        self.emb_d.resize(n * ed, 0.0);
        self.emb_c.resize(n * ec, 0.0);
        let s = tr.enter("grid.encode_density");
        self.model.density_grid().par_encode_batch_with(
            &self.backend,
            &self.unit_positions,
            &mut self.emb_d,
        );
        tr.exit(s);
        match self.model.color_grid() {
            Some(cg) if decoupled => {
                let s = tr.enter("grid.encode_color");
                cg.par_encode_batch_with(&self.backend, &self.unit_positions, &mut self.emb_c);
                tr.exit(s);
                self.counters.color_encode_points += n as u64;
            }
            _ => self.emb_c.copy_from_slice(&self.emb_d),
        }

        // MLP heads forward.
        let cw = ec + sh_dim;
        self.color_in.resize(n * cw, 0.0);
        for i in 0..n {
            let row = &mut self.color_in[i * cw..(i + 1) * cw];
            row[..ec].copy_from_slice(&self.emb_c[i * ec..(i + 1) * ec]);
            let r = self.point_ray[i] as usize;
            row[ec..].copy_from_slice(&self.sh[r * sh_dim..(r + 1) * sh_dim]);
        }
        let s = tr.enter("mlp.forward_sigma");
        let sigma_out = self.model.sigma_mlp().forward_batch_with(
            &self.backend,
            &self.emb_d,
            &mut self.ws_sigma,
        );
        tr.exit(s);
        self.batch.sigma[..n].copy_from_slice(sigma_out);
        let s = tr.enter("mlp.forward_color");
        let rgb_out = self.model.color_mlp().forward_batch_with(
            &self.backend,
            &self.color_in,
            &mut self.ws_color,
        );
        tr.exit(s);
        for (i, c) in rgb_out.chunks_exact(3).enumerate() {
            self.batch.rgb[i] = Vec3::new(c[0], c[1], c[2]);
        }

        // Composite and loss.
        let s = tr.enter("render.composite");
        self.cache.reserve_for(&self.batch);
        for r in 0..n_rays {
            let range = self.batch.ray_range(r);
            let (out, active) = self.backend.composite_ray(
                &self.batch.t[range.clone()],
                &self.batch.dt[range.clone()],
                &self.batch.sigma[range.clone()],
                &self.batch.rgb[range.clone()],
                self.background,
                Some((
                    &mut self.cache.weights[range.clone()],
                    &mut self.cache.trans[range.clone()],
                    &mut self.cache.one_minus_alpha[range],
                )),
            );
            self.cache.outputs[r] = out;
            self.cache.active[r] = active;
        }
        tr.exit(s);
        let inv_batch = 1.0 / n_rays.max(1) as f32;
        let mut total_loss = 0.0f32;
        for (r, ray) in self.rays.iter().enumerate() {
            let (loss, d_raw) = pixel_loss(self.cache.outputs[r].color, ray.target);
            total_loss += loss;
            self.d_color[r] = d_raw * inv_batch;
        }

        // Backward through compositing.
        let s = tr.enter("render.composite_backward");
        self.d_sigma.resize(n, 0.0);
        self.d_rgb.resize(n, Vec3::ZERO);
        for r in 0..n_rays {
            let range = self.batch.ray_range(r);
            composite_backward_slices(
                &self.batch.dt[range.clone()],
                &self.batch.rgb[range.clone()],
                self.background,
                &self.cache.weights[range.clone()],
                &self.cache.trans[range.clone()],
                &self.cache.one_minus_alpha[range.clone()],
                self.cache.active[r],
                &self.cache.outputs[r],
                self.d_color[r],
                &mut self.d_sigma[range.clone()],
                &mut self.d_rgb[range],
            );
        }
        tr.exit(s);

        // MLP heads backward.
        self.d_rgb_flat.resize(n * 3, 0.0);
        for (i, g) in self.d_rgb[..n].iter().enumerate() {
            self.d_rgb_flat[i * 3] = g.x;
            self.d_rgb_flat[i * 3 + 1] = g.y;
            self.d_rgb_flat[i * 3 + 2] = g.z;
        }
        self.d_color_in.resize(n * cw, 0.0);
        let s = tr.enter("mlp.backward_color");
        self.model.color_mlp().backward_batch_with(
            &self.backend,
            &self.d_rgb_flat,
            &mut self.ws_color,
            &mut self.grad_rgb,
            &mut self.d_color_in,
        );
        tr.exit(s);
        self.d_emb_d.resize(n * ed, 0.0);
        let s = tr.enter("mlp.backward_sigma");
        self.model.sigma_mlp().backward_batch_with(
            &self.backend,
            &self.d_sigma[..n],
            &mut self.ws_sigma,
            &mut self.grad_sigma,
            &mut self.d_emb_d,
        );
        tr.exit(s);
        self.d_emb_c.resize(n * ec, 0.0);
        for i in 0..n {
            self.d_emb_c[i * ec..(i + 1) * ec]
                .copy_from_slice(&self.d_color_in[i * cw..i * cw + ec]);
        }

        // Grid scatter.
        if coupled {
            for (d, c) in self.d_emb_d[..n * ed]
                .iter_mut()
                .zip(&self.d_emb_c[..n * ec])
            {
                *d += *c;
            }
        }
        let s = tr.enter("grid.scatter_density");
        self.model.density_grid().par_backward_batch_with(
            &self.backend,
            &self.unit_positions,
            &self.d_emb_d[..n * ed],
            &mut self.grad_density,
        );
        tr.exit(s);
        if !coupled && update_color {
            if let (Some(cg), Some(cgrads)) = (self.model.color_grid(), self.grad_color.as_mut()) {
                let s = tr.enter("grid.scatter_color");
                cg.par_backward_batch_with(
                    &self.backend,
                    &self.unit_positions,
                    &self.d_emb_c[..n * ec],
                    cgrads,
                );
                tr.exit(s);
                self.counters.color_scatter_points += n as u64;
            }
        }

        // Optimizers.
        if update_density {
            let s = tr.enter("grid.adam_density");
            sparse_grid_step(
                self.model.density_grid_mut(),
                &self.grad_density,
                &mut self.opts.grid_density,
                &mut self.touched,
                &mut self.counters,
            );
            tr.exit(s);
        }
        if update_color {
            if let (Some(grid), Some(opt), Some(grads)) = (
                self.model.color_grid_mut(),
                self.opts.grid_color.as_mut(),
                self.grad_color.as_ref(),
            ) {
                let s = tr.enter("grid.adam_color");
                sparse_grid_step(grid, grads, opt, &mut self.touched, &mut self.counters);
                tr.exit(s);
            }
        }
        let s = tr.enter("adam.mlp");
        dense_mlp_step(
            self.model.sigma_mlp_mut(),
            &self.grad_sigma,
            &mut self.opts.sigma_mlp,
        );
        dense_mlp_step(
            self.model.color_mlp_mut(),
            &self.grad_rgb,
            &mut self.opts.color_mlp,
        );
        tr.exit(s);

        // Occupancy refresh on the trainer's cadence.
        if let Some(occ) = &mut self.occupancy {
            let every = u64::from(self.cfg.occupancy_update_every);
            if self.iter % every == every - 1 {
                let s = tr.enter("occupancy.refresh");
                let stats = self.occ_ws.refresh(
                    occ,
                    self.model.density_grid(),
                    self.model.sigma_mlp(),
                    aabb,
                    self.cfg.occupancy_threshold,
                    RefreshMode::DecayedEma,
                    self.cfg.occupancy_subset,
                );
                tr.exit(s);
                self.counters.occupancy_refreshes += 1;
                self.counters.occupancy_cells += stats.cells_probed as u64;
            }
        }
        if self.cfg.lr_decay_factor < 1.0
            && (self.iter + 1).is_multiple_of(u64::from(self.cfg.lr_decay_every))
        {
            self.opts.decay_lr(self.cfg.lr_decay_factor);
        }

        self.iter += 1;
        self.counters.iterations += 1;
        self.counters.rays += n_rays as u64;
        self.counters.candidates += candidates;
        self.counters.points += n as u64;
        tr.exit(step_span);
        total_loss * inv_batch
    }
}

/// The trainer's grid update: scan the full gradient table for non-zero
/// entries, then sparse Adam + fp16 re-quantisation over them.
fn sparse_grid_step(
    grid: &mut HashGrid,
    grads: &GridGradients,
    opt: &mut Adam,
    touched: &mut Vec<usize>,
    counters: &mut Counters,
) {
    touched.clear();
    touched.extend(
        grads
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, _)| i),
    );
    counters.adam_scanned += grads.values.len() as u64;
    counters.adam_touched += touched.len() as u64;
    grid.apply_sparse_step(opt, &grads.values, touched);
}

fn dense_mlp_step(mlp: &mut Mlp, grads: &MlpGradients, opts: &mut [Adam]) {
    let mut idx = 0;
    mlp.for_each_param_mut(grads, |params, g| {
        opts[idx].step(params, g);
        idx += 1;
    });
}
