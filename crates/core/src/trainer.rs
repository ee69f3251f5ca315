//! The six-step training pipeline (Fig. 2) for both Instant-NGP and
//! Instant-3D models, with workload accounting, an always-on per-step
//! wall-clock profile of the engine ([`Trainer::timer`]) and access
//! tracing through the scalar reference step
//! ([`Trainer::step_scalar_observed`]).
//!
//! Per iteration:
//!
//! 1. **Sample pixels** — a random batch of supervised pixels.
//! 2. **Map to rays** — camera rays through those pixels.
//! 3. **Query features** — hash-grid interpolation (③-①) + MLP heads
//!    (③-②) for every stratified sample surviving occupancy culling.
//! 4. **Volume render** — Eq. 1 compositing per ray.
//! 5. **Loss** — squared error against ground truth (Eq. 2).
//! 6. **Back-propagate** — analytic gradients through ④→③, with the grid
//!    scatter gated by each branch's update schedule (§3.3), then Adam.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::batch::{grid_grads_read, BatchWorkspace};
use crate::config::{GridTopology, TrainConfig};
use crate::eval::EvalResult;
use crate::model::{BranchObserver, ModelGradients, ModelWorkspace, NerfModel, NullBranchObserver};
use crate::profile::{PipelineStep, WorkloadStats};
use crate::schedule::UpdateSchedule;
use crate::timing::StepTimer;
use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::camera::Camera;
use instant3d_nerf::grid::{GridGradients, HashGrid};
use instant3d_nerf::image::RgbImage;
use instant3d_nerf::math::Vec3;
use instant3d_nerf::occupancy::{
    OccupancyGrid, OccupancyRefreshStats, OccupancyWorkspace, RefreshMode,
};
use instant3d_nerf::render::{
    composite_backward_slices, composite_slices, pixel_loss, RayBatch, RayBatchCache,
};
use instant3d_nerf::sampler::{sample_pixel_batch_into, sample_segments_into, Segment, TrainRay};
use instant3d_scenes::Dataset;
use rand::Rng;
use std::time::Instant;

/// Statistics of a single training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepStats {
    /// Mean squared-error loss over the batch.
    pub loss: f32,
    /// Rays in the batch.
    pub rays: usize,
    /// Points queried after occupancy culling.
    pub points: usize,
    /// Whether the density grid received an optimizer step.
    pub density_updated: bool,
    /// Whether the color grid received an optimizer step.
    pub color_updated: bool,
}

/// One PSNR measurement along the training trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsnrPoint {
    /// Iteration at which the evaluation ran.
    pub iteration: u64,
    /// RGB PSNR (dB).
    pub rgb_psnr: f32,
    /// Depth PSNR (dB) — the density-quality probe of Fig. 5.
    pub depth_psnr: f32,
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Final test RGB PSNR (dB); NaN when the run evaluated nothing.
    pub final_psnr: f32,
    /// Final test depth PSNR (dB); NaN when the run evaluated nothing.
    pub final_depth_psnr: f32,
    /// Final batch loss.
    pub final_loss: f32,
    /// PSNR trajectory (empty unless periodic evaluation was requested).
    pub psnr_history: Vec<PsnrPoint>,
    /// Cumulative workload counters for the whole run.
    pub stats: WorkloadStats,
}

/// Trains a [`NerfModel`] on a [`Dataset`].
///
/// # Example
///
/// ```
/// use instant3d_core::{TrainConfig, Trainer};
/// use instant3d_scenes::SceneLibrary;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
/// let mut trainer = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
/// let report = trainer.train(5, &mut rng);
/// assert_eq!(report.iterations, 5);
/// assert!(report.final_psnr.is_nan(), "`train` does not evaluate");
/// ```
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainConfig,
    model: NerfModel,
    density_schedule: UpdateSchedule,
    color_schedule: UpdateSchedule,
    grid_d_opt: Adam,
    grid_c_opt: Option<Adam>,
    sigma_mlp_opts: Vec<Adam>,
    color_mlp_opts: Vec<Adam>,
    occupancy: Option<OccupancyGrid>,
    /// Batched-refresh state: persistent cell→embedding cache, density
    /// EMA store and subset rotation (see `instant3d_nerf::occupancy`).
    occ_ws: OccupancyWorkspace,
    iter: u64,
    stats: WorkloadStats,
    cameras: Vec<Camera>,
    images: Vec<RgbImage>,
    background: Vec3,
    ws: ModelWorkspace,
    /// Gradient buffers. The grid buffers serve the scalar reference step
    /// only: empty until its first step, all `+0.0` between steps (its
    /// optimizer tail consumes, or zeroes, what it scatters).
    grads: ModelGradients,
    /// Batched-engine scratch, reused across iterations. `None` until
    /// the first batched step (or between a detach and the next attach):
    /// the serve layer parks workspaces in a shared pool between job
    /// slices instead of keeping one resident per job.
    bws: Option<BatchWorkspace>,
    /// Fresh `BatchWorkspace` allocations this trainer performed (0 when
    /// every step ran on an attached, pooled workspace after the first).
    bws_allocated: u64,
    ray_scratch: Vec<TrainRay>,
    seg_scratch: Vec<Segment>,
    /// Wall-clock profile of every engine step so far (a fixed array of
    /// durations; the scalar reference steps never touch it).
    timer: StepTimer,
}

/// Charges the time since `*last` to `step` and restarts the lap clock.
#[expect(
    clippy::disallowed_methods,
    reason = "wall-clock telemetry: step timings are logged, never enter gradients or outputs"
)]
fn lap(timer: &mut StepTimer, last: &mut Instant, step: PipelineStep) {
    let now = Instant::now();
    timer.add(step, now - *last);
    *last = now;
}

impl Trainer {
    /// Builds a trainer (model, optimizers, occupancy grid) for a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid or the dataset has no training views.
    pub fn new<R: Rng + ?Sized>(cfg: TrainConfig, dataset: &Dataset, rng: &mut R) -> Self {
        assert!(
            !dataset.train_views.is_empty(),
            "dataset has no training views"
        );
        let model = NerfModel::new(&cfg, dataset.aabb, rng);
        let density_schedule = UpdateSchedule::every(cfg.density_update_every);
        let color_schedule = UpdateSchedule::every(cfg.color_update_every);
        let grid_d_opt = Adam::new(
            AdamConfig {
                lr: cfg.grid_lr,
                ..AdamConfig::for_grid()
            },
            model.density_grid().num_params(),
        );
        let grid_c_opt = model.color_grid().map(|g| {
            Adam::new(
                AdamConfig {
                    lr: cfg.grid_lr,
                    ..AdamConfig::for_grid()
                },
                g.num_params(),
            )
        });
        let mlp_adam = AdamConfig {
            lr: cfg.mlp_lr,
            ..AdamConfig::for_mlp()
        };
        let sigma_mlp_opts = model
            .sigma_mlp()
            .layers()
            .iter()
            .flat_map(|l| {
                let s = l.spec();
                [s.in_dim * s.out_dim, s.out_dim]
            })
            .map(|n| Adam::new(mlp_adam, n))
            .collect();
        let color_mlp_opts = model
            .color_mlp()
            .layers()
            .iter()
            .flat_map(|l| {
                let s = l.spec();
                [s.in_dim * s.out_dim, s.out_dim]
            })
            .map(|n| Adam::new(mlp_adam, n))
            .collect();
        let occupancy = (cfg.occupancy_resolution > 0)
            .then(|| OccupancyGrid::new(dataset.aabb, cfg.occupancy_resolution));
        let ws = model.workspace();
        // The engine merges grid gradients into the grids level by level
        // and keeps no grid-sized columns; the scalar reference step sizes
        // its own on first use.
        let grads = ModelGradients {
            density_grid: GridGradients {
                values: Vec::new(),
                count: 0,
            },
            color_grid: None,
            sigma_mlp: model.sigma_mlp().zero_grads(),
            color_mlp: model.color_mlp().zero_grads(),
        };
        let backend = cfg.kernel_backend.name();
        let occ_ws = OccupancyWorkspace::new(cfg.kernel_backend.clone());
        Trainer {
            cfg,
            model,
            density_schedule,
            color_schedule,
            grid_d_opt,
            grid_c_opt,
            sigma_mlp_opts,
            color_mlp_opts,
            occupancy,
            occ_ws,
            iter: 0,
            stats: WorkloadStats {
                backend,
                ..WorkloadStats::default()
            },
            cameras: dataset.train_cameras(),
            images: dataset.train_images(),
            background: dataset.background,
            ws,
            grads,
            bws: None,
            bws_allocated: 0,
            ray_scratch: Vec::new(),
            seg_scratch: Vec::new(),
            timer: StepTimer::new(),
        }
    }

    /// The model being trained.
    pub fn model(&self) -> &NerfModel {
        &self.model
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Iterations executed so far.
    pub fn iteration(&self) -> u64 {
        self.iter
    }

    /// Cumulative workload counters.
    pub fn stats(&self) -> &WorkloadStats {
        &self.stats
    }

    /// Wall-clock time per pipeline step, accumulated over every
    /// [`Trainer::step`] so far — the native Fig.-4-style profile of this
    /// trainer. Always on: `timer().iterations()` counts engine steps.
    /// The scalar reference steps ([`Trainer::step_scalar`],
    /// [`Trainer::step_scalar_observed`]) are not engine steps and leave
    /// it untouched.
    ///
    /// Step mapping: batch sampling → Step ①; per-ray segment sampling and
    /// direction encoding → Step ②; sizing the step's buffers, the unit
    /// mapping and grid reads → ③-① fwd; MLP heads →
    /// ③-② fwd; compositing and its backward → Step ④; loss → Step ⑤;
    /// head backward + zeroing the MLP gradients + MLP Adam → ③-② bwd;
    /// grid scatter merged per level with the grid optimizer sweep (sparse
    /// Adam, fp16 narrowing and gradient zeroing in one pass) + occupancy
    /// upkeep → ③-① bwd.
    pub fn timer(&self) -> &StepTimer {
        &self.timer
    }

    /// Current occupancy-grid fill fraction (1.0 when disabled).
    pub fn occupancy_fraction(&self) -> f32 {
        self.occupancy
            .as_ref()
            .map_or(1.0, OccupancyGrid::occupancy_fraction)
    }

    /// The trained occupancy grid, when occupancy is enabled — the
    /// culling structure occupancy-guided eval and per-job preview
    /// rendering consult.
    pub fn occupancy_grid(&self) -> Option<&OccupancyGrid> {
        self.occupancy.as_ref()
    }

    /// Hands this trainer a (pooled) batched-engine workspace to run its
    /// next steps on, instead of allocating one lazily. The workspace
    /// carries no cross-iteration state — every buffer is cleared/resized
    /// per step — so attaching one recycled from another job cannot
    /// change this trainer's results.
    ///
    /// Returns the workspace back as `Err` when its
    /// [`shape`](BatchWorkspace::shape) does not fit this trainer's model
    /// (wrong dimensions or kernel backend); any workspace already
    /// attached is dropped in favor of the new one only on success.
    #[allow(
        clippy::result_large_err,
        reason = "the caller gets the rejected workspace back to re-pool instead of losing it"
    )]
    pub fn attach_batch_workspace(&mut self, ws: BatchWorkspace) -> Result<(), BatchWorkspace> {
        if ws.fits(&self.model) {
            self.bws = Some(ws);
            Ok(())
        } else {
            Err(ws)
        }
    }

    /// Takes the batched-engine workspace out of the trainer (for parking
    /// in a reuse pool between job slices). `None` if the trainer has not
    /// run a batched step since construction or the last detach. The next
    /// batched step re-allocates unless a workspace is attached first.
    pub fn detach_batch_workspace(&mut self) -> Option<BatchWorkspace> {
        self.bws.take()
    }

    /// Fresh [`BatchWorkspace`] allocations this trainer performed. Stays
    /// at 1 for a solo run (the lazy first-step allocation) and at 0 for
    /// a serve job fed exclusively from the pool — the counter the fleet
    /// telemetry sums to prove zero steady-state workspace allocation.
    pub fn batch_workspace_allocations(&self) -> u64 {
        self.bws_allocated
    }

    /// Replaces this trainer's occupancy-refresh workspace with `ws`,
    /// returning the previous one. Unlike [`BatchWorkspace`], the
    /// occupancy workspace carries *persistent training state* (density
    /// EMA, subset rotation phase, the per-level-versioned embedding
    /// cache), so a workspace recycled from another job must be
    /// [`reset`](OccupancyWorkspace::reset) first or the new job's
    /// refresh results — and thus its checkpoints — would depend on the
    /// donor job. The handed-in workspace is re-pointed at this trainer's
    /// kernel backend.
    pub fn attach_occupancy_workspace(&mut self, mut ws: OccupancyWorkspace) -> OccupancyWorkspace {
        ws.set_backend(self.cfg.kernel_backend.clone());
        std::mem::replace(&mut self.occ_ws, ws)
    }

    /// Takes the occupancy-refresh workspace out of the trainer (for
    /// recycling when a serve job retires), leaving an empty replacement
    /// behind. The replacement rebuilds its state lazily on the next
    /// refresh, so detaching mid-training changes no results — only the
    /// cost of the next refresh.
    pub fn detach_occupancy_workspace(&mut self) -> OccupancyWorkspace {
        std::mem::replace(
            &mut self.occ_ws,
            OccupancyWorkspace::new(self.cfg.kernel_backend.clone()),
        )
    }

    /// Runs one training iteration on the batched SoA engine — the hot
    /// path and the engine's only entry point. Rays are sampled into
    /// structure-of-arrays buffers on the calling thread, which then
    /// sizes every buffer the rest of the step writes. The per-ray half —
    /// grid encode, both MLP heads, compositing, the loss and the
    /// backward through compositing and heads — runs over consecutive
    /// chunks of whole rays, at most 4,096 samples each, so the step
    /// keeps MLP activations for one chunk, not the whole batch. The grid
    /// scatter and optimizer, the MLP optimizer and the occupancy refresh
    /// then run once over the whole batch. Everything after sampling runs
    /// on the rayon pool, which a caller outside it enters once per step;
    /// no pool worker allocates (see [`crate::batch`]).
    /// Results are bit-identical to [`Trainer::step_scalar`] and
    /// independent of the worker count. Every stage's wall-clock time is
    /// charged to [`Trainer::timer`] (a chunked stage's laps add up).
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> StepStats {
        self.step_batched_impl(rng)
    }

    /// Runs one training iteration on the scalar point-at-a-time
    /// reference implementation. The batched engine is gated against this
    /// path by golden tests (identical losses, parameters and workload
    /// counters).
    pub fn step_scalar<R: Rng + ?Sized>(&mut self, rng: &mut R) -> StepStats {
        self.step_impl(rng, &mut NullBranchObserver)
    }

    /// Scalar reference iteration (see [`Trainer::step_scalar`]) reporting
    /// every grid access to `obs` in the paper's point-major order, feed-
    /// forward reads and back-propagation writes interleaved ray by ray —
    /// the one recorder of grid address streams: `instant3d-trace` captures
    /// the Figs. 8–10 streams through it, and the FRM/BUM replays read
    /// them back flattened. [`Trainer::step`] has this step's bits, and
    /// its scatter order per grid is the trace's level-major update stream
    /// (pinned by `tests/batched_equivalence.rs`).
    pub fn step_scalar_observed<R: Rng + ?Sized, O: BranchObserver + ?Sized>(
        &mut self,
        rng: &mut R,
        obs: &mut O,
    ) -> StepStats {
        self.step_impl(rng, obs)
    }

    /// The batched SoA training iteration (see [`crate::batch`]).
    fn step_batched_impl<R: Rng + ?Sized>(&mut self, rng: &mut R) -> StepStats {
        use PipelineStep as Ps;
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock telemetry: step timings are logged, never enter gradients or outputs"
        )]
        let mut last = Instant::now();
        let update_density = self.density_schedule.should_update(self.iter);
        let update_color = match self.model.topology() {
            GridTopology::Coupled => update_density,
            GridTopology::Decoupled => self.color_schedule.should_update(self.iter),
        };

        // Step ①: pixel batch (same RNG stream as the scalar path).
        sample_pixel_batch_into(
            &self.cameras,
            &self.images,
            self.cfg.rays_per_batch,
            rng,
            &mut self.ray_scratch,
        );
        lap(&mut self.timer, &mut last, Ps::SamplePixels);
        self.zero_mlp_grads();
        lap(&mut self.timer, &mut last, Ps::MlpBackward);

        // Step ② + ③ sampling: stratified segments and occupancy culling,
        // filling the SoA buffers ray by ray (RNG order matches scalar).
        // The workspace is taken out of its slot for the step so the
        // pipeline stages can borrow model and scratch independently; a
        // missing workspace (first step, or detached into the serve pool)
        // is allocated fresh and counted.
        let mut bws = match self.bws.take() {
            Some(ws) => ws,
            None => {
                self.bws_allocated += 1;
                BatchWorkspace::new(&self.model)
            }
        };
        let aabb = self.model.aabb();
        bws.clear();
        bws.reserve_rays(self.ray_scratch.len());
        for (r, tr) in self.ray_scratch.iter().enumerate() {
            sample_segments_into(
                &tr.ray,
                &aabb,
                self.cfg.samples_per_ray,
                Some(rng),
                &mut self.seg_scratch,
            );
            self.model.encode_dir(tr.ray.dir, bws.sh_row_mut(r));
            for &(t, dt) in &self.seg_scratch {
                let p = tr.ray.at(t);
                if let Some(occ) = &self.occupancy {
                    if !occ.occupied_at(p) {
                        continue;
                    }
                }
                bws.rays.push_sample(t, dt);
                bws.positions.push(p);
                bws.point_ray.push(r as u32);
            }
            bws.rays.end_ray();
        }
        let total_points = bws.num_points();
        lap(&mut self.timer, &mut last, Ps::MapRays);

        // Every buffer the pool entry below writes is sized here, on the
        // calling thread, so no worker allocates (see `crate::batch`).
        let reads = grid_grads_read(&self.model, update_density, update_color);
        bws.prepare_step(&self.model, reads);
        if let Some(occ) = self.occupancy.as_ref().filter(|_| self.refresh_due()) {
            self.occ_ws.reserve(
                occ,
                self.model.density_grid(),
                self.model.sigma_mlp(),
                self.model.aabb(),
                self.cfg.occupancy_subset,
            );
        }
        lap(&mut self.timer, &mut last, Ps::GridForward);

        // Stages ③ through the occupancy refresh are one pool entry: a
        // caller outside the pool bridges into it once per step, and every
        // parallel region below runs as nested joins on the worker that
        // executes this closure. Sampling stays on the caller (its RNG
        // need not be `Send`).
        let inv_batch = 1.0 / self.ray_scratch.len().max(1) as f32;
        let (total_loss, occ_refresh) = rayon::scope(|_| {
            // The per-ray half, one chunk of whole rays at a time: the
            // loss and the MLP parameter gradients carry over from chunk
            // to chunk in ray and sample order.
            let mut total_loss = 0.0f32;
            for c in 0..bws.num_chunks() {
                let chunk = bws.chunk(c);
                // Step ③ forward.
                bws.encode_chunk(&self.model, &chunk);
                lap(&mut self.timer, &mut last, Ps::GridForward);
                bws.heads_forward_chunk(&self.model, &chunk);
                lap(&mut self.timer, &mut last, Ps::MlpForward);

                // Step ④: composite; Step ⑤: loss.
                bws.composite_chunk(&chunk, self.background);
                lap(&mut self.timer, &mut last, Ps::VolumeRender);
                let rays = &self.ray_scratch;
                bws.loss_chunk(&chunk, |r| rays[r].target, inv_batch, &mut total_loss);
                lap(&mut self.timer, &mut last, Ps::ComputeLoss);

                // Step ⑥: backward through rendering and heads.
                bws.render_backward_chunk(&chunk, self.background);
                lap(&mut self.timer, &mut last, Ps::VolumeRender);
                bws.heads_backward_chunk(&self.model, &mut self.grads, &chunk, reads);
                lap(&mut self.timer, &mut last, Ps::MlpBackward);
            }
            // Grid scatter and grid Adam over the whole batch, merged per
            // level: one ③-① backward lap.
            bws.grid_step(
                &mut self.model,
                &mut self.grid_d_opt,
                self.grid_c_opt.as_mut(),
                update_density,
                update_color,
            );
            lap(&mut self.timer, &mut last, Ps::GridBackward);

            // The iteration tail shared with the scalar reference step.
            self.apply_mlp_steps();
            lap(&mut self.timer, &mut last, Ps::MlpBackward);
            let occ_refresh = self.refresh_occupancy();
            lap(&mut self.timer, &mut last, Ps::GridBackward);
            (total_loss, occ_refresh)
        });
        self.bws = Some(bws);
        self.timer.end_iteration();

        let rays = self.ray_scratch.len();
        self.finish_step(
            update_density,
            update_color,
            rays,
            total_points,
            occ_refresh,
        );
        StepStats {
            loss: total_loss * inv_batch,
            rays,
            points: total_points,
            density_updated: update_density,
            color_updated: update_color,
        }
    }

    fn step_impl<R: Rng + ?Sized, O: BranchObserver + ?Sized>(
        &mut self,
        rng: &mut R,
        obs: &mut O,
    ) -> StepStats {
        let update_density = self.density_schedule.should_update(self.iter);
        let update_color = match self.model.topology() {
            GridTopology::Coupled => update_density,
            GridTopology::Decoupled => self.color_schedule.should_update(self.iter),
        };

        if self.grads.density_grid.values.is_empty() {
            self.grads.density_grid = self.model.density_grid().zero_grads();
            self.grads.color_grid = self.model.color_grid().map(HashGrid::zero_grads);
        }

        // Steps ① + ②: pixel batch → rays.
        let mut batch = Vec::new();
        sample_pixel_batch_into(
            &self.cameras,
            &self.images,
            self.cfg.rays_per_batch,
            rng,
            &mut batch,
        );
        self.zero_mlp_grads();

        let emb_d_dim = self.model.density_grid().output_dim();
        let emb_c_dim = self.ws.emb_c.len();
        let mut sh = vec![0.0; self.model.sh_dim()];
        let mut segs = Vec::new();
        let mut positions: Vec<Vec3> = Vec::with_capacity(self.cfg.samples_per_ray);
        let mut emb_d_cache: Vec<f32> = Vec::new();
        let mut emb_c_cache: Vec<f32> = Vec::new();
        // One ray at a time through the batch buffers, reused across rays.
        let mut ray = RayBatch::new();
        let mut cache = RayBatchCache::default();
        let mut d_sigma: Vec<f32> = Vec::new();
        let mut d_rgb: Vec<Vec3> = Vec::new();

        let mut total_loss = 0.0f32;
        let mut total_points = 0usize;
        let inv_batch = 1.0 / batch.len().max(1) as f32;

        for tr in &batch {
            // Step ③ sampling: stratified + occupancy culling.
            sample_segments_into(
                &tr.ray,
                &self.model.aabb(),
                self.cfg.samples_per_ray,
                Some(rng),
                &mut segs,
            );
            ray.clear();
            positions.clear();
            emb_d_cache.clear();
            emb_c_cache.clear();
            self.model.encode_dir(tr.ray.dir, &mut sh);

            for &(t, dt) in &segs {
                let p = tr.ray.at(t);
                if let Some(occ) = &self.occupancy {
                    if !occ.occupied_at(p) {
                        continue;
                    }
                }
                // Step ③-① forward: grid reads.
                self.model.encode_point(p, &mut self.ws, obs);
                // Step ③-② forward: MLP heads.
                let k = positions.len();
                ray.push_sample(t, dt);
                (ray.sigma[k], ray.rgb[k]) = self.model.heads_forward(&sh, &mut self.ws);
                positions.push(p);
                emb_d_cache.extend_from_slice(&self.ws.emb_d);
                emb_c_cache.extend_from_slice(&self.ws.emb_c);
            }
            ray.end_ray();
            let n = positions.len();
            total_points += n;

            // Step ④: composite; Step ⑤: loss.
            cache.reserve_for(&ray);
            let rows = (
                &mut cache.weights[..],
                &mut cache.trans[..],
                &mut cache.one_minus_alpha[..],
            );
            let (t, dt, sigma, rgb) = (&ray.t, &ray.dt, &ray.sigma, &ray.rgb);
            let (out, active) = composite_slices(t, dt, sigma, rgb, self.background, Some(rows));
            let (loss, d_color_raw) = pixel_loss(out.color, tr.target);
            total_loss += loss;
            let d_color = d_color_raw * inv_batch;

            // Step ⑥: backward through rendering, heads and grids.
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
                d_color,
                &mut d_sigma,
                &mut d_rgb,
            );
            for (k, p) in positions.iter().enumerate() {
                self.model.heads_backward(
                    &emb_d_cache[k * emb_d_dim..(k + 1) * emb_d_dim],
                    &emb_c_cache[k * emb_c_dim..(k + 1) * emb_c_dim],
                    &sh,
                    d_sigma[k],
                    d_rgb[k],
                    &mut self.ws,
                    &mut self.grads,
                );
                self.model
                    .scatter_grids(*p, &mut self.ws, &mut self.grads, obs, update_color);
            }
        }

        self.apply_grid_steps(update_density, update_color);
        self.apply_mlp_steps();
        let occ_refresh = self.refresh_occupancy();
        self.finish_step(
            update_density,
            update_color,
            batch.len(),
            total_points,
            occ_refresh,
        );
        StepStats {
            loss: total_loss * inv_batch,
            rays: batch.len(),
            points: total_points,
            density_updated: update_density,
            color_updated: update_color,
        }
    }

    // The iteration tail, shared by the batched and the scalar path so
    // their side effects are identical: MLP Adam, occupancy refresh, then
    // `finish_step`. The engine laps its clock between them.

    /// Step-start gradient reset: only the MLP buffers need one, because
    /// the previous reference step's [`Trainer::apply_grid_steps`] left both
    /// grid buffers zero (and the engine never touches them).
    fn zero_mlp_grads(&mut self) {
        debug_assert!(
            std::iter::once(&self.grads.density_grid)
                .chain(&self.grads.color_grid)
                .all(|g| g.count == 0 && g.values.iter().all(|v| v.to_bits() == 0)),
            "grid gradients must be all-zero between steps"
        );
        self.grads.sigma_mlp.zero();
        self.grads.color_mlp.zero();
    }

    /// The scalar reference step's grid optimizer tail, gated by the update
    /// schedules: one consuming sweep per updating grid (sparse Adam + fp16
    /// narrowing + precise per-level version bumps + gradient zeroing;
    /// levels no step touched keep their cached occupancy embeddings
    /// valid). The engine runs the same sweep per level inside
    /// `BatchWorkspace::grid_step`.
    fn apply_grid_steps(&mut self, update_density: bool, update_color: bool) {
        let grads = &mut self.grads.density_grid;
        if update_density {
            self.model
                .density_grid_mut()
                .apply_step_consuming(&mut self.grid_d_opt, grads);
        } else {
            // The density head back-propagates every step, so this buffer
            // was scattered into even though its grid sits this one out.
            grads.zero();
        }
        // A color grid that does not update was not scattered into.
        if update_color {
            if let (Some(grid), Some(opt), Some(grads)) = (
                self.model.color_grid_mut(),
                self.grid_c_opt.as_mut(),
                self.grads.color_grid.as_mut(),
            ) {
                grid.apply_step_consuming(opt, grads);
            }
        }
    }

    /// Dense Adam steps on both MLP heads.
    fn apply_mlp_steps(&mut self) {
        {
            let mut idx = 0;
            let opts = &mut self.sigma_mlp_opts;
            self.model.sigma_mlp_mut().for_each_param_mut(
                &self.grads.sigma_mlp,
                |params, grads| {
                    opts[idx].step(params, grads);
                    idx += 1;
                },
            );
        }
        {
            let mut idx = 0;
            let opts = &mut self.color_mlp_opts;
            self.model.color_mlp_mut().for_each_param_mut(
                &self.grads.color_mlp,
                |params, grads| {
                    opts[idx].step(params, grads);
                    idx += 1;
                },
            );
        }
    }

    /// Occupancy refresh (decayed density EMA, thresholded) on the
    /// iterations that schedule one, through the batched occupancy
    /// subsystem: embeddings come from the persistent per-level-versioned
    /// cache, only this round's cell subset is re-probed, and the kernels
    /// dispatch on the configured backend — identical bits for every
    /// backend and worker count.
    fn refresh_occupancy(&mut self) -> Option<OccupancyRefreshStats> {
        if !self.refresh_due() {
            return None;
        }
        let occ = self.occupancy.as_mut()?;
        Some(self.occ_ws.refresh(
            occ,
            self.model.density_grid(),
            self.model.sigma_mlp(),
            self.model.aabb(),
            self.cfg.occupancy_threshold,
            RefreshMode::DecayedEma,
            self.cfg.occupancy_subset,
        ))
    }

    /// Whether this iteration ends with an occupancy refresh.
    fn refresh_due(&self) -> bool {
        let every = self.cfg.occupancy_update_every as u64;
        self.occupancy.is_some() && self.iter % every == every - 1
    }

    /// Learning-rate decay, workload accounting and the iteration counter.
    fn finish_step(
        &mut self,
        update_density: bool,
        update_color: bool,
        rays: usize,
        total_points: usize,
        occ_refresh: Option<OccupancyRefreshStats>,
    ) {
        // Learning-rate schedule: exponential decay every N iterations.
        if self.cfg.lr_decay_factor < 1.0
            && (self.iter + 1).is_multiple_of(self.cfg.lr_decay_every as u64)
        {
            let f = self.cfg.lr_decay_factor;
            let lr = self.grid_d_opt.config().lr * f;
            self.grid_d_opt.set_lr(lr);
            if let Some(opt) = self.grid_c_opt.as_mut() {
                let lr = opt.config().lr * f;
                opt.set_lr(lr);
            }
            for opt in self
                .sigma_mlp_opts
                .iter_mut()
                .chain(self.color_mlp_opts.iter_mut())
            {
                let lr = opt.config().lr * f;
                opt.set_lr(lr);
            }
        }

        // Workload accounting.
        let rd = self.model.density_grid().reads_per_point() as u64;
        let rc = self
            .model
            .color_grid()
            .map_or(0, |g| g.reads_per_point() as u64);
        let pts = total_points as u64;
        let mlp_ff = self.model.mlp_flops_per_point() as u64 * pts;
        self.stats.merge(&WorkloadStats {
            backend: self.stats.backend,
            iterations: 1,
            rays: rays as u64,
            points: pts,
            density_reads_ff: rd * pts,
            color_reads_ff: rc * pts,
            density_writes_bp: if update_density || self.model.topology() == GridTopology::Coupled {
                rd * pts
            } else {
                0
            },
            color_writes_bp: if update_color { rc * pts } else { 0 },
            mlp_flops_ff: mlp_ff,
            mlp_flops_bp: 2 * mlp_ff,
            render_samples: pts,
            occupancy_refreshes: occ_refresh.is_some() as u64,
            occupancy_probes: occ_refresh.map_or(0, |r| r.cells_probed as u64),
            occupancy_reads_ff: occ_refresh.map_or(0, |r| r.grid_reads),
        });

        self.iter += 1;
    }

    /// Trains for `iterations` steps without evaluating: the report's
    /// `final_psnr` and `final_depth_psnr` are NaN and its history is
    /// empty. Use [`Trainer::train_with_eval`] to score the model.
    pub fn train<R: Rng + ?Sized>(&mut self, iterations: u64, rng: &mut R) -> TrainReport {
        self.train_with_eval(iterations, 0, None, rng)
    }

    /// Trains for `iterations` steps. With a `dataset`, evaluates on its
    /// test views every `eval_every` iterations (0 = never mid-run) and
    /// once at the end; without one, evaluates nothing, and the final
    /// PSNRs are NaN.
    pub fn train_with_eval<R: Rng + ?Sized>(
        &mut self,
        iterations: u64,
        eval_every: u64,
        dataset: Option<&Dataset>,
        rng: &mut R,
    ) -> TrainReport {
        let mut history = Vec::new();
        let mut last_loss = 0.0;
        for i in 0..iterations {
            let s = self.step(rng);
            last_loss = s.loss;
            if eval_every > 0 && (i + 1) % eval_every == 0 {
                if let Some(ds) = dataset {
                    let e = self.evaluate(ds);
                    history.push(PsnrPoint {
                        iteration: self.iter,
                        rgb_psnr: e.rgb_psnr,
                        depth_psnr: e.depth_psnr,
                    });
                }
            }
        }
        let (final_psnr, final_depth) = match dataset {
            Some(ds) => {
                let e = self.evaluate(ds);
                (e.rgb_psnr, e.depth_psnr)
            }
            None => (f32::NAN, f32::NAN),
        };
        TrainReport {
            iterations: self.iter,
            final_psnr,
            final_depth_psnr: final_depth,
            final_loss: last_loss,
            psnr_history: history,
            stats: self.stats,
        }
    }

    /// Evaluates the current model on a dataset's test views, sampling
    /// every ray uniformly (see [`Trainer::evaluate_with_occupancy`] for
    /// empty-space skipping).
    pub fn evaluate(&self, dataset: &Dataset) -> EvalResult {
        crate::eval::evaluate_with(&self.model, dataset, self.cfg.eval_samples_per_ray, None)
    }

    /// Evaluates with sampling guided by the trainer's occupancy grid
    /// (no difference when occupancy is disabled).
    pub fn evaluate_with_occupancy(&self, dataset: &Dataset) -> EvalResult {
        crate::eval::evaluate_with(
            &self.model,
            dataset,
            self.cfg.eval_samples_per_ray,
            self.occupancy.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant3d_nerf::hash::AddressMode;
    use instant3d_scenes::SceneLibrary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        SceneLibrary::synthetic_scene(0, 16, 4, &mut rng)
    }

    #[test]
    fn single_step_runs_and_counts() {
        let ds = quick_dataset(1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut t = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
        let s = t.step(&mut rng);
        assert_eq!(s.rays, t.config().rays_per_batch);
        assert!(s.points > 0, "some samples must survive");
        assert!(s.loss.is_finite() && s.loss >= 0.0);
        assert_eq!(t.iteration(), 1);
        assert_eq!(t.stats().iterations, 1);
        assert!(t.stats().density_reads_ff > 0);
    }

    #[test]
    fn a_level_resolution_past_the_cube_root_of_u64_trains() {
        // `(r + 1)³` overflows u64 from r = 2 642 245 on; such a level
        // hashes, as in `TrainConfig::validate`, and both step paths run.
        let mut cfg = TrainConfig::fast_preview();
        cfg.grid.max_resolution = u32::MAX;
        assert_eq!(cfg.validate(), Ok(()));
        let ds = quick_dataset(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut t = Trainer::new(cfg, &ds, &mut rng);
        let finest = t.model().density_grid().levels().last().cloned();
        assert_eq!(finest.map(|l| l.mode), Some(AddressMode::Hashed));
        assert!(t.step(&mut rng).loss.is_finite());
        assert!(t.step_scalar(&mut rng).loss.is_finite());
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = quick_dataset(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut t = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
        let first: f32 = (0..5).map(|_| t.step(&mut rng).loss).sum::<f32>() / 5.0;
        for _ in 0..60 {
            t.step(&mut rng);
        }
        let last: f32 = (0..5).map(|_| t.step(&mut rng).loss).sum::<f32>() / 5.0;
        assert!(
            last < first * 0.8,
            "loss should drop substantially: {first} → {last}"
        );
    }

    #[test]
    fn color_schedule_gates_color_updates() {
        let ds = quick_dataset(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut cfg = TrainConfig::fast_preview();
        cfg.color_update_every = 2;
        let mut t = Trainer::new(cfg, &ds, &mut rng);
        let s0 = t.step(&mut rng);
        let s1 = t.step(&mut rng);
        assert!(s0.color_updated);
        assert!(!s1.color_updated);
        assert!(s0.density_updated && s1.density_updated);
        // BP write accounting reflects the skipped color iteration.
        let per_point_c = t.model().color_grid().unwrap().reads_per_point() as u64;
        assert!(t.stats().color_writes_bp < per_point_c * t.stats().points);
    }

    #[test]
    fn coupled_topology_trains_too() {
        let ds = quick_dataset(7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = GridTopology::Coupled;
        let mut t = Trainer::new(cfg, &ds, &mut rng);
        let s = t.step(&mut rng);
        assert!(s.loss.is_finite());
        assert_eq!(t.stats().color_reads_ff, 0, "coupled model has one grid");
    }

    #[test]
    fn train_report_contains_history() {
        let ds = quick_dataset(9);
        let mut rng = StdRng::seed_from_u64(10);
        let mut t = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
        let report = t.train_with_eval(6, 3, Some(&ds), &mut rng);
        assert_eq!(report.iterations, 6);
        assert_eq!(report.psnr_history.len(), 2);
        assert!(report.final_psnr.is_finite());
        assert!(report.stats.points > 0);
    }

    #[test]
    fn timed_step_matches_untimed_semantics_and_profiles_grid() {
        let ds = quick_dataset(21);
        let mut rng = StdRng::seed_from_u64(22);
        let mut t = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
        assert_eq!(t.timer(), &StepTimer::new(), "a fresh trainer's timer");
        for i in 0..8 {
            let s = t.step(&mut rng);
            assert!(s.loss.is_finite());
            // The timer describes engine steps only: interleaved
            // reference steps leave it bit-for-bit unchanged.
            let before = t.timer().clone();
            assert_eq!(before.iterations(), i + 1);
            t.step_scalar(&mut rng);
            t.step_scalar_observed(&mut rng, &mut NullBranchObserver);
            assert_eq!(t.timer(), &before);
        }
        let timer = t.timer();
        assert_eq!(timer.iterations(), 8);
        assert!(timer.total().as_nanos() > 0);
        // Grid interpolation should be a major share of the native runtime
        // too (the paper's Fig. 4 claim holds for this implementation).
        let g = timer.grid_interpolation_fraction();
        assert!(
            g > 0.2,
            "grid interpolation share {g:.2} unexpectedly small natively"
        );
        // Timing must not change semantics: same iteration counter path.
        assert_eq!(t.iteration(), 24);
    }

    #[test]
    fn lr_decay_shrinks_learning_rates() {
        let ds = quick_dataset(31);
        let mut rng = StdRng::seed_from_u64(32);
        let mut cfg = TrainConfig::fast_preview();
        cfg.lr_decay_factor = 0.5;
        cfg.lr_decay_every = 4;
        let grid_lr0 = cfg.grid_lr;
        let mut t = Trainer::new(cfg, &ds, &mut rng);
        for _ in 0..8 {
            t.step(&mut rng);
        }
        // Two decay events fired → lr quartered.
        let lr_now = t.grid_d_opt.config().lr;
        assert!(
            (lr_now - grid_lr0 * 0.25).abs() < 1e-6,
            "lr {lr_now} vs expected {}",
            grid_lr0 * 0.25
        );
    }

    #[test]
    fn occupancy_eventually_culls_empty_space() {
        let ds = quick_dataset(11);
        let mut rng = StdRng::seed_from_u64(12);
        let mut cfg = TrainConfig::fast_preview();
        cfg.occupancy_update_every = 8;
        let mut t = Trainer::new(cfg, &ds, &mut rng);
        assert_eq!(t.occupancy_fraction(), 1.0);
        for _ in 0..60 {
            t.step(&mut rng);
        }
        assert!(
            t.occupancy_fraction() < 1.0,
            "occupancy should cull something after training"
        );
        // Refresh telemetry: 60 iterations at update_every = 8 → 7
        // refreshes, each probing the full grid (subset stride 1).
        let cells = 12u64 * 12 * 12; // fast_preview occupancy_resolution = 12
        assert_eq!(t.stats().occupancy_refreshes, 7);
        assert_eq!(t.stats().occupancy_probes, 7 * cells);
        assert!(t.stats().occupancy_reads_ff > 0);
    }

    #[test]
    fn occupancy_subset_refresh_still_culls_and_amortizes() {
        let ds = quick_dataset(13);
        let mut rng = StdRng::seed_from_u64(14);
        let mut cfg = TrainConfig::fast_preview();
        cfg.occupancy_update_every = 4;
        cfg.occupancy_subset = 4;
        let mut t = Trainer::new(cfg, &ds, &mut rng);
        for _ in 0..64 {
            t.step(&mut rng);
        }
        assert!(
            t.occupancy_fraction() < 1.0,
            "subset refreshes should still cull empty space"
        );
        // Each refresh probes ~1/4 of the cells.
        let cells = 12u64 * 12 * 12;
        let refreshes = t.stats().occupancy_refreshes;
        assert_eq!(refreshes, 16);
        assert!(
            t.stats().occupancy_probes <= refreshes * cells.div_ceil(4),
            "probes {} exceed the subset budget",
            t.stats().occupancy_probes
        );
    }
}
