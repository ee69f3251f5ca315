//! The batched SoA execution engine (the training hot path, and the tile
//! renderer's forward-only pass).
//!
//! Where the scalar reference path walks one point at a time through
//! encode → heads → composite → backward, this module runs each pipeline
//! stage once over the *whole ray batch*, on structure-of-arrays buffers
//! owned by a [`BatchWorkspace`] that is allocated once and reused every
//! iteration. A warm step allocates nothing on one worker; on more, its
//! one pool entry ([`Trainer::step`](crate::Trainer::step) runs every
//! stage from encode through the occupancy refresh inside one
//! `rayon::scope`) costs two allocations, the bridge job's box and its
//! latch's `Arc`. `tests/step_alloc.rs` pins both counts.
//!
//! Stage parallelism (via `rayon`) is organised so every concurrent write
//! targets a disjoint region and every per-parameter accumulation runs in
//! point order:
//!
//! * grid encode — point chunks, each writing its own embedding rows;
//! * MLP forward/backward — inside `instant3d-nerf`, one region per head
//!   forward over item blocks and two per head backward: item blocks
//!   (activation derivatives, input gradients), then parameter-gradient
//!   tiles. The colour head's input gradient covers its `emb_c` columns
//!   only;
//! * grid scatter and the grid optimizer tail — one lane per worker, each
//!   claiming whole levels in turn, scattering a level into a level-sized
//!   buffer of its own and sweeping sparse Adam over that level's table
//!   with it.
//!
//! Consequences, both load-bearing for the test suite:
//!
//! 1. **Scalar equivalence** — batched results are bit-identical to the
//!    scalar reference path (same per-point arithmetic, same accumulation
//!    order per parameter).
//! 2. **Thread-count determinism** — results are bit-identical for any
//!    worker count, because no reduction order depends on scheduling.
//!
//! The same workspace serves the tile renderer through a pass of its own,
//! [`BatchWorkspace::render`]. Both passes run the heads through the one
//! MLP forward driver of `instant3d-nerf`, and both build the colour
//! head's input rows, `[emb ‖ sh(ray)]`, with one row fill that writes
//! them straight into the driver's blocks. They differ in two things
//! only: the training forward visits every sample and keeps every
//! block's activations for the backward
//! ([`Mlp::forward_batch_with`](instant3d_nerf::mlp::Mlp::forward_batch_with)),
//! and the render pass runs the colour head on the samples each ray
//! integrates before early termination, in the driver's forward-only mode
//! ([`MlpBatchWorkspace::forward_only`]: one block of scratch per worker
//! run, no activation kept). The render pass's buffers — the prefix
//! sample list, the gathered positions — live here too, so a pooled
//! workspace renders a warm tile without allocating
//! (`tests/render_alloc.rs`).
//!
//! The engine takes no access observer. Grid address streams have one
//! recorder, the scalar reference step
//! ([`Trainer::step_scalar_observed`](crate::Trainer::step_scalar_observed)):
//! the engine has its bits, and `tests/batched_equivalence.rs` pins the
//! engine's per-grid scatter order to that trace's level-major stream.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::config::GridTopology;
use crate::model::{ModelGradients, NerfModel};
use instant3d_nerf::adam::Adam;
use instant3d_nerf::grid::HashGrid;
use instant3d_nerf::grid::LevelBuffers;
use instant3d_nerf::kernels::BackendHandle;
use instant3d_nerf::math::Vec3;
use instant3d_nerf::mlp::MlpBatchWorkspace;
use instant3d_nerf::render::{
    composite_backward_slices, integrated_prefix, RayBatch, RayBatchCache, RenderOutput,
};
use std::ops::Range;

/// Preallocated SoA buffers for one training/eval iteration of the batched
/// engine. Create once per trainer (or per eval worker) with
/// [`BatchWorkspace::new`]; every buffer grows to its high-water mark and
/// is then reused.
#[derive(Debug)]
pub struct BatchWorkspace {
    /// Per-ray sample SoA (`t`, `dt`, `σ`, `rgb` + ray offsets).
    pub rays: RayBatch,
    /// World-space position per sample.
    pub positions: Vec<Vec3>,
    /// Owning ray index per sample.
    pub point_ray: Vec<u32>,
    /// SH direction encoding per *ray* (`rays × sh_dim`).
    pub sh: Vec<f32>,
    /// Compositing state + per-ray outputs, retained for backward.
    pub cache: RayBatchCache,
    /// dL/dĈ per ray (filled by the loss stage).
    pub d_color: Vec<Vec3>,

    pub(crate) unit_positions: Vec<Vec3>,
    pub(crate) emb_d: Vec<f32>,
    /// The colour-grid embeddings (decoupled grids only: a coupled model's
    /// colour head reads `emb_d`).
    pub(crate) emb_c: Vec<f32>,
    pub(crate) ws_sigma: MlpBatchWorkspace,
    pub(crate) ws_color: MlpBatchWorkspace,
    pub(crate) d_sigma: Vec<f32>,
    pub(crate) d_rgb: Vec<Vec3>,
    pub(crate) d_rgb_flat: Vec<f32>,
    pub(crate) d_emb_d: Vec<f32>,
    pub(crate) d_emb_c: Vec<f32>,
    /// Per-ray `(t, δt)` segment scratch for occupancy-guided sampling
    /// (the tile renderer's `sample_segments_occupancy_into` buffer).
    /// Rides with the workspace so pooled reuse keeps its capacity.
    pub(crate) seg_scratch: Vec<(f32, f32)>,
    /// The render pass's prefix samples: every sample a ray integrates
    /// before early termination, in sample order.
    prefix: Vec<u32>,
    /// Unit positions of the prefix samples (decoupled grids only: the
    /// colour-grid encode input).
    prefix_positions: Vec<Vec3>,
    /// Zeroed level-sized gradient buffers for [`BatchWorkspace::grid_step`],
    /// at most one per worker.
    grid_buffers: LevelBuffers,

    sh_dim: usize,
    emb_d_dim: usize,
    emb_c_dim: usize,
    color_in_dim: usize,
    backend: BackendHandle,
}

/// Structural compatibility key for sharing a [`BatchWorkspace`] across
/// models — the serve layer's workspace reuse pool hands a parked
/// workspace to any job whose model has the same shape. Every internal
/// buffer is (re)sized per call from these dimensions (the MLP scratch
/// serves any network), so equal shapes ⇒ safe reuse; the buffers
/// themselves carry no cross-iteration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkspaceShape {
    /// Kernel-backend registry name (the dispatch handle is baked into
    /// the workspace, so shape compatibility includes the backend).
    pub backend: &'static str,
    /// SH direction-encoding width.
    pub sh_dim: usize,
    /// Density-grid embedding width.
    pub emb_d_dim: usize,
    /// Color-branch embedding width.
    pub emb_c_dim: usize,
    /// Color-head input width.
    pub color_in_dim: usize,
}

impl WorkspaceShape {
    /// The shape a workspace for `model` (on the model's backend) has.
    pub fn of(model: &NerfModel) -> Self {
        WorkspaceShape {
            backend: model.kernel_backend().name(),
            sh_dim: model.sh_dim(),
            emb_d_dim: model.density_grid().output_dim(),
            emb_c_dim: model.color_mlp().in_dim() - model.sh_dim(),
            color_in_dim: model.color_mlp().in_dim(),
        }
    }
}

impl BatchWorkspace {
    /// Allocates a workspace shaped for `model`, running the model's
    /// kernel backend ([`NerfModel::kernel_backend`]).
    pub fn new(model: &NerfModel) -> Self {
        let emb_c_dim = model.color_mlp().in_dim() - model.sh_dim();
        BatchWorkspace {
            rays: RayBatch::new(),
            positions: Vec::new(),
            point_ray: Vec::new(),
            sh: Vec::new(),
            cache: RayBatchCache::default(),
            d_color: Vec::new(),
            unit_positions: Vec::new(),
            emb_d: Vec::new(),
            emb_c: Vec::new(),
            ws_sigma: model.sigma_mlp().batch_workspace(0),
            ws_color: model.color_mlp().batch_workspace(0),
            d_sigma: Vec::new(),
            d_rgb: Vec::new(),
            d_rgb_flat: Vec::new(),
            d_emb_d: Vec::new(),
            d_emb_c: Vec::new(),
            seg_scratch: Vec::new(),
            prefix: Vec::new(),
            prefix_positions: Vec::new(),
            grid_buffers: LevelBuffers::new(),
            sh_dim: model.sh_dim(),
            emb_d_dim: model.density_grid().output_dim(),
            emb_c_dim,
            color_in_dim: model.color_mlp().in_dim(),
            backend: model.kernel_backend().clone(),
        }
    }

    /// The kernel backend this workspace dispatches to.
    pub fn backend(&self) -> &BackendHandle {
        &self.backend
    }

    /// This workspace's structural shape (see [`WorkspaceShape`]).
    pub fn shape(&self) -> WorkspaceShape {
        WorkspaceShape {
            backend: self.backend.name(),
            sh_dim: self.sh_dim,
            emb_d_dim: self.emb_d_dim,
            emb_c_dim: self.emb_c_dim,
            color_in_dim: self.color_in_dim,
        }
    }

    /// Whether this workspace can serve `model` (equal shapes, same
    /// backend) — the reuse-pool compatibility predicate.
    pub fn fits(&self, model: &NerfModel) -> bool {
        self.shape() == WorkspaceShape::of(model)
    }

    /// Samples currently in the batch.
    pub fn num_points(&self) -> usize {
        self.rays.num_samples()
    }

    /// Completed rays currently in the batch.
    pub fn num_rays(&self) -> usize {
        self.rays.num_rays()
    }

    /// Resets all per-iteration state (buffer capacity is kept).
    pub fn clear(&mut self) {
        self.rays.clear();
        self.positions.clear();
        self.point_ray.clear();
        self.sh.clear();
        self.seg_scratch.clear();
    }

    /// Sizes the per-ray SH rows and colour gradients for `rays` rays
    /// (callers then fill SH row `r` through
    /// [`BatchWorkspace::sh_row_mut`] and [`NerfModel::encode_dir`]).
    pub fn reserve_rays(&mut self, rays: usize) {
        self.sh.resize(rays * self.sh_dim, 0.0);
        self.d_color.resize(rays, Vec3::ZERO);
    }

    /// The SH row of ray `r`.
    #[inline]
    pub fn sh_row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.sh[r * self.sh_dim..(r + 1) * self.sh_dim]
    }

    /// Stage ③-① forward, batched: maps every sampled position into the
    /// unit cube and encodes the grid embeddings on the rayon pool. A
    /// coupled model's colour head reads the density embeddings, so only a
    /// decoupled colour grid is encoded.
    pub fn encode(&mut self, model: &NerfModel) {
        self.encode_density(model);
        if let Some(cg) = decoupled_color_grid(model) {
            self.emb_c
                .resize(self.positions.len() * self.emb_c_dim, 0.0);
            cg.par_encode_batch_with(&self.backend, &self.unit_positions, &mut self.emb_c);
        }
    }

    /// Maps every sampled position into the unit cube and encodes the
    /// density grid there: the half of [`BatchWorkspace::encode`] the
    /// render pass shares.
    fn encode_density(&mut self, model: &NerfModel) {
        let aabb = model.aabb();
        self.unit_positions.clear();
        self.unit_positions
            .extend(self.positions.iter().map(|p| aabb.to_unit(*p)));
        self.emb_d
            .resize(self.positions.len() * self.emb_d_dim, 0.0);
        model.density_grid().par_encode_batch_with(
            &self.backend,
            &self.unit_positions,
            &mut self.emb_d,
        );
    }

    /// Stage ③-② forward, batched: evaluates both MLP heads over every
    /// sample and writes `σ` / `rgb` into [`BatchWorkspace::rays`].
    /// Activations stay in the MLP batch workspaces for the backward pass.
    /// The colour head's input rows, `[emb ‖ sh(ray)]`, are written
    /// straight into the driver's blocks by the row fill the render pass
    /// shares.
    pub fn heads_forward(&mut self, model: &NerfModel) {
        let n = self.positions.len();
        debug_assert_eq!(self.point_ray.len(), n);
        let sigma_out =
            model
                .sigma_mlp()
                .forward_batch_with(&self.backend, &self.emb_d, &mut self.ws_sigma);
        self.rays.sigma[..n].copy_from_slice(sigma_out);
        let rows = ColorRows {
            emb: if decoupled_color_grid(model).is_some() {
                &self.emb_c
            } else {
                &self.emb_d
            },
            sh: &self.sh,
            point_ray: &self.point_ray,
            ec: self.emb_c_dim,
            sd: self.sh_dim,
        };
        let fill = |visits: Range<usize>, out: &mut [f32]| rows.fill(visits, out, |i| (i, i));
        let rgb_out =
            self.backend
                .mlp_forward_batch(model.color_mlp(), n, &fill, true, &mut self.ws_color);
        for (i, chunk) in rgb_out.chunks_exact(3).enumerate() {
            self.rays.rgb[i] = Vec3::new(chunk[0], chunk[1], chunk[2]);
        }
    }

    /// Stage ④, batched: composites every ray front-to-back into
    /// [`BatchWorkspace::cache`].
    pub fn composite_all(&mut self, background: Vec3) {
        self.cache.reserve_for(&self.rays);
        for r in 0..self.rays.num_rays() {
            let range = self.rays.ray_range(r);
            let (out, active) = self.backend.composite_ray(
                &self.rays.t[range.clone()],
                &self.rays.dt[range.clone()],
                &self.rays.sigma[range.clone()],
                &self.rays.rgb[range.clone()],
                background,
                Some((
                    &mut self.cache.weights[range.clone()],
                    &mut self.cache.trans[range.clone()],
                    &mut self.cache.one_minus_alpha[range],
                )),
            );
            self.cache.outputs[r] = out;
            self.cache.active[r] = active;
        }
    }

    /// The render pass: a forward-only evaluation of the batch that keeps
    /// no activations and runs the colour branch only where the
    /// compositor reads it, leaving each ray's output in
    /// [`BatchWorkspace::output`]. Returns how many samples the colour
    /// branch ran on.
    ///
    /// 1. The density branch runs over every sample, in the MLP driver's
    ///    forward-only mode ([`MlpBatchWorkspace::forward_only`]).
    /// 2. Each ray's integrated prefix follows from `σ` alone
    ///    ([`integrated_prefix`]).
    /// 3. The colour branch runs on the prefix samples only, forward-only,
    ///    through the training forward's colour-row fill: coupled
    ///    grids read the samples' density-embedding rows, decoupled grids
    ///    encode the colour grid at the samples' positions first. Their
    ///    `rgb` is scattered back; every other sample's `rgb` is never
    ///    read.
    /// 4. Every ray composites through the backend's unchanged
    ///    `composite_ray`.
    ///
    /// Per-sample arithmetic is that of [`BatchWorkspace::encode`],
    /// [`BatchWorkspace::heads_forward`] and
    /// [`BatchWorkspace::composite_all`], so each output has their bits.
    pub fn render(&mut self, model: &NerfModel, background: Vec3) -> usize {
        let n = self.positions.len();
        let ed = self.emb_d_dim;
        self.encode_density(model);
        let emb_d = &self.emb_d;
        let sigma =
            self.ws_sigma
                .forward_only(&self.backend, model.sigma_mlp(), n, |items, rows| {
                    rows.copy_from_slice(&emb_d[items.start * ed..items.end * ed]);
                });
        self.rays.sigma[..n].copy_from_slice(sigma);

        self.prefix.clear();
        for r in 0..self.rays.num_rays() {
            let range = self.rays.ray_range(r);
            let active = integrated_prefix(
                &self.rays.dt[range.clone()],
                &self.rays.sigma[range.clone()],
            );
            self.prefix
                .extend(range.start as u32..(range.start + active) as u32);
        }
        let m = self.prefix.len();
        let color_grid = decoupled_color_grid(model);
        if let Some(cg) = color_grid {
            self.prefix_positions.clear();
            self.prefix_positions
                .extend(self.prefix.iter().map(|&i| self.unit_positions[i as usize]));
            self.emb_c.resize(m * self.emb_c_dim, 0.0);
            cg.par_encode_batch_with(&self.backend, &self.prefix_positions, &mut self.emb_c);
        }
        let rows = ColorRows {
            emb: if color_grid.is_some() {
                &self.emb_c
            } else {
                &self.emb_d
            },
            sh: &self.sh,
            point_ray: &self.point_ray,
            ec: self.emb_c_dim,
            sd: self.sh_dim,
        };
        let prefix = &self.prefix;
        // Decoupled rows are the prefix's own; coupled rows are the
        // sample's density embedding.
        let at = |j: usize| {
            let i = prefix[j] as usize;
            (if color_grid.is_some() { j } else { i }, i)
        };
        let rgb = self
            .ws_color
            .forward_only(&self.backend, model.color_mlp(), m, |visits, out| {
                rows.fill(visits, out, at)
            });
        for (&i, c) in prefix.iter().zip(rgb.chunks_exact(3)) {
            self.rays.rgb[i as usize] = Vec3::new(c[0], c[1], c[2]);
        }

        let rays = self.rays.num_rays();
        self.cache.outputs.resize(rays, RenderOutput::default());
        for r in 0..rays {
            let range = self.rays.ray_range(r);
            let (out, _) = self.backend.composite_ray(
                &self.rays.t[range.clone()],
                &self.rays.dt[range.clone()],
                &self.rays.sigma[range.clone()],
                &self.rays.rgb[range],
                background,
                None,
            );
            self.cache.outputs[r] = out;
        }
        m
    }

    /// The forward render output of ray `r` (valid after
    /// [`BatchWorkspace::composite_all`] or [`BatchWorkspace::render`]).
    #[inline]
    pub fn output(&self, r: usize) -> &RenderOutput {
        &self.cache.outputs[r]
    }

    /// Stage ⑥ through the renderer, batched: converts the per-ray color
    /// gradients in [`BatchWorkspace::d_color`] into per-sample `dσ` /
    /// `drgb` SoA buffers.
    pub fn render_backward(&mut self, background: Vec3) {
        let n = self.rays.num_samples();
        self.d_sigma.resize(n, 0.0);
        self.d_rgb.resize(n, Vec3::ZERO);
        for r in 0..self.rays.num_rays() {
            let range = self.rays.ray_range(r);
            composite_backward_slices(
                &self.rays.dt[range.clone()],
                &self.rays.rgb[range.clone()],
                background,
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
    }

    /// Stage ③-② backward, batched: backpropagates the per-sample
    /// gradients through both heads (reusing the retained forward
    /// activations — no re-forward), leaving the embedding gradients in
    /// the workspace for [`BatchWorkspace::grid_step`]. The colour head's
    /// input gradient is asked for its first `emb_c` columns only, written
    /// straight into `d_emb_c`: the SH columns have no parameters behind
    /// them.
    pub fn heads_backward(&mut self, model: &NerfModel, grads: &mut ModelGradients) {
        let n = self.rays.num_samples();
        // Color head backward → gradient w.r.t. emb_c.
        self.d_rgb_flat.resize(n * 3, 0.0);
        for (i, g) in self.d_rgb[..n].iter().enumerate() {
            self.d_rgb_flat[i * 3] = g.x;
            self.d_rgb_flat[i * 3 + 1] = g.y;
            self.d_rgb_flat[i * 3 + 2] = g.z;
        }
        self.d_emb_c.resize(n * self.emb_c_dim, 0.0);
        model.color_mlp().backward_batch_with(
            &self.backend,
            &self.d_rgb_flat,
            &mut self.ws_color,
            &mut grads.color_mlp,
            &mut self.d_emb_c,
        );
        // Density head backward → gradient w.r.t. emb_d.
        self.d_emb_d.resize(n * self.emb_d_dim, 0.0);
        model.sigma_mlp().backward_batch_with(
            &self.backend,
            &self.d_sigma[..n],
            &mut self.ws_sigma,
            &mut grads.sigma_mlp,
            &mut self.d_emb_d,
        );
    }

    /// Makes the level buffers [`BatchWorkspace::grid_step`] runs on for
    /// `model`'s grids, on the calling thread. The trainer calls this
    /// before entering the pool, so the buffers come from its thread's
    /// allocator arena, not from whichever worker runs the step.
    pub(crate) fn reserve_grid_buffers(&mut self, model: &NerfModel) {
        self.grid_buffers.reserve(model.density_grid());
        if let Some(cg) = model.color_grid() {
            self.grid_buffers.reserve(cg);
        }
    }

    /// Stage ③-① backward and the grid optimizer tail, batched and merged
    /// where the gradients are produced: for each grid its schedule
    /// updates this step, each level's embedding gradients are scattered
    /// into a level-sized buffer of this workspace and swept by sparse
    /// Adam while still in cache ([`HashGrid::par_backward_step_with`]),
    /// so no grid-sized gradient buffer exists. A grid that sits the step
    /// out is not scattered into: its gradients would be discarded.
    /// Per-parameter accumulation is point-ordered.
    ///
    /// [`HashGrid::par_backward_step_with`]: instant3d_nerf::grid::HashGrid::par_backward_step_with
    pub fn grid_step(
        &mut self,
        model: &mut NerfModel,
        density_opt: &mut Adam,
        color_opt: Option<&mut Adam>,
        update_density: bool,
        update_color: bool,
    ) {
        let n = self.rays.num_samples();
        let (ed, ec) = (self.emb_d_dim, self.emb_c_dim);
        let coupled = model.topology() == GridTopology::Coupled;
        if update_density {
            if coupled {
                // Shared grid: both heads' embedding gradients sum.
                debug_assert_eq!(ed, ec);
                for (d, c) in self.d_emb_d[..n * ed]
                    .iter_mut()
                    .zip(&self.d_emb_c[..n * ec])
                {
                    *d += *c;
                }
            }
            model.density_grid_mut().par_backward_step_with(
                &self.backend,
                &self.unit_positions,
                &self.d_emb_d[..n * ed],
                density_opt,
                &mut self.grid_buffers,
            );
        }
        if !coupled && update_color {
            if let (Some(cg), Some(opt)) = (model.color_grid_mut(), color_opt) {
                cg.par_backward_step_with(
                    &self.backend,
                    &self.unit_positions,
                    &self.d_emb_c[..n * ec],
                    opt,
                    &mut self.grid_buffers,
                );
            }
        }
    }
}

/// The colour grid a model encodes separately: a decoupled model's colour
/// grid; `None` when the colour head reads the density embeddings.
fn decoupled_color_grid(model: &NerfModel) -> Option<&HashGrid> {
    model
        .color_grid()
        .filter(|_| model.topology() == GridTopology::Decoupled)
}

/// The colour head's input rows, `[emb ‖ sh(ray)]`: the one row fill of
/// both colour-head forwards ([`BatchWorkspace::heads_forward`] visits
/// every sample, [`BatchWorkspace::render`] the prefix samples).
struct ColorRows<'a> {
    /// Embedding rows, `ec` wide.
    emb: &'a [f32],
    /// SH rows per ray, `sd` wide.
    sh: &'a [f32],
    /// Owning ray per sample.
    point_ray: &'a [u32],
    ec: usize,
    sd: usize,
}

impl ColorRows<'_> {
    /// Writes the rows of `visits` into `out` (`visits.len()` rows): visit
    /// `j` reads embedding row `at(j).0` and the SH row of sample
    /// `at(j).1`'s ray.
    #[inline]
    fn fill(&self, visits: Range<usize>, out: &mut [f32], at: impl Fn(usize) -> (usize, usize)) {
        let (ec, sd) = (self.ec, self.sd);
        for (j, row) in visits.zip(out.chunks_exact_mut(ec + sd)) {
            let (e, i) = at(j);
            row[..ec].copy_from_slice(&self.emb[e * ec..(e + 1) * ec]);
            let r = self.point_ray[i] as usize;
            row[ec..].copy_from_slice(&self.sh[r * sd..(r + 1) * sd]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use crate::model::NullBranchObserver;
    use instant3d_nerf::math::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(topology: GridTopology) -> NerfModel {
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = topology;
        let mut rng = StdRng::seed_from_u64(11);
        NerfModel::new(&cfg, Aabb::UNIT, &mut rng)
    }

    /// Fills a tiny 2-ray batch with fixed geometry.
    fn fill_batch(ws: &mut BatchWorkspace, model: &NerfModel) {
        ws.clear();
        ws.reserve_rays(2);
        for r in 0..2usize {
            let dir = if r == 0 { Vec3::Z } else { Vec3::X };
            model.encode_dir(dir, ws.sh_row_mut(r));
            for k in 0..4 {
                let t = 0.1 + 0.2 * k as f32;
                ws.rays.push_sample(t, 0.2);
                ws.positions
                    .push(Vec3::splat(0.2 + 0.15 * k as f32 + 0.05 * r as f32));
                ws.point_ray.push(r as u32);
            }
            ws.rays.end_ray();
        }
    }

    #[test]
    fn batched_forward_matches_scalar_model_queries() {
        for topo in [GridTopology::Coupled, GridTopology::Decoupled] {
            let m = model(topo);
            let mut ws = BatchWorkspace::new(&m);
            fill_batch(&mut ws, &m);
            ws.encode(&m);
            ws.heads_forward(&m);

            let mut sws = m.workspace();
            let mut sh = vec![0.0; m.sh_dim()];
            for i in 0..ws.num_points() {
                let r = ws.point_ray[i] as usize;
                let dir = if r == 0 { Vec3::Z } else { Vec3::X };
                m.encode_dir(dir, &mut sh);
                let (sigma, rgb) =
                    m.query_train(ws.positions[i], &sh, &mut sws, &mut NullBranchObserver);
                assert_eq!(ws.rays.sigma[i], sigma, "{topo:?} sigma {i}");
                assert_eq!(ws.rays.rgb[i], rgb, "{topo:?} rgb {i}");
            }
        }
    }
}
