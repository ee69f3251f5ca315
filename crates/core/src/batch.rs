//! The batched SoA execution engine (the training hot path, and the tile
//! renderer's forward-only pass).
//!
//! Where the scalar reference path walks one point at a time through
//! encode → heads → composite → backward, this module runs each pipeline
//! stage over many rays at once, on structure-of-arrays buffers owned by
//! a [`BatchWorkspace`] that is allocated once and reused every
//! iteration.
//!
//! A training step runs its per-ray half — encode, both heads' forward,
//! compositing, the loss, the compositing backward and both heads'
//! backward — once per **chunk**: a run of consecutive whole rays holding
//! at most `CHUNK_SAMPLES` samples (a single longer ray is a chunk of its
//! own). Only the embedding gradients the grid step reads outlive a
//! chunk; after the last chunk the grid step, the MLP optimizer and the
//! occupancy refresh run once over the whole batch. So the workspace
//! holds the MLP activations, embeddings and per-sample gradients of one
//! chunk, and only the sampling SoA, the unit positions and the embedding
//! gradients per sample of the batch.
//!
//! Every buffer the step writes inside its pool entry is sized before it,
//! on the thread that calls [`Trainer::step`](crate::Trainer::step): no
//! pool worker allocates, in the first step or any later one, and a warm
//! step allocates nothing on one worker. On more, the one pool entry (the
//! step runs every stage from encode through the occupancy refresh inside
//! one `rayon::scope`) costs two allocations on the caller, the bridge
//! job's box and its latch's `Arc`. `tests/step_alloc.rs` pins these
//! counts per thread.
//!
//! Stage parallelism (via `rayon`) is organised so every concurrent write
//! targets a disjoint region and every per-parameter accumulation runs in
//! point order:
//!
//! * grid encode — point chunks, each writing its own embedding rows;
//! * MLP forward/backward — inside `instant3d-nerf`, one region per head
//!   forward over item blocks and two per head backward: item blocks
//!   (activation derivatives, input gradients), then parameter-gradient
//!   tiles. A head's input gradient is computed only on steps whose grid
//!   step reads it, and the colour head's covers its `emb_c` columns
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
//!    order per parameter). Chunking keeps this: per-sample and per-ray
//!    arithmetic reads no other ray, the loss adds rays in order across
//!    chunks, and every MLP parameter-gradient accumulator continues from
//!    the previous chunk's value, item after item.
//! 2. **Thread-count determinism** — results are bit-identical for any
//!    worker count, because no reduction order depends on scheduling.
//!
//! The same workspace serves the tile renderer through a pass of its own,
//! [`BatchWorkspace::render`], over a whole tile. Both passes run the heads
//! through the one MLP forward driver of `instant3d-nerf`, and both build
//! the colour head's input rows, `[emb ‖ sh(ray)]`, with one row fill that
//! writes them straight into the driver's blocks. They differ in two
//! things only: the training forward visits every sample of a chunk and
//! keeps every block's activations for the backward
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
    composite_backward_slices, integrated_prefix, pixel_loss, RayBatch, RayBatchCache, RenderOutput,
};
use std::ops::Range;

/// Samples per chunk of a training step's per-ray half (a chunk holds
/// whole rays, so it may hold fewer). A multiple of the MLP's 32-item
/// block.
///
/// A chunk keeps about 2.3 KB per sample of the Instant-NGP heads: MLP
/// activations and gradients, embeddings and compositing state, 9 MB at
/// 4,096 samples against 56 MB for the room's 24,576-sample batch. The
/// value is where peak memory stops falling. On `capture_room_ngp`
/// (`ledger`, 2 workers, 6 alternated seeds) the run's peak RSS read
/// 159.9 MB at 4,096, 160.6 MB at 2,048 (the peak is then set outside
/// the step) and 184.6 MB at 8,192, against 199.4 MB unchunked; the
/// median step read 38.5 / 37.0 / 38.7 ms against 41.2 ms, within the
/// runs' spread. A `capture_object` batch after the first occupancy
/// refresh (2.3–3.7k samples) is one chunk at 4,096, as is every
/// `fleet_mixed` batch.
const CHUNK_SAMPLES: usize = 4096;

/// A run of consecutive whole rays that one pass of a training step's
/// per-ray half covers: rays `rays`, holding samples `samples`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Chunk {
    rays: Range<usize>,
    samples: Range<usize>,
}

/// Which embedding gradients a training step's grid step reads:
/// `(density, colour)`. A head computes its input gradient only when it
/// is read.
pub(crate) fn grid_grads_read(
    model: &NerfModel,
    update_density: bool,
    update_color: bool,
) -> (bool, bool) {
    let color = match model.topology() {
        // Both heads' gradients sum into the one grid.
        GridTopology::Coupled => update_density,
        GridTopology::Decoupled => update_color && model.color_grid().is_some(),
    };
    (update_density, color)
}

/// Preallocated SoA buffers for one training/eval iteration of the batched
/// engine. Create once per trainer (or per eval worker) with
/// [`BatchWorkspace::new`]; every buffer grows to its high-water mark and
/// is then reused.
///
/// In a training step the buffers fall in two groups (see the module
/// docs). Batch-wide: the sampling SoA ([`BatchWorkspace::rays`],
/// [`BatchWorkspace::positions`], [`BatchWorkspace::point_ray`]), the
/// per-ray SH rows and colour gradients, the unit positions and the
/// embedding gradients the grid step reads, about 330 B per sample of the
/// Instant-NGP preset. Chunk-sized: the embeddings, both heads' MLP
/// workspaces, the per-sample `dσ` / `drgb` and the compositing cache.
/// [`BatchWorkspace::cache`] therefore holds the state of the last chunk
/// after a step, and of the whole tile after [`BatchWorkspace::render`].
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
    /// Compositing state + per-ray outputs of one chunk (training) or
    /// tile (rendering), retained for the backward.
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
    /// The first ray of every chunk of the step, then the ray count.
    chunk_cuts: Vec<usize>,
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
            chunk_cuts: Vec::new(),
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

    /// Maps every sampled position into the model's unit cube.
    fn map_to_unit(&mut self, model: &NerfModel) {
        let aabb = model.aabb();
        self.unit_positions.clear();
        self.unit_positions
            .extend(self.positions.iter().map(|p| aabb.to_unit(*p)));
    }

    /// Prepares a sampled batch for a training step, on the calling
    /// thread: maps the positions into the unit cube, cuts the rays into
    /// chunks, and sizes every buffer the step then writes — the chunk
    /// buffers for the largest chunk, the embedding gradients the grid
    /// step reads (`reads`, from `grid_grads_read`) for the batch, and the
    /// grid step's level buffers. The step runs its stages on the worker
    /// pool, where none of them grows a buffer: the buffers come from the
    /// caller's allocator arena, not from whichever worker runs a stage
    /// first.
    pub(crate) fn prepare_step(&mut self, model: &NerfModel, reads: (bool, bool)) {
        self.map_to_unit(model);
        self.chunk_cuts.clear();
        self.chunk_cuts.push(0);
        let mut first = 0;
        for r in 0..self.rays.num_rays() {
            let range = self.rays.ray_range(r);
            let open = self.chunk_cuts.last().is_some_and(|&c| c < r);
            if open && range.end - first > CHUNK_SAMPLES {
                self.chunk_cuts.push(r);
                first = range.start;
            }
        }
        self.chunk_cuts.push(self.rays.num_rays());
        let (mut samples, mut rays) = (0, 0);
        for c in 0..self.num_chunks() {
            let chunk = self.chunk(c);
            samples = samples.max(chunk.samples.len());
            rays = rays.max(chunk.rays.len());
        }

        let (ed, ec) = (self.emb_d_dim, self.emb_c_dim);
        self.emb_d.resize(samples * ed, 0.0);
        if decoupled_color_grid(model).is_some() {
            self.emb_c.resize(samples * ec, 0.0);
        }
        self.ws_sigma.reserve(model.sigma_mlp(), samples, true);
        self.ws_color.reserve(model.color_mlp(), samples, true);
        let cache = &mut self.cache;
        cache.weights.resize(samples, 0.0);
        cache.trans.resize(samples, 0.0);
        cache.one_minus_alpha.resize(samples, 0.0);
        cache.active.resize(rays, 0);
        cache.outputs.resize(rays, RenderOutput::default());
        self.d_sigma.resize(samples, 0.0);
        self.d_rgb.resize(samples, Vec3::ZERO);
        self.d_rgb_flat.resize(samples * 3, 0.0);

        let n = self.num_points();
        if reads.0 {
            self.d_emb_d.resize(n * ed, 0.0);
        }
        if reads.1 {
            self.d_emb_c.resize(n * ec, 0.0);
        }
        self.grid_buffers.reserve(model.density_grid());
        if let Some(cg) = model.color_grid() {
            self.grid_buffers.reserve(cg);
        }
    }

    /// Chunks of the batch [`BatchWorkspace::prepare_step`] cut.
    pub(crate) fn num_chunks(&self) -> usize {
        self.chunk_cuts.len().saturating_sub(1)
    }

    /// Chunk `c` of the batch.
    pub(crate) fn chunk(&self, c: usize) -> Chunk {
        let rays = self.chunk_cuts[c]..self.chunk_cuts[c + 1];
        let samples = if rays.is_empty() {
            0..0
        } else {
            self.rays.ray_range(rays.start).start..self.rays.ray_range(rays.end - 1).end
        };
        Chunk { rays, samples }
    }

    /// The whole batch as one chunk.
    fn whole(&self) -> Chunk {
        Chunk {
            rays: 0..self.num_rays(),
            samples: 0..self.num_points(),
        }
    }

    /// Stage ③-① forward over the whole batch, as one chunk: maps every
    /// sampled position into the unit cube and encodes the grid
    /// embeddings (see [`BatchWorkspace::heads_forward`]).
    pub fn encode(&mut self, model: &NerfModel) {
        let n = self.num_points();
        self.map_to_unit(model);
        self.emb_d.resize(n * self.emb_d_dim, 0.0);
        if decoupled_color_grid(model).is_some() {
            self.emb_c.resize(n * self.emb_c_dim, 0.0);
        }
        self.encode_chunk(model, &self.whole());
    }

    /// Stage ③-② forward over the whole batch, as one chunk: evaluates
    /// both MLP heads on every sample after [`BatchWorkspace::encode`] and
    /// writes `σ` / `rgb` into [`BatchWorkspace::rays`]. With
    /// [`BatchWorkspace::composite_all`] this is the forward of a training
    /// step whose batch is one chunk, the reference the render pass is
    /// held to.
    pub fn heads_forward(&mut self, model: &NerfModel) {
        self.heads_forward_chunk(model, &self.whole());
    }

    /// Stage ④ over the whole batch, as one chunk: composites every ray
    /// front-to-back into [`BatchWorkspace::cache`], leaving ray `r`'s
    /// output in [`BatchWorkspace::output`].
    pub fn composite_all(&mut self, background: Vec3) {
        self.cache.reserve_for(&self.rays);
        self.composite_chunk(&self.whole(), background);
    }

    /// Stage ③-① forward over a chunk: encodes the grid embeddings of its
    /// samples on the rayon pool. A coupled model's colour head reads the
    /// density embeddings, so only a decoupled colour grid is encoded.
    pub(crate) fn encode_chunk(&mut self, model: &NerfModel, chunk: &Chunk) {
        let m = chunk.samples.len();
        let units = &self.unit_positions[chunk.samples.clone()];
        model.density_grid().par_encode_batch_with(
            &self.backend,
            units,
            &mut self.emb_d[..m * self.emb_d_dim],
        );
        if let Some(cg) = decoupled_color_grid(model) {
            cg.par_encode_batch_with(&self.backend, units, &mut self.emb_c[..m * self.emb_c_dim]);
        }
    }

    /// Stage ③-② forward over a chunk: evaluates both MLP heads on its
    /// samples and writes their `σ` / `rgb` into [`BatchWorkspace::rays`].
    /// Activations stay in the MLP batch workspaces for the backward pass.
    /// The colour head's input rows, `[emb ‖ sh(ray)]`, are written
    /// straight into the driver's blocks by the row fill the render pass
    /// shares.
    pub(crate) fn heads_forward_chunk(&mut self, model: &NerfModel, chunk: &Chunk) {
        let (s0, m) = (chunk.samples.start, chunk.samples.len());
        let sigma_out = model.sigma_mlp().forward_batch_with(
            &self.backend,
            &self.emb_d[..m * self.emb_d_dim],
            &mut self.ws_sigma,
        );
        self.rays.sigma[chunk.samples.clone()].copy_from_slice(sigma_out);
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
        let fill = |visits: Range<usize>, out: &mut [f32]| rows.fill(visits, out, |j| (j, s0 + j));
        let rgb_out =
            self.backend
                .mlp_forward_batch(model.color_mlp(), m, &fill, true, &mut self.ws_color);
        for (rgb, c) in self.rays.rgb[chunk.samples.clone()]
            .iter_mut()
            .zip(rgb_out.chunks_exact(3))
        {
            *rgb = Vec3::new(c[0], c[1], c[2]);
        }
    }

    /// Stage ④ over a chunk: composites each of its rays front-to-back
    /// into [`BatchWorkspace::cache`].
    pub(crate) fn composite_chunk(&mut self, chunk: &Chunk, background: Vec3) {
        let s0 = chunk.samples.start;
        for (j, r) in chunk.rays.clone().enumerate() {
            let range = self.rays.ray_range(r);
            let local = range.start - s0..range.end - s0;
            let (out, active) = self.backend.composite_ray(
                &self.rays.t[range.clone()],
                &self.rays.dt[range.clone()],
                &self.rays.sigma[range.clone()],
                &self.rays.rgb[range],
                background,
                Some((
                    &mut self.cache.weights[local.clone()],
                    &mut self.cache.trans[local.clone()],
                    &mut self.cache.one_minus_alpha[local],
                )),
            );
            self.cache.outputs[j] = out;
            self.cache.active[j] = active;
        }
    }

    /// Stage ⑤ over a chunk: adds each ray's squared error against
    /// `target(r)` to `total`, ray after ray, and leaves its gradient
    /// scaled by `scale` in [`BatchWorkspace::d_color`].
    pub(crate) fn loss_chunk(
        &mut self,
        chunk: &Chunk,
        target: impl Fn(usize) -> Vec3,
        scale: f32,
        total: &mut f32,
    ) {
        for (j, r) in chunk.rays.clone().enumerate() {
            let (loss, d_raw) = pixel_loss(self.cache.outputs[j].color, target(r));
            *total += loss;
            self.d_color[r] = d_raw * scale;
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
        self.map_to_unit(model);
        self.emb_d.resize(n * ed, 0.0);
        model.density_grid().par_encode_batch_with(
            &self.backend,
            &self.unit_positions,
            &mut self.emb_d,
        );
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

    /// Stage ⑥ through the renderer over a chunk: converts the per-ray
    /// colour gradients in [`BatchWorkspace::d_color`] into per-sample
    /// `dσ` / `drgb` SoA buffers.
    pub(crate) fn render_backward_chunk(&mut self, chunk: &Chunk, background: Vec3) {
        let s0 = chunk.samples.start;
        for (j, r) in chunk.rays.clone().enumerate() {
            let range = self.rays.ray_range(r);
            let local = range.start - s0..range.end - s0;
            composite_backward_slices(
                &self.rays.dt[range.clone()],
                &self.rays.rgb[range],
                background,
                &self.cache.weights[local.clone()],
                &self.cache.trans[local.clone()],
                &self.cache.one_minus_alpha[local.clone()],
                self.cache.active[j],
                &self.cache.outputs[j],
                self.d_color[r],
                &mut self.d_sigma[local.clone()],
                &mut self.d_rgb[local],
            );
        }
    }

    /// Stage ③-② backward over a chunk: backpropagates its per-sample
    /// gradients through both heads (reusing the retained forward
    /// activations — no re-forward), adding to the parameter gradients in
    /// `grads` and writing the chunk's rows of the embedding gradients the
    /// grid step reads (`reads`, as passed to
    /// [`BatchWorkspace::prepare_step`]). A head whose embedding gradient
    /// is not read computes no input gradient. The colour head's input
    /// gradient is asked for its first `emb_c` columns only, written
    /// straight into `d_emb_c`: the SH columns have no parameters behind
    /// them.
    pub(crate) fn heads_backward_chunk(
        &mut self,
        model: &NerfModel,
        grads: &mut ModelGradients,
        chunk: &Chunk,
        reads: (bool, bool),
    ) {
        let (s, m) = (chunk.samples.clone(), chunk.samples.len());
        let (ed, ec) = (self.emb_d_dim, self.emb_c_dim);
        // Color head backward → gradient w.r.t. emb_c.
        for (row, g) in self.d_rgb_flat[..m * 3]
            .chunks_exact_mut(3)
            .zip(&self.d_rgb[..m])
        {
            row.copy_from_slice(&[g.x, g.y, g.z]);
        }
        let d_emb_c: &mut [f32] = if reads.1 {
            &mut self.d_emb_c[s.start * ec..s.end * ec]
        } else {
            &mut []
        };
        model.color_mlp().backward_batch_with(
            &self.backend,
            &self.d_rgb_flat[..m * 3],
            &mut self.ws_color,
            &mut grads.color_mlp,
            d_emb_c,
        );
        // Density head backward → gradient w.r.t. emb_d.
        let d_emb_d: &mut [f32] = if reads.0 {
            &mut self.d_emb_d[s.start * ed..s.end * ed]
        } else {
            &mut []
        };
        model.sigma_mlp().backward_batch_with(
            &self.backend,
            &self.d_sigma[..m],
            &mut self.ws_sigma,
            &mut grads.sigma_mlp,
            d_emb_d,
        );
    }

    /// Stage ③-① backward and the grid optimizer tail over the whole
    /// batch, batched and merged where the gradients are produced: for
    /// each grid its schedule updates this step, each level's embedding
    /// gradients are scattered into a level-sized buffer of this workspace
    /// and swept by sparse Adam while still in cache
    /// ([`HashGrid::par_backward_step_with`]), so no grid-sized gradient
    /// buffer exists. A grid that sits the step out is not scattered into:
    /// its gradients would be discarded. Per-parameter accumulation is
    /// point-ordered.
    ///
    /// [`HashGrid::par_backward_step_with`]: instant3d_nerf::grid::HashGrid::par_backward_step_with
    pub(crate) fn grid_step(
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
    fn a_room_shaped_step_keeps_one_chunk_of_per_sample_state() {
        // The room workload's batch shape and topology (512 rays × 48
        // samples on one coupled grid) at a test-sized grid: before the
        // first occupancy refresh every sample inside the scene bounds
        // survives, more than four chunks' worth.
        let mut rng = StdRng::seed_from_u64(3);
        let ds = instant3d_scenes::SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
        let cfg = TrainConfig {
            grid: TrainConfig::fast_preview().grid,
            rays_per_batch: 512,
            samples_per_ray: 48,
            ..TrainConfig::instant_ngp()
        };
        let mut trainer = crate::Trainer::new(cfg, &ds, &mut rng);
        let points = trainer.step(&mut rng).points;
        assert!(points > 4 * CHUNK_SAMPLES, "{points} samples");
        let ws = trainer.detach_batch_workspace().unwrap();
        let m = trainer.model();
        for (mlp, mws) in [(m.sigma_mlp(), &ws.ws_sigma), (m.color_mlp(), &ws.ws_color)] {
            assert!(mws.len() <= CHUNK_SAMPLES, "{} items kept", mws.len());
            let held = mws.retained_capacity(mlp);
            assert!(held <= CHUNK_SAMPLES, "blocks for {held} items");
        }
        let chunk_sized = [
            ws.emb_d.len() / ws.emb_d_dim,
            ws.d_sigma.len(),
            ws.d_rgb.len(),
            ws.d_rgb_flat.len() / 3,
            ws.cache.weights.len(),
        ];
        assert!(
            chunk_sized.iter().all(|&len| len <= CHUNK_SAMPLES),
            "{chunk_sized:?}"
        );
        assert_eq!(ws.d_emb_d.len(), points * ws.emb_d_dim);
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
