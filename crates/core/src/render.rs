//! The tile-streaming frame renderer: resumable, budgeted, cache-reusing
//! rendering of model views on the batched SoA engine.
//!
//! The ROADMAP's interactive-preview item (AR/VR capture feedback) needs
//! frames at a *fixed latency*, not a fixed quality: a preview consumer
//! asks for "whatever you can render in this slice" and keeps the rest of
//! the frame from last time. This module decomposes a frame into
//! fixed-size tiles and drives them through a [`FrameScheduler`]:
//!
//! # Frame lifecycle
//!
//! 1. **Budget** — each [`FrameScheduler::render_frame`] call gets a
//!    [`FrameBudget`]: a tile quota and/or a wall-clock deadline.
//!    [`FrameBudget::full`] (no cap) renders every stale tile — the eval
//!    path.
//! 2. **Progressive refinement** — stale tiles are scheduled as jobs on
//!    the shared work-stealing pool, round-robin from a persistent
//!    cursor so successive budgeted frames sweep the whole frame instead
//!    of re-polishing its top-left corner. Each job checks a
//!    [`BatchWorkspace`] out of the shape-keyed [`WorkspacePool`]
//!    (minting only on pool miss — warmup), marches its tile's rays, and
//!    parks the workspace back: steady-state rendering performs **zero
//!    workspace allocations**.
//! 3. **Invalidation** — a rendered tile records the hash-grid
//!    [`level_versions`](instant3d_nerf::grid::HashGrid::level_versions)
//!    and the occupancy grid's
//!    [`content_signature`](OccupancyGrid::content_signature) it was
//!    rendered against. The next frame re-renders only tiles whose
//!    recorded versions drifted; tiles whose rays never touched the grid
//!    (pure background) ignore grid-version bumps entirely and stay
//!    cached across training steps.
//!
//! # Determinism contract
//!
//! Every pixel is an independent function of (model, camera, sample
//! count, background, occupancy): rays never share accumulation state,
//! so tile shape, tile order, budget splits and worker count cannot
//! change a single bit. A full-budget tiled frame is **bit-identical**
//! to the monolithic row-chunk renderer (the executable specification,
//! kept in `crates/core/tests/tile_render.rs`) on every backend × worker
//! count — pinned by that golden suite.
//!
//! Ray marching samples like training does: stratified stratum-center
//! samples, with optional occupancy culling
//! (`sample_segments_occupancy_into`). A tile is then evaluated by the
//! workspace's forward-only render pass ([`BatchWorkspace::render`]), not
//! by the training forward: no activation outlives its forward chunk, and
//! the colour branch runs only on the samples each ray integrates before
//! early termination. That count comes from `σ` alone
//! ([`integrated_prefix`](instant3d_nerf::render::integrated_prefix)),
//! through the transmittance recurrence the backend's `composite_ray`
//! runs, so the compositor reads exactly the colours the pass computed.
//! [`RenderTelemetry::color_points`] counts them.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::batch::BatchWorkspace;
use crate::model::NerfModel;
use crate::pool::WorkspacePool;
use instant3d_nerf::camera::Camera;
use instant3d_nerf::image::{DepthImage, RgbImage};
use instant3d_nerf::math::{Aabb, Vec3};
use instant3d_nerf::occupancy::OccupancyGrid;
use instant3d_nerf::sampler::sample_segments_occupancy_into;
use rand::rngs::StdRng;
use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Default tile edge, in pixels. 16×16 tiles × 32–64 samples/ray give a
/// few-thousand-point batch per job — enough to amortize the batched
/// kernels, small enough that a budget of a handful of tiles is a
/// meaningful latency knob.
pub const DEFAULT_TILE_SIZE: u32 = 16;

/// The frame-wide rendering parameters (fixed for a scheduler's life).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Stratified samples per ray (clamped to ≥ 1).
    pub samples_per_ray: usize,
    /// Background color composited behind transmissive rays and used for
    /// never-rendered tiles.
    pub background: Vec3,
    /// Tile edge in pixels (≥ 1); the frame border tiles are clipped.
    pub tile_size: u32,
}

impl RenderOptions {
    /// Options with the default tile size.
    pub fn new(samples_per_ray: usize, background: Vec3) -> Self {
        RenderOptions {
            samples_per_ray,
            background,
            tile_size: DEFAULT_TILE_SIZE,
        }
    }
}

/// Per-frame work budget. Both limits may be combined; whichever trips
/// first wins. Tile quotas are deterministic (the same stale set yields
/// the same rendered set); deadlines are wall-clock best-effort and exist
/// for interactive consumers only — tests and eval use tile budgets.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameBudget {
    /// Maximum tiles rendered this frame (`None` = unbounded).
    pub max_tiles: Option<usize>,
    /// Wall-clock deadline checked before each tile job starts
    /// (`None` = unbounded). Already-running tiles finish.
    pub max_time: Option<Duration>,
}

impl FrameBudget {
    /// No limits: render every stale tile (the eval path).
    pub fn full() -> Self {
        FrameBudget::default()
    }

    /// At most `n` tiles this frame.
    pub fn tiles(n: usize) -> Self {
        FrameBudget {
            max_tiles: Some(n),
            max_time: None,
        }
    }

    /// Best-effort wall-clock deadline.
    pub fn time(d: Duration) -> Self {
        FrameBudget {
            max_tiles: None,
            max_time: Some(d),
        }
    }
}

/// A tile's pixel rectangle within the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRect {
    /// Left edge (inclusive).
    pub x0: u32,
    /// Top edge (inclusive).
    pub y0: u32,
    /// Width in pixels (≥ 1; border tiles are clipped to the frame).
    pub w: u32,
    /// Height in pixels (≥ 1).
    pub h: u32,
}

/// The frame → tile decomposition: `ceil(w/tile) × ceil(h/tile)` rects in
/// row-major order, border rects clipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLayout {
    frame_w: u32,
    frame_h: u32,
    tile: u32,
    tiles_x: u32,
    tiles_y: u32,
}

impl TileLayout {
    /// Decomposes a `w × h` frame into `tile`-edge tiles.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    pub fn new(frame_w: u32, frame_h: u32, tile: u32) -> Self {
        assert!(frame_w > 0 && frame_h > 0, "frame must be non-empty");
        assert!(tile > 0, "tile size must be non-zero");
        TileLayout {
            frame_w,
            frame_h,
            tile,
            tiles_x: frame_w.div_ceil(tile),
            tiles_y: frame_h.div_ceil(tile),
        }
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// The clipped pixel rectangle of tile `idx` (row-major).
    pub fn tile_rect(&self, idx: usize) -> TileRect {
        debug_assert!(idx < self.tile_count());
        let tx = idx as u32 % self.tiles_x;
        let ty = idx as u32 / self.tiles_x;
        let x0 = tx * self.tile;
        let y0 = ty * self.tile;
        TileRect {
            x0,
            y0,
            w: self.tile.min(self.frame_w - x0),
            h: self.tile.min(self.frame_h - y0),
        }
    }
}

/// What one [`FrameScheduler::render_frame`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameProgress {
    /// Tiles rendered this frame.
    pub tiles_rendered: usize,
    /// Tiles served from the converged-tile cache (fresh at frame start).
    pub tiles_cached: usize,
    /// Tiles still stale after this frame (budget/deadline exhausted).
    pub tiles_stale: usize,
    /// Whether every tile is now fresh (`tiles_stale == 0`).
    pub complete: bool,
}

/// Cumulative scheduler telemetry — the render-side mirror of the fleet's
/// workspace accounting. Each runner task checks out one workspace per
/// frame, so `workspaces_minted` is the warmup cost (hard-bounded by the
/// worker count) and `workspaces_recycled` grows per runner per frame
/// after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderTelemetry {
    /// Frames scheduled.
    pub frames: u64,
    /// Tiles rendered across all frames.
    pub tiles_rendered: u64,
    /// Tiles served from cache instead of re-rendered.
    pub tiles_cached: u64,
    /// Tiles invalidated by grid-version / occupancy-signature drift.
    pub tiles_invalidated: u64,
    /// Tiles whose job was skipped by a wall-clock deadline.
    pub tiles_deadline_skipped: u64,
    /// Rays marched (tile pixels of rendered tiles).
    pub rays: u64,
    /// Points sampled after occupancy culling.
    pub points: u64,
    /// Points the colour branch ran on: the samples each ray integrates
    /// before early termination (at most [`RenderTelemetry::points`]).
    pub color_points: u64,
    /// `BatchWorkspace`s minted on pool miss (warmup).
    pub workspaces_minted: u64,
    /// Runner activations served by a pooled workspace (steady state).
    pub workspaces_recycled: u64,
}

impl RenderTelemetry {
    /// Adds every counter of `other` into `self`.
    fn add(&mut self, other: &RenderTelemetry) {
        self.frames += other.frames;
        self.tiles_rendered += other.tiles_rendered;
        self.tiles_cached += other.tiles_cached;
        self.tiles_invalidated += other.tiles_invalidated;
        self.tiles_deadline_skipped += other.tiles_deadline_skipped;
        self.rays += other.rays;
        self.points += other.points;
        self.color_points += other.color_points;
        self.workspaces_minted += other.workspaces_minted;
        self.workspaces_recycled += other.workspaces_recycled;
    }
}

/// A cached tile: pixels plus the model/occupancy state they were
/// rendered against.
#[derive(Debug)]
struct TileState {
    rect: TileRect,
    colors: Vec<Vec3>,
    depths: Vec<f32>,
    /// Whether `colors`/`depths` hold a rendered result (vs. the initial
    /// background fill).
    valid: bool,
    /// Selected for rendering in the current frame.
    pending: bool,
    /// Whether any of the tile's rays pushed sample points — only such
    /// tiles depend on the hash-grid parameters.
    sampled_grid: bool,
    /// Density ++ color `level_versions` snapshot at render time.
    versions: Vec<u64>,
    /// Occupancy [`content_signature`](OccupancyGrid::content_signature)
    /// at render time (0 = rendered without occupancy culling).
    occ_sig: u64,
}

impl TileState {
    fn new(rect: TileRect, background: Vec3) -> Self {
        let area = (rect.w * rect.h) as usize;
        TileState {
            rect,
            colors: vec![background; area],
            depths: vec![0.0; area],
            valid: false,
            pending: false,
            sampled_grid: false,
            versions: Vec::new(),
            occ_sig: 0,
        }
    }

    /// Whether the cached result is still valid against the current grid
    /// versions and occupancy signature. Tiles that never sampled the
    /// grid are immune to version bumps.
    fn fresh(&self, versions: &[u64], occ_sig: u64) -> bool {
        self.valid && self.occ_sig == occ_sig && (!self.sampled_grid || self.versions == versions)
    }
}

/// The resumable tile renderer for one camera view. See the
/// [module docs](self) for the frame lifecycle; [`render_view`] is its
/// full-budget one-shot client.
#[derive(Debug)]
pub struct FrameScheduler {
    camera: Camera,
    opts: RenderOptions,
    layout: TileLayout,
    tiles: Vec<TileState>,
    /// Round-robin start of the next frame's tile selection.
    cursor: usize,
    telemetry: RenderTelemetry,
}

impl FrameScheduler {
    /// A scheduler for `camera`'s frame, all tiles initially stale.
    ///
    /// # Panics
    ///
    /// Panics when the camera frame or the tile size is empty.
    pub fn new(camera: Camera, opts: RenderOptions) -> Self {
        let layout = TileLayout::new(camera.width, camera.height, opts.tile_size);
        let tiles = (0..layout.tile_count())
            .map(|i| TileState::new(layout.tile_rect(i), opts.background))
            .collect();
        FrameScheduler {
            camera,
            opts,
            layout,
            tiles,
            cursor: 0,
            telemetry: RenderTelemetry::default(),
        }
    }

    /// The frame's tile decomposition.
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    /// Cumulative telemetry since construction.
    pub fn telemetry(&self) -> &RenderTelemetry {
        &self.telemetry
    }

    /// The camera this scheduler renders.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// Marks every tile stale (e.g. after an out-of-band model change the
    /// version counters cannot see).
    pub fn invalidate_all(&mut self) {
        for t in &mut self.tiles {
            t.valid = false;
        }
    }

    /// Moves the scheduler to a new viewpoint. A camera with the same
    /// frame size keeps the tile buffers (all marked stale); a resize
    /// rebuilds the layout.
    pub fn set_camera(&mut self, camera: Camera) {
        if camera.width == self.camera.width && camera.height == self.camera.height {
            self.camera = camera;
            self.invalidate_all();
        } else {
            let telemetry = self.telemetry;
            *self = FrameScheduler::new(camera, self.opts);
            self.telemetry = telemetry;
        }
    }

    /// Whether every tile is fresh for the given model/occupancy state
    /// (no work would be scheduled).
    pub fn is_converged(&self, model: &NerfModel, occ: Option<&OccupancyGrid>) -> bool {
        let versions = grid_versions(model);
        let occ_sig = occ.map_or(0, OccupancyGrid::content_signature);
        self.tiles.iter().all(|t| t.fresh(&versions, occ_sig))
    }

    /// Renders up to `budget` worth of stale tiles, in parallel, each on
    /// a workspace checked out of `pool`. Passing `occ` turns on
    /// occupancy-guided sampling (changes pixel values — empty space is
    /// skipped); `None` reproduces the monolithic renderer bit-for-bit.
    #[expect(
        clippy::disallowed_methods,
        reason = "the frame deadline bounds render time; wall-clock values never enter pixels"
    )]
    pub fn render_frame(
        &mut self,
        model: &NerfModel,
        occ: Option<&OccupancyGrid>,
        budget: FrameBudget,
        pool: &WorkspacePool,
    ) -> FrameProgress {
        let versions = grid_versions(model);
        let occ_sig = occ.map_or(0, OccupancyGrid::content_signature);

        // Invalidate drifted tiles, then select up to the budget's quota
        // of stale ones, round-robin from the cursor.
        let mut invalidated = 0u64;
        for t in &mut self.tiles {
            if t.valid && !t.fresh(&versions, occ_sig) {
                t.valid = false;
                invalidated += 1;
            }
        }
        let n_tiles = self.tiles.len();
        let stale = self.tiles.iter().filter(|t| !t.valid).count();
        let fresh_at_start = n_tiles - stale;
        let quota = budget.max_tiles.unwrap_or(usize::MAX).min(stale);
        let mut selected = 0usize;
        let mut idx = self.cursor.min(n_tiles - 1);
        while selected < quota {
            if !self.tiles[idx].valid && !self.tiles[idx].pending {
                self.tiles[idx].pending = true;
                selected += 1;
            }
            idx = (idx + 1) % n_tiles;
        }
        if quota > 0 {
            self.cursor = idx;
        }

        let deadline = budget.max_time.map(|d| Instant::now() + d);
        let camera = self.camera;
        let opts = self.opts;
        let aabb = model.aabb();
        let versions_ref = &versions;

        // The selected tiles as an indexed work queue. Mutable borrows
        // are disjoint by construction (each tile appears once); the
        // per-item mutex only transfers that borrow to whichever runner
        // claims the index — it is never contended. Sized up front, so a
        // frame allocates the queue once whatever its tile count.
        let mut work: Vec<std::sync::Mutex<&mut TileState>> = Vec::with_capacity(selected);
        work.extend(self.tiles.iter_mut().filter_map(|t| {
            if t.pending {
                t.pending = false;
                Some(std::sync::Mutex::new(t))
            } else {
                None
            }
        }));
        // Fixed runner tasks, fleet-style, each holding ONE workspace for
        // the whole frame: this is what hard-bounds workspace mints by
        // the worker count. (Per-tile checkout would over-mint — a worker
        // blocked in a tile's nested parallel region can steal another
        // tile job and would need a second workspace.) Each runner counts
        // into its own telemetry tally, summed after the scope.
        let runners = rayon::current_num_threads().min(work.len()).max(1);
        #[expect(
            clippy::disallowed_types,
            reason = "Relaxed is enough for a work-stealing ticket: tile contents are synchronized by each tile's mutex"
        )]
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut tallies = Vec::new();
        if !work.is_empty() {
            tallies.resize(runners, RenderTelemetry::default());
            rayon::scope(|s| {
                for tally in &mut tallies {
                    s.spawn(|| {
                        let mut ws: Option<BatchWorkspace> = None;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= work.len() {
                                break;
                            }
                            if deadline.is_some_and(|d| Instant::now() > d) {
                                tally.tiles_deadline_skipped += 1;
                                continue;
                            }
                            let bws = ws.get_or_insert_with(|| match pool.checkout_batch(model) {
                                Some(ws) => {
                                    tally.workspaces_recycled += 1;
                                    ws
                                }
                                None => {
                                    tally.workspaces_minted += 1;
                                    BatchWorkspace::new(model)
                                }
                            });
                            #[expect(
                                clippy::unwrap_used,
                                reason = "lock poisoning means a sibling tile worker already panicked; propagate it"
                            )]
                            let t: &mut TileState = &mut work[i].lock().unwrap();
                            let (sampled_grid, tile_points, tile_color_points) = render_tile(
                                model,
                                &camera,
                                &aabb,
                                t.rect,
                                &opts,
                                occ,
                                bws,
                                &mut t.colors,
                                &mut t.depths,
                            );
                            t.valid = true;
                            t.sampled_grid = sampled_grid;
                            t.versions.clone_from(versions_ref);
                            t.occ_sig = occ_sig;
                            tally.tiles_rendered += 1;
                            tally.rays += u64::from(t.rect.w) * u64::from(t.rect.h);
                            tally.points += tile_points;
                            tally.color_points += tile_color_points;
                        }
                        if let Some(ws) = ws {
                            pool.park_batch(ws);
                        }
                    });
                }
            });
        }

        let mut frame = RenderTelemetry {
            frames: 1,
            tiles_cached: fresh_at_start as u64,
            tiles_invalidated: invalidated,
            ..RenderTelemetry::default()
        };
        for tally in &tallies {
            frame.add(tally);
        }
        self.telemetry.add(&frame);

        let tiles_stale = self.tiles.iter().filter(|t| !t.valid).count();
        FrameProgress {
            tiles_rendered: frame.tiles_rendered as usize,
            tiles_cached: fresh_at_start,
            tiles_stale,
            complete: tiles_stale == 0,
        }
    }

    /// Assembles the current frame (RGB + expected depth). Stale tiles
    /// contribute their last rendered content; never-rendered tiles are
    /// the background.
    pub fn frame(&self) -> (RgbImage, DepthImage) {
        let mut rgb = RgbImage::new(self.layout.frame_w, self.layout.frame_h);
        let mut depth = DepthImage::new(self.layout.frame_w, self.layout.frame_h);
        for t in &self.tiles {
            for dy in 0..t.rect.h {
                for dx in 0..t.rect.w {
                    let i = (dy * t.rect.w + dx) as usize;
                    rgb.set(t.rect.x0 + dx, t.rect.y0 + dy, t.colors[i]);
                    depth.set(t.rect.x0 + dx, t.rect.y0 + dy, t.depths[i]);
                }
            }
        }
        (rgb, depth)
    }
}

/// Density ++ color per-level version snapshot — the grid half of the
/// tile invalidation key.
fn grid_versions(model: &NerfModel) -> Vec<u64> {
    let mut v = model.density_grid().level_versions().to_vec();
    if let Some(c) = model.color_grid() {
        v.extend_from_slice(c.level_versions());
    }
    v
}

/// Marches one tile's rays through the workspace's forward-only render
/// pass ([`BatchWorkspace::render`]) into `colors`/`depths` (row-major
/// within the tile). Returns whether any ray sampled the grid, the sampled
/// point count, and the count the colour branch ran on.
///
/// Without `occ` the sampling lattice is exactly the monolithic
/// renderer's (`t = t0 + (k + 0.5)·δt` across the AABB span) — the
/// bit-identity contract. With `occ`, rays sample through
/// `sample_segments_occupancy_into`, so known-empty space costs one
/// bitfield probe per stratum instead of a full grid+MLP evaluation, and
/// a ray through empty space gets no samples (and no direction encoding):
/// it composites to pure background.
#[allow(
    clippy::too_many_arguments,
    reason = "tile geometry, options, occupancy, scratch and output slices are independent inputs"
)]
fn render_tile(
    model: &NerfModel,
    camera: &Camera,
    aabb: &Aabb,
    rect: TileRect,
    opts: &RenderOptions,
    occ: Option<&OccupancyGrid>,
    bws: &mut BatchWorkspace,
    colors: &mut [Vec3],
    depths: &mut [f32],
) -> (bool, u64, u64) {
    let n = opts.samples_per_ray.max(1);
    let rays = (rect.w * rect.h) as usize;
    bws.clear();
    bws.reserve_rays(rays);
    for dy in 0..rect.h {
        for dx in 0..rect.w {
            let r = (dy * rect.w + dx) as usize;
            let ray = camera.pixel_center_ray(rect.x0 + dx, rect.y0 + dy);
            if let Some((t0, t1)) = aabb.intersect(&ray) {
                match occ {
                    None => {
                        model.encode_dir(ray.dir, bws.sh_row_mut(r));
                        let dt = (t1 - t0) / n as f32;
                        for k in 0..n {
                            let t = t0 + (k as f32 + 0.5) * dt;
                            bws.rays.push_sample(t, dt);
                            bws.positions.push(ray.at(t));
                            bws.point_ray.push(r as u32);
                        }
                    }
                    Some(g) => {
                        sample_segments_occupancy_into::<StdRng>(
                            &ray,
                            aabb,
                            n,
                            g,
                            None,
                            &mut bws.seg_scratch,
                        );
                        if !bws.seg_scratch.is_empty() {
                            model.encode_dir(ray.dir, bws.sh_row_mut(r));
                            for i in 0..bws.seg_scratch.len() {
                                let (t, dt) = bws.seg_scratch[i];
                                bws.rays.push_sample(t, dt);
                                bws.positions.push(ray.at(t));
                                bws.point_ray.push(r as u32);
                            }
                        }
                    }
                }
            }
            bws.rays.end_ray();
        }
    }
    let points = bws.positions.len() as u64;
    let sampled_grid = points > 0;
    let color_points = bws.render(model, opts.background) as u64;
    for r in 0..rays {
        if bws.rays.ray_range(r).is_empty() {
            colors[r] = opts.background;
            depths[r] = 0.0;
        } else {
            let out = bws.output(r);
            colors[r] = out.color;
            depths[r] = out.depth;
        }
    }
    (sampled_grid, points, color_points)
}

/// Renders one full view through the tile path at full budget — the
/// one-shot client eval scores through. Workspaces come from the
/// process-wide [`shared_pool`], so repeated calls allocate nothing after
/// warmup.
pub fn render_view(
    model: &NerfModel,
    camera: &Camera,
    samples_per_ray: usize,
    background: Vec3,
    occ: Option<&OccupancyGrid>,
) -> (RgbImage, DepthImage) {
    let mut sched = FrameScheduler::new(*camera, RenderOptions::new(samples_per_ray, background));
    sched.render_frame(model, occ, FrameBudget::full(), shared_pool());
    sched.frame()
}

/// The process-wide workspace pool backing the one-shot
/// [`render_view`] / eval path. Serve fleets pass their own pool instead
/// so preview rendering and training slices share workspaces.
pub fn shared_pool() -> &'static WorkspacePool {
    static POOL: OnceLock<WorkspacePool> = OnceLock::new();
    POOL.get_or_init(WorkspacePool::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_covers_frame_without_overlap() {
        for (w, h, tile) in [(1, 1, 16), (13, 9, 4), (16, 16, 16), (17, 5, 7), (3, 40, 8)] {
            let layout = TileLayout::new(w, h, tile);
            let mut covered = vec![0u8; (w * h) as usize];
            for i in 0..layout.tile_count() {
                let r = layout.tile_rect(i);
                assert!(r.w >= 1 && r.h >= 1);
                assert!(r.x0 + r.w <= w && r.y0 + r.h <= h);
                for dy in 0..r.h {
                    for dx in 0..r.w {
                        covered[((r.y0 + dy) * w + r.x0 + dx) as usize] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "{w}x{h}/{tile} not a partition"
            );
        }
    }

    /// The tile arithmetic, exhaustively: for every small shape each pixel
    /// lies in exactly one tile rect and the grid is `ceil × ceil`.
    #[test]
    fn every_small_layout_is_an_exact_partition() {
        let mut covered = Vec::new();
        for w in 1..=40u32 {
            for h in 1..=40u32 {
                for tile in 1..=40u32 {
                    let layout = TileLayout::new(w, h, tile);
                    assert_eq!(
                        layout.tile_count(),
                        (w.div_ceil(tile) * h.div_ceil(tile)) as usize,
                        "{w}x{h}/{tile} tile count"
                    );
                    covered.clear();
                    covered.resize((w * h) as usize, 0u8);
                    for i in 0..layout.tile_count() {
                        let r = layout.tile_rect(i);
                        assert!(r.w >= 1 && r.h >= 1, "{w}x{h}/{tile} empty tile {i}");
                        assert!(
                            r.x0 + r.w <= w && r.y0 + r.h <= h,
                            "{w}x{h}/{tile} tile {i} escapes the frame"
                        );
                        for y in r.y0..r.y0 + r.h {
                            for x in r.x0..r.x0 + r.w {
                                covered[(y * w + x) as usize] += 1;
                            }
                        }
                    }
                    assert!(
                        covered.iter().all(|&c| c == 1),
                        "{w}x{h}/{tile} not a partition"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn zero_tile_size_panics() {
        let _ = TileLayout::new(4, 4, 0);
    }

    #[test]
    fn budget_constructors() {
        assert_eq!(FrameBudget::full().max_tiles, None);
        assert_eq!(FrameBudget::tiles(3).max_tiles, Some(3));
        assert!(FrameBudget::time(Duration::from_millis(5))
            .max_time
            .is_some());
    }
}
