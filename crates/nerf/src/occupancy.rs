//! The density occupancy grid Instant-NGP uses to skip empty space —
//! rebuilt as a batched, cached subsystem.
//!
//! A coarse boolean voxelisation of the scene AABB, refreshed periodically
//! from the model's current density field. Rays skip samples that land in
//! unoccupied voxels, which is what brings the per-iteration point count
//! from `rays × samples` down to the ~200 k the paper reports.
//!
//! Three layers make refreshes cheap enough to run on-device:
//!
//! * **Packed Morton bitfield** — occupancy is stored as one bit per cell
//!   in [`u64`] words indexed by the cell's 3D Morton (Z-order) code, so
//!   spatially adjacent cells share cache lines during ray marching
//!   ([`OccupancyGrid::occupied_at`] is a couple of shifts + one load).
//! * **Batched refresh** — [`OccupancyWorkspace::refresh`] probes cell
//!   densities through the same SoA kernel seams the trainer uses
//!   (`HashGrid::par_encode_batch_levels_with`, then the density head
//!   through the MLP driver's forward-only mode,
//!   `MlpBatchWorkspace::forward_only`, which keeps no activation),
//!   dispatched on the workspace's kernel backend ([`crate::kernels`])
//!   and bit-identical to probing cell by cell.
//! * **Amortisation** — the workspace keeps a persistent cell→embedding
//!   cache invalidated per grid level via [`HashGrid::level_versions`]
//!   (levels whose parameters didn't change are never re-encoded) and can
//!   rotate through a strided cell subset across refreshes
//!   (instant-ngp-style), so steady-state refreshes touch only dirty
//!   levels and `1/k` of the cells.
//!
//! A refresh applies one rule, Instant-NGP's decayed density EMA
//! ([`RefreshMode::DecayedEma`]). Its executable specification is a
//! test-local per-cell oracle (`DecayedEmaOracle` in
//! `crates/nerf/tests/occupancy_differential.rs`), against which that suite
//! differential-tests the batched refresh, bit for bit, across backends
//! and worker counts.

use crate::grid::HashGrid;
use crate::kernels::BackendHandle;
use crate::math::{Aabb, Vec3};
use crate::mlp::{Mlp, MlpBatchWorkspace};

/// Spreads the low 21 bits of `v`, inserting two zero bits between
/// consecutive bits (the "part 1 by 2" step of 3D Morton encoding).
#[inline]
fn part1by2(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff;
    x = (x | (x << 32)) & 0x1f_0000_0000_ffff;
    x = (x | (x << 16)) & 0x1f_0000_ff00_00ff;
    x = (x | (x << 8)) & 0x100f_00f0_0f00_f00f;
    x = (x | (x << 4)) & 0x10c3_0c30_c30c_30c3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// The 3D Morton (Z-order) code of a cell coordinate: the bits of `x`,
/// `y` and `z` interleaved (`x` in bit 0). Valid for coordinates up to
/// 2²¹ − 1 per axis.
#[inline]
pub fn morton3(x: u32, y: u32, z: u32) -> u64 {
    part1by2(x as u64) | (part1by2(y as u64) << 1) | (part1by2(z as u64) << 2)
}

/// A coarse boolean occupancy voxelisation of an AABB, stored as a packed
/// Morton-indexed bitfield.
///
/// # Example
///
/// ```
/// use instant3d_nerf::occupancy::OccupancyGrid;
/// use instant3d_nerf::math::{Aabb, Vec3};
///
/// let mut occ = OccupancyGrid::new(Aabb::UNIT, 16);
/// occ.update_from_fn(|p| if p.x > 0.5 { 10.0 } else { 0.0 }, 1.0);
/// assert!(occ.occupied_at(Vec3::new(0.9, 0.5, 0.5)));
/// assert!(!occ.occupied_at(Vec3::new(0.1, 0.5, 0.5)));
/// ```
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    aabb: Aabb,
    resolution: u32,
    /// `resolution³` — the logical cell count (the Morton index space is
    /// padded to the next power of two per axis; padding bits stay zero).
    num_cells: usize,
    /// One bit per cell at bit position `morton3(cx, cy, cz)`.
    words: Vec<u64>,
}

impl OccupancyGrid {
    /// Creates a fully-occupied grid (conservative start: nothing skipped
    /// until the first density update).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn new(aabb: Aabb, resolution: u32) -> Self {
        assert!(resolution > 0, "resolution must be non-zero");
        let pow2 = resolution.next_power_of_two() as u64;
        let bit_space = pow2 * pow2 * pow2;
        let mut occ = OccupancyGrid {
            aabb,
            resolution,
            num_cells: (resolution as usize).pow(3),
            words: vec![0u64; bit_space.div_ceil(64) as usize],
        };
        occ.fill();
        occ
    }

    /// The grid's bounding volume.
    pub fn aabb(&self) -> Aabb {
        self.aabb
    }

    /// Cells per axis.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Total number of (logical) cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// The packed bitfield: one bit per cell at position
    /// `morton3(cx, cy, cz)`. Bits at Morton codes of padded coordinates
    /// (≥ `resolution` on any axis) are always zero, so popcounts over the
    /// words count exactly the occupied cells.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn bit(cx: u32, cy: u32, cz: u32) -> (usize, u64) {
        let m = morton3(cx, cy, cz);
        ((m >> 6) as usize, 1u64 << (m & 63))
    }

    /// Cell coordinates of a linear (x-fastest) cell index.
    #[inline]
    fn linear_to_coords(&self, i: usize) -> (u32, u32, u32) {
        let r = self.resolution as usize;
        ((i % r) as u32, ((i / r) % r) as u32, (i / (r * r)) as u32)
    }

    /// Occupancy of the cell at integer coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when a coordinate is out of range.
    #[inline]
    pub fn occupied_cell(&self, cx: u32, cy: u32, cz: u32) -> bool {
        debug_assert!(cx < self.resolution && cy < self.resolution && cz < self.resolution);
        let (w, m) = Self::bit(cx, cy, cz);
        self.words[w] & m != 0
    }

    /// Sets the occupancy bit of the cell at integer coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when a coordinate is out of range.
    #[inline]
    pub fn set_cell(&mut self, cx: u32, cy: u32, cz: u32, occupied: bool) {
        debug_assert!(cx < self.resolution && cy < self.resolution && cz < self.resolution);
        let (w, m) = Self::bit(cx, cy, cz);
        if occupied {
            self.words[w] |= m;
        } else {
            self.words[w] &= !m;
        }
    }

    /// Occupancy of the cell with linear (x-fastest) index `i` — the
    /// ordering of [`OccupancyGrid::cell_centers`].
    #[inline]
    pub fn occupied_linear(&self, i: usize) -> bool {
        let (cx, cy, cz) = self.linear_to_coords(i);
        self.occupied_cell(cx, cy, cz)
    }

    /// Sets the occupancy bit of the cell with linear (x-fastest) index.
    #[inline]
    pub fn set_linear(&mut self, i: usize, occupied: bool) {
        let (cx, cy, cz) = self.linear_to_coords(i);
        self.set_cell(cx, cy, cz, occupied);
    }

    /// True when `p` lies in an occupied cell. Points outside the AABB are
    /// unoccupied by definition — the cheap reject that keeps the sampler
    /// honest even while every in-volume bit is set.
    #[inline]
    pub fn occupied_at(&self, p: Vec3) -> bool {
        let u = self.aabb.to_unit(p);
        if !(0.0..=1.0).contains(&u.x) || !(0.0..=1.0).contains(&u.y) || !(0.0..=1.0).contains(&u.z)
        {
            return false;
        }
        let r = self.resolution;
        let cx = ((u.x * r as f32) as u32).min(r - 1);
        let cy = ((u.y * r as f32) as u32).min(r - 1);
        let cz = ((u.z * r as f32) as u32).min(r - 1);
        self.occupied_cell(cx, cy, cz)
    }

    /// A 64-bit FNV-1a digest of the grid's contents (resolution, AABB
    /// and the packed occupancy bits). Two grids with equal signatures
    /// cull the same sample points, so cached render results that only
    /// depended on culling stay valid exactly while the signature holds —
    /// the occupancy half of the tile renderer's invalidation key.
    pub fn content_signature(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(PRIME);
        };
        mix(self.resolution as u64);
        for v in [
            self.aabb.min.x,
            self.aabb.min.y,
            self.aabb.min.z,
            self.aabb.max.x,
            self.aabb.max.y,
            self.aabb.max.z,
        ] {
            mix(v.to_bits() as u64);
        }
        for &w in &self.words {
            mix(w);
        }
        h
    }

    /// The world-space center of the cell at integer coordinates — the
    /// point a refresh probes.
    #[inline]
    pub fn cell_center(&self, cx: u32, cy: u32, cz: u32) -> Vec3 {
        let r = self.resolution;
        self.aabb.from_unit(Vec3::new(
            (cx as f32 + 0.5) / r as f32,
            (cy as f32 + 0.5) / r as f32,
            (cz as f32 + 0.5) / r as f32,
        ))
    }

    /// Sets occupancy by evaluating `density` at every cell center and
    /// marking cells whose density exceeds `threshold` (a direct way to
    /// shape a grid from an analytic field).
    pub fn update_from_fn<F: FnMut(Vec3) -> f32>(&mut self, mut density: F, threshold: f32) {
        let r = self.resolution;
        for cz in 0..r {
            for cy in 0..r {
                for cx in 0..r {
                    let occupied = density(self.cell_center(cx, cy, cz)) > threshold;
                    self.set_cell(cx, cy, cz, occupied);
                }
            }
        }
    }

    /// The world-space centers of all cells, in linear (x-fastest) order.
    pub fn cell_centers(&self) -> Vec<Vec3> {
        let r = self.resolution;
        let mut out = Vec::with_capacity(self.num_cells);
        for cz in 0..r {
            for cy in 0..r {
                for cx in 0..r {
                    out.push(self.cell_center(cx, cy, cz));
                }
            }
        }
        out
    }

    /// Sets occupancy from a per-cell value buffer in [`cell_centers`]
    /// order (a density EMA per cell, thresholded — Instant-NGP's decayed
    /// occupancy update).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.num_cells()`.
    ///
    /// [`cell_centers`]: OccupancyGrid::cell_centers
    pub fn set_from_values(&mut self, values: &[f32], threshold: f32) {
        assert_eq!(values.len(), self.num_cells, "cell value count mismatch");
        let r = self.resolution;
        let mut i = 0usize;
        for cz in 0..r {
            for cy in 0..r {
                for cx in 0..r {
                    self.set_cell(cx, cy, cz, values[i] > threshold);
                    i += 1;
                }
            }
        }
    }

    /// Fraction of cells currently occupied.
    pub fn occupancy_fraction(&self) -> f32 {
        let set: u64 = self.words.iter().map(|w| w.count_ones() as u64).sum();
        set as f32 / self.num_cells as f32
    }

    /// Marks every cell occupied (used when resetting between scenes).
    pub fn fill(&mut self) {
        let r = self.resolution;
        if r.is_power_of_two() {
            // Morton codes of valid cells are exactly 0..r³: set them
            // wholesale and keep the (absent) padding clear.
            let bits = self.num_cells;
            for (w, word) in self.words.iter_mut().enumerate() {
                let lo = w * 64;
                *word = if lo + 64 <= bits {
                    u64::MAX
                } else if lo >= bits {
                    0
                } else {
                    (1u64 << (bits - lo)) - 1
                };
            }
        } else {
            self.words.fill(0);
            for cz in 0..r {
                for cy in 0..r {
                    for cx in 0..r {
                        self.set_cell(cx, cy, cz, true);
                    }
                }
            }
        }
    }
}

/// How [`OccupancyWorkspace::refresh`] turns probed densities into bits.
/// There is one rule.
///
/// The type, and `refresh`'s `mode` argument, survive for one reason
/// only: the perf ledger's step replica (`ledger/`, a package of its own)
/// names `RefreshMode::DecayedEma` in its refresh call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Decayed density EMA per cell:
    /// `ema = max(seeded ? ema × 0.95 : 0, density)`,
    /// `bit = ema > threshold` — the trainer's refresh rule. The EMA store
    /// persists in the workspace; unseeded cells start from 0 rather than
    /// decaying the `∞` sentinel (pinned by a regression test).
    DecayedEma,
}

/// What one [`OccupancyWorkspace::refresh`] actually did — the
/// amortisation telemetry the trainer folds into its `WorkloadStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyRefreshStats {
    /// Cells whose density was (re)probed this refresh (`num_cells / k`
    /// for subset stride `k`).
    pub cells_probed: usize,
    /// Grid levels that had to be re-encoded for those cells (levels whose
    /// parameters were unchanged since the cache was filled are skipped).
    pub levels_encoded: usize,
    /// Hash-table reads the re-encode performed:
    /// `8 × cells_probed × levels_encoded`.
    pub grid_reads: u64,
}

/// Cache-identity key: when any of this changes, the workspace's buffers
/// are rebuilt from scratch.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShapeKey {
    resolution: u32,
    occ_aabb: Aabb,
    model_aabb: Aabb,
    levels: usize,
    emb_dim: usize,
    subset: u32,
}

/// Persistent state for batched occupancy refreshes: precomputed probe
/// positions, the per-level-versioned cell→embedding cache, the per-cell
/// density EMA store, and the density probe's MLP scratch (one block per
/// worker). Create once per trainer and reuse across the run —
/// steady-state refreshes allocate nothing.
///
/// All refresh work runs through the batched kernel seams
/// ([`HashGrid::par_encode_batch_levels_with`], and the MLP forward
/// through the forward-only [`MlpBatchWorkspace::forward_only`]), dispatched on
/// the [`BackendHandle`] the workspace was created with, so results are
/// bit-identical to probing each cell on its own, for every registered
/// backend and rayon worker count.
#[derive(Debug)]
pub struct OccupancyWorkspace {
    /// The kernel backend every refresh dispatches to.
    backend: BackendHandle,
    shape: Option<ShapeKey>,
    /// Unit-cube probe position (in the *model grid's* frame) per cell,
    /// linear order.
    unit_centers: Vec<Vec3>,
    /// Persistent cell→embedding cache, `num_cells × emb_dim` row-major.
    emb: Vec<f32>,
    /// `levels × subset` grid versions the cache rows were computed at:
    /// entry `l * subset + phase` covers level `l` of the cells in subset
    /// `phase`. `u64::MAX` = never cached.
    cached_versions: Vec<u64>,
    /// Persistent per-cell density EMA (`∞` = unseeded), linear order.
    ema: Vec<f32>,
    /// Rotating subset phase for the next refresh.
    phase: u32,
    /// The density probe's forward-only MLP scratch: only the densities
    /// are read, so no cell's activations outlive their block. Its output
    /// holds the probed cells' densities, in probe order.
    mlp_ws: MlpBatchWorkspace,
    subset_cells: Vec<u32>,
    subset_pts: Vec<Vec3>,
    subset_emb: Vec<f32>,
    /// This refresh's levels whose cached rows are stale.
    dirty: Vec<usize>,
}

impl Default for OccupancyWorkspace {
    /// An empty workspace on the engine's default backend.
    fn default() -> Self {
        Self::new(crate::kernels::default_backend())
    }
}

impl OccupancyWorkspace {
    /// An empty workspace dispatching to `backend`; buffers are shaped on
    /// the first refresh.
    pub fn new(backend: BackendHandle) -> Self {
        OccupancyWorkspace {
            backend,
            shape: None,
            unit_centers: Vec::new(),
            emb: Vec::new(),
            cached_versions: Vec::new(),
            ema: Vec::new(),
            phase: 0,
            mlp_ws: MlpBatchWorkspace::default(),
            subset_cells: Vec::new(),
            subset_pts: Vec::new(),
            subset_emb: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// The per-cell density EMA store (linear cell order; `∞` marks cells
    /// never probed).
    pub fn ema(&self) -> &[f32] {
        &self.ema
    }

    /// The kernel backend refreshes dispatch to.
    pub fn backend(&self) -> &BackendHandle {
        &self.backend
    }

    /// Returns the workspace to its just-constructed state while keeping
    /// buffer capacity: the next refresh rebuilds probe centers, the
    /// embedding cache, the density-EMA store (back to "never probed")
    /// and the subset rotation phase from scratch.
    ///
    /// Forgetting refresh *history* is required when a pooled workspace
    /// moves to a different training job, whose results must not depend on
    /// the donor job's EMA or phase (the serve layer's per-job determinism
    /// contract).
    pub fn reset(&mut self) {
        self.shape = None;
        self.phase = 0;
    }

    /// Re-points refresh dispatch at `backend` (pooled workspaces may be
    /// recycled between jobs configured with different kernel backends).
    /// Pair with [`reset`](OccupancyWorkspace::reset) when the workspace
    /// changes hands: the refresh history belongs to the donor job.
    pub fn set_backend(&mut self, backend: BackendHandle) {
        self.backend = backend;
    }

    /// (Re)builds buffers when the grid/model/occupancy shape changed.
    fn ensure_shape(
        &mut self,
        occ: &OccupancyGrid,
        grid: &HashGrid,
        model_aabb: Aabb,
        subset: u32,
    ) {
        let key = ShapeKey {
            resolution: occ.resolution(),
            occ_aabb: occ.aabb(),
            model_aabb,
            levels: grid.levels().len(),
            emb_dim: grid.output_dim(),
            subset,
        };
        if self.shape == Some(key) {
            return;
        }
        let cells_changed = match self.shape {
            Some(prev) => {
                prev.resolution != key.resolution
                    || prev.occ_aabb != key.occ_aabb
                    || prev.model_aabb != key.model_aabb
            }
            None => true,
        };
        let n = occ.num_cells();
        if cells_changed {
            // Probe positions: the `from_unit(center)` → `to_unit`
            // composition a per-cell probe evaluates, computed once and
            // reused every refresh.
            self.unit_centers.clear();
            self.unit_centers.reserve(n);
            let r = occ.resolution();
            for cz in 0..r {
                for cy in 0..r {
                    for cx in 0..r {
                        self.unit_centers
                            .push(model_aabb.to_unit(occ.cell_center(cx, cy, cz)));
                    }
                }
            }
            self.ema.clear();
            self.ema.resize(n, f32::INFINITY);
            self.phase = 0;
        }
        self.emb.resize(n * key.emb_dim, 0.0);
        self.cached_versions.clear();
        self.cached_versions
            .resize(key.levels * subset as usize, u64::MAX);
        self.shape = Some(key);
    }

    /// Sizes every buffer the next [`OccupancyWorkspace::refresh`] with
    /// the same arguments writes, so that refresh allocates nothing. A
    /// caller about to run the refresh on the worker pool calls this
    /// first, so the buffers come from its own thread's allocator arena.
    ///
    /// # Panics
    ///
    /// Panics if `subset == 0`.
    pub fn reserve(
        &mut self,
        occ: &OccupancyGrid,
        grid: &HashGrid,
        sigma_mlp: &Mlp,
        model_aabb: Aabb,
        subset: u32,
    ) {
        assert!(subset >= 1, "subset stride must be at least 1");
        let k = subset as usize;
        self.ensure_shape(occ, grid, model_aabb, subset);
        self.dirty.clear();
        self.dirty.reserve(grid.levels().len());
        // The first phase probes the most cells.
        let m = occ.num_cells().div_ceil(k);
        if k > 1 {
            self.subset_cells.clear();
            self.subset_cells.reserve(m);
            self.subset_pts.clear();
            self.subset_pts.reserve(m);
            let w = grid.output_dim();
            self.subset_emb
                .reserve((m * w).saturating_sub(self.subset_emb.len()));
        }
        self.mlp_ws.reserve(sigma_mlp, m, false);
    }

    /// One batched occupancy refresh: probes the density of this round's
    /// cell subset through the SoA kernel seams (on the workspace's
    /// backend — bits are identical for every backend and worker count),
    /// folds each density into the cell's EMA and rewrites those cells'
    /// bits (see [`RefreshMode::DecayedEma`]).
    ///
    /// * `model_aabb` — the volume the hash grid covers (world probe
    ///   positions are mapped through it, exactly like the trainer's
    ///   per-point grid encode).
    /// * `subset` — stride `k ≥ 1`: each refresh probes the cells whose
    ///   linear index ≡ phase (mod `k`), and the phase rotates so `k`
    ///   consecutive refreshes cover every cell once. `1` = full refresh.
    ///
    /// Embeddings are served from the persistent cache: only levels whose
    /// [`HashGrid::level_versions`] moved since this subset's rows were
    /// cached are re-encoded. The small density MLP always re-runs (its
    /// weights change every iteration; it is a few percent of the encode
    /// cost).
    ///
    /// # Panics
    ///
    /// Panics if `subset == 0` or `sigma_mlp` doesn't map the grid's
    /// embedding width to a single output.
    #[allow(
        clippy::too_many_arguments,
        reason = "grid, density head, bounds and refresh policy are independent inputs"
    )]
    pub fn refresh(
        &mut self,
        occ: &mut OccupancyGrid,
        grid: &HashGrid,
        sigma_mlp: &Mlp,
        model_aabb: Aabb,
        threshold: f32,
        mode: RefreshMode,
        subset: u32,
    ) -> OccupancyRefreshStats {
        let backend = self.backend.clone();
        assert!(subset >= 1, "subset stride must be at least 1");
        assert_eq!(
            sigma_mlp.in_dim(),
            grid.output_dim(),
            "density MLP input width must match the grid embedding"
        );
        assert_eq!(sigma_mlp.out_dim(), 1, "density MLP must be scalar-valued");
        self.ensure_shape(occ, grid, model_aabb, subset);

        let k = subset as usize;
        let phase = (self.phase as usize) % k;
        self.phase = ((phase + 1) % k) as u32;
        let versions = grid.level_versions();
        self.dirty.clear();
        self.dirty.extend(
            (0..grid.levels().len())
                .filter(|&l| self.cached_versions[l * k + phase] != versions[l]),
        );

        let this = &mut *self;
        let dirty = &this.dirty;
        let n = occ.num_cells();
        let w = grid.output_dim();
        let cells_probed;
        if k == 1 {
            // Full refresh: encode dirty levels straight into the cache,
            // forward the whole cache, rewrite every bit.
            grid.par_encode_batch_levels_with(&backend, dirty, &this.unit_centers, &mut this.emb);
            for &l in dirty {
                this.cached_versions[l] = versions[l];
            }
            let emb = &this.emb;
            let densities = this
                .mlp_ws
                .forward_only(&backend, sigma_mlp, n, |cells, rows| {
                    rows.copy_from_slice(&emb[cells.start * w..cells.end * w]);
                });
            let r = occ.resolution;
            let mut i = 0usize;
            for cz in 0..r {
                for cy in 0..r {
                    for cx in 0..r {
                        let bit = apply_mode(mode, &mut this.ema[i], densities[i], threshold);
                        occ.set_cell(cx, cy, cz, bit);
                        i += 1;
                    }
                }
            }
            cells_probed = n;
        } else {
            // Rotating subset: gather this phase's rows out of the cache,
            // re-encode only the dirty levels for them, write the rows
            // back, and probe just those cells.
            this.subset_cells.clear();
            this.subset_pts.clear();
            for i in (phase..n).step_by(k) {
                this.subset_cells.push(i as u32);
                this.subset_pts.push(this.unit_centers[i]);
            }
            let m = this.subset_cells.len();
            this.subset_emb.resize(m * w, 0.0);
            for (j, &i) in this.subset_cells.iter().enumerate() {
                let i = i as usize;
                this.subset_emb[j * w..(j + 1) * w].copy_from_slice(&this.emb[i * w..(i + 1) * w]);
            }
            grid.par_encode_batch_levels_with(
                &backend,
                dirty,
                &this.subset_pts,
                &mut this.subset_emb,
            );
            if !dirty.is_empty() {
                // Write the refreshed rows back so the cache stays
                // current for this phase (skipped on a warm cache: the
                // encode was a no-op, the rows are bit-identical).
                for (j, &i) in this.subset_cells.iter().enumerate() {
                    let i = i as usize;
                    this.emb[i * w..(i + 1) * w]
                        .copy_from_slice(&this.subset_emb[j * w..(j + 1) * w]);
                }
                for &l in dirty {
                    this.cached_versions[l * k + phase] = versions[l];
                }
            }
            let subset_emb = &this.subset_emb;
            let densities = this
                .mlp_ws
                .forward_only(&backend, sigma_mlp, m, |js, rows| {
                    rows.copy_from_slice(&subset_emb[js.start * w..js.end * w]);
                });
            for (j, &i) in this.subset_cells.iter().enumerate() {
                let i = i as usize;
                let bit = apply_mode(mode, &mut this.ema[i], densities[j], threshold);
                occ.set_linear(i, bit);
            }
            cells_probed = m;
        }
        OccupancyRefreshStats {
            cells_probed,
            levels_encoded: dirty.len(),
            grid_reads: 8 * cells_probed as u64 * dirty.len() as u64,
        }
    }
}

/// EMA decay per probed refresh of a cell ([`RefreshMode::DecayedEma`]).
const EMA_DECAY: f32 = 0.95;

/// One cell's EMA update and bit decision.
#[inline]
fn apply_mode(mode: RefreshMode, ema: &mut f32, density: f32, threshold: f32) -> bool {
    match mode {
        RefreshMode::DecayedEma => {
            let prev = if ema.is_finite() {
                *ema * EMA_DECAY
            } else {
                0.0
            };
            *ema = prev.max(density);
            *ema > threshold
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_fully_occupied() {
        let occ = OccupancyGrid::new(Aabb::UNIT, 4);
        assert_eq!(occ.occupancy_fraction(), 1.0);
        assert!(occ.occupied_at(Vec3::splat(0.5)));
        assert_eq!(occ.num_cells(), 64);
    }

    #[test]
    fn outside_aabb_is_unoccupied() {
        let occ = OccupancyGrid::new(Aabb::UNIT, 4);
        assert!(!occ.occupied_at(Vec3::splat(2.0)));
        assert!(!occ.occupied_at(Vec3::new(-0.1, 0.5, 0.5)));
    }

    #[test]
    fn update_culls_empty_half() {
        let mut occ = OccupancyGrid::new(Aabb::UNIT, 8);
        occ.update_from_fn(|p| if p.y > 0.5 { 5.0 } else { 0.0 }, 1.0);
        assert!(occ.occupied_at(Vec3::new(0.5, 0.9, 0.5)));
        assert!(!occ.occupied_at(Vec3::new(0.5, 0.1, 0.5)));
        assert!((occ.occupancy_fraction() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn fill_resets_everything() {
        let mut occ = OccupancyGrid::new(Aabb::UNIT, 4);
        occ.update_from_fn(|_| 0.0, 1.0);
        assert_eq!(occ.occupancy_fraction(), 0.0);
        occ.fill();
        assert_eq!(occ.occupancy_fraction(), 1.0);
    }

    #[test]
    fn non_unit_aabb_mapping() {
        let aabb = Aabb::new(Vec3::new(-2.0, -2.0, -2.0), Vec3::new(2.0, 2.0, 2.0));
        let mut occ = OccupancyGrid::new(aabb, 4);
        occ.update_from_fn(|p| if p.norm() < 1.0 { 5.0 } else { 0.0 }, 1.0);
        assert!(occ.occupied_at(Vec3::ZERO));
        assert!(!occ.occupied_at(Vec3::new(1.9, 1.9, 1.9)));
    }

    #[test]
    #[should_panic]
    fn zero_resolution_panics() {
        let _ = OccupancyGrid::new(Aabb::UNIT, 0);
    }

    #[test]
    fn morton_codes_are_unique_and_local() {
        // Unique over a small cube…
        let mut seen = std::collections::BTreeSet::new();
        for z in 0..8u32 {
            for y in 0..8u32 {
                for x in 0..8u32 {
                    assert!(seen.insert(morton3(x, y, z)));
                }
            }
        }
        // …axis-aligned unit steps flip exactly one interleaved bit group.
        assert_eq!(morton3(1, 0, 0), 1);
        assert_eq!(morton3(0, 1, 0), 2);
        assert_eq!(morton3(0, 0, 1), 4);
        assert_eq!(morton3(3, 3, 3), 0b111111);
        // High coordinates stay in range (21 bits per axis → 63 bits).
        assert!(morton3(0x1f_ffff, 0x1f_ffff, 0x1f_ffff) < 1u64 << 63);
    }

    #[test]
    fn packed_bits_match_linear_view_on_non_pow2_resolution() {
        // Resolution 5 exercises the Morton padding: valid bits must be
        // exactly the 125 cells, nothing from the padded 8³ index space.
        let mut occ = OccupancyGrid::new(Aabb::UNIT, 5);
        assert_eq!(occ.occupancy_fraction(), 1.0);
        let set: u32 = occ.words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(set, 125);
        let values: Vec<f32> = (0..125)
            .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
            .collect();
        occ.set_from_values(&values, 0.5);
        for (i, v) in values.iter().enumerate() {
            assert_eq!(occ.occupied_linear(i), *v > 0.5, "cell {i}");
        }
        let expect = values.iter().filter(|&&v| v > 0.5).count();
        let set: u32 = occ.words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(set as usize, expect);
    }

    #[test]
    fn decayed_ema_refresh_seeds_then_decays() {
        // Regression pin for the EMA rule: the first probe of a cell seeds
        // from 0 (not from a decayed ∞ sentinel); later probes take
        // max(prev × 0.95, density).
        use crate::activation::Activation;
        use crate::grid::{HashGrid, HashGridConfig};
        use crate::mlp::{Mlp, MlpConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(3);
        let mut grid = HashGrid::new_random(
            HashGridConfig {
                levels: 2,
                log2_table_size: 8,
                base_resolution: 4,
                max_resolution: 8,
                ..HashGridConfig::default()
            },
            &mut rng,
        );
        let mlp = Mlp::new(
            MlpConfig::new(
                grid.output_dim(),
                &[8],
                1,
                Activation::Relu,
                Activation::TruncExp,
            ),
            &mut rng,
        );
        let mut occ = OccupancyGrid::new(Aabb::UNIT, 3);
        let mut ws = OccupancyWorkspace::new(crate::kernels::scalar());
        ws.refresh(
            &mut occ,
            &grid,
            &mlp,
            Aabb::UNIT,
            0.5,
            RefreshMode::DecayedEma,
            1,
        );
        // First refresh: ema == the probed densities (seeded via max(0, d)).
        let mut probe_ws = mlp.workspace();
        let mut emb = vec![0.0; grid.output_dim()];
        let d1: Vec<f32> = occ
            .cell_centers()
            .iter()
            .map(|&c| {
                grid.encode_into(
                    Aabb::UNIT.to_unit(c),
                    &mut emb,
                    &mut crate::grid::NullObserver,
                );
                mlp.forward(&emb, &mut probe_ws)[0]
            })
            .collect();
        assert_eq!(ws.ema(), &d1[..], "first refresh seeds ema from max(0, d)");

        // Kill the density field; the EMA must decay, not vanish.
        grid.params_mut().fill(crate::fp16::F16::ZERO);
        ws.refresh(
            &mut occ,
            &grid,
            &mlp,
            Aabb::UNIT,
            0.5,
            RefreshMode::DecayedEma,
            1,
        );
        let d2: Vec<f32> = occ
            .cell_centers()
            .iter()
            .map(|&c| {
                grid.encode_into(
                    Aabb::UNIT.to_unit(c),
                    &mut emb,
                    &mut crate::grid::NullObserver,
                );
                mlp.forward(&emb, &mut probe_ws)[0]
            })
            .collect();
        for i in 0..occ.num_cells() {
            let expect = (d1[i] * 0.95).max(d2[i]);
            assert_eq!(ws.ema()[i], expect, "cell {i}: decayed max");
            assert_eq!(occ.occupied_linear(i), expect > 0.5, "cell {i}: bit");
        }

        // And cells outside the AABB stay unoccupied regardless of state.
        assert!(!occ.occupied_at(Vec3::splat(1.5)));
        assert!(!occ.occupied_at(Vec3::new(-0.01, 0.5, 0.5)));
    }
}
