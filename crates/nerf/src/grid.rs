//! The multiresolution hash-grid embedding of Instant-NGP (Step ③-①).
//!
//! A [`HashGrid`] is a stack of `L` levels; level `l` overlays the unit cube
//! with a virtual grid of resolution `N_l` and stores per-vertex feature
//! vectors (`F` values each) in a 1D table. Coarse levels whose full vertex
//! set fits the table are stored densely (collision-free); fine levels use
//! the spatial hash of Eq. 3 ([`crate::hash::spatial_hash`]).
//!
//! The tables hold [`F16`]s, the half precision §5.1 computes in: 2 bytes
//! per feature, the `F × 2` bytes per access the accelerator and workload
//! models charge. The encode widens every gathered entry to `f32` exactly
//! and accumulates in `f32`; the optimizer narrows only the parameters it
//! updates (round to nearest even, see [`F16::from_f32`]), so the rest keep
//! their bits.
//!
//! Querying a 3D point trilinearly interpolates the 8 surrounding vertex
//! features at every level and concatenates the per-level results — this is
//! the operation the paper identifies as >80 % of NeRF training time, and
//! the access stream the Instant-3D accelerator (FRM/BUM units) optimises.
//!
//! The backward pass scatters the upstream embedding gradient back onto the
//! same 8 vertices per level with the same trilinear weights.
//!
//! An optional [`GridAccessObserver`] receives every table read and gradient
//! write, which is how the `instant3d-trace` crate captures the address
//! streams behind Figs. 8, 9 and 10.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::adam::{Adam, SparseUpdate};
use crate::fp16::{self, F16};
use crate::hash::{vertex_address, AddressMode, CORNER_OFFSETS};
use crate::kernels::{consume_sweep, BackendHandle};
use crate::math::Vec3;
use crate::simd::F32x8;
use rand::Rng;
use std::sync::{Mutex, PoisonError};

/// Memory-access phase, used by observers and the accelerator simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPhase {
    /// Feed-forward embedding read (Step ③-① forward).
    FeedForward,
    /// Back-propagation gradient update (Step ③-① backward).
    BackProp,
}

/// Receives every hash-table access the grid performs.
///
/// Implementations must be cheap: the grid calls the observer once per
/// corner per level per queried point.
pub trait GridAccessObserver {
    /// A table access at `level`, in-level entry index `addr`, during `phase`.
    /// `corner` is the 0..8 corner id within the interpolation cube.
    fn on_access(&mut self, phase: AccessPhase, level: u32, corner: u8, addr: u32);
}

/// A no-op observer (useful default for tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl GridAccessObserver for NullObserver {
    #[inline]
    fn on_access(&mut self, _: AccessPhase, _: u32, _: u8, _: u32) {}
}

/// Identifies which grid of a decomposed model an access refers to.
///
/// Instant-3D (§3) splits the embedding grid into a density grid and a
/// color grid; the accelerator stores them in separate SRAM regions, so
/// trace capture and simulation need the tag. Coupled (Instant-NGP) models
/// only ever report [`GridBranch::Density`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GridBranch {
    /// The density grid (or the single shared grid when coupled).
    Density,
    /// The color grid (decoupled topology only).
    Color,
}

/// An access observer that also learns which branch is being accessed.
///
/// Driven by the scalar reference step (`Trainer::step_scalar_observed`
/// in `instant3d-core`), so records arrive in the paper's point-major
/// order. The batched engine takes no observer; it has the reference
/// step's bits, so the reference trace describes its traffic too.
pub trait BranchObserver {
    /// Called once per table access, tagged with the branch.
    fn on_branch_access(
        &mut self,
        branch: GridBranch,
        phase: AccessPhase,
        level: u32,
        corner: u8,
        addr: u32,
    );
}

/// No-op branch observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullBranchObserver;

impl BranchObserver for NullBranchObserver {
    #[inline]
    fn on_branch_access(&mut self, _: GridBranch, _: AccessPhase, _: u32, _: u8, _: u32) {}
}

/// Configuration of a multiresolution hash grid.
///
/// Features are stored as [`F16`], the accelerator's storage format (the
/// paper's §5.1 runs every algorithm-side computation in half precision):
/// 2 bytes per scalar, so [`HashGridConfig::table_bytes_fp16`] is the
/// table's resident size.
#[derive(Debug, Clone, PartialEq)]
pub struct HashGridConfig {
    /// Number of resolution levels `L`.
    pub levels: usize,
    /// Features per table entry `F` (the paper and Instant-NGP use 2).
    pub features_per_entry: usize,
    /// log2 of the per-level hash-table size `T`.
    pub log2_table_size: u32,
    /// Coarsest virtual grid resolution `N_min`.
    pub base_resolution: u32,
    /// Finest virtual grid resolution `N_max`.
    pub max_resolution: u32,
    /// Uniform init scale: features start in `[-init_scale, init_scale]`.
    pub init_scale: f32,
}

impl Default for HashGridConfig {
    /// A laptop-scale default (the paper-scale tables are selected by the
    /// experiment configs): 8 levels, 2 features, 2^14-entry tables,
    /// resolutions 16 → 256.
    fn default() -> Self {
        HashGridConfig {
            levels: 8,
            features_per_entry: 2,
            log2_table_size: 14,
            base_resolution: 16,
            max_resolution: 256,
            init_scale: 1e-4,
        }
    }
}

impl HashGridConfig {
    /// The Instant-NGP paper-scale configuration: 16 levels, `T = 2^19`.
    pub fn instant_ngp() -> Self {
        HashGridConfig {
            levels: 16,
            features_per_entry: 2,
            log2_table_size: 19,
            base_resolution: 16,
            max_resolution: 512,
            init_scale: 1e-4,
        }
    }

    /// Returns a copy whose per-level table size is scaled by `factor`
    /// (e.g. 0.25 for the Instant-3D color grid at `S_D : S_C = 1 : 0.25`).
    ///
    /// The scale is applied in log2 space, so `factor` must be a power of
    /// two; other values are rounded to the nearest power of two.
    pub fn with_size_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "size factor must be positive");
        let delta = factor.log2().round() as i64;
        let new = self.log2_table_size as i64 + delta;
        self.log2_table_size = new.clamp(4, 30) as u32;
        self
    }

    /// Per-level virtual grid resolutions `N_l = ⌊N_min · b^l⌋` with
    /// `b = exp((ln N_max − ln N_min)/(L−1))` (Instant-NGP Eq. 2-3).
    pub fn level_resolutions(&self) -> impl Iterator<Item = u32> + '_ {
        assert!(self.levels >= 1);
        let b = if self.levels == 1 {
            0.0
        } else {
            ((self.max_resolution as f64).ln() - (self.base_resolution as f64).ln())
                / (self.levels as f64 - 1.0)
        };
        (0..self.levels).map(move |l| {
            ((self.base_resolution as f64) * (b * l as f64).exp() + 1e-6).floor() as u32
        })
    }

    /// Hash-table entries per level (`T`).
    pub fn table_size(&self) -> u32 {
        1u32 << self.log2_table_size
    }

    /// Total number of stored feature scalars across all levels.
    pub fn num_params(&self) -> usize {
        self.level_resolutions()
            .map(|r| {
                let t = dense_vertex_count(r).min(u64::from(self.table_size())) as usize;
                t * self.features_per_entry
            })
            .sum()
    }

    /// Total table bytes if stored as fp16 (what the accelerator's SRAM holds).
    pub fn table_bytes_fp16(&self) -> usize {
        self.num_params() * 2
    }
}

/// Vertices of a level of virtual resolution `resolution`, `(r + 1)³`,
/// saturating at `u64::MAX`: a level stores them densely when they fit its
/// table and hashes them otherwise. The one count behind
/// [`HashGrid::new`], [`HashGridConfig::num_params`] and the trainer's
/// config validation, so no resolution can overflow one and not the other.
pub fn dense_vertex_count(resolution: u32) -> u64 {
    (u64::from(resolution) + 1).saturating_pow(3)
}

/// One resolution level of the grid.
#[derive(Debug, Clone)]
pub struct GridLevel {
    /// Virtual grid resolution `N_l` (cells per axis).
    pub resolution: u32,
    /// Entries in this level's table.
    pub table_size: u32,
    /// Dense or hashed addressing.
    pub mode: AddressMode,
    /// Offset (in entries) of this level within the concatenated table.
    pub entry_offset: u32,
}

/// Where a [`HashGrid`]'s features live, without the features: the
/// configuration, the per-level metadata and the level cuts of the flat
/// table. It is all a gradient scatter reads, so the
/// [`Kernels::grid_scatter_level`](crate::kernels::Kernels::grid_scatter_level)
/// seam borrows the layout instead of the grid, and one level's optimizer
/// sweep can write the grid's table while other levels scatter
/// ([`HashGrid::par_backward_step_with`]). A `HashGrid` derefs to its
/// layout.
#[derive(Debug, Clone)]
pub struct GridLayout {
    cfg: HashGridConfig,
    levels: Vec<GridLevel>,
    /// Level `l`'s scalars are `param_offsets[l]..param_offsets[l + 1]`
    /// of the flat, level-major table.
    param_offsets: Vec<usize>,
    /// `0..levels`, the level list of a full encode.
    level_ids: Vec<usize>,
}

/// The multiresolution hash grid: feature storage plus interpolation.
///
/// # Example
///
/// ```
/// use instant3d_nerf::grid::{HashGrid, HashGridConfig};
/// use instant3d_nerf::math::Vec3;
///
/// let cfg = HashGridConfig { levels: 4, ..HashGridConfig::default() };
/// let grid = HashGrid::new(cfg);
/// assert_eq!(grid.output_dim(), 4 * 2);
/// let emb = grid.encode(Vec3::splat(0.5));
/// assert!(emb.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct HashGrid {
    layout: GridLayout,
    /// All feature scalars, level-major: level l occupies
    /// `params[offset_l .. offset_l + table_size_l * F]`. Arithmetic widens
    /// them to `f32` exactly; the optimizer narrows what it updates.
    params: Vec<F16>,
    /// Per-level parameter versions: `level_versions[l]` changes whenever
    /// level `l`'s features may have changed. Consumers (the occupancy
    /// subsystem's embedding cache) compare versions to skip re-encoding
    /// levels whose parameters are unchanged.
    level_versions: Vec<u64>,
    /// Monotone clock backing [`HashGrid::level_versions`].
    version_clock: u64,
}

impl std::ops::Deref for HashGrid {
    type Target = GridLayout;

    fn deref(&self) -> &GridLayout {
        &self.layout
    }
}

impl HashGrid {
    /// Creates a grid with all features initialised to zero.
    ///
    /// Use [`HashGrid::init_random`] (or [`HashGrid::new_random`]) before
    /// training: Instant-NGP initialises features uniformly in `±1e-4`.
    pub fn new(cfg: HashGridConfig) -> Self {
        assert!(cfg.levels >= 1, "need at least one level");
        assert!(cfg.features_per_entry >= 1, "need at least one feature");
        assert!(
            cfg.base_resolution >= 1 && cfg.max_resolution >= cfg.base_resolution,
            "resolutions must satisfy 1 <= base <= max"
        );
        let mut levels = Vec::with_capacity(cfg.levels);
        let mut param_offsets = Vec::with_capacity(cfg.levels + 1);
        let mut entry_cursor = 0u32;
        let mut param_cursor = 0usize;
        for r in cfg.level_resolutions() {
            let dense = dense_vertex_count(r);
            let (mode, table_size) = if dense <= u64::from(cfg.table_size()) {
                (AddressMode::Dense, dense as u32)
            } else {
                (AddressMode::Hashed, cfg.table_size())
            };
            levels.push(GridLevel {
                resolution: r,
                table_size,
                mode,
                entry_offset: entry_cursor,
            });
            param_offsets.push(param_cursor);
            entry_cursor += table_size;
            param_cursor += table_size as usize * cfg.features_per_entry;
        }
        param_offsets.push(param_cursor);
        let num_levels = levels.len();
        HashGrid {
            layout: GridLayout {
                cfg,
                levels,
                param_offsets,
                level_ids: (0..num_levels).collect(),
            },
            params: vec![F16::ZERO; param_cursor],
            level_versions: vec![0; num_levels],
            version_clock: 0,
        }
    }

    /// Creates a grid with features drawn uniformly from `±init_scale`.
    pub fn new_random<R: Rng + ?Sized>(cfg: HashGridConfig, rng: &mut R) -> Self {
        let mut g = HashGrid::new(cfg);
        g.init_random(rng);
        g
    }

    /// Re-initialises all features uniformly in `±init_scale`, each drawn
    /// as an `f32` and narrowed to fp16.
    pub fn init_random<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let s = self.cfg.init_scale;
        for p in &mut self.params {
            *p = F16::from_f32(rng.gen_range(-s..=s));
        }
        self.bump_all_levels();
    }

    /// Read-only view of all parameters (level-major).
    pub fn params(&self) -> &[F16] {
        &self.params
    }

    /// Mutable view of all parameters (checkpoint restore, tests).
    ///
    /// Any level may be written through this view, so it conservatively
    /// bumps every level version; the optimizer entry points
    /// ([`HashGrid::par_backward_step_with`],
    /// [`HashGrid::apply_step_consuming`], [`HashGrid::apply_sparse_step`])
    /// bump only the levels a step actually touched.
    pub fn params_mut(&mut self) -> &mut [F16] {
        self.bump_all_levels();
        &mut self.params
    }

    /// Per-level parameter version counters. A consumer caching derived
    /// data (the occupancy subsystem's cell→embedding cache) records the
    /// version it computed against and recomputes only levels whose
    /// version has moved on since. Versions move monotonically; they never
    /// repeat, so `u64::MAX` is a safe "never cached" sentinel.
    pub fn level_versions(&self) -> &[u64] {
        &self.level_versions
    }

    /// The grid optimizer tail of the scalar reference step, as one pass:
    /// applies a sparse Adam step to every parameter whose gradient is
    /// `!= 0.0`, narrows each updated parameter to fp16, bumps the
    /// version of exactly the levels that held a non-zero gradient (all to
    /// the same new value) and leaves `grads` all `+0.0` with a zero point
    /// count. `Adam::steps` and the version clock advance only if some
    /// gradient was non-zero. The levels are swept in order on the calling
    /// thread; the engine runs the same sweep inside its level tasks
    /// ([`HashGrid::par_backward_step_with`]).
    ///
    /// Bit-identical to collecting the non-zero indices, calling
    /// [`HashGrid::apply_sparse_step`] and then [`GridGradients::zero`]
    /// (pinned by `tests/optimizer_differential.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `opt` or `grads` don't match the parameter count.
    pub fn apply_step_consuming(&mut self, opt: &mut Adam, grads: &mut GridGradients) {
        let version = self.version_clock + 1;
        let versions = &mut self.level_versions;
        let stepped = opt.step_consuming(
            &mut self.params,
            &mut grads.values,
            &self.layout.param_offsets,
            |l| versions[l] = version,
        );
        if stepped {
            self.version_clock = version;
        }
        grads.count = 0;
    }

    /// Applies one sparse Adam step to the listed parameter indices,
    /// narrows them back to fp16, and bumps the version of exactly the
    /// levels containing a touched index. A no-op when `touched` is empty.
    /// Unlike [`HashGrid::apply_step_consuming`] it applies any
    /// caller-chosen subset and leaves the gradients alone; it is the
    /// reference the consuming sweep is pinned against. Untouched levels'
    /// features are bit-unchanged, so their cached embeddings stay valid.
    ///
    /// # Panics
    ///
    /// Panics if `grad_values` doesn't match the parameter count, if any
    /// index is out of range, or (debug builds) if `touched` is not
    /// strictly ascending.
    pub fn apply_sparse_step(&mut self, opt: &mut Adam, grad_values: &[f32], touched: &[usize]) {
        if touched.is_empty() {
            return;
        }
        debug_assert!(
            touched.windows(2).all(|w| w[0] < w[1]),
            "touched indices must be strictly ascending"
        );
        opt.step_sparse(&mut self.params, grad_values, touched);
        self.bump_levels_touching(touched);
    }

    /// Bumps every level's version (conservative invalidation).
    fn bump_all_levels(&mut self) {
        self.version_clock += 1;
        let v = self.version_clock;
        self.level_versions.fill(v);
    }

    /// Bumps the versions of the levels containing the (strictly
    /// ascending) touched parameter indices.
    fn bump_levels_touching(&mut self, touched: &[usize]) {
        self.version_clock += 1;
        let v = self.version_clock;
        let mut l = 0usize;
        for &i in touched {
            debug_assert!(i < self.params.len(), "touched index out of range");
            while i >= self.param_offsets[l + 1] {
                l += 1;
            }
            self.level_versions[l] = v;
        }
    }

    /// Encodes a point in the unit cube into its `L × F` embedding.
    ///
    /// Positions outside `[0,1]^3` are clamped (the trainer maps world
    /// coordinates through the scene AABB first).
    pub fn encode(&self, unit_pos: Vec3) -> Vec<f32> {
        let mut out = vec![0.0; self.output_dim()];
        self.encode_into(unit_pos, &mut out, &mut NullObserver);
        out
    }

    /// Encodes into a caller-provided buffer, reporting table reads to `obs`
    /// level by level, corners `0..8` within each level: one
    /// [`HashGrid::encode_level_observed`] per level on a one-point batch.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.output_dim()`.
    pub fn encode_into<O: GridAccessObserver + ?Sized>(
        &self,
        unit_pos: Vec3,
        out: &mut [f32],
        obs: &mut O,
    ) {
        assert_eq!(out.len(), self.output_dim(), "output buffer size mismatch");
        for l in 0..self.levels.len() {
            self.encode_level_observed(l, std::slice::from_ref(&unit_pos), out, obs);
        }
    }

    /// Backward pass: scatters `d_out` (gradient of the loss w.r.t. the
    /// embedding of `unit_pos`) into `grads`, reporting writes to `obs` in
    /// [`HashGrid::encode_into`]'s order: one
    /// [`GridLayout::scatter_level_observed`] per level on a one-point batch.
    ///
    /// # Panics
    ///
    /// Panics if `d_out.len() != self.output_dim()` or
    /// `grads.values.len() != self.num_params()`.
    pub fn backward_into<O: GridAccessObserver + ?Sized>(
        &self,
        unit_pos: Vec3,
        d_out: &[f32],
        grads: &mut GridGradients,
        obs: &mut O,
    ) {
        assert_eq!(d_out.len(), self.output_dim(), "gradient width mismatch");
        assert_eq!(
            grads.values.len(),
            self.params.len(),
            "gradient buffer mismatch"
        );
        for (l, cut) in self.param_offsets.windows(2).enumerate() {
            let level_grads = &mut grads.values[cut[0]..cut[1]];
            self.scatter_level_observed(
                l,
                level_grads,
                std::slice::from_ref(&unit_pos),
                d_out,
                obs,
            );
        }
        grads.count += 1;
    }

    // ------------------------------------------------------------------
    // Batched (SoA) kernels
    // ------------------------------------------------------------------

    /// One level's encode, scalar reference kernel: streams level `l`'s
    /// table over all points, widening each gathered entry through
    /// [`F16::to_f32`], writing that level's `F` columns of the
    /// `n × output_dim` SoA buffer (all other columns are untouched), with
    /// table reads reported to `obs` — the body behind
    /// [`HashGrid::encode_into`] and the `scalar` backend, and the building
    /// block for observing kernel backends (`tests/batched_equivalence.rs`
    /// records the batched engine's real read stream through this).
    /// Outputs are bit-identical to every conforming backend; a
    /// [`NullObserver`] compiles down to the unobserved kernel.
    pub fn encode_level_observed<O: GridAccessObserver + ?Sized>(
        &self,
        l: usize,
        unit_positions: &[Vec3],
        out: &mut [f32],
        obs: &mut O,
    ) {
        let w = self.output_dim();
        let f = self.cfg.features_per_entry;
        let level = &self.levels[l];
        let base = self.param_offsets[l];
        let col = l * f;
        if f == 2 {
            // Specialised F = 2 hot loop (the paper's configuration).
            for (i, p) in unit_positions.iter().enumerate() {
                let (addrs, weights) = self.corners(level, *p);
                let mut acc0 = 0.0f32;
                let mut acc1 = 0.0f32;
                for c in 0..8 {
                    obs.on_access(AccessPhase::FeedForward, l as u32, c as u8, addrs[c]);
                    let src = base + addrs[c] as usize * 2;
                    let wgt = weights[c];
                    acc0 += wgt * self.params[src].to_f32();
                    acc1 += wgt * self.params[src + 1].to_f32();
                }
                let dst = i * w + col;
                out[dst] = acc0;
                out[dst + 1] = acc1;
            }
        } else {
            for (i, p) in unit_positions.iter().enumerate() {
                let (addrs, weights) = self.corners(level, *p);
                let dst = &mut out[i * w + col..i * w + col + f];
                dst.fill(0.0);
                for c in 0..8 {
                    obs.on_access(AccessPhase::FeedForward, l as u32, c as u8, addrs[c]);
                    let wgt = weights[c];
                    let src = base + addrs[c] as usize * f;
                    for (d, p) in dst.iter_mut().zip(&self.params[src..src + f]) {
                        *d += wgt * p.to_f32();
                    }
                }
            }
        }
    }

    /// One level's encode, lane-batched: blocks of up to four lanes of
    /// [`F32x8::LANES`] points. Each lane's trilinear weights and corner
    /// addresses are computed lane-parallel and its 8 × 8 entries gathered
    /// per lane (one 4-byte load per F = 2 entry); then one loop over the
    /// block widens every gathered feature through
    /// [`fp16::widen_branch_free`] (an integer widen equal to
    /// [`F16::to_f32`]) and multiplies it by its corner weight, eight lanes
    /// per instruction; the products are summed per point in corner order,
    /// from zero, lane-parallel. The remainder tail (< LANES points) runs
    /// the same per-point sequence on scalars, so results do not depend on
    /// where a point falls in the batch. Every accumulate is a distinct
    /// multiply then a distinct add (see [`crate::simd`]), so every output
    /// bit matches [`HashGrid::encode_level_observed`]. Grids with
    /// `features_per_entry != 2` fall back to the scalar kernel.
    #[inline(always)]
    pub(crate) fn encode_level_lanes(&self, l: usize, unit_positions: &[Vec3], out: &mut [f32]) {
        const LANES: usize = F32x8::LANES;
        if self.cfg.features_per_entry != 2 {
            return self.encode_level_observed(l, unit_positions, out, &mut NullObserver);
        }
        // Lanes per block: the block's GROUPS × 8 corners × LANES entries
        // widen in one loop, long enough to stay a vector loop (a lane's 64
        // alone unroll into spilled scalar code).
        const GROUPS: usize = 4;
        let w = self.output_dim();
        let n = unit_positions.len();
        let full = n - n % LANES;
        let mut addrs = [[0u32; LANES]; 8];
        let mut weights = [[[0.0f32; LANES]; 8]; GROUPS];
        // Each entry's two features packed as `f0 | f1 << 16`, then each
        // feature times its corner weight.
        let mut e = [0u32; GROUPS * 8 * LANES];
        let mut p0 = [0.0f32; GROUPS * 8 * LANES];
        let mut p1 = [0.0f32; GROUPS * 8 * LANES];
        let level = &self.levels[l];
        let col = l * 2;
        // The level's table as F = 2 entries: one gather per corner.
        let (entries, _) =
            self.params[self.param_offsets[l]..self.param_offsets[l + 1]].as_chunks::<2>();
        for block in (0..full).step_by(GROUPS * LANES) {
            let groups = ((full - block) / LANES).min(GROUPS);
            for (g, wg) in weights.iter_mut().enumerate().take(groups) {
                let i = block + g * LANES;
                GridLayout::corners_lanes(level, &unit_positions[i..i + LANES], &mut addrs, wg);
                let eg = &mut e[g * 8 * LANES..(g + 1) * 8 * LANES];
                for (ec, ac) in eg.chunks_exact_mut(LANES).zip(&addrs) {
                    for (ek, &a) in ec.iter_mut().zip(ac) {
                        let [h0, h1] = entries[a as usize];
                        *ek = u32::from(h0.0) | u32::from(h1.0) << 16;
                    }
                }
            }
            let len = groups * 8 * LANES;
            let wflat = weights[..groups].as_flattened().as_flattened();
            let products = p0[..len].iter_mut().zip(&mut p1[..len]);
            for (((p0, p1), &ek), &wk) in products.zip(&e[..len]).zip(wflat) {
                *p0 = wk * fp16::widen_branch_free(F16(ek as u16));
                *p1 = wk * fp16::widen_branch_free(F16((ek >> 16) as u16));
            }
            for g in 0..groups {
                let mut acc0 = F32x8::ZERO;
                let mut acc1 = F32x8::ZERO;
                for c in 0..8 {
                    let at = (g * 8 + c) * LANES;
                    acc0 += F32x8::from_slice(&p0[at..]);
                    acc1 += F32x8::from_slice(&p1[at..]);
                }
                for k in 0..LANES {
                    let dst = (block + g * LANES + k) * w + col;
                    out[dst] = acc0[k];
                    out[dst + 1] = acc1[k];
                }
            }
        }
        for (i, p) in unit_positions.iter().enumerate().skip(full) {
            let (pa, pw) = self.corners(level, *p);
            let mut acc0 = 0.0f32;
            let mut acc1 = 0.0f32;
            for c in 0..8 {
                let [f0, f1] = entries[pa[c] as usize];
                acc0 += pw[c] * fp16::widen_branch_free(f0);
                acc1 += pw[c] * fp16::widen_branch_free(f1);
            }
            let dst = i * w + col;
            out[dst] = acc0;
            out[dst + 1] = acc1;
        }
    }

    /// Parallel unobserved batched encode of every level through an
    /// explicit kernel backend (see [`crate::kernels`]):
    /// [`HashGrid::par_encode_batch_levels_with`] with the all-levels list.
    pub fn par_encode_batch_with(
        &self,
        backend: &BackendHandle,
        unit_positions: &[Vec3],
        out: &mut [f32],
    ) {
        self.par_encode_batch_levels_with(backend, &self.level_ids, unit_positions, out);
    }

    /// Parallel unobserved batched encode of a *subset of levels* through
    /// an explicit kernel backend: points are split into fixed-size chunks
    /// processed on the rayon pool, each chunk running the backend's
    /// level-major SoA kernel for the listed levels in list order. Only
    /// those levels' columns of the `n × output_dim` SoA buffer are
    /// (re)computed; all other columns are left exactly as they were —
    /// which is how the occupancy subsystem's persistent cell→embedding
    /// cache re-encodes only levels whose parameters changed since the
    /// cache was filled (see [`HashGrid::level_versions`]).
    ///
    /// All writes are disjoint output rows and each level's per-point
    /// arithmetic is independent of the rest of the list, so the result
    /// is bit-identical across backends, chunkings, worker counts
    /// and level subsets. On a one-worker pool the whole batch is one
    /// chunk on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != unit_positions.len() * self.output_dim()`
    /// or any level index is out of range.
    pub fn par_encode_batch_levels_with(
        &self,
        backend: &BackendHandle,
        levels: &[usize],
        unit_positions: &[Vec3],
        out: &mut [f32],
    ) {
        use rayon::prelude::*;
        let w = self.output_dim();
        assert_eq!(
            out.len(),
            unit_positions.len() * w,
            "SoA output buffer size mismatch"
        );
        assert!(
            levels.iter().all(|&l| l < self.levels.len()),
            "level index out of range"
        );
        if levels.is_empty() || unit_positions.is_empty() {
            return;
        }
        let n = unit_positions.len();
        const CHUNK: usize = 256;
        if n <= CHUNK || rayon::current_num_threads() <= 1 {
            backend.grid_encode_levels_chunk(self, levels, unit_positions, out);
            return;
        }
        out.par_chunks_mut(CHUNK * w)
            .zip(unit_positions.par_chunks(CHUNK))
            .for_each(|(out_chunk, pos_chunk)| {
                backend.grid_encode_levels_chunk(self, levels, pos_chunk, out_chunk);
            });
    }

    /// Parallel unobserved batched scatter through an explicit kernel
    /// backend (see [`crate::kernels`]): one task per grid level, each
    /// owning that level's disjoint slice of the gradient buffer and
    /// walking all points in order. Per-parameter accumulation order is
    /// point order — exactly the scalar kernel's — on every backend, so
    /// results are bit-identical to `n` [`HashGrid::backward_into`] calls
    /// across backends and worker counts.
    pub fn par_backward_batch_with(
        &self,
        backend: &BackendHandle,
        unit_positions: &[Vec3],
        d_out: &[f32],
        grads: &mut GridGradients,
    ) {
        let w = self.output_dim();
        assert_eq!(
            d_out.len(),
            unit_positions.len() * w,
            "SoA gradient buffer size mismatch"
        );
        assert_eq!(
            grads.values.len(),
            self.params.len(),
            "gradient buffer mismatch"
        );
        for_each_level_slice(
            0,
            &mut grads.values,
            &self.param_offsets,
            &|l, level_grads| {
                backend.grid_scatter_level(self, l, level_grads, unit_positions, d_out);
            },
        );
        grads.count += unit_positions.len();
    }

    /// The engine's grid backward and optimizer tail, merged where the
    /// gradients are produced. Each level is one unit of work: scatter
    /// the level's embedding gradients through `backend`'s
    /// [`Kernels::grid_scatter_level`](crate::kernels::Kernels::grid_scatter_level)
    /// into a zeroed level-sized buffer from `buffers`, then run
    /// [`HashGrid::apply_step_consuming`]'s sweep over the level's
    /// parameters, moments and that buffer, which leaves the buffer zero
    /// again. No grid-sized gradient column exists.
    ///
    /// One lane per worker (at most one per level) runs on the rayon pool,
    /// each with a buffer of its own, and claims the levels one at a time
    /// in ascending order, so `buffers` holds at most one buffer per
    /// worker. On one worker the levels run in order on the calling
    /// thread.
    ///
    /// Bit-identical to [`HashGrid::par_backward_batch_with`] into a
    /// zeroed [`GridGradients`] followed by
    /// [`HashGrid::apply_step_consuming`], at any worker count: a level's
    /// scatter still accumulates in point order, and an element's update
    /// reads only its own gradient, moments and parameter and the bias
    /// correction of the tentative step `t + 1`. `Adam::steps` and the
    /// version clock advance after the lanes join only if some level held
    /// a non-zero gradient; the lanes report it through the join.
    ///
    /// # Panics
    ///
    /// Panics if `opt` doesn't match the parameter count or `d_out` the
    /// batch.
    pub fn par_backward_step_with(
        &mut self,
        backend: &BackendHandle,
        unit_positions: &[Vec3],
        d_out: &[f32],
        opt: &mut Adam,
        buffers: &mut LevelBuffers,
    ) {
        assert_eq!(
            d_out.len(),
            unit_positions.len() * self.output_dim(),
            "SoA gradient buffer size mismatch"
        );
        if unit_positions.is_empty() {
            return;
        }
        let scatter = |layout: &GridLayout, l: usize, level_grads: &mut [f32]| {
            backend.grid_scatter_level(layout, l, level_grads, unit_positions, d_out);
        };
        self.backward_step(&scatter, consume_sweep, opt, buffers);
    }

    /// [`HashGrid::par_backward_step_with`] with its two bodies as
    /// arguments, the level scatter and the consuming sweep, so a test can
    /// run their portable arms.
    fn backward_step<S>(
        &mut self,
        scatter: &S,
        sweep: Sweep,
        opt: &mut Adam,
        buffers: &mut LevelBuffers,
    ) where
        S: Fn(&GridLayout, usize, &mut [f32]) + Sync,
    {
        let version = self.version_clock + 1;
        let layout = &self.layout;
        let cuts = &layout.param_offsets[..];
        if std::mem::replace(&mut buffers.dirty, true) {
            buffers.bufs.iter_mut().for_each(|b| b.fill(0.0));
        }
        let bufs = buffers.reserve(layout);
        let (params, versions) = (&mut self.params[..], &mut self.level_versions[..]);
        let stepped = opt.step_with(|k, m, v| {
            assert_eq!(m.len(), params.len(), "param count mismatch");
            let queue = Mutex::new(LevelQueue {
                next: 0,
                cuts,
                rest: StepColumns {
                    params,
                    m,
                    v,
                    versions,
                },
            });
            for_each_lane(bufs, &|buf| {
                let mut any = false;
                loop {
                    // The lock is held for the claim only.
                    let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).claim();
                    let Some((l, c)) = claimed else {
                        return any;
                    };
                    let grads = &mut buf[..c.params.len()];
                    scatter(layout, l, grads);
                    if sweep(k, c.params, c.m, c.v, grads) {
                        c.versions[0] = version;
                        any = true;
                    }
                }
            })
        });
        buffers.dirty = false;
        if stepped {
            self.version_clock = version;
        }
    }

    /// Allocates a zeroed gradient buffer shaped like this grid.
    pub fn zero_grads(&self) -> GridGradients {
        GridGradients {
            values: vec![0.0; self.params.len()],
            count: 0,
        }
    }
}

impl GridLayout {
    /// The grid configuration.
    pub fn config(&self) -> &HashGridConfig {
        &self.cfg
    }

    /// Per-level metadata.
    pub fn levels(&self) -> &[GridLevel] {
        &self.levels
    }

    /// Embedding width produced by [`HashGrid::encode`]: `L × F`.
    pub fn output_dim(&self) -> usize {
        self.cfg.levels * self.cfg.features_per_entry
    }

    /// Total trainable scalars.
    pub fn num_params(&self) -> usize {
        self.param_offsets[self.levels.len()]
    }

    /// Offset (in entries, across the concatenated table) of `level`.
    pub fn entry_offset(&self, level: usize) -> u32 {
        self.levels[level].entry_offset
    }

    /// Table reads performed per encoded point (8 corners × L levels).
    pub fn reads_per_point(&self) -> usize {
        8 * self.cfg.levels
    }

    /// Interpolation data for one point at one level: the 8 corner
    /// addresses and trilinear weights.
    #[inline]
    fn corners(&self, level: &GridLevel, unit_pos: Vec3) -> ([u32; 8], [f32; 8]) {
        let n = level.resolution as f32;
        // Clamp strictly inside so `floor` stays below `resolution`.
        let eps = 1e-6;
        let sx = (unit_pos.x.clamp(0.0, 1.0 - eps)) * n;
        let sy = (unit_pos.y.clamp(0.0, 1.0 - eps)) * n;
        let sz = (unit_pos.z.clamp(0.0, 1.0 - eps)) * n;
        let (cx, cy, cz) = (sx.floor(), sy.floor(), sz.floor());
        let (fx, fy, fz) = (sx - cx, sy - cy, sz - cz);
        let (ix, iy, iz) = (cx as u32, cy as u32, cz as u32);

        let mut addrs = [0u32; 8];
        let mut weights = [0f32; 8];
        for (c, &(dx, dy, dz)) in CORNER_OFFSETS.iter().enumerate() {
            let wx = if dx == 1 { fx } else { 1.0 - fx };
            let wy = if dy == 1 { fy } else { 1.0 - fy };
            let wz = if dz == 1 { fz } else { 1.0 - fz };
            weights[c] = wx * wy * wz;
            addrs[c] = vertex_address(
                level.mode,
                ix + dx,
                iy + dy,
                iz + dz,
                level.resolution,
                level.table_size,
            );
        }
        (addrs, weights)
    }

    /// Interpolation data for a full lane of [`F32x8::LANES`] points at one
    /// level: per-corner addresses (`addrs[c][k]` = corner `c` of point `k`)
    /// and lane-batched trilinear weights.
    ///
    /// Per-lane arithmetic is the exact IEEE operation sequence of
    /// [`GridLayout::corners`], so every weight bit-matches the scalar
    /// kernel's; hashed levels replace the `% table_size` with an equal
    /// power-of-two mask (the table size is always `1 << log2_table_size`).
    /// Always inlined so `#[target_feature]` callers (the AVX2 arms of
    /// the `simd` grid kernels) compile the lane arithmetic with their
    /// wider instruction set instead of calling a separately-compiled
    /// baseline copy.
    #[inline(always)]
    fn corners_lanes(
        level: &GridLevel,
        pts: &[Vec3],
        addrs: &mut [[u32; F32x8::LANES]; 8],
        weights: &mut [[f32; F32x8::LANES]; 8],
    ) {
        const LANES: usize = F32x8::LANES;
        debug_assert_eq!(pts.len(), LANES);
        let mut px = [0.0f32; LANES];
        let mut py = [0.0f32; LANES];
        let mut pz = [0.0f32; LANES];
        for (k, p) in pts.iter().enumerate() {
            px[k] = p.x;
            py[k] = p.y;
            pz[k] = p.z;
        }
        let n = F32x8::splat(level.resolution as f32);
        let eps = 1e-6;
        let sx = F32x8(px).clamp(0.0, 1.0 - eps) * n;
        let sy = F32x8(py).clamp(0.0, 1.0 - eps) * n;
        let sz = F32x8(pz).clamp(0.0, 1.0 - eps) * n;
        let (cx, cy, cz) = (sx.floor(), sy.floor(), sz.floor());
        let (fx, fy, fz) = (sx - cx, sy - cy, sz - cz);
        let one = F32x8::splat(1.0);
        let (gx, gy, gz) = (one - fx, one - fy, one - fz);
        let mut ix = [0u32; LANES];
        let mut iy = [0u32; LANES];
        let mut iz = [0u32; LANES];
        if level.resolution < EXACT_CELL_LIMIT {
            for k in 0..LANES {
                ix[k] = small_cell_index(cx[k]);
                iy[k] = small_cell_index(cy[k]);
                iz[k] = small_cell_index(cz[k]);
            }
        } else {
            for k in 0..LANES {
                ix[k] = cx[k] as u32;
                iy[k] = cy[k] as u32;
                iz[k] = cz[k] as u32;
            }
        }
        // The scalar kernel computes (wx*wy)*wz left-associated; the four
        // distinct wx*wy products are shared across corner pairs here —
        // same association, same bits, 4 fewer lane multiplies.
        let wxy = [gx * gy, fx * gy, gx * fy, fx * fy];
        for (c, &(dx, dy, dz)) in CORNER_OFFSETS.iter().enumerate() {
            let wz = if dz == 1 { fz } else { gz };
            weights[c] = (wxy[(dx + dy * 2) as usize] * wz).0;
        }
        // Per-axis address terms, computed once per lane instead of once
        // per corner. Unsigned arithmetic is exact mod 2^32, so combining
        // precomputed y/z terms yields bit-identical addresses to the
        // per-corner `spatial_hash` / `dense_index` calls.
        let mut yt = [[0u32; LANES]; 2];
        let mut zt = [[0u32; LANES]; 2];
        match level.mode {
            AddressMode::Hashed => {
                // A hashed level's table is `1 << log2_table_size` entries,
                // so the Eq. 3 modulo is a mask with the identical result.
                let mask = level.table_size - 1;
                for k in 0..LANES {
                    yt[0][k] = iy[k].wrapping_mul(crate::hash::PI_2);
                    yt[1][k] = (iy[k] + 1).wrapping_mul(crate::hash::PI_2);
                    zt[0][k] = iz[k].wrapping_mul(crate::hash::PI_3);
                    zt[1][k] = (iz[k] + 1).wrapping_mul(crate::hash::PI_3);
                }
                for (ac, &(dx, dy, dz)) in addrs.iter_mut().zip(&CORNER_OFFSETS) {
                    for k in 0..LANES {
                        // PI_1 == 1, so the x term is the coordinate itself.
                        ac[k] = ((ix[k] + dx) ^ yt[dy as usize][k] ^ zt[dz as usize][k]) & mask;
                    }
                }
            }
            AddressMode::Dense => {
                let n = level.resolution + 1;
                for k in 0..LANES {
                    yt[0][k] = iy[k] * n;
                    yt[1][k] = (iy[k] + 1) * n;
                    zt[0][k] = iz[k] * n * n;
                    zt[1][k] = (iz[k] + 1) * n * n;
                }
                for (ac, &(dx, dy, dz)) in addrs.iter_mut().zip(&CORNER_OFFSETS) {
                    for k in 0..LANES {
                        ac[k] = (ix[k] + dx) + yt[dy as usize][k] + zt[dz as usize][k];
                    }
                }
            }
        }
    }

    /// One level's scatter, scalar reference kernel: walks all points in
    /// order, accumulating into that level's disjoint gradient slice, with
    /// every gradient write reported to `obs` — the backward counterpart
    /// of [`HashGrid::encode_level_observed`], behind
    /// [`HashGrid::backward_into`] and the `scalar` backend
    /// (`tests/batched_equivalence.rs` records the engine's real update
    /// stream through this).
    /// `level_grads` is level `l`'s disjoint slice of the flat gradient
    /// buffer; per-parameter accumulation runs in point order, so the
    /// result is bit-identical to every conforming backend.
    pub fn scatter_level_observed<O: GridAccessObserver + ?Sized>(
        &self,
        l: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
        obs: &mut O,
    ) {
        let f = self.cfg.features_per_entry;
        let w = self.output_dim();
        let level = &self.levels[l];
        let col = l * f;
        if f == 2 {
            for (i, p) in unit_positions.iter().enumerate() {
                let (addrs, weights) = self.corners(level, *p);
                let g0 = d_out[i * w + col];
                let g1 = d_out[i * w + col + 1];
                for c in 0..8 {
                    obs.on_access(AccessPhase::BackProp, l as u32, c as u8, addrs[c]);
                    let wgt = weights[c];
                    let dst = addrs[c] as usize * 2;
                    level_grads[dst] += wgt * g0;
                    level_grads[dst + 1] += wgt * g1;
                }
            }
        } else {
            for (i, p) in unit_positions.iter().enumerate() {
                let (addrs, weights) = self.corners(level, *p);
                let src = &d_out[i * w + col..i * w + col + f];
                for c in 0..8 {
                    obs.on_access(AccessPhase::BackProp, l as u32, c as u8, addrs[c]);
                    let wgt = weights[c];
                    let dst = addrs[c] as usize * f;
                    for (g, s) in level_grads[dst..dst + f].iter_mut().zip(src) {
                        *g += wgt * s;
                    }
                }
            }
        }
    }

    /// One level's scatter, lane-batched: corner addresses and trilinear
    /// weights are precomputed per lane of [`F32x8::LANES`] points, then
    /// the 8-corner × F=2 accumulation walks the lane's points *in point
    /// order* — scatters can collide on a table entry, so the accumulation
    /// itself stays sequential per parameter on every backend, and the
    /// result is deterministic for any worker count and bit-identical to
    /// [`GridLayout::scatter_level_observed`]. `features_per_entry != 2`
    /// falls back to the scalar kernel.
    #[inline(always)]
    pub(crate) fn scatter_level_lanes(
        &self,
        l: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        const LANES: usize = F32x8::LANES;
        if self.cfg.features_per_entry != 2 {
            let obs = &mut NullObserver;
            return self.scatter_level_observed(l, level_grads, unit_positions, d_out, obs);
        }
        let w = self.output_dim();
        let level = &self.levels[l];
        let col = l * 2;
        let n = unit_positions.len();
        let full = n - n % LANES;
        let mut addrs = [[0u32; LANES]; 8];
        let mut weights = [[0.0f32; LANES]; 8];
        for i in (0..full).step_by(LANES) {
            Self::corners_lanes(
                level,
                &unit_positions[i..i + LANES],
                &mut addrs,
                &mut weights,
            );
            for k in 0..LANES {
                let g0 = d_out[(i + k) * w + col];
                let g1 = d_out[(i + k) * w + col + 1];
                for c in 0..8 {
                    let wgt = weights[c][k];
                    let dst = addrs[c][k] as usize * 2;
                    level_grads[dst] += wgt * g0;
                    level_grads[dst + 1] += wgt * g1;
                }
            }
        }
        for (i, p) in unit_positions.iter().enumerate().skip(full) {
            let (pa, pw) = self.corners(level, *p);
            let g0 = d_out[i * w + col];
            let g1 = d_out[i * w + col + 1];
            for c in 0..8 {
                let dst = pa[c] as usize * 2;
                level_grads[dst] += pw[c] * g0;
                level_grads[dst + 1] += pw[c] * g1;
            }
        }
    }
}

/// Levels with a resolution below this (2^23) have every floored cell
/// coordinate in `[0, 2^23)`, where [`small_cell_index`] converts it.
const EXACT_CELL_LIMIT: u32 = 1 << 23;

/// `c as u32` for a floored cell coordinate `c` that is NaN or in
/// `[-0.0, 2^23)`, in lane instructions: NaN selects 0 (as the saturating
/// cast does), and adding 2^23 puts the integer `c` in the low mantissa
/// bits exactly. The saturating cast compiles to a scalar conversion
/// behind range checks and branches per lane.
#[inline(always)]
fn small_cell_index(c: f32) -> u32 {
    const BIAS: f32 = EXACT_CELL_LIMIT as f32;
    let c = if c.is_nan() { 0.0 } else { c };
    (c + BIAS).to_bits() - BIAS.to_bits()
}

/// The level partition behind [`HashGrid::par_backward_batch_with`]:
/// calls `task(first_level + i, slice_i)` once per level, where `cuts` is
/// the `levels + 1` entry offset table of those levels and `slice_i` is
/// `values[cuts[i] - cuts[0]..cuts[i + 1] - cuts[0]]`. The slices are cut
/// by `split_at_mut` down a binary tree, so each task owns exactly its
/// level's range — disjoint and gap-free by construction, with no
/// per-dispatch allocation. The two halves fork with `rayon::join`; on a
/// one-worker pool that runs them in ascending level order on the
/// calling thread.
///
/// The overlap fixtures the `checked` backend once caught at run time are
/// type errors at this seam. Two disjoint level slices may go to two
/// concurrent tasks:
///
/// ```
/// use instant3d_nerf::grid::{HashGrid, HashGridConfig};
/// use instant3d_nerf::kernels;
///
/// let grid = HashGrid::new(HashGridConfig { levels: 2, ..HashGridConfig::default() });
/// let backend = kernels::simd();
/// let mut grads = grid.zero_grads();
/// let cut = grid.levels()[0].table_size as usize * grid.config().features_per_entry;
/// let (lo, hi) = grads.values.split_at_mut(cut);
/// rayon::join(
///     || backend.grid_scatter_level(&grid, 0, lo, &[], &[]),
///     || backend.grid_scatter_level(&grid, 1, hi, &[], &[]),
/// );
/// ```
///
/// Overlapping slices — level 1 starting halfway into level 0 — may not:
///
/// ```compile_fail,E0499
/// use instant3d_nerf::grid::{HashGrid, HashGridConfig};
/// use instant3d_nerf::kernels;
///
/// let grid = HashGrid::new(HashGridConfig { levels: 2, ..HashGridConfig::default() });
/// let backend = kernels::simd();
/// let mut grads = grid.zero_grads();
/// let cut = grid.levels()[0].table_size as usize * grid.config().features_per_entry;
/// let (lo, hi) = (&mut grads.values[..cut], &mut grads.values[cut / 2..]);
/// rayon::join(
///     || backend.grid_scatter_level(&grid, 0, lo, &[], &[]),
///     || backend.grid_scatter_level(&grid, 1, hi, &[], &[]),
/// );
/// ```
///
/// Nor can a level slice be kept across a dispatch, which borrows the
/// whole gradient buffer exclusively:
///
/// ```compile_fail,E0499
/// use instant3d_nerf::grid::{HashGrid, HashGridConfig};
/// use instant3d_nerf::kernels;
///
/// let grid = HashGrid::new(HashGridConfig { levels: 2, ..HashGridConfig::default() });
/// let mut grads = grid.zero_grads();
/// let kept = &mut grads.values[..4];
/// grid.par_backward_batch_with(&kernels::simd(), &[], &[], &mut grads);
/// kept[0] = 1.0;
/// ```
fn for_each_level_slice<F>(first_level: usize, values: &mut [f32], cuts: &[usize], task: &F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let levels = cuts.len() - 1;
    if levels <= 1 {
        if levels == 1 {
            task(first_level, values);
        }
        return;
    }
    let mid = levels / 2;
    let (lo, hi) = values.split_at_mut(cuts[mid] - cuts[0]);
    let (lo_cuts, hi_cuts) = (&cuts[..=mid], &cuts[mid..]);
    rayon::join(
        || for_each_level_slice(first_level, lo, lo_cuts, task),
        || for_each_level_slice(first_level + mid, hi, hi_cuts, task),
    );
}

/// The consuming sweep over one level: `kernels::consume_sweep`, or in a
/// test its portable body.
type Sweep = fn(&SparseUpdate, &mut [F16], &mut [f32], &mut [f32], &mut [f32]) -> bool;

/// Runs `lane` once per buffer, forking with `rayon::join`; returns
/// whether any call returned `true`.
fn for_each_lane<F>(bufs: &mut [Vec<f32>], lane: &F) -> bool
where
    F: Fn(&mut [f32]) -> bool + Sync,
{
    match bufs {
        [] => false,
        [buf] => lane(buf),
        _ => {
            let (lo, hi) = bufs.split_at_mut(bufs.len() / 2);
            let (lo_any, hi_any) =
                rayon::join(|| for_each_lane(lo, lane), || for_each_lane(hi, lane));
            lo_any | hi_any
        }
    }
}

/// A run of levels' share of one [`HashGrid::par_backward_step_with`]:
/// their parameters, both Adam moments and their versions.
#[derive(Default)]
struct StepColumns<'a> {
    params: &'a mut [F16],
    m: &'a mut [f32],
    v: &'a mut [f32],
    versions: &'a mut [u64],
}

/// The levels of one [`HashGrid::par_backward_step_with`] no lane has
/// claimed yet: `rest` holds levels `next..`, cut by `cuts`.
struct LevelQueue<'a> {
    next: usize,
    cuts: &'a [usize],
    rest: StepColumns<'a>,
}

impl<'a> LevelQueue<'a> {
    /// The next level and its columns, split off `rest` — disjoint from
    /// every other claim by `split_at_mut`.
    fn claim(&mut self) -> Option<(usize, StepColumns<'a>)> {
        let l = self.next;
        let len = self.cuts.get(l + 1)? - self.cuts[l];
        let rest = std::mem::take(&mut self.rest);
        let (params, params_rest) = rest.params.split_at_mut(len);
        let (m, m_rest) = rest.m.split_at_mut(len);
        let (v, v_rest) = rest.v.split_at_mut(len);
        let (versions, versions_rest) = rest.versions.split_at_mut(1);
        self.rest = StepColumns {
            params: params_rest,
            m: m_rest,
            v: v_rest,
            versions: versions_rest,
        };
        self.next += 1;
        Some((
            l,
            StepColumns {
                params,
                m,
                v,
                versions,
            },
        ))
    }
}

/// The gradient buffers of [`HashGrid::par_backward_step_with`]'s lanes:
/// one per lane that ever ran, so at most one per worker, each all `+0.0`
/// between steps and as long as the longest level it served. One set
/// serves grids of any size; the batched engine's workspace owns one.
#[derive(Debug, Default)]
pub struct LevelBuffers {
    bufs: Vec<Vec<f32>>,
    /// Set while a step runs: a step that unwound may have left a buffer
    /// holding gradients, so the next one zeroes them first.
    dirty: bool,
}

impl LevelBuffers {
    /// An empty set: buffers are made on first use.
    pub fn new() -> Self {
        LevelBuffers::default()
    }

    /// Buffers made so far.
    pub fn count(&self) -> usize {
        self.bufs.len()
    }

    /// Makes the buffers a step of `grid` on the current pool runs on:
    /// one per worker, at most one per level, each as long as the
    /// grid's longest level. A step does this itself; a caller that
    /// reserves first keeps the allocation on its own thread.
    pub fn reserve(&mut self, grid: &GridLayout) -> &mut [Vec<f32>] {
        let lanes = rayon::current_num_threads().clamp(1, grid.levels.len());
        let cuts = &grid.param_offsets;
        let longest = cuts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        if self.bufs.len() < lanes {
            self.bufs.resize_with(lanes, Vec::new);
        }
        let bufs = &mut self.bufs[..lanes];
        for b in bufs.iter_mut().filter(|b| b.len() < longest) {
            b.resize(longest, 0.0);
        }
        bufs
    }
}

/// Accumulated gradients for a [`HashGrid`] (shape-matched flat buffer).
#[derive(Debug, Clone)]
pub struct GridGradients {
    /// Gradient value per parameter scalar.
    pub values: Vec<f32>,
    /// Number of points accumulated since the last reset.
    pub count: usize,
}

impl GridGradients {
    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        self.values.fill(0.0);
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_grid() -> HashGrid {
        let cfg = HashGridConfig {
            levels: 3,
            features_per_entry: 2,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
            init_scale: 0.1,
        };
        let mut rng = StdRng::seed_from_u64(7);
        HashGrid::new_random(cfg, &mut rng)
    }

    #[test]
    fn small_cell_index_is_the_saturating_cast_below_two_to_the_23() {
        let top = (EXACT_CELL_LIMIT - 1) as f32;
        for c in [f32::NAN, -0.0, 0.0, 1.0, 2.0, 12_345.0, top] {
            assert_eq!(small_cell_index(c), c as u32, "{c}");
        }
    }

    #[test]
    fn level_resolutions_are_geometric() {
        let cfg = HashGridConfig {
            levels: 4,
            base_resolution: 16,
            max_resolution: 128,
            ..HashGridConfig::default()
        };
        let res: Vec<u32> = cfg.level_resolutions().collect();
        assert_eq!(res.first(), Some(&16));
        assert_eq!(res.last(), Some(&128));
        for w in res.windows(2) {
            assert!(w[1] > w[0], "resolutions must increase");
        }
    }

    #[test]
    fn coarse_levels_are_dense_fine_levels_hashed() {
        let g = small_grid();
        // level 0: res 4 → 125 vertices < 1024 → dense
        assert_eq!(g.levels()[0].mode, AddressMode::Dense);
        // level 2: res 32 → 35937 vertices > 1024 → hashed
        assert_eq!(g.levels()[2].mode, AddressMode::Hashed);
        assert_eq!(g.levels()[2].table_size, 1024);
    }

    #[test]
    fn encode_output_width() {
        let g = small_grid();
        assert_eq!(g.encode(Vec3::splat(0.5)).len(), 6);
    }

    #[test]
    fn encode_at_vertex_returns_vertex_feature() {
        // At an exact dense-grid vertex the interpolation weight collapses
        // onto one corner, so the embedding equals that vertex's feature.
        let g = small_grid();
        let level = &g.levels()[0];
        assert_eq!(level.mode, AddressMode::Dense);
        let res = level.resolution; // 4
        let p = Vec3::new(1.0 / res as f32, 2.0 / res as f32, 3.0 / res as f32);
        let emb = g.encode(p);
        let addr = crate::hash::dense_index(1, 2, 3, res) as usize;
        let f = g.config().features_per_entry;
        let base = addr * f; // level 0 param offset is 0
        for (k, (e, p)) in emb[..f].iter().zip(&g.params()[base..base + f]).enumerate() {
            assert!((e - p.to_f32()).abs() < 1e-5, "feature {k}: {e} vs {p}");
        }
    }

    #[test]
    fn encode_is_continuous_across_cell_boundary() {
        let g = small_grid();
        let eps = 1e-5f32;
        let boundary = 0.25; // a vertex plane of the res-4 level
        let a = g.encode(Vec3::new(boundary - eps, 0.4, 0.6));
        let b = g.encode(Vec3::new(boundary + eps, 0.4, 0.6));
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-3, "discontinuity: {x} vs {y}");
        }
    }

    #[test]
    fn encode_clamps_out_of_range_positions() {
        let g = small_grid();
        let inside = g.encode(Vec3::new(0.999_999, 0.0, 0.5));
        let outside = g.encode(Vec3::new(5.0, -3.0, 0.5));
        let clamped = g.encode(Vec3::new(1.0, 0.0, 0.5));
        assert_eq!(outside, clamped);
        // and clamped values are close to the inside-the-box sample
        for (x, y) in inside.iter().zip(&clamped) {
            assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn trilinear_weights_sum_to_one() {
        let g = small_grid();
        for level in g.levels() {
            let (_, w) = g.corners(level, Vec3::new(0.31, 0.77, 0.13));
            let sum: f32 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(w.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut g = small_grid();
        let p = Vec3::new(0.37, 0.52, 0.81);
        let d_out: Vec<f32> = (0..g.output_dim())
            .map(|i| 0.1 * (i as f32 + 1.0))
            .collect();

        let mut grads = g.zero_grads();
        g.backward_into(p, &d_out, &mut grads, &mut NullObserver);

        // L(params) = dot(encode(p), d_out); check dL/dparam via FD on a few
        // touched parameters.
        let loss =
            |g: &HashGrid| -> f32 { g.encode(p).iter().zip(&d_out).map(|(a, b)| a * b).sum() };
        let eps = 1e-3;
        let touched: Vec<usize> = grads
            .values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v.abs() > 1e-8)
            .map(|(i, _)| i)
            .take(12)
            .collect();
        assert!(!touched.is_empty());
        for i in touched {
            // The table holds fp16: divide by the perturbation it stored.
            let orig = g.params()[i];
            let (plus, minus) = (
                F16::from_f32(orig.to_f32() + eps),
                F16::from_f32(orig.to_f32() - eps),
            );
            g.params_mut()[i] = plus;
            let lp = loss(&g);
            g.params_mut()[i] = minus;
            let lm = loss(&g);
            g.params_mut()[i] = orig;
            let fd = (lp - lm) / (plus.to_f32() - minus.to_f32());
            assert!(
                (fd - grads.values[i]).abs() < 1e-2,
                "param {i}: fd {fd} vs analytic {}",
                grads.values[i]
            );
        }
    }

    #[test]
    fn observer_sees_8_reads_per_level() {
        struct Counter(usize, usize);
        impl GridAccessObserver for Counter {
            fn on_access(&mut self, phase: AccessPhase, _: u32, _: u8, _: u32) {
                match phase {
                    AccessPhase::FeedForward => self.0 += 1,
                    AccessPhase::BackProp => self.1 += 1,
                }
            }
        }
        let g = small_grid();
        let mut obs = Counter(0, 0);
        let mut out = vec![0.0; g.output_dim()];
        g.encode_into(Vec3::splat(0.4), &mut out, &mut obs);
        assert_eq!(obs.0, 8 * g.config().levels);
        assert_eq!(obs.1, 0);

        let mut grads = g.zero_grads();
        let d = vec![1.0; g.output_dim()];
        g.backward_into(Vec3::splat(0.4), &d, &mut grads, &mut obs);
        assert_eq!(obs.1, 8 * g.config().levels);
        assert_eq!(g.reads_per_point(), 8 * g.config().levels);
    }

    #[test]
    fn observer_sees_level_major_corner_order() {
        // The trace contract `trace::cluster` (Fig. 8) relies on: a point's
        // reads arrive level by level, corners 0..8 contiguous within each
        // level, and its scatter writes repeat that sequence on the same
        // addresses.
        struct Record(Vec<(AccessPhase, u32, u8, u32)>);
        impl GridAccessObserver for Record {
            fn on_access(&mut self, phase: AccessPhase, level: u32, corner: u8, addr: u32) {
                self.0.push((phase, level, corner, addr));
            }
        }
        let g = small_grid();
        let p = Vec3::new(0.31, 0.77, 0.13);
        let mut obs = Record(Vec::new());
        let mut out = vec![0.0; g.output_dim()];
        g.encode_into(p, &mut out, &mut obs);
        let mut grads = g.zero_grads();
        g.backward_into(p, &vec![1.0; g.output_dim()], &mut grads, &mut obs);

        let levels = g.levels().len() as u32;
        let order = |phase| (0..levels).flat_map(move |l| (0..8u8).map(move |c| (phase, l, c)));
        let expected: Vec<_> = order(AccessPhase::FeedForward)
            .chain(order(AccessPhase::BackProp))
            .collect();
        let seen: Vec<_> = obs.0.iter().map(|&(ph, l, c, _)| (ph, l, c)).collect();
        assert_eq!(seen, expected);
        let (reads, writes) = obs.0.split_at(obs.0.len() / 2);
        assert!(reads.iter().zip(writes).all(|(r, w)| r.3 == w.3));
    }

    #[test]
    fn size_factor_scales_table() {
        let cfg = HashGridConfig::default();
        let quarter = cfg.clone().with_size_factor(0.25);
        assert_eq!(quarter.log2_table_size, cfg.log2_table_size - 2);
        let same = cfg.clone().with_size_factor(1.0);
        assert_eq!(same.log2_table_size, cfg.log2_table_size);
    }

    #[test]
    fn fp16_storage_quantises() {
        // Storage is two bytes per scalar, and a stored value is its fp16
        // rounding: 0.1 is not representable.
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = HashGrid::new_random(HashGridConfig::default(), &mut rng);
        assert_eq!(
            std::mem::size_of_val(g.params()),
            g.config().table_bytes_fp16()
        );
        g.params_mut()[0] = F16::from_f32(0.1);
        assert_eq!(g.params()[0].to_f32(), fp16::quantize(0.1));
        assert_ne!(g.params()[0].to_f32(), 0.1);
    }

    #[test]
    fn grad_buffer_ops() {
        let g = small_grid();
        let mut grads = g.zero_grads();
        grads.values[3] = 2.0;
        grads.count = 4;
        grads.zero();
        assert_eq!(grads.values[3], 0.0);
        assert_eq!(grads.count, 0);
    }

    #[test]
    fn paper_scale_config_sizes() {
        // The Instant-3D density grid: 2^18 entries × 2 features × 2 B = 1 MB.
        let density = HashGridConfig {
            levels: 1,
            log2_table_size: 18,
            base_resolution: 512,
            max_resolution: 512,
            ..HashGridConfig::default()
        };
        assert_eq!(density.table_bytes_fp16(), 1 << 20);
        // Color grid 2^16 entries → 256 KB.
        let color = density.clone().with_size_factor(0.25);
        assert_eq!(color.table_bytes_fp16(), 256 * 1024);
    }

    #[test]
    fn level_versions_track_sparse_steps_precisely() {
        use crate::adam::{Adam, AdamConfig};
        let mut g = small_grid();
        let v0 = g.level_versions().to_vec();
        // A sparse step touching only level 1's parameter range bumps
        // exactly level 1.
        let start = g.param_offsets[1];
        let touched = vec![start, start + 3];
        let grads = vec![0.5f32; g.num_params()];
        let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
        g.apply_sparse_step(&mut opt, &grads, &touched);
        let v1 = g.level_versions().to_vec();
        assert_eq!(v1[0], v0[0]);
        assert!(v1[1] > v0[1]);
        assert_eq!(v1[2], v0[2]);
        // An empty step changes nothing.
        g.apply_sparse_step(&mut opt, &grads, &[]);
        assert_eq!(g.level_versions(), &v1[..]);
        // params_mut is conservative: every level bumps.
        let _ = g.params_mut();
        let v2 = g.level_versions().to_vec();
        assert!(v2.iter().zip(&v1).all(|(a, b)| a > b));
        // The consuming sweep bumps exactly the levels that held a
        // non-zero gradient, all to one new version.
        let mut buf = g.zero_grads();
        buf.values[g.param_offsets[0]] = 0.5;
        buf.values[g.param_offsets[2] + 1] = -0.25;
        buf.count = 2;
        let steps = opt.steps();
        g.apply_step_consuming(&mut opt, &mut buf);
        let v3 = g.level_versions().to_vec();
        assert!(v3[0] > v2[0]);
        assert_eq!(v3[1], v2[1]);
        assert_eq!(v3[2], v3[0]);
        assert_eq!(opt.steps(), steps + 1);
        assert!(buf.count == 0 && buf.values.iter().all(|v| v.to_bits() == 0));
        // All-zero gradients: no step, no bump.
        g.apply_step_consuming(&mut opt, &mut buf);
        assert_eq!(g.level_versions(), &v3[..]);
        assert_eq!(opt.steps(), steps + 1);
    }

    /// Twenty-one points (two full lanes and a tail) and their embedding
    /// gradients for `g`.
    fn batch(g: &HashGrid, seed: u64) -> (Vec<Vec3>, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Vec3> = (0..21)
            .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let d_out = (0..pts.len() * g.output_dim())
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect();
        (pts, d_out)
    }

    /// The bits a fused step leaves: parameters, moments, versions, steps.
    fn fused_bits(g: &HashGrid, opt: &Adam) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u64>, u64) {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let params = g.params().iter().map(|h| u32::from(h.0)).collect();
        let (m, v) = opt.moments();
        let versions = g.level_versions().to_vec();
        (params, bits(m), bits(v), versions, opt.steps())
    }

    #[test]
    fn fused_step_has_the_same_bits_on_both_dispatch_arms() {
        // `par_backward_step_with` runs the scatter and the sweep in their
        // AVX2 arms where the host has AVX2; the portable bodies must give
        // the same bits, on one lane and on two.
        use crate::adam::AdamConfig;
        let g0 = small_grid();
        let (pts, d_out) = batch(&g0, 9);
        let run = |portable: bool, workers: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .unwrap();
            pool.install(|| {
                let mut g = g0.clone();
                let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
                let mut buffers = LevelBuffers::new();
                let scatter = |layout: &GridLayout, l: usize, grads: &mut [f32]| {
                    layout.scatter_level_lanes(l, grads, &pts, &d_out);
                };
                for _ in 0..2 {
                    if portable {
                        g.backward_step(&scatter, SparseUpdate::consume, &mut opt, &mut buffers);
                    } else {
                        let simd = crate::kernels::simd();
                        g.par_backward_step_with(&simd, &pts, &d_out, &mut opt, &mut buffers);
                    }
                }
                assert!(buffers.count() <= workers);
                fused_bits(&g, &opt)
            })
        };
        let dispatched = run(false, 1);
        assert_eq!(dispatched.4, 2);
        for workers in [1, 2] {
            assert_eq!(
                run(true, workers),
                dispatched,
                "portable, {workers} workers"
            );
            assert_eq!(
                run(false, workers),
                dispatched,
                "dispatched, {workers} workers"
            );
        }
    }

    #[test]
    fn a_fused_step_that_unwound_leaves_no_gradient_behind() {
        // A scatter that panics after writing leaves its lane's buffer
        // dirty; the next step on the same buffers must not see it.
        use crate::adam::AdamConfig;
        let g0 = small_grid();
        let (pts, d_out) = batch(&g0, 10);
        let fresh = |g: &mut HashGrid, opt: &mut Adam, buffers: &mut LevelBuffers| {
            let simd = crate::kernels::simd();
            g.par_backward_step_with(&simd, &pts, &d_out, opt, buffers);
        };
        let mut buffers = LevelBuffers::new();
        let mut g = g0.clone();
        let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let scatter = |_: &GridLayout, _: usize, grads: &mut [f32]| {
                grads.fill(1.0);
                panic!("scatter failed");
            };
            let mut g = g0.clone();
            g.backward_step(&scatter, consume_sweep, &mut opt, &mut buffers);
        }));
        assert!(unwound.is_err());
        let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
        fresh(&mut g, &mut opt, &mut buffers);
        let mut clean = g0.clone();
        let mut clean_opt = Adam::new(AdamConfig::for_grid(), clean.num_params());
        fresh(&mut clean, &mut clean_opt, &mut LevelBuffers::new());
        assert_eq!(fused_bits(&g, &opt).0, fused_bits(&clean, &clean_opt).0);
        assert_eq!(fused_bits(&g, &opt).1, fused_bits(&clean, &clean_opt).1);
    }

    #[test]
    fn level_subset_encode_matches_full_encode_columns() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = HashGridConfig {
            levels: 4,
            ..small_grid().config().clone()
        };
        let g = HashGrid::new_random(cfg, &mut rng);
        let points: Vec<Vec3> = (0..37)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                )
            })
            .collect();
        let w = g.output_dim();
        let f = g.config().features_per_entry;
        // The point-major scalar reference every backend must match.
        let reference: Vec<f32> = points.iter().flat_map(|&p| g.encode(p)).collect();
        for backend in crate::kernels::registered() {
            let mut full = vec![0.0f32; points.len() * w];
            g.par_encode_batch_with(&backend, &points, &mut full);
            assert_eq!(full, reference, "{backend}");
            // Unsorted and repeated lists recompute the same columns.
            for levels in [&[1usize][..], &[3, 1, 1][..]] {
                // Sentinel-filled buffer: untouched columns must keep it.
                let mut partial = vec![-7.0f32; points.len() * w];
                g.par_encode_batch_levels_with(&backend, levels, &points, &mut partial);
                for i in 0..points.len() {
                    for l in 0..g.levels().len() {
                        for k in 0..f {
                            let idx = i * w + l * f + k;
                            if levels.contains(&l) {
                                assert_eq!(partial[idx], full[idx], "{backend} point {i}");
                            } else {
                                assert_eq!(partial[idx], -7.0, "{backend} column {l} touched");
                            }
                        }
                    }
                }
            }
            // Empty level set: nothing written.
            let mut untouched = vec![-3.0f32; points.len() * w];
            g.par_encode_batch_levels_with(&backend, &[], &points, &mut untouched);
            assert!(untouched.iter().all(|&v| v == -3.0));
        }
    }
}
