//! Training configuration: the paper's algorithmic knobs, plus the
//! execution-engine knobs (kernel backend).

use instant3d_nerf::grid::{dense_vertex_count, HashGridConfig};
use instant3d_nerf::kernels::{self, BackendHandle};

/// Whether the model uses Instant-NGP's single shared grid or Instant-3D's
/// decomposed color/density grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridTopology {
    /// One grid feeds both the density and color heads (Instant-NGP, §2.1).
    Coupled,
    /// Separate density and color grids (Instant-3D, §3, Fig. 6).
    Decoupled,
}

/// Full training configuration.
///
/// The paper's two knobs are expressed as:
///
/// * `density_size_factor` / `color_size_factor` — multiply the base grid's
///   per-level table size (powers of two). `S_D : S_C = 1 : 0.25` is
///   `density_size_factor = 1.0, color_size_factor = 0.25`.
/// * `density_update_every` / `color_update_every` — grid update periods in
///   iterations. `F_D : F_C = 1 : 0.5` is `1` and `2`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Coupled (Instant-NGP) or decoupled (Instant-3D) grids.
    pub topology: GridTopology,
    /// Base hash-grid configuration (the density branch uses this scaled by
    /// `density_size_factor`).
    pub grid: HashGridConfig,
    /// Table-size factor for the density grid (`S_D`).
    pub density_size_factor: f64,
    /// Table-size factor for the color grid (`S_C`); ignored when coupled.
    pub color_size_factor: f64,
    /// Density grid updated every this many iterations (`1/F_D`).
    pub density_update_every: u32,
    /// Color grid updated every this many iterations (`1/F_C`); ignored
    /// when coupled.
    pub color_update_every: u32,
    /// Rays (pixels) per training batch — Step ①.
    pub rays_per_batch: usize,
    /// Maximum stratified samples per ray before occupancy culling.
    pub samples_per_ray: usize,
    /// Spherical-harmonics degree for the direction encoding (1..=4).
    pub sh_degree: usize,
    /// Hidden width of both MLP heads (the paper's small MLPs use 64).
    pub mlp_hidden_dim: usize,
    /// Hidden layers per MLP head.
    pub mlp_hidden_layers: usize,
    /// Adam learning rate for grid features.
    pub grid_lr: f32,
    /// Adam learning rate for MLP weights.
    pub mlp_lr: f32,
    /// Multiply all learning rates by this factor every
    /// `lr_decay_every` iterations (1.0 disables decay). Instant-NGP uses
    /// a mild exponential decay late in training.
    pub lr_decay_factor: f32,
    /// Decay period in iterations (ignored when the factor is 1.0).
    pub lr_decay_every: u32,
    /// Occupancy-grid resolution (cells per axis); 0 disables skipping.
    pub occupancy_resolution: u32,
    /// Refresh the occupancy grid every this many iterations. Refreshes
    /// run batched through the kernel seams with a persistent
    /// cell→embedding cache (`instant3d_nerf::occupancy`), so levels whose
    /// grid parameters didn't change since the last refresh are never
    /// re-encoded; together with [`TrainConfig::occupancy_subset`] these
    /// are the refresh-amortization knobs.
    pub occupancy_update_every: u32,
    /// Occupancy refresh subset stride `k`: each refresh re-probes only
    /// the cells whose linear index ≡ phase (mod `k`), with the phase
    /// rotating so `k` consecutive refreshes cover every cell once —
    /// instant-ngp-style amortization. `1` (the default) probes the full
    /// grid every refresh. A cell's density EMA decays once per *probe*,
    /// so larger strides also slow the decay to one step per rotation.
    pub occupancy_subset: u32,
    /// Density threshold above which a cell counts as occupied.
    pub occupancy_threshold: f32,
    /// Samples per ray when rendering evaluation images.
    pub eval_samples_per_ray: usize,
    /// Which kernel backend the batched engine runs — a handle resolved
    /// by name from `instant3d_nerf::kernels`: the scalar reference, the
    /// lane-batched SIMD default or the `checked` shadow executor (all
    /// bit-identical by contract), or any handle built with
    /// `BackendHandle::new`. Every preset honours the
    /// `INSTANT3D_KERNEL_BACKEND` env var — a name lookup — which is how
    /// the CI matrix forces each built-in backend.
    pub kernel_backend: BackendHandle,
}

impl Default for TrainConfig {
    /// The Instant-3D operating point at laptop scale (small tables, small
    /// batches). Use [`TrainConfig::paper_scale`] on a preset to get the
    /// paper's table sizes for workload modelling.
    fn default() -> Self {
        TrainConfig {
            topology: GridTopology::Decoupled,
            grid: HashGridConfig::default(),
            density_size_factor: 1.0,
            color_size_factor: 0.25,
            density_update_every: 1,
            color_update_every: 2,
            rays_per_batch: 256,
            samples_per_ray: 48,
            sh_degree: 4,
            mlp_hidden_dim: 64,
            mlp_hidden_layers: 1,
            grid_lr: 1e-1,
            mlp_lr: 1e-2,
            lr_decay_factor: 1.0,
            lr_decay_every: 64,
            occupancy_resolution: 24,
            occupancy_update_every: 16,
            occupancy_subset: 1,
            occupancy_threshold: 0.5,
            eval_samples_per_ray: 64,
            kernel_backend: kernels::from_env_or_default(),
        }
    }
}

impl TrainConfig {
    /// The Instant-NGP baseline: one coupled grid, uniform size, updated
    /// every iteration.
    pub fn instant_ngp() -> Self {
        TrainConfig {
            topology: GridTopology::Coupled,
            density_size_factor: 1.0,
            color_size_factor: 1.0,
            density_update_every: 1,
            color_update_every: 1,
            ..TrainConfig::default()
        }
    }

    /// The Instant-3D operating point selected in §5.1 by grid search:
    /// `S_D : S_C = 1 : 0.25` and `F_D : F_C = 1 : 0.5`.
    pub fn instant3d() -> Self {
        TrainConfig::default()
    }

    /// A decoupled config with explicit size factors and update periods —
    /// the Tab. 1 / Tab. 2 sweep rows.
    pub fn decoupled(
        density_size_factor: f64,
        color_size_factor: f64,
        density_update_every: u32,
        color_update_every: u32,
    ) -> Self {
        TrainConfig {
            topology: GridTopology::Decoupled,
            density_size_factor,
            color_size_factor,
            density_update_every,
            color_update_every,
            ..TrainConfig::default()
        }
    }

    /// A very small configuration for unit tests and doc examples
    /// (sub-second training runs).
    pub fn fast_preview() -> Self {
        TrainConfig {
            grid: HashGridConfig {
                levels: 4,
                log2_table_size: 12,
                base_resolution: 8,
                max_resolution: 64,
                ..HashGridConfig::default()
            },
            rays_per_batch: 64,
            samples_per_ray: 24,
            sh_degree: 2,
            mlp_hidden_dim: 16,
            occupancy_resolution: 12,
            eval_samples_per_ray: 32,
            ..TrainConfig::default()
        }
    }

    /// Switches the base grid to the paper-scale Instant-NGP configuration
    /// (16 levels, `T = 2^19`) — used for workload modelling, not for
    /// laptop training runs.
    pub fn paper_scale(mut self) -> Self {
        self.grid = HashGridConfig::instant_ngp();
        self.rays_per_batch = 4096;
        self.samples_per_ray = 64;
        self
    }

    /// The density branch's grid configuration.
    pub fn density_grid_config(&self) -> HashGridConfig {
        self.grid.clone().with_size_factor(self.density_size_factor)
    }

    /// The color branch's grid configuration (only meaningful when
    /// decoupled).
    pub fn color_grid_config(&self) -> HashGridConfig {
        self.grid.clone().with_size_factor(self.color_size_factor)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.rays_per_batch == 0 {
            return Err("rays_per_batch must be positive".into());
        }
        if self.samples_per_ray == 0 {
            return Err("samples_per_ray must be positive".into());
        }
        // Zero eval samples would render background-only frames and score
        // them with a PSNR that says nothing about the model.
        if self.eval_samples_per_ray == 0 {
            return Err("eval_samples_per_ray must be positive".into());
        }
        if !(1..=4).contains(&self.sh_degree) {
            return Err(format!("sh_degree {} outside 1..=4", self.sh_degree));
        }
        if self.density_update_every == 0 || self.color_update_every == 0 {
            return Err("update periods must be >= 1".into());
        }
        // Written so that NaN fails each float check: a one-sided
        // comparison with NaN is false.
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if !positive(self.density_size_factor) || !positive(self.color_size_factor) {
            return Err("size factors must be positive and finite".into());
        }
        for (name, lr) in [("grid_lr", self.grid_lr), ("mlp_lr", self.mlp_lr)] {
            if !(lr.is_finite() && lr >= 0.0) {
                return Err(format!("{name} {lr} must be finite and non-negative"));
            }
        }
        if !self.occupancy_threshold.is_finite() {
            return Err("occupancy_threshold must be finite".into());
        }
        if self.mlp_hidden_dim == 0 {
            return Err("mlp_hidden_dim must be positive".into());
        }
        if !(self.lr_decay_factor > 0.0 && self.lr_decay_factor <= 1.0) {
            return Err("lr_decay_factor must be in (0, 1]".into());
        }
        if self.lr_decay_every == 0 {
            return Err("lr_decay_every must be >= 1".into());
        }
        if self.occupancy_resolution > 0 && self.occupancy_update_every == 0 {
            return Err("occupancy_update_every must be >= 1".into());
        }
        if self.occupancy_subset == 0 {
            return Err("occupancy_subset must be >= 1".into());
        }
        let g = &self.grid;
        if g.levels == 0 {
            return Err("grid.levels must be >= 1".into());
        }
        if g.features_per_entry == 0 {
            return Err("grid.features_per_entry must be >= 1".into());
        }
        if !(1..=g.max_resolution).contains(&g.base_resolution) {
            return Err(format!(
                "grid resolutions must satisfy 1 <= base ({}) <= max ({})",
                g.base_resolution, g.max_resolution
            ));
        }
        // `HashGrid::init_random` samples `-init_scale..=init_scale`.
        if !(g.init_scale.is_finite() && g.init_scale >= 0.0) {
            return Err(format!(
                "grid.init_scale {} must be finite and non-negative",
                g.init_scale
            ));
        }
        // `HashGridConfig::table_size` is `1u32 << log2_table_size`.
        if g.log2_table_size >= 32 {
            return Err(format!(
                "grid.log2_table_size {} must be below 32",
                g.log2_table_size
            ));
        }
        // `HashGrid` addresses the tables of all its levels through one
        // `u32` entry offset, so each grid built must hold at most
        // `u32::MAX` entries.
        let color = (self.topology == GridTopology::Decoupled).then(|| self.color_grid_config());
        for grid in [Some(self.density_grid_config()), color].iter().flatten() {
            let t = u64::from(grid.table_size());
            let entries = grid
                .level_resolutions()
                .map(|r| dense_vertex_count(r).min(t))
                .fold(0u64, u64::saturating_add);
            if entries > u64::from(u32::MAX) {
                return Err(format!(
                    "a grid of {} levels with 2^{}-entry tables holds {entries} entries, \
                     more than u32::MAX",
                    grid.levels, grid.log2_table_size
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            TrainConfig::default(),
            TrainConfig::instant_ngp(),
            TrainConfig::instant3d(),
            TrainConfig::fast_preview(),
            TrainConfig::decoupled(0.25, 1.0, 1, 1),
            TrainConfig::instant3d().paper_scale(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn instant3d_operating_point_matches_paper() {
        let cfg = TrainConfig::instant3d();
        assert_eq!(cfg.topology, GridTopology::Decoupled);
        assert_eq!(cfg.density_size_factor, 1.0);
        assert_eq!(cfg.color_size_factor, 0.25);
        assert_eq!(cfg.density_update_every, 1);
        assert_eq!(cfg.color_update_every, 2);
    }

    #[test]
    fn ngp_baseline_is_coupled_uniform() {
        let cfg = TrainConfig::instant_ngp();
        assert_eq!(cfg.topology, GridTopology::Coupled);
        assert_eq!(cfg.color_size_factor, 1.0);
        assert_eq!(cfg.color_update_every, 1);
    }

    #[test]
    fn branch_grid_configs_apply_size_factors() {
        let cfg = TrainConfig::instant3d();
        let d = cfg.density_grid_config();
        let c = cfg.color_grid_config();
        assert_eq!(d.log2_table_size, cfg.grid.log2_table_size);
        assert_eq!(c.log2_table_size, cfg.grid.log2_table_size - 2);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = TrainConfig::fast_preview();
        cfg.rays_per_batch = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = TrainConfig::fast_preview();
        cfg.eval_samples_per_ray = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = TrainConfig::fast_preview();
        cfg.sh_degree = 9;
        assert!(cfg.validate().is_err());

        let mut cfg = TrainConfig::fast_preview();
        cfg.color_update_every = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = TrainConfig::fast_preview();
        cfg.occupancy_subset = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = TrainConfig::fast_preview();
        cfg.occupancy_update_every = 0;
        assert!(cfg.validate().is_err());

        // Grid shapes `HashGrid::new` would otherwise assert on.
        let grids: [fn(&mut HashGridConfig); 6] = [
            |g| g.levels = 0,
            |g| g.features_per_entry = 0,
            |g| g.base_resolution = 0,
            |g| g.base_resolution = g.max_resolution + 1,
            // `table_size()` would shift a `u32` by 32.
            |g| g.log2_table_size = 32,
            // 8 hashed levels of 2^30 entries: 2^33 entries overflow the
            // `u32` entry offsets.
            |g| {
                g.levels = 8;
                g.log2_table_size = 30;
                g.base_resolution = 2048;
                g.max_resolution = 4096;
            },
        ];
        for (i, set) in grids.iter().enumerate() {
            let mut cfg = TrainConfig::fast_preview();
            set(&mut cfg.grid);
            assert!(cfg.validate().is_err(), "grid case {i}");
        }

        // Non-finite floats (a NaN learning rate poisons every parameter
        // on the first Adam step) and negative learning rates.
        let floats: [fn(&mut TrainConfig, f32); 6] = [
            |c, v| c.grid_lr = v,
            |c, v| c.mlp_lr = v,
            |c, v| c.lr_decay_factor = v,
            |c, v| c.density_size_factor = v as f64,
            |c, v| c.color_size_factor = v as f64,
            |c, v| c.occupancy_threshold = v,
        ];
        for (i, set) in floats.iter().enumerate() {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut cfg = TrainConfig::fast_preview();
                set(&mut cfg, bad);
                assert!(cfg.validate().is_err(), "float field {i} = {bad}");
            }
        }
        for set in &floats[..2] {
            let mut cfg = TrainConfig::fast_preview();
            set(&mut cfg, -1e-3);
            assert!(cfg.validate().is_err());
            set(&mut cfg, 0.0);
            assert_eq!(cfg.validate(), Ok(()));
        }

        // An init scale the grid's uniform draw cannot use: an inverted
        // range panics, an infinite one fills the tables with NaN.
        for bad in [-1e-3, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut cfg = TrainConfig::fast_preview();
            cfg.grid.init_scale = bad;
            assert!(cfg.validate().is_err(), "grid.init_scale = {bad}");
        }
        let mut cfg = TrainConfig::fast_preview();
        cfg.grid.init_scale = 0.0;
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn paper_scale_uses_ngp_tables() {
        let cfg = TrainConfig::instant3d().paper_scale();
        assert_eq!(cfg.grid.levels, 16);
        assert_eq!(cfg.grid.log2_table_size, 19);
        assert_eq!(cfg.rays_per_batch, 4096);
    }
}
