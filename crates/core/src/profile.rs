//! Workload accounting: operation counts per pipeline step.
//!
//! The trainer counts every primitive operation (grid reads/writes, MLP
//! MACs, compositing ops, sampled rays/points). The device models
//! (`instant3d-devices`) and the accelerator simulator (`instant3d-accel`)
//! consume these counts — measured at laptop scale or pinned at the paper's
//! scale — to produce the runtime/energy numbers behind Figs. 4/7/16/17 and
//! Tabs. 4/5.

use crate::config::{GridTopology, TrainConfig};

/// The six steps of the NeRF training pipeline (Fig. 2), with Step ③ split
/// into its grid-interpolation and MLP halves and the backward pass broken
/// out (matching the paper's Fig. 4 runtime-breakdown buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStep {
    /// Step ① — randomly sample pixels as a batch.
    SamplePixels,
    /// Step ② — map the pixels to rays.
    MapRays,
    /// Step ③-① forward — interpolate embeddings from the embedding grid.
    GridForward,
    /// Step ③-② forward — compute features with the small MLP.
    MlpForward,
    /// Step ④ — volume rendering (predict pixel colors).
    VolumeRender,
    /// Step ⑤ — compute the reconstruction loss.
    ComputeLoss,
    /// Step ③-① backward — gradient scatter into the embedding grid.
    GridBackward,
    /// Step ③-② backward — MLP backward.
    MlpBackward,
}

impl PipelineStep {
    /// All steps in pipeline order (backward steps last, as in Fig. 4).
    pub const ALL: [PipelineStep; 8] = [
        PipelineStep::SamplePixels,
        PipelineStep::MapRays,
        PipelineStep::GridForward,
        PipelineStep::MlpForward,
        PipelineStep::VolumeRender,
        PipelineStep::ComputeLoss,
        PipelineStep::GridBackward,
        PipelineStep::MlpBackward,
    ];

    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            PipelineStep::SamplePixels => "step1-sample-pixels",
            PipelineStep::MapRays => "step2-map-rays",
            PipelineStep::GridForward => "step3a-grid-interp",
            PipelineStep::MlpForward => "step3b-mlp",
            PipelineStep::VolumeRender => "step4-render",
            PipelineStep::ComputeLoss => "step5-loss",
            PipelineStep::GridBackward => "step3a-grid-backprop",
            PipelineStep::MlpBackward => "step3b-mlp-backprop",
        }
    }

    /// Whether this bucket belongs to the Step ③-① grid-interpolation
    /// bottleneck (forward or backward) the paper identifies.
    pub fn is_grid_interpolation(self) -> bool {
        matches!(self, PipelineStep::GridForward | PipelineStep::GridBackward)
    }
}

/// Cumulative operation counts over a training run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// The registry name of the kernel backend the run was configured
    /// with (reported for provenance — golden tests compare stats across
    /// execution engines, and bench records need to say which kernels
    /// produced a number). Resolved from `TrainConfig::kernel_backend`'s
    /// handle; empty for hand-built stats.
    /// [`WorkloadStats::merge`] keeps the receiver's backend.
    pub backend: &'static str,
    /// Training iterations executed.
    pub iterations: u64,
    /// Rays (pixels) processed.
    pub rays: u64,
    /// Points queried (after occupancy culling).
    pub points: u64,
    /// Density-grid feed-forward table reads.
    pub density_reads_ff: u64,
    /// Color-grid feed-forward table reads (0 when coupled).
    pub color_reads_ff: u64,
    /// Density-grid back-propagation scatter writes.
    pub density_writes_bp: u64,
    /// Color-grid back-propagation scatter writes.
    pub color_writes_bp: u64,
    /// MLP multiply-accumulates, forward.
    pub mlp_flops_ff: u64,
    /// MLP multiply-accumulates, backward (≈ 2× forward).
    pub mlp_flops_bp: u64,
    /// Compositing operations (one per integrated sample).
    pub render_samples: u64,
    /// Occupancy-grid refreshes executed.
    pub occupancy_refreshes: u64,
    /// Occupancy cells whose density was (re)probed across all refreshes
    /// (`num_cells / occupancy_subset` per refresh).
    pub occupancy_probes: u64,
    /// Hash-table reads occupancy refreshes performed. Thanks to the
    /// per-level embedding cache this counts only levels that actually
    /// re-encoded — it is *not* included in [`WorkloadStats::density_reads_ff`],
    /// which tracks the training pipeline's Step ③-① reads.
    pub occupancy_reads_ff: u64,
}

impl WorkloadStats {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &WorkloadStats) {
        self.iterations += other.iterations;
        self.rays += other.rays;
        self.points += other.points;
        self.density_reads_ff += other.density_reads_ff;
        self.color_reads_ff += other.color_reads_ff;
        self.density_writes_bp += other.density_writes_bp;
        self.color_writes_bp += other.color_writes_bp;
        self.mlp_flops_ff += other.mlp_flops_ff;
        self.mlp_flops_bp += other.mlp_flops_bp;
        self.render_samples += other.render_samples;
        self.occupancy_refreshes += other.occupancy_refreshes;
        self.occupancy_probes += other.occupancy_probes;
        self.occupancy_reads_ff += other.occupancy_reads_ff;
    }

    /// All grid feed-forward reads.
    pub fn grid_reads_ff(&self) -> u64 {
        self.density_reads_ff + self.color_reads_ff
    }

    /// All grid back-propagation writes.
    pub fn grid_writes_bp(&self) -> u64 {
        self.density_writes_bp + self.color_writes_bp
    }

    /// Mean points per iteration.
    pub fn points_per_iter(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.points as f64 / self.iterations as f64
        }
    }
}

/// A per-iteration workload description, either measured
/// ([`PipelineWorkload::from_stats`]) or pinned to the paper's scale.
///
/// All counts are *per training iteration*; `iterations` scales a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineWorkload {
    /// Iterations in the run being modelled.
    pub iterations: f64,
    /// Rays per iteration (batch size).
    pub rays_per_iter: f64,
    /// Queried points per iteration.
    pub points_per_iter: f64,
    /// Hash-grid levels.
    pub levels: u32,
    /// Grid feed-forward reads per iteration (all branches).
    pub grid_reads_ff_per_iter: f64,
    /// Grid back-propagation scatter writes per iteration (averaged over
    /// the update schedule, so a skipped color iteration halves its share).
    pub grid_writes_bp_per_iter: f64,
    /// MLP multiply-accumulates per iteration (forward + backward).
    pub mlp_flops_per_iter: f64,
    /// Density (or shared) hash-table bytes at fp16.
    pub density_table_bytes: usize,
    /// Color hash-table bytes at fp16 (0 when coupled).
    pub color_table_bytes: usize,
    /// Bytes per table access (features/entry × 2 B).
    pub bytes_per_access: usize,
}

/// Paper-scale points per training iteration ("> 200,000 times per
/// training iteration", §1).
const PAPER_POINTS_PER_ITER: f64 = 200_000.0;

/// Paper-scale hash-grid levels.
const PAPER_LEVELS: u32 = 16;

/// Bytes of a decomposed branch's table at size factor 1.0 (2¹⁸ entries ×
/// 2 features × fp16 = 1 MB).
const BRANCH_BYTES_AT_FACTOR_1: f64 = (1 << 20) as f64;

/// Bytes of the coupled Instant-NGP table (2¹⁹ entries = 2 MB).
const COUPLED_BYTES: f64 = (2 << 20) as f64;

/// MLP multiply-accumulate-pairs per point per iteration (fwd ≈ 12 k
/// FLOPs/point; backward ≈ 2×).
const MLP_FLOPS_PER_POINT: f64 = 12_000.0 * 3.0;

impl PipelineWorkload {
    /// Derives the per-iteration workload from measured statistics.
    ///
    /// # Panics
    ///
    /// Panics if `stats.iterations == 0`.
    pub fn from_stats(
        stats: &WorkloadStats,
        levels: u32,
        density_table_bytes: usize,
        color_table_bytes: usize,
        bytes_per_access: usize,
    ) -> Self {
        assert!(stats.iterations > 0, "need at least one measured iteration");
        let it = stats.iterations as f64;
        PipelineWorkload {
            iterations: it,
            rays_per_iter: stats.rays as f64 / it,
            points_per_iter: stats.points as f64 / it,
            levels,
            grid_reads_ff_per_iter: stats.grid_reads_ff() as f64 / it,
            grid_writes_bp_per_iter: stats.grid_writes_bp() as f64 / it,
            mlp_flops_per_iter: (stats.mlp_flops_ff + stats.mlp_flops_bp) as f64 / it,
            density_table_bytes,
            color_table_bytes,
            bytes_per_access,
        }
    }

    /// The paper-scale workload a [`TrainConfig`] induces, for `iterations`
    /// training iterations: the paper's ~200 000 points × 16 levels × 8
    /// corners per grid and 4096-ray batches whatever the configuration's
    /// own batch; the topology, size factors and update periods set the
    /// read/write counts and table bytes.
    ///
    /// Convention (§5.1, with the density/color entry-count typo corrected
    /// — see [`PipelineWorkload::paper_scale_instant3d`]): a decoupled
    /// branch at size factor 1.0 owns a 2¹⁸-entry table (1 MB at 2 × fp16),
    /// the coupled Instant-NGP grid 2¹⁹ entries (2 MB).
    pub fn paper_scale(cfg: &TrainConfig, iterations: f64) -> Self {
        let points = PAPER_POINTS_PER_ITER;
        let reads_per_grid = points * PAPER_LEVELS as f64 * 8.0;
        // One grid read every iteration; scatter writes are averaged over
        // the update schedule.
        let coupled = PipelineWorkload {
            iterations,
            rays_per_iter: 4096.0,
            points_per_iter: points,
            levels: PAPER_LEVELS,
            grid_reads_ff_per_iter: reads_per_grid,
            grid_writes_bp_per_iter: reads_per_grid / cfg.density_update_every as f64,
            mlp_flops_per_iter: points * MLP_FLOPS_PER_POINT,
            density_table_bytes: (COUPLED_BYTES * cfg.density_size_factor) as usize,
            color_table_bytes: 0,
            bytes_per_access: 4, // 2 features × fp16
        };
        match cfg.topology {
            GridTopology::Coupled => coupled,
            GridTopology::Decoupled => PipelineWorkload {
                grid_reads_ff_per_iter: 2.0 * reads_per_grid,
                grid_writes_bp_per_iter: coupled.grid_writes_bp_per_iter
                    + reads_per_grid / cfg.color_update_every as f64,
                density_table_bytes: (BRANCH_BYTES_AT_FACTOR_1 * cfg.density_size_factor) as usize,
                color_table_bytes: (BRANCH_BYTES_AT_FACTOR_1 * cfg.color_size_factor) as usize,
                ..coupled
            },
        }
    }

    /// The paper-scale Instant-NGP workload: ~200 000 embedding
    /// interpolations per iteration (§1), 16 levels, a 2 MB shared table
    /// (2¹⁹ entries × 2 features × fp16), 4096-ray batches.
    pub fn paper_scale_instant_ngp(iterations: f64) -> Self {
        Self::paper_scale(&TrainConfig::instant_ngp(), iterations)
    }

    /// The paper-scale Instant-3D workload: same point budget, but the grid
    /// is decomposed into a 1 MB density table (2¹⁸ entries) updated every
    /// iteration and a 256 KB color table (2¹⁶ entries) updated every other
    /// iteration (`S_D:S_C = 1:0.25`, `F_D:F_C = 1:0.5`, §5.1).
    ///
    /// Note §5.1 of the paper lists the entry counts as "2^16 and 2^18
    /// respectively" for density/color, which contradicts `S_D > S_C` and
    /// the accelerator's 1 MB-density fusion mode; we use the consistent
    /// assignment (density 2¹⁸, color 2¹⁶).
    pub fn paper_scale_instant3d(iterations: f64) -> Self {
        Self::paper_scale(&TrainConfig::instant3d(), iterations)
    }

    /// Total grid bytes moved per iteration (reads + writes).
    pub fn grid_bytes_per_iter(&self) -> f64 {
        (self.grid_reads_ff_per_iter + self.grid_writes_bp_per_iter) * self.bytes_per_access as f64
    }

    /// Total table bytes across branches.
    pub fn total_table_bytes(&self) -> usize {
        self.density_table_bytes + self.color_table_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_enumeration_is_complete_and_labelled() {
        assert_eq!(PipelineStep::ALL.len(), 8);
        let mut labels = std::collections::BTreeSet::new();
        for s in PipelineStep::ALL {
            assert!(labels.insert(s.label()), "duplicate label {}", s.label());
        }
        assert!(PipelineStep::GridForward.is_grid_interpolation());
        assert!(PipelineStep::GridBackward.is_grid_interpolation());
        assert!(!PipelineStep::MlpForward.is_grid_interpolation());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = WorkloadStats {
            iterations: 1,
            rays: 10,
            points: 100,
            density_reads_ff: 800,
            color_reads_ff: 200,
            density_writes_bp: 800,
            color_writes_bp: 0,
            mlp_flops_ff: 5000,
            mlp_flops_bp: 10000,
            render_samples: 100,
            occupancy_refreshes: 1,
            occupancy_probes: 1728,
            occupancy_reads_ff: 1728 * 8 * 4,
            ..WorkloadStats::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.iterations, 2);
        assert_eq!(a.grid_reads_ff(), 2000);
        assert_eq!(a.grid_writes_bp(), 1600);
        assert_eq!(a.points_per_iter(), 100.0);
        assert_eq!(a.occupancy_refreshes, 2);
        assert_eq!(a.occupancy_probes, 2 * 1728);
        assert_eq!(a.occupancy_reads_ff, 2 * 1728 * 8 * 4);
    }

    #[test]
    fn from_stats_normalises_per_iteration() {
        let stats = WorkloadStats {
            iterations: 4,
            rays: 400,
            points: 4000,
            density_reads_ff: 8000,
            color_reads_ff: 4000,
            density_writes_bp: 8000,
            color_writes_bp: 2000,
            mlp_flops_ff: 40_000,
            mlp_flops_bp: 80_000,
            render_samples: 4000,
            ..WorkloadStats::default()
        };
        let w = PipelineWorkload::from_stats(&stats, 8, 1 << 16, 1 << 14, 4);
        assert_eq!(w.rays_per_iter, 100.0);
        assert_eq!(w.points_per_iter, 1000.0);
        assert_eq!(w.grid_reads_ff_per_iter, 3000.0);
        assert_eq!(w.grid_writes_bp_per_iter, 2500.0);
        assert_eq!(w.mlp_flops_per_iter, 30_000.0);
        assert_eq!(w.total_table_bytes(), (1 << 16) + (1 << 14));
    }

    #[test]
    fn paper_scale_ngp_matches_cited_numbers() {
        let w = PipelineWorkload::paper_scale_instant_ngp(256.0);
        assert_eq!(w.points_per_iter, 200_000.0);
        assert_eq!(w.levels, 16);
        assert_eq!(w.grid_reads_ff_per_iter, 200_000.0 * 128.0);
        assert_eq!(w.density_table_bytes, 2 << 20);
        assert_eq!(w.color_table_bytes, 0);
    }

    #[test]
    fn paper_scale_instant3d_decomposition() {
        let w = PipelineWorkload::paper_scale_instant3d(256.0);
        // 1 MB density + 256 KB color, per §5.1 (with the typo corrected).
        assert_eq!(w.density_table_bytes, 1 << 20);
        assert_eq!(w.color_table_bytes, 256 << 10);
        // Color updates at half frequency → BP writes are 1.5× one grid's.
        let one_grid = 200_000.0 * 16.0 * 8.0;
        assert_eq!(w.grid_writes_bp_per_iter, one_grid * 1.5);
        assert_eq!(w.grid_reads_ff_per_iter, one_grid * 2.0);
    }

    #[test]
    fn grid_bytes_accounting() {
        let w = PipelineWorkload::paper_scale_instant_ngp(1.0);
        let expect = (w.grid_reads_ff_per_iter + w.grid_writes_bp_per_iter) * 4.0;
        assert_eq!(w.grid_bytes_per_iter(), expect);
    }
}
