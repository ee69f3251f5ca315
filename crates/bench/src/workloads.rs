//! Budgets of the measured experiments: the laptop-scale training
//! configuration, iteration count, scene set and dataset shape, full and
//! `--quick`. (The paper-scale workload the device and accelerator models
//! consume is `PipelineWorkload::paper_scale`.)

use instant3d_core::TrainConfig;

/// The laptop-scale training configuration used by the measured
/// experiments (Tabs. 1/2/4, Figs. 5/8/9/10/18): small enough that a
/// few-hundred-iteration run finishes in seconds, while keeping the
/// paper's structure (multi-level grids, decoupled branches, occupancy).
pub fn bench_config(base: TrainConfig, quick: bool) -> TrainConfig {
    let mut cfg = base;
    if quick {
        cfg.rays_per_batch = 96;
        cfg.samples_per_ray = 32;
    }
    cfg
}

/// Training iteration budget for measured runs.
pub fn train_iters(quick: bool) -> u64 {
    if quick {
        60
    } else {
        300
    }
}

/// Scenes to cover in multi-scene experiments.
pub fn scene_indices(quick: bool) -> Vec<usize> {
    if quick {
        vec![0, 2]
    } else {
        (0..8).collect()
    }
}

/// Image resolution / training views for dataset generation.
pub fn dataset_shape(quick: bool) -> (u32, usize) {
    if quick {
        (24, 8)
    } else {
        (40, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant3d_core::PipelineWorkload;

    // The three `paper_scale` tests pin what the Tab. 1 / Tab. 2 / §5.1
    // sweeps rely on: size factors and update periods reach the workload.

    #[test]
    fn coupled_workload_matches_ngp_scale() {
        let w = PipelineWorkload::paper_scale(&TrainConfig::instant_ngp(), 400.0);
        assert_eq!(w.color_table_bytes, 0);
        assert_eq!(w.density_table_bytes, 2 << 20);
        assert_eq!(w.grid_reads_ff_per_iter, 200_000.0 * 128.0);
        assert_eq!(w.grid_writes_bp_per_iter, w.grid_reads_ff_per_iter);
    }

    #[test]
    fn update_periods_scale_bp_writes() {
        let every1 = PipelineWorkload::paper_scale(&TrainConfig::decoupled(1.0, 1.0, 1, 1), 1.0);
        let every2 = PipelineWorkload::paper_scale(&TrainConfig::decoupled(1.0, 1.0, 1, 2), 1.0);
        assert!(every2.grid_writes_bp_per_iter < every1.grid_writes_bp_per_iter);
        let expect = every1.grid_writes_bp_per_iter * 0.75; // color halved
        assert!((every2.grid_writes_bp_per_iter - expect).abs() < 1.0);
    }

    #[test]
    fn size_factors_scale_tables() {
        let w = PipelineWorkload::paper_scale(&TrainConfig::decoupled(0.25, 1.0, 1, 1), 1.0);
        assert_eq!(w.density_table_bytes, 256 << 10);
        assert_eq!(w.color_table_bytes, 1 << 20);
    }

    #[test]
    fn quick_budgets_are_smaller() {
        assert!(train_iters(true) < train_iters(false));
        assert!(scene_indices(true).len() < scene_indices(false).len());
        let (rq, vq) = dataset_shape(true);
        let (rf, vf) = dataset_shape(false);
        assert!(rq < rf && vq < vf);
    }
}
