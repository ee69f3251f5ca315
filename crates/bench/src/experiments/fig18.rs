//! Fig. 18 — per-scene ablation of the FRM and BUM units.
//!
//! For each scene we capture a real training trace, measure the FRM's
//! achieved SRAM utilisation (vs the no-FRM baseline issue) and the BUM's
//! write-merge ratio on that trace, then evaluate the accelerator with
//! {neither, FRM only, FRM+BUM} using the measured factors.

use super::common::{capture_trace, synthetic_dataset};
use crate::table::Table;
use instant3d_accel::{
    simulate_baseline_reads, simulate_bum, simulate_frm, Accelerator, BumConfig, FeatureSet,
};
use instant3d_core::{PipelineWorkload, TrainConfig};
use instant3d_devices::perf::ITERS_TO_PSNR25;
use instant3d_nerf::grid::GridBranch;

/// Runs the FRM/BUM ablation per scene.
pub fn run(quick: bool) {
    crate::banner(
        "Fig. 18",
        "Ablation: accelerator runtime without the FRM unit / without the BUM unit",
    );
    let cfg = crate::workloads::bench_config(TrainConfig::instant3d(), quick);
    let scenes = if quick {
        vec![0usize, 4]
    } else {
        (0..8).collect()
    };
    let budget = if quick { 10 } else { 24 };
    let capture: Vec<u64> = vec![budget - 2, budget - 1];

    let mut t = Table::new(&[
        "scene",
        "FRM util (measured)",
        "baseline util",
        "BUM writes/update",
        "runtime w/o FRM&BUM",
        "w/ FRM",
        "w/ FRM+BUM",
    ]);
    let mut frm_save_sum = 0.0f64;
    let mut both_save_sum = 0.0f64;
    for &i in &scenes {
        let ds = synthetic_dataset(i, quick, 1500 + i as u64);
        let (trace, trainer) =
            capture_trace(&cfg, &ds, &capture, budget, 2_000_000, 1600 + i as u64);

        // Trace-driven microarchitecture measurements (one core, B8 view).
        let ff = trace.reads_flat(GridBranch::Density, trainer.model().density_grid());
        let frm = simulate_frm(&ff, 8, 16);
        let base = simulate_baseline_reads(&ff, 8, 8);
        let bp: Vec<u64> = trace.bp_stream_level_major();
        let bum = simulate_bum(&bp, BumConfig::default());

        // Plug the measured factors into the analytic model.
        let accel = Accelerator {
            frm_utilization: frm.utilization,
            baseline_utilization: base.utilization,
            bum_write_ratio: bum.write_ratio(),
            ..Accelerator::default()
        };
        let w = PipelineWorkload::paper_scale(&cfg, ITERS_TO_PSNR25);
        let none = accel
            .simulate(
                &w,
                FeatureSet {
                    frm: false,
                    bum: false,
                    fusion: true,
                },
            )
            .seconds_total;
        let frm_only = accel
            .simulate(
                &w,
                FeatureSet {
                    frm: true,
                    bum: false,
                    fusion: true,
                },
            )
            .seconds_total;
        let both = accel.simulate(&w, FeatureSet::full()).seconds_total;
        frm_save_sum += 1.0 - frm_only / none;
        both_save_sum += 1.0 - both / none;
        t.row_owned(vec![
            ds.name.clone(),
            format!("{:.2}", frm.utilization),
            format!("{:.2}", base.utilization),
            format!("{:.2}", bum.write_ratio()),
            "100.0%".into(),
            format!("{:.1}%", frm_only / none * 100.0),
            format!("{:.1}%", both / none * 100.0),
        ]);
    }
    t.print();
    let n = scenes.len() as f64;
    println!(
        "\nAverage runtime reduction: FRM alone {:.1}% (paper: 31.1%); FRM+BUM\n\
         together {:.1}% (paper: 68.6%). Utilisation / merge factors above are\n\
         measured on this build's real training traces.",
        frm_save_sum / n * 100.0,
        both_save_sum / n * 100.0
    );
}
