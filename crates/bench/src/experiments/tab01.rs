//! Tab. 1 — PSNR vs training runtime for different grid-size ratios
//! `S_D : S_C`: shrinking the *color* grid is nearly free; shrinking the
//! *density* grid costs quality.

use super::common::{mean_of, run_on_dataset, synthetic_dataset};
use crate::table::Table;
use instant3d_core::{PipelineWorkload, TrainConfig};
use instant3d_devices::DeviceModel;

/// Trains the three Tab. 1 configurations and prints measured PSNR plus
/// modelled Xavier-NX runtime.
pub fn run(quick: bool) {
    crate::banner(
        "Tab. 1",
        "Grid-size ratios S_D : S_C — PSNR vs training runtime (Xavier NX model)",
    );
    let rows: Vec<(&str, TrainConfig)> = vec![
        ("1:1 (Instant-NGP)", TrainConfig::instant_ngp()),
        ("0.25:1", TrainConfig::decoupled(0.25, 1.0, 1, 1)),
        ("1:0.25", TrainConfig::decoupled(1.0, 0.25, 1, 1)),
    ];
    let iters = crate::workloads::train_iters(quick);
    let scenes = crate::workloads::scene_indices(quick);
    let xavier = DeviceModel::xavier_nx();

    let mut t = Table::new(&[
        "S_D : S_C",
        "avg runtime (s, modelled)",
        "avg test PSNR (dB, measured)",
        "paper runtime",
        "paper PSNR",
    ]);
    let paper = [("72", "26.0"), ("65", "25.4"), ("63", "26.0")];
    for ((label, cfg), (p_rt, p_psnr)) in rows.into_iter().zip(paper) {
        let cfg = crate::workloads::bench_config(cfg, quick);
        let runs: Vec<_> = scenes
            .iter()
            .map(|&i| {
                let ds = synthetic_dataset(i, quick, 300 + i as u64);
                run_on_dataset(&cfg, &ds, iters, 0, 400 + i as u64)
            })
            .collect();
        let psnr = mean_of(&runs, |r| r.psnr);
        let runtime = xavier.runtime(&PipelineWorkload::paper_scale(&cfg, iters as f64));
        t.row_owned(vec![
            label.to_string(),
            format!("{runtime:.0}"),
            format!("{psnr:.1}"),
            p_rt.to_string(),
            p_psnr.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nExpected shape: 1:0.25 keeps the baseline PSNR at reduced runtime;\n\
         0.25:1 (shrunk density grid) loses PSNR — color features are the less\n\
         sensitive branch. Runtime column uses the calibrated Xavier-NX model at\n\
         a fixed {iters}-iteration budget; PSNR is measured from real training."
    );
}
