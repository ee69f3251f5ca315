//! Tab. 5 — the co-design ablation: normalized runtime of
//! (algorithm × hardware) combinations on the three datasets.

use crate::table::Table;
use instant3d_accel::{Accelerator, FeatureSet};
use instant3d_core::{PipelineWorkload, TrainConfig};
use instant3d_devices::{perf::ITERS_TO_PSNR26, DeviceModel};

/// Prints normalized runtimes for Instant-NGP@Xavier, Instant-3D-algo@Xavier
/// and Instant-3D-algo@Instant-3D-accelerator.
pub fn run(_quick: bool) {
    crate::banner(
        "Tab. 5",
        "Co-design ablation: normalized runtime (algorithm @ hardware)",
    );
    let xavier = DeviceModel::xavier_nx();
    let accel = Accelerator::default();
    // The three datasets differ by their per-iteration point scale
    // (measured in Tab. 4: SILVR ≈ 1.9×, ScanNet ≈ 1.2× the synthetic
    // point count — the paper's 135/84 vs 72 s ratios).
    let datasets = [
        ("NeRF-Synthetic*", 1.0),
        ("SILVR*", 1.875),
        ("ScanNet*", 1.17),
    ];
    let paper = [[100.0, 100.0, 100.0], [83.3, 82.2, 85.7], [2.3, 3.4, 3.2]];

    let mut t = Table::new(&[
        "NeRF training solution (algo @ hw)",
        "NeRF-Synthetic*",
        "SILVR*",
        "ScanNet*",
        "paper",
    ]);
    let ngp = TrainConfig::instant_ngp();
    let i3d = TrainConfig::instant3d();

    let scale = |cfg: &TrainConfig, f: f64| {
        let mut w = PipelineWorkload::paper_scale(cfg, ITERS_TO_PSNR26);
        w.points_per_iter *= f;
        w.grid_reads_ff_per_iter *= f;
        w.grid_writes_bp_per_iter *= f;
        w.mlp_flops_per_iter *= f;
        w
    };

    let mut rows: Vec<Vec<f64>> = Vec::new();
    // Row 0: Instant-NGP @ Xavier NX (the 100 % reference per dataset).
    rows.push(
        datasets
            .iter()
            .map(|(_, f)| xavier.runtime(&scale(&ngp, *f)))
            .collect(),
    );
    // Row 1: Instant-3D algorithm @ Xavier NX.
    rows.push(
        datasets
            .iter()
            .map(|(_, f)| xavier.runtime(&scale(&i3d, *f)))
            .collect(),
    );
    // Row 2: Instant-3D algorithm @ Instant-3D accelerator.
    rows.push(
        datasets
            .iter()
            .map(|(_, f)| {
                accel
                    .simulate(&scale(&i3d, *f), FeatureSet::full())
                    .seconds_total
            })
            .collect(),
    );

    let labels = [
        "Instant-NGP @ Xavier NX",
        "Instant-3D algorithm @ Xavier NX",
        "Instant-3D algorithm @ Instant-3D accelerator",
    ];
    for (ri, label) in labels.iter().enumerate() {
        let mut cells = vec![label.to_string()];
        for (di, _) in datasets.iter().enumerate() {
            let norm = rows[ri][di] / rows[0][di] * 100.0;
            cells.push(format!("{norm:.1}%"));
        }
        cells.push(format!(
            "{:.1}% / {:.1}% / {:.1}%",
            paper[ri][0], paper[ri][1], paper[ri][2]
        ));
        t.row_owned(cells);
    }
    t.print();
    println!(
        "\n(*) procedural substrates. The co-design claim: the algorithm alone\n\
         trims ~17%, algorithm + accelerator reaches ~2-3% of the baseline."
    );
}
