//! Fig. 16 — normalized speedup and energy efficiency of the Instant-3D
//! accelerator over the three edge devices, per scene.
//!
//! Per-scene variation comes from each scene's *measured* workload: its
//! queried points per iteration (denser scenes keep more samples after
//! occupancy culling, amortising the accelerator's fixed host overhead
//! differently) and its measured iterations-to-25 dB.

use super::common::{run_on_dataset, synthetic_dataset, SceneRun};
use crate::table::Table;
use instant3d_accel::{Accelerator, FeatureSet};
use instant3d_core::{PipelineWorkload, TrainConfig};
use instant3d_devices::DeviceModel;

fn scale_points(mut w: PipelineWorkload, factor: f64) -> PipelineWorkload {
    w.points_per_iter *= factor;
    w.grid_reads_ff_per_iter *= factor;
    w.grid_writes_bp_per_iter *= factor;
    w.mlp_flops_per_iter *= factor;
    w
}

/// Trains per scene to measure convergence + point load, then prints the
/// per-scene and average speedup/energy-efficiency of the accelerator.
pub fn run(quick: bool) {
    crate::banner(
        "Fig. 16",
        "Normalized speedup / energy efficiency vs Jetson Nano, TX2, Xavier NX",
    );
    let iters = crate::workloads::train_iters(quick);
    let eval_every = if quick { 20 } else { 50 };
    let scenes = crate::workloads::scene_indices(quick);
    let ngp = crate::workloads::bench_config(TrainConfig::instant_ngp(), quick);
    let devices = DeviceModel::all_baselines();
    let accel = Accelerator::default();

    // Pass 1: measure every scene.
    let runs: Vec<SceneRun> = scenes
        .iter()
        .map(|&i| {
            let ds = synthetic_dataset(i, quick, 900 + i as u64);
            run_on_dataset(&ngp, &ds, iters, eval_every, 1000 + i as u64)
        })
        .collect();
    let mean_points: f64 =
        runs.iter().map(|r| r.points_per_iter).sum::<f64>() / runs.len().max(1) as f64;

    // Pass 2: model each scene's workload at its measured scale.
    let mut t = Table::new(&[
        "scene",
        "iters(+25dB)",
        "rel. load",
        "vs Nano x",
        "vs TX2 x",
        "vs XavierNX x",
        "energy-eff vs Nano x",
        "vs TX2 x",
        "vs XavierNX x",
    ]);
    let mut sums = [0.0f64; 6];
    for run in &runs {
        let scene_iters = run.iters_to_25db.unwrap_or(run.iterations) as f64;
        let load = (run.points_per_iter / mean_points.max(1.0)).clamp(0.25, 4.0);
        let w_ngp = scale_points(PipelineWorkload::paper_scale_instant_ngp(scene_iters), load);
        let w_i3d = scale_points(PipelineWorkload::paper_scale_instant3d(scene_iters), load);
        let acc = accel.simulate(&w_i3d, FeatureSet::full());
        let mut cells = vec![
            run.scene.clone(),
            format!("{scene_iters:.0}"),
            format!("{load:.2}"),
        ];
        for (k, d) in devices.iter().enumerate() {
            let s = d.runtime(&w_ngp) / acc.seconds_total;
            sums[k] += s;
            cells.push(format!("{s:.0}"));
        }
        for (k, d) in devices.iter().enumerate() {
            let e = d.energy(&w_ngp) / acc.energy_total_j;
            sums[3 + k] += e;
            cells.push(format!("{e:.0}"));
        }
        t.row_owned(cells);
    }
    let n = runs.len() as f64;
    t.row_owned(vec![
        "AVERAGE".into(),
        "-".into(),
        "-".into(),
        format!("{:.0}", sums[0] / n),
        format!("{:.0}", sums[1] / n),
        format!("{:.0}", sums[2] / n),
        format!("{:.0}", sums[3] / n),
        format!("{:.0}", sums[4] / n),
        format!("{:.0}", sums[5] / n),
    ]);
    t.print();
    println!(
        "\nPaper averages: speedups 224x / 132x / 45x and energy efficiency\n\
         1198x / 1089x / 479x over Nano / TX2 / Xavier NX. 'rel. load' is the\n\
         scene's measured points-per-iteration relative to the 8-scene mean."
    );
}
