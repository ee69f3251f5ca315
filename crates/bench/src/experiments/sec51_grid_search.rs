//! §5.1 — the operating-point grid search: the paper swept
//! `S_D : S_C ∈ {1:0.125, 1:0.25, 1:0.5, 1:0.75}` (and the analogous
//! frequency ratios) and picked the configuration that "compresses the
//! training cost most but also maintains the same reconstruction quality".
//!
//! This ablation retrains every sweep point and reports measured PSNR plus
//! modelled Xavier-NX runtime, then marks the selected operating point.

use super::common::{mean_of, run_on_dataset, synthetic_dataset};
use crate::table::Table;
use instant3d_core::{PipelineWorkload, TrainConfig};
use instant3d_devices::DeviceModel;

/// Runs the size-ratio and frequency-ratio sweeps.
pub fn run(quick: bool) {
    crate::banner(
        "§5.1",
        "Operating-point grid search over S_D:S_C and F_D:F_C",
    );
    let iters = crate::workloads::train_iters(quick);
    let scenes: Vec<usize> = if quick { vec![0] } else { vec![0, 4, 6] };
    let xavier = DeviceModel::xavier_nx();

    let measure = |cfg: &TrainConfig, seed: u64| -> (f32, f64) {
        let cfg = crate::workloads::bench_config(cfg.clone(), quick);
        let runs: Vec<_> = scenes
            .iter()
            .map(|&i| {
                let ds = synthetic_dataset(i, quick, 2500 + i as u64);
                run_on_dataset(&cfg, &ds, iters, 0, seed + i as u64)
            })
            .collect();
        let psnr = mean_of(&runs, |r| r.psnr);
        let runtime = xavier.runtime(&PipelineWorkload::paper_scale(&cfg, iters as f64));
        (psnr, runtime)
    };

    println!("Color-grid size sweep (density fixed at 1.0):");
    let mut t = Table::new(&[
        "S_D : S_C",
        "modelled runtime (s)",
        "measured PSNR (dB)",
        "note",
    ]);
    for (label, factor) in [
        ("1 : 0.125", 0.125),
        ("1 : 0.25", 0.25),
        ("1 : 0.5", 0.5),
        ("1 : 1", 1.0),
    ] {
        let cfg = TrainConfig::decoupled(1.0, factor, 1, 1);
        let (psnr, rt) = measure(&cfg, 2600);
        let note = if (factor - 0.25).abs() < 1e-9 {
            "<- paper's pick"
        } else {
            ""
        };
        t.row_owned(vec![
            label.to_string(),
            format!("{rt:.0}"),
            format!("{psnr:.1}"),
            note.to_string(),
        ]);
    }
    t.print();

    println!("\nColor update-frequency sweep (density updated every iteration):");
    let mut t = Table::new(&[
        "F_D : F_C",
        "modelled runtime (s)",
        "measured PSNR (dB)",
        "note",
    ]);
    for (label, every) in [("1 : 1", 1u32), ("1 : 0.5", 2), ("1 : 0.25", 4)] {
        let cfg = TrainConfig::decoupled(1.0, 0.25, 1, every);
        let (psnr, rt) = measure(&cfg, 2700);
        let note = if every == 2 { "<- paper's pick" } else { "" };
        t.row_owned(vec![
            label.to_string(),
            format!("{rt:.0}"),
            format!("{psnr:.1}"),
            note.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nThe paper selected S_D:S_C = 1:0.25 with F_D:F_C = 1:0.5 — the most\n\
         compressed point that keeps baseline PSNR. The sweep above should show\n\
         PSNR degrading once the color grid is squeezed past ~4x or updated\n\
         less than every other iteration."
    );
}
