//! Fig. 4 — Instant-NGP training-runtime breakdown on the three edge
//! devices: Step ③-① (embedding-grid interpolation, forward + backward)
//! dominates everywhere.

use instant3d_core::{PipelineWorkload, TrainConfig};
use instant3d_devices::{breakdown::StepBreakdown, perf::ITERS_TO_PSNR26, DeviceModel};

/// Prints the per-device step breakdown of the paper-scale Instant-NGP
/// workload.
pub fn run(_quick: bool) {
    crate::banner(
        "Fig. 4",
        "Instant-NGP training runtime breakdown on Jetson Nano / TX2 / Xavier NX",
    );
    let w = PipelineWorkload::paper_scale_instant_ngp(ITERS_TO_PSNR26);
    for device in DeviceModel::all_baselines() {
        let b = StepBreakdown::compute(&device, &w);
        println!("{}", b.to_ascii(40));
        println!(
            "  total training runtime: {:.1} s over {:.0} iterations\n",
            device.runtime(&w),
            w.iterations
        );
    }
    println!(
        "Paper: Step 3-1 (grid interpolation + its back-propagation) dominates\n\
         (~80%) on all devices; the bars above reproduce that share."
    );

    // Native cross-check: wall-clock profile of THIS repository's trainer.
    native_breakdown(_quick);
}

/// Profiles the Rust trainer itself with its always-on per-step
/// wall-clock timer — an independent, measured confirmation that grid
/// interpolation dominates even without any device model.
fn native_breakdown(quick: bool) {
    use instant3d_core::Trainer;
    use rand::SeedableRng;

    println!("\nNative cross-check (this repo's trainer, wall clock):");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1700);
    let ds = super::common::synthetic_dataset(0, quick, 1701);
    let cfg = crate::workloads::bench_config(TrainConfig::instant_ngp(), quick);
    let mut trainer = Trainer::new(cfg, &ds, &mut rng);
    let iters = if quick { 10 } else { 40 };
    for _ in 0..iters {
        trainer.step(&mut rng);
    }
    let timer = trainer.timer();
    print!("{}", timer.to_ascii(40));
    println!(
        "  grid-interpolation share (native): {:.1} %",
        timer.grid_interpolation_fraction() * 100.0
    );
}
