//! Fig. 17 — the speedup decomposition over Instant-NGP on Xavier NX:
//! algorithm × (FRM + BUM) × multi-core-fusion scheduling ≈ 45× total.

use crate::table::Table;
use instant3d_accel::Accelerator;
use instant3d_core::PipelineWorkload;
use instant3d_devices::{perf::ITERS_TO_PSNR26, DeviceModel};

/// Prints the staged-technique waterfall and the cumulative speedup over
/// the Xavier NX baseline.
pub fn run(_quick: bool) {
    crate::banner(
        "Fig. 17",
        "Speedup decomposition over Instant-NGP on Xavier NX (log-scale waterfall)",
    );
    let accel = Accelerator::default();
    let stages = accel.speedup_waterfall(ITERS_TO_PSNR26);
    let xavier = DeviceModel::xavier_nx()
        .runtime(&PipelineWorkload::paper_scale_instant_ngp(ITERS_TO_PSNR26));

    let mut t = Table::new(&[
        "stage",
        "runtime (s)",
        "x vs prev stage",
        "cumulative x vs Xavier NX",
        "bottleneck",
    ]);
    let mut prev = stages[0].1.seconds_total;
    for (name, r) in &stages {
        t.row_owned(vec![
            name.clone(),
            format!("{:.2}", r.seconds_total),
            format!("{:.2}", prev / r.seconds_total),
            format!("{:.1}", xavier / r.seconds_total),
            r.bottleneck().to_string(),
        ]);
        prev = r.seconds_total;
    }
    t.print();

    let total = xavier / stages[3].1.seconds_total;
    println!(
        "\nXavier NX Instant-NGP baseline: {xavier:.1} s; full Instant-3D: {:.2} s\n\
         total speedup: {total:.1}x (paper: 45x = 2.7 x 3.1 x 5.3).\n\
         Note: our stage attribution concentrates more of the gain in the fusion\n\
         stage (SRAM residency flips there); the cumulative product matches.",
        stages[3].1.seconds_total
    );
}
