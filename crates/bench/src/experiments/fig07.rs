//! Fig. 7 — runtime breakdown of the Instant-3D *algorithm* on Xavier NX:
//! the algorithm alone accelerates Instant-NGP by ~17 %, but Step ③-①
//! still dominates (~80 %), motivating the dedicated accelerator.

use instant3d_core::PipelineWorkload;
use instant3d_devices::{breakdown::StepBreakdown, perf::ITERS_TO_PSNR26, DeviceModel};

/// Prints the Xavier-NX breakdown under the Instant-3D algorithm and the
/// algorithm-only speedup.
pub fn run(_quick: bool) {
    crate::banner(
        "Fig. 7",
        "Instant-3D algorithm runtime breakdown on Xavier NX (still grid-bound)",
    );
    let xavier = DeviceModel::xavier_nx();
    let ngp = PipelineWorkload::paper_scale_instant_ngp(ITERS_TO_PSNR26);
    let i3d = PipelineWorkload::paper_scale_instant3d(ITERS_TO_PSNR26);
    let b = StepBreakdown::compute(&xavier, &i3d);
    println!("{}", b.to_ascii(40));
    let t_ngp = xavier.runtime(&ngp);
    let t_i3d = xavier.runtime(&i3d);
    println!(
        "Instant-NGP on Xavier NX : {t_ngp:.1} s\n\
         Instant-3D algo on Xavier: {t_i3d:.1} s  ({:.1}% faster; paper: 17.0% average)\n\
         grid-interpolation share : {:.1}% (paper: ~80%)",
        (1.0 - t_i3d / t_ngp) * 100.0,
        b.grid_interpolation_fraction() * 100.0
    );
}
