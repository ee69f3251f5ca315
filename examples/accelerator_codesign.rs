//! Algorithm/hardware co-design walkthrough: train, record the hash-grid
//! address streams of two live training iterations with a
//! `TraceCollector` (the repository's one stream recorder), replay them
//! through the FRM and BUM units cycle by cycle — exactly as
//! `repro fig18_frm_bum_ablation` does — and see how the measured
//! microarchitectural factors feed the full-accelerator estimate.
//!
//! ```text
//! cargo run --release --example accelerator_codesign
//! ```

use instant3d::accel::{
    simulate_baseline_reads, simulate_bum, simulate_frm, Accelerator, BumConfig, FeatureSet,
};
use instant3d::core::{PipelineWorkload, TrainConfig, Trainer};
use instant3d::nerf::grid::GridBranch;
use instant3d::scenes::SceneLibrary;
use instant3d::trace::TraceCollector;
use rand::SeedableRng;

fn main() {
    // 1. Train on the batched engine.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let dataset = SceneLibrary::synthetic_scene(0, 32, 10, &mut rng);
    let mut trainer = Trainer::new(TrainConfig::instant3d(), &dataset, &mut rng);
    for _ in 0..20 {
        trainer.step(&mut rng);
    }

    // 2. Record two live iterations on the scalar reference step: the
    //    engine's bits, with every grid access reported in the paper's
    //    point-major order.
    let mut collector = TraceCollector::new(4_000_000);
    for it in 20..22 {
        collector.begin_iteration(it);
        trainer.step_scalar_observed(&mut rng, &mut collector);
    }
    assert_eq!(collector.dropped(), 0, "the capture must be complete");
    let trace = collector.into_trace();
    println!(
        "recorded {} grid accesses over 2 live iterations",
        trace.len()
    );

    // 3. Replay the density grid's streams through the FRM (8 banks,
    //    16-deep window, vs the baseline burst issue) and the BUM
    //    (16 entries) — the Fig. 12/13 measurements.
    let density = trainer.model().density_grid();
    let reads = trace.reads_flat(GridBranch::Density, density);
    let updates = trace.updates_level_major(GridBranch::Density);
    let frm = simulate_frm(&reads, 8, 16);
    let baseline = simulate_baseline_reads(&reads, 8, 8);
    let bum = simulate_bum(&updates, BumConfig::default());
    println!(
        "\nFRM on {} density reads:\n  baseline: {} cycles ({:.0}% bank utilisation)\n  \
         with FRM: {} cycles ({:.0}% utilisation) -> {:.2}x fewer read cycles",
        reads.len(),
        baseline.cycles,
        baseline.utilization * 100.0,
        frm.cycles,
        frm.utilization * 100.0,
        baseline.cycles as f64 / frm.cycles.max(1) as f64
    );
    println!(
        "\nBUM on {} gradient updates:\n  merged {:.0}% of updates; SRAM writes cut to {:.0}%",
        updates.len(),
        bum.merge_ratio() * 100.0,
        bum.write_ratio() * 100.0
    );

    // 4. Full-accelerator estimate with the measured factors.
    let accel = Accelerator {
        frm_utilization: frm.utilization,
        baseline_utilization: baseline.utilization,
        bum_write_ratio: bum.write_ratio(),
        ..Accelerator::default()
    };
    let w = PipelineWorkload::paper_scale_instant3d(256.0);
    let full = accel.simulate(&w, FeatureSet::full());
    let naive = accel.simulate(&w, FeatureSet::none());
    println!(
        "\npaper-scale estimate (256 iterations to PSNR 25):\n  \
         naive accelerator : {:.2} s\n  \
         full Instant-3D   : {:.2} s at {:.2} W ({:.0}x faster, bottleneck: {})",
        naive.seconds_total,
        full.seconds_total,
        full.avg_power_w,
        naive.seconds_total / full.seconds_total,
        full.bottleneck()
    );
}
