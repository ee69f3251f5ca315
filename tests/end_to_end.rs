//! Cross-crate integration: the full pipeline from procedural dataset
//! through training, trace capture, and hardware simulation.

use instant3d::accel::{
    simulate_baseline_reads, simulate_bum, simulate_frm, Accelerator, BumConfig, FeatureSet,
};
use instant3d::core::{GridTopology, PipelineWorkload, TrainConfig, Trainer};
use instant3d::nerf::grid::{AccessPhase, GridBranch};
use instant3d::scenes::SceneLibrary;
use instant3d::trace::TraceCollector;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_dataset(seed: u64) -> instant3d::scenes::Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    SceneLibrary::synthetic_scene(0, 16, 4, &mut rng)
}

#[test]
fn training_improves_reconstruction_quality() {
    let ds = tiny_dataset(1);
    let mut rng = StdRng::seed_from_u64(2);
    let mut trainer = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
    let before = trainer.evaluate(&ds).rgb_psnr;
    for _ in 0..80 {
        trainer.step(&mut rng);
    }
    let after = trainer.evaluate(&ds).rgb_psnr;
    assert!(
        after > before + 3.0,
        "PSNR should improve substantially: {before:.2} -> {after:.2}"
    );
}

#[test]
fn both_topologies_converge_to_similar_quality() {
    // The paper's central algorithmic claim: the decomposed model matches
    // the coupled baseline's quality.
    let ds = tiny_dataset(3);
    let mut psnrs = Vec::new();
    for topo in [GridTopology::Coupled, GridTopology::Decoupled] {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = topo;
        if topo == GridTopology::Decoupled {
            cfg.color_size_factor = 0.25;
            cfg.color_update_every = 2;
        }
        let mut trainer = Trainer::new(cfg, &ds, &mut rng);
        for _ in 0..120 {
            trainer.step(&mut rng);
        }
        psnrs.push(trainer.evaluate(&ds).rgb_psnr);
    }
    let diff = (psnrs[0] - psnrs[1]).abs();
    assert!(
        diff < 3.0,
        "coupled {:.2} dB vs decoupled {:.2} dB should be comparable",
        psnrs[0],
        psnrs[1]
    );
}

#[test]
fn captured_trace_drives_hardware_simulators() {
    let ds = tiny_dataset(5);
    let mut rng = StdRng::seed_from_u64(6);
    let mut trainer = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
    for _ in 0..5 {
        trainer.step(&mut rng);
    }
    let mut tc = TraceCollector::new(500_000);
    tc.begin_iteration(5);
    trainer.step_scalar_observed(&mut rng, &mut tc);
    let trace = tc.into_trace();
    assert!(!trace.is_empty(), "trace should capture grid accesses");

    // FF stream → FRM: must beat the baseline issue on the real pattern.
    let ff = trace.reads_flat(GridBranch::Density, trainer.model().density_grid());
    assert!(!ff.is_empty());
    let frm = simulate_frm(&ff, 8, 16);
    let base = simulate_baseline_reads(&ff, 8, 8);
    assert!(frm.cycles <= base.cycles);
    assert!(frm.utilization > base.utilization);

    // BP stream → BUM: real gradient scatters must show mergeable reuse.
    let bp = trace.bp_stream_level_major();
    let bum = simulate_bum(&bp, BumConfig::default());
    assert!(
        bum.merge_ratio() > 0.05,
        "real BP traffic should have mergeable reuse, got {:.3}",
        bum.merge_ratio()
    );
}

#[test]
fn trace_read_counts_match_workload_accounting() {
    let ds = tiny_dataset(7);
    let mut rng = StdRng::seed_from_u64(8);
    let mut trainer = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);
    let mut tc = TraceCollector::new(2_000_000);
    tc.begin_iteration(0);
    trainer.step_scalar_observed(&mut rng, &mut tc);
    let trace = tc.into_trace();
    let stats = trainer.stats();
    let ff_records = trace.phase(AccessPhase::FeedForward).count() as u64;
    let bp_records = trace.phase(AccessPhase::BackProp).count() as u64;
    assert_eq!(
        ff_records,
        stats.grid_reads_ff(),
        "FF accounting must agree"
    );
    assert_eq!(
        bp_records,
        stats.grid_writes_bp(),
        "BP accounting must agree"
    );
}

#[test]
fn accelerator_beats_every_baseline_device() {
    let w_ngp = PipelineWorkload::paper_scale_instant_ngp(400.0);
    let w_i3d = PipelineWorkload::paper_scale_instant3d(400.0);
    let accel_t = Accelerator::default()
        .simulate(&w_i3d, FeatureSet::full())
        .seconds_total;
    for device in instant3d::devices::DeviceModel::all_baselines() {
        let device_t = device.runtime(&w_ngp);
        let speedup = device_t / accel_t;
        assert!(
            (20.0..=400.0).contains(&speedup),
            "{} speedup {speedup:.0}x outside the paper's 41-248x band (with margin)",
            device.spec().name
        );
    }
}

#[test]
fn workload_from_real_training_is_consistent() {
    let ds = tiny_dataset(9);
    let mut rng = StdRng::seed_from_u64(10);
    let cfg = TrainConfig::fast_preview();
    let mut trainer = Trainer::new(cfg.clone(), &ds, &mut rng);
    for _ in 0..4 {
        trainer.step(&mut rng);
    }
    let w = PipelineWorkload::from_stats(
        trainer.stats(),
        cfg.grid.levels as u32,
        cfg.density_grid_config().table_bytes_fp16(),
        cfg.color_grid_config().table_bytes_fp16(),
        4,
    );
    assert_eq!(w.iterations, 4.0);
    assert!(w.points_per_iter > 0.0);
    // Reads per point = 8 corners × levels × 2 branches (decoupled).
    let expect = w.points_per_iter * 8.0 * cfg.grid.levels as f64 * 2.0;
    assert!((w.grid_reads_ff_per_iter - expect).abs() < 1.0);
}
