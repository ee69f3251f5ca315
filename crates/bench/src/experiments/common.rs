//! Shared plumbing for the measured (training-based) experiments.

use instant3d_core::{TrainConfig, Trainer};
use instant3d_scenes::{Dataset, SceneLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of training one configuration on one scene.
#[derive(Debug, Clone)]
pub struct SceneRun {
    /// Scene name.
    pub scene: String,
    /// Final test RGB PSNR (dB).
    pub psnr: f32,
    /// Final test depth PSNR (dB).
    pub depth_psnr: f32,
    /// Iterations trained.
    pub iterations: u64,
    /// Measured mean queried points per iteration.
    pub points_per_iter: f64,
    /// First evaluated iteration reaching ≥ 25 dB RGB PSNR, if any.
    pub iters_to_25db: Option<u64>,
    /// PSNR trajectory `(iteration, rgb, depth)` at the eval cadence.
    pub history: Vec<(u64, f32, f32)>,
}

/// Builds the synthetic dataset for `scene_idx` at the quick/full shape.
pub fn synthetic_dataset(scene_idx: usize, quick: bool, seed: u64) -> Dataset {
    let (res, views) = crate::workloads::dataset_shape(quick);
    let mut rng = StdRng::seed_from_u64(seed);
    SceneLibrary::synthetic_scene(scene_idx, res, views, &mut rng)
}

/// Trains `cfg` on `ds` for `iters` iterations, evaluating every
/// `eval_every` (0 = end only). Deterministic per `seed`.
pub fn run_on_dataset(
    cfg: &TrainConfig,
    ds: &Dataset,
    iters: u64,
    eval_every: u64,
    seed: u64,
) -> SceneRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trainer = Trainer::new(cfg.clone(), ds, &mut rng);
    let report = trainer.train_with_eval(iters, eval_every, Some(ds), &mut rng);
    let history: Vec<(u64, f32, f32)> = report
        .psnr_history
        .iter()
        .map(|p| (p.iteration, p.rgb_psnr, p.depth_psnr))
        .collect();
    let iters_to_25db = history
        .iter()
        .find(|(_, rgb, _)| *rgb >= 25.0)
        .map(|(i, _, _)| *i);
    SceneRun {
        scene: ds.name.clone(),
        psnr: report.final_psnr,
        depth_psnr: report.final_depth_psnr,
        iterations: report.iterations,
        points_per_iter: report.stats.points_per_iter(),
        iters_to_25db,
        history,
    }
}

/// Mean over an extractor, ignoring NaNs.
pub fn mean_of<F: Fn(&SceneRun) -> f32>(runs: &[SceneRun], f: F) -> f32 {
    let vals: Vec<f32> = runs.iter().map(&f).filter(|v| v.is_finite()).collect();
    if vals.is_empty() {
        f32::NAN
    } else {
        vals.iter().sum::<f32>() / vals.len() as f32
    }
}

/// Trains `cfg` on `ds`, capturing grid-access traces on the listed
/// iterations (0-based). Returns the trace and the trainer (whose model
/// provides grid-level metadata for flat addressing).
///
/// Capture iterations run the scalar reference step, the others the
/// engine; the two are bit-identical on every backend (pinned by the
/// golden suites), so mixing them inside one run is sound. The reference
/// step interleaves reads and writes ray by ray, so a collector that hits
/// `capacity` truncates by ray (whole early rays, both phases), not by
/// phase.
pub fn capture_trace(
    cfg: &instant3d_core::TrainConfig,
    ds: &Dataset,
    capture_iters: &[u64],
    budget: u64,
    capacity: usize,
    seed: u64,
) -> (instant3d_trace::Trace, Trainer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trainer = Trainer::new(cfg.clone(), ds, &mut rng);
    let mut collector = instant3d_trace::TraceCollector::new(capacity);
    for it in 0..budget {
        if capture_iters.contains(&it) {
            collector.begin_iteration(it as u32);
            trainer.step_scalar_observed(&mut rng, &mut collector);
        } else {
            trainer.step(&mut rng);
        }
    }
    (collector.into_trace(), trainer)
}

/// Like [`capture_trace`], but uses a fresh collector per captured
/// iteration so late captures cannot be starved by the capacity cap.
/// Returns `(iteration, trace)` pairs in capture order.
pub fn capture_traces_per_iter(
    cfg: &instant3d_core::TrainConfig,
    ds: &Dataset,
    capture_iters: &[u64],
    budget: u64,
    capacity_per_iter: usize,
    seed: u64,
) -> (Vec<(u64, instant3d_trace::Trace)>, Trainer) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trainer = Trainer::new(cfg.clone(), ds, &mut rng);
    let mut out = Vec::with_capacity(capture_iters.len());
    for it in 0..budget {
        if capture_iters.contains(&it) {
            let mut collector = instant3d_trace::TraceCollector::new(capacity_per_iter);
            collector.begin_iteration(it as u32);
            trainer.step_scalar_observed(&mut rng, &mut collector);
            out.push((it, collector.into_trace()));
        } else {
            trainer.step(&mut rng);
        }
    }
    (out, trainer)
}
