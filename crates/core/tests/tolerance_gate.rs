//! The end-to-end quality gate for **lossy-tier** kernel backends: a
//! full training run on the lossy backend must land within the backend's
//! declared PSNR/SSIM tolerance of the same-seeded scalar golden run.
//!
//! The per-kernel bounds live in the nerf crate's
//! `tolerance_differential.rs`; this suite closes the loop the ISSUE's
//! acceptance bar asks for — per-step rounding differences are
//! allowed to *accumulate* across optimizer updates, occupancy
//! refreshes and compositing, but the reconstruction the user sees must
//! stay within `max_psnr_drop_db` / `max_ssim_drop` of the strict
//! result. Every backend in `kernels::registered_lossy()` passes
//! through; a lossy backend cannot register without being gated here.

use instant3d_core::{kernels, BackendHandle, TrainConfig, Trainer};
use instant3d_scenes::{Dataset, SceneLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    SceneLibrary::synthetic_scene(0, 16, 4, &mut rng)
}

/// Trains `steps` iterations on `backend` with fixed seeds and returns
/// the held-out evaluation (PSNR/SSIM are computed by shared
/// `nerf::metrics` / `nerf::ssim` code, not by the backend under test).
fn train_and_eval(
    ds: &Dataset,
    backend: &BackendHandle,
    steps: usize,
) -> instant3d_core::eval::EvalResult {
    let mut cfg = TrainConfig::fast_preview();
    cfg.kernel_backend = backend.clone();
    let mut seed_rng = StdRng::seed_from_u64(3);
    let mut trainer = Trainer::new(cfg, ds, &mut seed_rng);
    let mut step_rng = StdRng::seed_from_u64(7);
    for _ in 0..steps {
        trainer.step(&mut step_rng);
    }
    trainer.evaluate(ds)
}

#[test]
fn lossy_backends_hold_declared_psnr_and_ssim_tolerance_end_to_end() {
    let ds = dataset(42);
    let steps = 40;
    let golden = train_and_eval(&ds, &kernels::scalar(), steps);
    // The golden run must have learned something, or the gate compares
    // noise to noise.
    assert!(
        golden.rgb_psnr > 10.0,
        "scalar golden run failed to train (PSNR {:.2} dB)",
        golden.rgb_psnr
    );
    for backend in kernels::registered_lossy() {
        let tol = backend
            .tier()
            .tolerance()
            .expect("lossy backends carry a declared tolerance");
        let lossy = train_and_eval(&ds, &backend, steps);
        let psnr_drop = golden.rgb_psnr - lossy.rgb_psnr;
        let ssim_drop = golden.rgb_ssim - lossy.rgb_ssim;
        assert!(
            psnr_drop <= tol.max_psnr_drop_db,
            "{backend}: RGB PSNR dropped {psnr_drop:.4} dB vs the scalar golden \
             ({:.3} → {:.3}), declared bound {} dB",
            golden.rgb_psnr,
            lossy.rgb_psnr,
            tol.max_psnr_drop_db
        );
        assert!(
            ssim_drop <= tol.max_ssim_drop,
            "{backend}: RGB SSIM dropped {ssim_drop:.6} vs the scalar golden \
             ({:.5} → {:.5}), declared bound {}",
            golden.rgb_ssim,
            lossy.rgb_ssim,
            tol.max_ssim_drop
        );
    }
}

#[test]
fn lossy_training_is_deterministic_across_runs_tolerance_tier() {
    // The lossy tier relaxes equality to the *scalar reference*, never
    // run-to-run reproducibility: two same-seeded training runs on a
    // lossy backend must produce bit-identical losses.
    let ds = dataset(18);
    for backend in kernels::registered_lossy() {
        let run = || {
            let mut cfg = TrainConfig::fast_preview();
            cfg.kernel_backend = backend.clone();
            let mut seed_rng = StdRng::seed_from_u64(11);
            let mut trainer = Trainer::new(cfg, &ds, &mut seed_rng);
            let mut step_rng = StdRng::seed_from_u64(13);
            (0..6)
                .map(|_| trainer.step(&mut step_rng).loss.to_bits())
                .collect::<Vec<u32>>()
        };
        assert_eq!(run(), run(), "{backend} same-seed training runs");
    }
}

#[test]
fn workload_stats_report_the_backend_tier() {
    // Config/stats plumbing: perf records must say which contract the
    // numbers were produced under.
    let ds = dataset(5);
    for (backend, want) in [(kernels::simd(), "strict"), (kernels::fast(), "lossy")] {
        let mut cfg = TrainConfig::fast_preview();
        cfg.kernel_backend = backend.clone();
        let mut seed_rng = StdRng::seed_from_u64(1);
        let mut trainer = Trainer::new(cfg, &ds, &mut seed_rng);
        let mut step_rng = StdRng::seed_from_u64(2);
        trainer.step(&mut step_rng);
        let stats = trainer.stats();
        assert_eq!(stats.backend, backend.name());
        assert_eq!(stats.tier, want, "{backend}");
    }
}
