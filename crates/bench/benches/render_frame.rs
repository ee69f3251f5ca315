//! End-to-end frame-rendering benches for the tile-streaming renderer
//! (`instant3d_core::render`): the monolithic row-chunk reference vs the
//! tile scheduler at full budget, a budgeted progressive frame (the
//! serve-preview shape), and occupancy-guided vs uniform eval sampling.
//!
//! Bench IDs are stamped `…/{backend}/tile{S}/t{N}` (backend registry
//! name, tile size, rayon worker count) following the `grid_interp` /
//! `occupancy_refresh` convention, so recorded numbers always say which
//! kernels, tiling, and worker count produced them. The full-budget tiled
//! arm reuses one scheduler + workspace pool across iterations, so it
//! measures the zero-steady-state-allocation path the golden tests pin.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use instant3d_core::eval::{evaluate, evaluate_with, render_model_view_monolithic};
use instant3d_core::pool::WorkspacePool;
use instant3d_core::render::{FrameBudget, FrameScheduler, RenderOptions, DEFAULT_TILE_SIZE};
use instant3d_core::{kernels, BackendHandle, TrainConfig, Trainer};
use instant3d_scenes::{Dataset, SceneLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frame resolution (test-view cameras are square at the scene size).
const RESOLUTION: u32 = 48;
const SAMPLES_PER_RAY: usize = 24;
/// Enough training that occupancy has culled real empty space and frames
/// have content, cheap enough for `--quick` CI smoke runs.
const TRAIN_STEPS: usize = 24;

/// `backend/tile/threads` suffix for bench IDs.
fn stamp(backend: &BackendHandle, tile: u32) -> String {
    format!("{backend}/tile{tile}/t{}", rayon::current_num_threads())
}

fn fixture(backend: &BackendHandle) -> (Dataset, Trainer) {
    let mut rng = StdRng::seed_from_u64(17);
    let ds = SceneLibrary::synthetic_scene(0, RESOLUTION, 4, &mut rng);
    let mut cfg = TrainConfig::fast_preview();
    cfg.kernel_backend = backend.clone();
    let mut trainer = Trainer::new(cfg, &ds, &mut rng);
    let mut train_rng = StdRng::seed_from_u64(23);
    for _ in 0..TRAIN_STEPS {
        trainer.step(&mut train_rng);
    }
    (ds, trainer)
}

/// Monolithic row-chunk reference vs the tile scheduler at full budget,
/// plus a tiles-budgeted progressive frame (the fleet-preview shape).
fn bench_render_frame(c: &mut Criterion) {
    for backend in kernels::registered() {
        let (ds, trainer) = fixture(&backend);
        let cam = ds.test_views[0].camera;
        let model = trainer.model();

        c.bench_function(
            &format!(
                "render_frame/monolithic/{backend}/t{}",
                rayon::current_num_threads()
            ),
            |b| {
                b.iter(|| {
                    black_box(render_model_view_monolithic(
                        model,
                        &cam,
                        SAMPLES_PER_RAY,
                        ds.background,
                    ))
                })
            },
        );

        for tile in [8u32, DEFAULT_TILE_SIZE] {
            let pool = WorkspacePool::new();
            let mut sched = FrameScheduler::new(
                cam,
                RenderOptions {
                    samples_per_ray: SAMPLES_PER_RAY,
                    background: ds.background,
                    tile_size: tile,
                },
            );
            c.bench_function(
                &format!("render_frame/tiled_full/{}", stamp(&backend, tile)),
                |b| {
                    b.iter(|| {
                        sched.invalidate_all();
                        let p = sched.render_frame(model, None, FrameBudget::full(), &pool);
                        black_box(p.tiles_rendered)
                    })
                },
            );
            // Budgeted: 4 tiles per frame — the per-slice preview cost a
            // fleet pays, including the cache/invalidation bookkeeping.
            c.bench_function(
                &format!("render_frame/budget4/{}", stamp(&backend, tile)),
                |b| {
                    b.iter(|| {
                        sched.invalidate_all();
                        let p = sched.render_frame(model, None, FrameBudget::tiles(4), &pool);
                        black_box(p.tiles_rendered)
                    })
                },
            );
        }
    }
}

/// Uniform eval marching vs occupancy-guided sampling on the trained
/// grid: the guided arm must be measurably faster — the culled points do
/// not hit the encode/MLP pipeline at all.
fn bench_occupancy_guided_eval(c: &mut Criterion) {
    for backend in kernels::registered() {
        let (ds, trainer) = fixture(&backend);
        let model = trainer.model();
        let t = rayon::current_num_threads();
        c.bench_function(&format!("eval/uniform/{backend}/t{t}"), |b| {
            b.iter(|| black_box(evaluate(model, &ds, SAMPLES_PER_RAY).rgb_psnr))
        });
        let occ = trainer
            .occupancy_grid()
            .expect("fast_preview enables occupancy");
        c.bench_function(&format!("eval/occupancy/{backend}/t{t}"), |b| {
            b.iter(|| black_box(evaluate_with(model, &ds, SAMPLES_PER_RAY, Some(occ)).rgb_psnr))
        });
    }
}

criterion_group!(benches, bench_render_frame, bench_occupancy_guided_eval);
criterion_main!(benches);
