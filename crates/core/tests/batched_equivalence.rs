//! Golden tests gating the batched SoA engine against the scalar
//! point-at-a-time reference implementation.
//!
//! The batched engine is constructed so that per-point arithmetic and
//! per-parameter accumulation order match the scalar path exactly; these
//! tests pin that contract (and the acceptance tolerance of 1e-5 per
//! pixel) across topologies, workload counters, rendering, and rayon
//! worker counts — and they run the whole suite once per **registered
//! kernel backend** (`kernels::registered()` — scalar, simd,
//! checked, plus anything registered at runtime), so
//! every backend in the registry is gated against the same scalar
//! reference path on every run. A backend cannot register without
//! entering this gate — that is the point of the open API.

use instant3d_core::checkpoint;
use instant3d_core::render::render_view;
use instant3d_core::{kernels, BackendHandle, GridTopology, TrainConfig, Trainer};
use instant3d_scenes::{Dataset, SceneLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    SceneLibrary::synthetic_scene(0, 16, 4, &mut rng)
}

fn config(topology: GridTopology, backend: &BackendHandle) -> TrainConfig {
    let mut cfg = TrainConfig::fast_preview();
    cfg.topology = topology;
    cfg.kernel_backend = backend.clone();
    cfg
}

/// Runs `steps` iterations on two same-seeded trainers — one batched, one
/// scalar — and asserts losses, workload counters and rendered pixels
/// agree.
fn check_equivalence(topology: GridTopology, backend: &BackendHandle, steps: usize) {
    let ds = dataset(42);
    let mut rng_a = StdRng::seed_from_u64(7);
    let mut rng_b = StdRng::seed_from_u64(7);
    let mut seed_rng_a = StdRng::seed_from_u64(3);
    let mut seed_rng_b = StdRng::seed_from_u64(3);
    let mut batched = Trainer::new(config(topology, backend), &ds, &mut seed_rng_a);
    let mut scalar = Trainer::new(config(topology, backend), &ds, &mut seed_rng_b);

    for i in 0..steps {
        let sb = batched.step(&mut rng_a);
        let ss = scalar.step_scalar(&mut rng_b);
        assert_eq!(
            sb.rays, ss.rays,
            "{topology:?}/{backend} step {i}: ray count"
        );
        assert_eq!(
            sb.points, ss.points,
            "{topology:?}/{backend} step {i}: point count"
        );
        assert_eq!(
            sb.density_updated, ss.density_updated,
            "{topology:?}/{backend} step {i}: density schedule"
        );
        assert_eq!(
            sb.color_updated, ss.color_updated,
            "{topology:?}/{backend} step {i}: color schedule"
        );
        assert!(
            (sb.loss - ss.loss).abs() <= 1e-5 * (1.0 + ss.loss.abs()),
            "{topology:?}/{backend} step {i}: loss {} vs {}",
            sb.loss,
            ss.loss
        );
    }

    // Identical WorkloadStats counters — the accounting the accelerator
    // simulator consumes must not depend on the execution engine.
    assert_eq!(
        batched.stats(),
        scalar.stats(),
        "{topology:?}/{backend}: WorkloadStats"
    );
    assert_eq!(
        batched.stats().backend,
        backend.name(),
        "stats must report the backend name"
    );

    // Per-pixel agreement of the trained models within 1e-5.
    let view = &ds.test_views[0].camera;
    let (rgb_b, depth_b) = render_view(batched.model(), view, 24, ds.background, None);
    let (rgb_s, depth_s) = render_view(scalar.model(), view, 24, ds.background, None);
    for (pb, ps) in rgb_b.pixels().iter().zip(rgb_s.pixels()) {
        for k in 0..3 {
            assert!(
                (pb[k] - ps[k]).abs() <= 1e-5,
                "{topology:?}/{backend}: pixel {pb:?} vs {ps:?}"
            );
        }
    }
    for (db, ds_) in depth_b.depths().iter().zip(depth_s.depths()) {
        assert!(
            (db - ds_).abs() <= 1e-4,
            "{topology:?}/{backend}: depth {db} vs {ds_}"
        );
    }
}

#[test]
fn batched_matches_scalar_decoupled() {
    for backend in kernels::registered() {
        check_equivalence(GridTopology::Decoupled, &backend, 4);
    }
}

#[test]
fn batched_matches_scalar_coupled() {
    for backend in kernels::registered() {
        check_equivalence(GridTopology::Coupled, &backend, 4);
    }
}

#[test]
fn runtime_registered_backend_enters_the_golden_gate_and_reports_stats() {
    // The openness of the backend API, end to end inside the engine: a
    // backend defined outside the nerf crate (delegating its numerics to
    // the SIMD builtin) drives a full Trainer run through TrainConfig,
    // reports its name in WorkloadStats, and passes the same
    // batched-vs-scalar golden gate as the built-ins.
    #[derive(Debug)]
    struct DelegatingMock(kernels::SimdKernels);
    impl instant3d_core::Kernels for DelegatingMock {
        fn name(&self) -> &'static str {
            "mock-golden"
        }
        fn grid_encode_levels_chunk(
            &self,
            grid: &instant3d_nerf::HashGrid,
            levels: &[usize],
            pts: &[instant3d_nerf::Vec3],
            out: &mut [f32],
        ) {
            self.0.grid_encode_levels_chunk(grid, levels, pts, out);
        }
        fn grid_scatter_level(
            &self,
            grid: &instant3d_nerf::GridLayout,
            level: usize,
            level_grads: &mut [f32],
            pts: &[instant3d_nerf::Vec3],
            d_out: &[f32],
        ) {
            self.0
                .grid_scatter_level(grid, level, level_grads, pts, d_out);
        }
        fn mlp_forward_batch<'w>(
            &self,
            mlp: &instant3d_nerf::mlp::Mlp,
            n: usize,
            fill: &instant3d_nerf::mlp::RowFill<'_>,
            retain: bool,
            ws: &'w mut instant3d_nerf::mlp::MlpBatchWorkspace,
        ) -> &'w [f32] {
            self.0.mlp_forward_batch(mlp, n, fill, retain, ws)
        }
        fn mlp_backward_batch(
            &self,
            mlp: &instant3d_nerf::mlp::Mlp,
            d_output: &[f32],
            ws: &mut instant3d_nerf::mlp::MlpBatchWorkspace,
            grads: &mut instant3d_nerf::mlp::MlpGradients,
            d_input: &mut [f32],
        ) {
            self.0.mlp_backward_batch(mlp, d_output, ws, grads, d_input);
        }
        fn composite_ray(
            &self,
            t: &[f32],
            dt: &[f32],
            sigma: &[f32],
            rgb: &[instant3d_nerf::Vec3],
            background: instant3d_nerf::Vec3,
            cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
        ) -> (instant3d_nerf::render::RenderOutput, usize) {
            self.0.composite_ray(t, dt, sigma, rgb, background, cache)
        }
    }

    // Handed straight to `TrainConfig`, not registered: the process-wide
    // registry — and so the backend set every sibling test iterates —
    // stays exactly the built-ins whatever order the tests run in.
    let handle = BackendHandle::new(DelegatingMock(kernels::SimdKernels));
    check_equivalence(GridTopology::Decoupled, &handle, 3);
}

#[test]
fn batched_matches_scalar_through_occupancy_refresh() {
    // Long enough to cross an occupancy-grid refresh (every 16 iters in
    // fast_preview) and a skipped color iteration — per kernel backend.
    let ds = dataset(11);
    for backend in kernels::registered() {
        let cfg = config(GridTopology::Decoupled, &backend);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut seed_a = StdRng::seed_from_u64(9);
        let mut seed_b = StdRng::seed_from_u64(9);
        let mut batched = Trainer::new(cfg.clone(), &ds, &mut seed_a);
        let mut scalar = Trainer::new(cfg, &ds, &mut seed_b);
        for i in 0..20 {
            let sb = batched.step(&mut rng_a);
            let ss = scalar.step_scalar(&mut rng_b);
            assert_eq!(
                sb.points, ss.points,
                "{backend} step {i}: occupancy culling diverged"
            );
            assert!(
                (sb.loss - ss.loss).abs() <= 1e-5 * (1.0 + ss.loss.abs()),
                "{backend} step {i}: loss {} vs {}",
                sb.loss,
                ss.loss
            );
        }
        assert_eq!(batched.occupancy_fraction(), scalar.occupancy_fraction());
        assert_eq!(batched.stats(), scalar.stats());
    }
}

#[test]
fn train_report_is_thread_count_invariant() {
    // Same seed → same TrainReport, regardless of rayon worker count: all
    // parallel writes are disjoint and all reductions run in fixed order —
    // on both kernel backends.
    let ds = dataset(23);
    let run = |threads: usize, backend: &BackendHandle| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut seed = StdRng::seed_from_u64(1);
            let cfg = config(GridTopology::Decoupled, backend);
            let mut trainer = Trainer::new(cfg, &ds, &mut seed);
            let mut rng = StdRng::seed_from_u64(2);
            trainer.train_with_eval(8, 4, Some(&ds), &mut rng)
        })
    };
    for backend in kernels::registered() {
        let single = run(1, &backend);
        let multi = run(8, &backend);
        assert_eq!(
            single, multi,
            "{backend}: TrainReport must be bit-identical across thread counts"
        );
    }
}

#[test]
fn every_registered_backend_training_is_bit_identical_to_scalar_backend() {
    // The strongest cross-backend claim: batched trainers that differ
    // only in kernel backend produce bit-identical losses and
    // bit-identical rendered images, step for step — for every backend
    // in the registry.
    let ds = dataset(23);
    let run = |backend: &BackendHandle| {
        let mut seed = StdRng::seed_from_u64(1);
        let cfg = config(GridTopology::Decoupled, backend);
        let mut trainer = Trainer::new(cfg, &ds, &mut seed);
        let mut rng = StdRng::seed_from_u64(2);
        let losses: Vec<f32> = (0..10).map(|_| trainer.step(&mut rng).loss).collect();
        let view = &ds.test_views[0].camera;
        let (rgb, depth) = render_view(trainer.model(), view, 24, ds.background, None);
        let mut stats = *trainer.stats();
        stats.backend = ""; // normalise the provenance tag
        (losses, rgb, depth, stats)
    };
    let (la, ia, da, sa) = run(&kernels::scalar());
    let la_bits: Vec<u32> = la.iter().map(|v| v.to_bits()).collect();
    for backend in kernels::registered() {
        let (lb, ib, db, sb) = run(&backend);
        let lb_bits: Vec<u32> = lb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(la_bits, lb_bits, "{backend}: losses must match bitwise");
        assert_eq!(
            ia.pixels(),
            ib.pixels(),
            "{backend}: rendered pixels must match bitwise"
        );
        assert_eq!(
            da.depths(),
            db.depths(),
            "{backend}: depths must match bitwise"
        );
        assert_eq!(sa, sb, "{backend}: workload counters must match");
    }
}

#[test]
fn subset_occupancy_refresh_training_is_backend_and_worker_invariant() {
    // A run where amortized occupancy refreshes fire mid-run (every 3
    // iterations, probing a rotating quarter of the cells): losses,
    // rendered pixels, WorkloadStats — including the new occupancy
    // refresh counters — and the packed occupancy state must be
    // bit-identical across kernel backends and rayon worker counts.
    let ds = dataset(51);
    let run = |backend: &BackendHandle, threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut cfg = config(GridTopology::Decoupled, backend);
            cfg.occupancy_update_every = 3;
            cfg.occupancy_subset = 4;
            let mut seed = StdRng::seed_from_u64(13);
            let mut trainer = Trainer::new(cfg, &ds, &mut seed);
            let mut rng = StdRng::seed_from_u64(14);
            let losses: Vec<u32> = (0..12)
                .map(|_| trainer.step(&mut rng).loss.to_bits())
                .collect();
            let view = &ds.test_views[0].camera;
            let (rgb, _) = render_view(trainer.model(), view, 16, ds.background, None);
            let mut stats = *trainer.stats();
            stats.backend = ""; // normalise provenance
            let occ_bits = trainer.occupancy_fraction().to_bits();
            (losses, rgb.pixels().to_vec(), stats, occ_bits)
        })
    };
    let reference = run(&kernels::scalar(), 1);
    assert!(
        reference.2.occupancy_refreshes == 4 && reference.2.occupancy_probes > 0,
        "refreshes must actually have fired: {:?}",
        reference.2
    );
    for backend in kernels::registered() {
        for threads in [1usize, 4] {
            assert_eq!(run(&backend, threads), reference, "{backend} / t{threads}");
        }
    }
}

#[test]
fn subset_refresh_batched_matches_scalar_reference_path() {
    // The scalar point-at-a-time step and the batched step share the
    // occupancy subsystem; with amortized refreshes enabled mid-run they
    // must still agree on losses, culled point counts and stats.
    let ds = dataset(53);
    for backend in kernels::registered() {
        let mut cfg = config(GridTopology::Decoupled, &backend);
        cfg.occupancy_update_every = 2;
        cfg.occupancy_subset = 3;
        let mut seed_a = StdRng::seed_from_u64(15);
        let mut seed_b = StdRng::seed_from_u64(15);
        let mut batched = Trainer::new(cfg.clone(), &ds, &mut seed_a);
        let mut scalar = Trainer::new(cfg, &ds, &mut seed_b);
        let mut rng_a = StdRng::seed_from_u64(16);
        let mut rng_b = StdRng::seed_from_u64(16);
        for i in 0..10 {
            let sb = batched.step(&mut rng_a);
            let ss = scalar.step_scalar(&mut rng_b);
            assert_eq!(sb.points, ss.points, "{backend} step {i}: culling diverged");
            assert!(
                (sb.loss - ss.loss).abs() <= 1e-5 * (1.0 + ss.loss.abs()),
                "{backend} step {i}: loss {} vs {}",
                sb.loss,
                ss.loss
            );
        }
        assert_eq!(batched.occupancy_fraction(), scalar.occupancy_fraction());
        assert_eq!(batched.stats(), scalar.stats());
        assert!(batched.stats().occupancy_refreshes >= 4);
    }
}

/// The engine's per-ray half runs in chunks of whole rays holding at most
/// this many samples (`CHUNK_SAMPLES` in `instant3d_core::batch`).
const CHUNK_SAMPLES: usize = 4096;

#[test]
fn multi_chunk_batches_match_the_scalar_reference_on_every_backend_and_worker_count() {
    // Batches of three or more chunks, the last one partial, whose rays
    // keep unequal sample counts once occupancy culling starts (a refresh
    // every second step, at a threshold that culls from the first one):
    // losses, workload counters, occupancy and every model parameter must
    // have the scalar reference step's bits, on every backend and worker
    // count.
    const STEPS: usize = 6;
    let ds = dataset(61);
    let run = |backend: &BackendHandle, threads: usize, reference: bool| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut cfg = config(GridTopology::Decoupled, backend);
            cfg.rays_per_batch = 640;
            cfg.samples_per_ray = 32;
            cfg.occupancy_update_every = 2;
            cfg.occupancy_threshold = 1.0;
            let mut trainer = Trainer::new(cfg, &ds, &mut StdRng::seed_from_u64(17));
            let mut rng = StdRng::seed_from_u64(18);
            let steps: Vec<(u32, usize)> = (0..STEPS)
                .map(|_| {
                    let s = if reference {
                        trainer.step_scalar(&mut rng)
                    } else {
                        trainer.step(&mut rng)
                    };
                    (s.loss.to_bits(), s.points)
                })
                .collect();
            let mut stats = *trainer.stats();
            stats.backend = ""; // normalise provenance
            let occupancy = trainer.occupancy_fraction().to_bits();
            let params = checkpoint::save(trainer.model());
            (steps, stats, occupancy, params)
        })
    };
    let reference = run(&kernels::scalar(), 1, true);
    let (steps, stats, occupancy, _) = &reference;
    assert!(
        steps.iter().all(|&(_, points)| points > 2 * CHUNK_SAMPLES),
        "every batch must span three chunks: {steps:?}"
    );
    assert!(
        steps.iter().any(|&(_, points)| points % CHUNK_SAMPLES != 0),
        "some batch must end in a partial chunk: {steps:?}"
    );
    assert!(stats.occupancy_refreshes >= 2, "{stats:?}");
    assert!(
        f32::from_bits(*occupancy) < 1.0,
        "occupancy culling must shorten some rays"
    );
    for backend in kernels::registered() {
        for threads in [1, 2, 4, 8] {
            assert!(
                run(&backend, threads, false) == reference,
                "{backend} / {threads} workers: the engine left the scalar reference's bits"
            );
        }
    }
}

#[test]
fn batched_is_deterministic_across_runs() {
    let ds = dataset(31);
    let run = || {
        let mut seed = StdRng::seed_from_u64(4);
        let mut trainer = Trainer::new(TrainConfig::fast_preview(), &ds, &mut seed);
        let mut rng = StdRng::seed_from_u64(6);
        (0..6)
            .map(|_| trainer.step(&mut rng).loss)
            .collect::<Vec<f32>>()
    };
    assert_eq!(run(), run());
}
