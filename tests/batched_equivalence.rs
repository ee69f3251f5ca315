//! Cross-crate bridge between the two access observers: the
//! `instrumented` kernel backend, which records the batched engine's real
//! level-major traffic under `Trainer::step`, and a `TraceCollector` fed
//! by the scalar reference step (`Trainer::step_scalar_observed`), which
//! captures the paper's point-major order.
//!
//! On same-seeded trainers the two must describe the same workload: every
//! grid's reads are equal as multisets, and every grid's updates are equal
//! **in order** to the trace's `bp_stream_level_major()` — which is what
//! makes that reordering a model of the engine rather than a convention.
//! The one designed difference is the occupancy refresh: its level-subset
//! encodes go through the kernel backend, so `instrumented` records them,
//! while a trainer-level observer never sees them.

use instant3d::core::{GridTopology, TrainConfig, Trainer};
use instant3d::nerf::grid::{AccessPhase, GridBranch, HashGrid};
use instant3d::nerf::kernels::{BackendHandle, InstrumentedKernels, RecordedStreams};
use instant3d::scenes::SceneLibrary;
use instant3d::trace::record::Trace;
use instant3d::trace::TraceCollector;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Both views of `iters` training steps from identical seeds.
struct Bridge {
    /// What the `instrumented` backend recorded under `Trainer::step`.
    engine: RecordedStreams,
    /// What a `TraceCollector` captured under `step_scalar_observed`.
    reference: Trace,
    /// The reference trainer (grid metadata; its stats equal the engine's).
    trainer: Trainer,
}

fn bridge(
    topology: GridTopology,
    iters: u32,
    occupancy_update_every: u32,
    occupancy_subset: u32,
) -> Bridge {
    // Each trainer gets a private instrumented backend, so the workload
    // accounting (which names the backend) is comparable across the two.
    let new_trainer = || {
        let backend = BackendHandle::new(InstrumentedKernels::new());
        let mut rng = StdRng::seed_from_u64(2);
        let ds = SceneLibrary::synthetic_scene(0, 16, 4, &mut rng);
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = topology;
        cfg.color_update_every = 2; // skipped color scatters must agree too
        cfg.occupancy_update_every = occupancy_update_every;
        cfg.occupancy_subset = occupancy_subset;
        cfg.kernel_backend = backend.clone();
        let trainer = Trainer::new(cfg, &ds, &mut StdRng::seed_from_u64(3));
        (trainer, backend)
    };

    let (mut engine_trainer, backend) = new_trainer();
    let rec = backend.downcast_ref::<InstrumentedKernels>().unwrap();
    let mut step_rng = StdRng::seed_from_u64(4);
    rec.start_recording();
    for _ in 0..iters {
        engine_trainer.step(&mut step_rng);
    }
    rec.stop_recording();
    let engine = rec.take_streams();

    let (mut trainer, _) = new_trainer();
    let mut step_rng = StdRng::seed_from_u64(4);
    let mut tc = TraceCollector::new(4_000_000);
    for i in 0..iters {
        tc.begin_iteration(i);
        trainer.step_scalar_observed(&mut step_rng, &mut tc);
    }
    assert_eq!(tc.dropped(), 0, "the reference capture must be complete");

    assert_eq!(
        engine_trainer.stats(),
        trainer.stats(),
        "{topology:?}: workload accounting must agree"
    );
    Bridge {
        engine,
        reference: tc.into_trace(),
        trainer,
    }
}

/// The model's grids with the branch a trainer-level observer tags them.
fn grids(trainer: &Trainer) -> Vec<(GridBranch, &HashGrid)> {
    let model = trainer.model();
    std::iter::once((GridBranch::Density, model.density_grid()))
        .chain(model.color_grid().map(|g| (GridBranch::Color, g)))
        .collect()
}

/// The reference trace's reads of one grid as flat entry addresses
/// (`entry_offset(level) + addr`, the form `instrumented` records), in
/// the reference's point-major capture order.
fn reference_reads(trace: &Trace, branch: GridBranch, grid: &HashGrid) -> Vec<u32> {
    trace
        .phase(AccessPhase::FeedForward)
        .filter(|r| r.branch == branch)
        .map(|r| grid.entry_offset(r.level as usize) + r.addr)
        .collect()
}

/// The reference trace's level-major update stream of one grid as
/// `(level << 32) | addr` keys (the color branch's tag bit masked off).
fn reference_updates(trace: &Trace, branch: GridBranch) -> Vec<u64> {
    const COLOR_TAG: u64 = 1 << 60;
    let want_color = branch == GridBranch::Color;
    trace
        .bp_stream_level_major()
        .into_iter()
        .filter(|k| (k & COLOR_TAG != 0) == want_color)
        .map(|k| k & !COLOR_TAG)
        .collect()
}

#[test]
fn engine_reads_equal_reference_trace_as_multisets() {
    // No occupancy refresh inside the window (update_every = 16 > 3).
    for topology in [GridTopology::Coupled, GridTopology::Decoupled] {
        let b = bridge(topology, 3, 16, 1);
        assert_eq!(b.trainer.stats().occupancy_refreshes, 0);
        for (branch, grid) in grids(&b.trainer) {
            let mut engine = b.engine.reads_flat_for(grid);
            let mut reference = reference_reads(&b.reference, branch, grid);
            assert!(
                !engine.is_empty(),
                "{topology:?}/{branch:?}: reads recorded"
            );
            // Level-major (engine) vs point-major (reference) differ by
            // design; flat addresses keep levels apart, so sorted equality
            // is multiset equality per grid and level.
            assert_ne!(engine, reference, "{topology:?}/{branch:?}: orders");
            engine.sort_unstable();
            reference.sort_unstable();
            assert_eq!(
                engine, reference,
                "{topology:?}/{branch:?}: read multisets must be identical"
            );
        }
        assert_eq!(
            b.engine.len(),
            b.reference.len(),
            "{topology:?}: nothing recorded beyond the model's grids"
        );
    }
}

#[test]
fn engine_updates_equal_reference_level_major_stream_in_order() {
    for topology in [GridTopology::Coupled, GridTopology::Decoupled] {
        let b = bridge(topology, 3, 16, 1);
        for (branch, grid) in grids(&b.trainer) {
            let engine = b.engine.updates_for(grid);
            assert!(
                !engine.is_empty(),
                "{topology:?}/{branch:?}: updates recorded"
            );
            assert_eq!(
                engine,
                reference_updates(&b.reference, branch),
                "{topology:?}/{branch:?}: bp_stream_level_major() must be the engine's scatter order"
            );
        }
    }
}

#[test]
fn occupancy_refresh_reads_are_visible_only_to_the_instrumented_backend() {
    // Refreshes fire inside the window (every 2 iterations, rotating cell
    // subsets). They flip the bits that cull later samples, so updates
    // only stay equal in order if both trainers see identical occupancy
    // after every refresh; the refresh's own density-grid encodes are the
    // engine-only surplus.
    let b = bridge(GridTopology::Decoupled, 4, 2, 2);
    let stats = b.trainer.stats();
    assert!(stats.occupancy_refreshes >= 2, "refreshes must have fired");
    for (branch, grid) in grids(&b.trainer) {
        assert_eq!(
            b.engine.updates_for(grid),
            reference_updates(&b.reference, branch),
            "{branch:?}: update order through refreshes"
        );
        let engine_reads = b.engine.reads_flat_for(grid).len() as u64;
        let reference_reads = reference_reads(&b.reference, branch, grid).len() as u64;
        let refresh_reads = match branch {
            GridBranch::Density => stats.occupancy_reads_ff,
            GridBranch::Color => 0,
        };
        assert_eq!(
            engine_reads,
            reference_reads + refresh_reads,
            "{branch:?}: the engine records exactly the refresh's reads on top"
        );
    }
    assert!(stats.occupancy_reads_ff > 0);
}
