//! Cross-crate bridge between the batched engine and the one recorder of
//! grid address streams: a `TraceCollector` fed by the scalar reference
//! step (`Trainer::step_scalar_observed`), which captures the paper's
//! point-major order and feeds every FRM/BUM replay.
//!
//! The engine is observed through a test-local recording backend that
//! runs the public observed scalar bodies and records what they report.
//! Inside a one-worker pool the engine's encode is one chunk and its
//! per-level scatter joins run in level order, so the recording is the
//! engine's own one-worker schedule; the engine has no recording mode.
//!
//! On same-seeded trainers the two must describe the same workload: every
//! grid's reads are equal as multisets, and every grid's updates are equal
//! **in order** to the trace's `updates_level_major` — which is what makes
//! that reordering a model of the engine rather than a convention. The one
//! designed difference is the occupancy refresh: its level-subset encodes
//! go through the kernel backend, so the engine's recorder sees them,
//! while a trainer-level observer never does.

use instant3d::core::{GridTopology, TrainConfig, Trainer};
use instant3d::nerf::grid::{AccessPhase, GridAccessObserver, GridBranch, GridLayout, HashGrid};
use instant3d::nerf::kernels::{BackendHandle, Kernels, SimdKernels};
use instant3d::nerf::math::Vec3;
use instant3d::nerf::mlp::{Mlp, MlpBatchWorkspace, MlpGradients, RowFill};
use instant3d::nerf::render::RenderOutput;
use instant3d::scenes::SceneLibrary;
use instant3d::trace::record::Trace;
use instant3d::trace::TraceCollector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

/// `(levels, params)`: tells the density and color grids apart (the
/// color table is a quarter of the density table).
type Shape = (usize, usize);

fn shape(grid: &GridLayout) -> Shape {
    (grid.levels().len(), grid.num_params())
}

/// Every grid access the engine's kernels made, tagged with the grid.
#[derive(Debug, Default)]
struct Streams {
    /// Flat entry addresses, `entry_offset(level) + addr`.
    reads: Vec<(Shape, u32)>,
    /// `(level << 32) | addr` keys.
    updates: Vec<(Shape, u64)>,
}

impl Streams {
    fn of<T: Copy>(stream: &[(Shape, T)], grid: &HashGrid) -> Vec<T> {
        let s = shape(grid);
        stream
            .iter()
            .filter(|(g, _)| *g == s)
            .map(|&(_, a)| a)
            .collect()
    }
}

struct Sink<'a> {
    grid: &'a GridLayout,
    streams: &'a mut Streams,
}

impl GridAccessObserver for Sink<'_> {
    fn on_access(&mut self, phase: AccessPhase, level: u32, _corner: u8, addr: u32) {
        let g = shape(self.grid);
        match phase {
            AccessPhase::FeedForward => {
                let flat = self.grid.entry_offset(level as usize) + addr;
                self.streams.reads.push((g, flat));
            }
            AccessPhase::BackProp => {
                let key = ((level as u64) << 32) | addr as u64;
                self.streams.updates.push((g, key));
            }
        }
    }
}

/// The observed scalar grid bodies, recording into a shared buffer; the
/// MLP and compositing seams are the SIMD backend's.
#[derive(Debug)]
struct Recorder(Arc<Mutex<Streams>>);

impl Kernels for Recorder {
    fn name(&self) -> &'static str {
        "test-recorder"
    }

    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        pts: &[Vec3],
        out: &mut [f32],
    ) {
        let streams = &mut *self.0.lock().unwrap();
        for &l in levels {
            grid.encode_level_observed(l, pts, out, &mut Sink { grid, streams });
        }
    }

    fn grid_scatter_level(
        &self,
        grid: &GridLayout,
        level: usize,
        grads: &mut [f32],
        pts: &[Vec3],
        d_out: &[f32],
    ) {
        let streams = &mut *self.0.lock().unwrap();
        grid.scatter_level_observed(level, grads, pts, d_out, &mut Sink { grid, streams });
    }

    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        SimdKernels.mlp_forward_batch(mlp, n, fill, retain, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        SimdKernels.mlp_backward_batch(mlp, d_output, ws, grads, d_input);
    }

    fn composite_ray(
        &self,
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize) {
        SimdKernels.composite_ray(t, dt, sigma, rgb, background, cache)
    }
}

/// Both views of `iters` training steps from identical seeds.
struct Bridge {
    /// What the engine's kernels touched under `Trainer::step`.
    engine: Streams,
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
    // Both trainers run a private recorder, so the workload accounting
    // (which names the backend) is comparable; only the engine's is read.
    let new_trainer = || {
        let streams = Arc::new(Mutex::new(Streams::default()));
        let mut rng = StdRng::seed_from_u64(2);
        let ds = SceneLibrary::synthetic_scene(0, 16, 4, &mut rng);
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = topology;
        cfg.color_update_every = 2; // skipped color scatters must agree too
        cfg.occupancy_update_every = occupancy_update_every;
        cfg.occupancy_subset = occupancy_subset;
        cfg.kernel_backend = BackendHandle::new(Recorder(Arc::clone(&streams)));
        let trainer = Trainer::new(cfg, &ds, &mut StdRng::seed_from_u64(3));
        (trainer, streams)
    };

    let (mut engine_trainer, streams) = new_trainer();
    let one_worker = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut step_rng = StdRng::seed_from_u64(4);
    one_worker.install(|| {
        for _ in 0..iters {
            engine_trainer.step(&mut step_rng);
        }
    });
    let engine = std::mem::take(&mut *streams.lock().unwrap());

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

#[test]
fn engine_reads_equal_reference_trace_as_multisets() {
    // No occupancy refresh inside the window (update_every = 16 > 3).
    for topology in [GridTopology::Coupled, GridTopology::Decoupled] {
        let b = bridge(topology, 3, 16, 1);
        assert_eq!(b.trainer.stats().occupancy_refreshes, 0);
        for (branch, grid) in grids(&b.trainer) {
            let mut engine = Streams::of(&b.engine.reads, grid);
            let mut reference = b.reference.reads_flat(branch, grid);
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
            b.engine.reads.len() + b.engine.updates.len(),
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
            let engine = Streams::of(&b.engine.updates, grid);
            assert!(
                !engine.is_empty(),
                "{topology:?}/{branch:?}: updates recorded"
            );
            assert_eq!(
                engine,
                b.reference.updates_level_major(branch),
                "{topology:?}/{branch:?}: updates_level_major() must be the engine's scatter order"
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
    // engine-only surplus that the recording backend sees.
    let b = bridge(GridTopology::Decoupled, 4, 2, 2);
    let stats = b.trainer.stats();
    assert!(stats.occupancy_refreshes >= 2, "refreshes must have fired");
    for (branch, grid) in grids(&b.trainer) {
        assert_eq!(
            Streams::of(&b.engine.updates, grid),
            b.reference.updates_level_major(branch),
            "{branch:?}: update order through refreshes"
        );
        let engine_reads = Streams::of(&b.engine.reads, grid).len() as u64;
        let reference_reads = b.reference.reads_flat(branch, grid).len() as u64;
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
