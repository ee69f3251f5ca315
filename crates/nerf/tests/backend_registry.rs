//! Tests of the open kernel-backend API itself: runtime registration of a
//! third-party backend, name resolution, engine dispatch through foreign
//! handles, and the instrumented co-sim backend's stream capture.

use instant3d_nerf::grid::{AccessPhase, GridAccessObserver, HashGrid, HashGridConfig};
use instant3d_nerf::kernels::{self, BackendHandle, InstrumentedKernels, Kernels, ScalarKernels};
use instant3d_nerf::math::Vec3;
use instant3d_nerf::mlp::{Mlp, MlpBatchWorkspace, MlpConfig, MlpGradients};
use instant3d_nerf::render::RenderOutput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A third-party backend: delegates every kernel to the scalar reference
/// (thereby upholding the bit-identity contract) while counting calls.
#[derive(Debug, Default)]
struct CountingKernels {
    inner: ScalarKernels,
    grid_calls: AtomicUsize,
    mlp_calls: AtomicUsize,
    composite_calls: AtomicUsize,
}

impl Kernels for CountingKernels {
    fn name(&self) -> &'static str {
        "mock-counting"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        pts: &[Vec3],
        out: &mut [f32],
    ) {
        self.grid_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.grid_encode_levels_chunk(grid, levels, pts, out);
    }

    fn grid_scatter_level(
        &self,
        grid: &HashGrid,
        level: usize,
        level_grads: &mut [f32],
        pts: &[Vec3],
        d_out: &[f32],
    ) {
        self.grid_calls.fetch_add(1, Ordering::Relaxed);
        self.inner
            .grid_scatter_level(grid, level, level_grads, pts, d_out);
    }

    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        self.mlp_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.mlp_forward_batch(mlp, inputs, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        self.mlp_calls.fetch_add(1, Ordering::Relaxed);
        self.inner
            .mlp_backward_batch(mlp, d_output, ws, grads, d_input);
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
        self.composite_calls.fetch_add(1, Ordering::Relaxed);
        self.inner
            .composite_ray(t, dt, sigma, rgb, background, cache)
    }
}

fn test_grid(seed: u64) -> HashGrid {
    HashGrid::new_random(
        HashGridConfig {
            levels: 3,
            log2_table_size: 9,
            base_resolution: 4,
            max_resolution: 32,
            ..HashGridConfig::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

fn test_points(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect()
}

#[test]
fn registered_mock_backend_resolves_and_dispatches() {
    // Registering makes the name resolvable everywhere a backend can be
    // named (config, env var, bench IDs)…
    let registered =
        kernels::register(CountingKernels::default()).expect("first registration of the mock name");
    assert_eq!(kernels::resolve("mock-counting"), registered);
    assert!(kernels::names().contains(&"mock-counting"));
    assert!(kernels::registered().contains(&registered));
    // …and a second registration under the same name is rejected.
    assert!(kernels::register(CountingKernels::default()).is_err());

    // The engine seams dispatch through the foreign backend and produce
    // the scalar reference's exact bits.
    let g = test_grid(3);
    let pts = test_points(33, 4);
    let w = g.output_dim();
    let mut expect = vec![0.0f32; pts.len() * w];
    g.par_encode_batch_with(&kernels::scalar(), &pts, &mut expect);
    let mut got = vec![0.0f32; pts.len() * w];
    g.par_encode_batch_with(&registered, &pts, &mut got);
    assert_eq!(expect, got);

    let mock = registered.downcast_ref::<CountingKernels>().unwrap();
    assert!(
        mock.grid_calls.load(Ordering::Relaxed) > 0,
        "the mock's kernels must actually have run"
    );
}

#[test]
fn unregistered_handles_drive_the_engine_without_registration() {
    // A handle is usable without touching the global registry — openness
    // does not force global state on tests.
    let private = BackendHandle::new(CountingKernels::default());
    assert!(kernels::get("definitely-not-registered").is_none());

    let g = test_grid(5);
    let pts = test_points(20, 6);
    let d_out: Vec<f32> = (0..pts.len() * g.output_dim())
        .map(|i| ((i % 7) as f32 - 3.0) * 0.23)
        .collect();
    let mut expect = g.zero_grads();
    g.par_backward_batch_with(&kernels::scalar(), &pts, &d_out, &mut expect);
    let mut got = g.zero_grads();
    g.par_backward_batch_with(&private, &pts, &d_out, &mut got);
    assert_eq!(expect.values, got.values);

    let mlp = Mlp::new(
        MlpConfig::new(
            g.output_dim(),
            &[8],
            1,
            instant3d_nerf::activation::Activation::Relu,
            instant3d_nerf::activation::Activation::TruncExp,
        ),
        &mut StdRng::seed_from_u64(7),
    );
    let inputs = vec![0.25f32; 5 * g.output_dim()];
    let mut ws_a = mlp.batch_workspace(5);
    let mut ws_b = mlp.batch_workspace(5);
    let a = mlp
        .forward_batch_with(&kernels::scalar(), &inputs, &mut ws_a)
        .to_vec();
    let b = mlp
        .forward_batch_with(&private, &inputs, &mut ws_b)
        .to_vec();
    assert_eq!(a, b);
    let mock = private.downcast_ref::<CountingKernels>().unwrap();
    assert_eq!(mock.mlp_calls.load(Ordering::Relaxed), 1);
}

/// Collects the expected address stream by running the observed scalar
/// kernels directly.
struct Collect<'a> {
    grid: &'a HashGrid,
    reads: Vec<u32>,
    updates: Vec<u64>,
}

impl GridAccessObserver for Collect<'_> {
    fn on_access(&mut self, phase: AccessPhase, level: u32, _corner: u8, addr: u32) {
        match phase {
            AccessPhase::FeedForward => self
                .reads
                .push(self.grid.entry_offset(level as usize) + addr),
            AccessPhase::BackProp => self.updates.push(((level as u64) << 32) | addr as u64),
        }
    }
}

#[test]
fn instrumented_backend_records_the_exact_kernel_address_streams() {
    let backend = BackendHandle::new(InstrumentedKernels::new());
    let rec = backend.downcast_ref::<InstrumentedKernels>().unwrap();
    let g = test_grid(11);
    let w = g.output_dim();
    let pts = test_points(41, 12); // lane tails included
    let d_out: Vec<f32> = (0..pts.len() * w).map(|i| (i % 5) as f32 * 0.11).collect();

    // Expected streams: the observed scalar kernels in the same
    // level-major / level-ordered execution order the drivers use.
    let mut expect = Collect {
        grid: &g,
        reads: Vec::new(),
        updates: Vec::new(),
    };
    let mut expect_out = vec![0.0f32; pts.len() * w];
    for l in 0..g.levels().len() {
        g.encode_level_observed(l, &pts, &mut expect_out, &mut expect);
    }
    let mut expect_grads = g.zero_grads();
    {
        let mut rest: &mut [f32] = &mut expect_grads.values;
        for l in 0..g.levels().len() {
            let len = g.levels()[l].table_size as usize * g.config().features_per_entry;
            let (head, tail) = rest.split_at_mut(len);
            g.scatter_level_observed(l, head, &pts, &d_out, &mut expect);
            rest = tail;
        }
    }

    // Recording off: nothing captured, output identical to simd.
    let mut quiet = vec![0.0f32; pts.len() * w];
    g.par_encode_batch_with(&backend, &pts, &mut quiet);
    assert!(rec.take_streams().is_empty(), "off by default");
    assert_eq!(quiet, expect_out, "instrumented numerics = scalar bits");

    // Recording on: streams match the observed kernels exactly.
    rec.start_recording();
    assert!(
        backend.sequential_grid(),
        "recording forces sequential grids"
    );
    let mut out = vec![0.0f32; pts.len() * w];
    g.par_encode_batch_with(&backend, &pts, &mut out);
    let mut grads = g.zero_grads();
    g.par_backward_batch_with(&backend, &pts, &d_out, &mut grads);
    rec.stop_recording();
    let streams = rec.take_streams();

    assert_eq!(out, expect_out);
    assert_eq!(grads.values, expect_grads.values);
    assert_eq!(streams.reads_flat_for(&g), expect.reads);
    assert_eq!(streams.updates_for(&g), expect.updates);
    assert_eq!(
        streams.len(),
        expect.reads.len() + expect.updates.len(),
        "no stray segments"
    );
    // Draining leaves the recorder empty for the next session.
    assert!(rec.take_streams().is_empty());
}

#[test]
fn instrumented_level_subset_encode_records_only_those_levels() {
    let backend = BackendHandle::new(InstrumentedKernels::new());
    let rec = backend.downcast_ref::<InstrumentedKernels>().unwrap();
    let g = test_grid(21);
    let pts = test_points(9, 22);
    let mut out = vec![0.0f32; pts.len() * g.output_dim()];
    rec.start_recording();
    g.par_encode_batch_levels_with(&backend, &[1], &pts, &mut out);
    g.par_encode_batch_levels_with(&backend, &[], &pts, &mut out);
    rec.stop_recording();
    let streams = rec.take_streams();
    let reads = streams.reads_flat_for(&g);
    assert_eq!(
        reads.len(),
        8 * pts.len(),
        "one level × 8 corners per point"
    );
    let lo = g.entry_offset(1);
    let hi = g.entry_offset(2);
    assert!(
        reads.iter().all(|&a| a >= lo && a < hi),
        "all reads land in level 1's table slice"
    );
    assert_eq!(streams.segments.len(), 1, "empty level set records nothing");
}
