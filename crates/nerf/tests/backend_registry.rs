//! Tests of the kernel-backend API itself: name resolution over the
//! closed built-in set, and engine dispatch through foreign handles.

#![expect(
    clippy::disallowed_types,
    reason = "Relaxed is enough for the mock's call counters: they publish no other data and are read after the dispatching region joins"
)]

use instant3d_nerf::grid::{GridLayout, HashGrid, HashGridConfig};
use instant3d_nerf::kernels::{self, BackendHandle, Kernels, ScalarKernels};
use instant3d_nerf::math::Vec3;
use instant3d_nerf::mlp::{Mlp, MlpBatchWorkspace, MlpConfig, MlpGradients, RowFill};
use instant3d_nerf::render::RenderOutput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A third-party backend: delegates every kernel to the scalar reference
/// (thereby upholding the bit-identity contract) while counting grid and
/// MLP calls into counters the test keeps a handle to.
#[derive(Debug, Default)]
struct CountingKernels {
    inner: ScalarKernels,
    grid_calls: Arc<AtomicUsize>,
    mlp_calls: Arc<AtomicUsize>,
}

impl Kernels for CountingKernels {
    fn name(&self) -> &'static str {
        "mock-counting"
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
        grid: &GridLayout,
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
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        self.mlp_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.mlp_forward_batch(mlp, n, fill, retain, ws)
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
    // The backend set is closed: a foreign backend is never resolvable by
    // name, only usable through its handle.
    let mock = CountingKernels::default();
    let grid_calls = Arc::clone(&mock.grid_calls);
    let handle = BackendHandle::new(mock);
    assert!(kernels::get("mock-counting").is_none());

    // The engine seams dispatch through the foreign backend and produce
    // the scalar reference's exact bits.
    let g = test_grid(3);
    let pts = test_points(33, 4);
    let w = g.output_dim();
    let mut expect = vec![0.0f32; pts.len() * w];
    g.par_encode_batch_with(&kernels::scalar(), &pts, &mut expect);
    let mut got = vec![0.0f32; pts.len() * w];
    g.par_encode_batch_with(&handle, &pts, &mut got);
    assert_eq!(expect, got);
    assert!(
        grid_calls.load(Ordering::Relaxed) > 0,
        "the mock's kernels must actually have run"
    );
}

#[test]
fn unregistered_handles_drive_the_engine_without_registration() {
    // A handle drives every seam without any global state.
    let mock = CountingKernels::default();
    let mlp_calls = Arc::clone(&mock.mlp_calls);
    let private = BackendHandle::new(mock);
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
    assert_eq!(mlp_calls.load(Ordering::Relaxed), 1);
}

#[test]
fn a_forward_only_pass_is_one_seam_call() {
    // The forward-only pass is one call of the batch forward seam, however
    // many blocks and worker runs it spans.
    let mock = CountingKernels::default();
    let mlp_calls = Arc::clone(&mock.mlp_calls);
    let handle = BackendHandle::new(mock);
    let mlp = Mlp::new(
        MlpConfig::new(
            16,
            &[64],
            1,
            instant3d_nerf::activation::Activation::Relu,
            instant3d_nerf::activation::Activation::TruncExp,
        ),
        &mut StdRng::seed_from_u64(9),
    );
    let n = 2049;
    let inputs: Vec<f32> = (0..n * 16).map(|i| ((i % 13) as f32 - 6.0) * 0.1).collect();
    let fill = |items: std::ops::Range<usize>, rows: &mut [f32]| {
        rows.copy_from_slice(&inputs[items.start * 16..items.end * 16]);
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .unwrap();
    let mut ws = MlpBatchWorkspace::default();
    let got = pool.install(|| ws.forward_only(&handle, &mlp, n, fill).to_vec());
    assert_eq!(mlp_calls.load(Ordering::Relaxed), 1);
    let mut want = mlp.batch_workspace(n);
    assert_eq!(
        got,
        mlp.forward_batch_with(&kernels::scalar(), &inputs, &mut want)
    );
}
