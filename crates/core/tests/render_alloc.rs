//! A warm frame allocates nothing per tile: every buffer a tile's render
//! pass uses — the samples, the embeddings, the prefix sample list, the
//! forward chunk scratch — lives in the pooled `BatchWorkspace`. After
//! warm-up, a full-budget frame of 36 tiles therefore allocates no more
//! times than a frame of 4 tiles (a frame's own allocations, such as its
//! work queue and the runner tasks, do not grow with its tiles). The
//! counting allocator is process-wide, so this binary holds exactly one
//! test.

#![expect(
    clippy::disallowed_types,
    reason = "Relaxed is enough for a counter that publishes no other data: fetch_add is atomic at any ordering, and the loads bracket the measured frame on one thread"
)]

use instant3d_core::pool::WorkspacePool;
use instant3d_core::render::{FrameBudget, FrameScheduler, RenderOptions};
use instant3d_core::{NerfModel, TrainConfig, Trainer};
use instant3d_nerf::camera::Camera;
use instant3d_nerf::kernels;
use instant3d_nerf::math::Vec3;
use instant3d_scenes::SceneLibrary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every operation to `System` unchanged; the counter
// has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations of one warm full-budget frame of `camera` on `workers`
/// workers, after `WARM_FRAMES` frames of it on the same workspace pool.
fn allocations_per_warm_frame(
    model: &NerfModel,
    camera: Camera,
    background: Vec3,
    workers: usize,
) -> usize {
    /// Frames before the measured one: every pooled workspace has then
    /// met the frame's tiles, whichever runner claimed which.
    const WARM_FRAMES: usize = 3;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .unwrap();
    pool.install(|| {
        let ws_pool = WorkspacePool::new();
        let mut sched = FrameScheduler::new(camera, RenderOptions::new(8, background));
        for _ in 0..WARM_FRAMES {
            sched.invalidate_all();
            sched.render_frame(model, None, FrameBudget::full(), &ws_pool);
        }
        sched.invalidate_all();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let progress = sched.render_frame(model, None, FrameBudget::full(), &ws_pool);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(progress.complete);
        assert_eq!(progress.tiles_rendered, sched.layout().tile_count());
        allocations
    })
}

#[test]
fn warm_frames_allocate_nothing_per_tile() {
    let mut rng = StdRng::seed_from_u64(7);
    let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
    // The default backend, pinned: `checked` allocates its shadow copies.
    let cfg = TrainConfig {
        kernel_backend: kernels::simd(),
        ..TrainConfig::fast_preview()
    };
    let mut trainer = Trainer::new(cfg, &ds, &mut rng);
    for _ in 0..4 {
        trainer.step(&mut rng);
    }
    let model = trainer.model();
    let center = model.aabb().center();
    let eye = center + Vec3::new(0.9, 0.7, 1.6);
    let up = Vec3::new(0.0, 1.0, 0.0);
    // 16-pixel tiles: 96×96 is 36 tiles, 32×32 is 4.
    let camera = |edge| Camera::look_at(eye, center, up, 0.9, edge, edge);
    for workers in [1, 2] {
        let many = allocations_per_warm_frame(model, camera(96), ds.background, workers);
        let few = allocations_per_warm_frame(model, camera(32), ds.background, workers);
        assert!(
            many <= few,
            "{workers} workers: a 36-tile frame allocated {many} times, a 4-tile frame {few}"
        );
    }
}
