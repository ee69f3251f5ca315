//! `BatchWorkspace` promises zero steady-state allocation. On one worker a
//! warm `Trainer::step` allocates nothing; on more workers the step's
//! single pool entry costs two allocations (the bridge job's box and its
//! completion latch's `Arc`), however many parallel regions run inside
//! it. The measured span includes an occupancy-refresh step. The
//! counting allocator is process-wide, so this binary holds exactly one
//! test.

#![expect(
    clippy::disallowed_types,
    reason = "Relaxed is enough for a counter that publishes no other data: fetch_add is atomic at any ordering, and the loads bracket the measured steps on one thread"
)]

use instant3d_core::{TrainConfig, Trainer};
use instant3d_nerf::kernels;
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

/// Allocations per warm step on `workers` workers, over a span of steps
/// that holds at least one occupancy refresh.
fn allocations_per_warm_step(workers: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(7);
    let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
    // The instant3d topology at test size: the unoptimised test profile
    // runs it fast enough to warm up and measure a whole refresh period.
    // The default backend, pinned: `checked` allocates its shadow copies.
    let cfg = TrainConfig {
        kernel_backend: kernels::simd(),
        ..TrainConfig::fast_preview()
    };
    let span = 2 * cfg.occupancy_update_every as usize;
    let mut trainer = Trainer::new(cfg, &ds, &mut rng);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .unwrap();
    pool.install(|| {
        for _ in 0..span {
            trainer.step(&mut rng);
        }
        let refreshes = trainer.stats().occupancy_refreshes;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..span {
            trainer.step(&mut rng);
        }
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(
            trainer.stats().occupancy_refreshes > refreshes,
            "the measured span must include an occupancy refresh"
        );
        allocations as f64 / span as f64
    })
}

#[test]
fn warm_steps_allocate_only_the_pool_entry() {
    let one = allocations_per_warm_step(1);
    assert_eq!(one, 0.0, "a warm one-worker step must not allocate");
    let two = allocations_per_warm_step(2);
    assert!(
        two <= 2.0,
        "a warm two-worker step allocated {two} times; its one pool entry costs 2"
    );
}
