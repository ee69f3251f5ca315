//! `Trainer::step` sizes every buffer it writes on the calling thread,
//! before it enters the pool, so no pool worker allocates in a trainer's
//! first (cold) step or any later one. A warm step allocates nothing on
//! one worker; on more, the step's single pool entry costs two
//! allocations on the caller (the bridge job's box and its completion
//! latch's `Arc`), however many parallel regions and ray chunks run inside
//! it. The counting allocator tells the calling thread from every other,
//! so each count is per thread. The batch spans at least three chunks of
//! the step's per-ray half, and the measured steps include occupancy
//! refreshes, the first of them cold. The counting allocator is
//! process-wide, so this binary holds exactly one test.

#![expect(
    clippy::disallowed_types,
    reason = "Relaxed is enough for counters that publish no other data: fetch_add is atomic at any ordering, and the loads bracket the measured steps on one thread"
)]

use instant3d_core::{StepStats, TrainConfig, Trainer};
use instant3d_nerf::kernels;
use instant3d_scenes::SceneLibrary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Allocations on the thread that calls `Trainer::step`.
static CALLER: AtomicUsize = AtomicUsize::new(0);
/// Allocations on every other thread: the pool's workers.
static OTHERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the thread that calls `Trainer::step`. A const-initialised
    /// `Cell` has no destructor, so reading it never allocates.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if IS_CALLER.try_with(Cell::get).unwrap_or(false) {
        CALLER.fetch_add(1, Ordering::Relaxed);
    } else {
        OTHERS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: defers every operation to `System` unchanged; the counters
// have no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The samples per chunk of the step's per-ray half (`CHUNK_SAMPLES` in
/// `instant3d_core::batch`).
const CHUNK_SAMPLES: usize = 4096;

/// Allocations while `steps` steps run: `(caller, others)`.
fn allocations(steps: impl FnOnce()) -> (usize, usize) {
    let (caller, others) = (
        CALLER.load(Ordering::Relaxed),
        OTHERS.load(Ordering::Relaxed),
    );
    steps();
    (
        CALLER.load(Ordering::Relaxed) - caller,
        OTHERS.load(Ordering::Relaxed) - others,
    )
}

/// Steps between two occupancy refreshes.
const PERIOD: usize = 3;

/// A fresh trainer on `workers` workers: allocations of its first step,
/// of the rest of its first two refresh periods (the first refresh
/// included), and of its next two refresh periods, each as
/// `(caller, others)`.
fn step_allocations(workers: usize) -> [(usize, usize); 3] {
    let mut rng = StdRng::seed_from_u64(7);
    let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
    // The instant3d topology with a batch of at least three chunks, at a
    // test-sized grid and network. The default backend, pinned: `checked`
    // allocates its shadow copies.
    let cfg = TrainConfig {
        kernel_backend: kernels::simd(),
        rays_per_batch: 640,
        samples_per_ray: 24,
        occupancy_update_every: PERIOD as u32,
        ..TrainConfig::fast_preview()
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .unwrap();
    IS_CALLER.with(|c| c.set(true));
    let counts = pool.install(|| {
        // The pool's own queues grow the first time its workers run jobs;
        // another trainer's refresh period grows them first.
        let mut warm_up = Trainer::new(cfg.clone(), &ds, &mut StdRng::seed_from_u64(8));
        for _ in 0..PERIOD {
            warm_up.step(&mut rng);
        }
        drop(warm_up);

        let mut trainer = Trainer::new(cfg, &ds, &mut rng);
        let mut stats = Vec::with_capacity(4 * PERIOD);
        let mut run = |n: usize, trainer: &mut Trainer| {
            allocations(|| stats.extend((0..n).map(|_| trainer.step(&mut rng))))
        };
        let cold = run(1, &mut trainer);
        let first_refreshes = run(2 * PERIOD - 1, &mut trainer);
        let warm = run(2 * PERIOD, &mut trainer);
        assert_eq!(trainer.stats().occupancy_refreshes, 4);
        assert!(
            stats
                .iter()
                .all(|s: &StepStats| s.points > 2 * CHUNK_SAMPLES),
            "every batch must span at least three chunks: {:?}",
            stats.iter().map(|s| s.points).collect::<Vec<_>>()
        );
        [cold, first_refreshes, warm]
    });
    IS_CALLER.with(|c| c.set(false));
    counts
}

#[test]
fn warm_steps_allocate_only_the_pool_entry() {
    for workers in [1, 2, 4] {
        let [cold, first_refreshes, warm] = step_allocations(workers);
        for (label, (_, others)) in [
            ("the cold step", cold),
            ("the first refresh periods", first_refreshes),
            ("warm steps", warm),
        ] {
            assert_eq!(
                others, 0,
                "{workers} workers: {label} allocated on a worker"
            );
        }
        let steps = 2 * PERIOD;
        let bound = if workers == 1 { 0 } else { 2 * steps };
        assert!(
            warm.0 <= bound,
            "{workers} workers: {steps} warm steps allocated {} times on the caller; a pool entry costs 2",
            warm.0
        );
    }
}
