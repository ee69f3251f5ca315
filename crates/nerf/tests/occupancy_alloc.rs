//! `OccupancyWorkspace` promises that steady-state refreshes allocate
//! nothing. A training refresh always follows a parameter update, so the
//! warm refresh measured here re-encodes every level, as the trainer's
//! does. The counting allocator is process-wide, so this binary holds
//! exactly one test.

#![expect(
    clippy::disallowed_types,
    reason = "Relaxed is enough for a counter that publishes no other data: fetch_add is atomic at any ordering, and the loads bracket the measured refresh on one thread"
)]

use instant3d_nerf::activation::Activation;
use instant3d_nerf::fp16::F16;
use instant3d_nerf::grid::{HashGrid, HashGridConfig};
use instant3d_nerf::kernels;
use instant3d_nerf::math::Aabb;
use instant3d_nerf::mlp::{Mlp, MlpConfig};
use instant3d_nerf::occupancy::{OccupancyGrid, OccupancyWorkspace, RefreshMode};
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

#[test]
fn warm_refresh_after_a_parameter_update_allocates_nothing() {
    let mut grid = HashGrid::new_random(
        HashGridConfig {
            levels: 4,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
            ..HashGridConfig::default()
        },
        &mut StdRng::seed_from_u64(1),
    );
    let mlp = Mlp::new(
        MlpConfig::new(
            grid.output_dim(),
            &[16],
            1,
            Activation::Relu,
            Activation::TruncExp,
        ),
        &mut StdRng::seed_from_u64(2),
    );
    let aabb = Aabb::UNIT;
    let mut occ = OccupancyGrid::new(aabb, 8);
    let mut ws = OccupancyWorkspace::new(kernels::simd());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        let mode = RefreshMode::DecayedEma;
        for _ in 0..2 {
            ws.refresh(&mut occ, &grid, &mlp, aabb, 0.5, mode, 1);
        }
        let p = &mut grid.params_mut()[0];
        *p = F16::from_f32(p.to_f32() + 0.25);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let stats = ws.refresh(&mut occ, &grid, &mlp, aabb, 0.5, mode, 1);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(stats.levels_encoded, grid.levels().len());
        assert_eq!(allocations, 0, "a warm refresh must not allocate");
    });
}
