//! Microbenchmarks of the Step ③-① kernels: hash-grid encoding (trilinear
//! interpolation over the multi-level table) and its gradient scatter —
//! the operations the paper identifies as 80 % of NeRF training.
//!
//! Batched-kernel bench IDs are stamped with the backend's registry name
//! and the rayon worker count (`…/scalar/t1`), so recorded numbers always
//! say which kernels and how many workers produced them. The backend axis
//! iterates every registered backend (instrumented included — its arm
//! measures the co-sim backend's observation-off overhead).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use instant3d_nerf::grid::{HashGrid, HashGridConfig, NullObserver};
use instant3d_nerf::hash::spatial_hash;
use instant3d_nerf::kernels::{self, BackendHandle};
use instant3d_nerf::math::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `backend/threads` suffix for bench IDs of kernels that run on the
/// rayon pool.
fn stamp(backend: &BackendHandle) -> String {
    format!("{backend}/t{}", rayon::current_num_threads())
}

/// `backend/t1` suffix for direct (single-threaded) kernel benches — the
/// ambient pool size is irrelevant to them and must not be recorded.
fn stamp_serial(backend: &BackendHandle) -> String {
    format!("{backend}/t1")
}

fn bench_spatial_hash(c: &mut Criterion) {
    c.bench_function("hash/eq3_spatial_hash", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(spatial_hash(
                i,
                i.wrapping_mul(3),
                i.wrapping_mul(7),
                1 << 19,
            ))
        })
    });
}

fn bench_encode(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let grid = HashGrid::new_random(HashGridConfig::default(), &mut rng);
    let points: Vec<Vec3> = (0..1024)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    let mut out = vec![0.0f32; grid.output_dim()];
    let mut k = 0usize;
    c.bench_function("grid/encode_point_8level", |b| {
        b.iter(|| {
            k = (k + 1) % points.len();
            grid.encode_into(black_box(points[k]), &mut out, &mut NullObserver);
            black_box(out[0])
        })
    });
}

fn bench_backward(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let grid = HashGrid::new_random(HashGridConfig::default(), &mut rng);
    let points: Vec<Vec3> = (0..1024)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    let d_out = vec![0.5f32; grid.output_dim()];
    let mut grads = grid.zero_grads();
    let mut k = 0usize;
    c.bench_function("grid/backward_scatter_8level", |b| {
        b.iter(|| {
            k = (k + 1) % points.len();
            grid.backward_into(black_box(points[k]), &d_out, &mut grads, &mut NullObserver);
            black_box(grads.count)
        })
    });
}

fn bench_encode_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let grid = HashGrid::new_random(HashGridConfig::default(), &mut rng);
    let points: Vec<Vec3> = (0..1024)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    let mut out = vec![0.0f32; points.len() * grid.output_dim()];
    let all_levels: Vec<usize> = (0..grid.levels().len()).collect();
    c.bench_function("grid/encode_batch1024_point_major", |b| {
        b.iter(|| {
            grid.encode_batch_into(black_box(&points), &mut out, &mut NullObserver);
            black_box(out[0])
        })
    });
    // The backend axis: the PR 1 level-major kernel (scalar backend) vs
    // the lane-batched SIMD kernel, plus the parallel dispatcher at the
    // ambient worker count.
    for backend in kernels::registered() {
        // Single-chunk serial kernel body, straight through the trait.
        c.bench_function(
            &format!("grid/encode_batch1024/{}", stamp_serial(&backend)),
            |b| {
                b.iter(|| {
                    backend.grid_encode_levels_chunk(
                        &grid,
                        &all_levels,
                        black_box(&points),
                        &mut out,
                    );
                    black_box(out[0])
                })
            },
        );
        // Explicit worker-count arms: `install` pins the apparent count
        // and grows the shared work-stealing pool to match.
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                c.bench_function(
                    &format!("grid/encode_batch1024_parallel/{}", stamp(&backend)),
                    |b| {
                        b.iter(|| {
                            grid.par_encode_batch_with(&backend, black_box(&points), &mut out);
                            black_box(out[0])
                        })
                    },
                );
            });
        }
    }
}

fn bench_backward_batch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let grid = HashGrid::new_random(HashGridConfig::default(), &mut rng);
    let points: Vec<Vec3> = (0..1024)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    let d_out = vec![0.5f32; points.len() * grid.output_dim()];
    let mut grads = grid.zero_grads();
    c.bench_function("grid/backward_batch1024_point_major", |b| {
        b.iter(|| {
            grid.backward_batch_into(black_box(&points), &d_out, &mut grads, &mut NullObserver);
            black_box(grads.count)
        })
    });
    for backend in kernels::registered() {
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                c.bench_function(
                    &format!("grid/backward_batch1024_level/{}", stamp(&backend)),
                    |b| {
                        b.iter(|| {
                            grid.par_backward_batch_with(
                                &backend,
                                black_box(&points),
                                &d_out,
                                &mut grads,
                            );
                            black_box(grads.count)
                        })
                    },
                );
            });
        }
    }
}

criterion_group!(
    benches,
    bench_spatial_hash,
    bench_encode,
    bench_backward,
    bench_encode_batch,
    bench_backward_batch
);
criterion_main!(benches);
