//! Microbenchmarks of the volume-rendering compositor (Step ④/⑥) and the
//! small MLP heads (Step ③-②) — including the backend-stamped batched
//! GEMV and compositing arms the two-tier registry's perf target is
//! measured on (`{bench}/{backend}/t{N}` IDs, fast vs simd).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use instant3d_nerf::activation::Activation;
use instant3d_nerf::kernels;
use instant3d_nerf::math::Vec3;
use instant3d_nerf::mlp::{Mlp, MlpConfig};
use instant3d_nerf::render::{composite, composite_backward, RaySample, RenderCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn samples(n: usize) -> Vec<RaySample> {
    let dt = 1.0 / n as f32;
    (0..n)
        .map(|i| RaySample {
            t: (i as f32 + 0.5) * dt,
            dt,
            sigma: 0.5 + (i % 7) as f32,
            rgb: Vec3::new(0.3, 0.5, 0.7),
        })
        .collect()
}

fn bench_composite(c: &mut Criterion) {
    let s = samples(64);
    c.bench_function("render/composite_64_samples", |b| {
        b.iter(|| black_box(composite(&s, Vec3::ONE, None)))
    });
    let mut cache = RenderCache::default();
    let out = composite(&s, Vec3::ONE, Some(&mut cache));
    c.bench_function("render/backward_64_samples", |b| {
        b.iter(|| black_box(composite_backward(&s, Vec3::ONE, &cache, &out, Vec3::ONE)))
    });
}

fn bench_mlp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    // The paper's color head: 32 inputs -> 64 hidden -> 3 RGB.
    let mlp = Mlp::new(
        MlpConfig::new(32, &[64], 3, Activation::Relu, Activation::Sigmoid),
        &mut rng,
    );
    let x: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ws = mlp.workspace();
    c.bench_function("mlp/color_head_forward", |b| {
        b.iter(|| black_box(mlp.forward(&x, &mut ws)[0]))
    });
    let mut grads = mlp.zero_grads();
    let mut d_in = vec![0.0f32; 32];
    c.bench_function("mlp/color_head_backward", |b| {
        b.iter(|| {
            mlp.forward(&x, &mut ws);
            mlp.backward(&[1.0, -0.5, 0.25], &mut ws, &mut grads, &mut d_in);
            black_box(d_in[0])
        })
    });
}

/// The batched GEMV hot path, once per registered backend: this is the
/// mlp-dominated arm the fast backend's ≥1.2x-over-simd target is
/// checked against (criterion min over the `{bench}/{backend}/t{N}` IDs).
fn bench_mlp_batched(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    // Density-head shape at a training-sized batch: 32 -> 64 -> 16.
    let mlp = Mlp::new(
        MlpConfig::new(32, &[64], 16, Activation::Relu, Activation::None),
        &mut rng,
    );
    let n = 1024;
    let inputs: Vec<f32> = (0..n * 32).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let d_out: Vec<f32> = (0..n * 16).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let t = rayon::current_num_threads();
    for backend in kernels::registered() {
        let mut ws = mlp.batch_workspace(n);
        c.bench_function(&format!("mlp/batched_forward1024/{backend}/t{t}"), |b| {
            b.iter(|| black_box(mlp.forward_batch_with(&backend, &inputs, &mut ws)[0]))
        });
        let mut grads = mlp.zero_grads();
        let mut d_in = vec![0.0f32; n * 32];
        c.bench_function(&format!("mlp/batched_backward1024/{backend}/t{t}"), |b| {
            b.iter(|| {
                mlp.forward_batch_with(&backend, &inputs, &mut ws);
                mlp.backward_batch_with(&backend, &d_out, &mut ws, &mut grads, &mut d_in);
                black_box(d_in[0])
            })
        });
    }
}

/// SoA compositing through the backend dispatch, once per registered
/// backend (the batched engine's per-ray path).
fn bench_composite_backends(c: &mut Criterion) {
    let s = samples(64);
    let n = s.len();
    let t: Vec<f32> = s.iter().map(|x| x.t).collect();
    let dt: Vec<f32> = s.iter().map(|x| x.dt).collect();
    let sigma: Vec<f32> = s.iter().map(|x| x.sigma).collect();
    let rgb: Vec<Vec3> = s.iter().map(|x| x.rgb).collect();
    let threads = rayon::current_num_threads();
    for backend in kernels::registered() {
        let mut cw = vec![0.0f32; n];
        let mut ct = vec![0.0f32; n];
        let mut co = vec![0.0f32; n];
        c.bench_function(
            &format!("render/composite_slices64/{backend}/t{threads}"),
            |b| {
                b.iter(|| {
                    black_box(backend.composite_ray(
                        &t,
                        &dt,
                        &sigma,
                        &rgb,
                        Vec3::ONE,
                        Some((&mut cw, &mut ct, &mut co)),
                    ))
                })
            },
        );
    }
}

criterion_group!(
    benches,
    bench_composite,
    bench_mlp,
    bench_mlp_batched,
    bench_composite_backends
);
criterion_main!(benches);
