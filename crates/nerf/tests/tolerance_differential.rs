//! The tolerance harness gating every registered **lossy-tier** kernel
//! backend (`instant3d_nerf::kernels::registered_lossy()`) against the
//! scalar reference kernels.
//!
//! Lossy backends are exempt from the strict tier's bit-identity
//! contract, but not from correctness: every hot kernel (grid encode,
//! grid backward-scatter, MLP forward / backward, per-ray compositing)
//! must stay within the backend's *declared* [`Tolerance`] of the scalar
//! reference — the same fixtures the strict differential suite uses
//! (remainder-tail batch shapes, fp16 edge features, collision-heavy
//! hash tables), checked with `Tolerance::check_slices` instead of
//! `assert_eq!` on bits. A backend cannot register as lossy without
//! entering this harness, so "lossy" can never silently mean "wrong".
//!
//! Lossy ≠ nondeterministic: the suite also pins each lossy backend to
//! *itself*, bitwise — repeated runs and re-chunked batches must agree
//! exactly, because `f32::mul_add` is correctly rounded everywhere and
//! the fast kernels run the identical per-point fused sequence wherever
//! a point falls in a lane.

use instant3d_nerf::activation::Activation;
use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::grid::{HashGrid, HashGridConfig};
use instant3d_nerf::kernels::{self, BackendHandle, Tolerance};
use instant3d_nerf::math::Vec3;
use instant3d_nerf::mlp::{Mlp, MlpConfig};
use instant3d_nerf::render::{composite_slices, RenderOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch sizes that cover N=0, N=1, sub-lane, lane-exact, lane+tail and
/// multi-chunk (the parallel dispatch chunks at 256) shapes, with every
/// `N % 4` (the MLP sweeps' item block) on both sides of the MLP's
/// parallel cutoff.
const BATCH_SIZES: [usize; 12] = [0, 1, 3, 6, 7, 8, 9, 15, 64, 257, 258, 300];

fn grid(cfg: HashGridConfig, seed: u64) -> HashGrid {
    let mut rng = StdRng::seed_from_u64(seed);
    HashGrid::new_random(cfg, &mut rng)
}

fn points(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Whole-batch, single-chunk encode of every level straight through the
/// backend seam (the parallel dispatcher re-chunks at 256 points).
fn encode_chunk(backend: &BackendHandle, g: &HashGrid, pts: &[Vec3], out: &mut [f32]) {
    let all: Vec<usize> = (0..g.levels().len()).collect();
    backend.grid_encode_levels_chunk(g, &all, pts, out);
}

/// Default-shaped grid (dense + hashed levels, fp16 storage like training).
fn training_grid(seed: u64) -> HashGrid {
    grid(
        HashGridConfig {
            levels: 4,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 64,
            store_fp16: true,
            ..HashGridConfig::default()
        },
        seed,
    )
}

/// A grid whose hashed levels are tiny, so every 8-point lane aliases
/// table entries both across corners and across lanes.
fn colliding_grid(seed: u64) -> HashGrid {
    grid(
        HashGridConfig {
            levels: 3,
            log2_table_size: 4,
            base_resolution: 4,
            max_resolution: 32,
            store_fp16: false,
            init_scale: 0.3,
            ..HashGridConfig::default()
        },
        seed,
    )
}

/// A render output's six scalars, for slice-wise comparison.
fn flat(o: &RenderOutput) -> [f32; 6] {
    [
        o.color.x,
        o.color.y,
        o.color.z,
        o.depth,
        o.opacity,
        o.transmittance,
    ]
}

/// The backend's declared tolerance — registering as lossy without one
/// is impossible by construction, so `expect` documents the invariant.
fn declared(backend: &BackendHandle) -> Tolerance {
    backend
        .tier()
        .tolerance()
        .expect("lossy backends carry a declared tolerance")
}

/// `Tolerance::check_slices` with panic-on-violation and a test-site
/// context string.
fn check(tol: &Tolerance, label: &str, lossy: &[f32], reference: &[f32]) {
    if let Err(msg) = tol.check_slices(label, lossy, reference) {
        panic!("{msg}");
    }
}

#[test]
fn lossy_tier_is_populated() {
    // The harness is only meaningful if the in-tree lossy backend is
    // actually registered and declares a tolerance.
    let lossy = kernels::registered_lossy();
    assert!(
        lossy.iter().any(|b| b.name() == "fast"),
        "the fast backend must register in the lossy tier"
    );
    for backend in &lossy {
        let tol = declared(backend);
        assert!(tol.max_rel_error > 0.0 && tol.max_psnr_drop_db > 0.0);
    }
}

#[test]
fn grid_encode_within_declared_tolerance_across_batch_shapes() {
    for (gname, g) in [
        ("training", training_grid(7)),
        ("colliding", colliding_grid(13)),
    ] {
        let w = g.output_dim();
        for &n in &BATCH_SIZES {
            let pts = points(n, 1000 + n as u64);
            let mut scalar = vec![0.0f32; n * w];
            encode_chunk(&kernels::scalar(), &g, &pts, &mut scalar);
            for backend in kernels::registered_lossy() {
                let tol = declared(&backend);
                let mut lossy = vec![0.0f32; n * w];
                g.par_encode_batch_with(&backend, &pts, &mut lossy);
                check(
                    &tol,
                    &format!("encode {backend} {gname} n={n}"),
                    &lossy,
                    &scalar,
                );
            }
        }
    }
}

#[test]
fn grid_scatter_within_declared_tolerance_across_batch_shapes() {
    for (gname, g) in [
        ("training", training_grid(11)),
        ("colliding", colliding_grid(17)),
    ] {
        let w = g.output_dim();
        for &n in &BATCH_SIZES {
            let pts = points(n, 2000 + n as u64);
            let d_out: Vec<f32> = (0..n * w).map(|i| 0.37 * ((i % 11) as f32 - 5.0)).collect();
            let mut scalar = g.zero_grads();
            g.par_backward_batch_with(&kernels::scalar(), &pts, &d_out, &mut scalar);
            for backend in kernels::registered_lossy() {
                let tol = declared(&backend);
                let mut lossy = g.zero_grads();
                g.par_backward_batch_with(&backend, &pts, &d_out, &mut lossy);
                assert_eq!(scalar.count, lossy.count, "{backend} {gname} n={n}");
                check(
                    &tol,
                    &format!("scatter {backend} {gname} n={n}"),
                    &lossy.values,
                    &scalar.values,
                );
            }
        }
    }
}

#[test]
fn mlp_forward_within_declared_tolerance_across_widths_and_batches() {
    // The forward sweep blocks inputs four wide: layer input widths
    // cover in_dim % 4 ∈ {0, 1, 2, 3} (64/16/8, 13, 6, 11/7).
    for (hidden, out_dim) in [
        (vec![64usize], 64usize),
        (vec![16], 1),
        (vec![8, 8], 3),
        (vec![13], 5),
        (vec![11, 7], 2),
    ] {
        let mut rng = StdRng::seed_from_u64(7 + out_dim as u64);
        let mlp = Mlp::new(
            MlpConfig::new(6, &hidden, out_dim, Activation::Relu, Activation::Sigmoid),
            &mut rng,
        );
        for &n in &BATCH_SIZES {
            let inputs: Vec<f32> = (0..n * 6).map(|i| ((i % 17) as f32 - 8.0) * 0.13).collect();
            let mut ws_a = mlp.batch_workspace(n);
            let a = mlp
                .forward_batch_with(&kernels::scalar(), &inputs, &mut ws_a)
                .to_vec();
            for backend in kernels::registered_lossy() {
                let tol = declared(&backend);
                let mut ws_b = mlp.batch_workspace(n);
                let b = mlp
                    .forward_batch_with(&backend, &inputs, &mut ws_b)
                    .to_vec();
                check(
                    &tol,
                    &format!("mlp fwd {backend} out={out_dim} n={n}"),
                    &b,
                    &a,
                );
            }
        }
    }
}

#[test]
fn mlp_backward_within_declared_tolerance() {
    // The input-gradient sweep blocks output rows four wide: layer output
    // widths cover out_dim % 4 ∈ {0, 1, 2, 3} (64, 13, 6, 3).
    for hidden in [&[64usize][..], &[13, 6]] {
        let mut rng = StdRng::seed_from_u64(23);
        let mlp = Mlp::new(
            MlpConfig::new(10, hidden, 3, Activation::Relu, Activation::None),
            &mut rng,
        );
        for &n in &BATCH_SIZES {
            let inputs: Vec<f32> = (0..n * 10)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.21)
                .collect();
            let d_out: Vec<f32> = (0..n * 3).map(|i| ((i % 7) as f32 - 3.0) * 0.33).collect();
            let run = |backend: &BackendHandle| {
                let mut ws = mlp.batch_workspace(n);
                mlp.forward_batch_with(backend, &inputs, &mut ws);
                let mut grads = mlp.zero_grads();
                let mut d_in = vec![0.0f32; n * 10];
                mlp.backward_batch_with(backend, &d_out, &mut ws, &mut grads, &mut d_in);
                (grads, d_in)
            };
            let (ga, da) = run(&kernels::scalar());
            for backend in kernels::registered_lossy() {
                let tol = declared(&backend);
                let (gb, db) = run(&backend);
                assert_eq!(ga.count, gb.count);
                for (li, ((wa, ba), (wb, bb))) in ga.layers.iter().zip(&gb.layers).enumerate() {
                    check(&tol, &format!("{backend} layer {li} dW n={n}"), wb, wa);
                    check(&tol, &format!("{backend} layer {li} db n={n}"), bb, ba);
                }
                check(&tol, &format!("{backend} d_input n={n}"), &db, &da);
            }
        }
    }
}

#[test]
fn composite_within_declared_tolerance_including_early_termination() {
    let mut rng = StdRng::seed_from_u64(5);
    for &n in &BATCH_SIZES {
        for &dense in &[0.5f32, 50.0, 5000.0] {
            let t: Vec<f32> = (0..n).map(|k| (k as f32 + 0.5) / n.max(1) as f32).collect();
            let dt = vec![1.0 / n.max(1) as f32; n];
            let sigma: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * dense).collect();
            let rgb: Vec<Vec3> = (0..n)
                .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let bg = Vec3::new(0.2, 0.4, 0.8);
            let mut cw_a = vec![0.0f32; n];
            let mut ct_a = vec![0.0f32; n];
            let mut co_a = vec![0.0f32; n];
            let (out_a, act_a) = composite_slices(
                &t,
                &dt,
                &sigma,
                &rgb,
                bg,
                Some((&mut cw_a, &mut ct_a, &mut co_a)),
            );
            for backend in kernels::registered_lossy() {
                let tol = declared(&backend);
                let mut cw_b = vec![0.0f32; n];
                let mut ct_b = vec![0.0f32; n];
                let mut co_b = vec![0.0f32; n];
                let (out_b, act_b) = backend.composite_ray(
                    &t,
                    &dt,
                    &sigma,
                    &rgb,
                    bg,
                    Some((&mut cw_b, &mut ct_b, &mut co_b)),
                );
                // Early termination compares the rounded transmittance
                // against a fixed threshold; these fixtures sit far from
                // the knife edge, so the active counts must agree.
                assert_eq!(act_a, act_b, "{backend} active n={n} dense={dense}");
                let ctx = format!("{backend} n={n} dense={dense}");
                check(
                    &tol,
                    &format!("composite out {ctx}"),
                    &flat(&out_b),
                    &flat(&out_a),
                );
                check(&tol, &format!("weights cache {ctx}"), &cw_b, &cw_a);
                check(&tol, &format!("trans cache {ctx}"), &ct_b, &ct_a);
                check(&tol, &format!("alpha cache {ctx}"), &co_b, &co_a);
            }
        }
    }
}

#[test]
fn lossy_backends_are_deterministic_and_chunking_invariant_tolerance_tier() {
    // Lossy relative to scalar, but bit-exact relative to themselves:
    // repeated runs and arbitrary re-chunkings of the same batch must
    // produce identical bits, because every fast kernel runs the same
    // per-point fused sequence regardless of lane placement.
    let g = training_grid(41);
    let w = g.output_dim();
    let n = 300;
    let pts = points(n, 9000);
    for backend in kernels::registered_lossy() {
        let mut whole = vec![0.0f32; n * w];
        encode_chunk(&backend, &g, &pts, &mut whole);
        // Rerun: identical bits.
        let mut again = vec![0.0f32; n * w];
        encode_chunk(&backend, &g, &pts, &mut again);
        assert_eq!(bits(&whole), bits(&again), "{backend} rerun");
        // Re-chunked (including splits off the lane boundary): identical
        // bits to the single-chunk encode.
        for split in [1usize, 7, 8, 137, 256, 299] {
            let mut chunked = vec![0.0f32; n * w];
            let (head_p, tail_p) = pts.split_at(split);
            let (head_o, tail_o) = chunked.split_at_mut(split * w);
            encode_chunk(&backend, &g, head_p, head_o);
            encode_chunk(&backend, &g, tail_p, tail_o);
            assert_eq!(
                bits(&whole),
                bits(&chunked),
                "{backend} chunk split at {split}"
            );
        }
        // Scatter determinism across runs.
        let d_out: Vec<f32> = (0..n * w)
            .map(|i| ((i % 23) as f32 - 11.0) * 0.17)
            .collect();
        let mut ga = g.zero_grads();
        let mut gb = g.zero_grads();
        g.par_backward_batch_with(&backend, &pts, &d_out, &mut ga);
        g.par_backward_batch_with(&backend, &pts, &d_out, &mut gb);
        assert_eq!(
            bits(&ga.values),
            bits(&gb.values),
            "{backend} scatter rerun"
        );
    }
}

#[test]
fn fast_backend_diverges_from_scalar_somewhere_tolerance_tier() {
    // Meta-check on the harness itself: the fast backend must actually
    // produce *different* bits from the scalar reference on a generic
    // workload — if it didn't, it would belong in the strict tier and
    // this suite would be vacuous (comparing identical numbers proves
    // nothing about the tolerance machinery).
    let g = colliding_grid(29);
    let w = g.output_dim();
    let n = 128;
    let pts = points(n, 7000);
    let mut scalar = vec![0.0f32; n * w];
    let mut fast = vec![0.0f32; n * w];
    encode_chunk(&kernels::scalar(), &g, &pts, &mut scalar);
    encode_chunk(&kernels::fast(), &g, &pts, &mut fast);
    assert_ne!(
        bits(&scalar),
        bits(&fast),
        "fused encode should differ from the scalar reference in at least one bit"
    );
}

/// FNV-1a (64-bit) over the little-endian bit patterns of `xs`.
fn fnv1a(hash: &mut u64, xs: &[f32]) {
    for b in xs.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn lane_kernel_bits_are_pinned_across_commits() {
    // The tolerance checks above only *bound* a lossy backend's bits, and
    // `fast` shares its lane bodies and MLP sweeps with `simd`, so a
    // refactor of a shared body could re-round `fast` without failing
    // anything. Each digest was computed at the commit before its body
    // was shared; `simd` rides along as the strict monomorph of the same
    // code. The sixth digest pins the grid optimizer tail fed by each
    // backend's own scatter (three steps on a 3-level fp16 grid); its
    // value was taken through `scan → HashGrid::apply_sparse_step →
    // GridGradients::zero` at the commit before the consuming sweep
    // existed.
    const PINNED: [(&str, [u64; 6]); 2] = [
        (
            "fast",
            [
                0x2e6576a5c47abb5c,
                0x2286f9b57a68e3f1,
                0x02fcde448523b932,
                0x679b54daa1fd5456,
                0x0cf50e1fc3fb2a6f,
                0x28c42bc4e65c66d2,
            ],
        ),
        (
            "simd",
            [
                0x12d5c9645dc31198,
                0x90a103f752fc0459,
                0x042d55ce15de4bfc,
                0x596a0ac1a63d64a5,
                0x1da64951f3eadc7d,
                0x0387fe949943c83b,
            ],
        ),
    ];
    let g = training_grid(97);
    let w = g.output_dim();
    // Layers 7→13→6→3: `in_dim % 4` ∈ {3, 1, 2} (forward tails) and
    // `out_dim % 4` ∈ {1, 2, 3} (input-gradient tails).
    let mlp = Mlp::new(
        MlpConfig::new(7, &[13, 6], 3, Activation::Relu, Activation::Sigmoid),
        &mut StdRng::seed_from_u64(97),
    );
    for (name, pinned) in PINNED {
        let backend = kernels::resolve(name);
        let mut digests = [FNV_OFFSET; 6];
        for n in [1usize, 7, 8, 9, 300, 1000] {
            let pts = points(n, 5000 + n as u64);
            let mut emb = vec![0.0f32; n * w];
            encode_chunk(&backend, &g, &pts, &mut emb);
            fnv1a(&mut digests[0], &emb);

            let d_out: Vec<f32> = (0..n * w).map(|i| 0.37 * ((i % 11) as f32 - 5.0)).collect();
            let mut grads = g.zero_grads();
            g.par_backward_batch_with(&backend, &pts, &d_out, &mut grads);
            fnv1a(&mut digests[1], &grads.values);

            // dense = 0.5 integrates the full ray; 5000 early-terminates.
            let mut rng = StdRng::seed_from_u64(6000 + n as u64);
            for dense in [0.5f32, 5000.0] {
                let t: Vec<f32> = (0..n).map(|k| (k as f32 + 0.5) / n as f32).collect();
                let dt = vec![1.0 / n as f32; n];
                let sigma: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() * dense).collect();
                let rgb: Vec<Vec3> = (0..n)
                    .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                    .collect();
                let mut cache = [vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]];
                let [cw, ct, co] = &mut cache;
                let (out, active) = backend.composite_ray(
                    &t,
                    &dt,
                    &sigma,
                    &rgb,
                    Vec3::new(0.2, 0.4, 0.8),
                    Some((cw, ct, co)),
                );
                fnv1a(&mut digests[2], &flat(&out));
                fnv1a(&mut digests[2], &[active as f32]);
                for buf in &cache {
                    fnv1a(&mut digests[2], buf);
                }
            }
        }
        // Item tails `n % 4` ∈ {1, 2, 3} (parameter-gradient sweep), on
        // both sides of the parallel cutoff.
        for n in [1usize, 6, 7, 258, 1001] {
            let mut rng = StdRng::seed_from_u64(7000 + n as u64);
            let inputs: Vec<f32> = (0..n * 7).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
            let d_out: Vec<f32> = (0..n * 3).map(|_| rng.gen::<f32>() - 0.5).collect();
            let mut ws = mlp.batch_workspace(n);
            fnv1a(
                &mut digests[3],
                mlp.forward_batch_with(&backend, &inputs, &mut ws),
            );
            let mut grads = mlp.zero_grads();
            let mut d_in = vec![0.0f32; n * 7];
            mlp.backward_batch_with(&backend, &d_out, &mut ws, &mut grads, &mut d_in);
            for (gw, gb) in &grads.layers {
                fnv1a(&mut digests[4], gw);
                fnv1a(&mut digests[4], gb);
            }
            fnv1a(&mut digests[4], &d_in);
        }
        let mut tail_grid = grid(
            HashGridConfig {
                levels: 3,
                log2_table_size: 10,
                base_resolution: 4,
                max_resolution: 32,
                store_fp16: true,
                ..HashGridConfig::default()
            },
            97,
        );
        let mut opt = Adam::new(AdamConfig::for_grid(), tail_grid.num_params());
        let mut grads = tail_grid.zero_grads();
        let tw = tail_grid.output_dim();
        for step in 0..3u64 {
            let pts = points(300, 8000 + step);
            let d_out: Vec<f32> = (0..300 * tw)
                .map(|i| 0.37 * ((i % 11) as f32 - 5.0))
                .collect();
            tail_grid.par_backward_batch_with(&backend, &pts, &d_out, &mut grads);
            tail_grid.apply_step_consuming(&mut opt, &mut grads);
        }
        fnv1a(&mut digests[5], tail_grid.params());
        let versions: Vec<f32> = tail_grid
            .level_versions()
            .iter()
            .map(|&v| v as f32)
            .collect();
        fnv1a(&mut digests[5], &versions);
        assert_eq!(
            digests, pinned,
            "{name} [encode, scatter, composite, mlp forward, mlp backward, grid optimizer tail] digests: {digests:#018x?}"
        );
    }
}
