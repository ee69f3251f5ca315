//! The differential harness pinning every built-in kernel backend to
//! the scalar reference kernels, bit for bit.
//!
//! Every hot kernel (grid encode, grid backward-scatter, MLP forward /
//! backward, per-ray compositing) is run on **every built-in backend**
//! (`instant3d_nerf::kernels::registered()` — scalar, simd, checked; a
//! backend cannot join that list without entering this harness) over batch
//! sizes that exercise the remainder tails (`N % 8 != 0` for the lane
//! kernels; item tails of the MLP's register tiles and 32-item blocks),
//! the empty batch, single points, lane-exact batches and multi-chunk
//! batches — plus adversarial table contents: fp16-quantized features
//! including subnormals and signed zeros, and tiny hash tables that force
//! lane-internal address collisions — and MLP shapes across the narrow
//! and eight-wide tiles, every activation's derivative on edge values and
//! the column-cut input gradient. Equality is asserted on raw bits
//! (`assert_eq!` on `f32` is bitwise up to `0.0 == -0.0`; sign checks
//! cover the zero cases explicitly where they matter).

use instant3d_nerf::activation::{Activation, TRUNC_EXP_BOUND};
use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::fp16::{self, F16};
use instant3d_nerf::grid::{HashGrid, HashGridConfig};
use instant3d_nerf::kernels::{self, BackendHandle};
use instant3d_nerf::math::Vec3;
use instant3d_nerf::mlp::{Mlp, MlpBatchWorkspace, MlpConfig};
use instant3d_nerf::render::{
    composite_slices, integrated_prefix, RenderOutput, EARLY_STOP_TRANSMITTANCE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch sizes that cover N=0, N=1, sub-lane, lane-exact, lane+tail and
/// multi-chunk (the parallel dispatch chunks at 256) shapes, with every
/// `N % 4` (the MLP tiles' item counts divide 8) on both sides of the
/// MLP's parallel cutoff.
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

/// Default-shaped grid (dense + hashed levels).
fn training_grid(seed: u64) -> HashGrid {
    grid(
        HashGridConfig {
            levels: 4,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 64,
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
            log2_table_size: 4, // 16 entries vs 35937 fine-level vertices
            base_resolution: 4,
            max_resolution: 32,
            init_scale: 0.3,
            ..HashGridConfig::default()
        },
        seed,
    )
}

/// Overwrites some grid features with fp16 edge values the lane kernels
/// must reproduce exactly: subnormals, ±0 and values that round when
/// narrowed to fp16.
fn poison_with_fp16_edges(g: &mut HashGrid) {
    let edges = [
        f32::from_bits(0x0000_0001),  // would underflow fp16 to +0
        -f32::from_bits(0x0000_0001), // → −0
        (2.0f32).powi(-24),           // smallest positive fp16 subnormal
        -(2.0f32).powi(-24),
        (2.0f32).powi(-14) - (2.0f32).powi(-24), // largest fp16 subnormal
        0.0,
        -0.0,
        0.1, // not fp16-representable → rounds
        -65504.0,
    ];
    let n = g.num_params();
    for (k, &v) in edges.iter().cycle().take(n.min(4096)).enumerate() {
        g.params_mut()[k * 97 % n] = F16::from_f32(v);
    }
}

#[test]
fn grid_encode_backends_bit_equal_scalar_across_batch_shapes() {
    let g = training_grid(7);
    let w = g.output_dim();
    for &n in &BATCH_SIZES {
        let pts = points(n, 1000 + n as u64);
        let mut scalar = vec![0.0f32; n * w];
        let mut lanes = vec![0.0f32; n * w];
        encode_chunk(&kernels::scalar(), &g, &pts, &mut scalar);
        encode_chunk(&kernels::simd(), &g, &pts, &mut lanes);
        assert_eq!(bits(&scalar), bits(&lanes), "encode n={n}");
        // And through the backend dispatcher (chunked parallel path), for
        // every registered backend.
        for backend in kernels::registered() {
            let mut dispatched = vec![0.0f32; n * w];
            g.par_encode_batch_with(&backend, &pts, &mut dispatched);
            assert_eq!(
                bits(&scalar),
                bits(&dispatched),
                "par encode {backend} n={n}"
            );
        }
    }
}

#[test]
fn grid_backward_backends_bit_equal_scalar_across_batch_shapes() {
    let g = training_grid(11);
    let w = g.output_dim();
    for &n in &BATCH_SIZES {
        let pts = points(n, 2000 + n as u64);
        let d_out: Vec<f32> = (0..n * w).map(|i| 0.37 * ((i % 11) as f32 - 5.0)).collect();
        let mut scalar = g.zero_grads();
        g.par_backward_batch_with(&kernels::scalar(), &pts, &d_out, &mut scalar);
        for backend in kernels::registered() {
            let mut lanes = g.zero_grads();
            g.par_backward_batch_with(&backend, &pts, &d_out, &mut lanes);
            assert_eq!(
                bits(&scalar.values),
                bits(&lanes.values),
                "scatter {backend} n={n}"
            );
            assert_eq!(scalar.count, lanes.count);
        }
    }
}

#[test]
fn grid_kernels_agree_under_hash_collision_aliasing() {
    // Tiny hashed tables: lanes repeatedly hit the same entries, so any
    // reordering of the scatter accumulation (or of gather arithmetic)
    // would change bits here first.
    let g = colliding_grid(13);
    let w = g.output_dim();
    for &n in &[1usize, 8, 9, 41, 128] {
        let pts = points(n, 3000 + n as u64);
        let mut a = vec![0.0f32; n * w];
        let mut b = vec![0.0f32; n * w];
        encode_chunk(&kernels::scalar(), &g, &pts, &mut a);
        encode_chunk(&kernels::simd(), &g, &pts, &mut b);
        assert_eq!(bits(&a), bits(&b), "colliding encode n={n}");

        let d_out: Vec<f32> = (0..n * w).map(|i| ((i % 5) as f32 - 2.0) * 0.51).collect();
        let mut ga = g.zero_grads();
        let mut gb = g.zero_grads();
        g.par_backward_batch_with(&kernels::scalar(), &pts, &d_out, &mut ga);
        g.par_backward_batch_with(&kernels::simd(), &pts, &d_out, &mut gb);
        assert_eq!(
            bits(&ga.values),
            bits(&gb.values),
            "colliding scatter n={n}"
        );
    }
}

/// Points whose coordinates are the cell-conversion edge cases of the
/// lane kernels — NaN, ±0, 1, just below 1, above 1 and below 0 — in
/// every combination, each after a run of ordinary points so they land
/// on every lane, then a lane tail.
fn edge_points() -> Vec<Vec3> {
    let edges = [
        f32::NAN,
        -0.0,
        0.0,
        1.0,
        1.0 - 1e-6,
        1.7,
        -0.3,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    let mut pts = Vec::new();
    let filler = points(edges.len().pow(3) + 5, 4200);
    for (i, &x) in edges.iter().enumerate() {
        for (j, &y) in edges.iter().enumerate() {
            for (k, &z) in edges.iter().enumerate() {
                pts.push(filler[(i * 7 + j * 3 + k) % filler.len()]);
                pts.push(Vec3::new(x, y, z));
            }
        }
    }
    pts.extend_from_slice(&filler[..5]);
    pts
}

/// Grids whose levels straddle a resolution of 2^23, where the lane
/// kernels switch from the biased conversion to the saturating cast,
/// next to the training-shaped grid.
fn edge_grids() -> Vec<HashGrid> {
    let wide = HashGridConfig {
        levels: 3,
        log2_table_size: 10,
        base_resolution: 1 << 22,
        max_resolution: 1 << 24,
        ..HashGridConfig::default()
    };
    let resolutions: Vec<u32> = wide.level_resolutions().collect();
    assert!(resolutions.iter().any(|&r| r < 1 << 23));
    assert!(resolutions.iter().any(|&r| r >= 1 << 23));
    let huge = HashGridConfig {
        levels: 2,
        log2_table_size: 10,
        base_resolution: 1 << 23,
        max_resolution: u32::MAX,
        ..HashGridConfig::default()
    };
    vec![training_grid(31), grid(wide, 32), grid(huge, 33)]
}

#[test]
fn grid_encode_bit_equal_scalar_on_cell_edge_positions() {
    let pts = edge_points();
    for (gi, g) in edge_grids().iter().enumerate() {
        let w = g.output_dim();
        let mut scalar = vec![0.0f32; pts.len() * w];
        encode_chunk(&kernels::scalar(), g, &pts, &mut scalar);
        for backend in kernels::registered() {
            let mut out = vec![0.0f32; pts.len() * w];
            encode_chunk(&backend, g, &pts, &mut out);
            assert_eq!(bits(&scalar), bits(&out), "edge encode {backend} grid {gi}");
        }
    }
}

#[test]
fn grid_scatter_bit_equal_scalar_on_cell_edge_positions() {
    let pts = edge_points();
    for (gi, g) in edge_grids().iter().enumerate() {
        let w = g.output_dim();
        let d_out: Vec<f32> = (0..pts.len() * w)
            .map(|i| 0.29 * ((i % 13) as f32 - 6.0))
            .collect();
        let mut scalar = g.zero_grads();
        g.par_backward_batch_with(&kernels::scalar(), &pts, &d_out, &mut scalar);
        for backend in kernels::registered() {
            let mut grads = g.zero_grads();
            g.par_backward_batch_with(&backend, &pts, &d_out, &mut grads);
            assert_eq!(
                bits(&scalar.values),
                bits(&grads.values),
                "edge scatter {backend} grid {gi}"
            );
        }
    }
}

#[test]
fn grid_encode_agrees_on_fp16_edge_features() {
    for seed in 0..4u64 {
        let mut g = training_grid(100 + seed);
        poison_with_fp16_edges(&mut g);
        let w = g.output_dim();
        let pts = points(57, 4000 + seed); // 57 = 7×8 + 1 tail
        let mut a = vec![0.0f32; pts.len() * w];
        let mut b = vec![0.0f32; pts.len() * w];
        encode_chunk(&kernels::scalar(), &g, &pts, &mut a);
        encode_chunk(&kernels::simd(), &g, &pts, &mut b);
        assert_eq!(bits(&a), bits(&b), "fp16-edge encode seed={seed}");
    }
}

#[test]
fn fp16_quantize_edge_cases_roundtrip() {
    // ±0 keep their sign through storage quantisation.
    assert_eq!(fp16::quantize(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(fp16::quantize(-0.0).to_bits(), (-0.0f32).to_bits());
    // Sub-fp16 magnitudes underflow to a signed zero.
    assert_eq!(fp16::quantize(1e-10).to_bits(), 0.0f32.to_bits());
    assert_eq!(fp16::quantize(-1e-10).to_bits(), (-0.0f32).to_bits());
    // fp16 subnormals are exact and idempotent.
    for e in -24..=-15 {
        let v = (2.0f32).powi(e);
        assert_eq!(fp16::quantize(v), v, "2^{e} must be exact");
        assert_eq!(fp16::quantize(-v), -v);
        assert_eq!(fp16::quantize(fp16::quantize(v)), fp16::quantize(v));
    }
    // Largest subnormal and smallest normal straddle 2^-14.
    let largest_sub = (2.0f32).powi(-14) - (2.0f32).powi(-24);
    assert_eq!(fp16::quantize(largest_sub), largest_sub);
    // Narrowing to fp16 storage and widening back is `quantize`, bitwise.
    let xs = [0.0, -0.0, 1e-10, -1e-10, (2.0f32).powi(-24), 0.1, -65504.0];
    let expect: Vec<u32> = xs.iter().map(|&x| fp16::quantize(x).to_bits()).collect();
    let stored: Vec<f32> = xs.iter().map(|&x| F16::from_f32(x).to_f32()).collect();
    assert_eq!(bits(&stored), expect);
}

#[test]
fn grid_subnormal_features_survive_a_widen_narrow_round_trip() {
    let mut g = training_grid(31);
    poison_with_fp16_edges(&mut g);
    // Widening a stored feature and narrowing it again is the identity…
    for (i, &h) in g.params().iter().enumerate() {
        assert_eq!(F16::from_f32(h.to_f32()), h, "feature {i}");
    }
    // …and the encode of the table is backend-independent even where
    // interpolation touches the poisoned (subnormal/±0) entries.
    let w = g.output_dim();
    let pts = points(33, 5000);
    let mut a = vec![0.0f32; pts.len() * w];
    let mut b = vec![0.0f32; pts.len() * w];
    encode_chunk(&kernels::scalar(), &g, &pts, &mut a);
    encode_chunk(&kernels::simd(), &g, &pts, &mut b);
    assert_eq!(bits(&a), bits(&b));
}

#[test]
fn mlp_forward_backends_bit_equal_scalar_across_widths_and_batches() {
    // Layer input widths cover in_dim % 4 ∈ {0, 1, 2, 3} (64/16/8, 13, 6,
    // 11/7); output widths the eight-wide tile alone (64), the narrow one
    // alone (1, 3, 5, 2) and both (13).
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
            for backend in kernels::registered() {
                let mut ws_b = mlp.batch_workspace(n);
                let b = mlp
                    .forward_batch_with(&backend, &inputs, &mut ws_b)
                    .to_vec();
                assert_eq!(bits(&a), bits(&b), "mlp fwd {backend} out={out_dim} n={n}");
            }
        }
    }
}

#[test]
fn mlp_backward_backends_bit_equal_scalar() {
    // Layer output widths cover out_dim % 4 ∈ {0, 1, 2, 3} (64, 13, 6, 3);
    // input-gradient widths 10, 64, 13 and 6 cover every column tile.
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
            for backend in kernels::registered() {
                let (gb, db) = run(&backend);
                assert_eq!(ga.count, gb.count);
                for (li, ((wa, ba), (wb, bb))) in ga.layers.iter().zip(&gb.layers).enumerate() {
                    assert_eq!(
                        bits(wa),
                        bits(wb),
                        "{backend} layer {li} weight grads n={n}"
                    );
                    assert_eq!(bits(ba), bits(bb), "{backend} layer {li} bias grads n={n}");
                }
                assert_eq!(bits(&da), bits(&db), "{backend} input grads n={n}");
            }
        }
    }
}

/// Every activation, in the order the edge-case tests walk them.
const ACTIVATIONS: [Activation; 5] = [
    Activation::None,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::TruncExp,
    Activation::Softplus,
];

/// One forward + backward of `mlp` through `backend` on a pool of
/// `workers` workers, asking for `k` input-gradient columns: the output,
/// every parameter gradient, the input gradient and the sample count, as
/// bits.
fn mlp_pass(
    mlp: &Mlp,
    backend: &BackendHandle,
    workers: usize,
    inputs: &[f32],
    d_out: &[f32],
    k: usize,
) -> Vec<Vec<u32>> {
    let n = inputs.len() / mlp.in_dim();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workers)
        .build()
        .unwrap();
    pool.install(|| {
        let mut ws = mlp.batch_workspace(n);
        let mut out = vec![bits(mlp.forward_batch_with(backend, inputs, &mut ws))];
        let mut grads = mlp.zero_grads();
        let mut d_in = vec![0.0f32; n * k];
        mlp.backward_batch_with(backend, d_out, &mut ws, &mut grads, &mut d_in);
        for (gw, gb) in &grads.layers {
            out.extend([bits(gw), bits(gb)]);
        }
        out.extend([bits(&d_in), vec![grads.count as u32]]);
        out
    })
}

/// Asserts every registered backend matches the scalar reference on `mlp`
/// at each worker count, bit for bit — except that with `one_nan` every
/// NaN counts as one value. Sign and payload of a NaN are not part of the
/// contract: when two NaNs meet in one add or multiply, which operand's
/// survives is the compiler's choice (it may commute either operation),
/// in the reference bodies as in the tiled ones, and a negation (as in
/// `Sigmoid`'s `exp(-x)`) flips a NaN's sign.
fn assert_mlp_backends_match(
    mlp: &Mlp,
    (inputs, d_out, k): (&[f32], &[f32], usize),
    workers: &[usize],
    one_nan: bool,
    what: &str,
) {
    let canon = |pass: Vec<Vec<u32>>| -> Vec<Vec<u32>> {
        let nan = |b: u32| one_nan && f32::from_bits(b).is_nan();
        pass.into_iter()
            .map(|v| {
                v.into_iter()
                    .map(|b| if nan(b) { f32::NAN.to_bits() } else { b })
                    .collect()
            })
            .collect()
    };
    let reference = canon(mlp_pass(mlp, &kernels::scalar(), 1, inputs, d_out, k));
    // `checked` shadows `simd` and panics on any bit difference, NaN
    // payloads included, so NaN-carrying passes compare `simd` alone.
    let backends = kernels::registered()
        .into_iter()
        .filter(|b| !one_nan || b.name() != "checked");
    for &w in workers {
        for backend in backends.clone() {
            let got = canon(mlp_pass(mlp, &backend, w, inputs, d_out, k));
            for (b, (g, r)) in got.iter().zip(&reference).enumerate() {
                if let Some(i) = (0..g.len()).find(|&i| g[i] != r[i]) {
                    panic!(
                        "{what}: {backend} at {w} workers: buffer {b}[{i}] = {:#010x}, reference {:#010x}",
                        g[i], r[i]
                    );
                }
            }
            assert_eq!(got, reference, "{what}: {backend} at {w} workers");
        }
    }
}

#[test]
fn mlp_activation_derivatives_bit_equal_scalar_on_edge_values() {
    // Input column 0 carries the edge value; every other input is a
    // negative finite, so a unit reading column 0 with weight 1 (bias
    // -0.0, zero elsewhere) has exactly that pre-activation, -0.0 included.
    let tiny = f32::from_bits(1);
    let edges = [
        0.0f32,
        -0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        tiny,
        -tiny,
        f32::MIN_POSITIVE / 3.0,
        -f32::MIN_POSITIVE / 3.0,
        TRUNC_EXP_BOUND,
        -TRUNC_EXP_BOUND,
        0.5,
        -2.0,
    ];
    // Finite upstream gradients show every derivative factor; infinite and
    // NaN ones make a derivative select that skips the `d * 0.0` multiply
    // turn NaN into zero.
    let finite = [1.0f32, -0.75, 3.0, 0.5, -2.0, 0.25, -1.5, 2.0];
    let special = [
        1.0f32,
        -0.75,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.0,
        -0.0,
        3.0,
    ];
    let (iw, width) = (5, 9);
    for hidden_act in ACTIVATIONS {
        for out_act in ACTIVATIONS {
            // One layer puts the edge values on the output activation; two
            // put them on the hidden one, under each output activation.
            for hidden in [&[][..], &[12]] {
                let mut rng = StdRng::seed_from_u64(41);
                let mut mlp = Mlp::new(
                    MlpConfig::new(iw, hidden, width, hidden_act, out_act),
                    &mut rng,
                );
                let mut slot = 0;
                mlp.for_each_param_mut(&mlp.zero_grads(), |p, _| {
                    match slot {
                        // The first layer's weights: even units read column
                        // 0 alone, odd units every other column.
                        0 => {
                            for (o, row) in p.chunks_exact_mut(iw).enumerate() {
                                for (i, w) in row.iter_mut().enumerate() {
                                    *w = match (o % 2, i) {
                                        (0, 0) => 1.0,
                                        (0, _) | (_, 0) => 0.0,
                                        _ => *w,
                                    };
                                }
                            }
                        }
                        1 => p.fill(-0.0),
                        _ => {}
                    }
                    slot += 1;
                });
                let what = format!("{hidden_act:?} hidden {hidden:?}, {out_act:?} out");
                let (mut xs, mut ds) = (Vec::new(), Vec::new());
                for (e, &edge) in edges.iter().enumerate() {
                    for upstream in [finite, special] {
                        let x: Vec<f32> = (0..iw)
                            .map(|c| {
                                if c == 0 {
                                    edge
                                } else {
                                    -0.25 - c as f32 / 16.0
                                }
                            })
                            .collect();
                        let d: Vec<f32> = (0..width).map(|o| upstream[(o + e) % 8]).collect();
                        // Alone, an item's bias gradients are its `dz`, bit
                        // for bit: no other item's infinity reaches them.
                        let what = format!("{what}, edge {edge:e}, upstream {d:?}");
                        assert_mlp_backends_match(&mlp, (&x, &d, iw), &[1], true, &what);
                        xs.extend(x);
                        ds.extend(d);
                    }
                }
                // Every item four times in one batch: the block tiles and
                // the pool.
                let (xs, ds) = (xs.repeat(4), ds.repeat(4));
                assert_mlp_backends_match(&mlp, (&xs, &ds, iw), &[1, 4], true, &what);
            }
        }
    }
}

#[test]
fn mlp_tile_and_block_edges_bit_equal_scalar_at_every_worker_count() {
    // Input widths with `in_dim % 16` ∈ {0, 1, 15}; output widths across
    // the narrow (< 8) and wide (groups of 8) tiles and their mixes; batch
    // sizes either side of the 32-item block and two-block boundaries.
    const IN_DIMS: [usize; 3] = [16, 17, 31];
    const OUT_DIMS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 65];
    const SIZES: [usize; 8] = [0, 1, 31, 32, 33, 63, 64, 65];
    for in_dim in IN_DIMS {
        for out_dim in OUT_DIMS {
            let mut rng = StdRng::seed_from_u64((in_dim * 100 + out_dim) as u64);
            let mlp = Mlp::new(
                MlpConfig::new(
                    in_dim,
                    &[out_dim],
                    out_dim,
                    Activation::Relu,
                    Activation::Sigmoid,
                ),
                &mut rng,
            );
            for n in SIZES {
                let inputs: Vec<f32> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..=1.0)).collect();
                let d_out: Vec<f32> = (0..n * out_dim)
                    .map(|_| rng.gen_range(-1.0..=1.0))
                    .collect();
                let what = format!("{in_dim}->{out_dim}->{out_dim} n={n}");
                let batch = (&inputs[..], &d_out[..], in_dim);
                // One block never takes the pool, whatever the worker count.
                let workers: &[usize] = if n <= 32 { &[1] } else { &[1, 2, 4, 8] };
                assert_mlp_backends_match(&mlp, batch, workers, false, &what);
            }
        }
    }
    // The capture heads at the capture batch scale (~3,300 samples a step),
    // with the colour head's narrow input gradient.
    for (in_dim, out_dim, k) in [(16usize, 1usize, 16usize), (32, 3, 16)] {
        let mut rng = StdRng::seed_from_u64(3300 + in_dim as u64);
        let mlp = Mlp::new(
            MlpConfig::new(
                in_dim,
                &[64],
                out_dim,
                Activation::Relu,
                Activation::TruncExp,
            ),
            &mut rng,
        );
        let n = 3301;
        let inputs: Vec<f32> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let d_out: Vec<f32> = (0..n * out_dim)
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect();
        let what = format!("{in_dim}->64->{out_dim} n={n}");
        let batch = (&inputs[..], &d_out[..], k);
        // Every worker count in release (its own CI step); two in debug.
        let workers: &[usize] = if cfg!(debug_assertions) {
            &[1, 4]
        } else {
            &[1, 2, 4, 8]
        };
        assert_mlp_backends_match(&mlp, batch, workers, false, &what);
    }
}

#[test]
fn mlp_forward_only_bit_equal_retained_at_every_worker_count() {
    // A forward-only pass runs one contiguous run of 32-item blocks per
    // worker on one block of scratch; these sizes put the block edges on,
    // before and after item boundaries, with more workers than blocks at
    // 8 workers (65 items are three blocks).
    let mut rng = StdRng::seed_from_u64(256);
    let mlp = Mlp::new(
        MlpConfig::new(17, &[64], 3, Activation::Relu, Activation::Sigmoid),
        &mut rng,
    );
    let iw = mlp.in_dim();
    for n in [0usize, 1, 31, 32, 33, 65, 1000, 2049] {
        let inputs: Vec<f32> = (0..n * iw).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let want =
            bits(mlp.forward_batch_with(&kernels::scalar(), &inputs, &mut mlp.batch_workspace(n)));
        for backend in kernels::registered() {
            let mut ws = MlpBatchWorkspace::default();
            for workers in [1usize, 2, 3, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .unwrap();
                let (retained, forward_only) = pool.install(|| {
                    let retained = bits(mlp.forward_batch_with(
                        &backend,
                        &inputs,
                        &mut mlp.batch_workspace(0),
                    ));
                    let out = ws.forward_only(&backend, &mlp, n, |items, rows| {
                        rows.copy_from_slice(&inputs[items.start * iw..items.end * iw]);
                    });
                    (retained, bits(out))
                });
                assert_eq!(retained, want, "{backend} n={n} t{workers} retained");
                assert_eq!(
                    forward_only, want,
                    "{backend} n={n} t{workers} forward-only"
                );
                assert!(ws.is_empty(), "a forward-only pass keeps no activations");
            }
        }
    }
}

#[test]
fn mlp_batch_workspace_serves_a_deeper_network() {
    // A workspace shaped by a one-hidden-layer network, reused on a
    // two-hidden-layer one, must give a fresh workspace's bits in both
    // modes: the driver sizes its per-layer scratch on every call.
    let mut rng = StdRng::seed_from_u64(48);
    let cfg = |hidden: &[usize]| MlpConfig::new(9, hidden, 3, Activation::Relu, Activation::None);
    let shallow = Mlp::new(cfg(&[16]), &mut rng);
    let deep = Mlp::new(cfg(&[16, 16]), &mut rng);
    let n = 70;
    let inputs: Vec<f32> = (0..n * 9).map(|_| rng.gen_range(-1.0..=1.0)).collect();
    let fill = |items: std::ops::Range<usize>, rows: &mut [f32]| {
        rows.copy_from_slice(&inputs[items.start * 9..items.end * 9]);
    };
    for backend in kernels::registered() {
        let want = bits(deep.forward_batch_with(&backend, &inputs, &mut deep.batch_workspace(n)));
        let mut ws = shallow.batch_workspace(n);
        shallow.forward_batch_with(&backend, &inputs, &mut ws);
        let got = bits(deep.forward_batch_with(&backend, &inputs, &mut ws));
        assert_eq!(got, want, "{backend} retained");
        let mut ws = shallow.batch_workspace(n);
        ws.forward_only(&backend, &shallow, n, fill);
        let got = bits(ws.forward_only(&backend, &deep, n, fill));
        assert_eq!(got, want, "{backend} forward-only");
    }
}

#[test]
fn mlp_parameter_gradient_runs_bit_equal_scalar_across_run_boundaries() {
    // The parameter-gradient sweep runs its tiles over runs of 16 blocks
    // of 32 items (`mlp::RUN` × `mlp::BLOCK`). These batches span two full
    // runs and a ragged third: three blocks, the last of 1 item, or one
    // block of 31 items.
    const RUN_ITEMS: usize = 16 * 32;
    const SIZES: [usize; 2] = [2 * RUN_ITEMS + 2 * 32 + 1, 2 * RUN_ITEMS + 31];
    // The capture heads, then a first layer of 27 inputs, whose 3-column
    // tail runs once per run too.
    for (in_dim, out_dim, k) in [(16usize, 1usize, 16usize), (32, 3, 16), (27, 3, 27)] {
        let mut rng = StdRng::seed_from_u64(512 + in_dim as u64);
        let mlp = Mlp::new(
            MlpConfig::new(
                in_dim,
                &[64],
                out_dim,
                Activation::Relu,
                Activation::Sigmoid,
            ),
            &mut rng,
        );
        for n in SIZES {
            let inputs: Vec<f32> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let d_out: Vec<f32> = (0..n * out_dim)
                .map(|_| rng.gen_range(-1.0..=1.0))
                .collect();
            let what = format!("{in_dim}->64->{out_dim} n={n}");
            let batch = (&inputs[..], &d_out[..], k);
            assert_mlp_backends_match(&mlp, batch, &[1, 2, 4], false, &what);
        }
    }
}

#[test]
fn mlp_narrow_input_gradient_is_the_leading_columns_of_the_full_one() {
    let in_dim = 19;
    let mut rng = StdRng::seed_from_u64(19);
    let mlp = Mlp::new(
        MlpConfig::new(in_dim, &[64], 3, Activation::Relu, Activation::Sigmoid),
        &mut rng,
    );
    for n in [7usize, 100, 300] {
        let inputs: Vec<f32> = (0..n * in_dim).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let d_out: Vec<f32> = (0..n * 3).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        // `mlp_pass` ends with the input gradient and the sample count.
        let full = mlp_pass(&mlp, &kernels::scalar(), 1, &inputs, &d_out, in_dim);
        let at = full.len() - 2;
        for k in [0, 1, in_dim - 1, in_dim] {
            let expect: Vec<u32> = full[at]
                .chunks_exact(in_dim)
                .flat_map(|row| row[..k].to_vec())
                .collect();
            for backend in kernels::registered() {
                for workers in [1, 4] {
                    let got = mlp_pass(&mlp, &backend, workers, &inputs, &d_out, k);
                    assert_eq!(
                        got[at], expect,
                        "{backend} k={k} n={n} at {workers} workers"
                    );
                    assert_eq!(got[..at], full[..at], "{backend} k={k} n={n} gradients");
                    assert_eq!(got[at + 1], full[at + 1], "{backend} k={k} n={n} count");
                }
            }
        }
    }
}

#[test]
fn composite_backends_bit_equal_scalar_including_early_termination() {
    let mut rng = StdRng::seed_from_u64(5);
    for &n in &BATCH_SIZES {
        for &dense in &[0.5f32, 50.0, 5000.0] {
            // High densities terminate early (mid-lane for n >= 8).
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
            for backend in kernels::registered() {
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
                assert_eq!(out_a, out_b, "{backend} render output n={n} dense={dense}");
                assert_eq!(act_a, act_b, "{backend} active count n={n} dense={dense}");
                assert_eq!(bits(&cw_a), bits(&cw_b), "{backend} weights cache n={n}");
                assert_eq!(bits(&ct_a), bits(&ct_b), "{backend} trans cache n={n}");
                assert_eq!(bits(&co_a), bits(&co_b), "{backend} alpha cache n={n}");
            }
        }
    }
}

/// Asserts that the σ-only prefix rule counts the samples the scalar
/// compositor and every registered backend's `composite_ray` integrate on
/// the ray `(dt, sigma)`, NaN rays included: the compositor rejects a
/// negative σ and lets a NaN through in every build profile.
fn assert_prefix_is_the_integrated_count(dt: &[f32], sigma: &[f32], label: &str) {
    let n = dt.len();
    let t: Vec<f32> = (0..n).map(|k| k as f32).collect();
    let rgb = vec![Vec3::new(0.3, 0.6, 0.9); n];
    let bg = Vec3::new(0.2, 0.4, 0.8);
    let prefix = integrated_prefix(dt, sigma);
    let (_, active) = composite_slices(&t, dt, sigma, &rgb, bg, None);
    assert_eq!(prefix, active, "{label}: scalar compositor");
    for backend in kernels::registered() {
        let (_, active) = backend.composite_ray(&t, dt, sigma, &rgb, bg, None);
        assert_eq!(prefix, active, "{label}: {backend} composite_ray");
    }
}

#[test]
fn integrated_prefix_equals_every_compositor_count() {
    // σ edge values: zero, the smallest subnormal, +∞ (which terminates
    // at δ > 0 and is a NaN product at δ = 0) and NaN.
    let specials = [0.0f32, f32::from_bits(1), f32::INFINITY, f32::NAN];
    let mut rng = StdRng::seed_from_u64(45);
    for n in [0usize, 1, 7, 8, 9, 65] {
        for case in 0..64 {
            let dense = [0.5f32, 50.0, 5000.0][case % 3];
            let sigma: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..8) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    _ => rng.gen::<f32>() * dense,
                })
                .collect();
            let dt: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => 0.0,
                    _ => rng.gen::<f32>() / n as f32,
                })
                .collect();
            assert_prefix_is_the_integrated_count(&dt, &sigma, &format!("n={n} case={case}"));
        }
    }

    // A transmittance that lands exactly on the threshold does not stop
    // the ray: the rule is a strict `<`. The first sample takes the
    // transmittance to just above it, the second (δ = 1) multiplies it
    // down by a factor `1 − j·2⁻²⁴`; search `j` for an exact landing.
    let first = 9.2103f32;
    let step = f32::EPSILON / 2.0;
    let landing = (1..4096)
        .map(|j| j as f32 * step)
        .find(|&s| (-first).exp() * (-s).exp() == EARLY_STOP_TRANSMITTANCE)
        .expect("some factor lands on the threshold");
    let dt = [1.0f32, 1.0, 1.0];
    let sigma = [first, landing, 0.25];
    let (out, _) = composite_slices(
        &[0.0, 1.0],
        &dt[..2],
        &sigma[..2],
        &[Vec3::ONE; 2],
        Vec3::ZERO,
        None,
    );
    assert_eq!(out.transmittance, EARLY_STOP_TRANSMITTANCE, "lands exactly");
    assert_eq!(
        integrated_prefix(&dt, &sigma),
        3,
        "a landing does not stop the ray"
    );
    assert_prefix_is_the_integrated_count(&dt, &sigma, "exact landing");
}

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

/// FNV-1a (64-bit) over the little-endian bit patterns of `xs`.
fn fnv1a(hash: &mut u64, xs: &[f32]) {
    for b in xs.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn lane_kernel_bits_are_pinned_across_commits() {
    // The tests above compare backends with each other within one
    // commit; these digests hold the `simd` backend's bits equal across
    // commits, so a refactor that re-rounds every backend at once still
    // fails. Each digest was computed at the commit before its body was
    // shared between backends. The sixth digest pins the grid optimizer
    // tail fed by the backend's own scatter (three steps on a 3-level fp16
    // grid); its value was taken through `scan →
    // HashGrid::apply_sparse_step → GridGradients::zero` at the commit
    // before the consuming sweep existed.
    const PINNED: [u64; 6] = [
        0x12d5c9645dc31198,
        0x90a103f752fc0459,
        0x042d55ce15de4bfc,
        0x596a0ac1a63d64a5,
        0x1da64951f3eadc7d,
        0x0387fe949943c83b,
    ];
    let g = training_grid(97);
    let w = g.output_dim();
    // Layers 7→13→6→3: `in_dim % 4` ∈ {3, 1, 2} (forward tails) and
    // `out_dim % 4` ∈ {1, 2, 3} (input-gradient tails).
    let mlp = Mlp::new(
        MlpConfig::new(7, &[13, 6], 3, Activation::Relu, Activation::Sigmoid),
        &mut StdRng::seed_from_u64(97),
    );
    let backend = kernels::simd();
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
    let table: Vec<f32> = tail_grid.params().iter().map(|h| h.to_f32()).collect();
    fnv1a(&mut digests[5], &table);
    let versions: Vec<f32> = tail_grid
        .level_versions()
        .iter()
        .map(|&v| v as f32)
        .collect();
    fnv1a(&mut digests[5], &versions);
    assert_eq!(
        digests, PINNED,
        "simd [encode, scatter, composite, mlp forward, mlp backward, grid optimizer tail] digests: {digests:#018x?}"
    );
}

proptest! {
    /// Random batch sizes (biased around lane multiples), random points,
    /// random seeds: encode and scatter agree bitwise on both a
    /// training-shaped grid and a collision-heavy grid.
    #[test]
    fn prop_grid_kernels_backend_invariant(
        n in 0usize..70,
        seed in 0u64..24,
        colliding in any::<bool>())
    {
        let g = if colliding { colliding_grid(seed) } else { training_grid(seed) };
        let w = g.output_dim();
        let pts = points(n, seed.wrapping_mul(31) + n as u64);
        let mut a = vec![0.0f32; n * w];
        let mut b = vec![0.0f32; n * w];
        encode_chunk(&kernels::scalar(), &g, &pts, &mut a);
        encode_chunk(&kernels::simd(), &g, &pts, &mut b);
        prop_assert_eq!(bits(&a), bits(&b));

        let d_out: Vec<f32> = (0..n * w).map(|i| ((i % 23) as f32 - 11.0) * 0.17).collect();
        let mut ga = g.zero_grads();
        let mut gb = g.zero_grads();
        g.par_backward_batch_with(&kernels::scalar(), &pts, &d_out, &mut ga);
        g.par_backward_batch_with(&kernels::simd(), &pts, &d_out, &mut gb);
        prop_assert_eq!(bits(&ga.values), bits(&gb.values));
    }

    /// Random MLP shapes and batch sizes: forward and backward agree
    /// bitwise across backends.
    #[test]
    fn prop_mlp_backend_invariant(
        n in 0usize..40,
        hidden in 1usize..70,
        out_dim in 1usize..12,
        seed in 0u64..16)
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            MlpConfig::new(5, &[hidden], out_dim, Activation::Relu, Activation::Sigmoid),
            &mut rng,
        );
        let inputs: Vec<f32> = (0..n * 5).map(|i| ((i % 19) as f32 - 9.0) * 0.09).collect();
        let d_out: Vec<f32> = (0..n * out_dim).map(|i| ((i % 7) as f32 - 3.0) * 0.41).collect();
        let run = |backend: &BackendHandle| {
            let mut ws = mlp.batch_workspace(n);
            let out = mlp.forward_batch_with(backend, &inputs, &mut ws).to_vec();
            let mut grads = mlp.zero_grads();
            let mut d_in = vec![0.0f32; n * 5];
            mlp.backward_batch_with(backend, &d_out, &mut ws, &mut grads, &mut d_in);
            (out, grads, d_in)
        };
        let (oa, ga, da) = run(&kernels::scalar());
        let (ob, gb, db) = run(&kernels::simd());
        prop_assert_eq!(bits(&oa), bits(&ob));
        prop_assert_eq!(bits(&da), bits(&db));
        for ((wa, ba), (wb, bb)) in ga.layers.iter().zip(&gb.layers) {
            prop_assert_eq!(bits(wa), bits(wb));
            prop_assert_eq!(bits(ba), bits(bb));
        }
    }

    /// Random rays: compositing agrees bitwise across backends, cache
    /// included, for densities spanning transparent to early-terminating.
    #[test]
    fn prop_composite_backend_invariant(
        sigmas in prop::collection::vec(0.0f32..200.0, 0..40),
        bg in (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0))
    {
        let n = sigmas.len();
        let t: Vec<f32> = (0..n).map(|k| (k as f32 + 0.5) / n.max(1) as f32).collect();
        let dt = vec![1.0 / n.max(1) as f32; n];
        let rgb: Vec<Vec3> = (0..n)
            .map(|k| Vec3::new(k as f32 / n.max(1) as f32, 0.5, 0.9))
            .collect();
        let background = Vec3::new(bg.0, bg.1, bg.2);
        let mut cw_a = vec![0.0f32; n];
        let mut ct_a = vec![0.0f32; n];
        let mut co_a = vec![0.0f32; n];
        let (oa, aa) = composite_slices(
            &t, &dt, &sigmas, &rgb, background,
            Some((&mut cw_a, &mut ct_a, &mut co_a)),
        );
        let mut cw_b = vec![0.0f32; n];
        let mut ct_b = vec![0.0f32; n];
        let mut co_b = vec![0.0f32; n];
        let (ob, ab) = kernels::simd().composite_ray(
            &t, &dt, &sigmas, &rgb, background,
            Some((&mut cw_b, &mut ct_b, &mut co_b)),
        );
        prop_assert_eq!(oa, ob);
        prop_assert_eq!(aa, ab);
        prop_assert_eq!(integrated_prefix(&dt, &sigmas), aa);
        prop_assert_eq!(bits(&cw_a), bits(&cw_b));
        prop_assert_eq!(bits(&ct_a), bits(&ct_b));
        prop_assert_eq!(bits(&co_a), bits(&co_b));
    }
}
