//! The differential harness pinning the hash-grid optimizer tail, bit
//! for bit, in both of its forms.
//!
//! The reference step's consuming sweep, `HashGrid::apply_step_consuming`,
//! is pinned to its reference: collect the `!= 0.0` gradient indices,
//! call `HashGrid::apply_sparse_step`, then `GridGradients::zero`. The
//! sweep is not a `Kernels` seam (there is one body for every backend), so
//! the axes here are gradient patterns the `!= 0.0` filter and the
//! per-level version bumps must treat exactly as the reference does, and
//! the edges of the eight-lane body: every tail length, fp16 boundary
//! parameters, infinite gradients and overflowing steps, one touched lane
//! in a group.
//!
//! The engine's fused step, `HashGrid::par_backward_step_with`, is pinned
//! to `HashGrid::par_backward_batch_with` followed by that sweep, for
//! every registered backend in pools of 1, 2, 4 and 8 workers. The fused
//! step dispatches the scatter and the sweep to their AVX2 arms where the
//! host has AVX2; its unit test in `grid.rs` runs their portable arms.
//!
//! Every case runs two identical steps and compares the parameters, both
//! Adam moments, the level versions and the step count after each.

use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::fp16::{self, F16};
use instant3d_nerf::grid::{GridGradients, HashGrid, HashGridConfig, LevelBuffers};
use instant3d_nerf::hash::AddressMode;
use instant3d_nerf::kernels;
use instant3d_nerf::math::Vec3;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pools the fused step runs in.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn grid(levels: usize, seed: u64) -> HashGrid {
    let cfg = HashGridConfig {
        levels,
        log2_table_size: 10,
        base_resolution: 4,
        max_resolution: 32,
        init_scale: 0.3,
        ..HashGridConfig::default()
    };
    HashGrid::new_random(cfg, &mut StdRng::seed_from_u64(seed))
}

/// `[start, end)` of each level in the flat parameter vector.
fn level_ranges(g: &HashGrid) -> Vec<(usize, usize)> {
    let f = g.config().features_per_entry;
    let mut start = 0;
    g.levels()
        .iter()
        .map(|l| {
            let range = (start, start + l.table_size as usize * f);
            start = range.1;
            range
        })
        .collect()
}

/// The tail the trainer ran before the sweep existed.
fn reference_step(g: &mut HashGrid, opt: &mut Adam, grads: &mut GridGradients) {
    let touched: Vec<usize> = (0..grads.values.len())
        .filter(|&i| grads.values[i] != 0.0)
        .collect();
    g.apply_sparse_step(opt, &grads.values, &touched);
    grads.zero();
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// The stored fp16 bits of a table, widened losslessly to `u32`.
fn table_bits(xs: &[F16]) -> Vec<u32> {
    xs.iter().map(|h| u32::from(h.0)).collect()
}

/// Everything of a grid + optimizer + gradient buffer visible from outside.
#[derive(Debug, PartialEq)]
struct State {
    params: Vec<u32>,
    m: Vec<u32>,
    v: Vec<u32>,
    level_versions: Vec<u64>,
    adam_steps: u64,
    grads: Vec<u32>,
    grad_count: usize,
}

fn state(g: &HashGrid, opt: &Adam, grads: &GridGradients) -> State {
    let (m, v) = opt.moments();
    State {
        params: table_bits(g.params()),
        m: bits(m),
        v: bits(v),
        level_versions: g.level_versions().to_vec(),
        adam_steps: opt.steps(),
        grads: bits(&grads.values),
        grad_count: grads.count,
    }
}

/// Two identical steps of `step` from the same start, filling the
/// gradient buffer through `fill` before each; the state after each step.
fn two_steps(
    g0: &HashGrid,
    cfg: AdamConfig,
    fill: &dyn Fn(&mut [f32]),
    step: &dyn Fn(&mut HashGrid, &mut Adam, &mut GridGradients),
) -> [State; 2] {
    let mut g = g0.clone();
    let mut opt = Adam::new(cfg, g.num_params());
    let mut grads = g.zero_grads();
    [(); 2].map(|()| {
        fill(&mut grads.values);
        grads.count = 17;
        step(&mut g, &mut opt, &mut grads);
        state(&g, &opt, &grads)
    })
}

/// Asserts the sweep equals the reference on `g0` under `fill`. Returns
/// the reference states for case-specific assertions.
fn assert_sweep_matches_reference(
    label: &str,
    g0: &HashGrid,
    fill: &dyn Fn(&mut [f32]),
) -> [State; 2] {
    assert_sweep_matches_reference_at(label, g0, AdamConfig::for_grid(), fill)
}

/// [`assert_sweep_matches_reference`] under an optimizer config of its own.
fn assert_sweep_matches_reference_at(
    label: &str,
    g0: &HashGrid,
    cfg: AdamConfig,
    fill: &dyn Fn(&mut [f32]),
) -> [State; 2] {
    let reference = two_steps(g0, cfg, fill, &reference_step);
    for s in &reference {
        assert!(s.grads.iter().all(|&b| b == 0) && s.grad_count == 0);
    }
    let swept = two_steps(g0, cfg, fill, &|g, opt, grads| {
        g.apply_step_consuming(opt, grads)
    });
    assert_eq!(swept, reference, "{label}: apply_step_consuming");
    reference
}

/// About a quarter of the entries non-zero, like a training step.
fn sparse_random(seed: u64) -> impl Fn(&mut [f32]) {
    move |values| {
        let mut rng = StdRng::seed_from_u64(seed);
        for v in values {
            if rng.gen::<f32>() < 0.25 {
                *v = rng.gen::<f32>() - 0.5;
            }
        }
    }
}

#[test]
fn sweep_bit_equals_reference_on_training_like_gradients() {
    for levels in [1usize, 3, 4] {
        let g = grid(levels, 40 + levels as u64);
        let [first, second] =
            assert_sweep_matches_reference(&format!("levels={levels}"), &g, &sparse_random(7));
        assert_eq!((first.adam_steps, second.adam_steps), (1, 2));
        assert_ne!(first.params, second.params, "the second step moved nothing");
        let round_trips = |b: &u32| {
            let h = F16(*b as u16);
            F16::from_f32(h.to_f32()) == h
        };
        assert!(second.params.iter().all(round_trips));
    }
}

#[test]
fn all_zero_gradients_take_no_step_and_bump_nothing() {
    let g = grid(3, 51);
    let [first, second] = assert_sweep_matches_reference("all-zero", &g, &|_| {});
    assert_eq!(first, second);
    assert_eq!(first.adam_steps, 0);
    assert_eq!(first.level_versions, g.level_versions());
    assert_eq!(first.params, table_bits(g.params()));
}

#[test]
fn negative_zero_is_skipped_and_nan_is_applied() {
    let g = grid(3, 52);
    let ranges = level_ranges(&g);
    // Level 0 holds only a `-0.0` (skipped: no bump, yet it must read
    // `+0.0` afterwards); level 2 holds a NaN (`NaN != 0.0`: applied).
    let (neg_zero_at, nan_at) = (ranges[0].0 + 3, ranges[2].0 + 5);
    let [first, _] = assert_sweep_matches_reference("-0.0 / NaN", &g, &|values| {
        values[neg_zero_at] = -0.0;
        values[nan_at] = f32::NAN;
    });
    assert_eq!(
        first.params[neg_zero_at],
        u32::from(g.params()[neg_zero_at].0)
    );
    assert!(F16(first.params[nan_at] as u16).is_nan());
    assert_eq!(first.level_versions[0], g.level_versions()[0]);
    assert_eq!(first.level_versions[1], g.level_versions()[1]);
    assert!(first.level_versions[2] > g.level_versions()[2]);
    assert_eq!(first.adam_steps, 1);
}

#[test]
fn untouched_level_between_two_touched_ones_keeps_its_version() {
    let g = grid(3, 53);
    let ranges = level_ranges(&g);
    let [first, second] = assert_sweep_matches_reference("gap level", &g, &|values| {
        // The last element of level 0 and the first of level 2: both sit
        // on a level boundary.
        values[ranges[0].1 - 1] = 0.75;
        values[ranges[2].0] = -0.5;
    });
    let v0 = g.level_versions();
    assert!(first.level_versions[0] > v0[0]);
    assert_eq!(first.level_versions[1], v0[1]);
    assert_eq!(first.level_versions[2], first.level_versions[0]);
    assert!(second.level_versions[0] > first.level_versions[0]);
    assert_eq!(second.level_versions[1], v0[1]);
}

/// A grid of `levels` levels of `len` scalars each: one-entry hashed
/// tables of `len` features.
fn grid_of_level_length(len: usize, levels: usize) -> HashGrid {
    let cfg = HashGridConfig {
        levels,
        features_per_entry: len,
        log2_table_size: 0,
        base_resolution: 4,
        max_resolution: 32,
        init_scale: 0.3,
    };
    HashGrid::new_random(cfg, &mut StdRng::seed_from_u64(60 + len as u64))
}

#[test]
fn every_lane_tail_length_matches_the_reference() {
    // Levels of 1–9 scalars, then 10–23: every `len % 8` with zero, one
    // and two full lane groups in front of it.
    for len in 1..=23 {
        let g = grid_of_level_length(len, 3);
        assert_eq!(level_ranges(&g).last(), Some(&(2 * len, 3 * len)));
        let [first, _] =
            assert_sweep_matches_reference(&format!("level length {len}"), &g, &|values| {
                for (i, v) in values.iter_mut().enumerate() {
                    // Every element of the last lane tail touched, every
                    // third elsewhere.
                    if i % len >= len / 8 * 8 || i % 3 == 0 {
                        *v = 0.25 - (i % 5) as f32 * 0.125;
                    }
                }
            });
        assert_eq!(first.adam_steps, 1, "len {len}");
    }
}

/// The largest fp16 subnormal, the smallest normal and the largest finite.
fn fp16_edges() -> [f32; 3] {
    let min_normal = (2.0f32).powi(-14);
    [min_normal - (2.0f32).powi(-24), min_normal, 65504.0]
}

#[test]
fn fp16_boundary_parameters_match_the_reference() {
    let edges = fp16_edges();
    for x in edges {
        assert_eq!(fp16::quantize(x), x);
    }
    // Learning rates that nudge an edge to the fp16 grid points next to it
    // (ties included), cross the subnormal/normal edge, and carry 65504 to
    // infinity.
    let lrs = [
        (2.0f32).powi(-26),
        (2.0f32).powi(-25),
        (2.0f32).powi(-24),
        (2.0f32).powi(-20),
        16.0,
        32.0,
    ];
    let mut g = grid(3, 54);
    for (i, p) in g.params_mut().iter_mut().enumerate() {
        let edge = edges[i % 3];
        *p = F16::from_f32(if i % 6 < 3 { edge } else { -edge });
    }
    for lr in lrs {
        let cfg = AdamConfig {
            lr,
            ..AdamConfig::for_grid()
        };
        let [first, _] =
            assert_sweep_matches_reference_at(&format!("lr={lr:e}"), &g, cfg, &|values| {
                for (i, v) in values.iter_mut().enumerate() {
                    // Both directions, and some edges left alone.
                    *v = [1.0, -1.0, 0.0, 1e-3, -1e-3][i % 5];
                }
            });
        if lr >= 32.0 {
            // 65504 + 32 rounds to 2^16: the step overflows to ±inf.
            let params = first.params.iter().map(|&b| F16(b as u16).to_f32());
            assert!(params.clone().any(|p| p == f32::INFINITY));
            assert!(params.clone().any(|p| p == f32::NEG_INFINITY));
        }
    }
}

#[test]
fn infinite_gradients_match_the_reference() {
    let g = grid(3, 55);
    let ranges = level_ranges(&g);
    let (pos_at, neg_at) = (ranges[1].0 + 9, ranges[2].1 - 1);
    let [first, _] = assert_sweep_matches_reference("±inf", &g, &|values| {
        values[pos_at] = f32::INFINITY;
        values[neg_at] = f32::NEG_INFINITY;
        values[pos_at + 1] = 0.5;
    });
    // m̂ / √v̂ is ∞ / ∞: the parameter becomes NaN, as in the reference.
    assert!(F16(first.params[pos_at] as u16).is_nan());
    assert!(F16(first.params[neg_at] as u16).is_nan());
    assert_ne!(
        first.params[pos_at + 1],
        u32::from(g.params()[pos_at + 1].0)
    );
}

#[test]
fn one_touched_lane_in_a_group_matches_the_reference() {
    let g = grid(3, 56);
    let ranges = level_ranges(&g);
    for lane in 0..8 {
        // One non-zero gradient in level 1's fourth lane group (lane groups
        // count from the level start).
        let at = ranges[1].0 + 3 * 8 + lane;
        let [first, _] = assert_sweep_matches_reference(&format!("lane {lane}"), &g, &|values| {
            values[at] = -0.75;
        });
        let before = table_bits(g.params());
        let changed: Vec<usize> = (0..before.len())
            .filter(|&i| first.params[i] != before[i])
            .collect();
        assert_eq!(changed, [at], "lane {lane}");
    }
}

/// A batch of unit-cube points and its embedding gradients, `n × L·F`
/// row-major, for the fused step.
struct Batch {
    points: Vec<Vec3>,
    d_out: Vec<f32>,
}

/// `n` random points and gradients in `[-1, 1]`, edited by `edit(point,
/// column, value)`.
fn batch(g: &HashGrid, n: usize, seed: u64, edit: &dyn Fn(usize, usize, f32) -> f32) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
        .collect();
    let w = g.output_dim();
    let d_out = (0..n * w)
        .map(|i| edit(i / w, i % w, rng.gen_range(-1.0..=1.0)))
        .collect();
    Batch { points, d_out }
}

/// Two identical `step`s on a copy of `g0`, with a fresh optimizer; the
/// state after each. There is no gradient buffer to compare.
fn two_batch_steps(g0: &HashGrid, step: &mut dyn FnMut(&mut HashGrid, &mut Adam)) -> [State; 2] {
    let mut g = g0.clone();
    let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
    let none = GridGradients {
        values: Vec::new(),
        count: 0,
    };
    [(); 2].map(|()| {
        step(&mut g, &mut opt);
        state(&g, &opt, &none)
    })
}

/// Asserts the fused step on `buffers` equals scatter → sweep, for every
/// registered backend in every pool, and that the fused step makes at
/// most one buffer per worker. Returns the states of the last run.
fn assert_fused_matches_scatter_then_sweep(
    label: &str,
    g0: &HashGrid,
    b: &Batch,
    buffers: &mut LevelBuffers,
) -> [State; 2] {
    let mut reference = None;
    for backend in kernels::registered() {
        let expected = two_batch_steps(g0, &mut |g, opt| {
            let mut grads = g.zero_grads();
            g.par_backward_batch_with(&backend, &b.points, &b.d_out, &mut grads);
            g.apply_step_consuming(opt, &mut grads);
        });
        for workers in WORKERS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .unwrap();
            let made = buffers.count();
            let fused = pool.install(|| {
                two_batch_steps(g0, &mut |g, opt| {
                    g.par_backward_step_with(&backend, &b.points, &b.d_out, opt, buffers);
                })
            });
            assert_eq!(fused, expected, "{label}: {backend} t{workers}");
            assert!(
                buffers.count() <= made.max(workers),
                "{label}: {} buffers after a {workers}-worker step",
                buffers.count()
            );
        }
        reference = Some(expected);
    }
    reference.unwrap()
}

#[test]
fn fused_step_bit_equals_scatter_then_sweep_on_dense_and_hashed_levels() {
    let g = grid(3, 70);
    assert_eq!(g.levels()[0].mode, AddressMode::Dense);
    assert_eq!(g.levels()[2].mode, AddressMode::Hashed);
    // Two full lanes of eight points and a five-point tail.
    let b = batch(&g, 21, 71, &|_, _, d| d);
    let mut buffers = LevelBuffers::new();
    let [first, second] =
        assert_fused_matches_scatter_then_sweep("dense+hashed", &g, &b, &mut buffers);
    assert_eq!((first.adam_steps, second.adam_steps), (1, 2));
    assert!(first
        .level_versions
        .iter()
        .zip(g.level_versions())
        .all(|(a, b)| a > b));
    assert_ne!(first.params, second.params, "the second step moved nothing");
    // One step at a time on one worker: one buffer, however many levels.
    let mut one = LevelBuffers::new();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    pool.install(|| {
        two_batch_steps(&g, &mut |g, opt| {
            g.par_backward_step_with(&kernels::simd(), &b.points, &b.d_out, opt, &mut one)
        })
    });
    assert_eq!(one.count(), 1);
}

#[test]
fn fused_step_leaves_a_level_no_gradient_reaches_alone() {
    // Level 1's embedding gradient is zero at every point: its features,
    // moments and version stay as they were while its neighbours step.
    let g = grid(3, 72);
    let f = g.config().features_per_entry;
    let b = batch(&g, 21, 73, &|_, col, d| if col / f == 1 { 0.0 } else { d });
    let [first, second] = assert_fused_matches_scatter_then_sweep(
        "level 1 unreached",
        &g,
        &b,
        &mut LevelBuffers::new(),
    );
    let v0 = g.level_versions();
    assert_eq!(first.level_versions[1], v0[1]);
    assert_eq!(second.level_versions[1], v0[1]);
    assert!(first.level_versions[0] > v0[0] && first.level_versions[2] > v0[2]);
    let r = &level_ranges(&g)[1];
    assert_eq!(
        second.params[r.0..r.1],
        table_bits(&g.params()[r.0..r.1])[..]
    );
    assert!(second.m[r.0..r.1].iter().all(|&b| b == 0));
}

#[test]
fn fused_step_on_all_zero_embedding_gradients_takes_no_step() {
    // ±0 everywhere scatters +0.0 everywhere: no level moves, and neither
    // does `Adam::steps` or the version clock. An empty batch is the same.
    let g = grid(3, 74);
    let zeros = batch(&g, 21, 75, &|i, col, _| {
        if (i + col) % 2 == 0 {
            0.0
        } else {
            -0.0
        }
    });
    let empty = Batch {
        points: Vec::new(),
        d_out: Vec::new(),
    };
    for (label, b) in [("±0", &zeros), ("empty", &empty)] {
        let [first, second] =
            assert_fused_matches_scatter_then_sweep(label, &g, b, &mut LevelBuffers::new());
        assert_eq!(first, second, "{label}");
        assert_eq!(first.adam_steps, 0, "{label}");
        assert_eq!(first.level_versions, g.level_versions(), "{label}");
        assert_eq!(first.params, table_bits(g.params()), "{label}");
    }
    // The clock did not move either: the next real step bumps by one.
    let mut g1 = g.clone();
    let mut opt = Adam::new(AdamConfig::for_grid(), g1.num_params());
    let mut buffers = LevelBuffers::new();
    g1.par_backward_step_with(
        &kernels::simd(),
        &zeros.points,
        &zeros.d_out,
        &mut opt,
        &mut buffers,
    );
    let live = batch(&g, 3, 76, &|_, _, d| d);
    g1.par_backward_step_with(
        &kernels::simd(),
        &live.points,
        &live.d_out,
        &mut opt,
        &mut buffers,
    );
    let mut g2 = g.clone();
    let mut opt2 = Adam::new(AdamConfig::for_grid(), g2.num_params());
    g2.par_backward_step_with(
        &kernels::simd(),
        &live.points,
        &live.d_out,
        &mut opt2,
        &mut buffers,
    );
    assert_eq!(g1.level_versions(), g2.level_versions());
    assert_eq!(opt.steps(), 1);
}

#[test]
fn fused_step_skips_negative_zero_and_applies_nan() {
    // Point 0 carries NaN on level 2's first feature, point 1 `-0.0` on
    // every column: the NaN reaches eight level-2 entries, the `-0.0`s
    // add nothing.
    let g = grid(3, 77);
    let f = g.config().features_per_entry;
    let b = batch(&g, 9, 78, &|i, col, d| match (i, col) {
        (0, c) if c == 2 * f => f32::NAN,
        (1, _) => -0.0,
        _ => d,
    });
    let [first, _] =
        assert_fused_matches_scatter_then_sweep("-0.0 / NaN", &g, &b, &mut LevelBuffers::new());
    let nan = first
        .params
        .iter()
        .filter(|&&p| F16(p as u16).is_nan())
        .count();
    assert!((1..=8).contains(&nan), "{nan} NaN parameters");
}

#[test]
fn fused_step_reuses_one_buffer_set_across_grid_sizes() {
    // Larger, smaller, larger: the smaller grid uses a prefix of each
    // buffer, and the second large step is only right if the rest stayed
    // zero.
    let large = grid(4, 79);
    let small = HashGrid::new_random(
        HashGridConfig {
            levels: 2,
            log2_table_size: 6,
            base_resolution: 2,
            max_resolution: 8,
            init_scale: 0.3,
            ..HashGridConfig::default()
        },
        &mut StdRng::seed_from_u64(80),
    );
    assert!(small.num_params() < large.num_params());
    let mut buffers = LevelBuffers::new();
    for (label, g) in [
        ("large", &large),
        ("small", &small),
        ("large again", &large),
    ] {
        let b = batch(g, 21, 81, &|_, _, d| d);
        assert_fused_matches_scatter_then_sweep(label, g, &b, &mut buffers);
    }
    assert!(buffers.count() <= *WORKERS.iter().max().unwrap());
}

proptest! {
    /// The storage the optimizer narrows into: from a random fp16 init, any
    /// number of consuming steps with random sparse gradients of any
    /// magnitude leaves every parameter a value whose widen → narrow round
    /// trip returns its bits, and every gradient `+0.0`.
    #[test]
    fn prop_fp16_storage_stays_representable(
        seed in 0u64..1000,
        steps in 1usize..5,
        density in 0.0f32..1.0,
        log_scale in -12i32..12)
    {
        let mut g = grid(3, seed);
        let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
        let mut grads = g.zero_grads();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        for _ in 0..steps {
            for v in &mut grads.values {
                if rng.gen::<f32>() < density {
                    *v = (rng.gen::<f32>() - 0.5) * (2.0f32).powi(log_scale);
                }
            }
            g.apply_step_consuming(&mut opt, &mut grads);
            prop_assert!(g
                .params()
                .iter()
                .all(|&p| F16::from_f32(p.to_f32()) == p));
            prop_assert!(grads.values.iter().all(|v| v.to_bits() == 0));
        }
    }
}
