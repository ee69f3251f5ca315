//! The differential harness pinning the hash-grid optimizer tail — the
//! consuming sweep `HashGrid::apply_step_consuming` — to its reference,
//! bit for bit: collect the `!= 0.0` gradient indices, call
//! `HashGrid::apply_sparse_step`, then `GridGradients::zero`.
//!
//! The sweep is not a `Kernels` seam (there is one body for every
//! backend), so the axes here are its own: dispatch (chunk lengths that
//! divide a level, do not divide it, and exceed it), worker count,
//! gradient patterns the `!= 0.0` filter and the
//! per-level version bumps must treat exactly as the reference does, and
//! the edges of the eight-lane body: every tail length, fp16 boundary
//! parameters, infinite gradients and overflowing steps, one touched lane
//! in a group. Adam's moments are private, so every case runs a
//! **second** identical step: a moment that differed after the first
//! would show in the second's parameters.

use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::fp16;
use instant3d_nerf::grid::{GridGradients, HashGrid, HashGridConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKERS: [usize; 3] = [1, 4, 8];

/// The level lengths of [`grid`] are 250 (dense) and 2048 (hashed)
/// scalars: 1 and 64 divide 2048, 7 and 9 divide neither (a chunk of 7 is
/// all lane tail, one of 9 a lane group and a one-element tail), 1 << 14
/// is the production chunk and longer than any level.
const CHUNKS: [usize; 5] = [1, 7, 9, 64, 1 << 14];

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

/// Everything of a grid + optimizer + gradient buffer visible from outside.
#[derive(Debug, PartialEq)]
struct State {
    params: Vec<u32>,
    level_versions: Vec<u64>,
    adam_steps: u64,
    grads: Vec<u32>,
    grad_count: usize,
}

fn state(g: &HashGrid, opt: &Adam, grads: &GridGradients) -> State {
    State {
        params: g.params().iter().map(|v| v.to_bits()).collect(),
        level_versions: g.level_versions().to_vec(),
        adam_steps: opt.steps(),
        grads: grads.values.iter().map(|v| v.to_bits()).collect(),
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

/// Asserts the sweep equals the reference on `g0` under `fill`, through
/// the public entry point and through every chunk length × worker count.
/// Returns the reference states for case-specific assertions.
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
    let public = two_steps(g0, cfg, fill, &|g, opt, grads| {
        g.apply_step_consuming(opt, grads)
    });
    assert_eq!(public, reference, "{label}: apply_step_consuming");
    for workers in WORKERS {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap();
        for chunk in CHUNKS {
            let swept = pool.install(|| {
                two_steps(g0, cfg, fill, &|g, opt, grads| {
                    g.apply_step_consuming_chunked(opt, grads, chunk)
                })
            });
            assert_eq!(swept, reference, "{label}: t{workers} / chunk {chunk}");
        }
    }
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
        let exact = |b: &u32| fp16::quantize(f32::from_bits(*b)).to_bits() == *b;
        assert!(second.params.iter().all(exact));
    }
}

#[test]
fn all_zero_gradients_take_no_step_and_bump_nothing() {
    let g = grid(3, 51);
    let [first, second] = assert_sweep_matches_reference("all-zero", &g, &|_| {});
    assert_eq!(first, second);
    assert_eq!(first.adam_steps, 0);
    assert_eq!(first.level_versions, g.level_versions());
    let before: Vec<u32> = g.params().iter().map(|v| v.to_bits()).collect();
    assert_eq!(first.params, before);
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
    assert_eq!(first.params[neg_zero_at], g.params()[neg_zero_at].to_bits());
    assert!(f32::from_bits(first.params[nan_at]).is_nan());
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
        // on a chunk boundary of some dispatch arm.
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
        *p = if i % 6 < 3 { edge } else { -edge };
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
            let params = first.params.iter().map(|&b| f32::from_bits(b));
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
    assert!(f32::from_bits(first.params[pos_at]).is_nan());
    assert!(f32::from_bits(first.params[neg_at]).is_nan());
    assert_ne!(first.params[pos_at + 1], g.params()[pos_at + 1].to_bits());
}

#[test]
fn one_touched_lane_in_a_group_matches_the_reference() {
    let g = grid(3, 56);
    let ranges = level_ranges(&g);
    for lane in 0..8 {
        // One non-zero gradient in level 1's fourth lane group (lane groups
        // count from the chunk start; under the production chunk that is
        // the level start).
        let at = ranges[1].0 + 3 * 8 + lane;
        let [first, _] = assert_sweep_matches_reference(&format!("lane {lane}"), &g, &|values| {
            values[at] = -0.75;
        });
        let before: Vec<u32> = g.params().iter().map(|v| v.to_bits()).collect();
        let changed: Vec<usize> = (0..before.len())
            .filter(|&i| first.params[i] != before[i])
            .collect();
        assert_eq!(changed, [at], "lane {lane}");
    }
}

proptest! {
    /// The storage invariant the touched-only re-quantise rests on: from a
    /// random fp16 init, any number of consuming steps with random sparse
    /// gradients of any magnitude leaves every parameter fp16-exact.
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
                .all(|p| fp16::quantize(*p).to_bits() == p.to_bits()));
            prop_assert!(grads.values.iter().all(|v| v.to_bits() == 0));
        }
    }
}
