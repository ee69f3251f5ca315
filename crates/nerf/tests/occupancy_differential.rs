//! Differential suite pinning the batched occupancy refresh against a
//! per-cell oracle of its rule, bit for bit.
//!
//! `OccupancyWorkspace::refresh` routes cell-density probes through the
//! batched kernel seams (`HashGrid::par_encode_batch_levels_with`,
//! `Mlp::forward_batch_with`) with a persistent per-level-versioned
//! embedding cache. These tests prove the packed occupancy words and the
//! density-EMA store it produces are identical to `DecayedEmaOracle`,
//! which probes cell by cell through `HashGrid::encode_into` and
//! `Mlp::forward` — across kernel backends and rayon worker counts, over
//! degenerate resolutions, empty subsets, knife-edge densities and cache
//! invalidation after parameter updates.

use instant3d_nerf::activation::Activation;
use instant3d_nerf::adam::{Adam, AdamConfig};
use instant3d_nerf::fp16::F16;
use instant3d_nerf::grid::{HashGrid, HashGridConfig, NullObserver};
use instant3d_nerf::kernels::{self, BackendHandle};
use instant3d_nerf::math::{Aabb, Vec3};
use instant3d_nerf::mlp::{Mlp, MlpConfig};
use instant3d_nerf::occupancy::{OccupancyGrid, OccupancyWorkspace, RefreshMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WORKERS: [usize; 2] = [1, 4];
const THRESHOLD: f32 = 0.6;

fn grid(seed: u64) -> HashGrid {
    let cfg = HashGridConfig {
        levels: 4,
        features_per_entry: 2,
        log2_table_size: 10,
        base_resolution: 4,
        max_resolution: 32,
        init_scale: 0.3,
    };
    HashGrid::new_random(cfg, &mut StdRng::seed_from_u64(seed))
}

fn sigma_mlp(grid: &HashGrid, seed: u64) -> Mlp {
    Mlp::new(
        MlpConfig::new(
            grid.output_dim(),
            &[16],
            1,
            Activation::Relu,
            Activation::TruncExp,
        ),
        &mut StdRng::seed_from_u64(seed),
    )
}

/// Test-local specification of [`RefreshMode::DecayedEma`], written from
/// the rule rather than from the workspace. Each refresh walks the cells
/// `i ≡ phase (mod k)` in linear order, probes each center on its own
/// (`encode_into` + `forward`, the model sharing the occupancy AABB) and
/// folds the density into a per-cell EMA (`∞` = never probed):
/// `ema = max(seeded ? ema × 0.95 : 0, density)`, `bit = ema > threshold`.
/// The phase then advances by one.
struct DecayedEmaOracle {
    occ: OccupancyGrid,
    ema: Vec<f32>,
    phase: usize,
}

impl DecayedEmaOracle {
    fn new(aabb: Aabb, resolution: u32) -> Self {
        let occ = OccupancyGrid::new(aabb, resolution);
        let ema = vec![f32::INFINITY; occ.num_cells()];
        DecayedEmaOracle { occ, ema, phase: 0 }
    }

    fn refresh(&mut self, grid: &HashGrid, mlp: &Mlp, threshold: f32, k: usize) {
        let mut emb = vec![0.0; grid.output_dim()];
        let mut ws = mlp.workspace();
        let centers = self.occ.cell_centers();
        for i in (self.phase..centers.len()).step_by(k) {
            let unit = self.occ.aabb().to_unit(centers[i]);
            grid.encode_into(unit, &mut emb, &mut NullObserver);
            let density = mlp.forward(&emb, &mut ws)[0];
            let seeded = if self.ema[i].is_finite() {
                self.ema[i] * 0.95
            } else {
                0.0
            };
            self.ema[i] = seeded.max(density);
            self.occ.set_linear(i, self.ema[i] > threshold);
        }
        self.phase = (self.phase + 1) % k;
    }

    fn snapshot(&self) -> Snapshot {
        snapshot(&self.occ, &self.ema)
    }
}

/// Packed occupancy words and EMA bits after one refresh.
type Snapshot = (Vec<u64>, Vec<u32>);

fn snapshot(occ: &OccupancyGrid, ema: &[f32]) -> Snapshot {
    (
        occ.words().to_vec(),
        ema.iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn batched_threshold_refresh_bit_matches_closure_across_backends_and_workers() {
    let g = grid(1);
    let mlp = sigma_mlp(&g, 2);
    let aabb = Aabb::new(Vec3::new(-1.0, -0.5, 0.0), Vec3::new(1.0, 1.5, 2.0));
    for resolution in [1u32, 2, 17] {
        let mut oracle = DecayedEmaOracle::new(aabb, resolution);
        oracle.refresh(&g, &mlp, THRESHOLD, 1);
        for backend in kernels::registered() {
            for workers in WORKERS {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(workers)
                    .build()
                    .unwrap();
                let got = pool.install(|| {
                    let mut occ = OccupancyGrid::new(aabb, resolution);
                    let mut ws = OccupancyWorkspace::new(backend.clone());
                    let stats = ws.refresh(
                        &mut occ,
                        &g,
                        &mlp,
                        aabb,
                        THRESHOLD,
                        RefreshMode::DecayedEma,
                        1,
                    );
                    assert_eq!(stats.cells_probed, occ.num_cells());
                    assert_eq!(stats.levels_encoded, g.levels().len());
                    snapshot(&occ, ws.ema())
                });
                assert_eq!(
                    got,
                    oracle.snapshot(),
                    "res {resolution} / {backend} / t{workers}"
                );
            }
        }
    }
}

#[test]
fn clean_cache_refresh_encodes_nothing_and_matches_closure() {
    let g = grid(5);
    let mlp = sigma_mlp(&g, 6);
    let aabb = Aabb::UNIT;
    let mut occ = OccupancyGrid::new(aabb, 8);
    let mut oracle = DecayedEmaOracle::new(aabb, 8);
    let mut ws = OccupancyWorkspace::new(kernels::simd());
    let mut refresh = || {
        let stats = ws.refresh(
            &mut occ,
            &g,
            &mlp,
            aabb,
            THRESHOLD,
            RefreshMode::DecayedEma,
            1,
        );
        oracle.refresh(&g, &mlp, THRESHOLD, 1);
        assert_eq!(snapshot(&occ, ws.ema()), oracle.snapshot());
        stats
    };
    let first = refresh();
    assert_eq!(first.levels_encoded, g.levels().len());
    assert!(first.grid_reads > 0);
    // No parameter change between refreshes → the embedding cache serves
    // every level: zero table reads, and still the oracle's bits.
    let second = refresh();
    assert_eq!(second.levels_encoded, 0, "clean cache must skip the encode");
    assert_eq!(second.grid_reads, 0);
}

#[test]
fn cache_invalidates_per_level_after_sparse_step() {
    let g = &mut grid(7);
    let mlp = sigma_mlp(g, 8);
    let aabb = Aabb::UNIT;
    let mut occ = OccupancyGrid::new(aabb, 8);
    let mut oracle = DecayedEmaOracle::new(aabb, 8);
    let mut ws = OccupancyWorkspace::new(kernels::simd());
    let mut refresh = |g: &HashGrid| {
        let stats = ws.refresh(
            &mut occ,
            g,
            &mlp,
            aabb,
            THRESHOLD,
            RefreshMode::DecayedEma,
            1,
        );
        oracle.refresh(g, &mlp, THRESHOLD, 1);
        assert_eq!(snapshot(&occ, ws.ema()), oracle.snapshot());
        stats
    };
    refresh(g);
    // A sparse Adam step touching only level 2's parameters…
    let mut grads = vec![0.0f32; g.num_params()];
    let lo = g.levels()[..2]
        .iter()
        .map(|l| l.table_size as usize * 2)
        .sum::<usize>();
    let touched: Vec<usize> = (lo..lo + 64).collect();
    for &i in &touched {
        grads[i] = 0.25;
    }
    let mut opt = Adam::new(AdamConfig::for_grid(), g.num_params());
    g.apply_sparse_step(&mut opt, &grads, &touched);
    // …must re-encode exactly one level, and the refreshed bits must
    // match the oracle's probe of the updated field.
    let stats = refresh(g);
    assert_eq!(stats.levels_encoded, 1, "only the stepped level is dirty");

    // A conservative params_mut write dirties everything: the *same*
    // (warm-cached) workspace must re-encode every level on its next
    // refresh.
    let p = &mut g.params_mut()[0];
    *p = F16::from_f32(p.to_f32() + 0.5);
    let stats = refresh(g);
    assert_eq!(stats.levels_encoded, g.levels().len());
}

#[test]
fn subset_rotation_covers_all_cells_and_matches_full_refresh() {
    let g = grid(9);
    let mlp = sigma_mlp(&g, 10);
    let aabb = Aabb::UNIT;
    let mut full = OccupancyGrid::new(aabb, 7);
    let mut full_ws = OccupancyWorkspace::new(kernels::simd());
    full_ws.refresh(
        &mut full,
        &g,
        &mlp,
        aabb,
        THRESHOLD,
        RefreshMode::DecayedEma,
        1,
    );
    let mut oracle = DecayedEmaOracle::new(aabb, 7);
    oracle.refresh(&g, &mlp, THRESHOLD, 1);
    assert_eq!(snapshot(&full, full_ws.ema()), oracle.snapshot());
    for backend in kernels::registered() {
        let k = 4u32;
        let mut occ = OccupancyGrid::new(aabb, 7);
        let mut ws = OccupancyWorkspace::new(backend.clone());
        let mut probed = 0usize;
        for round in 0..k {
            let stats = ws.refresh(
                &mut occ,
                &g,
                &mlp,
                aabb,
                THRESHOLD,
                RefreshMode::DecayedEma,
                k,
            );
            probed += stats.cells_probed;
            assert!(
                stats.cells_probed <= occ.num_cells().div_ceil(k as usize),
                "round {round} probed {}",
                stats.cells_probed
            );
        }
        // k rotating refreshes visit every cell exactly once and land on
        // the same packed words and EMA store as one full refresh.
        assert_eq!(probed, occ.num_cells(), "{backend}");
        assert_eq!(
            snapshot(&occ, ws.ema()),
            snapshot(&full, full_ws.ema()),
            "{backend}"
        );
    }
}

#[test]
fn empty_subset_phase_probes_zero_cells() {
    // Resolution 1 with stride 4: three of the four phases own no cells
    // at all — the N = 0 path through gather, encode and MLP forward.
    let g = grid(11);
    let mlp = sigma_mlp(&g, 12);
    let aabb = Aabb::UNIT;
    let mut occ = OccupancyGrid::new(aabb, 1);
    let mut oracle = DecayedEmaOracle::new(aabb, 1);
    let mut ws = OccupancyWorkspace::new(kernels::simd());
    let mut probes = Vec::new();
    for _ in 0..4 {
        let stats = ws.refresh(
            &mut occ,
            &g,
            &mlp,
            aabb,
            THRESHOLD,
            RefreshMode::DecayedEma,
            4,
        );
        oracle.refresh(&g, &mlp, THRESHOLD, 4);
        assert_eq!(snapshot(&occ, ws.ema()), oracle.snapshot());
        probes.push(stats.cells_probed);
    }
    assert_eq!(probes.iter().sum::<usize>(), 1);
    assert_eq!(probes.iter().filter(|&&p| p == 0).count(), 3);
}

#[test]
fn exact_threshold_and_signed_zero_densities_match_closure() {
    // A bias-only density head (zero weights, no hidden layer, linear
    // output) produces the bias *exactly* at every cell, so `ema > t`
    // sits on the knife edge both paths must cut identically.
    let g = grid(13);
    let mut mlp = Mlp::new(
        MlpConfig::new(g.output_dim(), &[], 1, Activation::Relu, Activation::None),
        &mut StdRng::seed_from_u64(14),
    );
    for (case, (bias, threshold, expect_occupied)) in [
        (0.5f32, 0.5f32, false), // d == t → strictly-greater culls
        (0.0, 0.0, false),       // +0 > +0 is false
        (0.0, -0.0, false),      // +0 > −0 is false (they compare equal)
        (-0.0, 0.0, false),      // −0 > +0 is false
        (0.5, 0.49999997, true), // one ulp below → occupied
    ]
    .into_iter()
    .enumerate()
    {
        set_bias_only(&mut mlp, bias);
        let mut oracle = DecayedEmaOracle::new(Aabb::UNIT, 6);
        oracle.refresh(&g, &mlp, threshold, 1);
        assert_eq!(
            oracle.occ.occupancy_fraction() > 0.0,
            expect_occupied,
            "case {case}: oracle"
        );
        for backend in kernels::registered() {
            let mut occ = OccupancyGrid::new(Aabb::UNIT, 6);
            let mut ws = OccupancyWorkspace::new(backend.clone());
            ws.refresh(
                &mut occ,
                &g,
                &mlp,
                Aabb::UNIT,
                threshold,
                RefreshMode::DecayedEma,
                1,
            );
            assert_eq!(
                snapshot(&occ, ws.ema()),
                oracle.snapshot(),
                "case {case} / {backend}"
            );
        }
    }
}

#[test]
fn decayed_ema_refresh_is_backend_and_worker_invariant() {
    // The trainer's mode: run three refreshes with a parameter update in
    // between; the EMA store and the packed words must be bit-identical
    // for every backend × worker combination.
    let aabb = Aabb::UNIT;
    let run = |backend: &BackendHandle, workers: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap();
        pool.install(|| {
            let mut g = grid(15);
            let mlp = sigma_mlp(&g, 16);
            let mut occ = OccupancyGrid::new(aabb, 10);
            let mut ws = OccupancyWorkspace::new(backend.clone());
            for round in 0..3 {
                ws.refresh(
                    &mut occ,
                    &g,
                    &mlp,
                    aabb,
                    THRESHOLD,
                    RefreshMode::DecayedEma,
                    2,
                );
                if round == 1 {
                    g.params_mut()
                        .iter_mut()
                        .for_each(|p| *p = F16::from_f32(p.to_f32() * 0.5));
                }
            }
            let ema_bits: Vec<u32> = ws.ema().iter().map(|v| v.to_bits()).collect();
            (occ.words().to_vec(), ema_bits)
        })
    };
    let reference = run(&kernels::scalar(), 1);
    for backend in kernels::registered() {
        for workers in WORKERS {
            assert_eq!(run(&backend, workers), reference, "{backend} / t{workers}");
        }
    }
}

/// The parameter update applied after each refresh: (round, grid, density
/// head).
type ParamUpdate = Box<dyn Fn(usize, &mut HashGrid, &mut Mlp)>;

/// A DecayedEma run: a model, a threshold and its parameter update.
struct EmaScenario {
    name: &'static str,
    grid: HashGrid,
    mlp: Mlp,
    threshold: f32,
    update: ParamUpdate,
}

/// `2k + 1` refreshes at stride `k` (at least 3, and every cell of phase 0
/// is probed three times), applying the scenario's update after each;
/// `refresh` runs one refresh and returns its snapshot.
fn ema_trace(
    s: &EmaScenario,
    k: usize,
    mut refresh: impl FnMut(&HashGrid, &Mlp) -> Snapshot,
) -> Vec<Snapshot> {
    let (mut grid, mut mlp) = (s.grid.clone(), s.mlp.clone());
    (0..2 * k + 1)
        .map(|round| {
            let snap = refresh(&grid, &mlp);
            (s.update)(round, &mut grid, &mut mlp);
            snap
        })
        .collect()
}

/// Zero weights and a single `bias` in a head without hidden layers: the
/// density is that bias at every cell, except that a zero bias comes out
/// as `+0` or `-0` depending on the cell's zero products — so both signs
/// of zero reach the EMA.
fn set_bias_only(mlp: &mut Mlp, bias: f32) {
    let zero = mlp.zero_grads();
    mlp.for_each_param_mut(&zero, |params, _| {
        params.fill(if params.len() == 1 { bias } else { 0.0 });
    });
}

/// The smallest positive `f32`: above `-0`, and `× 0.95` rounds it back
/// to itself.
const MIN_SUBNORMAL: f32 = f32::from_bits(1);

fn ema_scenarios() -> Vec<EmaScenario> {
    let g = grid(17);
    let mut scenarios = vec![EmaScenario {
        // About a third of the cells start occupied; each negation turns
        // some on and lets others decay off.
        name: "random field, grid negated after even rounds",
        mlp: sigma_mlp(&g, 18),
        grid: g.clone(),
        threshold: 1.0,
        update: Box::new(|round, grid, _| {
            if round % 2 == 0 {
                grid.params_mut()
                    .iter_mut()
                    .for_each(|p| *p = F16::from_f32(-p.to_f32()));
            }
        }),
    }];
    // Knife edges: one ulp above the threshold then exactly on it, and
    // signed zeros against ±0 thresholds. The bias changes every round.
    let knife_edges: [(&str, f32, &'static [f32]); 3] = [
        ("exact threshold", 0.5, &[0.500_000_06, 0.5, -0.0, 0.0]),
        ("signed zeros vs +0", 0.0, &[-0.0, 0.0, -0.0]),
        ("signed zeros vs -0", -0.0, &[0.0, -0.0, MIN_SUBNORMAL]),
    ];
    for (name, threshold, biases) in knife_edges {
        let mut mlp = Mlp::new(
            MlpConfig::new(g.output_dim(), &[], 1, Activation::Relu, Activation::None),
            &mut StdRng::seed_from_u64(19),
        );
        set_bias_only(&mut mlp, biases[0]);
        scenarios.push(EmaScenario {
            name,
            grid: g.clone(),
            mlp,
            threshold,
            update: Box::new(move |round, _, mlp| {
                set_bias_only(mlp, biases[(round + 1) % biases.len()]);
            }),
        });
    }
    scenarios
}

#[test]
fn decayed_ema_refresh_bit_matches_closure_oracle() {
    let aabb = Aabb::UNIT;
    for s in ema_scenarios() {
        for resolution in [1u32, 10] {
            for k in [1usize, 2, 3] {
                let mut oracle = DecayedEmaOracle::new(aabb, resolution);
                let expect = ema_trace(&s, k, |g, mlp| {
                    oracle.refresh(g, mlp, s.threshold, k);
                    oracle.snapshot()
                });
                for backend in kernels::registered() {
                    for workers in WORKERS {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(workers)
                            .build()
                            .unwrap();
                        let got = pool.install(|| {
                            let mut occ = OccupancyGrid::new(aabb, resolution);
                            let mut ws = OccupancyWorkspace::new(backend.clone());
                            ema_trace(&s, k, |g, mlp| {
                                ws.refresh(
                                    &mut occ,
                                    g,
                                    mlp,
                                    aabb,
                                    s.threshold,
                                    RefreshMode::DecayedEma,
                                    k as u32,
                                );
                                snapshot(&occ, ws.ema())
                            })
                        });
                        assert_eq!(
                            got, expect,
                            "{} / res {resolution} / k {k} / {backend} / t{workers}",
                            s.name
                        );
                    }
                }
            }
        }
    }
}
