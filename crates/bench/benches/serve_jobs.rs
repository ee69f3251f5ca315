//! Concurrency benchmarks for the multi-scene training service.
//!
//! One fixed fleet — four small mixed scene jobs, eight iterations each,
//! checkpointing mid-run — executed end-to-end (boot → slices → retire)
//! per bench iteration, swept over the scheduler's `concurrency` knob on
//! a pinned 4-worker pool. What this isolates is the *service* overhead:
//! queue contention, workspace checkout/park, checkpoint serialization
//! and region interleaving — the per-step kernels are identical across
//! arms (and bit-identical by the determinism contract, so every arm
//! does exactly the same numerical work).
//!
//! Bench IDs follow the repo convention `serve/<case>/t<workers>`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use instant3d_core::TrainConfig;
use instant3d_serve::{Fleet, FleetConfig, JobSpec, SceneSpec};

/// Four tiny jobs across all three scene substrates.
fn fleet_specs() -> Vec<JobSpec> {
    let cfg = TrainConfig::fast_preview();
    let scenes = [
        SceneSpec::Synthetic {
            index: 0,
            resolution: 10,
            train_views: 3,
        },
        SceneSpec::Synthetic {
            index: 1,
            resolution: 12,
            train_views: 3,
        },
        SceneSpec::Silvr {
            resolution: 10,
            train_views: 3,
        },
        SceneSpec::Scannet {
            resolution: 10,
            train_views: 3,
        },
    ];
    scenes
        .into_iter()
        .enumerate()
        .map(|(i, scene)| JobSpec {
            name: format!("job-{i}"),
            scene,
            config: cfg.clone(),
            seed: 7 + i as u64,
            iterations: 8,
            checkpoint_every: 4,
        })
        .collect()
}

fn bench_fleet_concurrency(c: &mut Criterion) {
    let specs = fleet_specs();
    for concurrency in [1, 2, 4] {
        let fleet = Fleet::new(FleetConfig {
            concurrency,
            slice_iters: 4,
            max_resident_checkpoints: 4,
            threads: Some(4),
            ..FleetConfig::default()
        });
        c.bench_function(&format!("serve/fleet_4x8_c{concurrency}/t4"), |b| {
            b.iter(|| black_box(fleet.run(&specs)).stats.total.iterations)
        });
    }
}

criterion_group!(benches, bench_fleet_concurrency);
criterion_main!(benches);
