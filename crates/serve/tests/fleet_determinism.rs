//! The serve layer's two load-bearing guarantees, pinned end-to-end:
//!
//! 1. **Determinism** — a job co-scheduled in a fleet produces a final
//!    checkpoint bit-identical to the same spec trained alone
//!    ([`train_solo`]) at the same seed/backend/worker count, regardless
//!    of concurrency, slice size, or which jobs ride along.
//! 2. **Zero steady-state workspace allocation** — after warmup, every
//!    slice runs on a pooled `BatchWorkspace`: mints are bounded by the
//!    runner count while recycles grow with the slice count, verified
//!    through the pool counters of `FleetStats`.

use instant3d_core::TrainConfig;
use instant3d_serve::{train_solo, Fleet, FleetConfig, JobSpec, SceneSpec};

/// A mixed-size demo fleet: all three scene substrates, different
/// resolutions/view counts/budgets, one shared config (and thus one
/// workspace shape — the pooling steady state).
fn mixed_specs() -> Vec<JobSpec> {
    let cfg = TrainConfig::fast_preview();
    vec![
        JobSpec {
            name: "syn0".into(),
            scene: SceneSpec::Synthetic {
                index: 0,
                resolution: 12,
                train_views: 3,
            },
            config: cfg.clone(),
            seed: 11,
            iterations: 18,
            checkpoint_every: 5,
        },
        JobSpec {
            name: "syn1".into(),
            scene: SceneSpec::Synthetic {
                index: 1,
                resolution: 16,
                train_views: 4,
            },
            config: cfg.clone(),
            seed: 22,
            iterations: 10,
            checkpoint_every: 4,
        },
        JobSpec {
            name: "silvr-hall".into(),
            scene: SceneSpec::Silvr {
                resolution: 12,
                train_views: 3,
            },
            config: cfg.clone(),
            seed: 33,
            iterations: 6,
            checkpoint_every: 0,
        },
        JobSpec {
            name: "scannet-room".into(),
            scene: SceneSpec::Scannet {
                resolution: 12,
                train_views: 3,
            },
            config: cfg,
            seed: 44,
            iterations: 14,
            checkpoint_every: 6,
        },
    ]
}

#[test]
fn fleet_checkpoints_are_bit_identical_to_solo_training() {
    let specs = mixed_specs();
    let fleet = Fleet::new(FleetConfig {
        concurrency: 3,
        slice_iters: 4,
        max_resident_checkpoints: 2,
        threads: Some(4),
        ..FleetConfig::default()
    });
    let report = fleet.run(&specs);

    assert_eq!(report.jobs.len(), specs.len());
    for (job, spec) in report.jobs.iter().zip(&specs) {
        assert_eq!(job.name, spec.name, "reports keep submission order");
        assert_eq!(job.iterations, spec.iterations);
        assert!(job.final_loss.is_finite());
        let solo = train_solo(spec);
        assert_eq!(
            job.final_checkpoint, solo,
            "{}: fleet-trained checkpoint diverged from solo training",
            spec.name
        );
    }
}

#[test]
fn a_different_schedule_trains_the_same_bits() {
    // Same specs, radically different co-scheduling (single runner, odd
    // slice size, reversed submission order): the checkpoints must not
    // move. Together with the solo comparison above this pins schedule
    // independence from both sides.
    let mut specs = mixed_specs();
    specs.reverse();
    let report = Fleet::new(FleetConfig {
        concurrency: 1,
        slice_iters: 7,
        max_resident_checkpoints: 8,
        threads: Some(2),
        ..FleetConfig::default()
    })
    .run(&specs);
    for (job, spec) in report.jobs.iter().zip(&specs) {
        assert_eq!(job.final_checkpoint, train_solo(spec), "{}", spec.name);
    }
}

#[test]
fn reports_keep_submission_order_when_names_repeat() {
    // Two jobs under one name on one runner: the 16-iteration job retires
    // first, so only the submission index can report the 64-iteration
    // job first.
    let spec = |iterations| JobSpec {
        name: "x".into(),
        iterations,
        ..mixed_specs().swap_remove(0)
    };
    let specs = [spec(64), spec(16)];
    let report = Fleet::new(FleetConfig {
        concurrency: 1,
        slice_iters: 16,
        ..FleetConfig::default()
    })
    .run(&specs);
    assert_eq!(report.jobs.len(), specs.len());
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(report.jobs[i].iterations, spec.iterations, "job {i}");
        assert_eq!(report.jobs[i].final_checkpoint, train_solo(spec), "job {i}");
    }
}

#[test]
fn workspaces_are_pooled_with_zero_steady_state_allocation() {
    let specs = mixed_specs();
    let runners = 3;
    let slice = 4;
    let report = Fleet::new(FleetConfig {
        concurrency: runners,
        slice_iters: slice,
        max_resident_checkpoints: 2,
        threads: Some(4),
        ..FleetConfig::default()
    })
    .run(&specs);
    let stats = &report.stats;

    // Every slice checks out exactly one batch workspace: a pool hit or
    // a (warmup) mint.
    let total_slices: u64 = specs.iter().map(|s| s.iterations.div_ceil(slice)).sum();
    assert_eq!(stats.batch_allocated + stats.batch_recycled, total_slices);
    // Warmup mints are bounded by the runner count; everything after
    // warmup is a recycle — the zero-steady-state-allocation property.
    assert!(
        stats.batch_allocated <= runners as u64,
        "batch mints {} exceed the {} concurrent runners",
        stats.batch_allocated,
        runners
    );
    assert!(
        stats.batch_recycled >= total_slices - runners as u64,
        "recycles {} too low for {} slices",
        stats.batch_recycled,
        total_slices
    );
    // Occupancy workspaces: at most one mint per job, never per slice.
    assert_eq!(stats.occ_allocated + stats.occ_recycled, specs.len() as u64);
    assert!(stats.occ_allocated <= specs.len() as u64);

    // The fleet totals aggregate every job's training counters.
    let iters: u64 = specs.iter().map(|s| s.iterations).sum();
    assert_eq!(stats.total.iterations, iters);
    assert_eq!(stats.jobs, specs.len());
    assert_eq!(
        stats.per_backend.iter().map(|g| g.iterations).sum::<u64>(),
        iters,
        "per-backend groups must partition the fleet"
    );

    // Checkpoint cadence + LRU: syn0 writes at 5/10/15 + final, syn1 at
    // 4/8 + final, silvr final only, scannet at 6/12 + final.
    assert_eq!(stats.checkpoints_written, 4 + 3 + 1 + 3);
    assert!(report.resident_checkpoints.len() <= 2);
    // Refreshing a resident entry evicts nothing, so the exact eviction
    // count depends on interleaving; but with 4 job names and capacity
    // 2, at least 2 names must have been evicted at some point.
    assert!(
        stats.checkpoints_evicted >= (specs.len() - 2) as u64,
        "evictions {} too low for 4 names in a 2-slot cache",
        stats.checkpoints_evicted
    );
}
