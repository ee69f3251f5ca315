//! Multi-scene training service demo: a fleet of mixed-size capture jobs
//! trained concurrently over one shared work-stealing pool.
//!
//! Nine jobs — synthetic objects at several capture sizes plus the SILVR
//! hall and the ScanNet room — are multiplexed by `instant3d::serve`:
//! round-robin slices so the big scenes never starve the small ones,
//! pooled training workspaces (allocations stop after warmup), periodic
//! checkpoints into an LRU cache, and per-backend fleet telemetry. One
//! job is re-trained solo afterwards to demonstrate the determinism
//! contract: its checkpoint is bit-identical to the fleet's.
//!
//! ```text
//! cargo run --release --example serve_fleet
//! ```

use instant3d::core::TrainConfig;
use instant3d::serve::{train_solo, Fleet, FleetConfig, JobSpec, SceneSpec};

fn main() {
    let cfg = TrainConfig::fast_preview();
    let mut specs = Vec::new();
    // Six synthetic object captures of graded size…
    for (i, (res, views, iters)) in [
        (16, 4, 40u64),
        (24, 6, 60),
        (16, 3, 30),
        (32, 8, 80),
        (20, 5, 50),
        (16, 4, 35),
    ]
    .into_iter()
    .enumerate()
    {
        specs.push(JobSpec {
            name: format!("object-{i}"),
            scene: SceneSpec::Synthetic {
                index: i,
                resolution: res,
                train_views: views,
            },
            config: cfg.clone(),
            seed: 100 + i as u64,
            iterations: iters,
            checkpoint_every: 16,
        });
    }
    // …plus the two big-scene substrates.
    specs.push(JobSpec {
        name: "silvr-hall".into(),
        scene: SceneSpec::Silvr {
            resolution: 24,
            train_views: 6,
        },
        config: cfg.clone(),
        seed: 200,
        iterations: 90,
        checkpoint_every: 25,
    });
    specs.push(JobSpec {
        name: "scannet-room".into(),
        scene: SceneSpec::Scannet {
            resolution: 24,
            train_views: 6,
        },
        config: cfg.clone(),
        seed: 300,
        iterations: 70,
        checkpoint_every: 25,
    });
    specs.push(JobSpec {
        name: "object-hero".into(),
        scene: SceneSpec::Synthetic {
            index: 6,
            resolution: 32,
            train_views: 10,
        },
        config: cfg,
        seed: 400,
        iterations: 100,
        checkpoint_every: 32,
    });

    let fleet = Fleet::new(FleetConfig {
        concurrency: 4,
        slice_iters: 10,
        max_resident_checkpoints: 4,
        threads: Some(8),
        // Each job streams a budgeted tile preview of its test view after
        // every slice — progress frames without perturbing training.
        preview_tiles_per_slice: 2,
    });
    println!("training {} jobs over one shared pool…\n", specs.len());
    let t0 = std::time::Instant::now();
    let report = fleet.run(&specs);
    let wall = t0.elapsed().as_secs_f32();

    for job in &report.jobs {
        println!(
            "{:>14}: {:>3} iters, final loss {:.4}, {} checkpoints, \
             ws {} minted / {} recycled",
            job.name,
            job.iterations,
            job.final_loss,
            job.checkpoints_written,
            job.batch_allocated + u64::from(!job.occ_recycled),
            job.batch_recycled + u64::from(job.occ_recycled),
        );
    }

    let s = &report.stats;
    println!(
        "\nfleet: {} jobs, {} iters, {:.1} s wall",
        s.jobs, s.total.iterations, wall
    );
    println!(
        "grid traffic: {} FF reads, {} BP writes; {} MLP MACs",
        s.total.grid_reads_ff(),
        s.total.grid_writes_bp(),
        s.total.mlp_flops_ff + s.total.mlp_flops_bp,
    );
    for g in &s.per_backend {
        println!(
            "backend {:>12}: {} iters, {} points",
            g.backend, g.iterations, g.points
        );
    }
    println!(
        "workspaces: {} batch minted (≤ concurrency), {} slices recycled; \
         {} occupancy minted (≤ jobs), {} recycled",
        s.batch_allocated, s.batch_recycled, s.occ_allocated, s.occ_recycled
    );
    println!(
        "checkpoints: {} written, {} evicted, resident: {:?}",
        s.checkpoints_written, s.checkpoints_evicted, report.resident_checkpoints
    );
    println!(
        "previews: {} frames, {} tiles streamed alongside training",
        s.preview_frames, s.preview_tiles
    );

    // The determinism contract, demonstrated live: re-train one job solo.
    let hero = &report.jobs[report.jobs.len() - 1];
    let solo = train_solo(&specs[specs.len() - 1]);
    assert_eq!(
        hero.final_checkpoint, solo,
        "fleet checkpoint must be bit-identical to solo training"
    );
    println!(
        "\ndeterminism: '{}' re-trained solo -> checkpoint bit-identical \
         ({} bytes)",
        hero.name,
        solo.len()
    );
}
