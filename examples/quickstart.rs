//! Quickstart: train an Instant-3D model on a procedural object scene and
//! watch the reconstruction quality climb.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use instant3d::core::{TrainConfig, Trainer};
use instant3d::scenes::SceneLibrary;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);

    // 1. Build a dataset: the "lego"-like procedural scene captured by an
    //    orbiting rig (16 training views at 40×40).
    println!("rendering ground-truth views of the 'lego' substitute scene...");
    let dataset = SceneLibrary::synthetic_scene(4, 40, 16, &mut rng);
    println!(
        "  {} train views, {} test views, scene AABB {}",
        dataset.train_views.len(),
        dataset.test_views.len(),
        dataset.aabb
    );

    // 2. Train with the paper's operating point: decoupled grids with
    //    S_D : S_C = 1 : 0.25 and F_D : F_C = 1 : 0.5. Kernel backends
    //    resolve by name (`kernels::names()`) — the default is the
    //    SIMD backend; set `cfg.kernel_backend = kernels::resolve("scalar")`
    //    (or export INSTANT3D_KERNEL_BACKEND) to pick another.
    let cfg = TrainConfig::instant3d();
    println!(
        "\ntraining Instant-3D (decoupled grids, color table {}x smaller, \
         color updated every {} iterations, '{}' kernels; \
         registered backends: {:?})...",
        (1.0 / cfg.color_size_factor) as u32,
        cfg.color_update_every,
        cfg.kernel_backend,
        instant3d::nerf::kernels::names()
    );
    let mut trainer = Trainer::new(cfg, &dataset, &mut rng);
    for round in 1..=6 {
        for _ in 0..50 {
            trainer.step(&mut rng);
        }
        let eval = trainer.evaluate(&dataset);
        println!(
            "  iter {:>3}: RGB {:.2} dB | depth {:.2} dB | occupancy {:.0}% of volume",
            round * 50,
            eval.rgb_psnr,
            eval.depth_psnr,
            trainer.occupancy_fraction() * 100.0
        );
    }

    // 3. Report the workload the accelerator would see.
    let stats = trainer.stats();
    println!(
        "\nworkload: {:.0} points/iter, {} grid reads, {} gradient scatters",
        stats.points_per_iter(),
        stats.grid_reads_ff(),
        stats.grid_writes_bp()
    );
    println!("done — see examples/object_capture.rs for a full AR-style capture.");
}
