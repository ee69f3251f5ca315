//! Progressive tile-streaming preview demo: train a scene while a
//! [`FrameScheduler`] keeps a budgeted preview of the test view flowing.
//!
//! Each round runs a few training steps (whose sparse optimizer updates
//! bump the hash grids' `level_versions`), then renders at most a handful
//! of tiles: the scheduler invalidates exactly the tiles whose rays
//! sampled the bumped grids, re-renders the stalest ones round-robin, and
//! keeps the rest cached. After training stops, the same budget converges
//! the frame to bits identical to the one-shot full renderer — the
//! progressive path is a schedule, not an approximation. The last line
//! prints the share of samples the colour branch ran on: the renderer
//! skips it past each ray's early termination.
//!
//! ```text
//! cargo run --release --example tile_preview
//! ```

use instant3d::core::pool::WorkspacePool;
use instant3d::core::render::{render_view, FrameBudget, FrameScheduler, RenderOptions};
use instant3d::core::{TrainConfig, Trainer};
use instant3d::scenes::SceneLibrary;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SAMPLES_PER_RAY: usize = 24;
const TILES_PER_ROUND: usize = 6;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let ds = SceneLibrary::synthetic_scene(0, 48, 6, &mut rng);
    let mut trainer = Trainer::new(TrainConfig::fast_preview(), &ds, &mut rng);

    let cam = ds.test_views[0].camera;
    let pool = WorkspacePool::new();
    let mut sched = FrameScheduler::new(
        cam,
        RenderOptions {
            samples_per_ray: SAMPLES_PER_RAY,
            background: ds.background,
            tile_size: 8,
        },
    );
    println!(
        "streaming a {}x{} preview as {} tiles, {} per round\n",
        cam.width,
        cam.height,
        sched.layout().tile_count(),
        TILES_PER_ROUND
    );

    // Interleave training and budgeted preview frames.
    for round in 0..10 {
        for _ in 0..8 {
            trainer.step(&mut rng);
        }
        let p = sched.render_frame(
            trainer.model(),
            trainer.occupancy_grid(),
            FrameBudget::tiles(TILES_PER_ROUND),
            &pool,
        );
        println!(
            "round {round:>2}: rendered {:>2} tiles, {:>2} cached, {:>2} still stale{}",
            p.tiles_rendered,
            p.tiles_cached,
            p.tiles_stale,
            if p.complete {
                " — frame complete"
            } else {
                ""
            },
        );
    }

    // Training stopped: the same budget now converges the frame.
    let mut frames = 0;
    loop {
        let p = sched.render_frame(
            trainer.model(),
            trainer.occupancy_grid(),
            FrameBudget::tiles(TILES_PER_ROUND),
            &pool,
        );
        frames += 1;
        if p.complete {
            break;
        }
    }
    println!("\nconverged {} rounds after training stopped", frames);

    // The progressive frame is bit-identical to a one-shot render of the
    // same model + occupancy grid.
    let (rgb, depth) = sched.frame();
    let (ref_rgb, ref_depth) = render_view(
        trainer.model(),
        &cam,
        SAMPLES_PER_RAY,
        ds.background,
        trainer.occupancy_grid(),
    );
    assert_eq!(
        rgb.pixels(),
        ref_rgb.pixels(),
        "progressive RGB must match one-shot bits"
    );
    assert_eq!(
        depth.depths(),
        ref_depth.depths(),
        "progressive depth must match"
    );
    println!("progressive frame bit-identical to the one-shot renderer");

    let t = sched.telemetry();
    println!(
        "telemetry: {} frames, {} tiles rendered, {} cache hits, {} invalidated, \
         {} workspaces minted / {} recycled",
        t.frames,
        t.tiles_rendered,
        t.tiles_cached,
        t.tiles_invalidated,
        t.workspaces_minted,
        t.workspaces_recycled
    );
    println!(
        "colour branch ran on {} of {} samples ({:.1}%): the rest lie past early ray termination",
        t.color_points,
        t.points,
        100.0 * t.color_points as f64 / t.points.max(1) as f64
    );
}
