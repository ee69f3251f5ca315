//! `preview_orbit`: read-only use of grid + MLP + compositing through the
//! tile renderer — no scatter, no Adam, no occupancy refresh inside any
//! timed operation.
//!
//! One pre-trained `capture_object` model, viewed in rounds of three
//! phases (rounds, not one long phase each, so that a burst of
//! interference from the box lands in every phase of one round and the
//! steady estimate across rounds ignores it):
//!
//! * `orbit` — one revolution; the camera moves every frame, so all tiles
//!   are stale and the tile cache is bypassed entirely;
//! * `refine` — one fixed camera while training continues between frames
//!   (untimed); each timed frame renders at most four tiles, so the cache
//!   and precise invalidation do the work;
//! * `settle` — training stops and budgeted frames run until the preview
//!   is fully fresh: the time a viewer waits for a converged image after
//!   a model update.

use crate::capture::write_trace;
use crate::outcome::{peak_rss_mb, per, repeat_set_up, ChildArgs, Outcome};
use crate::span::{training_spans, Totals, Tracer};
use crate::stats::{fnv1a_hex, median, percentile, steady, tail_percentile};
use crate::surface::{self, Camera, Dataset, FrameBudget, RgbImage, StdRng, Trainer};
use std::time::Instant;

/// Seed of the dataset build and training stream of the model being
/// previewed.
const MODEL_SEED: u64 = 4;
/// Untimed training iterations that produce that model.
const PRETRAIN: u64 = 150;
/// Poses of one revolution; every round visits all of them, so every
/// run times the same mix of viewpoints wherever the seed starts it.
const POSES: u64 = 8;
/// Preview frame edge in pixels (36 tiles of 16×16).
const RESOLUTION: u32 = 96;
/// Tiles a budgeted frame may render.
const REFINE_TILES: usize = 4;
/// {train step; budgeted frame} pairs per round.
const REFINE_PER_ROUND: u64 = 8;
/// Settle trials per round, at viewpoints spread evenly over the
/// revolution: how many tiles a model update makes stale depends on the
/// view, and their mean does not depend on where the seed starts the ring.
const SETTLES_PER_ROUND: u64 = 4;
const MIN_ROUNDS: u64 = 4;
const SETUP_REPS: u64 = 3;

struct Ready {
    ds: Dataset,
    trainer: Trainer,
    rng: StdRng,
    cameras: Vec<Camera>,
    /// The analytic frame of every pose.
    truth: Vec<RgbImage>,
    build_ms: f64,
    new_ms: f64,
    losses_finite: bool,
}

fn set_up(args: &ChildArgs) -> Ready {
    // The model on show is set-up state, the same for every workload
    // seed; what the seed varies is what the viewer does (below).
    let mut rng = surface::rng(MODEL_SEED);
    let t = Instant::now();
    let ds = surface::synthetic_dataset(4, 40, args.scaled(16, 2) as usize, &mut rng);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut trainer = surface::trainer_new(surface::config_instant3d(), &ds, &mut rng);
    let new_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut losses_finite = true;
    for _ in 0..args.scaled(PRETRAIN, 2) {
        losses_finite &= surface::trainer_step(&mut trainer, &mut rng)
            .loss
            .is_finite();
    }
    // The seed picks the orbit: its elevation (within the band the
    // training rig covers) and where on the ring it starts.
    let mut pose_rng = surface::rng(args.seed);
    let elevation = 0.45 + 0.1 * surface::unit_draw(&mut pose_rng);
    let poses = args.scaled(POSES, 2) as usize;
    let start = (surface::unit_draw(&mut pose_rng) * poses as f32) as usize % poses;
    let mut cameras = surface::orbit_cameras(&ds, elevation, poses, RESOLUTION);
    cameras.rotate_left(start);
    let truth = cameras
        .iter()
        .map(|camera| surface::analytic_frame(4, camera))
        .collect();
    Ready {
        ds,
        trainer,
        rng,
        cameras,
        truth,
        build_ms,
        new_ms,
        losses_finite,
    }
}

pub fn run(args: &ChildArgs, t_main: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);

    let reps = if args.trace {
        1
    } else {
        args.scaled(SETUP_REPS, 1)
    };
    let (ready, setup_s, digests) = repeat_set_up(
        reps,
        t_main,
        || set_up(args),
        |r| fnv1a_hex(&surface::checkpoint_save(r.trainer.model())),
    );
    out.check_same_digests("ckpt@pretrain", &digests);
    out.check(ready.losses_finite, || {
        "non-finite pre-training loss".into()
    });
    let Ready {
        ds,
        mut trainer,
        mut rng,
        cameras,
        truth,
        build_ms,
        new_ms,
        ..
    } = ready;

    // Output check: frame 0 on this scheduler equals frame 0 on a fresh one.
    let mut sched = surface::preview_scheduler(cameras[0], &trainer, &ds);
    let tile_count = sched.layout().tile_count();
    let full_frame = |sched: &mut surface::FrameScheduler, trainer: &Trainer| {
        let p = surface::render_frame(
            sched,
            trainer.model(),
            trainer.occupancy_grid(),
            FrameBudget::full(),
        );
        (p, sched.frame().0)
    };
    let (_, first) = full_frame(&mut sched, &trainer);
    let mut fresh = surface::preview_scheduler(cameras[0], &trainer, &ds);
    let (_, again) = full_frame(&mut fresh, &trainer);
    out.check(surface::frames_bitwise_equal(&first, &again), || {
        "orbit frame 0 differs on a fresh scheduler".into()
    });
    drop(fresh);

    let mut frame_ns: Vec<f64> = Vec::new();
    let mut refine_ns: Vec<f64> = Vec::new();
    // Per round: median orbit frame (ms), the revolution's time (s) and
    // seconds per ray, mean settle trial over the round's viewpoints (s).
    let mut round_frame_ms: Vec<f64> = Vec::new();
    let mut round_rev_s: Vec<f64> = Vec::new();
    let mut round_s_per_ray: Vec<f64> = Vec::new();
    let mut round_settle_s: Vec<f64> = Vec::new();
    let mut scored: Vec<f64> = Vec::new();
    let zero = surface::RenderTelemetry::default();
    let mut orbit = delta(&zero, &zero);
    // The first revolution renders the set-up model, the same for every
    // run of a seed; later ones a model the refine phases trained on.
    let mut first_rev = orbit;
    let mut counted_tiles = delta(&zero, &zero);
    let refine_per_round = args.scaled(REFINE_PER_ROUND, 2);
    let settles_per_round = args.scaled(SETTLES_PER_ROUND, 1) as usize;
    let poses = cameras.len();
    let min_rounds = args.scaled(MIN_ROUNDS, 1) as usize;
    let started = Instant::now();
    let mut round = 0usize;
    while started.elapsed().as_secs_f64() < args.seconds || round < min_rounds {
        // ---- phase orbit: every frame a new pose, full budget
        let before = *sched.telemetry();
        let mut rev_ns: Vec<f64> = Vec::with_capacity(poses);
        for (pose, camera) in cameras.iter().enumerate() {
            tr.set_op((round * poses + pose) as u64);
            let whole = tr.enter("orbit.frame");
            let t = Instant::now();
            let s = tr.enter("render.set_camera");
            sched.set_camera(*camera);
            tr.exit(s);
            let s = tr.enter("render.render_frame");
            let progress = surface::render_frame(
                &mut sched,
                trainer.model(),
                trainer.occupancy_grid(),
                FrameBudget::full(),
            );
            tr.exit(s);
            let s = tr.enter("render.frame_copy");
            let (rgb, _depth) = sched.frame();
            tr.exit(s);
            rev_ns.push(t.elapsed().as_nanos() as f64);
            tr.exit(whole);
            out.op(progress.complete && surface::frame_is_finite(&rgb));
            // Quality is read in the first round only: later rounds see a
            // model the refine phases have trained further.
            if round == 0 {
                scored.push(f64::from(surface::psnr_rgb(&truth[pose], &rgb)));
            }
        }
        let rev = delta(&before, sched.telemetry());
        round_frame_ms.push(median(&rev_ns) / 1e6);
        let rev_s = rev_ns.iter().sum::<f64>() / 1e9;
        round_rev_s.push(rev_s);
        round_s_per_ray.push(rev_s / rev.rays);
        frame_ns.extend(&rev_ns);
        orbit.add(&rev);
        if round == 0 {
            first_rev = rev;
        }

        // ---- phase refine: fixed camera, training between frames
        sched.set_camera(cameras[0]);
        let (p, _) = full_frame(&mut sched, &trainer);
        out.op(p.complete);
        let before = *sched.telemetry();
        for i in 0..refine_per_round {
            tr.set_op(1_000_000 + round as u64 * refine_per_round + i);
            let s = tr.enter("refine.train_step");
            let stats = surface::trainer_step(&mut trainer, &mut rng);
            tr.exit(s);
            let s = tr.enter("refine.frame");
            let t = Instant::now();
            surface::render_frame(
                &mut sched,
                trainer.model(),
                trainer.occupancy_grid(),
                FrameBudget::tiles(REFINE_TILES),
            );
            let (rgb, _depth) = sched.frame();
            refine_ns.push(t.elapsed().as_nanos() as f64);
            tr.exit(s);
            out.op(stats.loss.is_finite() && surface::frame_is_finite(&rgb));
        }
        if round == 0 {
            // Exact for a seed: a fixed count of rounds on a fixed model.
            counted_tiles = delta(&before, sched.telemetry());
        }

        // ---- phase settle: training has stopped; frames until fresh
        let mut settle_s: Vec<f64> = Vec::with_capacity(settles_per_round);
        for trial in 0..settles_per_round {
            // A fresh view, then one more (untimed) step makes every
            // grid-sampling tile of it stale.
            sched.set_camera(cameras[trial * poses / settles_per_round]);
            let (p, _) = full_frame(&mut sched, &trainer);
            out.op(p.complete);
            surface::trainer_step(&mut trainer, &mut rng);
            tr.set_op(2_000_000 + (round * settles_per_round + trial) as u64);
            let s = tr.enter("settle.trial");
            let t = Instant::now();
            let mut frames = 0usize;
            while !sched.is_converged(trainer.model(), trainer.occupancy_grid())
                && frames <= tile_count
            {
                surface::render_frame(
                    &mut sched,
                    trainer.model(),
                    trainer.occupancy_grid(),
                    FrameBudget::tiles(REFINE_TILES),
                );
                frames += 1;
            }
            settle_s.push(t.elapsed().as_secs_f64());
            tr.exit(s);
            out.check(frames <= tile_count, || {
                format!(
                    "preview not converged after {frames} budgeted frames of {tile_count} tiles"
                )
            });
        }
        round_settle_s.push(settle_s.iter().sum::<f64>() / settle_s.len() as f64);
        round += 1;
    }
    let quality = scored.iter().sum::<f64>() / scored.len() as f64;
    out.check(quality.is_finite(), || "non-finite frame PSNR".into());

    // Output check: the settled preview equals a fresh full-budget frame.
    let settled = sched.frame().0;
    let mut fresh = surface::preview_scheduler(*sched.camera(), &trainer, &ds);
    let (_, reference) = full_frame(&mut fresh, &trainer);
    out.check(surface::frames_bitwise_equal(&settled, &reference), || {
        "settled preview differs from a fresh full-budget frame".into()
    });

    // ---- end-to-end
    out.metric("setup_s", median(&setup_s));
    // Steady estimates across rounds: see the module docs and `steady`.
    out.metric("time_to_result_s", steady(&round_rev_s));
    out.metric("work_per_s", 1.0 / steady(&round_s_per_ray));
    out.metric("op_ms_p50", steady(&round_frame_ms));
    out.metric("quality_db", quality);
    out.metric("peak_rss_mb", peak_rss_mb());

    // ---- per layer
    let totals = Totals::of(tr.spans());
    let mean_us = |name: &str| per(totals.ns(name), totals.calls(name)) / 1e3;
    let render_ns = totals.ns("render.render_frame");
    let whole = delta(&surface::RenderTelemetry::default(), sched.telemetry());
    out.metric("scenes.build_ms", build_ms);
    out.metric("trainer.new_ms", new_ms);
    out.metric(
        "tiles.rendered_per_frame",
        per(orbit.tiles_rendered, orbit.frames),
    );
    out.metric(
        "tiles.cached_ratio",
        per(
            counted_tiles.tiles_cached,
            counted_tiles.tiles_cached + counted_tiles.tiles_rendered,
        ),
    );
    out.metric(
        "tiles.invalidated_per_step",
        per(counted_tiles.tiles_invalidated, refine_per_round as f64),
    );
    out.metric(
        "render.points_per_ray",
        per(first_rev.points, first_rev.rays),
    );
    out.metric("render.ns_per_point", per(render_ns, orbit.points));
    out.metric("render.set_camera_us", mean_us("render.set_camera"));
    out.metric("render.frame_copy_us", mean_us("render.frame_copy"));
    let tail = tail_percentile(frame_ns.len());
    out.metric("render.frame_ms_p50", median(&frame_ns) / 1e6);
    out.metric("render.frame_ms_tail", percentile(&frame_ns, tail) / 1e6);
    out.metric("render.frame_tail_pct", tail);
    out.metric("render.frame_samples", frame_ns.len() as f64);
    out.metric("render.refine_frame_ms_p50", median(&refine_ns) / 1e6);
    out.metric("render.settle_ms", steady(&round_settle_s) * 1e3);
    out.metric("wspool.minted", whole.minted);
    out.metric("wspool.recycled", whole.recycled);
    // The traced run must show no training inside any timed operation:
    // the only trainer call is the untimed `refine.train_step`.
    out.metric("trace.train_spans", training_spans(tr.spans()) as f64);

    out.count("setup_reps", reps as f64);
    out.count("pretrain", args.scaled(PRETRAIN, 2) as f64);
    out.count("rounds", round as f64);
    out.count("poses", poses as f64);
    out.count("refine_per_round", refine_per_round as f64);
    out.count("settles_per_round", settles_per_round as f64);
    out.count("tile_count", tile_count as f64);
    if args.trace {
        out.count("spans", tr.spans().len() as f64);
        write_trace(&mut out, args, tr.spans());
    }
    out
}

/// Telemetry counters accumulated between two snapshots.
#[derive(Clone, Copy)]
struct TelemetryDelta {
    frames: f64,
    tiles_rendered: f64,
    tiles_cached: f64,
    tiles_invalidated: f64,
    rays: f64,
    points: f64,
    minted: f64,
    recycled: f64,
}

impl TelemetryDelta {
    fn add(&mut self, o: &TelemetryDelta) {
        self.frames += o.frames;
        self.tiles_rendered += o.tiles_rendered;
        self.tiles_cached += o.tiles_cached;
        self.tiles_invalidated += o.tiles_invalidated;
        self.rays += o.rays;
        self.points += o.points;
        self.minted += o.minted;
        self.recycled += o.recycled;
    }
}

fn delta(a: &surface::RenderTelemetry, b: &surface::RenderTelemetry) -> TelemetryDelta {
    TelemetryDelta {
        frames: (b.frames - a.frames) as f64,
        tiles_rendered: (b.tiles_rendered - a.tiles_rendered) as f64,
        tiles_cached: (b.tiles_cached - a.tiles_cached) as f64,
        tiles_invalidated: (b.tiles_invalidated - a.tiles_invalidated) as f64,
        rays: (b.rays - a.rays) as f64,
        points: (b.points - a.points) as f64,
        minted: (b.workspaces_minted - a.workspaces_minted) as f64,
        recycled: (b.workspaces_recycled - a.workspaces_recycled) as f64,
    }
}
