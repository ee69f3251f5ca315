//! The two capture workloads: train one scene to a target PSNR.
//!
//! `capture_object` is the Instant-3D operating point on a small object
//! scene (tables in L2, MLP-heavy, small batches); `capture_room_ngp` is
//! the Instant-NGP baseline at the paper's table shape on a room scene
//! (tables far larger than L2, grid-heavy). Same code, two plans.

use crate::outcome::{peak_rss_mb, per, repeat_set_up, ChildArgs, Outcome};
use crate::replica::{Counters, Replica};
use crate::span::{self_times, to_trace_events, training_spans, Totals, Tracer};
use crate::stats::{fnv1a_hex, median, percentile, steady, tail_percentile};
use crate::surface::{self, Dataset, StdRng, TrainConfig, Trainer};
use std::time::Instant;

/// The fixed shape of a capture workload. Counts are the full-size ones;
/// `--smoke` divides them by 20.
pub struct CapturePlan {
    pub name: &'static str,
    /// Untimed steps that end set-up (caches filled, pool awake).
    pub warmup: u64,
    /// The training budget: timed iterations after which the model is
    /// the workload's result. `time_to_result_s` is the time they take
    /// and `quality_db` the PSNR they reach, so neither depends on how
    /// long the window runs and both repeat exactly in iterations.
    pub budget: u64,
    /// `Trainer::evaluate` cadence within the budget, in iterations.
    pub eval_every: u64,
    /// Test PSNR (dB) whose first crossing is recorded beside the
    /// end-to-end numbers. Picked so seeds 0, 1 and 2 cross it between
    /// 30 % and 70 % of the budget.
    pub target_db: f64,
    /// Traced child: plain steps timed before any replica runs.
    pub phase_a: u64,
    /// Test views an evaluation renders.
    pub eval_views: u64,
}

/// Times set-up runs, for a median `setup_s`.
const SETUP_REPS: u64 = 3;

pub fn plan(workload: &str) -> CapturePlan {
    match workload {
        "capture_object" => CapturePlan {
            name: "capture_object",
            warmup: 50,
            budget: 300,
            eval_every: 20,
            target_db: 25.0,
            phase_a: 100,
            eval_views: 5,
        },
        "capture_room_ngp" => CapturePlan {
            name: "capture_room_ngp",
            warmup: 5,
            budget: 50,
            eval_every: 5,
            target_db: 27.0,
            phase_a: 10,
            eval_views: 3,
        },
        other => panic!("{other} is not a capture workload"),
    }
}

fn build_dataset(plan: &CapturePlan, args: &ChildArgs, rng: &mut StdRng) -> Dataset {
    match plan.name {
        "capture_object" => surface::synthetic_dataset(4, 40, args.scaled(16, 2) as usize, rng),
        _ => surface::scannet_dataset(48, args.scaled(24, 2) as usize, rng),
    }
}

fn config(plan: &CapturePlan) -> TrainConfig {
    match plan.name {
        "capture_object" => surface::config_instant3d(),
        _ => surface::config_instant_ngp_tables(512, 48),
    }
}

/// Everything set-up produces.
struct Ready {
    ds: Dataset,
    trainer: Trainer,
    rng: StdRng,
    /// A replica at iteration 0 with its own copy of the RNG (traced
    /// child only).
    replica: Option<(Replica, StdRng)>,
    build_ms: f64,
    new_ms: f64,
    warmup_losses_finite: bool,
}

/// Dataset, trainer and warm-up, from the workload seed. The trainer's
/// RNG continues the stream the dataset was built from, as a fleet job's
/// does.
fn set_up(plan: &CapturePlan, args: &ChildArgs, with_replica: bool) -> Ready {
    let mut rng = surface::rng(args.seed);
    let t = Instant::now();
    let ds = build_dataset(plan, args, &mut rng);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut trainer = surface::trainer_new(config(plan), &ds, &mut rng);
    let new_ms = t.elapsed().as_secs_f64() * 1e3;
    let replica = with_replica.then(|| {
        (
            Replica::new(config(plan), trainer.model().clone(), &ds),
            rng.clone(),
        )
    });
    let mut finite = true;
    for _ in 0..args.scaled(plan.warmup, 1) {
        finite &= surface::trainer_step(&mut trainer, &mut rng)
            .loss
            .is_finite();
    }
    Ready {
        ds,
        trainer,
        rng,
        replica,
        build_ms,
        new_ms,
        warmup_losses_finite: finite,
    }
}

pub fn run(args: &ChildArgs, t_main: Instant) -> Outcome {
    let plan = plan(&args.workload);
    if args.trace {
        run_traced(&plan, args)
    } else {
        run_untraced(&plan, args, t_main)
    }
}

fn run_untraced(plan: &CapturePlan, args: &ChildArgs, t_main: Instant) -> Outcome {
    let mut out = Outcome::default();

    let reps = args.scaled(SETUP_REPS, 1);
    let (ready, setup_s, digests) = repeat_set_up(
        reps,
        t_main,
        || set_up(plan, args, false),
        |r| fnv1a_hex(&surface::checkpoint_save(r.trainer.model())),
    );
    out.check_same_digests("ckpt@warmup", &digests);
    out.check(ready.warmup_losses_finite, || {
        "non-finite warm-up loss".into()
    });
    let Ready {
        ds,
        mut trainer,
        mut rng,
        ..
    } = ready;
    let eval_ds = surface::eval_subset(&ds, args.scaled(plan.eval_views, 1) as usize);

    // Measured window: closed loop, one client, in blocks of
    // `eval_every` steps. The first `budget` iterations are the training
    // run whose time and quality are reported, with an untimed evaluation
    // after each of its blocks; the blocks after it only add samples.
    let eval_every = args.scaled(plan.eval_every, 1);
    let budget_blocks = (args.scaled(plan.budget, 3) / eval_every).max(3);
    let budget = budget_blocks * eval_every;
    let mut block_s: Vec<f64> = Vec::new();
    let mut block_p50_ms: Vec<f64> = Vec::new();
    let mut evals = vec![(
        0u64,
        0.0f64,
        f64::from(surface::trainer_eval_psnr(&trainer, &eval_ds)),
    )];
    let mut train_s = 0.0f64;
    let started = Instant::now();
    let mut it = 0u64;
    while it < budget || started.elapsed().as_secs_f64() < args.seconds {
        let mut step_ms = Vec::with_capacity(eval_every as usize);
        for _ in 0..eval_every {
            let t = Instant::now();
            let s = surface::trainer_step(&mut trainer, &mut rng);
            step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.op(s.loss.is_finite());
        }
        it += eval_every;
        let block = step_ms.iter().sum::<f64>() / 1e3;
        train_s += block;
        block_s.push(block);
        block_p50_ms.push(median(&step_ms));
        if it <= budget {
            let psnr = f64::from(surface::trainer_eval_psnr(&trainer, &eval_ds));
            // The PSNR curve, for whoever recalibrates the plan.
            eprintln!(
                "{} seed {} it {it} train {train_s:.3} s psnr {psnr:.3} dB",
                plan.name, args.seed
            );
            evals.push((it, train_s, psnr));
        }
        if it == budget {
            out.hash(
                "ckpt@budget",
                fnv1a_hex(&surface::checkpoint_save(trainer.model())),
            );
        }
    }

    // Quality: the mean of the budget's last four evaluations, because
    // single evaluations of a model training at this learning rate swing
    // by half a decibel.
    let tail = &evals[evals.len().saturating_sub(4)..];
    let quality = tail.iter().map(|e| e.2).sum::<f64>() / tail.len() as f64;
    out.check(quality.is_finite(), || "non-finite evaluation PSNR".into());

    // First crossing of the target, training time linear between the two
    // evaluations around it. Recorded, not an end-to-end metric: it
    // swings by a fifth from seed to seed (see README.md).
    let target = if args.smoke {
        evals[0].2 + 0.5
    } else {
        plan.target_db
    };
    let crossing = evals
        .windows(2)
        .find(|w| w[0].2 < target && w[1].2 >= target)
        .map(|w| {
            let frac = (target - w[0].2) / (w[1].2 - w[0].2);
            (w[0].1 + frac * (w[1].1 - w[0].1), w[1].0)
        });

    // Every timing is the steady estimate over blocks (see `steady`),
    // scaled to the quantity it names: a burst of interference moves a
    // whole-window total by its full length and this not at all.
    out.metric("setup_s", median(&setup_s));
    out.metric(
        "time_to_result_s",
        budget_blocks as f64 * steady(&block_s[..budget_blocks as usize]),
    );
    out.metric("work_per_s", eval_every as f64 / steady(&block_s));
    out.metric("op_ms_p50", steady(&block_p50_ms));
    out.metric("quality_db", quality);
    out.metric("peak_rss_mb", peak_rss_mb());
    out.count("iterations", it as f64);
    out.count("warmup", args.scaled(plan.warmup, 1) as f64);
    out.count("setup_reps", reps as f64);
    out.count("budget", budget as f64);
    out.count("block", eval_every as f64);
    out.count("psnr_target_db", target);
    // 0 = not crossed within the budget.
    out.count("iters_to_psnr", crossing.map_or(0.0, |c| c.1 as f64));
    out.count("time_to_psnr_s", crossing.map_or(0.0, |c| c.0));
    out
}

/// The traced child. Phase A times plain `Trainer::step`s with nothing
/// else running (the untraced reference inside this process); the replica
/// then catches up on its own RNG copy; phase B alternates a real step
/// and its replica under spans until the time is up.
fn run_traced(plan: &CapturePlan, args: &ChildArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(true);

    let Ready {
        ds,
        mut trainer,
        mut rng,
        replica,
        build_ms,
        new_ms,
        warmup_losses_finite,
    } = set_up(plan, args, true);
    let (mut replica, mut replica_rng) = replica.expect("set_up built the replica");
    out.check(warmup_losses_finite, || "non-finite warm-up loss".into());
    out.hash(
        "ckpt@warmup",
        fnv1a_hex(&surface::checkpoint_save(trainer.model())),
    );

    // Phase A: a fixed count, so the exact per-iteration counters below
    // repeat for a seed.
    let warmup = args.scaled(plan.warmup, 1);
    let phase_a = args.scaled(plan.phase_a, 2);
    let mut a_ns = Vec::new();
    for _ in 0..phase_a {
        let t = Instant::now();
        let s = surface::trainer_step(&mut trainer, &mut rng);
        a_ns.push(t.elapsed().as_nanos() as f64);
        out.op(s.loss.is_finite());
    }
    let per_iter = surface::stats_per_iter(&trainer);
    out.hash(
        "ckpt@phase_a",
        fnv1a_hex(&surface::checkpoint_save(trainer.model())),
    );

    // Catch-up: the replica re-executes warm-up and phase A, unobserved.
    let mut quiet = Tracer::new(false);
    for _ in 0..warmup + phase_a {
        replica.step(&mut replica_rng, &mut quiet);
    }
    out.check(
        surface::checkpoint_save(replica.model()) == surface::checkpoint_save(trainer.model()),
        || "replica model differs from the trainer's after catch-up".into(),
    );
    let fixed: Counters = replica.counters;
    replica.counters = Counters::default();

    // Phase B.
    let mut b_ns = Vec::new();
    let mut mismatches = 0u64;
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed().as_secs_f64() < args.seconds || op < 2 {
        tr.set_op(op);
        let s = tr.enter("trainer.step");
        let t = Instant::now();
        let real = surface::trainer_step(&mut trainer, &mut rng);
        b_ns.push(t.elapsed().as_nanos() as f64);
        tr.exit(s);
        let copy = replica.step(&mut replica_rng, &mut tr);
        out.op(real.loss.is_finite());
        mismatches += u64::from(real.loss.to_bits() != copy.to_bits());
        op += 1;
    }
    out.check(mismatches == 0, || {
        format!("replica loss differed from Trainer::step on {mismatches} of {op} iterations")
    });
    out.check(
        surface::checkpoint_save(replica.model()) == surface::checkpoint_save(trainer.model()),
        || "replica model differs from the trainer's after the traced phase".into(),
    );

    // The measuring instrument's own cost.
    let eval_ds = surface::eval_subset(&ds, args.scaled(plan.eval_views, 1) as usize);
    tr.set_op(op);
    let s = tr.enter("core.evaluate");
    let psnr = surface::trainer_eval_psnr(&trainer, &eval_ds);
    tr.exit(s);
    out.check(psnr.is_finite(), || "non-finite evaluation PSNR".into());

    // ---- spans → per-layer metrics
    let spans = tr.spans();
    let own = self_times(spans);
    let totals = Totals::of(spans);
    let ns = |name: &str| totals.ns(name);
    let c = replica.counters;
    let (iters, rays, points) = (c.iterations as f64, c.rays as f64, c.points as f64);

    out.metric("scenes.build_ms", build_ms);
    out.metric("trainer.new_ms", new_ms);
    out.metric("sampler.pixels_ns_per_ray", per(ns("sampler.pixels"), rays));
    out.metric(
        "sampler.segments_ns_per_ray",
        per(ns("sampler.segments"), rays),
    );
    out.metric(
        "occupancy.keep_ratio",
        per(fixed.points as f64, fixed.candidates as f64),
    );
    out.metric(
        "occupancy.refresh_ms",
        per(ns("occupancy.refresh"), totals.calls("occupancy.refresh")) / 1e6,
    );
    out.metric(
        "occupancy.refresh_cells",
        per(
            fixed.occupancy_cells as f64,
            fixed.occupancy_refreshes as f64,
        ),
    );

    let enc_d = ns("grid.encode_density");
    let sc_d = ns("grid.scatter_density");
    out.metric("grid.encode_density_ns_per_point", per(enc_d, points));
    out.metric(
        "grid.encode_color_ns_per_point",
        per(ns("grid.encode_color"), c.color_encode_points as f64),
    );
    out.metric("grid.scatter_density_ns_per_point", per(sc_d, points));
    out.metric(
        "grid.scatter_color_ns_per_point",
        per(ns("grid.scatter_color"), c.color_scatter_points as f64),
    );
    out.metric(
        "grid.zero_grads_ms_per_iter",
        per(ns("grid.zero_grads"), iters) / 1e6,
    );
    out.metric(
        "grid.adam_ms_per_iter",
        per(ns("grid.adam_density") + ns("grid.adam_color"), iters) / 1e6,
    );
    out.metric(
        "grid.adam_touched_ratio",
        per(fixed.adam_touched as f64, fixed.adam_scanned as f64),
    );
    // Computed, not measured: levels × 8 corners × F features × 4 B, the
    // table bytes one point's interpolation (or its scatter) addresses in
    // the density grid. Cache misses move more.
    let (levels, features) = surface::density_grid_shape(trainer.model());
    let bytes_pp = (levels * 8 * features * 4) as f64;
    out.metric("grid.encode_bytes_per_point", bytes_pp);
    out.metric("grid.scatter_bytes_per_point", bytes_pp);
    out.metric("grid.encode_gbps", per(bytes_pp * points, enc_d));
    out.metric("grid.scatter_gbps", per(bytes_pp * points, sc_d));

    let fwd = ns("mlp.forward_sigma") + ns("mlp.forward_color");
    let bwd = ns("mlp.backward_sigma") + ns("mlp.backward_color");
    out.metric(
        "mlp.forward_sigma_ns_per_point",
        per(ns("mlp.forward_sigma"), points),
    );
    out.metric(
        "mlp.forward_color_ns_per_point",
        per(ns("mlp.forward_color"), points),
    );
    out.metric(
        "mlp.backward_sigma_ns_per_point",
        per(ns("mlp.backward_sigma"), points),
    );
    out.metric(
        "mlp.backward_color_ns_per_point",
        per(ns("mlp.backward_color"), points),
    );
    // Computed: two flops per multiply-accumulate, both heads, forward;
    // the backward pass is counted as twice that, as `WorkloadStats` does.
    let flops_pp = 2.0 * surface::mlp_macs_per_point(trainer.model()) as f64;
    out.metric("mlp.flops_per_point", flops_pp);
    out.metric("mlp.forward_gflops", per(flops_pp * points, fwd));
    out.metric("mlp.backward_gflops", per(2.0 * flops_pp * points, bwd));
    out.metric("adam.mlp_ms_per_iter", per(ns("adam.mlp"), iters) / 1e6);
    out.metric(
        "render.composite_ns_per_point",
        per(ns("render.composite"), points),
    );
    out.metric(
        "render.composite_backward_ns_per_point",
        per(ns("render.composite_backward"), points),
    );

    for (name, v) in [
        "trainer.points_per_iter",
        "trainer.grid_reads_per_iter",
        "trainer.grid_writes_per_iter",
        "trainer.mlp_flops_per_iter",
    ]
    .into_iter()
    .zip(per_iter)
    {
        out.metric(name, v);
    }
    let tail = tail_percentile(a_ns.len());
    out.metric("trainer.step_ms_p50", median(&a_ns) / 1e6);
    out.metric("trainer.step_ms_tail", percentile(&a_ns, tail) / 1e6);
    out.metric("trainer.step_tail_pct", tail);
    out.metric("trainer.step_samples", a_ns.len() as f64);

    // The Fig.-4 view: self time per layer over the replica's step time.
    let step_total = ns("replica.step");
    let mut share = [0.0f64; 7];
    for (s, own_ns) in spans.iter().zip(&own) {
        let slot = match s.name {
            "replica.step" => 6,
            "occupancy.refresh" => 5,
            "adam.mlp" => 4,
            n if n.starts_with("sampler.") => 3,
            n if n.starts_with("render.") => 2,
            n if n.starts_with("mlp.") => 1,
            n if n.starts_with("grid.") => 0,
            _ => continue,
        };
        share[slot] += *own_ns as f64;
    }
    for (name, v) in [
        "share.grid",
        "share.mlp",
        "share.render",
        "share.sampler",
        "share.optimizer",
        "share.occupancy",
        "share.glue",
    ]
    .into_iter()
    .zip(share)
    {
        out.metric(name, per(v, step_total));
    }
    let replica_ns: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "replica.step")
        .map(|s| s.dur_ns() as f64)
        .collect();
    out.metric("trace.coverage", median(&replica_ns) / median(&b_ns));
    out.metric("trace.overhead", median(&b_ns) / median(&a_ns));
    out.metric("trace.train_spans", training_spans(spans) as f64);
    out.metric("trace.replica_loss_mismatches", mismatches as f64);
    out.metric(
        "eval.ms_per_view",
        per(
            ns("core.evaluate"),
            surface::test_view_count(&eval_ds) as f64,
        ) / 1e6,
    );

    out.count("warmup", warmup as f64);
    out.count("phase_a", phase_a as f64);
    out.count("traced_iterations", op as f64);
    out.count("spans", spans.len() as f64);
    write_trace(&mut out, args, spans);
    out
}

/// Writes the spans as `<out>/<workload>-w<workers>.trace.json`; a write
/// failure is a failed check, not a lost run.
pub fn write_trace(out: &mut Outcome, args: &ChildArgs, spans: &[crate::span::Span]) {
    let doc = to_trace_events(spans, &args.workload, u64::from(std::process::id()));
    let path = std::path::Path::new(&args.out_dir)
        .join(format!("{}-w{}.trace.json", args.workload, args.workers));
    let written =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, doc.to_json()));
    out.check(written.is_ok(), || {
        format!(
            "could not write {}: {}",
            path.display(),
            written.unwrap_err()
        )
    });
}
