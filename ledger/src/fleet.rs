//! `fleet_mixed`: twelve small jobs through `Fleet::run`. Steps are well
//! under a millisecond, so the kernels do little and slice hand-off, pool
//! sleep/wake, the workspace pool, the checkpoint codec and per-job
//! dataset builds do most of the work.

use crate::capture::write_trace;
use crate::outcome::{peak_rss_mb, per, ChildArgs, Outcome};
use crate::span::{Totals, Tracer};
use crate::stats::{fnv1a_hex, median, steady};
use crate::surface::{self, FleetConfig, FleetReport, JobSpec, SceneSpec};
use std::time::Instant;

const JOBS: usize = 12;
/// Every fourth job is long.
const LONG_ITERS: u64 = 240;
const SHORT_ITERS: u64 = 60;
const CHECKPOINT_EVERY: u64 = 20;
const MIN_REPS: u64 = 3;
const SETUP_REPS: u64 = 3;

/// The job mix: scenes rotate through the three dataset families, every
/// fourth job is four times longer, and each job has its own fixed seed.
/// The workload seed decides the order the jobs are submitted in — what a
/// scheduler sees of its clients — and leaves the jobs themselves alone,
/// so every seed asks for the same training work.
fn specs(args: &ChildArgs) -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = (0..JOBS)
        .map(|i| {
            let (resolution, train_views) = (16, 4);
            let scene = match i % 3 {
                0 => SceneSpec::Synthetic {
                    index: i % 8,
                    resolution,
                    train_views,
                },
                1 => SceneSpec::Silvr {
                    resolution,
                    train_views,
                },
                _ => SceneSpec::Scannet {
                    resolution,
                    train_views,
                },
            };
            JobSpec {
                name: format!("job{i:02}"),
                scene,
                config: surface::config_fast_preview(),
                seed: 1000 + i as u64,
                iterations: args.scaled(if i % 4 == 0 { LONG_ITERS } else { SHORT_ITERS }, 2),
                checkpoint_every: args.scaled(CHECKPOINT_EVERY, 1),
            }
        })
        .collect();
    // Fisher–Yates on the workload's stream.
    let mut rng = surface::rng(args.seed);
    for i in (1..specs.len()).rev() {
        let j = (surface::unit_draw(&mut rng) * (i + 1) as f32) as usize;
        specs.swap(i, j.min(i));
    }
    specs
}

fn fleet_config(args: &ChildArgs) -> FleetConfig {
    FleetConfig {
        threads: Some(args.workers),
        preview_tiles_per_slice: 2,
        ..FleetConfig::default()
    }
}

/// Checks one report against the specs and the first repetition's
/// checkpoints; returns the per-job digests.
fn check_report(
    out: &mut Outcome,
    specs: &[JobSpec],
    report: &FleetReport,
    first: Option<&[String]>,
    rep: usize,
) -> Vec<String> {
    let mut digests = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let job = report.jobs.iter().find(|j| j.name == spec.name);
        let ok = job.is_some_and(|j| j.final_loss.is_finite() && j.iterations == spec.iterations);
        let digest = job.map_or_else(String::new, |j| fnv1a_hex(&j.final_checkpoint));
        let same = first.is_none_or(|f| f[i] == digest);
        out.op(ok && same);
        if !ok {
            out.errors.push(format!(
                "repetition {rep}: {} missing or non-finite",
                spec.name
            ));
        } else if !same {
            out.errors.push(format!(
                "repetition {rep}: {} final checkpoint differs from the first repetition's",
                spec.name
            ));
        }
        digests.push(digest);
    }
    digests
}

pub fn run(args: &ChildArgs, t_main: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let cfg = fleet_config(args);

    // Set-up: build the job specs and run the fleet once untimed (pool
    // threads spawned, allocator warm).
    let reps = if args.trace {
        1
    } else {
        args.scaled(SETUP_REPS, 1)
    };
    let mut setup_s = Vec::new();
    let mut first: Option<Vec<String>> = None;
    let mut all_specs = Vec::new();
    for rep in 0..reps {
        let t = if rep == 0 { t_main } else { Instant::now() };
        all_specs = specs(args);
        let report = surface::fleet_run(&cfg, &all_specs);
        setup_s.push(t.elapsed().as_secs_f64());
        let digests = check_report(
            &mut out,
            &all_specs,
            &report,
            first.as_deref(),
            rep as usize,
        );
        first.get_or_insert(digests);
    }
    let specs = all_specs;
    let first = first.expect("at least one set-up repetition");

    // Output check: a long job trained alone gives the same bits.
    let (at, long) = specs
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == "job00")
        .expect("job00 is in the mix");
    let solo = fnv1a_hex(&surface::train_solo(long));
    out.check(solo == first[at], || {
        format!(
            "{} in the fleet gave {}, train_solo gave {solo}",
            long.name, first[at]
        )
    });

    // Measured window: closed loop, one client submitting the whole mix.
    let mut makespan_s: Vec<f64> = Vec::new();
    let mut busy_ms: Vec<f64> = Vec::new();
    let mut rep_busy_p50_ms: Vec<f64> = Vec::new();
    let mut busy_share: Vec<f64> = Vec::new();
    let mut last: Option<FleetReport> = None;
    let min_reps = args.scaled(MIN_REPS, 1) as usize;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds || makespan_s.len() < min_reps {
        let rep = makespan_s.len();
        tr.set_op(rep as u64);
        let s = tr.enter("fleet.run");
        let t = Instant::now();
        let report = surface::fleet_run(&cfg, &specs);
        let wall = t.elapsed().as_secs_f64();
        tr.exit(s);
        makespan_s.push(wall);
        check_report(&mut out, &specs, &report, Some(&first), rep + reps as usize);
        let rep_busy: Vec<f64> = report
            .jobs
            .iter()
            .map(|j| j.busy_nanos as f64 / 1e6)
            .collect();
        rep_busy_p50_ms.push(median(&rep_busy));
        busy_ms.extend(rep_busy);
        let lanes = cfg.concurrency.min(args.workers).max(1) as f64;
        busy_share.push(report.stats.busy_nanos as f64 / 1e9 / (wall * lanes));
        last = Some(report);
    }
    let last = last.expect("at least one repetition");
    let psnr_db = last
        .jobs
        .iter()
        .map(|j| -10.0 * f64::from(j.final_loss).log10())
        .sum::<f64>()
        / last.jobs.len() as f64;

    out.metric("setup_s", median(&setup_s));
    // Every timing is the steady estimate over repetitions (see `steady`).
    out.metric("time_to_result_s", steady(&makespan_s));
    out.metric("work_per_s", JOBS as f64 / steady(&makespan_s));
    out.metric("op_ms_p50", steady(&rep_busy_p50_ms));
    out.metric("quality_db", psnr_db);
    out.metric("peak_rss_mb", peak_rss_mb());
    for (i, d) in first.iter().enumerate() {
        out.hash(&format!("final@{}", specs[i].name), d.clone());
    }

    // ---- per layer
    out.metric("fleet.busy_share", median(&busy_share));
    out.metric("fleet.job_busy_ms_p50", median(&busy_ms));
    out.metric(
        "fleet.makespan_s_max",
        makespan_s.iter().copied().fold(0.0, f64::max),
    );
    out.metric(
        "fleet.checkpoints_written",
        last.stats.checkpoints_written as f64,
    );
    out.metric(
        "fleet.checkpoints_evicted",
        last.stats.checkpoints_evicted as f64,
    );
    out.metric("fleet.preview_tiles", last.stats.preview_tiles as f64);
    out.metric(
        "wspool.minted",
        (last.stats.batch_allocated + last.stats.occ_allocated) as f64,
    );
    out.metric(
        "wspool.recycled",
        (last.stats.batch_recycled + last.stats.occ_recycled) as f64,
    );
    out.metric("trace.train_spans", 0.0);
    if args.trace {
        traced_extras(&mut out, &mut tr, &specs, median(&makespan_s));
        out.count("spans", tr.spans().len() as f64);
        write_trace(&mut out, args, tr.spans());
    }
    out.count("setup_reps", reps as f64);
    out.count("repetitions", makespan_s.len() as f64);
    out.count("jobs", JOBS as f64);
    out.count("long_iters", args.scaled(LONG_ITERS, 2) as f64);
    out.count("short_iters", args.scaled(SHORT_ITERS, 2) as f64);
    out.count("checkpoint_every", args.scaled(CHECKPOINT_EVERY, 1) as f64);
    out
}

/// The public calls around the fleet that the traced run also times:
/// each job's dataset build, each job trained alone, and the checkpoint
/// codec on one of the models.
fn traced_extras(out: &mut Outcome, tr: &mut Tracer, specs: &[JobSpec], makespan_s: f64) {
    for (i, spec) in specs.iter().enumerate() {
        tr.set_op(10_000 + i as u64);
        let s = tr.enter("scenes.build");
        let ds = surface::scene_spec_build(&spec.scene, spec.seed);
        tr.exit(s);
        drop(ds);
        let s = tr.enter("serve.train_solo");
        let blob = surface::train_solo(spec);
        tr.exit(s);
        out.op(!blob.is_empty());
    }

    // Checkpoint codec on a job's model shape (all jobs share it).
    let spec = &specs[0];
    let mut rng = surface::rng(spec.seed);
    let ds = surface::scene_spec_build(&spec.scene, spec.seed);
    let mut trainer = surface::trainer_new(spec.config.clone(), &ds, &mut rng);
    surface::trainer_step(&mut trainer, &mut rng);
    let mut model = trainer.model().clone();
    let mut bytes = 0usize;
    for i in 0..20u64 {
        tr.set_op(20_000 + i);
        let s = tr.enter("checkpoint.save");
        let blob = surface::checkpoint_save(trainer.model());
        tr.exit(s);
        let s = tr.enter("checkpoint.load");
        let loaded = surface::checkpoint_load(&mut model, &blob);
        tr.exit(s);
        out.check(loaded.is_ok(), || format!("checkpoint load: {loaded:?}"));
        bytes = blob.len();
    }
    out.check(
        surface::checkpoint_save(&model) == surface::checkpoint_save(trainer.model()),
        || "checkpoint did not round-trip".into(),
    );

    let totals = Totals::of(tr.spans());
    out.metric(
        "scenes.build_ms",
        per(totals.ns("scenes.build"), totals.calls("scenes.build")) / 1e6,
    );
    // Σ wall of the twelve specs trained alone ÷ the fleet's makespan.
    out.metric(
        "fleet.speedup_vs_solo",
        per(totals.ns("serve.train_solo") / 1e9, makespan_s),
    );
    out.metric("checkpoint.bytes", bytes as f64);
    out.metric(
        "checkpoint.save_ns_per_byte",
        per(
            totals.ns("checkpoint.save"),
            totals.calls("checkpoint.save") * bytes as f64,
        ),
    );
    out.metric(
        "checkpoint.load_ns_per_byte",
        per(
            totals.ns("checkpoint.load"),
            totals.calls("checkpoint.load") * bytes as f64,
        ),
    );
}
