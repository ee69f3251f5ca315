//! The parent side: one child process per workload per mode, never two at
//! once, each started on the product's default path.
//!
//! The driver itself never enters the program under test — it re-executes
//! its own binary as `ledger child …` with `RAYON_NUM_THREADS` set and the
//! variables that would redirect the product (kernel backend override,
//! quick modes) removed, then merges what the children report.

use crate::json::Value;
use crate::names::{END_TO_END, PER_LAYER};
use crate::outcome::Outcome;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads the workloads run on: the cores the box has, at most 4.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Variables that would move a child off the product's default path.
const SCRUBBED: [&str; 5] = [
    "INSTANT3D_KERNEL_BACKEND",
    "INSTANT3D_QUICK",
    "CRITERION_QUICK",
    "CRITERION_HOME",
    "PROPTEST_CASES",
];

/// A child may not outlive this; the benchmark contract allows 180 s for
/// a whole run.
const CHILD_LIMIT: Duration = Duration::from_secs(170);

/// One run of one workload in one mode.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: String,
}

/// What the driver reports for a run: every declared metric of the mode,
/// by name, plus the output checks.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub spec: RunSpec,
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub hashes: Vec<(String, String)>,
    pub counts: Vec<(String, f64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The last line of a contract-mode run.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::names::unit_of(name).expect("declared metric");
                (
                    name.to_string(),
                    Value::obj()
                        .with("value", Value::Num(*value))
                        .with("unit", unit.into()),
                )
            })
            .collect();
        Value::obj()
            .with("correct", self.correct().into())
            .with("attempted", self.attempted.max(1).into())
            .with("failed", self.failed.into())
            .with("metrics", Value::Obj(metrics))
            .to_json()
    }

    pub fn print_table(&self) {
        println!(
            "# {} seed {} {}",
            self.spec.workload,
            self.spec.seed,
            if self.spec.trace {
                "traced"
            } else {
                "untraced"
            }
        );
        for (name, value) in &self.metrics {
            let unit = crate::names::unit_of(name).expect("declared metric");
            println!("{name:<42} {value:>16.6} {unit}");
        }
        println!(
            "operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for e in &self.errors {
            println!("CHECK FAILED: {e}");
        }
    }

    pub fn to_json(&self) -> Value {
        let nums = |rows: Vec<(String, f64)>| {
            Value::Obj(rows.into_iter().map(|(k, v)| (k, Value::Num(v))).collect())
        };
        Value::obj()
            .with("workload", self.spec.workload.as_str().into())
            .with("seed", self.spec.seed.into())
            .with("trace", self.spec.trace.into())
            .with("seconds", Value::Num(self.spec.seconds))
            .with(
                "metrics",
                nums(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect(),
                ),
            )
            .with("attempted", self.attempted.into())
            .with("failed", self.failed.into())
            .with("counts", nums(self.counts.clone()))
            .with(
                "hashes",
                Value::Obj(
                    self.hashes
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_str().into()))
                        .collect(),
                ),
            )
            .with(
                "errors",
                Value::Arr(self.errors.iter().map(|e| e.as_str().into()).collect()),
            )
    }
}

/// Starts `ledger child <args>` on `workers` threads, waits for it and
/// parses the one JSON line it prints. A child that crashes, hangs or
/// prints no result yields an outcome with one failed operation: its
/// remaining operations are lost with it.
fn run_child(args: &[String], workers: usize) -> Outcome {
    let crashed = |why: String| Outcome {
        attempted: 1,
        failed: 1,
        errors: vec![why],
        ..Outcome::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return crashed(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(args)
        .env("RAYON_NUM_THREADS", workers.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for var in SCRUBBED {
        cmd.env_remove(var);
    }
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return crashed(format!("spawn child: {e}")),
    };
    // The child prints a single line, far below the pipe's capacity, so
    // waiting before reading cannot deadlock.
    let deadline = Instant::now() + CHILD_LIMIT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                // Kill and reap; both errors mean the child is already gone.
                let _ = child.kill();
                let _ = child.wait();
                return crashed(format!("child {args:?} exceeded {CHILD_LIMIT:?}"));
            }
            Err(e) => return crashed(format!("wait for child: {e}")),
        }
    };
    let mut text = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        if let Err(e) = stdout.read_to_string(&mut text) {
            return crashed(format!("read child output: {e}"));
        }
    }
    if !status.success() {
        return crashed(format!("child {args:?} ended with {status}"));
    }
    match text.lines().last() {
        Some(line) => Outcome::from_json(line).unwrap_or_else(crashed),
        None => crashed(format!("child {args:?} printed no result")),
    }
}

fn child_args(spec: &RunSpec, seconds: f64, workers: usize) -> Vec<String> {
    let mut a = vec![
        "--workload".to_string(),
        spec.workload.clone(),
        "--seed".to_string(),
        spec.seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(spec.trace).to_string(),
        "--workers".to_string(),
        workers.to_string(),
        "--out".to_string(),
        spec.out_dir.clone(),
    ];
    if spec.smoke {
        a.push("--smoke".to_string());
    }
    a
}

/// Runs the machine micro-benches in their own child, so their arrays
/// are in nobody's peak RSS.
pub fn run_machine(smoke: bool) -> Outcome {
    let mut args = vec!["--workload".to_string(), "machine".to_string()];
    args.extend(["--workers".to_string(), workers().to_string()]);
    if smoke {
        args.push("--smoke".to_string());
    }
    run_child(&args, workers())
}

/// Runs one workload in one mode and merges its children.
pub fn run(spec: &RunSpec) -> RunResult {
    if spec.trace {
        run_traced(spec)
    } else {
        run_untraced(spec)
    }
}

fn run_untraced(spec: &RunSpec) -> RunResult {
    let w = workers();
    let child = run_child(&child_args(spec, spec.seconds, w), w);
    let mut errors = child.errors.clone();
    let metrics = END_TO_END
        .iter()
        .map(|e| {
            let v = child.get(e.name).unwrap_or(f64::NAN);
            if !v.is_finite() {
                errors.push(format!("{} was not measured", e.name));
            }
            (e.name, v)
        })
        .collect();
    RunResult {
        spec: spec.clone(),
        metrics,
        attempted: child.attempted,
        failed: child.failed,
        errors,
        hashes: child.hashes,
        counts: child.counts,
    }
}

fn run_traced(spec: &RunSpec) -> RunResult {
    let w = workers();
    let capture = spec.workload.starts_with("capture_");
    let machine = run_machine(spec.smoke);
    // The capture workloads run a second, single-worker child for the
    // pool.* ratios; the measured time is split between the two.
    let main_seconds = if capture {
        spec.seconds * 0.6
    } else {
        spec.seconds
    };
    let main = run_child(&child_args(spec, main_seconds, w), w);
    let solo = capture.then(|| run_child(&child_args(spec, spec.seconds * 0.4, 1), 1));

    let mut errors: Vec<String> = machine
        .errors
        .iter()
        .chain(&main.errors)
        .chain(solo.iter().flat_map(|s| &s.errors))
        .cloned()
        .collect();
    let mut attempted = machine.attempted + main.attempted;
    let mut failed = machine.failed + main.failed;
    let mut derived: Vec<(&'static str, f64)> = Vec::new();

    if let Some(solo) = &solo {
        attempted += solo.attempted;
        failed += solo.failed;
        // Worker count never changes bits.
        for key in ["ckpt@warmup", "ckpt@phase_a"] {
            attempted += 1;
            if main.get_hash(key).is_none() || main.get_hash(key) != solo.get_hash(key) {
                failed += 1;
                errors.push(format!(
                    "{key}: {w} workers gave {:?}, 1 worker gave {:?}",
                    main.get_hash(key),
                    solo.get_hash(key)
                ));
            }
        }
        // Time at 1 worker ÷ time at W workers (base: the single-threaded run).
        let ratio = |names: &[&str]| -> f64 {
            let sum = |o: &Outcome| names.iter().filter_map(|n| o.get(n)).sum::<f64>();
            let (one, many) = (sum(solo), sum(&main));
            if many > 0.0 {
                one / many
            } else {
                0.0
            }
        };
        derived.push((
            "pool.encode_speedup",
            ratio(&["grid.encode_density_ns_per_point"]),
        ));
        derived.push((
            "pool.scatter_speedup",
            ratio(&["grid.scatter_density_ns_per_point"]),
        ));
        derived.push((
            "pool.mlp_forward_speedup",
            ratio(&[
                "mlp.forward_sigma_ns_per_point",
                "mlp.forward_color_ns_per_point",
            ]),
        ));
        derived.push((
            "pool.mlp_backward_speedup",
            ratio(&[
                "mlp.backward_sigma_ns_per_point",
                "mlp.backward_color_ns_per_point",
            ]),
        ));
        derived.push(("pool.step_speedup", ratio(&["trainer.step_ms_p50"])));
    }

    // Roofline shares against the ceilings measured in this invocation.
    // When the triad arrays could not reach 4× the last-level cache the
    // bandwidth figure is not a DRAM ceiling: the grid shares stay 0 and
    // the bytes-per-point rows stand alone.
    let triad = machine.get("machine.triad_gbps").unwrap_or(0.0);
    let fma = machine.get("machine.fma_gflops").unwrap_or(0.0);
    let capped = machine
        .counts
        .iter()
        .any(|(k, v)| k == "triad_cap_binds" && *v != 0.0);
    let share = |name: &str, ceiling: f64| -> f64 {
        match main.get(name) {
            Some(v) if ceiling > 0.0 => v / ceiling,
            _ => 0.0,
        }
    };
    if !capped {
        derived.push(("grid.encode_roof_share", share("grid.encode_gbps", triad)));
        derived.push(("grid.scatter_roof_share", share("grid.scatter_gbps", triad)));
    }
    derived.push(("mlp.forward_roof_share", share("mlp.forward_gflops", fma)));
    derived.push(("mlp.backward_roof_share", share("mlp.backward_gflops", fma)));

    // Every declared per-layer metric, in declared order; a layer that is
    // not on this workload's path reads 0.
    let metrics = PER_LAYER
        .iter()
        .map(|p| {
            let v = derived
                .iter()
                .find(|(n, _)| *n == p.name)
                .map(|(_, v)| *v)
                .or_else(|| main.get(p.name))
                .or_else(|| machine.get(p.name))
                .unwrap_or(0.0);
            if !v.is_finite() {
                errors.push(format!("{} is not finite", p.name));
            }
            (p.name, v)
        })
        .collect();
    let mut counts = main.counts.clone();
    counts.extend(machine.counts.iter().cloned());
    RunResult {
        spec: spec.clone(),
        metrics,
        attempted,
        failed,
        errors,
        hashes: main.hashes,
        counts,
    }
}

/// First line of `program args…`, or "unknown".
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance every result set records.
pub fn meta(seconds: f64, smoke: bool) -> Value {
    let (backend, tier) = crate::surface::default_backend();
    Value::obj()
        .with("git_rev", tool_line("git", &["rev-parse", "HEAD"]).into())
        .with("rustc", tool_line("rustc", &["-V"]).into())
        .with(
            "nproc",
            (std::thread::available_parallelism().map_or(1, |n| n.get()) as u64).into(),
        )
        .with("workers", (workers() as u64).into())
        .with("backend", backend.into())
        .with("tier", tier.into())
        .with("seconds", Value::Num(seconds))
        .with("smoke", smoke.into())
}
