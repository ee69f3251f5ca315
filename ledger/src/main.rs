//! The perf ledger: this repository's benchmark. See README.md in this
//! directory for the workloads, the metric glossary and the trace format,
//! and BENCHMARK.json at the repository root for the declared names.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, benchmark contract
//! ledger run   [--seeds 0,1,2] [--seconds S] [--smoke]    every workload, both modes, all checks
//! ledger trace [--seed N] [--seconds S] [--smoke]         traced runs only
//! ledger machine                                          triad + multiply-add ceilings
//! ledger compare A.json B.json                            two result sets, row by row
//! ledger names                                            the metric rows of BENCHMARK.json
//! ```

mod capture;
mod compare;
mod driver;
mod fleet;
mod json;
mod machine;
mod names;
mod orbit;
mod outcome;
mod replica;
mod span;
mod stats;
mod surface;

use driver::{RunResult, RunSpec};
use json::Value;
use outcome::{ChildArgs, Outcome};
use std::process::ExitCode;
use std::time::Instant;

/// Measured seconds per run when the command line gives none; equal to
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;

/// Command-line options after the subcommand.
#[derive(Debug, Default)]
struct Opts {
    workload: Option<String>,
    seeds: Vec<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    workers: Option<usize>,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" | "--seeds" => {
                for s in value(arg)?.split(',') {
                    o.seeds
                        .push(s.parse().map_err(|_| format!("bad seed {s:?}"))?);
                }
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s} outside (0, 60]"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--workers" => {
                let v = value("--workers")?;
                let w: usize = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
                if !(1..=64).contains(&w) {
                    return Err(format!("--workers {w} outside 1..=64"));
                }
                o.workers = Some(w);
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

/// Where traces and result sets go: under the build directory, which the
/// repository's .gitignore already covers.
fn default_out() -> String {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    format!("{target}/ledger")
}

fn check_workload(name: &str) -> Result<(), String> {
    if names::WORKLOADS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            "unknown workload {name:?}; the workloads are {}",
            names::WORKLOADS.join(", ")
        ))
    }
}

fn spec(o: &Opts, workload: &str, seed: u64, trace: bool) -> RunSpec {
    let seconds = o.seconds.unwrap_or(DEFAULT_SECONDS);
    RunSpec {
        workload: workload.to_string(),
        seed,
        // Same code paths at 1/20 of every count, time included.
        seconds: if o.smoke { seconds / 20.0 } else { seconds },
        trace,
        smoke: o.smoke,
        out_dir: o.out.clone().unwrap_or_else(default_out),
    }
}

/// The benchmark contract: one workload, one mode, one JSON line last.
fn contract(o: &Opts) -> Result<ExitCode, String> {
    let workload = o.workload.as_deref().ok_or("--workload is required")?;
    check_workload(workload)?;
    let seed = *o.seeds.first().ok_or("--seed is required")?;
    let result = driver::run(&spec(o, workload, seed, o.trace));
    result.print_table();
    println!("{}", result.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Digests present in both results must agree: timing and tracing never
/// change bits.
fn cross_check(untraced: &RunResult, traced: &mut RunResult) {
    for (key, digest) in &untraced.hashes {
        if let Some((_, other)) = traced.hashes.iter().find(|(k, _)| k == key) {
            traced.attempted += 1;
            if other != digest {
                traced.failed += 1;
                traced.errors.push(format!(
                    "{key}: the untraced run gave {digest}, the traced run gave {other}"
                ));
            }
        }
    }
}

/// `ledger run` / `ledger trace`: every workload for every seed, tables
/// printed, result set saved; fails when any output check failed.
fn run_all(o: &Opts, untraced_too: bool) -> Result<ExitCode, String> {
    let seeds = if o.seeds.is_empty() {
        vec![0]
    } else {
        o.seeds.clone()
    };
    let out_dir = o.out.clone().unwrap_or_else(default_out);
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &seed in &seeds {
        for workload in names::WORKLOADS {
            if o.workload.as_deref().is_some_and(|w| w != workload) {
                continue;
            }
            let untraced = untraced_too.then(|| driver::run(&spec(o, workload, seed, false)));
            let mut traced = driver::run(&spec(o, workload, seed, true));
            if let Some(u) = &untraced {
                cross_check(u, &mut traced);
            }
            for r in untraced.iter().chain([&traced]) {
                r.print_table();
                all_correct &= r.correct();
                runs.push(r.to_json());
            }
        }
    }
    let doc = Value::obj()
        .with(
            "meta",
            driver::meta(o.seconds.unwrap_or(DEFAULT_SECONDS), o.smoke),
        )
        .with("runs", Value::Arr(runs));
    let path = std::path::Path::new(&out_dir).join("results.json");
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, doc.to_json()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set: {}", path.display());
    println!("traces:     {out_dir}/<workload>-w<workers>.trace.json");
    Ok(if all_correct {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        println!("OUTPUT CHECKS FAILED");
        ExitCode::FAILURE
    })
}

/// `ledger child …`: one workload in this process. Prints exactly one
/// line on stdout, the outcome.
fn child(o: &Opts, t_main: Instant) -> Result<ExitCode, String> {
    let args = ChildArgs {
        workload: o.workload.clone().ok_or("child needs --workload")?,
        seed: o.seeds.first().copied().unwrap_or(0),
        seconds: o.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: o.trace,
        smoke: o.smoke,
        workers: o.workers.ok_or("child needs --workers")?,
        out_dir: o.out.clone().unwrap_or_else(default_out),
    };
    let outcome: Outcome = match args.workload.as_str() {
        "capture_object" | "capture_room_ngp" => capture::run(&args, t_main),
        "preview_orbit" => orbit::run(&args, t_main),
        "fleet_mixed" => fleet::run(&args, t_main),
        "machine" => machine::run(&args),
        other => return Err(format!("unknown workload {other:?}")),
    };
    println!("{}", outcome.to_json().to_json());
    Ok(ExitCode::SUCCESS)
}

fn machine_cmd(o: &Opts) -> Result<ExitCode, String> {
    let m = driver::run_machine(o.smoke);
    for (name, value) in &m.metrics {
        let unit = names::unit_of(name).unwrap_or("");
        println!("{name:<42} {value:>16.6} {unit}");
    }
    let binds = m
        .counts
        .iter()
        .any(|(k, v)| k == "triad_cap_binds" && *v != 0.0);
    if binds {
        println!(
            "triad arrays are below 4x the last-level cache (1 GiB cap, or cache size unknown): \
             bandwidth is no DRAM ceiling, grid roof shares are omitted"
        );
    }
    for e in &m.errors {
        println!("CHECK FAILED: {e}");
    }
    Ok(if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `ledger names`: the `end_to_end` and `per_layer` arrays exactly as
/// BENCHMARK.json must declare them (a unit test holds the two equal).
fn names_cmd() -> ExitCode {
    let e2e = names::END_TO_END
        .iter()
        .map(|e| {
            Value::obj()
                .with("name", e.name.into())
                .with("unit", e.unit.into())
                .with("better", e.better.as_str().into())
                .with("bound", Value::Num(e.bound))
        })
        .collect();
    let layers = names::PER_LAYER
        .iter()
        .map(|p| {
            Value::obj()
                .with("name", p.name.into())
                .with("unit", p.unit.into())
                .with("better", p.better.as_str().into())
        })
        .collect();
    let doc = Value::obj()
        .with("end_to_end", Value::Arr(e2e))
        .with("per_layer", Value::Arr(layers));
    println!("{}", doc.to_json());
    ExitCode::SUCCESS
}

fn dispatch(args: &[String], t_main: Instant) -> Result<ExitCode, String> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c) if !c.starts_with("--") => (c, &args[1..]),
        _ => ("", args),
    };
    let o = parse_opts(rest)?;
    match cmd {
        "" => contract(&o),
        "run" => run_all(&o, true),
        "trace" => run_all(&o, false),
        "machine" => machine_cmd(&o),
        "names" => Ok(names_cmd()),
        "child" => child(&o, t_main),
        "compare" => match o.positional.as_slice() {
            [a, b] => Ok(if compare::run(a, b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err("compare takes two result-set files".to_string()),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let t_main = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, t_main) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
