//! Experiment harness regenerating every table and figure of the
//! Instant-3D paper.
//!
//! Each `experiments::*` module exposes a `run(quick)` function printing
//! the same rows/series the paper reports; the `src/bin/` wrappers call
//! them individually, and `run_all` executes the full suite. Pass
//! `--quick` (or set `INSTANT3D_QUICK=1`) to shrink the training budgets
//! for smoke runs.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod workloads;

/// True when the invocation asked for the reduced (smoke-test) budgets.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("INSTANT3D_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// Standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id} — {title}");
    println!("{}", "=".repeat(78));
}
