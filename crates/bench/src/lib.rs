//! Experiment harness regenerating every table and figure of the
//! Instant-3D paper.
//!
//! Each `experiments::*` module exposes a `run(quick)` function printing
//! the same rows/series the paper reports; [`experiments::ALL`] lists them
//! in paper order and the `repro` binary runs them by id (`repro list`,
//! `repro <id>…`, `repro all`). Pass `--quick` to shrink the training
//! budgets for smoke runs.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;
pub mod workloads;

/// Standard experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{id} — {title}");
    println!("{}", "=".repeat(78));
}
