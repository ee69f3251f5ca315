//! CLI entry point: `cargo run -p instant3d-conformance` lints the whole
//! workspace and exits non-zero on any non-baselined violation.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // crates/conformance -> workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let report = instant3d_conformance::run_all(root);
    for v in &report.baselined {
        println!("{v} (baselined)");
    }
    for v in &report.violations {
        println!("{v}");
    }
    println!(
        "conformance: {} files scanned, {} violations, {} baselined",
        report.files_scanned,
        report.violations.len(),
        report.baselined.len()
    );
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
