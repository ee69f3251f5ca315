//! Conformance-suite integration tests: the live tree must lint clean,
//! and the seeded-violation fixture must fail with a `file:line`
//! diagnostic from each atomics pass.

use std::path::Path;

use instant3d_conformance::{lint_source, run_all, Config, Violation};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

fn lints<'a>(vs: &'a [Violation], lint: &str) -> Vec<&'a Violation> {
    vs.iter().filter(|v| v.lint == lint).collect()
}

/// The whole workspace lints clean against the checked-in allowlists —
/// the same gate `cargo run -p instant3d-conformance` enforces in CI.
#[test]
fn tree_is_clean() {
    let report = run_all(repo_root());
    assert!(report.files_scanned > 20, "suspiciously few files scanned");
    assert!(
        report.is_clean(),
        "conformance violations in the tree:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}

#[test]
fn unjustified_relaxed_and_unlisted_seqcst_fail() {
    let src = include_str!("fixtures/relaxed_unjustified.rs");
    let vs = lint_source("vendor/rayon/src/fake.rs", src, &Config::default());

    let relaxed = lints(&vs, "atomics-ordering");
    assert_eq!(relaxed.len(), 1, "relaxed audit: {vs:?}");
    assert_eq!(relaxed[0].file, "vendor/rayon/src/fake.rs");
    let line = src
        .lines()
        .position(|l| l.contains("Ordering::Relaxed") && !l.contains("ORDERING:"))
        .unwrap() as u32
        + 1;
    // First unjustified site (the `justified` one two fns down is clean).
    assert_eq!(relaxed[0].line, line);

    let protocol = lints(&vs, "atomics-protocol");
    assert_eq!(protocol.len(), 1, "protocol cross-check: {vs:?}");
    assert!(protocol[0].message.contains("SeqCst"));
    assert!(protocol[0].message.contains("unlisted_protocol"));

    // The Relaxed audit is not rayon-only: the optimizer sweep's
    // any-touched flag in `adam.rs` answers to it too.
    let vs = lint_source("crates/nerf/src/adam.rs", src, &Config::default());
    let relaxed = lints(&vs, "atomics-ordering");
    assert_eq!(relaxed.len(), 1, "relaxed audit: {vs:?}");
    assert_eq!(relaxed[0].line, line);
}

#[test]
fn protocol_manifest_count_drift_is_flagged() {
    let src = include_str!("fixtures/relaxed_unjustified.rs");
    let mut cfg = Config::default();
    cfg.protocol.push(instant3d_conformance::ProtocolEntry {
        path: "vendor/rayon/src/fake.rs".into(),
        func: "unlisted_protocol".into(),
        ordering: "SeqCst".into(),
        count: 3, // file has 1
    });
    let vs = lint_source("vendor/rayon/src/fake.rs", src, &cfg);
    let protocol = lints(&vs, "atomics-protocol");
    assert_eq!(protocol.len(), 1);
    assert!(protocol[0].message.contains("count drift"));
}

/// The checked-in manifest matches the real vendor/rayon tree exactly —
/// deleting a protocol site (or adding one) without updating the
/// manifest is caught.
#[test]
fn protocol_manifest_matches_the_live_tree_bidirectionally() {
    let root = repo_root();
    let cfg = Config::load(root);
    assert!(
        cfg.protocol.len() >= 7,
        "protocol manifest unexpectedly small: {}",
        cfg.protocol.len()
    );
    let registry = std::fs::read_to_string(root.join("vendor/rayon/src/registry.rs")).unwrap();
    // Seed a drift: lint a copy of registry.rs with one SeqCst removed.
    let seeded = registry.replacen("Ordering::SeqCst", "Ordering::Acquire", 1);
    let vs = lint_source("vendor/rayon/src/registry.rs", &seeded, &cfg);
    assert!(
        vs.iter().any(|v| v.lint == "atomics-protocol"),
        "weakening a protocol site went unnoticed: {vs:?}"
    );
}
