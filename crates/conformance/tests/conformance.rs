//! Conformance-suite integration tests: the live tree must lint clean,
//! and seeded-violation fixtures must each fail with a `file:line`
//! diagnostic from the right pass.

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
fn unmarked_mul_add_in_strict_module_fails_with_file_line() {
    let src = include_str!("fixtures/fma_unmarked.rs");
    let vs = lint_source("crates/nerf/src/simd.rs", src, &Config::default());
    let fma = lints(&vs, "fma-strict");
    assert_eq!(fma.len(), 2, "expected exactly two fma violations: {vs:?}");
    assert_eq!(fma[0].file, "crates/nerf/src/simd.rs");
    // The unmarked call site; the marked `lossy_helper` below it is clean.
    let line = src
        .lines()
        .position(|l| l.contains("a.mul_add(b, c)"))
        .unwrap() as u32
        + 1;
    assert_eq!(fma[0].line, line);
    assert!(fma[0].message.contains("strict_kernel"));
    // Naming the fused accumulate policy is the same violation as writing
    // `mul_add`; the marked `lossy_monomorph` below it is clean.
    let line = src.lines().position(|l| l.contains("::Fused>")).unwrap() as u32 + 1;
    assert_eq!(fma[1].line, line);
    assert!(fma[1].message.contains("`Fused`") && fma[1].message.contains("strict_monomorph"));
    // Only `simd.rs` may spell a fused op: in any other strict module the
    // marked `lossy_helper` literal is a violation too, while naming
    // `Fused` under the marker (`lossy_monomorph`) stays clean.
    // The optimizer sweep's modules (`adam.rs`, `fp16.rs`) are strict too.
    for strict in ["mlp.rs", "adam.rs", "fp16.rs"] {
        let vs = lint_source(
            &format!("crates/nerf/src/{strict}"),
            src,
            &Config::default(),
        );
        let fma = lints(&vs, "fma-strict");
        assert_eq!(fma.len(), 3, "literal under the marker: {vs:?}");
        let helper = src.lines().position(|l| l.contains("fn lossy_helper"));
        assert_eq!(fma[1].line, helper.unwrap() as u32 + 2, "its body line");
        assert!(fma[1].message.contains("literal `mul_add` outside"));
    }
}

#[test]
fn marked_fixture_is_clean_outside_strict_modules() {
    // The same source linted under a non-strict path: no FMA pass at all.
    let src = include_str!("fixtures/fma_unmarked.rs");
    let vs = lint_source("crates/scenes/src/lib.rs", src, &Config::default());
    assert!(lints(&vs, "fma-strict").is_empty());
}

#[test]
fn undocumented_unsafe_and_missing_caller_fail() {
    let src = include_str!("fixtures/unsafe_undocumented.rs");
    let vs = lint_source("crates/nerf/src/grid.rs", src, &Config::default());

    let safety = lints(&vs, "unsafe-safety");
    // The bare block and the `missing_caller` unsafe fn; `documented`
    // and `guarded` are covered.
    assert_eq!(safety.len(), 2, "unsafe census: {vs:?}");
    let block_line = src
        .lines()
        .position(|l| l.contains("core::ptr::null"))
        .unwrap() as u32
        + 1;
    assert!(safety.iter().any(|v| v.line == block_line));

    let caller = lints(&vs, "target-feature-caller");
    assert_eq!(caller.len(), 1, "caller notes: {vs:?}");
    assert!(caller[0].message.contains("missing_caller"));
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

#[test]
fn hashmap_in_kernel_path_fails_but_cfg_test_is_exempt() {
    let src = include_str!("fixtures/determinism_hashmap.rs");
    let vs = lint_source("crates/nerf/src/foo.rs", src, &Config::default());
    let det = lints(&vs, "determinism");
    assert!(!det.is_empty(), "determinism: {vs:?}");
    assert!(det.iter().all(|v| v.message.contains("HashMap")));
    // Nothing flagged inside the #[cfg(test)] module (HashSet there).
    let test_mod_start = src
        .lines()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap() as u32
        + 1;
    assert!(det.iter().all(|v| v.line < test_mod_start));
    // The serve crate is a determinism root too (fleet scheduling must
    // not perturb results), so the same source flags there…
    let vs2 = lint_source("crates/serve/src/foo.rs", src, &Config::default());
    assert!(!lints(&vs2, "determinism").is_empty(), "{vs2:?}");
    // …while outside the kernel/trainer/serve roots the pass does not
    // run at all.
    let vs3 = lint_source("crates/trace/src/foo.rs", src, &Config::default());
    assert!(lints(&vs3, "determinism").is_empty(), "{vs3:?}");
}

#[test]
fn determinism_allowlist_suppresses_named_pairs_only() {
    let src = include_str!("fixtures/determinism_hashmap.rs");
    let mut cfg = Config::default();
    cfg.determinism
        .push(instant3d_conformance::DeterminismEntry {
            path: "crates/nerf/src/foo.rs".into(),
            name: "HashMap".into(),
        });
    let vs = lint_source("crates/nerf/src/foo.rs", src, &cfg);
    assert!(lints(&vs, "determinism").is_empty(), "{vs:?}");
}

#[test]
fn unjustified_panics_in_hot_path_modules_fail() {
    let src = include_str!("fixtures/panic_unjustified.rs");
    for hot in ["crates/nerf/src/mlp.rs", "crates/nerf/src/adam.rs"] {
        let vs = lint_source(hot, src, &Config::default());
        let census = lints(&vs, "panic-census");
        // The three bare sites in `hot_path`; `justified`,
        // `trailing_marker` and the #[cfg(test)] module are clean.
        assert_eq!(census.len(), 3, "panic census: {vs:?}");
        for (needle, what) in [
            ("v.first().unwrap()", "`.unwrap()`"),
            ("v.last().expect", "`.expect()`"),
            ("panic!(\"batch too large\")", "`panic!`"),
        ] {
            let line = src.lines().position(|l| l.contains(needle)).unwrap() as u32 + 1;
            assert!(
                census
                    .iter()
                    .any(|v| v.line == line && v.message.contains(what)),
                "missing {what} at line {line}: {census:?}"
            );
        }
    }
    // Outside the census file list the pass does not run.
    let vs2 = lint_source("crates/nerf/src/lib.rs", src, &Config::default());
    assert!(lints(&vs2, "panic-census").is_empty(), "{vs2:?}");
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
