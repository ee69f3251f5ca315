//! The guard that keeps the CI test matrix in sync with the backend
//! registry.

use instant3d::core::kernels;

#[test]
fn ci_matrix_backend_axis_is_derived_from_the_registry() {
    // The CI satellite's enforcement, two-tier edition: ci.yml carries
    // exactly two `backend: [...]` matrix axes — the bit-identity matrix
    // (all strict-tier backends) and the tolerance matrix (all lossy-tier
    // backends). Each axis must be tier-pure and must list its tier's
    // registered backends exactly, so registering a backend without a
    // matrix arm — or letting a lossy backend sneak into the bit-identity
    // matrix (or vice versa) — fails here instead of silently skipping
    // the golden or tolerance suites. (This binary registers no runtime
    // mocks, so the registry holds exactly the in-tree backends CI must
    // cover.)
    let ci = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/.github/workflows/ci.yml"
    ))
    .expect("CI workflow file");
    let axes: Vec<Vec<&str>> = ci
        .lines()
        .filter(|l| l.trim_start().starts_with("backend: ["))
        .map(|line| {
            let inside = line
                .split_once('[')
                .and_then(|(_, rest)| rest.split_once(']'))
                .map(|(inner, _)| inner)
                .expect("well-formed backend axis");
            let mut names: Vec<&str> = inside.split(',').map(str::trim).collect();
            names.sort_unstable();
            names
        })
        .collect();
    assert_eq!(
        axes.len(),
        2,
        "ci.yml must carry exactly two backend axes (strict + lossy)"
    );

    let sorted_names = |handles: Vec<instant3d::nerf::kernels::BackendHandle>| {
        let mut names: Vec<&str> = handles.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names
    };
    let strict = sorted_names(kernels::registered_strict());
    let lossy = sorted_names(kernels::registered_lossy());

    let mut seen_strict = false;
    let mut seen_lossy = false;
    for axis in &axes {
        // Tier purity first: a mixed axis is the exact drift this guard
        // exists to catch, so diagnose it before the exact-set check.
        let strict_members: Vec<&&str> = axis
            .iter()
            .filter(|n| kernels::resolve(n).tier().is_strict())
            .collect();
        assert!(
            strict_members.is_empty() || strict_members.len() == axis.len(),
            "mixed-tier CI backend axis {axis:?}: a lossy backend sneaked \
             into the bit-identity matrix, or a strict one into the \
             tolerance matrix"
        );
        if strict_members.len() == axis.len() {
            assert_eq!(
                *axis, strict,
                "CI bit-identity matrix must list exactly the strict-tier backends"
            );
            seen_strict = true;
        } else {
            assert_eq!(
                *axis, lossy,
                "CI tolerance matrix must list exactly the lossy-tier backends"
            );
            seen_lossy = true;
        }
    }
    assert!(seen_strict, "no strict-tier backend axis in ci.yml");
    assert!(seen_lossy, "no lossy-tier backend axis in ci.yml");

    // The scalar shadow-execution backend is pinned by name on top of the
    // registry-derived set equality: dropping `checked` from the registry
    // (which would silently remove its CI arm *and* its golden-suite
    // coverage) must fail here, not just reshape the matrix.
    assert!(
        strict.contains(&"checked"),
        "the `checked` scalar shadow-execution backend must stay registered at \
         the strict tier so the CI matrix and golden suites keep covering it"
    );
    assert!(
        axes.iter().any(|axis| axis.contains(&"checked")),
        "`checked` must keep a bit-identity matrix arm in ci.yml"
    );
}
