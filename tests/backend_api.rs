//! The guard that keeps the CI test matrix in sync with the built-in
//! kernel backends.

use instant3d::core::kernels;

#[test]
fn ci_matrix_backend_axis_is_derived_from_the_registry() {
    // ci.yml carries exactly one `backend: [...]` matrix axis, the
    // bit-identity matrix, and it must list `kernels::names()` exactly, so
    // adding a built-in backend without a matrix arm fails here instead of
    // silently skipping the golden suites.
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
    let mut registered = kernels::names();
    registered.sort_unstable();
    assert_eq!(
        axes,
        [registered],
        "ci.yml must carry exactly one backend axis, listing exactly the registered backends"
    );

    // The scalar shadow-execution backend is pinned by name on top of the
    // derived set equality: dropping `checked` from the built-ins
    // (which would silently remove its CI arm *and* its golden-suite
    // coverage) must fail here, not just reshape the matrix.
    assert!(
        axes[0].contains(&"checked"),
        "the `checked` scalar shadow-execution backend must stay registered so \
         the CI matrix and golden suites keep covering it"
    );
}
