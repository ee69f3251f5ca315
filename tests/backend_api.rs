//! Cross-crate tests of the open kernel-backend API's headline feature —
//! live FRM/BUM co-simulation from real `Trainer::step` runs — plus the
//! guard that keeps the CI test matrix in sync with the backend registry.

use instant3d::accel::{cosim_grid, CosimConfig};
use instant3d::core::{kernels, TrainConfig, Trainer};
use instant3d::nerf::kernels::{BackendHandle, InstrumentedKernels};
use instant3d::scenes::SceneLibrary;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn live_training_cosim_produces_frm_bum_numbers_without_trace_files() {
    // The acceptance claim end to end: a Trainer running on the
    // instrumented backend, two live steps recorded, FRM/BUM utilisation
    // computed online — no TraceCollector, no files, no synthetic streams.
    let backend = BackendHandle::new(InstrumentedKernels::new());
    let mut cfg = TrainConfig::fast_preview();
    cfg.kernel_backend = backend.clone();
    let mut rng = StdRng::seed_from_u64(2);
    let ds = SceneLibrary::synthetic_scene(0, 16, 4, &mut rng);
    let mut seed = StdRng::seed_from_u64(3);
    let mut trainer = Trainer::new(cfg, &ds, &mut seed);
    let mut step_rng = StdRng::seed_from_u64(4);
    for _ in 0..2 {
        trainer.step(&mut step_rng); // warm-up, recording off
    }

    let rec = backend.downcast_ref::<InstrumentedKernels>().unwrap();
    rec.start_recording();
    let recorded_points: u64 = (0..2)
        .map(|_| trainer.step(&mut step_rng).points as u64)
        .sum();
    rec.stop_recording();
    let streams = rec.take_streams();

    let density = trainer.model().density_grid();
    let report = cosim_grid(&streams, density, &CosimConfig::default());

    // The stream sizes are fully determined by the live workload: every
    // surviving sample reads 8 corners × L levels of the density grid
    // forward, and (density updates every iteration in fast_preview)
    // scatters the same count backward.
    let expected = recorded_points * 8 * density.levels().len() as u64;
    assert_eq!(report.reads, expected, "live FF read stream size");
    assert_eq!(report.updates, expected, "live BP update stream size");

    // And the microarchitectural measurements are real: all reads
    // serviced, utilisation in range, FRM no slower than baseline, BUM
    // conservation (every update merges or writes exactly once).
    assert_eq!(report.frm.reads, report.reads);
    assert!(report.frm.utilization > 0.0 && report.frm.utilization <= 1.0);
    assert!(report.baseline.utilization > 0.0 && report.baseline.utilization <= 1.0);
    assert!(report.frm.cycles <= report.baseline.cycles);
    assert_eq!(report.bum.merged + report.bum.sram_writes, report.updates);
    assert!(
        report.bum_merge_ratio() > 0.0,
        "trilinear corner sharing must produce some merges on a real stream"
    );

    // The color grid's stream was recorded too (decoupled topology) and
    // is kept separate by the shape tag.
    let color = trainer.model().color_grid().expect("decoupled preview");
    let color_report = cosim_grid(&streams, color, &CosimConfig::default());
    assert_eq!(
        color_report.reads,
        recorded_points * 8 * color.levels().len() as u64
    );
}

#[test]
fn instrumented_backend_not_recording_matches_simd_bitwise() {
    // The everyday cost of the co-sim backend: none. With recording off
    // it must train bit-identically to the SIMD backend.
    let run = |backend| {
        let mut cfg = TrainConfig::fast_preview();
        cfg.kernel_backend = backend;
        let mut rng = StdRng::seed_from_u64(12);
        let ds = SceneLibrary::synthetic_scene(1, 16, 4, &mut rng);
        let mut seed = StdRng::seed_from_u64(13);
        let mut trainer = Trainer::new(cfg, &ds, &mut seed);
        let mut step_rng = StdRng::seed_from_u64(14);
        (0..5)
            .map(|_| trainer.step(&mut step_rng).loss.to_bits())
            .collect::<Vec<u32>>()
    };
    assert_eq!(run(kernels::simd()), run(kernels::instrumented()));
}

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
