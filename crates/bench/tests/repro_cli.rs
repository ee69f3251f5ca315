//! The `repro` command line: listing, rejection of bad invocations, and a
//! run of the three pure-model experiments (they train nothing).
use instant3d_bench::experiments::ALL;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn list_prints_the_ids_of_all_in_order() {
    let out = repro(&["list"]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
    assert_eq!(listed.lines().collect::<Vec<_>>(), ids);
}

#[test]
fn unknown_id_and_empty_command_line_exit_2_naming_the_ids() {
    for args in [&["tab03_device_specs", "no_such_experiment"][..], &[]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(out.stdout.is_empty(), "nothing ran for {args:?}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(stderr.contains(ALL[0].id), "{stderr}");
    }
}

#[test]
fn several_ids_run_in_one_invocation() {
    let out = repro(&[
        "tab03_device_specs",
        "fig15_area_energy",
        "sec6_related_work",
        "--quick",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let banners = ["\nTab. 3 — ", "\nFig. 15 — ", "\n§6 — "].map(|b| stdout.find(b));
    assert!(banners.iter().all(Option::is_some), "{stdout}");
    assert!(banners.is_sorted(), "ran in command-line order: {stdout}");
}
