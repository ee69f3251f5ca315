//! Design-space ablation: FRM window depth and BUM buffer size.
//!
//! §5.1: "we set the reordering pipeline depth of our proposed FRM and
//! BUM units to be 16, based on empirical observations and find it to be
//! generally applicable to all datasets". This ablation regenerates those
//! empirical observations on real training traces: sweep the FRM window
//! and BUM entry count and show 16 is the knee of both curves.

use super::common::{capture_trace, synthetic_dataset};
use crate::table::Table;
use instant3d_accel::{simulate_bum, simulate_frm, BumConfig};
use instant3d_core::TrainConfig;
use instant3d_nerf::grid::GridBranch;

/// Sweeps FRM depth and BUM entries on a captured trace.
pub fn run(quick: bool) {
    crate::banner(
        "§5.1 ablation",
        "FRM window depth & BUM buffer size sweeps (why 16)",
    );
    let cfg = crate::workloads::bench_config(TrainConfig::instant3d(), quick);
    let budget = if quick { 10 } else { 24 };
    let capture: Vec<u64> = vec![budget - 2, budget - 1];
    let ds = synthetic_dataset(4, quick, 3100);
    let (trace, trainer) = capture_trace(&cfg, &ds, &capture, budget, 2_000_000, 3200);

    let ff = trace.reads_flat(GridBranch::Density, trainer.model().density_grid());
    println!(
        "FRM window-depth sweep ({} captured reads, 8 banks):",
        ff.len()
    );
    let mut t = Table::new(&["window depth", "cycles", "bank utilisation", "vs depth 16"]);
    let ref_cycles = simulate_frm(&ff, 8, 16).cycles.max(1);
    for depth in [1usize, 2, 4, 8, 16, 32, 64] {
        let r = simulate_frm(&ff, 8, depth);
        t.row_owned(vec![
            format!("{depth}{}", if depth == 16 { "  <- paper" } else { "" }),
            r.cycles.to_string(),
            format!("{:.2}", r.utilization),
            format!("{:.2}x", r.cycles as f64 / ref_cycles as f64),
        ]);
    }
    t.print();

    let bp = trace.bp_stream_level_major();
    println!("\nBUM buffer-size sweep ({} captured updates):", bp.len());
    let mut t = Table::new(&["entries", "SRAM writes", "writes/update", "merge ratio"]);
    for entries in [2usize, 4, 8, 16, 32, 64] {
        let r = simulate_bum(
            &bp,
            BumConfig {
                entries,
                timeout: 64,
            },
        );
        t.row_owned(vec![
            format!("{entries}{}", if entries == 16 { "  <- paper" } else { "" }),
            r.sram_writes.to_string(),
            format!("{:.2}", r.write_ratio()),
            format!("{:.2}", r.merge_ratio()),
        ]);
    }
    t.print();
    println!(
        "\nBoth curves should flatten near 16: deeper FRM windows stop finding\n\
         extra conflict-free reads, and larger BUM buffers stop finding extra\n\
         mergeable updates — the paper's \"generally applicable\" choice."
    );
}
