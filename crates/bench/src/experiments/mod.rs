//! One module per paper table/figure. Every module exposes
//! `run(quick: bool)`, printing the regenerated rows/series; [`ALL`] is
//! the table the `repro` binary dispatches on.

pub mod common;

pub mod ablation_depth;

pub mod fig04;
pub mod fig05;
pub mod fig07;
pub mod fig08_09;
pub mod fig10;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod sec21_vanilla;
pub mod sec51_grid_search;
pub mod sec6_related;
pub mod tab01;
pub mod tab02;
pub mod tab03;
pub mod tab04;
pub mod tab05;

/// One runnable table/figure experiment.
pub struct Experiment {
    /// The name `repro` selects it by.
    pub id: &'static str,
    /// Prints the experiment; `true` asks for the reduced (smoke) budgets.
    pub run: fn(bool),
}

/// Every experiment, in paper order (the order `repro all` runs them).
#[rustfmt::skip]
pub const ALL: &[Experiment] = &[
    Experiment { id: "fig04_breakdown", run: fig04::run },
    Experiment { id: "fig05_pace", run: fig05::run },
    Experiment { id: "tab01_grid_sizes", run: tab01::run },
    Experiment { id: "tab02_update_freqs", run: tab02::run },
    Experiment { id: "fig07_breakdown_algo", run: fig07::run },
    Experiment { id: "fig08_09_address_patterns", run: fig08_09::run },
    Experiment { id: "fig10_sliding_window", run: fig10::run },
    Experiment { id: "tab03_device_specs", run: tab03::run },
    Experiment { id: "fig15_area_energy", run: fig15::run },
    Experiment { id: "fig16_speedup_energy", run: fig16::run },
    Experiment { id: "fig17_speedup_decomposition", run: fig17::run },
    Experiment { id: "fig18_frm_bum_ablation", run: fig18::run },
    Experiment { id: "ablation_reorder_depth", run: ablation_depth::run },
    Experiment { id: "sec21_vanilla_cost", run: sec21_vanilla::run },
    Experiment { id: "sec51_grid_search", run: sec51_grid_search::run },
    Experiment { id: "sec6_related_work", run: sec6_related::run },
    Experiment { id: "tab04_algorithm_benchmark", run: tab04::run },
    Experiment { id: "tab05_codesign_ablation", run: tab05::run },
];

#[cfg(test)]
mod tests {
    use super::ALL;
    use std::collections::HashSet;

    /// An experiment module cannot be added without being runnable.
    #[test]
    fn all_lists_every_experiment_module_once_in_paper_order() {
        let ids: HashSet<_> = ALL.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), ALL.len(), "duplicate id in ALL");
        assert_eq!(ALL[0].id, "fig04_breakdown");
        assert_eq!(ALL[ALL.len() - 1].id, "tab05_codesign_ablation");

        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let modules = std::fs::read_dir(dir)
            .expect("experiments directory is readable")
            .map(|entry| entry.expect("directory entry").file_name())
            .filter(|name| {
                let name = name.to_string_lossy();
                name.ends_with(".rs") && name != "mod.rs" && name != "common.rs"
            })
            .count();
        assert_eq!(ALL.len(), modules);
    }
}
