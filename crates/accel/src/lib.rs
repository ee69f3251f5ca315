//! Cycle-level simulator of the Instant-3D accelerator (ISCA 2023, §4).
//!
//! The accelerator is a 28 nm, 800 MHz, 6.8 mm², 1.9 W design built around
//! four **grid cores** (each with 8 SRAM banks holding a slice of the hash
//! table) plus systolic-array / multiplier-adder-tree **MLP units**. Its
//! three headline techniques, all modelled here:
//!
//! * [`frm`] — the **Feed-forward Read Mapper**: a 16-deep reorder window
//!   that packs bank-conflict-free SRAM reads from multiple nearby points
//!   into single cycles (§4.4, Fig. 12).
//! * [`bum`] — the **Back-propagation Update Merger**: a 16-entry
//!   accumulate-before-write buffer that merges gradient updates to the
//!   same hash address, evicting entries idle for `N` cycles (§4.5,
//!   Fig. 13).
//! * [`fusion`] — the **multi-core-fusion reconfigurable scheme**: Level
//!   0/1/2 modes fuse 1/2/4 grid cores with 8/16/32 banks to hold
//!   256 KB / 512 KB / 1 MB hash tables (§4.6, Figs. 11 & 14).
//!
//! Two simulation drivers:
//!
//! * **Trace-driven** ([`frm::simulate_frm`], [`bum::simulate_bum`],
//!   [`sram::BankedSram`]) — replay training address streams cycle by
//!   cycle. The streams come from one recorder: an `instant3d-trace`
//!   `Trace` captured under `Trainer::step_scalar_observed`, flattened by
//!   `Trace::reads_flat` / `Trace::updates_level_major`. Used for the
//!   Fig. 18 ablations, `examples/accelerator_codesign.rs` and to measure
//!   the utilisation/merge factors of the real access patterns.
//! * **Analytic** ([`accelerator::Accelerator`]) — evaluate a paper-scale
//!   [`instant3d_core::PipelineWorkload`] with the factors measured above.
//!   Used for the Fig. 16/17 and Tab. 5 comparisons.
//!
//! The [`energy`] module carries the 28 nm per-op energy/area constants and
//! produces the Fig. 15 breakdowns.

#![forbid(unsafe_code)]

pub mod accelerator;
pub mod bum;
pub mod config;
pub mod dram;
pub mod energy;
pub mod frm;
pub mod fusion;
pub mod grid_core;
pub mod mlp_unit;
pub mod related;
pub mod sram;

pub use accelerator::{Accelerator, FeatureSet, SimReport};
pub use bum::{simulate_bum, BumConfig, BumResult};
pub use config::AccelConfig;
pub use frm::{simulate_baseline_reads, simulate_frm, FrmResult};
pub use fusion::FusionMode;
