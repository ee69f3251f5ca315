//! Memory-access trace capture and analysis for the Instant-3D accelerator
//! study (§4.2 of the paper).
//!
//! The paper's hardware design is motivated by three measured properties of
//! the embedding-grid access stream:
//!
//! * **Fig. 8** — the 8 corner addresses of each interpolation cube cluster
//!   into 4 groups of 2 (same y/z, differing x); inter-group distances are
//!   huge (amplified by π₂/π₃), intra-group distances tiny (π₁ = 1).
//! * **Fig. 9** — > 90 % of intra-group address distances fall in [-5, 5],
//!   consistently across training iterations.
//! * **Fig. 10** — within a 1000-access sliding window, feed-forward reads
//!   are (nearly) all unique while back-propagation updates revisit shared
//!   addresses (~200 unique per 1000), enabling the BUM unit's merging.
//!
//! [`capture::TraceCollector`] plugs into the trainer's observer hook
//! (the scalar reference step, `Trainer::step_scalar_observed`) and
//! records the *actual* training access stream — the repository's one
//! recorder of grid address streams. [`cluster`] and [`window`]
//! implement the paper's analyses; [`stats`] provides the histogram /
//! percentile plumbing. [`Trace::reads_flat`] and
//! [`Trace::updates_level_major`] flatten one grid's streams into the
//! shapes the `instant3d-accel` FRM/BUM simulators replay; the batched
//! engine's per-grid scatter order equals the latter
//! (`tests/batched_equivalence.rs`).

#![forbid(unsafe_code)]

pub mod capture;
pub mod cluster;
pub mod record;
pub mod stats;
pub mod window;

pub use capture::TraceCollector;
pub use record::{AccessRecord, Trace};
