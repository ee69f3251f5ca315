//! Baseline commercial-device models for the Instant-3D evaluation.
//!
//! The paper profiles Instant-NGP training on three NVIDIA edge modules —
//! Jetson Nano (10 W), Jetson TX2 (15 W) and Xavier NX (20 W) — and uses
//! them as the hardware baselines for every runtime/energy comparison
//! (Figs. 4, 7, 16; Tabs. 3, 4, 5).
//!
//! We have none of that hardware, so [`perf::DeviceModel`] is an analytic
//! roofline substitution: per-primitive throughputs (random table
//! accesses/s, MLP FLOPS, host-side pixel/ray rates) are calibrated *once*
//! against the paper's published endpoints (72 s Instant-NGP training on
//! Xavier NX with the Fig. 4 ≈ 80 % grid-interpolation share; Fig. 16's
//! cross-device speedup ratios), and every other number — ablations,
//! breakdowns, dataset scaling — is then derived from workload operation
//! counts produced by our trainer. Each calibrated constant is documented
//! at its definition.

#![forbid(unsafe_code)]

pub mod breakdown;
pub mod energy;
pub mod perf;
pub mod spec;

pub use breakdown::StepBreakdown;
pub use perf::DeviceModel;
pub use spec::DeviceSpec;
