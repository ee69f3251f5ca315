//! The Instant-3D algorithm (ISCA 2023, §3) and the Instant-NGP baseline it
//! accelerates.
//!
//! The paper's algorithmic contribution is to *decompose* Instant-NGP's
//! single multiresolution hash grid into a **density grid** and a **color
//! grid**, then exploit the empirically different sensitivities of the two
//! feature families:
//!
//! * **Different grid sizes** (§3.2) — the color grid can be 4× smaller
//!   (`S_D : S_C = 1 : 0.25`) with no PSNR loss.
//! * **Different update frequencies** (§3.3) — the color grid can be
//!   updated every other iteration (`F_D : F_C = 1 : 0.5`).
//!
//! Both knobs live in [`TrainConfig`]; [`GridTopology::Coupled`] reproduces
//! the Instant-NGP baseline with a single shared grid.
//!
//! The training hot path is the **batched SoA execution engine**
//! ([`batch`]): rays are gathered into structure-of-arrays buffers and
//! each pipeline stage runs once over the whole batch, parallelised via
//! rayon with disjoint-write scheduling — results are bit-identical to
//! the scalar reference path and to any worker count. The scalar
//! point-at-a-time path survives as the executable specification
//! ([`Trainer::step_scalar`](trainer::Trainer::step_scalar)), gated by
//! golden equivalence tests. Within the batched engine the hot kernels
//! dispatch through the kernel-backend API ([`kernels`]): a
//! [`BackendHandle`] resolved by name from the built-in set (scalar
//! reference, lane-batched SIMD, the `checked` shadow executor) or wrapped
//! around any other implementation, selected by
//! [`TrainConfig::kernel_backend`] / the `INSTANT3D_KERNEL_BACKEND` env
//! var — backends are bit-identical by
//! the additive-order/no-FMA contract of `instant3d_nerf::simd`, and the
//! golden suites run once per backend to keep them that way.
//!
//! Modules:
//!
//! * [`config`] — training configuration and the paper's preset operating
//!   points.
//! * [`schedule`] — update-frequency schedules for the two branches.
//! * [`model`] — the NeRF model: hash grid(s) + density/color MLP heads,
//!   with full hand-derived backpropagation.
//! * [`batch`] — the batched SoA execution engine and its reusable
//!   [`BatchWorkspace`] (zero steady-state allocation).
//! * [`trainer`] — the six-step training pipeline (Fig. 2) with workload
//!   accounting: [`Trainer::step`](trainer::Trainer::step) is the engine's
//!   one entry point; memory-access traces come from the scalar reference
//!   step ([`Trainer::step_scalar_observed`](trainer::Trainer::step_scalar_observed)).
//! * [`timing`] — the per-step wall-clock [`timing::StepTimer`] every
//!   trainer owns and laps on every engine step
//!   ([`Trainer::timer`](trainer::Trainer::timer)).
//! * [`pool`] — the shape-keyed [`WorkspacePool`] shared by fleet slices
//!   and tile-render jobs (zero steady-state allocation).
//! * [`render`] — the tile-streaming frame renderer: budgeted progressive
//!   frames with converged-tile caching and version-keyed invalidation
//!   (see its module docs for the frame lifecycle).
//! * [`eval`] — test-view rendering (a thin full-budget client of
//!   [`render`]) and RGB/depth PSNR evaluation.
//! * [`profile`] — per-pipeline-step operation counts, both measured and
//!   paper-scale, consumed by the device and accelerator models.

#![forbid(unsafe_code)]

pub mod batch;
pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod model;
pub mod pool;
pub mod profile;
pub mod render;
pub mod schedule;
pub mod timing;
pub mod trainer;
pub mod vanilla;

pub use batch::{BatchWorkspace, WorkspaceShape};
pub use config::{GridTopology, TrainConfig};
pub use eval::EvalResult;
pub use instant3d_nerf::kernels::{self, BackendHandle, Kernels};
pub use model::NerfModel;
pub use pool::WorkspacePool;
pub use profile::{PipelineStep, PipelineWorkload, WorkloadStats};
pub use render::{FrameBudget, FrameProgress, FrameScheduler, RenderOptions, RenderTelemetry};
pub use schedule::UpdateSchedule;
pub use trainer::{StepStats, TrainReport, Trainer};
