//! # Instant-3D
//!
//! A full-system Rust reproduction of **"Instant-3D: Instant Neural Radiance
//! Field Training Towards On-Device AR/VR 3D Reconstruction"** (ISCA 2023).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`nerf`] — the NeRF training substrate (hash grids, MLPs, volume
//!   rendering, optimizers).
//! * [`scenes`] — procedural dataset substrates standing in for
//!   NeRF-Synthetic, SILVR and ScanNet.
//! * [`core`] — the Instant-3D algorithm: decoupled color/density grids with
//!   asymmetric sizes (`S_D : S_C`) and update frequencies (`F_D : F_C`),
//!   plus the Instant-NGP baseline trainer.
//! * [`trace`] — memory-access trace capture and the paper's Fig. 8/9/10
//!   analyses.
//! * [`accel`] — the cycle-level accelerator simulator (FRM, BUM, multi-bank
//!   SRAM, core fusion, area/energy models).
//! * [`devices`] — Jetson Nano / TX2 / Xavier NX baseline device models.
//!
//! # Quickstart
//!
//! [`Trainer::step`](core::Trainer::step) runs the **batched SoA
//! execution engine**: every pipeline stage (grid interpolation, MLP
//! heads, volume rendering, backward) processes the whole ray batch over
//! structure-of-arrays buffers, with the grid and MLP stages parallelised
//! across the rayon pool. Results are bit-identical to the scalar
//! point-at-a-time reference path
//! ([`Trainer::step_scalar`](core::Trainer::step_scalar)) and independent
//! of the worker count.
//!
//! ```
//! use instant3d::core::{TrainConfig, Trainer};
//! use instant3d::scenes::SceneLibrary;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let dataset = SceneLibrary::synthetic_scene(0, 16, 4, &mut rng);
//! let cfg = TrainConfig::fast_preview();
//! let mut trainer = Trainer::new(cfg, &dataset, &mut rng);
//! // Batched engine — the default hot path.
//! let report = trainer.train_with_eval(5, 0, Some(&dataset), &mut rng);
//! assert!(report.final_psnr.is_finite());
//! ```
//!
//! The batched buffers themselves are exposed through
//! [`core::BatchWorkspace`] for callers that drive the engine stages
//! directly (custom sampling, offline rendering); the scalar path stays
//! available as the executable specification the batched engine is gated
//! against (golden tests assert identical losses, parameters and workload
//! counters).
//!
//! Every engine step laps the trainer's own per-step wall-clock timer
//! ([`Trainer::timer`](core::Trainer::timer), the native Fig. 4
//! breakdown). Grid address streams have one recorder: the scalar
//! reference step
//! ([`Trainer::step_scalar_observed`](core::Trainer::step_scalar_observed))
//! feeds a [`trace::TraceCollector`] in the paper's point-major order
//! (Figs. 8–10), and the FRM/BUM simulators replay that trace's
//! flattened streams ([`trace::Trace::reads_flat`],
//! [`trace::Trace::updates_level_major`]).

pub use instant3d_accel as accel;
pub use instant3d_core as core;
pub use instant3d_devices as devices;
pub use instant3d_nerf as nerf;
pub use instant3d_scenes as scenes;
pub use instant3d_serve as serve;
pub use instant3d_trace as trace;
