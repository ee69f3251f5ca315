//! Procedural dataset substrates for the Instant-3D reproduction.
//!
//! The paper evaluates on NeRF-Synthetic (8 Blender object scenes), SILVR
//! (large-volume plenoptic captures) and ScanNet (real RGB-D room scans).
//! None of those assets ship with this repository, so this crate builds the
//! closest synthetic equivalents:
//!
//! * [`primitives`] / [`scene`] — analytic radiance fields composed of soft
//!   density primitives with per-primitive albedo and mild view-dependent
//!   shading.
//! * [`synthetic`] — eight object-centric scenes standing in for
//!   NeRF-Synthetic, captured by an orbit camera rig.
//! * [`silvr`] — a large-extent indoor hall standing in for SILVR.
//! * [`scannet`] — a furnished room with a walking camera trajectory and
//!   sensor noise, standing in for ScanNet.
//! * [`dataset`] — posed image datasets (train/test splits plus ground-truth
//!   depth) rendered from the analytic fields with the same volume renderer
//!   the trainer uses.
//!
//! # Example
//!
//! ```
//! use instant3d_scenes::SceneLibrary;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let ds = SceneLibrary::synthetic_scene(2, 24, 6, &mut rng);
//! assert_eq!(ds.train_views.len(), 6);
//! assert!(!ds.test_views.is_empty());
//! ```

#![forbid(unsafe_code)]

pub mod dataset;
pub mod primitives;
pub mod scannet;
pub mod scene;
pub mod silvr;
pub mod synthetic;

pub use dataset::{Dataset, SceneLibrary, View};
pub use primitives::{Primitive, Shape};
pub use scene::AnalyticScene;
