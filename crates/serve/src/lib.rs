//! Multi-scene training service: many concurrent scene-training jobs over
//! the one shared work-stealing pool.
//!
//! The paper's target is an on-device capture service — reconstructions
//! requested faster than they finish, on fixed silicon — so the serving
//! layer's problem is *multiplexing*: N scene jobs of wildly different
//! sizes must share one thread pool, one set of scratch allocations and
//! one checkpoint cache without a big scene starving small ones and
//! without the co-scheduling changing anybody's training results.
//!
//! # Job lifecycle
//!
//! A [`JobSpec`] describes a scene, a [`TrainConfig`], a
//! seed and an iteration/checkpoint budget. The [`Fleet`]
//! scheduler drives each spec through:
//!
//! 1. **Queued** — the spec sits in the fleet's round-robin queue.
//! 2. **Booted** — a runner pops it, builds the dataset + [`Trainer`]
//!    from the job's own seeded RNG, and adopts a recycled
//!    `OccupancyWorkspace` from the reuse pool when one is parked there.
//! 3. **Training slices** — the job trains `slice_iters` iterations at a
//!    time. For each slice the runner checks a [`BatchWorkspace`] out of
//!    the shape-keyed pool (allocating only on pool miss — warmup), and
//!    parks it back afterwards so the next job on any runner reuses it.
//!    Each training step is itself a lazily-split parallel region on the
//!    shared pool; the scheduler's periodic injector poll (see
//!    `vendor/rayon`) keeps co-scheduled regions interleaving fairly.
//! 4. **Checkpointed** — every `checkpoint_every` iterations the job's
//!    model is serialized through `core::checkpoint` into the fleet's
//!    LRU [`CheckpointStore`]; idle entries are
//!    evicted when the cap is exceeded.
//! 5. **Retired** — at the iteration budget the final checkpoint is
//!    written, both workspaces return to the pool (the occupancy one is
//!    [`reset`](instant3d_nerf::occupancy::OccupancyWorkspace::reset)
//!    because it carries training state), and the job's [`WorkloadStats`]
//!    fold into the fleet telemetry, grouped by kernel backend.
//!
//! # Determinism contract
//!
//! A job's results depend on its spec (scene + config + seed + iteration
//! budget) and nothing else: **the final checkpoint of a job trained in
//! a fleet is bit-identical to the same spec trained alone**
//! ([`job::train_solo`]) at the same kernel backend, for every worker
//! count and any co-scheduled job mix. This holds because
//!
//! * every job owns its RNG (seeded from the spec) — scheduling order
//!   never touches anyone's random stream;
//! * the batched engine is bit-identical across worker counts and its
//!   [`BatchWorkspace`] carries no cross-iteration state, so pooled
//!   reuse cannot leak one job into another;
//! * the `OccupancyWorkspace` *does* carry state (density EMA, subset
//!   phase, embedding cache), so it stays attached for a job's whole
//!   life and is reset before recycling.
//!
//! The contract is pinned by the golden test in
//! `tests/fleet_determinism.rs`.
//!
//! [`TrainConfig`]: instant3d_core::TrainConfig
//! [`Trainer`]: instant3d_core::Trainer
//! [`BatchWorkspace`]: instant3d_core::BatchWorkspace
//! [`WorkloadStats`]: instant3d_core::WorkloadStats

#![forbid(unsafe_code)]

pub mod fleet;
pub mod job;
pub mod store;

pub use fleet::{Fleet, FleetConfig, FleetReport, FleetStats, JobReport};
pub use instant3d_core::WorkspacePool;
pub use job::{train_solo, JobSpec, SceneSpec};
pub use store::CheckpointStore;
