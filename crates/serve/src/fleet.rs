//! The fleet scheduler: round-robin slices of many jobs over shared
//! runners, workspaces and checkpoint cache.
//!
//! Concurrency model: `concurrency` runner tasks are spawned into one
//! `rayon::scope` on the shared work-stealing pool. Each runner loops —
//! pop a job from the queue, train it for `slice_iters` iterations (each
//! iteration is itself a lazily-split parallel region on the same pool),
//! park its scratch, requeue it — until the queue drains. Slicing plus
//! the scheduler's periodic injector poll is what keeps a big scene from
//! starving small ones: every job gets back into the queue after a
//! bounded amount of work, and every runner's regions interleave on the
//! same workers.

use crate::job::{JobSpec, SceneJob};
use crate::store::CheckpointStore;
use instant3d_core::WorkloadStats;
use instant3d_core::WorkspacePool;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Scheduler knobs. The defaults suit a demo fleet of ~8 small scenes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent runner tasks (jobs training at the same time). The
    /// queue serializes beyond this; extra concurrency beyond the worker
    /// count just interleaves on the same workers.
    pub concurrency: usize,
    /// Iterations a job trains per scheduling slice before requeueing.
    pub slice_iters: u64,
    /// LRU capacity of the checkpoint cache (see [`CheckpointStore`]).
    pub max_resident_checkpoints: usize,
    /// Pin the worker-pool size for the whole run (`None` = ambient).
    /// Job determinism does not depend on this — it is a throughput knob.
    pub threads: Option<usize>,
    /// Tiles of progressive preview each job renders after every slice
    /// (`0` = no previews). Previews go through the tile renderer with
    /// occupancy-guided sampling, on workspaces from the same shared
    /// pool as the training slices; they consume no job randomness and
    /// never perturb training results.
    pub preview_tiles_per_slice: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            concurrency: 4,
            slice_iters: 16,
            max_resident_checkpoints: 8,
            threads: None,
            preview_tiles_per_slice: 0,
        }
    }
}

/// Per-job outcome.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The spec's name.
    pub name: String,
    /// Iterations executed (== the spec's budget).
    pub iterations: u64,
    /// Loss of the final training step.
    pub final_loss: f32,
    /// The job's workload counters.
    pub stats: WorkloadStats,
    /// Checkpoints written (cadence + final).
    pub checkpoints_written: u64,
    /// `BatchWorkspace`s this job's trainer minted (pool misses).
    pub batch_allocated: u64,
    /// Slices this job ran on a pooled `BatchWorkspace`.
    pub batch_recycled: u64,
    /// Whether the job booted on a recycled `OccupancyWorkspace`.
    pub occ_recycled: bool,
    /// Budgeted preview frames the job rendered (one per slice when the
    /// fleet's `preview_tiles_per_slice` is non-zero).
    pub preview_frames: u64,
    /// Preview tiles rendered across all of the job's slices.
    pub preview_tiles: u64,
    /// Wall-clock nanoseconds the job spent owned by a runner (slices +
    /// previews; queue wait excluded). Telemetry for fleet-balance
    /// dashboards — never fed back into scheduling, so results stay
    /// independent of it.
    pub busy_nanos: u64,
    /// The final checkpoint — always returned here even if the LRU cache
    /// evicted it.
    pub final_checkpoint: Vec<u8>,
}

/// Fleet-level telemetry: per-job [`WorkloadStats`] aggregated in total
/// and grouped by kernel backend.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Jobs retired.
    pub jobs: usize,
    /// All jobs' counters merged (backend labelled `"fleet"` — a fleet may
    /// mix backends).
    pub total: WorkloadStats,
    /// Counters merged per backend, labelled with that backend's name.
    pub per_backend: Vec<WorkloadStats>,
    /// Checkpoints written across all jobs.
    pub checkpoints_written: u64,
    /// Checkpoints the LRU cache evicted.
    pub checkpoints_evicted: u64,
    /// `BatchWorkspace`s minted because the pool had none parked (bounded
    /// by the number of concurrently training jobs — the warmup).
    pub batch_allocated: u64,
    /// Slices served a pooled `BatchWorkspace` (steady state).
    pub batch_recycled: u64,
    /// `OccupancyWorkspace`s minted at job boot (bounded by the number of
    /// jobs simultaneously live; never grows with slices or iterations).
    pub occ_allocated: u64,
    /// Boots served a recycled, reset `OccupancyWorkspace`.
    pub occ_recycled: u64,
    /// Preview frames rendered across all jobs.
    pub preview_frames: u64,
    /// Preview tiles rendered across all jobs.
    pub preview_tiles: u64,
    /// Total runner-owned wall-clock nanoseconds across all jobs (see
    /// [`JobReport::busy_nanos`]).
    pub busy_nanos: u64,
}

/// Everything a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-job outcomes, in the order the specs were submitted.
    pub jobs: Vec<JobReport>,
    /// Aggregated telemetry.
    pub stats: FleetStats,
    /// Job names still resident in the checkpoint cache at the end,
    /// least- to most-recently written.
    pub resident_checkpoints: Vec<String>,
}

/// A queue slot: jobs boot lazily so dataset/model construction also
/// overlaps across runners. The queue pairs each slot with its job's
/// submission index, the order reports come back in.
enum Slot {
    Fresh(Box<JobSpec>),
    Running(Box<SceneJob>),
}

/// The multi-scene training service. See the crate docs for the job
/// lifecycle and determinism contract.
#[derive(Debug, Default)]
pub struct Fleet {
    cfg: FleetConfig,
}

impl Fleet {
    /// A fleet with the given scheduler config.
    pub fn new(cfg: FleetConfig) -> Self {
        Fleet { cfg }
    }

    /// Trains every spec to completion, multiplexed over the shared pool,
    /// and returns per-job checkpoints plus fleet telemetry.
    pub fn run(&self, specs: &[JobSpec]) -> FleetReport {
        match self.cfg.threads {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
                .install(|| self.run_inner(specs)),
            None => self.run_inner(specs),
        }
    }

    fn run_inner(&self, specs: &[JobSpec]) -> FleetReport {
        let store = CheckpointStore::new(self.cfg.max_resident_checkpoints);
        let pool = WorkspacePool::new();
        let queue: Mutex<VecDeque<(usize, Slot)>> = Mutex::new(
            specs
                .iter()
                .map(|s| Slot::Fresh(Box::new(s.clone())))
                .enumerate()
                .collect(),
        );
        let reports: Mutex<Vec<(usize, JobReport)>> = Mutex::new(Vec::with_capacity(specs.len()));
        let runners = self.cfg.concurrency.clamp(1, specs.len().max(1));
        let slice_iters = self.cfg.slice_iters.max(1);

        rayon::scope(|s| {
            for _ in 0..runners {
                s.spawn(|| loop {
                    let Some((index, slot)) = queue.lock().unwrap().pop_front() else {
                        break;
                    };
                    let mut job = match slot {
                        Slot::Running(job) => job,
                        Slot::Fresh(spec) => {
                            let mut job = Box::new(
                                spec.boot_with_preview(self.cfg.preview_tiles_per_slice > 0),
                            );
                            if let Some(occ) = pool.checkout_occ() {
                                // `attach` re-points the workspace at the
                                // job's backend; the displaced (empty)
                                // one is dropped.
                                job.trainer.attach_occupancy_workspace(occ);
                                job.occ_recycled = true;
                            }
                            job
                        }
                    };

                    // Slice telemetry: wall time from here until the job
                    // is parked or retired (training + previews).
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "per-job busy time surfaced in JobReport/FleetStats; logged only, never consulted by the scheduler"
                    )]
                    let slice_start = Instant::now();

                    // One slice on a pooled workspace (pool miss ⇒ the
                    // trainer mints lazily; counted via
                    // `batch_workspace_allocations`).
                    if let Some(ws) = pool.checkout_batch(job.trainer.model()) {
                        match job.trainer.attach_batch_workspace(ws) {
                            Ok(()) => job.batch_recycled += 1,
                            // Unreachable (checkout is shape-keyed), but
                            // never hand a mismatched workspace onward.
                            Err(ws) => drop(ws),
                        }
                    }
                    for _ in 0..slice_iters.min(job.remaining()) {
                        job.step();
                        if job.due_checkpoint() {
                            let blob = job.checkpoint();
                            store.put(&job.spec.name, blob);
                        }
                    }
                    if let Some(ws) = job.trainer.detach_batch_workspace() {
                        pool.park_batch(ws);
                    }
                    // Post-slice preview: a budgeted tile frame on the
                    // same shared pool (no-op unless configured).
                    if self.cfg.preview_tiles_per_slice > 0 {
                        job.render_preview(&pool, self.cfg.preview_tiles_per_slice);
                    }

                    job.busy_nanos = job
                        .busy_nanos
                        .saturating_add(slice_start.elapsed().as_nanos() as u64);

                    if job.remaining() > 0 {
                        queue.lock().unwrap().push_back((index, Slot::Running(job)));
                        continue;
                    }

                    // Retire: final checkpoint, recycle the occupancy
                    // workspace (reset inside `park_occ`), fold stats.
                    let blob = job.checkpoint();
                    store.put(&job.spec.name, blob.clone());
                    pool.park_occ(job.trainer.detach_occupancy_workspace());
                    let report = JobReport {
                        name: job.spec.name.clone(),
                        iterations: job.done,
                        final_loss: job.last_loss,
                        stats: *job.trainer.stats(),
                        checkpoints_written: job.checkpoints_written,
                        batch_allocated: job.trainer.batch_workspace_allocations(),
                        batch_recycled: job.batch_recycled,
                        occ_recycled: job.occ_recycled,
                        preview_frames: job.preview_frames,
                        preview_tiles: job.preview_tiles,
                        busy_nanos: job.busy_nanos,
                        final_checkpoint: blob,
                    };
                    reports.lock().unwrap().push((index, report));
                });
            }
        });

        let mut retired = reports.into_inner().unwrap();
        // Retirement order depends on scheduling; report in submission
        // order so the output is stable.
        retired.sort_by_key(|&(index, _)| index);
        let jobs: Vec<JobReport> = retired.into_iter().map(|(_, r)| r).collect();
        let stats = Self::aggregate(&jobs, &store);
        FleetReport {
            resident_checkpoints: store.resident(),
            jobs,
            stats,
        }
    }

    /// Folds per-job stats into fleet totals and per-backend groups.
    fn aggregate(jobs: &[JobReport], store: &CheckpointStore) -> FleetStats {
        let mut total = WorkloadStats {
            backend: "fleet",
            ..WorkloadStats::default()
        };
        let mut per_backend: Vec<WorkloadStats> = Vec::new();
        let mut batch_allocated = 0;
        let mut batch_recycled = 0;
        let mut occ_allocated = 0;
        let mut occ_recycled = 0;
        let mut checkpoints_written = 0;
        let mut preview_frames = 0;
        let mut preview_tiles = 0;
        let mut busy_nanos = 0u64;
        for job in jobs {
            total.merge(&job.stats);
            match per_backend
                .iter_mut()
                .find(|g| g.backend == job.stats.backend)
            {
                Some(group) => group.merge(&job.stats),
                None => per_backend.push(job.stats),
            }
            checkpoints_written += job.checkpoints_written;
            batch_allocated += job.batch_allocated;
            batch_recycled += job.batch_recycled;
            occ_allocated += u64::from(!job.occ_recycled);
            occ_recycled += u64::from(job.occ_recycled);
            preview_frames += job.preview_frames;
            preview_tiles += job.preview_tiles;
            busy_nanos = busy_nanos.saturating_add(job.busy_nanos);
        }
        FleetStats {
            jobs: jobs.len(),
            total,
            per_backend,
            checkpoints_written,
            checkpoints_evicted: store.evictions(),
            batch_allocated,
            batch_recycled,
            occ_allocated,
            occ_recycled,
            preview_frames,
            preview_tiles,
            busy_nanos,
        }
    }
}
