//! Job specs and the per-job training state machine.

use instant3d_core::render::{FrameBudget, FrameScheduler, RenderOptions};
use instant3d_core::WorkspacePool;
use instant3d_core::{checkpoint, TrainConfig, Trainer};
use instant3d_scenes::{Dataset, SceneLibrary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which scene substrate a job reconstructs — the demo fleet mixes all
/// three of the paper's dataset families plus size variation within them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SceneSpec {
    /// One of the eight NeRF-Synthetic-like primitive scenes.
    Synthetic {
        /// Scene index in `0..8`.
        index: usize,
        /// Square image resolution.
        resolution: u32,
        /// Training cameras on the orbit rig.
        train_views: usize,
    },
    /// The SILVR-like large-volume hall.
    Silvr {
        /// Square image resolution.
        resolution: u32,
        /// Training cameras.
        train_views: usize,
    },
    /// The ScanNet-like room with a walking trajectory and sensor noise.
    Scannet {
        /// Square image resolution.
        resolution: u32,
        /// Training cameras.
        train_views: usize,
    },
}

impl SceneSpec {
    /// Builds the dataset, drawing any scene randomness from `rng` (part
    /// of the job's seeded stream, so the dataset is a pure function of
    /// the spec + seed).
    pub fn build(&self, rng: &mut StdRng) -> Dataset {
        match *self {
            SceneSpec::Synthetic {
                index,
                resolution,
                train_views,
            } => SceneLibrary::synthetic_scene(index, resolution, train_views, rng),
            SceneSpec::Silvr {
                resolution,
                train_views,
            } => SceneLibrary::silvr_scene(resolution, train_views, rng),
            SceneSpec::Scannet {
                resolution,
                train_views,
            } => SceneLibrary::scannet_scene(resolution, train_views, rng),
        }
    }
}

/// Everything that determines a job's results: scene, training config,
/// seed and budgets. Two runs of the same spec — solo or co-scheduled in
/// any fleet — produce bit-identical checkpoints (see the crate docs).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Checkpoint-store key and report label. Reports keep submission
    /// order even when names repeat; the cache then holds the latest
    /// checkpoint written under the name.
    pub name: String,
    /// The scene to reconstruct.
    pub scene: SceneSpec,
    /// Training configuration (including the kernel backend).
    pub config: TrainConfig,
    /// Seed for the job's private RNG (dataset build + training stream).
    pub seed: u64,
    /// Total training iterations.
    pub iterations: u64,
    /// Checkpoint cadence in iterations (0 = only the final checkpoint).
    pub checkpoint_every: u64,
}

/// A booted job: trainer + private RNG + progress counters. Owned by one
/// fleet runner at a time, parked in the queue between slices.
pub(crate) struct SceneJob {
    pub(crate) spec: JobSpec,
    pub(crate) trainer: Trainer,
    pub(crate) rng: StdRng,
    /// Iterations executed so far.
    pub(crate) done: u64,
    /// Checkpoints written so far (cadence + final).
    pub(crate) checkpoints_written: u64,
    /// Loss of the last executed step.
    pub(crate) last_loss: f32,
    /// Batch workspaces this job received from the reuse pool.
    pub(crate) batch_recycled: u64,
    /// Whether the job's occupancy workspace came from the reuse pool.
    pub(crate) occ_recycled: bool,
    /// The job's progressive preview of its first test view (present
    /// when the fleet's `preview_tiles_per_slice` is non-zero and the
    /// dataset has a test view). Converged tiles persist across slices;
    /// each training step's grid-version bumps invalidate them.
    pub(crate) preview: Option<Box<FrameScheduler>>,
    /// Budgeted preview frames rendered (≤ one per slice).
    pub(crate) preview_frames: u64,
    /// Preview tiles rendered across all slices.
    pub(crate) preview_tiles: u64,
    /// Wall-clock nanoseconds the job spent owned by a fleet runner
    /// (training slices + previews). Telemetry only: the value is
    /// reported, never fed back into scheduling or training, so it does
    /// not perturb the determinism contract.
    pub(crate) busy_nanos: u64,
}

impl JobSpec {
    /// Boots the job: dataset and trainer built from the job's own
    /// seeded RNG, which then continues as the training stream. This is
    /// the *entire* source of job randomness — the scheduler never
    /// touches it.
    pub(crate) fn boot(&self) -> SceneJob {
        self.boot_with_preview(false)
    }

    /// [`boot`](JobSpec::boot), optionally wiring up a tile-renderer
    /// preview of the dataset's first test view. The preview consumes no
    /// job randomness and never touches the trainer, so it cannot
    /// perturb the determinism contract.
    pub(crate) fn boot_with_preview(&self, preview: bool) -> SceneJob {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dataset = self.scene.build(&mut rng);
        let trainer = Trainer::new(self.config.clone(), &dataset, &mut rng);
        let preview = (preview && !dataset.test_views.is_empty()).then(|| {
            Box::new(FrameScheduler::new(
                dataset.test_views[0].camera,
                RenderOptions::new(self.config.eval_samples_per_ray, dataset.background),
            ))
        });
        SceneJob {
            spec: self.clone(),
            trainer,
            rng,
            done: 0,
            checkpoints_written: 0,
            last_loss: f32::NAN,
            batch_recycled: 0,
            occ_recycled: false,
            preview,
            preview_frames: 0,
            preview_tiles: 0,
            busy_nanos: 0,
        }
    }
}

impl SceneJob {
    /// Iterations still to run.
    pub(crate) fn remaining(&self) -> u64 {
        self.spec.iterations.saturating_sub(self.done)
    }

    /// Runs one training step on the job's private stream.
    pub(crate) fn step(&mut self) {
        let s = self.trainer.step(&mut self.rng);
        self.last_loss = s.loss;
        self.done += 1;
    }

    /// Whether the cadence says to checkpoint after the step just run.
    pub(crate) fn due_checkpoint(&self) -> bool {
        self.spec.checkpoint_every > 0
            && self.done < self.spec.iterations
            && self.done.is_multiple_of(self.spec.checkpoint_every)
    }

    /// Serializes the current model.
    pub(crate) fn checkpoint(&mut self) -> Vec<u8> {
        self.checkpoints_written += 1;
        checkpoint::save(self.trainer.model())
    }

    /// Renders one budgeted, occupancy-guided preview frame of the job's
    /// test view through the shared workspace pool. Training steps bump
    /// the grids' level versions, so the scheduler re-renders stale tiles
    /// round-robin — the fleet's fixed-latency progress feed.
    pub(crate) fn render_preview(&mut self, pool: &WorkspacePool, tile_budget: usize) {
        if let Some(sched) = self.preview.as_deref_mut() {
            let progress = sched.render_frame(
                self.trainer.model(),
                self.trainer.occupancy_grid(),
                FrameBudget::tiles(tile_budget),
                pool,
            );
            self.preview_frames += 1;
            self.preview_tiles += progress.tiles_rendered as u64;
        }
    }
}

/// Trains `spec` start-to-finish in isolation — no fleet, no workspace
/// pool — and returns the final checkpoint. The reference side of the
/// determinism contract: a fleet-trained job's final checkpoint must be
/// bit-identical to this, at the same kernel backend and worker count.
pub fn train_solo(spec: &JobSpec) -> Vec<u8> {
    let mut job = spec.boot();
    while job.remaining() > 0 {
        job.step();
    }
    checkpoint::save(job.trainer.model())
}
