//! The benchmark surface: every public item of `scenes`, `nerf`, `core`
//! and `serve` the ledger touches, and nothing else in the ledger names
//! those crates. When one of these APIs changes, this is the one file a
//! later `benchmark` issue edits.
//!
//! Everything here is a thin forwarder; no measurement logic.

use rand::SeedableRng;

pub use instant3d_core::render::{FrameBudget, FrameProgress, FrameScheduler, RenderTelemetry};
pub use instant3d_core::trainer::StepStats;
pub use instant3d_core::{GridTopology, NerfModel, TrainConfig, Trainer};
pub use instant3d_nerf::adam::{Adam, AdamConfig};
pub use instant3d_nerf::camera::Camera;
pub use instant3d_nerf::grid::{GridGradients, HashGrid};
pub use instant3d_nerf::image::RgbImage;
pub use instant3d_nerf::kernels::BackendHandle;
pub use instant3d_nerf::math::Vec3;
pub use instant3d_nerf::mlp::{Mlp, MlpBatchWorkspace, MlpGradients};
pub use instant3d_nerf::occupancy::{OccupancyGrid, OccupancyWorkspace};
pub use instant3d_nerf::render::{RayBatch, RayBatchCache};
pub use instant3d_nerf::sampler::{Segment, TrainRay};
pub use instant3d_scenes::Dataset;
pub use instant3d_serve::{FleetConfig, FleetReport, JobSpec, SceneSpec};
pub use rand::rngs::StdRng;

// ---------------------------------------------------------------- inputs

pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One uniform draw in [0, 1) from the workload's stream.
pub fn unit_draw(rng: &mut StdRng) -> f32 {
    use rand::Rng;
    rng.gen_range(0.0..1.0)
}

/// `SceneLibrary::synthetic_scene`.
pub fn synthetic_dataset(index: usize, resolution: u32, views: usize, rng: &mut StdRng) -> Dataset {
    instant3d_scenes::SceneLibrary::synthetic_scene(index, resolution, views, rng)
}

/// `SceneLibrary::scannet_scene`.
pub fn scannet_dataset(resolution: u32, views: usize, rng: &mut StdRng) -> Dataset {
    instant3d_scenes::SceneLibrary::scannet_scene(resolution, views, rng)
}

/// `SceneSpec::build` on the spec's own seeded stream, as a fleet job
/// builds its dataset.
pub fn scene_spec_build(spec: &SceneSpec, seed: u64) -> Dataset {
    spec.build(&mut rng(seed))
}

/// `camera::orbit_rig` around a dataset's volume, on the rig geometry
/// `SceneLibrary::synthetic_scene` uses for its own cameras.
pub fn orbit_cameras(ds: &Dataset, elevation: f32, count: usize, resolution: u32) -> Vec<Camera> {
    instant3d_nerf::camera::orbit_rig(
        ds.aabb.center(),
        ds.aabb.diagonal() * 0.9,
        elevation,
        count,
        50f32.to_radians(),
        resolution,
        resolution,
    )
}

/// Analytic ground truth of a synthetic scene at `camera`:
/// `synthetic::build_scene` through `field::render_image`, with the
/// sample count and background `SceneLibrary::synthetic_scene` renders
/// its datasets with.
pub fn analytic_frame(index: usize, camera: &Camera) -> RgbImage {
    let scene = instant3d_scenes::synthetic::build_scene(index);
    instant3d_nerf::field::render_image(&scene, camera, 96, Vec3::ONE).0
}

/// The dataset with only its first `views` test views (and depths), so
/// a periodic `Trainer::evaluate` costs a known number of views.
pub fn eval_subset(ds: &Dataset, views: usize) -> Dataset {
    let mut sub = ds.clone();
    sub.test_views.truncate(views);
    sub.test_depths.truncate(views);
    sub
}

pub fn test_view_count(ds: &Dataset) -> usize {
    ds.test_views.len()
}

/// Whether two frames agree bit for bit.
pub fn frames_bitwise_equal(a: &RgbImage, b: &RgbImage) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .all(|(p, q)| p.to_array().map(f32::to_bits) == q.to_array().map(f32::to_bits))
}

pub fn frame_is_finite(img: &RgbImage) -> bool {
    img.pixels().iter().all(|p| p.is_finite())
}

/// `metrics::psnr_rgb`.
pub fn psnr_rgb(a: &RgbImage, b: &RgbImage) -> f32 {
    instant3d_nerf::metrics::psnr_rgb(a, b)
}

// --------------------------------------------------------------- configs

pub fn config_instant3d() -> TrainConfig {
    TrainConfig::instant3d()
}

/// `TrainConfig::instant_ngp()` on `HashGridConfig::instant_ngp()` tables
/// with the given batch shape.
pub fn config_instant_ngp_tables(rays_per_batch: usize, samples_per_ray: usize) -> TrainConfig {
    TrainConfig {
        grid: instant3d_nerf::grid::HashGridConfig::instant_ngp(),
        rays_per_batch,
        samples_per_ray,
        ..TrainConfig::instant_ngp()
    }
}

pub fn config_fast_preview() -> TrainConfig {
    TrainConfig::fast_preview()
}

/// Name and tier label of `kernels::default_backend()` — what every
/// preset runs when `INSTANT3D_KERNEL_BACKEND` is unset, as it is in the
/// children.
pub fn default_backend() -> (&'static str, &'static str) {
    let b = instant3d_nerf::kernels::default_backend();
    (b.name(), b.tier().label())
}

// --------------------------------------------------------------- trainer

pub fn trainer_new(cfg: TrainConfig, ds: &Dataset, rng: &mut StdRng) -> Trainer {
    Trainer::new(cfg, ds, rng)
}

pub fn trainer_step(t: &mut Trainer, rng: &mut StdRng) -> StepStats {
    t.step(rng)
}

/// `Trainer::evaluate`: mean test RGB PSNR (dB).
pub fn trainer_eval_psnr(t: &Trainer, ds: &Dataset) -> f32 {
    t.evaluate(ds).rgb_psnr
}

pub fn checkpoint_save(model: &NerfModel) -> Vec<u8> {
    instant3d_core::checkpoint::save(model)
}

pub fn checkpoint_load(model: &mut NerfModel, blob: &[u8]) -> Result<(), String> {
    instant3d_core::checkpoint::load(model, blob).map_err(|e| e.to_string())
}

/// `(levels, features per entry)` of the model's density grid.
pub fn density_grid_shape(model: &NerfModel) -> (usize, usize) {
    let cfg = model.density_grid().config();
    (cfg.levels, cfg.features_per_entry)
}

/// `NerfModel::mlp_flops_per_point`: multiply-accumulates per point,
/// both heads, forward only.
pub fn mlp_macs_per_point(model: &NerfModel) -> usize {
    model.mlp_flops_per_point()
}

/// `Trainer::stats()` as per-iteration means: points, grid reads
/// (forward), grid writes (backward), MLP flops (forward + backward).
pub fn stats_per_iter(t: &Trainer) -> [f64; 4] {
    let s = t.stats();
    let its = s.iterations.max(1) as f64;
    [
        s.points as f64 / its,
        s.grid_reads_ff() as f64 / its,
        s.grid_writes_bp() as f64 / its,
        (s.mlp_flops_ff + s.mlp_flops_bp) as f64 / its,
    ]
}

// -------------------------------------------------------------- renderer

/// `FrameScheduler::new` with the sample count and background a
/// trainer's own evaluation renders with: `eval_samples_per_ray` of its
/// config, the dataset's background.
pub fn preview_scheduler(camera: Camera, t: &Trainer, ds: &Dataset) -> FrameScheduler {
    FrameScheduler::new(
        camera,
        instant3d_core::RenderOptions::new(t.config().eval_samples_per_ray, ds.background),
    )
}

/// `FrameScheduler::render_frame` on `render::shared_pool()`.
pub fn render_frame(
    sched: &mut FrameScheduler,
    model: &NerfModel,
    occ: Option<&OccupancyGrid>,
    budget: FrameBudget,
) -> FrameProgress {
    sched.render_frame(model, occ, budget, instant3d_core::render::shared_pool())
}

// ----------------------------------------------------------------- fleet

pub fn fleet_run(cfg: &FleetConfig, specs: &[JobSpec]) -> FleetReport {
    instant3d_serve::Fleet::new(cfg.clone()).run(specs)
}

pub fn train_solo(spec: &JobSpec) -> Vec<u8> {
    instant3d_serve::train_solo(spec)
}

// --------------------------------------------- seams the step replica uses

pub use instant3d_nerf::occupancy::RefreshMode;
pub use instant3d_nerf::render::{composite_backward_slices, pixel_loss};
pub use instant3d_nerf::sampler::{sample_pixel_batch_into, sample_segments_into};
