//! Evaluation: render test views from a trained model and score RGB and
//! depth PSNR against ground truth.
//!
//! The depth maps are "not generated during training and merely used to
//! test the learned density quality" (§3.1) — they quantify how fast the
//! density branch is learning relative to color (Fig. 5).
//!
//! Views are rendered by [`render::render_view`], the tile renderer at
//! full budget: tiles are scheduled on the work-stealing pool and
//! workspaces come from the process-wide reuse pool, so repeated
//! evaluation performs zero steady-state allocations.

use crate::model::NerfModel;
use crate::render;
use instant3d_nerf::metrics::{psnr_depth, psnr_rgb};
use instant3d_nerf::occupancy::OccupancyGrid;
use instant3d_scenes::Dataset;

/// RGB and depth reconstruction quality of a model on a test set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Mean RGB PSNR over the test views (dB).
    pub rgb_psnr: f32,
    /// Mean depth PSNR over the test views (dB) — the density-quality probe.
    pub depth_psnr: f32,
    /// Mean luminance SSIM over the test views (in [-1, 1]).
    pub rgb_ssim: f32,
}

/// Scores a model against a dataset's test views with uniform ray
/// sampling — the default, metrics-stable path
/// (`evaluate_with(.., None)`).
///
/// # Panics
///
/// Panics if the dataset has no test views or the test-view and
/// test-depth counts disagree.
pub fn evaluate(model: &NerfModel, dataset: &Dataset, samples_per_ray: usize) -> EvalResult {
    evaluate_with(model, dataset, samples_per_ray, None)
}

/// Scores a model against a dataset's test views, optionally with
/// occupancy-guided sampling.
///
/// `occupancy` is the empty-space-skipping flag: `None` samples every ray
/// uniformly across its AABB span (bit-for-bit the historical metrics);
/// `Some(grid)` culls samples in unoccupied cells, which is much cheaper
/// on a trained model but produces (slightly) different pixels, so it is
/// opt-in — see [`Trainer::evaluate_with_occupancy`](crate::Trainer::evaluate_with_occupancy).
///
/// # Panics
///
/// Panics if the dataset has no test views or the test-view and
/// test-depth counts disagree (a silently truncated zip would score
/// depth maps against the wrong views).
pub fn evaluate_with(
    model: &NerfModel,
    dataset: &Dataset,
    samples_per_ray: usize,
    occupancy: Option<&OccupancyGrid>,
) -> EvalResult {
    assert!(!dataset.test_views.is_empty(), "dataset has no test views");
    assert_eq!(
        dataset.test_views.len(),
        dataset.test_depths.len(),
        "test view/depth count mismatch: {} views vs {} depth maps",
        dataset.test_views.len(),
        dataset.test_depths.len(),
    );
    // Accumulate sums and divide by the (asserted non-zero) view count:
    // an empty mean is impossible by construction, and the summation
    // order matches `metrics::mean` so the scores are bit-stable against
    // the historical implementation.
    let n = dataset.test_views.len() as f32;
    let (mut rgb_sum, mut depth_sum, mut ssim_sum) = (0.0f32, 0.0f32, 0.0f32);
    for (view, gt_depth) in dataset.test_views.iter().zip(&dataset.test_depths) {
        let (rgb, depth) = render::render_view(
            model,
            &view.camera,
            samples_per_ray,
            dataset.background,
            occupancy,
        );
        rgb_sum += psnr_rgb(&view.image, &rgb);
        depth_sum += psnr_depth(gt_depth, &depth);
        ssim_sum += instant3d_nerf::ssim::ssim(&view.image, &rgb);
    }
    EvalResult {
        rgb_psnr: rgb_sum / n,
        depth_psnr: depth_sum / n,
        rgb_ssim: ssim_sum / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainConfig;
    use instant3d_scenes::SceneLibrary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn render_view_shapes_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = SceneLibrary::synthetic_scene(0, 12, 3, &mut rng);
        let model = NerfModel::new(&TrainConfig::fast_preview(), ds.aabb, &mut rng);
        let cam = &ds.test_views[0].camera;
        let (rgb, depth) = render::render_view(&model, cam, 16, ds.background, None);
        assert_eq!(rgb.width(), 12);
        assert_eq!(depth.height(), 12);
        for p in rgb.pixels() {
            assert!(p.is_finite());
        }
        for &d in depth.depths() {
            assert!(d.is_finite() && d >= 0.0);
        }
    }

    #[test]
    fn evaluate_returns_finite_psnrs() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = SceneLibrary::synthetic_scene(1, 12, 3, &mut rng);
        let model = NerfModel::new(&TrainConfig::fast_preview(), ds.aabb, &mut rng);
        let r = evaluate(&model, &ds, 16);
        assert!(r.rgb_psnr.is_finite());
        assert!(r.depth_psnr.is_finite());
        assert!((-1.0..=1.0).contains(&r.rgb_ssim));
        // An untrained model should be far from ground truth.
        assert!(r.rgb_psnr < 30.0);
        assert!(r.rgb_ssim < 0.999);
    }

    #[test]
    #[should_panic(expected = "test view/depth count mismatch")]
    fn evaluate_rejects_mismatched_depth_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = SceneLibrary::synthetic_scene(0, 8, 3, &mut rng);
        let model = NerfModel::new(&TrainConfig::fast_preview(), ds.aabb, &mut rng);
        ds.test_depths.pop();
        let _ = evaluate(&model, &ds, 4);
    }
}
