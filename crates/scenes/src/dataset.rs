//! Posed-image datasets rendered from the analytic scenes: the inputs of
//! Step ① and the ground truth of Step ⑤.

use crate::scannet;
use crate::scene::AnalyticScene;
use crate::silvr;
use crate::synthetic;
use instant3d_nerf::camera::{orbit_rig, Camera};
use instant3d_nerf::field::{render_image, RadianceField};
use instant3d_nerf::image::{DepthImage, RgbImage};
use instant3d_nerf::math::{Aabb, Vec3};
use rand::Rng;

/// A posed view: one camera and the image it captured.
#[derive(Debug, Clone)]
pub struct View {
    /// Camera pose + intrinsics.
    pub camera: Camera,
    /// The captured RGB image.
    pub image: RgbImage,
}

/// A complete training dataset for one scene: posed train/test images,
/// ground-truth test depth maps and scene metadata.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Scene name (keys the experiment tables).
    pub name: String,
    /// The scene volume the hash grids will cover.
    pub aabb: Aabb,
    /// Composite background color used during rendering and training.
    pub background: Vec3,
    /// Training views (Step ① samples pixels from these).
    pub train_views: Vec<View>,
    /// Held-out evaluation views.
    pub test_views: Vec<View>,
    /// Ground-truth depth for each test view (for the Fig. 5 density-pace
    /// analysis; "not generated during training, merely used to test the
    /// learned density quality").
    pub test_depths: Vec<DepthImage>,
}

impl Dataset {
    /// Renders a dataset from an analytic scene and camera rigs.
    pub fn from_scene(
        scene: &AnalyticScene,
        train_cameras: Vec<Camera>,
        test_cameras: Vec<Camera>,
        gt_samples_per_ray: usize,
        background: Vec3,
    ) -> Dataset {
        let render = |cams: &[Camera]| -> (Vec<View>, Vec<DepthImage>) {
            let mut views = Vec::with_capacity(cams.len());
            let mut depths = Vec::with_capacity(cams.len());
            for cam in cams {
                let (rgb, depth) = render_image(scene, cam, gt_samples_per_ray, background);
                views.push(View {
                    camera: *cam,
                    image: rgb,
                });
                depths.push(depth);
            }
            (views, depths)
        };
        let (train_views, _) = render(&train_cameras);
        let (test_views, test_depths) = render(&test_cameras);
        Dataset {
            name: scene.name().to_string(),
            aabb: scene.aabb(),
            background,
            train_views,
            test_views,
            test_depths,
        }
    }

    /// Adds zero-mean Gaussian noise (std `sigma`) to all training images —
    /// the ScanNet-substitute's sensor-noise injection.
    pub fn add_sensor_noise<R: Rng + ?Sized>(&mut self, sigma: f32, rng: &mut R) {
        for view in &mut self.train_views {
            for p in view.image.pixels_mut() {
                let n = Vec3::new(
                    gaussian(rng) * sigma,
                    gaussian(rng) * sigma,
                    gaussian(rng) * sigma,
                );
                *p = (*p + n).clamp(0.0, 1.0);
            }
        }
    }

    /// Training cameras as a slice-friendly vector (the samplers take
    /// parallel `&[Camera]` / `&[RgbImage]` slices).
    pub fn train_cameras(&self) -> Vec<Camera> {
        self.train_views.iter().map(|v| v.camera).collect()
    }

    /// Training images, parallel to [`Dataset::train_cameras`].
    pub fn train_images(&self) -> Vec<RgbImage> {
        self.train_views.iter().map(|v| v.image.clone()).collect()
    }
}

/// Box-Muller standard normal sample.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.gen_range(1e-7..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// Factory for the paper's three dataset substrates.
#[derive(Debug, Clone, Copy)]
pub struct SceneLibrary;

impl SceneLibrary {
    /// One NeRF-Synthetic-like scene (`index` in 0..8) captured by an orbit
    /// rig: `train_views` training cameras plus `train_views / 3 + 2` test
    /// cameras at a different elevation.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    pub fn synthetic_scene<R: Rng + ?Sized>(
        index: usize,
        resolution: u32,
        train_views: usize,
        _rng: &mut R,
    ) -> Dataset {
        let scene = synthetic::build_scene(index);
        let target = scene.aabb().center();
        let radius = scene.aabb().diagonal() * 0.9;
        let fov = 50f32.to_radians();
        let train = orbit_rig(
            target,
            radius,
            0.5,
            train_views,
            fov,
            resolution,
            resolution,
        );
        let test = orbit_rig(
            target,
            radius,
            0.8,
            (train_views / 3).max(2),
            fov,
            resolution,
            resolution,
        );
        Dataset::from_scene(&scene, train, test, 96, Vec3::ONE)
    }

    /// The SILVR-like large-volume hall, captured by a wide orbit inside
    /// the space.
    pub fn silvr_scene<R: Rng + ?Sized>(
        resolution: u32,
        train_views: usize,
        _rng: &mut R,
    ) -> Dataset {
        let scene = silvr::build_hall();
        let target = Vec3::new(0.0, -0.2, 0.0);
        let fov = 65f32.to_radians();
        let train = orbit_rig(target, 3.0, 0.25, train_views, fov, resolution, resolution);
        let test = orbit_rig(
            target,
            2.6,
            0.4,
            (train_views / 3).max(2),
            fov,
            resolution,
            resolution,
        );
        Dataset::from_scene(&scene, train, test, 128, Vec3::new(0.05, 0.05, 0.08))
    }

    /// The ScanNet-like room with a walking trajectory and sensor noise.
    pub fn scannet_scene<R: Rng + ?Sized>(
        resolution: u32,
        train_views: usize,
        rng: &mut R,
    ) -> Dataset {
        let scene = scannet::build_room();
        let fov = 70f32.to_radians();
        let train = scannet::walking_trajectory(train_views, fov, resolution, resolution);
        let test: Vec<Camera> = scannet::walking_trajectory(
            (train_views / 3).max(2) * 2 + 1,
            fov,
            resolution,
            resolution,
        )
        .into_iter()
        .skip(1)
        .step_by(2)
        .collect();
        let mut ds = Dataset::from_scene(&scene, train, test, 128, Vec3::new(0.02, 0.02, 0.02));
        ds.add_sensor_noise(0.01, rng);
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn synthetic_dataset_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = SceneLibrary::synthetic_scene(4, 16, 6, &mut rng);
        assert_eq!(ds.name, "lego");
        assert_eq!(ds.train_views.len(), 6);
        assert_eq!(ds.test_views.len(), 2);
        assert_eq!(ds.test_depths.len(), 2);
        assert_eq!(ds.train_cameras().len(), 6);
        assert_eq!(ds.train_images().len(), 6);
    }

    #[test]
    fn synthetic_images_show_the_object() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = SceneLibrary::synthetic_scene(0, 24, 4, &mut rng);
        // With a white background, object pixels darken the mean.
        for v in &ds.train_views {
            let mean: f32 = v
                .image
                .pixels()
                .iter()
                .map(|p| (p.x + p.y + p.z) / 3.0)
                .sum::<f32>()
                / v.image.num_pixels() as f32;
            assert!(mean < 0.999, "view looks empty (mean {mean})");
            assert!(mean > 0.2, "view is implausibly dark (mean {mean})");
        }
    }

    #[test]
    fn test_depths_are_positive_where_object_is() {
        let mut rng = StdRng::seed_from_u64(0);
        let ds = SceneLibrary::synthetic_scene(6, 24, 4, &mut rng);
        for d in &ds.test_depths {
            assert!(d.max_depth() > 0.0, "depth map empty");
        }
    }

    #[test]
    fn sensor_noise_perturbs_but_preserves_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ds = SceneLibrary::synthetic_scene(1, 16, 3, &mut rng);
        let before = ds.train_views[0].image.clone();
        ds.add_sensor_noise(0.05, &mut rng);
        let after = &ds.train_views[0].image;
        assert!(before.mse(after) > 0.0, "noise should change pixels");
        for p in after.pixels() {
            for k in 0..3 {
                assert!((0.0..=1.0).contains(&p[k]));
            }
        }
    }

    #[test]
    fn scannet_dataset_builds_with_noise() {
        let mut rng = StdRng::seed_from_u64(9);
        let ds = SceneLibrary::scannet_scene(16, 6, &mut rng);
        assert_eq!(ds.name, "scannet-room");
        assert_eq!(ds.train_views.len(), 6);
        assert!(!ds.test_views.is_empty());
    }

    #[test]
    fn silvr_dataset_is_large_volume() {
        let mut rng = StdRng::seed_from_u64(2);
        let ds = SceneLibrary::silvr_scene(16, 5, &mut rng);
        assert_eq!(ds.name, "silvr-hall");
        assert!(ds.aabb.extent().max_component() > 6.0);
    }
}
