//! Samplers for Steps ① and ③: random pixel batches across training views
//! and stratified point sampling along rays.

use crate::camera::Camera;
use crate::image::RgbImage;
use crate::math::{Aabb, Ray, Vec3};
use crate::occupancy::OccupancyGrid;
use rand::Rng;

/// A `(t, δt)` segment along a ray where a sample should be taken.
pub type Segment = (f32, f32);

/// Stratified sampling of `n` segments across the ray's intersection with
/// `aabb`: clears `out` and refills it. With `jitter`, each sample is
/// placed uniformly within its stratum (one draw per stratum); without, at
/// the stratum center (deterministic).
///
/// Leaves `out` empty when the ray misses the box.
pub fn sample_segments_into<R: Rng + ?Sized>(
    ray: &Ray,
    aabb: &Aabb,
    n: usize,
    mut jitter: Option<&mut R>,
    out: &mut Vec<Segment>,
) {
    out.clear();
    let Some((t0, t1)) = aabb.intersect(ray) else {
        return;
    };
    if t1 <= t0 || n == 0 {
        return;
    }
    let dt = (t1 - t0) / n as f32;
    out.reserve(n);
    for k in 0..n {
        let u = match jitter.as_deref_mut() {
            Some(rng) => rng.gen_range(0.0..1.0),
            None => 0.5,
        };
        out.push((t0 + (k as f32 + u) * dt, dt));
    }
}

/// Like [`sample_segments_into`], but keeps only the segments whose sample
/// points land in occupied cells of `occ` — Instant-NGP's empty-space
/// skipping. Each sample costs one packed-bitfield probe
/// ([`OccupancyGrid::occupied_at`]: a Morton interleave + one word load).
/// RNG consumption matches [`sample_segments_into`] (jitter is drawn for
/// every stratum, culled or not), so culling never perturbs the stream —
/// the property the trainer's batched sampling loop relies on.
pub fn sample_segments_occupancy_into<R: Rng + ?Sized>(
    ray: &Ray,
    aabb: &Aabb,
    n: usize,
    occ: &OccupancyGrid,
    jitter: Option<&mut R>,
    out: &mut Vec<Segment>,
) {
    sample_segments_into(ray, aabb, n, jitter, out);
    out.retain(|&(t, _)| occ.occupied_at(ray.at(t)));
}

/// One supervised ray: the pixel's camera ray plus its ground-truth color.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainRay {
    /// The camera ray through the sampled pixel.
    pub ray: Ray,
    /// Ground-truth RGB of that pixel.
    pub target: Vec3,
    /// Index of the view the pixel came from.
    pub view: usize,
}

/// Step ① — samples a batch of `batch` random pixels (with their rays and
/// ground truth colors) from a set of posed training images: clears `out`
/// and refills it.
///
/// # Panics
///
/// Panics if `cameras` is empty, images don't match their cameras, or the
/// camera/image counts differ.
pub fn sample_pixel_batch_into<R: Rng + ?Sized>(
    cameras: &[Camera],
    images: &[RgbImage],
    batch: usize,
    rng: &mut R,
    out: &mut Vec<TrainRay>,
) {
    assert!(!cameras.is_empty(), "need at least one training view");
    assert_eq!(cameras.len(), images.len(), "camera/image count mismatch");
    for (c, i) in cameras.iter().zip(images) {
        assert_eq!(
            (c.width, c.height),
            (i.width(), i.height()),
            "image/camera size mismatch"
        );
    }
    out.clear();
    out.reserve(batch);
    for _ in 0..batch {
        let view = rng.gen_range(0..cameras.len());
        let cam = &cameras[view];
        let x = rng.gen_range(0..cam.width);
        let y = rng.gen_range(0..cam.height);
        out.push(TrainRay {
            ray: cam.pixel_center_ray(x, y),
            target: images[view].get(x, y),
            view,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn segments(ray: &Ray, n: usize, jitter: Option<&mut StdRng>) -> Vec<Segment> {
        let mut out = Vec::new();
        sample_segments_into(ray, &Aabb::UNIT, n, jitter, &mut out);
        out
    }

    fn pixel_batch(
        cameras: &[Camera],
        images: &[RgbImage],
        batch: usize,
        seed: u64,
    ) -> Vec<TrainRay> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        sample_pixel_batch_into(cameras, images, batch, &mut rng, &mut out);
        out
    }

    #[test]
    fn deterministic_segments_are_stratum_centers() {
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let segs = segments(&ray, 4, None);
        assert_eq!(segs.len(), 4);
        // Box spans t ∈ [1, 2]; strata centers at 1.125, 1.375, ...
        assert!((segs[0].0 - 1.125).abs() < 1e-5);
        assert!((segs[3].0 - 1.875).abs() < 1e-5);
        for &(_, dt) in &segs {
            assert!((dt - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn jittered_segments_stay_in_strata() {
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let mut rng = StdRng::seed_from_u64(11);
        let segs = segments(&ray, 8, Some(&mut rng));
        for (k, &(t, dt)) in segs.iter().enumerate() {
            let lo = 1.0 + k as f32 * dt;
            assert!(
                t >= lo && t <= lo + dt,
                "sample {k} at {t} outside [{lo}, {}]",
                lo + dt
            );
        }
    }

    #[test]
    fn miss_returns_empty() {
        let ray = Ray::new(Vec3::new(-1.0, 5.0, 0.5), Vec3::X);
        assert!(segments(&ray, 8, None).is_empty());
    }

    #[test]
    fn occupancy_filter_drops_empty_space() {
        // Occupied only in the x < 0.5 half of the unit cube.
        let mut occ = OccupancyGrid::new(Aabb::UNIT, 8);
        occ.update_from_fn(|p| if p.x < 0.5 { 1.0 } else { 0.0 }, 0.5);
        let ray = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let mut segs = Vec::new();
        sample_segments_occupancy_into::<StdRng>(&ray, &Aabb::UNIT, 64, &occ, None, &mut segs);
        assert!(!segs.is_empty());
        // All surviving samples lie in the occupied half: t in [1.0, 1.5).
        for &(t, _) in &segs {
            assert!(t < 1.5 + 1e-4, "sample at t={t} should have been culled");
        }
        // Roughly half the samples survive.
        assert!(
            segs.len() >= 24 && segs.len() <= 40,
            "{} survived",
            segs.len()
        );
    }

    #[test]
    fn occupancy_culling_keeps_the_rng_stream() {
        let mut occ = OccupancyGrid::new(Aabb::UNIT, 8);
        occ.update_from_fn(|p| if p.x < 0.5 { 1.0 } else { 0.0 }, 0.5);
        let ray = Ray::new(Vec3::new(-1.0, 0.45, 0.55), Vec3::X);
        let mut rng_a = StdRng::seed_from_u64(17);
        let mut rng_b = StdRng::seed_from_u64(17);
        let mut culled = Vec::new();
        sample_segments_occupancy_into(&ray, &Aabb::UNIT, 32, &occ, Some(&mut rng_a), &mut culled);
        let mut all = segments(&ray, 32, Some(&mut rng_b));
        all.retain(|&(t, _)| occ.occupied_at(ray.at(t)));
        assert_eq!(culled, all);
        // Culling consumed the same RNG stream as unculled sampling: the
        // next draws agree.
        assert_eq!(rng_a.gen_range(0.0f32..1.0), rng_b.gen_range(0.0f32..1.0));
    }

    #[test]
    fn pixel_batch_returns_requested_size_and_valid_targets() {
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 2.0), Vec3::ZERO, Vec3::Y, 1.0, 8, 8);
        let img = RgbImage::from_fn(8, 8, |x, y| Vec3::new(x as f32 / 8.0, y as f32 / 8.0, 0.0));
        let batch = pixel_batch(&[cam], std::slice::from_ref(&img), 32, 5);
        assert_eq!(batch.len(), 32);
        for tr in &batch {
            assert_eq!(tr.view, 0);
            assert!(tr.target.x < 1.0 && tr.target.y < 1.0);
            assert!((tr.ray.dir.norm() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn pixel_batch_covers_multiple_views() {
        let cams: Vec<Camera> = (0..4)
            .map(|i| {
                Camera::look_at(
                    Vec3::new(i as f32, 0.0, 2.0),
                    Vec3::ZERO,
                    Vec3::Y,
                    1.0,
                    4,
                    4,
                )
            })
            .collect();
        let imgs: Vec<RgbImage> = (0..4).map(|_| RgbImage::new(4, 4)).collect();
        let batch = pixel_batch(&cams, &imgs, 256, 1);
        let mut seen = [false; 4];
        for tr in &batch {
            seen[tr.view] = true;
        }
        assert!(seen.iter().all(|&s| s), "all views should be sampled");
    }

    #[test]
    #[should_panic]
    fn mismatched_camera_image_sizes_panic() {
        let cam = Camera::look_at(Vec3::new(0.0, 0.0, 2.0), Vec3::ZERO, Vec3::Y, 1.0, 8, 8);
        let img = RgbImage::new(4, 4);
        let _ = pixel_batch(&[cam], &[img], 1, 0);
    }
}
