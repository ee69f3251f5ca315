//! The radiance-field abstraction shared by analytic ground-truth scenes
//! and learned models, plus reference renderers built on
//! [`crate::render::composite_slices`].

use crate::camera::Camera;
use crate::image::{DepthImage, RgbImage};
use crate::math::{Aabb, Ray, Vec3};
use crate::render::{composite_slices, RayBatch, RenderOutput};

/// Anything that can answer "what is the density and emitted color at this
/// point, viewed from this direction" — Step ③ of the pipeline.
///
/// Implemented by the analytic scenes in `instant3d-scenes` (ground truth)
/// and by the learned models in `instant3d-core`.
pub trait RadianceField {
    /// The bounding volume containing all non-zero density.
    fn aabb(&self) -> Aabb;

    /// Queries density σ ≥ 0 and view-dependent RGB color at `pos`/`dir`.
    fn query(&self, pos: Vec3, dir: Vec3) -> (f32, Vec3);

    /// Density only (some callers don't need color; default delegates).
    fn density(&self, pos: Vec3) -> f32 {
        self.query(pos, Vec3::X).0
    }
}

impl<F: RadianceField + ?Sized> RadianceField for &F {
    fn aabb(&self) -> Aabb {
        (**self).aabb()
    }
    fn query(&self, pos: Vec3, dir: Vec3) -> (f32, Vec3) {
        (**self).query(pos, dir)
    }
    fn density(&self, pos: Vec3) -> f32 {
        (**self).density(pos)
    }
}

/// Renders one ray through a field with `n_samples` uniform samples across
/// the field's AABB intersection. Returns the background when the ray
/// misses the AABB.
///
/// `samples` is scratch: it is cleared and refilled with this ray's
/// samples, so a caller rendering many rays reuses one batch and
/// allocates nothing per ray once it has grown to `n_samples`.
pub fn render_ray<F: RadianceField + ?Sized>(
    field: &F,
    ray: &Ray,
    n_samples: usize,
    background: Vec3,
    samples: &mut RayBatch,
) -> RenderOutput {
    let aabb = field.aabb();
    let Some((t0, t1)) = aabb.intersect(ray) else {
        return RenderOutput {
            color: background,
            depth: 0.0,
            opacity: 0.0,
            transmittance: 1.0,
        };
    };
    if t1 <= t0 || n_samples == 0 {
        return RenderOutput {
            color: background,
            depth: 0.0,
            opacity: 0.0,
            transmittance: 1.0,
        };
    }
    let dt = (t1 - t0) / n_samples as f32;
    samples.clear();
    for k in 0..n_samples {
        let t = t0 + (k as f32 + 0.5) * dt;
        samples.push_sample(t, dt);
        (samples.sigma[k], samples.rgb[k]) = field.query(ray.at(t), ray.dir);
    }
    samples.end_ray();
    let (t, dt, sigma, rgb) = (&samples.t, &samples.dt, &samples.sigma, &samples.rgb);
    composite_slices(t, dt, sigma, rgb, background, None).0
}

/// Renders a full RGB + depth image from a field (the ground-truth path for
/// the procedural datasets, and the evaluation path for learned models).
///
/// Rows are rendered in parallel with scoped threads, each reusing one
/// [`RayBatch`] for all of its rays.
pub fn render_image<F: RadianceField + Sync + ?Sized>(
    field: &F,
    camera: &Camera,
    n_samples: usize,
    background: Vec3,
) -> (RgbImage, DepthImage) {
    let w = camera.width;
    let h = camera.height;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(h as usize)
        .max(1);

    let mut rows: Vec<(Vec<Vec3>, Vec<f32>)> = Vec::with_capacity(h as usize);
    rows.resize_with(h as usize, || (Vec::new(), Vec::new()));
    let rows_ref = &mut rows[..];

    std::thread::scope(|scope| {
        let chunk = h.div_ceil(threads as u32);
        for (tid, rows_chunk) in rows_ref.chunks_mut(chunk as usize).enumerate() {
            let y0 = tid as u32 * chunk;
            scope.spawn(move || {
                let mut samples = RayBatch::new();
                for (dy, row) in rows_chunk.iter_mut().enumerate() {
                    let y = y0 + dy as u32;
                    let mut colors = Vec::with_capacity(w as usize);
                    let mut depths = Vec::with_capacity(w as usize);
                    for x in 0..w {
                        let ray = camera.pixel_center_ray(x, y);
                        let out = render_ray(field, &ray, n_samples, background, &mut samples);
                        colors.push(out.color);
                        depths.push(out.depth);
                    }
                    *row = (colors, depths);
                }
            });
        }
    });

    let mut rgb = RgbImage::new(w, h);
    let mut depth = DepthImage::new(w, h);
    for (y, (colors, depths)) in rows.into_iter().enumerate() {
        for x in 0..w as usize {
            rgb.set(x as u32, y as u32, colors[x]);
            depth.set(x as u32, y as u32, depths[x]);
        }
    }
    (rgb, depth)
}

/// A trivially simple field used in tests: a constant-density ball.
#[derive(Debug, Clone, Copy)]
pub struct BallField {
    /// Ball center.
    pub center: Vec3,
    /// Ball radius.
    pub radius: f32,
    /// Density inside the ball.
    pub sigma: f32,
    /// Uniform albedo.
    pub color: Vec3,
}

impl RadianceField for BallField {
    fn aabb(&self) -> Aabb {
        Aabb::cube(self.center, self.radius * 1.5)
    }

    fn query(&self, pos: Vec3, _dir: Vec3) -> (f32, Vec3) {
        if pos.distance(self.center) <= self.radius {
            (self.sigma, self.color)
        } else {
            (0.0, Vec3::ZERO)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ball() -> BallField {
        BallField {
            center: Vec3::ZERO,
            radius: 0.5,
            sigma: 50.0,
            color: Vec3::new(0.9, 0.2, 0.1),
        }
    }

    #[test]
    fn ray_through_ball_sees_ball_color() {
        let f = ball();
        let ray = Ray::new(Vec3::new(0.0, 0.0, 2.0), -Vec3::Z);
        let out = render_ray(&f, &ray, 128, Vec3::ZERO, &mut RayBatch::new());
        assert!(out.opacity > 0.9, "opacity {}", out.opacity);
        assert!((out.color.x - 0.9).abs() < 0.05);
        // Depth lands near the front surface (t = 1.5).
        assert!((out.depth - 1.5).abs() < 0.2, "depth {}", out.depth);
    }

    #[test]
    fn ray_missing_aabb_returns_background() {
        let f = ball();
        let bg = Vec3::new(0.0, 0.0, 1.0);
        let ray = Ray::new(Vec3::new(5.0, 5.0, 2.0), -Vec3::Z);
        let out = render_ray(&f, &ray, 32, bg, &mut RayBatch::new());
        assert_eq!(out.color, bg);
        assert_eq!(out.opacity, 0.0);
    }

    #[test]
    fn rendered_image_has_ball_in_center_background_at_edges() {
        let f = ball();
        let cam = Camera::look_at(
            Vec3::new(0.0, 0.0, 2.5),
            Vec3::ZERO,
            Vec3::Y,
            60f32.to_radians(),
            17,
            17,
        );
        let bg = Vec3::splat(1.0);
        let (rgb, depth) = render_image(&f, &cam, 96, bg);
        let center = rgb.get(8, 8);
        assert!(center.x > 0.5 && center.y < 0.5, "center pixel {center}");
        let corner = rgb.get(0, 0);
        assert_eq!(corner, bg);
        assert!(depth.get(8, 8) > 0.0);
        assert_eq!(depth.get(0, 0), 0.0);
    }

    #[test]
    fn density_default_delegates_to_query() {
        let f = ball();
        assert_eq!(f.density(Vec3::ZERO), 50.0);
        assert_eq!(f.density(Vec3::splat(2.0)), 0.0);
    }

    #[test]
    fn reference_field_impl_works() {
        // &F must also be a RadianceField.
        fn takes_field<F: RadianceField>(f: F) -> f32 {
            f.density(Vec3::ZERO)
        }
        let b = ball();
        assert_eq!(takes_field(b), 50.0);
    }
}
