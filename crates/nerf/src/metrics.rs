//! Image quality metrics: PSNR (the paper's reconstruction-quality measure)
//! and helpers for color and depth comparisons.

use crate::image::{DepthImage, RgbImage};

/// Peak signal-to-noise ratio in dB for a given MSE and peak value.
///
/// Returns `f32::INFINITY` for zero MSE (identical images).
///
/// # Panics
///
/// Panics if `mse < 0` or `peak <= 0`.
///
/// # Example
///
/// ```
/// use instant3d_nerf::metrics::psnr;
/// assert_eq!(psnr(0.01, 1.0), 20.0);
/// ```
pub fn psnr(mse: f32, peak: f32) -> f32 {
    assert!(mse >= 0.0, "mse must be non-negative");
    assert!(peak > 0.0, "peak must be positive");
    if mse == 0.0 {
        return f32::INFINITY;
    }
    10.0 * ((peak * peak / mse) as f64).log10() as f32
}

/// PSNR between two RGB images on a [0, 1] scale.
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn psnr_rgb(a: &RgbImage, b: &RgbImage) -> f32 {
    psnr(a.mse(b), 1.0)
}

/// PSNR between two depth images, normalised by their shared max depth —
/// how the paper scores the "depth image" quality of the density branch
/// (Fig. 5).
///
/// # Panics
///
/// Panics if dimensions differ.
pub fn psnr_depth(a: &DepthImage, b: &DepthImage) -> f32 {
    let scale = a.max_depth().max(b.max_depth()).max(1e-6);
    psnr(a.mse_normalized(b, scale), 1.0)
}

/// Mean of a slice (convenience for averaging per-scene PSNRs).
///
/// Returns `None` for an empty slice.
pub fn mean(values: &[f32]) -> Option<f32> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f32>() / values.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::Vec3;

    #[test]
    fn psnr_reference_points() {
        assert_eq!(psnr(1.0, 1.0), 0.0);
        assert_eq!(psnr(0.01, 1.0), 20.0);
        assert!((psnr(0.001, 1.0) - 30.0).abs() < 1e-4);
        assert_eq!(psnr(0.0, 1.0), f32::INFINITY);
    }

    #[test]
    fn psnr_scales_with_peak() {
        // Doubling the peak adds ~6.02 dB.
        let d = psnr(0.01, 2.0) - psnr(0.01, 1.0);
        assert!((d - 6.0206).abs() < 1e-3);
    }

    #[test]
    fn identical_rgb_images_have_infinite_psnr() {
        let img = RgbImage::from_fn(8, 8, |x, y| Vec3::splat((x * y) as f32 / 64.0));
        assert_eq!(psnr_rgb(&img, &img), f32::INFINITY);
    }

    #[test]
    fn noisier_image_has_lower_psnr() {
        let truth = RgbImage::from_fn(16, 16, |x, _| Vec3::splat(x as f32 / 16.0));
        let mut small_noise = truth.clone();
        let mut big_noise = truth.clone();
        for (i, p) in small_noise.pixels_mut().iter_mut().enumerate() {
            *p += Vec3::splat(if i % 2 == 0 { 0.01 } else { -0.01 });
        }
        for (i, p) in big_noise.pixels_mut().iter_mut().enumerate() {
            *p += Vec3::splat(if i % 2 == 0 { 0.1 } else { -0.1 });
        }
        assert!(psnr_rgb(&truth, &small_noise) > psnr_rgb(&truth, &big_noise));
    }

    #[test]
    fn depth_psnr_is_scale_invariant() {
        let mut a1 = DepthImage::new(4, 4);
        let mut b1 = DepthImage::new(4, 4);
        let mut a2 = DepthImage::new(4, 4);
        let mut b2 = DepthImage::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                let d = (x + y) as f32;
                a1.set(x, y, d);
                b1.set(x, y, d + 0.5);
                a2.set(x, y, d * 10.0);
                b2.set(x, y, (d + 0.5) * 10.0);
            }
        }
        let p1 = psnr_depth(&a1, &b1);
        let p2 = psnr_depth(&a2, &b2);
        assert!((p1 - p2).abs() < 1e-4, "{p1} vs {p2}");
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    #[should_panic]
    fn negative_mse_panics() {
        let _ = psnr(-1.0, 1.0);
    }

    // Knife-edge pins: the metric must behave exactly on degenerate
    // images.

    #[test]
    fn signed_zero_pixels_are_identical_for_psnr() {
        // +0.0 and −0.0 differ in bits but not in value: the squared
        // error is exactly zero, so the PSNR is infinite, not NaN.
        let pos = RgbImage::from_fn(4, 4, |_, _| Vec3::splat(0.0));
        let neg = RgbImage::from_fn(4, 4, |_, _| Vec3::splat(-0.0));
        assert_eq!(psnr_rgb(&pos, &neg), f32::INFINITY);
    }

    #[test]
    fn one_pixel_image_psnr_matches_closed_form() {
        // A 1×1 pair pins the mse normalisation: one channel triple off
        // by 0.5 → MSE 0.25 → 10·log10(1/0.25) ≈ 6.0206 dB.
        let a = RgbImage::from_fn(1, 1, |_, _| Vec3::splat(0.25));
        let b = RgbImage::from_fn(1, 1, |_, _| Vec3::splat(0.75));
        let p = psnr_rgb(&a, &b);
        assert!((p - 6.0206).abs() < 1e-3, "1×1 psnr {p}");
    }

    #[test]
    fn constant_images_psnr_matches_closed_form() {
        // Constant-vs-constant is pure mean offset: MSE = d².
        let a = RgbImage::from_fn(8, 8, |_, _| Vec3::splat(0.2));
        let b = RgbImage::from_fn(8, 8, |_, _| Vec3::splat(0.3));
        let p = psnr_rgb(&a, &b);
        let expect = psnr(0.1f32 * 0.1, 1.0);
        assert!((p - expect).abs() < 1e-3, "{p} vs {expect}");
    }

    #[test]
    fn zero_depth_images_use_the_scale_floor() {
        // Two all-zero depth maps: max depth is 0, the 1e-6 floor keeps
        // the normalisation finite and the PSNR infinite.
        let a = DepthImage::new(3, 3);
        let b = DepthImage::new(3, 3);
        assert_eq!(psnr_depth(&a, &b), f32::INFINITY);
    }
}
