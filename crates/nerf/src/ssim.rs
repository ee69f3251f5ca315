//! SSIM (structural similarity) image metric.
//!
//! The paper scores reconstructions with PSNR and cites Hore & Ziou's
//! "Image quality metrics: PSNR vs. SSIM" (ref. 13); NeRF evaluations commonly
//! report both, so the library provides SSIM as well. This is the
//! windowed SSIM of Wang et al. (2004) with an 8×8 box window on the
//! luminance channel.

use crate::image::RgbImage;
use crate::math::Vec3;

/// SSIM stabilisation constants for a [0, 1] dynamic range:
/// `C1 = (0.01)²`, `C2 = (0.03)²`.
const C1: f64 = 1e-4;
const C2: f64 = 9e-4;

/// Window side length.
const WIN: u32 = 8;

fn luminance(c: Vec3) -> f64 {
    (0.2126 * c.x + 0.7152 * c.y + 0.0722 * c.z) as f64
}

/// Mean SSIM between two images on their luminance channel, using
/// non-overlapping 8×8 windows (partial windows at the borders included).
///
/// Returns a value in [-1, 1]; 1 means structurally identical.
///
/// # Panics
///
/// Panics if the images' dimensions differ.
pub fn ssim(a: &RgbImage, b: &RgbImage) -> f32 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    let (w, h) = (a.width(), a.height());
    let mut total = 0.0f64;
    let mut windows = 0u32;
    let mut wy = 0;
    while wy < h {
        let mut wx = 0;
        while wx < w {
            let x1 = (wx + WIN).min(w);
            let y1 = (wy + WIN).min(h);
            let n = ((x1 - wx) * (y1 - wy)) as f64;

            let (mut ma, mut mb) = (0.0f64, 0.0f64);
            for y in wy..y1 {
                for x in wx..x1 {
                    ma += luminance(a.get(x, y));
                    mb += luminance(b.get(x, y));
                }
            }
            ma /= n;
            mb /= n;

            let (mut va, mut vb, mut cov) = (0.0f64, 0.0f64, 0.0f64);
            for y in wy..y1 {
                for x in wx..x1 {
                    let da = luminance(a.get(x, y)) - ma;
                    let db = luminance(b.get(x, y)) - mb;
                    va += da * da;
                    vb += db * db;
                    cov += da * db;
                }
            }
            // Sample statistics (n-1 denominator, guarded for 1-px windows).
            let denom = (n - 1.0).max(1.0);
            va /= denom;
            vb /= denom;
            cov /= denom;

            let s = ((2.0 * ma * mb + C1) * (2.0 * cov + C2))
                / ((ma * ma + mb * mb + C1) * (va + vb + C2));
            total += s;
            windows += 1;
            wx += WIN;
        }
        wy += WIN;
    }
    (total / windows as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_image(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Vec3::new(
                x as f32 / w as f32,
                y as f32 / h as f32,
                (x + y) as f32 / (w + h) as f32,
            )
        })
    }

    #[test]
    fn identical_images_score_one() {
        let img = gradient_image(32, 32);
        let s = ssim(&img, &img);
        assert!((s - 1.0).abs() < 1e-6, "ssim {s}");
    }

    #[test]
    fn structural_noise_lowers_ssim() {
        let a = gradient_image(32, 32);
        let mut noisy = a.clone();
        for (i, p) in noisy.pixels_mut().iter_mut().enumerate() {
            let n = if i % 2 == 0 { 0.15 } else { -0.15 };
            *p = (*p + Vec3::splat(n)).clamp(0.0, 1.0);
        }
        let s = ssim(&a, &noisy);
        assert!(s < 0.95, "noisy ssim {s} should drop");
        assert!(s > -1.0);
    }

    #[test]
    fn worse_corruption_scores_lower() {
        let a = gradient_image(40, 40);
        let corrupt = |amp: f32| {
            let mut img = a.clone();
            for (i, p) in img.pixels_mut().iter_mut().enumerate() {
                let n = if (i / 3) % 2 == 0 { amp } else { -amp };
                *p = (*p + Vec3::splat(n)).clamp(0.0, 1.0);
            }
            img
        };
        let mild = ssim(&a, &corrupt(0.05));
        let harsh = ssim(&a, &corrupt(0.3));
        assert!(mild > harsh, "mild {mild} vs harsh {harsh}");
    }

    #[test]
    fn constant_images_compare_by_mean() {
        let a = RgbImage::from_fn(16, 16, |_, _| Vec3::splat(0.5));
        let b = RgbImage::from_fn(16, 16, |_, _| Vec3::splat(0.5));
        assert!((ssim(&a, &b) - 1.0).abs() < 1e-6);
        let c = RgbImage::from_fn(16, 16, |_, _| Vec3::splat(0.9));
        assert!(ssim(&a, &c) < 1.0);
    }

    #[test]
    fn handles_non_multiple_of_window_sizes() {
        let a = gradient_image(19, 13);
        let s = ssim(&a, &a);
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let a = gradient_image(8, 8);
        let b = gradient_image(9, 8);
        let _ = ssim(&a, &b);
    }

    // Knife-edge pins: the metric must be exact and finite on the
    // degenerate inputs small eval renders can hit.

    #[test]
    fn one_by_one_image_is_a_single_partial_window() {
        // A 1×1 image exercises the (n−1)→1 variance guard: identical
        // pixels must score exactly 1, different ones strictly less,
        // and nothing may divide by zero.
        let a = RgbImage::from_fn(1, 1, |_, _| Vec3::splat(0.3));
        let s = ssim(&a, &a);
        assert!((s - 1.0).abs() < 1e-6, "1×1 self ssim {s}");
        let b = RgbImage::from_fn(1, 1, |_, _| Vec3::splat(0.8));
        let s = ssim(&a, &b);
        assert!(s.is_finite() && s < 1.0, "1×1 cross ssim {s}");
    }

    #[test]
    fn signed_zero_pixels_score_like_positive_zero() {
        // IEEE −0.0 luminances flow through means and covariances; the
        // C1/C2 stabilisers must absorb them (no NaN, exact 1 for
        // structurally identical all-zero images).
        let pos = RgbImage::from_fn(8, 8, |_, _| Vec3::splat(0.0));
        let neg = RgbImage::from_fn(8, 8, |_, _| Vec3::splat(-0.0));
        let s = ssim(&pos, &neg);
        assert!((s - 1.0).abs() < 1e-6, "±0 ssim {s}");
        assert!(ssim(&neg, &neg).is_finite());
    }

    #[test]
    fn constant_black_vs_white_hits_the_c1_floor() {
        // Zero variance on both sides: SSIM reduces to the luminance
        // term (2·ma·mb + C1)/(ma² + mb² + C1) = C1/(1 + C1) for
        // black vs white — pin the closed form.
        let black = RgbImage::from_fn(16, 16, |_, _| Vec3::ZERO);
        let white = RgbImage::from_fn(16, 16, |_, _| Vec3::splat(1.0));
        let s = ssim(&black, &white);
        let expect = (C1 / (1.0 + C1)) as f32;
        assert!(
            (s - expect).abs() < 1e-6,
            "black/white ssim {s} vs {expect}"
        );
    }

    #[test]
    fn single_row_and_column_partial_windows() {
        // 9×1 and 1×9: one full-width partial window plus a 1-px
        // remainder — both dimensions' border handling at once.
        for (w, h) in [(9u32, 1u32), (1, 9), (7, 7)] {
            let a = gradient_image(w, h);
            let s = ssim(&a, &a);
            assert!((s - 1.0).abs() < 1e-6, "{w}×{h} self ssim {s}");
        }
    }
}
