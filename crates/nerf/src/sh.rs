//! Real spherical-harmonics direction encoding.
//!
//! Instant-NGP (and therefore the paper's Step ③-②) feeds the view direction
//! to the color MLP as the first 16 real SH basis values (degree 4). The
//! basis is evaluated on unit direction vectors.

use crate::math::Vec3;

/// Number of basis functions for SH up to (and excluding) `degree`.
pub const fn sh_basis_size(degree: usize) -> usize {
    degree * degree
}

/// Evaluates the first `degree²` real SH basis functions at unit direction
/// `d`, writing into `out`.
///
/// Supports degrees 1..=4 (1, 4, 9 or 16 outputs) — degree 4 is what
/// Instant-NGP uses.
///
/// # Panics
///
/// Panics if `degree` is 0 or greater than 4, or if
/// `out.len() != degree * degree`.
pub fn sh_encode_into(d: Vec3, degree: usize, out: &mut [f32]) {
    assert!((1..=4).contains(&degree), "supported SH degrees: 1..=4");
    assert_eq!(
        out.len(),
        sh_basis_size(degree),
        "output buffer size mismatch"
    );
    let (x, y, z) = (d.x, d.y, d.z);

    out[0] = 0.282_094_79; // l=0
    if degree == 1 {
        return;
    }
    out[1] = -0.488_602_51 * y;
    out[2] = 0.488_602_51 * z;
    out[3] = -0.488_602_51 * x;
    if degree == 2 {
        return;
    }
    let (xx, yy, zz) = (x * x, y * y, z * z);
    let (xy, yz, xz) = (x * y, y * z, x * z);
    out[4] = 1.092_548_4 * xy;
    out[5] = -1.092_548_4 * yz;
    out[6] = 0.315_391_57 * (3.0 * zz - 1.0);
    out[7] = -1.092_548_4 * xz;
    out[8] = 0.546_274_2 * (xx - yy);
    if degree == 3 {
        return;
    }
    out[9] = -0.590_043_6 * y * (3.0 * xx - yy);
    out[10] = 2.890_611_4 * xy * z;
    out[11] = -0.457_045_8 * y * (5.0 * zz - 1.0);
    out[12] = 0.373_176_33 * z * (5.0 * zz - 3.0);
    out[13] = -0.457_045_8 * x * (5.0 * zz - 1.0);
    out[14] = 1.445_305_7 * z * (xx - yy);
    out[15] = -0.590_043_6 * x * (xx - 3.0 * yy);
}

/// Allocating convenience wrapper around [`sh_encode_into`].
pub fn sh_encode(d: Vec3, degree: usize) -> Vec<f32> {
    let mut out = vec![0.0; sh_basis_size(degree)];
    sh_encode_into(d, degree, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere_samples(n: usize) -> Vec<Vec3> {
        // Fibonacci sphere — deterministic, reasonably uniform.
        let golden = std::f32::consts::PI * (3.0 - 5f32.sqrt());
        (0..n)
            .map(|i| {
                let y = 1.0 - 2.0 * (i as f32 + 0.5) / n as f32;
                let r = (1.0 - y * y).sqrt();
                let th = golden * i as f32;
                Vec3::new(r * th.cos(), y, r * th.sin())
            })
            .collect()
    }

    #[test]
    fn basis_sizes() {
        assert_eq!(sh_basis_size(1), 1);
        assert_eq!(sh_basis_size(2), 4);
        assert_eq!(sh_basis_size(3), 9);
        assert_eq!(sh_basis_size(4), 16);
    }

    #[test]
    fn degree_prefixes_agree() {
        let d = Vec3::new(0.3, -0.5, 0.8).normalized();
        let full = sh_encode(d, 4);
        for deg in 1..=3 {
            let partial = sh_encode(d, deg);
            assert_eq!(&full[..partial.len()], &partial[..]);
        }
    }

    #[test]
    fn dc_term_is_constant() {
        for d in sphere_samples(50) {
            assert_eq!(sh_encode(d, 1)[0], 0.282_094_79);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop, reason = "symmetric Gram-matrix indexing")]
    fn basis_is_orthonormal_under_sphere_integration() {
        // Monte-Carlo check: ∫ Y_i Y_j dΩ ≈ δ_ij. With a Fibonacci sphere
        // the quadrature weight is 4π/n per sample.
        let samples = sphere_samples(20_000);
        let w = 4.0 * std::f32::consts::PI / samples.len() as f32;
        let mut gram = [[0f32; 16]; 16];
        for d in &samples {
            let y = sh_encode(*d, 4);
            for i in 0..16 {
                for j in i..16 {
                    gram[i][j] += w * y[i] * y[j];
                }
            }
        }
        for i in 0..16 {
            assert!((gram[i][i] - 1.0).abs() < 0.05, "diag {i}: {}", gram[i][i]);
            for j in (i + 1)..16 {
                assert!(
                    gram[i][j].abs() < 0.05,
                    "off-diag ({i},{j}): {}",
                    gram[i][j]
                );
            }
        }
    }

    #[test]
    fn parity_symmetry() {
        // Y_l(-d) = (-1)^l Y_l(d): degree-1 (l=1) terms flip sign.
        let d = Vec3::new(0.6, 0.48, 0.64).normalized();
        let plus = sh_encode(d, 2);
        let minus = sh_encode(-d, 2);
        assert_eq!(plus[0], minus[0]);
        for k in 1..4 {
            assert!((plus[k] + minus[k]).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic]
    fn degree_zero_panics() {
        let _ = sh_encode(Vec3::X, 0);
    }

    #[test]
    #[should_panic]
    fn degree_five_panics() {
        let _ = sh_encode(Vec3::X, 5);
    }
}
