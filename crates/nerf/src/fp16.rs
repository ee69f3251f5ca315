//! Software half-precision (IEEE 754 binary16) storage.
//!
//! The Instant-3D accelerator uses "16-bit half-precision floating-point
//! arithmetic for all algorithm-related computations" (§5.1). The hash-grid
//! feature tables in this reproduction are therefore *stored* as [`F16`]
//! (`HashGrid::params` is a `[F16]`, 2 bytes per feature) and widened to
//! `f32` for arithmetic, mirroring fp16 multiply / f32 accumulate hardware.
//! Conversion uses round-to-nearest-even, the IEEE default, with one pinned
//! exception below the subnormal range (see [`F16::from_f32`]).
//!
//! The grid's lane bodies convert without branches: the encode gather
//! widens through `widen_branch_free` (equal to [`F16::to_f32`] on all 2^16
//! patterns) and the optimizer narrows through `narrow_branch_free` (equal
//! to [`F16::from_f32`] on all 2^32 inputs), both integer and `f32`
//! operations plus selects that vectorise eight lanes side by side. Neither
//! uses F16C: its narrowing rounds below the subnormal range differently,
//! and the exhaustive tests pin both directions.

/// A 16-bit IEEE 754 binary16 value stored as its raw bit pattern.
///
/// # Example
///
/// ```
/// use instant3d_nerf::fp16::F16;
/// let h = F16::from_f32(1.0);
/// assert_eq!(h.to_f32(), 1.0);
/// // fp16 has ~3 decimal digits: 0.1 is not exactly representable.
/// let tenth = F16::from_f32(0.1).to_f32();
/// assert!((tenth - 0.1).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite fp16 value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal fp16 value (2^-14).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);

    /// Converts from `f32` with round-to-nearest-even.
    ///
    /// Values above the fp16 range become ±infinity, and magnitudes in
    /// `[2^-24, 2^-14)` round to fp16 subnormals. Below that this is
    /// **not** IEEE: every magnitude under 2^-24 becomes a signed zero,
    /// where round-to-nearest-even takes the open interval
    /// `(2^-25, 2^-24)` up to 2^-24. That flush is the pinned behaviour:
    /// every stored grid table and checkpoint digest was produced through
    /// it, so it stays, and a hardware narrowing (F16C's `vcvtps2ph`,
    /// which rounds that interval up) cannot stand in for it.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf / NaN. Preserve NaN-ness with a quiet-NaN payload bit.
            let nan = if mant != 0 { 0x0200 } else { 0 };
            return F16(sign | 0x7C00 | nan);
        }

        // Re-bias exponent: f32 bias 127, f16 bias 15.
        let unbiased = exp - 127;
        if unbiased > 15 {
            // Overflow to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal range. Keep 10 mantissa bits, round-to-nearest-even.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_mant = (mant >> 13) as u16;
            let round_bit = (mant >> 12) & 1;
            let sticky = mant & 0x0FFF;
            let mut out = sign | half_exp | half_mant;
            if round_bit == 1 && (sticky != 0 || (half_mant & 1) == 1) {
                out = out.wrapping_add(1); // may carry into exponent: still correct
            }
            return F16(out);
        }
        if unbiased >= -24 {
            // Subnormal half. Shift the implicit leading 1 into the mantissa.
            let full_mant = mant | 0x0080_0000;
            let shift = (-unbiased - 14 + 13) as u32; // 13 base + extra
            let half_mant = (full_mant >> shift) as u16;
            let round_bit = (full_mant >> (shift - 1)) & 1;
            let sticky = full_mant & ((1u32 << (shift - 1)) - 1);
            let mut out = sign | half_mant;
            if round_bit == 1 && (sticky != 0 || (half_mant & 1) == 1) {
                out = out.wrapping_add(1);
            }
            return F16(out);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Widens to `f32` exactly (every fp16 value is representable in f32).
    pub fn to_f32(self) -> f32 {
        let sign = ((self.0 & 0x8000) as u32) << 16;
        let exp = ((self.0 >> 10) & 0x1F) as u32;
        let mant = (self.0 & 0x03FF) as u32;

        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalise.
                let mut e = 0i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                sign | (((e + 127 - 14) as u32) << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13) // inf / NaN
        } else {
            sign | ((exp + 127 - 15) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// True for NaN payloads.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }
}

impl From<f32> for F16 {
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Rounds an `f32` through fp16 and back: the quantisation the accelerator's
/// storage applies to every grid feature.
#[inline]
pub fn quantize(v: f32) -> f32 {
    F16::from_f32(v).to_f32()
}

/// [`F16::from_f32`] without a branch: the same bits for every `f32`
/// input, written as integer and `f32` operations plus selects so that
/// eight of them vectorise side by side in the grid optimizer's lane body.
///
/// On the magnitude bits `abs`: the fp16-normal range re-biases the
/// exponent from 127 to 15 and rounds the f32 mantissa to ten bits, ties
/// to even (a carry into the exponent is still the right answer), so a
/// rounded magnitude of 2^16 or more (or an infinite input) lands at or
/// above infinity's bits and saturates there; the fp16-subnormal range is
/// `|x| + 0.5` in f32, since 0.5's ulp is 2^-24, fp16's subnormal spacing,
/// which leaves the rounded count of 2^-24 units in the low mantissa bits;
/// magnitudes under 2^-24 flush to zero as [`F16::from_f32`] does; NaN
/// becomes the quiet NaN `F16::from_f32` makes. The sign is put back last.
#[inline(always)]
pub(crate) fn narrow_branch_free(v: f32) -> F16 {
    let bits = v.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    // Wraps below 2^-14, where it is not selected; saturates at infinity.
    let odd = (abs >> 13) & 1;
    let biased = abs.wrapping_sub(0x3800_0000 - 0x0FFF).wrapping_add(odd);
    let normal = (biased >> 13).min(0x7C00);
    // `|x| + 0.5` is at least 0.5: no underflow.
    let a = f32::from_bits(abs);
    let subnormal = (a + 0.5).to_bits() - 0x3F00_0000;
    // The ranges compare as `f32`s: one instruction per lane.
    let subnormal = if a < f32::from_bits(0x3380_0000) {
        0
    } else {
        subnormal
    };
    let magnitude = if a < f32::from_bits(0x3880_0000) {
        subnormal
    } else {
        normal
    };
    let magnitude = if a.is_nan() { 0x7E00 } else { magnitude };
    F16(((bits >> 16) & 0x8000 | magnitude) as u16)
}

/// [`F16::to_f32`] without a branch, so gathered table entries widen eight
/// lanes at a time in the grid's lane bodies. The exponent and mantissa
/// move up thirteen bits and the exponent is re-biased from 15 to 127,
/// which is the value for a normal; infinity and NaN re-bias once more,
/// which saturates the `f32` exponent and keeps the payload; zero and the
/// subnormals, `k` units of 2^-24, re-bias one step further to
/// `2^-14 + k·2^-24` and subtract 2^-14, exactly. The sign is put back
/// last.
#[inline(always)]
pub(crate) fn widen_branch_free(h: F16) -> f32 {
    let h = u32::from(h.0);
    let shifted = (h << 13) & 0x0FFF_E000;
    let normal = shifted + 0x3800_0000;
    let normal = normal
        + if shifted >= 0x0F80_0000 {
            0x3800_0000
        } else {
            0
        };
    let subnormal = f32::from_bits(normal + 0x0080_0000) - f32::from_bits(0x3880_0000);
    let magnitude = if shifted < 0x0080_0000 {
        subnormal.to_bits()
    } else {
        normal
    };
    f32::from_bits((h << 16) & 0x8000_0000 | magnitude)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let f = i as f32;
            assert_eq!(F16::from_f32(f).to_f32(), f, "integer {i} must be exact");
        }
    }

    #[test]
    fn powers_of_two_roundtrip() {
        for e in -14..=15 {
            let f = (2.0f32).powi(e);
            assert_eq!(F16::from_f32(f).to_f32(), f);
        }
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), (2.0f32).powi(-14));
        assert!(F16::INFINITY.to_f32().is_infinite());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert!(F16::from_f32(1e6).to_f32().is_infinite());
        assert!(F16::from_f32(-1e6).to_f32().is_infinite());
        assert!(F16::from_f32(-1e6).to_f32() < 0.0);
    }

    #[test]
    fn underflow_to_zero_preserves_sign() {
        let z = F16::from_f32(1e-10);
        assert_eq!(z.to_f32(), 0.0);
        let nz = F16::from_f32(-1e-10);
        assert_eq!(nz.to_f32(), 0.0);
        assert!(nz.to_f32().is_sign_negative());
    }

    #[test]
    fn subnormals_are_representable() {
        let tiny = (2.0f32).powi(-20); // subnormal in fp16
        let q = F16::from_f32(tiny).to_f32();
        assert_eq!(q, tiny, "power-of-two subnormal should be exact");
    }

    #[test]
    fn nan_propagates() {
        let h = F16::from_f32(f32::NAN);
        assert!(h.is_nan());
        assert!(h.to_f32().is_nan());
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next fp16 value
        // (1 + 2^-10); round-to-even picks 1.0 (even mantissa).
        let halfway = 1.0 + (2.0f32).powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Just above the halfway point must round up.
        let above = 1.0 + (2.0f32).powi(-11) + (2.0f32).powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + (2.0f32).powi(-10));
    }

    #[test]
    fn quantize_error_is_bounded() {
        // Relative error of fp16 rounding is at most 2^-11 in the normal range.
        let mut v = 0.001f32;
        while v < 1000.0 {
            let q = quantize(v);
            assert!(
                (q - v).abs() <= v * (2.0f32).powi(-11) * 1.0001,
                "v={v} q={q}"
            );
            v *= 1.37;
        }
    }

    #[test]
    fn below_the_smallest_subnormal_flushes_to_zero() {
        // IEEE round-to-nearest-even would take 1.5·2^-25 up to 2^-24
        // (and tie 2^-25 to zero); the pinned conversion flushes the whole
        // open interval (2^-25, 2^-24) to signed zero.
        let min_subnormal = (2.0f32).powi(-24);
        for (x, want) in [
            ((2.0f32).powi(-25), 0.0),
            (1.5 * (2.0f32).powi(-25), 0.0),
            (f32::from_bits(min_subnormal.to_bits() - 1), 0.0),
            (min_subnormal, min_subnormal),
        ] {
            for s in [1.0f32, -1.0] {
                let q = quantize(s * x);
                assert_eq!(q.to_bits(), (s * want).to_bits(), "{:e}", s * x);
            }
        }
    }

    fn assert_branch_free_matches(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            narrow_branch_free(x),
            F16::from_f32(x),
            "input {bits:#010x}"
        );
    }

    #[test]
    fn branch_free_round_matches_on_every_rounding_pattern() {
        // Every sign × f32 exponent × top ten mantissa bits (the fp16
        // mantissa in the normal range), crossed with patterns of the
        // thirteen bits below them: exact, sticky only, just under and at
        // the tie, just over it, all ones. In the fp16-subnormal range the
        // round bit sits inside the top ten, so the full sweep of those
        // with a zero or non-zero low part covers its ties and stickies.
        const LOW: [u32; 8] = [0, 1, 0x0800, 0x0FFF, 0x1000, 0x1001, 0x17FF, 0x1FFF];
        for sign in [0u32, 0x8000_0000] {
            for exp in 0..=0xFFu32 {
                for top in 0..1u32 << 10 {
                    for low in LOW {
                        assert_branch_free_matches(sign | exp << 23 | top << 13 | low);
                    }
                }
            }
        }
        for x in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY] {
            assert_branch_free_matches(x.to_bits());
        }
        for payload in [1u32, 0x1FFF, 0x2000, 0x0040_0000, 0x007F_FFFF] {
            assert_branch_free_matches(0x7F80_0000 | payload);
            assert_branch_free_matches(0xFF80_0000 | payload);
        }
    }

    /// All 2^32 inputs: tens of seconds in release, so debug builds skip
    /// it (CI runs it with `cargo test --release -p instant3d-nerf --lib
    /// fp16`).
    #[cfg(not(debug_assertions))]
    #[test]
    fn branch_free_round_matches_on_every_f32() {
        let mismatches = (0..=u32::MAX)
            .filter(|&b| {
                let x = f32::from_bits(b);
                narrow_branch_free(x) != F16::from_f32(x)
            })
            .count();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn branch_free_widen_matches_on_every_f16() {
        for b in 0..=u16::MAX {
            let h = F16(b);
            assert_eq!(
                widen_branch_free(h).to_bits(),
                h.to_f32().to_bits(),
                "input {b:#06x}"
            );
        }
    }

    #[test]
    fn roundtrip_is_idempotent() {
        for &v in &[0.1f32, 3.207_18, -2.936_12, 1e-3, 6e4] {
            let once = quantize(v);
            assert_eq!(quantize(once), once);
        }
    }
}
