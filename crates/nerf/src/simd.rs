//! Portable fixed-width SIMD lane types.
//!
//! The hot kernels of this crate — hash-grid encode/scatter
//! ([`crate::grid`]), the 64-wide MLP sweeps ([`crate::mlp`]) and per-ray
//! compositing ([`crate::render`]) — exist in interchangeable
//! implementations dispatched through the open backend API
//! ([`crate::kernels`]): the scalar reference kernels, and lane-batched
//! SIMD kernels built on the [`F32x8`] type below.
//!
//! # The additive-order / no-FMA contract
//!
//! **Every backend produces bit-identical results.** The SIMD
//! kernels are written so that, for each output scalar, the exact sequence
//! of IEEE 754 operations — including the order of every addition — is the
//! same as in the scalar reference kernel. Concretely:
//!
//! * Lanes are only ever used to batch *independent* scalars (different
//!   points, different output neurons, different parameters). No kernel
//!   reduces *across* lanes, which would reassociate a sum.
//! * Every multiply-add is performed as a distinct IEEE multiply followed
//!   by a distinct IEEE add — **never** a fused multiply-add. An FMA keeps
//!   the infinitely-precise product and rounds once, so `fma(a, b, c) !=
//!   a*b + c` in general; using it would silently break the contract.
//!   The crate's `clippy.toml` disallows `f32::mul_add` outright, and the
//!   lane type offers no fused operation.
//! * Lane arithmetic (`+`, `-`, `*`, `min`, `max`, `floor`) is exact
//!   per-lane IEEE 754 — identical to the corresponding `f32` operator on
//!   that lane's value. Division and square root may run on lanes too,
//!   because `divps` / `sqrtps` are correctly rounded like `f32`'s `/` and
//!   `sqrt`; their approximate forms (`rcpps`, `rsqrtps`, a
//!   Newton-refined reciprocal) and vector exp are never used, and
//!   transcendentals stay scalar per lane.
//!
//! These properties are pinned by the differential suite
//! (`crates/nerf/tests/simd_differential.rs`) which asserts bit-equality
//! of every kernel against its scalar reference over remainder tails,
//! empty batches and adversarial fp16 table contents — and which runs
//! generically over every backend registered in [`crate::kernels`], so a
//! registered third-party backend is held to the same contract.
//!
//! # One lane body per seam
//!
//! The lane-batched grid encode, grid scatter and compositing bodies and
//! the three register-tiled MLP sweeps (forward rows, parameter-gradient
//! rows, input gradient) are each written **once**, `#[inline(always)]`,
//! and every accumulate in them is the scalar reference's `acc + w * x`:
//! two roundings. The hash-grid optimizer tail (`adam::SparseUpdate::consume`)
//! is a lane body of the same kind on plain eight-element arrays: the
//! Adam expression tree with real divisions and an exact square root on
//! every lane, a branch-free fp16 widen and narrow of the parameter, and
//! a select on `g != 0.0`.
//!
//! # Implementation notes
//!
//! [`F32x8`] is a plain aligned array with `#[inline(always)]`
//! elementwise operators, one element loop per operator on every target —
//! a form stable rustc autovectorizes without intrinsics or `unsafe`. Each
//! lane's operation is the `f32` operator itself, so the contract above
//! holds by construction.
//!
//! The kernel bodies are always inlined into their callers, the `simd`
//! backend's `#[target_feature]` wrappers, stamped by one dispatch macro
//! in [`crate::kernels`] that enables AVX2 and nothing else. The portable
//! arm compiles an operator to two four-lane SSE ops; inside an AVX2 arm
//! it is one eight-lane `%ymm` op — either way one exact IEEE operation
//! per lane. Rust never contracts `a * b + c` into a fused multiply-add on
//! its own, and an arm without FMA has nothing to contract into, so the
//! AVX2 arm has the portable arm's bits.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Eight `f32` lanes, 32-byte aligned.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct F32x8(pub [f32; 8]);

impl F32x8 {
    /// Lane count.
    pub const LANES: usize = 8;
    /// All lanes zero.
    pub const ZERO: F32x8 = F32x8([0.0; 8]);

    /// Broadcasts one value to every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> F32x8 {
        F32x8([v; 8])
    }

    /// Loads lanes from the first 8 elements of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is shorter than the lane count.
    #[inline(always)]
    pub fn from_slice(s: &[f32]) -> F32x8 {
        let mut v = [0.0f32; 8];
        v.copy_from_slice(&s[..8]);
        F32x8(v)
    }

    /// Per-lane `f32::floor` (exact, same as the scalar kernel).
    #[inline(always)]
    pub fn floor(self) -> F32x8 {
        let mut v = self.0;
        for x in &mut v {
            *x = x.floor();
        }
        F32x8(v)
    }

    /// Per-lane `f32::clamp(lo, hi)` — bitwise identical to the
    /// scalar kernels' clamp for the finite inputs they handle.
    #[inline(always)]
    pub fn clamp(self, lo: f32, hi: f32) -> F32x8 {
        let mut v = self.0;
        for x in &mut v {
            *x = x.clamp(lo, hi);
        }
        F32x8(v)
    }
}

impl std::ops::Index<usize> for F32x8 {
    type Output = f32;
    #[inline(always)]
    fn index(&self, i: usize) -> &f32 {
        &self.0[i]
    }
}

impl std::ops::AddAssign for F32x8 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: F32x8) {
        *self = *self + rhs;
    }
}

impl std::ops::MulAssign for F32x8 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: F32x8) {
        *self = *self * rhs;
    }
}

macro_rules! f32x8_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F32x8 {
            type Output = F32x8;
            #[inline(always)]
            fn $method(self, rhs: F32x8) -> F32x8 {
                let mut v = self.0;
                for (x, y) in v.iter_mut().zip(&rhs.0) {
                    *x $op *y;
                }
                F32x8(v)
            }
        }
    };
}

f32x8_binop!(Add, add, +=);
f32x8_binop!(Sub, sub, -=);
f32x8_binop!(Mul, mul, *=);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_ops_match_scalar_ops_bitwise() {
        // Lanes 0..4 and 4..8 are the two halves of the portable arm's
        // four-lane ops.
        let a = [1.5f32, -0.25, 3.207_18e-3, 65504.0, -2.5, 0.1, 7.0, -0.0];
        let b = [0.3f32, 123.456, -9.87, 2.0e-4, 0.5, -0.1, 3.0, 4.0];
        let va = F32x8::from_slice(&a);
        let vb = F32x8::from_slice(&b);
        for k in 0..8 {
            assert_eq!((va + vb)[k].to_bits(), (a[k] + b[k]).to_bits());
            assert_eq!((va - vb)[k].to_bits(), (a[k] - b[k]).to_bits());
            assert_eq!((va * vb)[k].to_bits(), (a[k] * b[k]).to_bits());
        }
    }

    #[test]
    fn floor_and_clamp_match_scalar() {
        let a = [1.5f32, -0.25, 0.999_999, 4.0, -2.5, 0.0, 17.3, 1e-7];
        let v = F32x8::from_slice(&a);
        for k in 0..8 {
            assert_eq!(v.floor()[k].to_bits(), a[k].floor().to_bits());
            let c = v.clamp(0.0, 1.0 - 1e-6);
            assert_eq!(c[k].to_bits(), a[k].clamp(0.0, 1.0 - 1e-6).to_bits());
        }
    }

    #[test]
    fn splat_store_roundtrip() {
        assert_eq!(F32x8::splat(2.5).0, [2.5; 8]);
        let mut acc = F32x8::ZERO;
        acc += F32x8::splat(1.0);
        acc *= F32x8::splat(3.0);
        assert_eq!(acc.0, [3.0; 8]);
    }

    #[test]
    fn no_fma_in_mul_then_add() {
        // If a fused multiply-add ever sneaks in, this catches it:
        // (1+ε)(1−ε) − 1 is exactly −ε² rounded once, but 0 when the
        // product is rounded before the add.
        let a = 1.0 + f32::EPSILON;
        let b = 1.0 - f32::EPSILON;
        let c = -1.0f32;
        let scalar = a * b + c;
        let lanes = F32x8::splat(a) * F32x8::splat(b) + F32x8::splat(c);
        let fused = -(f32::EPSILON * f32::EPSILON);
        assert_ne!(scalar.to_bits(), fused.to_bits(), "test inputs degenerate");
        for k in 0..8 {
            assert_eq!(lanes[k].to_bits(), scalar.to_bits());
        }
    }
}
