//! Activation functions with analytic derivatives.
//!
//! The trainer uses ReLU in MLP hidden layers, a truncated exponential for
//! the density output (as in Instant-NGP) and the logistic sigmoid for RGB.

/// Activation kinds supported by [`crate::mlp::Mlp`] layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Identity.
    #[default]
    None,
    /// max(0, x).
    Relu,
    /// Logistic sigmoid, 1/(1+e^-x) — used for RGB outputs.
    Sigmoid,
    /// exp(x) clamped to a finite range — Instant-NGP's density activation.
    TruncExp,
    /// ln(1 + e^x) — a softer density activation used in ablations.
    Softplus,
}

/// Clamp bound for [`Activation::TruncExp`]: exp is evaluated on inputs
/// clamped to ±15, keeping fp16-friendly magnitudes (e^15 ≈ 3.3e6).
pub const TRUNC_EXP_BOUND: f32 = 15.0;

impl Activation {
    /// Applies the activation to `x`.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::None => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::TruncExp => x.clamp(-TRUNC_EXP_BOUND, TRUNC_EXP_BOUND).exp(),
            Activation::Softplus => {
                // Numerically stable: ln(1+e^x) = max(x,0) + ln(1+e^-|x|).
                x.max(0.0) + (-(x.abs())).exp().ln_1p()
            }
        }
    }

    /// Derivative dy/dx expressed in terms of the *pre-activation* input `x`
    /// and the already-computed output `y` (avoids recomputing exponentials).
    #[inline]
    pub fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::None => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::TruncExp => {
                if x.abs() >= TRUNC_EXP_BOUND {
                    0.0
                } else {
                    y
                }
            }
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Applies the activation to a slice in place.
    pub fn apply_slice(self, xs: &mut [f32]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }

    /// Multiplies each `d[j]` by `derivative(pre[j], y[j])` — bit for bit
    /// the reference `d *= self.derivative(x, y)`, with the match hoisted
    /// out of the element loop and the piecewise derivatives (ReLU,
    /// TruncExp) written as bit-mask selects of the factor, so no element
    /// takes a data-dependent branch. The factor is still multiplied in,
    /// `0.0` included, so an infinite or NaN `d` still yields NaN where the
    /// derivative is zero.
    #[inline(always)]
    pub(crate) fn scale_by_derivative(self, d: &mut [f32], pre: &[f32], y: &[f32]) {
        debug_assert!(d.len() == pre.len() && d.len() == y.len());
        let rows = d.iter_mut().zip(pre).zip(y);
        match self {
            Activation::None => {
                for ((d, _), _) in rows {
                    *d *= 1.0;
                }
            }
            Activation::Relu => {
                for ((d, &x), _) in rows {
                    *d *= select(x > 0.0, 1.0, 0.0);
                }
            }
            Activation::Sigmoid => {
                for ((d, _), &a) in rows {
                    *d *= a * (1.0 - a);
                }
            }
            Activation::TruncExp => {
                for ((d, &x), &a) in rows {
                    *d *= select(x.abs() >= TRUNC_EXP_BOUND, 0.0, a);
                }
            }
            Activation::Softplus => {
                for ((d, &x), _) in rows {
                    *d *= 1.0 / (1.0 + (-x).exp());
                }
            }
        }
    }
}

/// `if c { a } else { b }` as a bit mask — a lane select, never a branch.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    let mask = u32::from(c).wrapping_neg();
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_derivative(act: Activation, x: f32) {
        let eps = 1e-3;
        let y = act.apply(x);
        let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
        let an = act.derivative(x, y);
        assert!(
            (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
            "{act:?} at {x}: fd {fd} vs analytic {an}"
        );
    }

    #[test]
    fn derivatives_match_finite_difference() {
        for act in [
            Activation::None,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::TruncExp,
            Activation::Softplus,
        ] {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7, 3.0] {
                if act == Activation::Relu && x.abs() < 1e-2 {
                    continue; // kink
                }
                check_derivative(act, x);
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        assert_eq!(Activation::Sigmoid.apply(0.0), 0.5);
        assert!(Activation::Sigmoid.apply(10.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-10.0) < 0.001);
    }

    #[test]
    fn trunc_exp_saturates() {
        let big = Activation::TruncExp.apply(100.0);
        assert_eq!(big, TRUNC_EXP_BOUND.exp());
        // Gradient dies at the clamp.
        assert_eq!(Activation::TruncExp.derivative(100.0, big), 0.0);
    }

    #[test]
    fn softplus_is_positive_and_asymptotic() {
        assert!(Activation::Softplus.apply(-20.0) > 0.0);
        assert!(Activation::Softplus.apply(-20.0) < 1e-6);
        let x = 20.0;
        assert!((Activation::Softplus.apply(x) - x).abs() < 1e-6);
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let mut xs = vec![-1.0, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 0.0, 2.0]);
    }
}
