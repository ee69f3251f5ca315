//! The Adam optimizer, as used by Instant-NGP for both the hash grids and
//! the MLP heads.
//!
//! Instant-NGP uses β₁ = 0.9, β₂ = 0.99 and a very small ε (1e-15) so tiny
//! grid gradients still move; those are the defaults here.
//!
//! The update is written without fused multiply-adds and with real
//! divisions in all three entry points. The two sparse ones serve the
//! hash grids, whose parameters are [`F16`]s: the sparse step's
//! per-element update and the consuming sweep's branch-free lane widen the
//! parameter, write the same expression tree and narrow the result back to
//! fp16, and the golden suites pin their bits equal.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::fp16::{self, F16};
use crate::kernels::consume_sweep;

/// Adam hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator stabiliser.
    pub eps: f32,
    /// L2 weight decay (0 to disable).
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-15,
            weight_decay: 0.0,
        }
    }
}

impl AdamConfig {
    /// Instant-NGP's grid optimizer settings (higher lr for the hash table).
    pub fn for_grid() -> Self {
        AdamConfig {
            lr: 1e-1,
            ..AdamConfig::default()
        }
    }

    /// Instant-NGP's MLP optimizer settings.
    pub fn for_mlp() -> Self {
        AdamConfig {
            lr: 1e-2,
            weight_decay: 1e-6,
            ..AdamConfig::default()
        }
    }
}

/// Adam state (first/second moments) for one flat parameter vector.
///
/// # Example
///
/// ```
/// use instant3d_nerf::adam::{Adam, AdamConfig};
/// let mut opt = Adam::new(AdamConfig::default(), 2);
/// let mut params = vec![1.0_f32, -1.0];
/// // Gradient of L = 0.5‖p‖² is p itself: descending shrinks the params.
/// for _ in 0..100 {
///     let grads = params.clone();
///     opt.step(&mut params, &grads);
/// }
/// assert!(params.iter().all(|p| p.abs() < 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates optimizer state for `num_params` scalars.
    pub fn new(cfg: AdamConfig, num_params: usize) -> Self {
        Adam {
            cfg,
            m: vec![0.0; num_params],
            v: vec![0.0; num_params],
            t: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moment estimates, one per parameter.
    pub fn moments(&self) -> (&[f32], &[f32]) {
        (&self.m, &self.v)
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.cfg.lr = lr;
    }

    /// Applies one Adam update.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` don't match the state size.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        self.t += 1;
        let b1 = self.cfg.beta1;
        let b2 = self.cfg.beta2;
        let bias1 = 1.0 - b1.powi(self.t as i32);
        let bias2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..params.len() {
            let mut g = grads[i];
            if self.cfg.weight_decay != 0.0 {
                g += self.cfg.weight_decay * params[i];
            }
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let m_hat = self.m[i] / bias1;
            let v_hat = self.v[i] / bias2;
            params[i] -= self.cfg.lr * m_hat / (v_hat.sqrt() + self.cfg.eps);
        }
    }

    /// Sparse variant for an fp16 hash grid: updates only the listed
    /// indices, each narrowed back to fp16 (most table entries receive no
    /// gradient in an iteration).
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grads` don't match the state size, or if any
    /// index is out of range.
    pub(crate) fn step_sparse(&mut self, params: &mut [F16], grads: &[f32], touched: &[usize]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        self.t += 1;
        let k = self.sparse_update(self.t);
        for &i in touched {
            k.apply(&mut params[i], &mut self.m[i], &mut self.v[i], grads[i]);
        }
    }

    /// The per-element update of the sparse entry points at step `t`.
    pub(crate) fn sparse_update(&self, t: u64) -> SparseUpdate {
        SparseUpdate {
            lr: self.cfg.lr,
            b1: self.cfg.beta1,
            b2: self.cfg.beta2,
            eps: self.cfg.eps,
            bias1: 1.0 - self.cfg.beta1.powi(t as i32),
            bias2: 1.0 - self.cfg.beta2.powi(t as i32),
        }
    }

    /// Consuming variant of [`Adam::step_sparse`] for a level-major table:
    /// one pass over `params`, the moments and `grads` that updates every
    /// element whose gradient is `!= 0.0` (so `-0.0` is skipped and NaN is
    /// applied) exactly as `step_sparse` would, fp16 narrowing included, and
    /// leaves every gradient `+0.0`. Level `l` is `cuts[l]..cuts[l + 1]`;
    /// the levels are swept in order on the calling thread, and
    /// `level_touched(l)` is called for each level that held a non-zero
    /// gradient. The step counter advances once, and only if some level
    /// was touched; returns whether it did.
    ///
    /// # Panics
    ///
    /// Panics if `params` or `grads` don't match the state size or `cuts`
    /// is not an ascending partition of it.
    pub(crate) fn step_consuming(
        &mut self,
        params: &mut [F16],
        grads: &mut [f32],
        cuts: &[usize],
        mut level_touched: impl FnMut(usize),
    ) -> bool {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        assert!(
            cuts.first() == Some(&0) && cuts.last() == Some(&params.len()),
            "level cuts must span the table"
        );
        self.step_with(|k, m, v| {
            let mut any = false;
            for (l, w) in cuts.windows(2).enumerate() {
                let r = w[0]..w[1];
                let (p, g) = (&mut params[r.clone()], &mut grads[r.clone()]);
                if consume_sweep(k, p, &mut m[r.clone()], &mut v[r], g) {
                    level_touched(l);
                    any = true;
                }
            }
            any
        })
    }

    /// One consuming step whose sweep the caller runs: `sweep` gets the
    /// per-element update of the step this call may take (`t + 1`) and both
    /// moments, and returns whether it saw a non-zero gradient. The step
    /// counter advances only then; returns whether it did.
    pub(crate) fn step_with(
        &mut self,
        sweep: impl FnOnce(&SparseUpdate, &mut [f32], &mut [f32]) -> bool,
    ) -> bool {
        // The bias corrections belong to the step this call takes if it
        // takes one; `t` itself moves only once a gradient was seen.
        let k = self.sparse_update(self.t + 1);
        let stepped = sweep(&k, &mut self.m, &mut self.v);
        if stepped {
            self.t += 1;
        }
        stepped
    }
}

/// One step's constants for the sparse entry points.
#[derive(Clone, Copy)]
pub(crate) struct SparseUpdate {
    lr: f32,
    b1: f32,
    b2: f32,
    eps: f32,
    bias1: f32,
    bias2: f32,
}

impl SparseUpdate {
    /// Adam on one element: the parameter widened through
    /// [`F16::to_f32`], the result narrowed through [`F16::from_f32`]. The
    /// expression tree is the pinned one: two roundings per multiply-add,
    /// real divisions, no reciprocal.
    #[inline(always)]
    pub(crate) fn apply(&self, p: &mut F16, m: &mut f32, v: &mut f32, g: f32) {
        *m = self.b1 * *m + (1.0 - self.b1) * g;
        *v = self.b2 * *v + (1.0 - self.b2) * g * g;
        let m_hat = *m / self.bias1;
        let v_hat = *v / self.bias2;
        *p = F16::from_f32(p.to_f32() - self.lr * m_hat / (v_hat.sqrt() + self.eps));
    }

    /// [`SparseUpdate::apply`] without a branch: the same expression tree
    /// computed whatever `g` is, the parameter widened through
    /// [`fp16::widen_branch_free`] and narrowed through
    /// [`fp16::narrow_branch_free`], and the old `p`, `m`, `v` bits
    /// selected back by mask where `g == 0.0` (so `-0.0` is skipped and NaN
    /// is applied). Returns the new `(p, m, v)`.
    #[inline(always)]
    fn lane(&self, p: F16, m: f32, v: f32, g: f32) -> (F16, f32, f32) {
        let m_new = self.b1 * m + (1.0 - self.b1) * g;
        let v_new = self.b2 * v + (1.0 - self.b2) * g * g;
        let m_hat = m_new / self.bias1;
        let v_hat = v_new / self.bias2;
        let step = self.lr * m_hat / (v_hat.sqrt() + self.eps);
        let p_new = fp16::narrow_branch_free(fp16::widen_branch_free(p) - step);
        // All ones where the element keeps its old value.
        let keep = u32::from(g != 0.0).wrapping_sub(1);
        let pick = |new: u32, old: u32| new & !keep | old & keep;
        let pick_f32 = |new: f32, old: f32| f32::from_bits(pick(new.to_bits(), old.to_bits()));
        let p = F16(pick(u32::from(p_new.0), u32::from(p.0)) as u16);
        (p, pick_f32(m_new, m), pick_f32(v_new, v))
    }

    /// Applies and clears one level's gradients; true if any was non-zero.
    ///
    /// Bit-identical to calling [`SparseUpdate::apply`] on every element
    /// whose gradient is `!= 0.0` and then zeroing the run, but with no
    /// branch on the data: eight lanes at a time through
    /// [`SparseUpdate::lane`], whose select, exact division and exact
    /// square root vectorise, then the `len % 8` tail through the same
    /// expression. Every gradient is written `+0.0`, so a skipped `-0.0`
    /// reads `+0.0` afterwards. The `simd` dispatch macro compiles this
    /// body in an AVX2 arm too (`kernels::consume_sweep`).
    #[inline(always)]
    pub(crate) fn consume(
        &self,
        p: &mut [F16],
        m: &mut [f32],
        v: &mut [f32],
        g: &mut [f32],
    ) -> bool {
        const LANES: usize = 8;
        let n = p.len();
        let (m, v, g) = (&mut m[..n], &mut v[..n], &mut g[..n]);
        let (p8, p_tail) = p.as_chunks_mut::<LANES>();
        let (m8, m_tail) = m.as_chunks_mut::<LANES>();
        let (v8, v_tail) = v.as_chunks_mut::<LANES>();
        let (g8, g_tail) = g.as_chunks_mut::<LANES>();
        let mut touched = [false; LANES];
        for (((p, m), v), g) in p8.iter_mut().zip(m8).zip(v8).zip(g8) {
            for k in 0..LANES {
                (p[k], m[k], v[k]) = self.lane(p[k], m[k], v[k], g[k]);
                touched[k] |= g[k] != 0.0;
            }
            *g = [0.0; LANES];
        }
        let mut any = touched.contains(&true);
        for (((p, m), v), g) in p_tail.iter_mut().zip(m_tail).zip(v_tail).zip(g_tail) {
            (*p, *m, *v) = self.lane(*p, *m, *v, *g);
            any |= *g != 0.0;
            *g = 0.0;
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic() {
        // Minimise (p - 3)²; gradient 2(p - 3).
        let mut opt = Adam::new(
            AdamConfig {
                lr: 0.1,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * (p[0] - 3.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 3.0).abs() < 1e-2, "converged to {}", p[0]);
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // Adam's bias correction makes the first step ≈ lr × sign(g).
        let mut opt = Adam::new(
            AdamConfig {
                lr: 0.5,
                eps: 1e-15,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1e-3]);
        assert!((p[0] + 0.5).abs() < 1e-3, "step was {}", p[0]);
    }

    #[test]
    fn zero_gradient_is_a_fixed_point() {
        let mut opt = Adam::new(AdamConfig::default(), 3);
        let mut p = vec![1.0, 2.0, 3.0];
        let before = p.clone();
        opt.step(&mut p, &[0.0, 0.0, 0.0]);
        assert_eq!(p, before);
    }

    #[test]
    fn sparse_step_only_touches_listed_indices() {
        let mut opt = Adam::new(AdamConfig::default(), 4);
        let mut p = vec![F16::ONE; 4];
        let g = vec![1.0f32; 4];
        opt.step_sparse(&mut p, &g, &[1, 3]);
        assert_eq!(p[0], F16::ONE);
        assert_eq!(p[2], F16::ONE);
        assert!(p[1].to_f32() < 1.0);
        assert!(p[3].to_f32() < 1.0);
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let mut opt = Adam::new(
            AdamConfig {
                lr: 0.01,
                weight_decay: 0.1,
                ..AdamConfig::default()
            },
            1,
        );
        let mut p = vec![5.0f32];
        for _ in 0..50 {
            opt.step(&mut p, &[0.0]);
        }
        assert!(p[0] < 5.0);
    }

    #[test]
    fn step_counter_advances() {
        let mut opt = Adam::new(AdamConfig::default(), 1);
        assert_eq!(opt.steps(), 0);
        opt.step(&mut [0.0], &[1.0]);
        opt.step_sparse(&mut [F16::ZERO], &[1.0], &[0]);
        assert_eq!(opt.steps(), 2);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let mut opt = Adam::new(AdamConfig::default(), 2);
        opt.step(&mut [0.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "grad count mismatch")]
    fn sparse_step_short_grads_panics() {
        // The touched index is inside the short slice, so only the length
        // check can object.
        let mut opt = Adam::new(AdamConfig::default(), 4);
        opt.step_sparse(&mut [F16::ZERO; 4], &[1.0; 2], &[0]);
    }

    #[test]
    #[should_panic(expected = "grad count mismatch")]
    fn consuming_step_short_grads_panics() {
        let mut opt = Adam::new(AdamConfig::default(), 4);
        opt.step_consuming(&mut [F16::ZERO; 4], &mut [1.0; 2], &[0, 4], |_| {});
    }
}
