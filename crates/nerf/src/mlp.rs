//! Small fully-connected networks with hand-derived backpropagation
//! (Step ③-② of the pipeline).
//!
//! Instant-NGP replaces the vanilla-NeRF 10×256 MLP with tiny heads: a
//! density MLP (embedding → 64 → 16, first output = raw density) and a color
//! MLP (geometry features + SH(dir) → 64 → 64 → 3). These networks are small
//! enough that a straightforward cache-friendly implementation is fast; the
//! accelerator models them on a systolic array / multiplier-adder tree
//! (`instant3d-accel::mlp_unit`).
//!
//! The batched passes run three sweeps per layer — forward rows,
//! parameter-gradient rows, input gradient — and each is written twice
//! here: the hand-written unblocked scalar reference, and one four-wide
//! blocked body that the `simd` backend runs. Blocking over inputs, items
//! or output rows never reorders the sum that forms any one output, and
//! every accumulate is a distinct multiply then a distinct add (see
//! [`crate::simd`]), so the blocked body has the reference's bits.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::activation::Activation;
use crate::kernels::BackendHandle;
use rand::Rng;
use rayon::prelude::*;

/// Shape and activation of one dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSpec {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    /// Activation applied to the layer output.
    pub activation: Activation,
}

/// One dense layer: `y = act(W·x + b)` with `W` stored row-major
/// (`out_dim` rows × `in_dim` columns).
#[derive(Debug, Clone)]
pub struct Linear {
    spec: LayerSpec,
    w: Vec<f32>,
    b: Vec<f32>,
}

impl Linear {
    /// Creates a layer with He-uniform initialised weights and zero biases.
    pub fn new<R: Rng + ?Sized>(spec: LayerSpec, rng: &mut R) -> Self {
        let bound = (6.0 / spec.in_dim as f32).sqrt();
        let w = (0..spec.in_dim * spec.out_dim)
            .map(|_| rng.gen_range(-bound..=bound))
            .collect();
        Linear {
            spec,
            w,
            b: vec![0.0; spec.out_dim],
        }
    }

    /// Layer shape/activation.
    pub fn spec(&self) -> LayerSpec {
        self.spec
    }

    /// Number of trainable scalars (weights + biases).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Multiply-accumulate count of one forward evaluation.
    pub fn flops(&self) -> usize {
        2 * self.spec.in_dim * self.spec.out_dim
    }

    #[inline]
    fn forward_into(&self, x: &[f32], pre: &mut [f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.spec.in_dim);
        debug_assert_eq!(out.len(), self.spec.out_dim);
        for o in 0..self.spec.out_dim {
            let row = &self.w[o * self.spec.in_dim..(o + 1) * self.spec.in_dim];
            let mut acc = self.b[o];
            for (wi, xi) in row.iter().zip(x) {
                acc += wi * xi;
            }
            pre[o] = acc;
            out[o] = self.spec.activation.apply(acc);
        }
    }

    /// Writes the column-major transpose of `w` into `wt`
    /// (`wt[i * out_dim + o] = w[o * in_dim + i]`) — the layout the blocked
    /// forward sweep reads as contiguous output-neuron rows.
    fn fill_transposed(&self, wt: &mut Vec<f32>) {
        let (iw, ow) = (self.spec.in_dim, self.spec.out_dim);
        wt.resize(iw * ow, 0.0);
        for o in 0..ow {
            for i in 0..iw {
                wt[i * ow + o] = self.w[o * iw + i];
            }
        }
    }

    /// Reference forward rows for a chunk of items: one
    /// [`Linear::forward_into`] per item over the row-major weights (the
    /// transposed copy is unused).
    fn forward_rows_scalar(&self, _wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        let (iw, ow) = (self.spec.in_dim, self.spec.out_dim);
        for ((x, pre), y) in xc
            .chunks_exact(iw)
            .zip(prec.chunks_exact_mut(ow))
            .zip(yc.chunks_exact_mut(ow))
        {
            self.forward_into(x, pre, y);
        }
    }

    /// Blocked forward rows for a chunk of items, over the transposed
    /// weights `wt`: inputs are blocked four at a time so each `pre`
    /// element is loaded/stored once per four terms, and every sweep is a
    /// plain output-contiguous loop the compiler vectorizes. Each output
    /// still accumulates `b[o] + Σ_i w[o,i]·x[i]` in `i`-ascending order
    /// (the block boundary depends only on the layer shape), so it has
    /// [`Linear::forward_into`]'s bits.
    #[inline(always)]
    pub(crate) fn forward_rows(&self, wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        let (iw, ow) = (self.spec.in_dim, self.spec.out_dim);
        debug_assert_eq!(wt.len(), iw * ow);
        let full = iw - iw % 4;
        for ((x, pre), y) in xc
            .chunks_exact(iw)
            .zip(prec.chunks_exact_mut(ow))
            .zip(yc.chunks_exact_mut(ow))
        {
            pre.copy_from_slice(&self.b);
            let mut i = 0;
            while i < full {
                let (x0, x1, x2, x3) = (x[i], x[i + 1], x[i + 2], x[i + 3]);
                let r0 = &wt[i * ow..(i + 1) * ow];
                let r1 = &wt[(i + 1) * ow..(i + 2) * ow];
                let r2 = &wt[(i + 2) * ow..(i + 3) * ow];
                let r3 = &wt[(i + 3) * ow..(i + 4) * ow];
                for ((((p, &w0), &w1), &w2), &w3) in pre.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    let mut acc = *p + w0 * x0;
                    acc += w1 * x1;
                    acc += w2 * x2;
                    acc += w3 * x3;
                    *p = acc;
                }
                i += 4;
            }
            while i < iw {
                let xi = x[i];
                for (p, &w) in pre.iter_mut().zip(&wt[i * ow..(i + 1) * ow]) {
                    *p += w * xi;
                }
                i += 1;
            }
            for (y, p) in y.iter_mut().zip(pre.iter()) {
                *y = self.spec.activation.apply(*p);
            }
        }
    }
}

/// Reference parameter-gradient rows `o0..o0 + gb_rows.len()` of one layer
/// over every item (`x` is `n × iw`, `dz` is `n × ow`): item-outer, so each
/// parameter accumulates in item order.
fn grad_rows_scalar(
    x: &[f32],
    dz: &[f32],
    iw: usize,
    ow: usize,
    o0: usize,
    gw_rows: &mut [f32],
    gb_rows: &mut [f32],
) {
    for (xr, dzr) in x.chunks_exact(iw).zip(dz.chunks_exact(ow)) {
        let rows = gb_rows.iter_mut().zip(gw_rows.chunks_exact_mut(iw));
        for (j, (gb, grow)) in rows.enumerate() {
            let d = dzr[o0 + j];
            *gb += d;
            for (g, &xk) in grow.iter_mut().zip(xr) {
                *g += d * xk;
            }
        }
    }
}

/// Blocked parameter-gradient rows (same arguments as
/// [`grad_rows_scalar`]): items are blocked four at a time so each
/// gradient element is loaded/stored once per four terms. The chained
/// accumulate keeps the item-ascending order per parameter, the bias adds
/// are plain left-associated sums, and the block boundary depends only on
/// `n`, never on the row chunking — so it has the reference's bits at
/// any worker count.
#[inline(always)]
pub(crate) fn grad_rows(
    x: &[f32],
    dz: &[f32],
    iw: usize,
    ow: usize,
    o0: usize,
    gw_rows: &mut [f32],
    gb_rows: &mut [f32],
) {
    let n = x.len() / iw;
    let rows = gb_rows.len();
    let full = n - n % 4;
    let mut item = 0;
    while item < full {
        let x0 = &x[item * iw..(item + 1) * iw];
        let x1 = &x[(item + 1) * iw..(item + 2) * iw];
        let x2 = &x[(item + 2) * iw..(item + 3) * iw];
        let x3 = &x[(item + 3) * iw..(item + 4) * iw];
        let dz0 = &dz[item * ow..(item + 1) * ow];
        let dz1 = &dz[(item + 1) * ow..(item + 2) * ow];
        let dz2 = &dz[(item + 2) * ow..(item + 3) * ow];
        let dz3 = &dz[(item + 3) * ow..(item + 4) * ow];
        for j in 0..rows {
            let o = o0 + j;
            let (d0, d1, d2, d3) = (dz0[o], dz1[o], dz2[o], dz3[o]);
            gb_rows[j] = gb_rows[j] + d0 + d1 + d2 + d3;
            let grow = &mut gw_rows[j * iw..(j + 1) * iw];
            for ((((g, &a0), &a1), &a2), &a3) in grow.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
                let mut acc = *g + a0 * d0;
                acc += a1 * d1;
                acc += a2 * d2;
                acc += a3 * d3;
                *g = acc;
            }
        }
        item += 4;
    }
    while item < n {
        let xr = &x[item * iw..(item + 1) * iw];
        let dzr = &dz[item * ow..(item + 1) * ow];
        for j in 0..rows {
            let d = dzr[o0 + j];
            gb_rows[j] += d;
            let grow = &mut gw_rows[j * iw..(j + 1) * iw];
            for (g, &xk) in grow.iter_mut().zip(xr) {
                *g += xk * d;
            }
        }
        item += 1;
    }
}

/// Reference input gradient `dn = Wᵀ dz` for a chunk of items (`dnc` is
/// `rows × iw`, `dzc` is `rows × ow`, `w` the row-major weights): each
/// element accumulates in `o`-ascending order.
fn input_grad_scalar(dnc: &mut [f32], dzc: &[f32], w: &[f32], iw: usize, ow: usize) {
    for (dn, dzr) in dnc.chunks_exact_mut(iw).zip(dzc.chunks_exact(ow)) {
        dn.fill(0.0);
        for (&d, wr) in dzr.iter().zip(w.chunks_exact(iw)) {
            for (y, &wk) in dn.iter_mut().zip(wr) {
                *y += d * wk;
            }
        }
    }
}

/// Blocked input gradient (same arguments as [`input_grad_scalar`]):
/// output rows are blocked four at a time so each `dn` element is
/// loaded/stored once per four terms. The chained accumulate keeps the
/// `o`-ascending term order and the block boundary depends only on `ow`,
/// so results are chunking- and worker-count invariant and have the
/// reference's bits.
#[inline(always)]
pub(crate) fn input_grad(dnc: &mut [f32], dzc: &[f32], w: &[f32], iw: usize, ow: usize) {
    let full = ow - ow % 4;
    for (dn, dzr) in dnc.chunks_exact_mut(iw).zip(dzc.chunks_exact(ow)) {
        dn.fill(0.0);
        let mut o = 0;
        while o < full {
            let (d0, d1, d2, d3) = (dzr[o], dzr[o + 1], dzr[o + 2], dzr[o + 3]);
            let w0 = &w[o * iw..(o + 1) * iw];
            let w1 = &w[(o + 1) * iw..(o + 2) * iw];
            let w2 = &w[(o + 2) * iw..(o + 3) * iw];
            let w3 = &w[(o + 3) * iw..(o + 4) * iw];
            for ((((y, &a0), &a1), &a2), &a3) in dn.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
                let mut acc = *y + a0 * d0;
                acc += a1 * d1;
                acc += a2 * d2;
                acc += a3 * d3;
                *y = acc;
            }
            o += 4;
        }
        while o < ow {
            let d = dzr[o];
            for (y, &wk) in dn.iter_mut().zip(&w[o * iw..(o + 1) * iw]) {
                *y += wk * d;
            }
            o += 1;
        }
    }
}

/// The three sweeps a built-in backend runs inside the shared batch
/// drivers ([`Mlp::forward_batch_impl`], [`Mlp::backward_batch_impl`]),
/// fixed where the backend calls the driver: the drivers only chunk,
/// they never ask which backend they serve.
pub(crate) struct Sweeps {
    pub(crate) forward_rows: ForwardRows,
    pub(crate) grad_rows: GradRows,
    pub(crate) input_grad: InputGrad,
}

/// Forward rows of one layer for a chunk of items:
/// `(layer, transposed weights, x, pre, y)`.
type ForwardRows = fn(&Linear, &[f32], &[f32], &mut [f32], &mut [f32]);
/// Parameter gradients of a block of output rows over every item:
/// `(x, dz, iw, ow, first row, weight-gradient rows, bias-gradient rows)`.
type GradRows = fn(&[f32], &[f32], usize, usize, usize, &mut [f32], &mut [f32]);
/// Input gradient `dn = Wᵀ dz` for a chunk of items:
/// `(dn, dz, row-major weights, iw, ow)`.
type InputGrad = fn(&mut [f32], &[f32], &[f32], usize, usize);

impl Sweeps {
    /// The hand-written unblocked rows — the executable specification.
    pub(crate) const SCALAR: Sweeps = Sweeps {
        forward_rows: Linear::forward_rows_scalar,
        grad_rows: grad_rows_scalar,
        input_grad: input_grad_scalar,
    };
}

/// A multilayer perceptron assembled from [`Linear`] layers.
///
/// # Example
///
/// ```
/// use instant3d_nerf::mlp::{Mlp, MlpConfig};
/// use instant3d_nerf::activation::Activation;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(
///     MlpConfig::new(8, &[16], 4, Activation::Relu, Activation::None),
///     &mut rng,
/// );
/// let mut ws = mlp.workspace();
/// let y = mlp.forward(&[0.1; 8], &mut ws).to_vec();
/// assert_eq!(y.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// Describes an MLP: input width, hidden widths, output width, activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input width.
    pub in_dim: usize,
    /// Hidden layer widths, in order.
    pub hidden: Vec<usize>,
    /// Output width.
    pub out_dim: usize,
    /// Activation for hidden layers.
    pub hidden_activation: Activation,
    /// Activation for the output layer.
    pub output_activation: Activation,
}

impl MlpConfig {
    /// Convenience constructor.
    pub fn new(
        in_dim: usize,
        hidden: &[usize],
        out_dim: usize,
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        MlpConfig {
            in_dim,
            hidden: hidden.to_vec(),
            out_dim,
            hidden_activation,
            output_activation,
        }
    }

    /// The layer specs this config expands to.
    pub fn layer_specs(&self) -> Vec<LayerSpec> {
        let mut dims = Vec::with_capacity(self.hidden.len() + 2);
        dims.push(self.in_dim);
        dims.extend_from_slice(&self.hidden);
        dims.push(self.out_dim);
        (0..dims.len() - 1)
            .map(|i| LayerSpec {
                in_dim: dims[i],
                out_dim: dims[i + 1],
                activation: if i == dims.len() - 2 {
                    self.output_activation
                } else {
                    self.hidden_activation
                },
            })
            .collect()
    }
}

/// Reusable forward-pass scratch (per-layer activations), so per-point
/// inference performs no allocation.
#[derive(Debug, Clone)]
pub struct MlpWorkspace {
    /// acts[0] is the input copy; acts[i+1] is layer i's activated output.
    acts: Vec<Vec<f32>>,
    /// pre[i] is layer i's pre-activation.
    pre: Vec<Vec<f32>>,
    /// Backward scratch: gradient flowing between layers.
    d_cur: Vec<f32>,
    d_next: Vec<f32>,
}

/// Reusable SoA scratch for batched forward/backward passes: row-major
/// activations for every item of a batch, retained between the forward and
/// backward pass so the backward never re-runs the forward (the scalar
/// training path re-forwards per point to rebuild activations).
///
/// All buffers grow once to the high-water batch size and are reused —
/// zero steady-state allocation.
#[derive(Debug, Clone)]
pub struct MlpBatchWorkspace {
    /// Items currently stored (set by the last `forward_batch_with`).
    n: usize,
    /// acts[0] is the input copy (`n × in_dim`); acts[i+1] is layer i's
    /// activated output (`n × out_dim_i`), row-major.
    acts: Vec<Vec<f32>>,
    /// pre[i] is layer i's pre-activation (`n × out_dim_i`), row-major.
    pre: Vec<Vec<f32>>,
    /// Backward scratch (`n × width` of the layer being processed).
    d_cur: Vec<f32>,
    d_next: Vec<f32>,
    /// Column-major (transposed) weight scratch per layer, rebuilt by each
    /// forward pass (weights change between optimizer steps). Lets the
    /// blocked forward sweep read contiguous output-neuron rows.
    wt: Vec<Vec<f32>>,
}

impl MlpBatchWorkspace {
    /// Items stored by the most recent `forward_batch_with`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True before any batch has been run.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// Per-layer gradient buffers, shape-matched to an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpGradients {
    /// (d_weights, d_bias) per layer.
    pub layers: Vec<(Vec<f32>, Vec<f32>)>,
    /// Number of accumulated samples since last reset.
    pub count: usize,
}

impl MlpGradients {
    /// Resets all gradients to zero.
    pub fn zero(&mut self) {
        for (w, b) in &mut self.layers {
            w.fill(0.0);
            b.fill(0.0);
        }
        self.count = 0;
    }
}

impl Mlp {
    /// Builds an MLP from a config with He-uniform initialisation.
    ///
    /// # Panics
    ///
    /// Panics if any layer dimension is zero.
    pub fn new<R: Rng + ?Sized>(cfg: MlpConfig, rng: &mut R) -> Self {
        let specs = cfg.layer_specs();
        assert!(!specs.is_empty());
        for s in &specs {
            assert!(s.in_dim > 0 && s.out_dim > 0, "zero-width layer");
        }
        Mlp {
            layers: specs.into_iter().map(|s| Linear::new(s, rng)).collect(),
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].spec.in_dim
    }

    /// Output width.
    #[expect(
        clippy::unwrap_used,
        reason = "`Mlp::new` asserts the spec list is non-empty"
    )]
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().spec.out_dim
    }

    /// The layers, in forward order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Total trainable scalars.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Multiply-accumulate count of one forward pass (one input point).
    pub fn flops(&self) -> usize {
        self.layers.iter().map(Linear::flops).sum()
    }

    /// Allocates a workspace sized for this network.
    pub fn workspace(&self) -> MlpWorkspace {
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(vec![0.0; self.in_dim()]);
        let mut pre = Vec::with_capacity(self.layers.len());
        let mut widest = self.in_dim();
        for l in &self.layers {
            acts.push(vec![0.0; l.spec.out_dim]);
            pre.push(vec![0.0; l.spec.out_dim]);
            widest = widest.max(l.spec.out_dim).max(l.spec.in_dim);
        }
        MlpWorkspace {
            acts,
            pre,
            d_cur: vec![0.0; widest],
            d_next: vec![0.0; widest],
        }
    }

    /// Allocates zeroed gradient buffers shaped like this network.
    pub fn zero_grads(&self) -> MlpGradients {
        MlpGradients {
            layers: self
                .layers
                .iter()
                .map(|l| (vec![0.0; l.w.len()], vec![0.0; l.b.len()]))
                .collect(),
            count: 0,
        }
    }

    /// Forward pass; returns the output slice living inside `ws`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.in_dim()`.
    #[expect(
        clippy::unwrap_used,
        reason = "`acts` holds `layers + 1` buffers and `Mlp::new` asserts at least one layer"
    )]
    pub fn forward<'w>(&self, input: &[f32], ws: &'w mut MlpWorkspace) -> &'w [f32] {
        assert_eq!(input.len(), self.in_dim(), "input width mismatch");
        ws.acts[0].copy_from_slice(input);
        for (i, layer) in self.layers.iter().enumerate() {
            let (head, tail) = ws.acts.split_at_mut(i + 1);
            layer.forward_into(&head[i], &mut ws.pre[i], &mut tail[0]);
        }
        ws.acts.last().unwrap()
    }

    /// Backward pass for the most recent [`Mlp::forward`] call on `ws`.
    ///
    /// Accumulates parameter gradients into `grads` and writes the gradient
    /// w.r.t. the network input into `d_input` (pass an empty slice to skip).
    /// Each layer runs the reference parameter-gradient and input-gradient
    /// sweeps of the batched scalar backend on a one-item batch.
    ///
    /// # Panics
    ///
    /// Panics if `d_output.len() != self.out_dim()` or a non-empty `d_input`
    /// has the wrong width.
    pub fn backward(
        &self,
        d_output: &[f32],
        ws: &mut MlpWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        assert_eq!(
            d_output.len(),
            self.out_dim(),
            "output gradient width mismatch"
        );
        if !d_input.is_empty() {
            assert_eq!(
                d_input.len(),
                self.in_dim(),
                "input gradient width mismatch"
            );
        }
        ws.d_cur[..d_output.len()].copy_from_slice(d_output);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let spec = layer.spec;
            let (iw, ow) = (spec.in_dim, spec.out_dim);
            let (y, pre) = (&ws.acts[i + 1], &ws.pre[i]);
            // Backprop through activation: dz = dy * act'(pre)
            for o in 0..ow {
                ws.d_cur[o] *= spec.activation.derivative(pre[o], y[o]);
            }
            // The batched reference sweeps on a one-item batch.
            let dz = &ws.d_cur[..ow];
            let (gw, gb) = &mut grads.layers[i];
            grad_rows_scalar(&ws.acts[i], dz, iw, ow, 0, gw, gb);
            if i == 0 && d_input.is_empty() {
                break;
            }
            input_grad_scalar(&mut ws.d_next[..iw], dz, &layer.w, iw, ow);
            std::mem::swap(&mut ws.d_cur, &mut ws.d_next);
        }
        if !d_input.is_empty() {
            d_input.copy_from_slice(&ws.d_cur[..self.in_dim()]);
        }
        grads.count += 1;
    }

    // ------------------------------------------------------------------
    // Batched (SoA) passes
    // ------------------------------------------------------------------

    /// Allocates a batch workspace; buffers grow lazily to the high-water
    /// batch size, so `capacity` is only a pre-sizing hint.
    pub fn batch_workspace(&self, capacity: usize) -> MlpBatchWorkspace {
        let mut ws = MlpBatchWorkspace {
            n: 0,
            acts: vec![Vec::new(); self.layers.len() + 1],
            pre: vec![Vec::new(); self.layers.len()],
            d_cur: Vec::new(),
            d_next: Vec::new(),
            wt: vec![Vec::new(); self.layers.len()],
        };
        self.reserve_batch(&mut ws, capacity);
        ws
    }

    #[expect(
        clippy::unwrap_used,
        reason = "`Mlp::new` asserts the spec list is non-empty"
    )]
    fn widest(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.spec.in_dim.max(l.spec.out_dim))
            .max()
            .unwrap()
    }

    fn reserve_batch(&self, ws: &mut MlpBatchWorkspace, n: usize) {
        ws.acts[0].resize(n * self.in_dim(), 0.0);
        for (i, l) in self.layers.iter().enumerate() {
            ws.acts[i + 1].resize(n * l.spec.out_dim, 0.0);
            ws.pre[i].resize(n * l.spec.out_dim, 0.0);
        }
        let widest = self.widest();
        ws.d_cur.resize(n * widest, 0.0);
        ws.d_next.resize(n * widest, 0.0);
    }

    /// Items per parallel chunk, or `None` when the batch is too small for
    /// parallelism to pay off.
    fn par_item_chunk(n: usize, work_per_item: usize) -> Option<usize> {
        let threads = rayon::current_num_threads();
        if threads <= 1 || n.saturating_mul(work_per_item) < (1 << 15) || n < 64 {
            return None;
        }
        Some(n.div_ceil(threads * 4).max(16))
    }

    /// Batched forward pass over `n = inputs.len() / in_dim` row-major
    /// items through an explicit kernel backend ([`crate::kernels`]);
    /// returns the `n × out_dim` output slice living inside `ws`.
    ///
    /// Per-item arithmetic is identical to [`Mlp::forward`], and all
    /// parallel writes are disjoint rows, so results are bit-identical to
    /// the scalar path for any batch size and worker count. Activations
    /// stay in `ws` for [`Mlp::backward_batch_with`] — no re-forward
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of `self.in_dim()`.
    pub fn forward_batch_with<'w>(
        &self,
        backend: &BackendHandle,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        backend.mlp_forward_batch(self, inputs, ws)
    }

    /// The one batched forward driver of the built-in backends: it
    /// chunks items over the pool and hands each chunk to
    /// `sweeps.forward_rows`, with per-layer transposed weights rebuilt
    /// each call (weights change between optimizer steps).
    #[expect(
        clippy::unwrap_used,
        reason = "`acts` holds `layers + 1` buffers and `Mlp::new` asserts at least one layer"
    )]
    pub(crate) fn forward_batch_impl<'w>(
        &self,
        sweeps: &Sweeps,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        let iw = self.in_dim();
        assert_eq!(inputs.len() % iw, 0, "input batch width mismatch");
        let n = inputs.len() / iw;
        ws.n = n;
        self.reserve_batch(ws, n);
        ws.acts[0][..n * iw].copy_from_slice(inputs);
        for (i, layer) in self.layers.iter().enumerate() {
            let spec = layer.spec;
            layer.fill_transposed(&mut ws.wt[i]);
            let wt: &[f32] = &ws.wt[i];
            let (head, tail) = ws.acts.split_at_mut(i + 1);
            let x = &head[i][..n * spec.in_dim];
            let y = &mut tail[0][..n * spec.out_dim];
            let pre = &mut ws.pre[i][..n * spec.out_dim];
            match Self::par_item_chunk(n, layer.flops()) {
                Some(chunk) => {
                    y.par_chunks_mut(chunk * spec.out_dim)
                        .zip(pre.par_chunks_mut(chunk * spec.out_dim))
                        .zip(x.par_chunks(chunk * spec.in_dim))
                        .for_each(|((yc, prec), xc)| {
                            (sweeps.forward_rows)(layer, wt, xc, prec, yc)
                        });
                }
                None => (sweeps.forward_rows)(layer, wt, x, pre, y),
            }
        }
        &ws.acts.last().unwrap()[..n * self.out_dim()]
    }

    /// Batched backward pass for the most recent
    /// [`Mlp::forward_batch_with`] on `ws` (`d_output` is `n × out_dim`,
    /// row-major), through an explicit kernel backend ([`crate::kernels`]).
    ///
    /// Accumulates parameter gradients into `grads` (per-parameter
    /// accumulation runs in item order) and writes the input gradients
    /// into `d_input` (`n × in_dim`; pass an empty slice to skip).
    /// Parallelism: items for the activation/input-gradient sweeps, output
    /// *rows* for the parameter-gradient sweep — every write is disjoint,
    /// so results do not depend on the worker count. Every backend
    /// produces gradients bit-identical to the scalar backend (and to `n`
    /// scalar [`Mlp::backward`] calls).
    ///
    /// # Panics
    ///
    /// Panics if buffer widths mismatch the workspace batch.
    pub fn backward_batch_with(
        &self,
        backend: &BackendHandle,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        backend.mlp_backward_batch(self, d_output, ws, grads, d_input);
    }

    /// The one batched backward driver of the built-in backends: the
    /// activation derivative runs here, the parameter gradients go to
    /// `sweeps.grad_rows` (parallel over disjoint output rows) and the
    /// input gradients to `sweeps.input_grad` (parallel over items).
    /// Accumulation per parameter stays in item order on every sweep set.
    pub(crate) fn backward_batch_impl(
        &self,
        sweeps: &Sweeps,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        let n = ws.n;
        let ow_last = self.out_dim();
        assert_eq!(
            d_output.len(),
            n * ow_last,
            "output gradient batch mismatch"
        );
        if !d_input.is_empty() {
            assert_eq!(
                d_input.len(),
                n * self.in_dim(),
                "input gradient batch mismatch"
            );
        }
        let MlpBatchWorkspace {
            acts,
            pre,
            d_cur,
            d_next,
            ..
        } = ws;
        d_cur[..n * ow_last].copy_from_slice(d_output);
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let spec = layer.spec;
            let (ow, iw) = (spec.out_dim, spec.in_dim);
            let x = &acts[i][..n * iw];
            let y = &acts[i + 1][..n * ow];
            let pre_l = &pre[i][..n * ow];
            // dz = dy ⊙ act'(pre), in place over the n×ow prefix.
            match Self::par_item_chunk(n, ow) {
                Some(chunk) => {
                    d_cur[..n * ow]
                        .par_chunks_mut(chunk * ow)
                        .zip(pre_l.par_chunks(chunk * ow))
                        .zip(y.par_chunks(chunk * ow))
                        .for_each(|((dc, prec), yc)| {
                            for ((d, p), a) in dc.iter_mut().zip(prec).zip(yc) {
                                *d *= spec.activation.derivative(*p, *a);
                            }
                        });
                }
                None => {
                    for ((d, p), a) in d_cur[..n * ow].iter_mut().zip(pre_l).zip(y) {
                        *d *= spec.activation.derivative(*p, *a);
                    }
                }
            }
            let dz = &d_cur[..n * ow];
            // Parameter gradients, parallel over disjoint output rows;
            // each row block sweeps every item, so per-parameter
            // accumulation stays in item order whatever the row chunking.
            let (gw, gb) = &mut grads.layers[i];
            let row_chunk = if Self::par_item_chunk(n, iw * ow).is_some() {
                ow.div_ceil(rayon::current_num_threads().max(1) * 2).max(1)
            } else {
                ow
            };
            if row_chunk >= ow {
                (sweeps.grad_rows)(x, dz, iw, ow, 0, gw, gb);
            } else {
                gw.par_chunks_mut(row_chunk * iw)
                    .zip(gb.par_chunks_mut(row_chunk))
                    .enumerate()
                    .for_each(|(t, (gwc, gbc))| {
                        (sweeps.grad_rows)(x, dz, iw, ow, t * row_chunk, gwc, gbc)
                    });
            }
            // Input gradient d_next = Wᵀ dz, parallel over items. The
            // first layer's input gradient is dead when the caller passes
            // an empty `d_input` — skip it entirely.
            if i == 0 && d_input.is_empty() {
                break;
            }
            let w_flat = &layer.w;
            match Self::par_item_chunk(n, iw * ow) {
                Some(chunk) => {
                    d_next[..n * iw]
                        .par_chunks_mut(chunk * iw)
                        .zip(dz.par_chunks(chunk * ow))
                        .for_each(|(dnc, dzc)| (sweeps.input_grad)(dnc, dzc, w_flat, iw, ow));
                }
                None => (sweeps.input_grad)(&mut d_next[..n * iw], dz, w_flat, iw, ow),
            }
            std::mem::swap(d_cur, d_next);
        }
        if !d_input.is_empty() {
            d_input.copy_from_slice(&d_cur[..n * self.in_dim()]);
        }
        grads.count += n;
    }

    /// Visits all parameters as `(params, grads)` slice pairs, in a fixed
    /// order — the optimizer contract.
    pub fn for_each_param_mut<F: FnMut(&mut [f32], &[f32])>(
        &mut self,
        grads: &MlpGradients,
        mut f: F,
    ) {
        for (layer, (gw, gb)) in self.layers.iter_mut().zip(&grads.layers) {
            f(&mut layer.w, gw);
            f(&mut layer.b, gb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_mlp(out_act: Activation) -> Mlp {
        let mut rng = StdRng::seed_from_u64(42);
        Mlp::new(
            MlpConfig::new(4, &[8, 8], 3, Activation::Relu, out_act),
            &mut rng,
        )
    }

    #[test]
    fn shapes_and_param_counts() {
        let m = tiny_mlp(Activation::None);
        assert_eq!(m.in_dim(), 4);
        assert_eq!(m.out_dim(), 3);
        // (4*8+8) + (8*8+8) + (8*3+3) = 40 + 72 + 27
        assert_eq!(m.num_params(), 139);
        assert_eq!(m.flops(), 2 * (4 * 8 + 8 * 8 + 8 * 3));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny_mlp(Activation::Sigmoid);
        let mut ws = m.workspace();
        let x = [0.1, -0.2, 0.3, 0.4];
        let y1 = m.forward(&x, &mut ws).to_vec();
        let y2 = m.forward(&x, &mut ws).to_vec();
        assert_eq!(y1, y2);
        assert!(y1.iter().all(|v| (0.0..=1.0).contains(v)), "sigmoid range");
    }

    #[test]
    fn parameter_gradients_match_finite_difference() {
        let mut m = tiny_mlp(Activation::None);
        let x = [0.3, -0.1, 0.7, 0.2];
        let d_out = [1.0, -0.5, 0.25];
        let mut ws = m.workspace();
        let mut grads = m.zero_grads();
        m.forward(&x, &mut ws);
        m.backward(&d_out, &mut ws, &mut grads, &mut []);

        // Scalar loss L = dot(output, d_out).
        let loss = |m: &Mlp, ws: &mut MlpWorkspace| -> f32 {
            m.forward(&x, ws)
                .iter()
                .zip(&d_out)
                .map(|(a, b)| a * b)
                .sum()
        };
        let eps = 1e-3;
        // Check a sample of weights in each layer.
        for li in 0..m.layers.len() {
            for wi in [0usize, 3, 7] {
                if wi >= m.layers[li].w.len() {
                    continue;
                }
                let orig = m.layers[li].w[wi];
                m.layers[li].w[wi] = orig + eps;
                let lp = loss(&m, &mut ws);
                m.layers[li].w[wi] = orig - eps;
                let lm = loss(&m, &mut ws);
                m.layers[li].w[wi] = orig;
                let fd = (lp - lm) / (2.0 * eps);
                let an = grads.layers[li].0[wi];
                assert!(
                    (fd - an).abs() < 1e-2 * (1.0 + an.abs()),
                    "layer {li} w[{wi}]: fd {fd} vs {an}"
                );
            }
            // And one bias each.
            let orig = m.layers[li].b[0];
            m.layers[li].b[0] = orig + eps;
            let lp = loss(&m, &mut ws);
            m.layers[li].b[0] = orig - eps;
            let lm = loss(&m, &mut ws);
            m.layers[li].b[0] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            let an = grads.layers[li].1[0];
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "layer {li} bias");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let m = tiny_mlp(Activation::Sigmoid);
        let x = [0.3, -0.1, 0.7, 0.2];
        let d_out = [0.5, 1.0, -1.0];
        let mut ws = m.workspace();
        let mut grads = m.zero_grads();
        let mut d_in = vec![0.0; 4];
        m.forward(&x, &mut ws);
        m.backward(&d_out, &mut ws, &mut grads, &mut d_in);

        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x;
            xp[i] += eps;
            let lp: f32 = m
                .forward(&xp, &mut ws)
                .iter()
                .zip(&d_out)
                .map(|(a, b)| a * b)
                .sum();
            let mut xm = x;
            xm[i] -= eps;
            let lm: f32 = m
                .forward(&xm, &mut ws)
                .iter()
                .zip(&d_out)
                .map(|(a, b)| a * b)
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - d_in[i]).abs() < 1e-2 * (1.0 + d_in[i].abs()),
                "input {i}: fd {fd} vs {}",
                d_in[i]
            );
        }
    }

    #[test]
    fn gradient_accumulation_sums_over_calls() {
        let m = tiny_mlp(Activation::None);
        let mut ws = m.workspace();
        let mut g1 = m.zero_grads();
        let x = [0.5, 0.5, -0.5, 0.1];
        let d = [1.0, 1.0, 1.0];
        m.forward(&x, &mut ws);
        m.backward(&d, &mut ws, &mut g1, &mut []);
        let single = g1.layers[0].0[0];
        m.forward(&x, &mut ws);
        m.backward(&d, &mut ws, &mut g1, &mut []);
        assert!((g1.layers[0].0[0] - 2.0 * single).abs() < 1e-6);
        assert_eq!(g1.count, 2);
        g1.zero();
        assert_eq!(g1.layers[0].0[0], 0.0);
    }

    #[test]
    #[should_panic]
    fn wrong_input_width_panics() {
        let m = tiny_mlp(Activation::None);
        let mut ws = m.workspace();
        let _ = m.forward(&[0.0; 3], &mut ws);
    }

    #[test]
    fn single_layer_identity_activation_is_affine() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(
            MlpConfig::new(2, &[], 2, Activation::Relu, Activation::None),
            &mut rng,
        );
        let mut ws = m.workspace();
        // Affinity: f(a) + f(b) - f(0) == f(a + b).
        let f = |m: &Mlp, ws: &mut MlpWorkspace, x: [f32; 2]| m.forward(&x, ws).to_vec();
        let fa = f(&m, &mut ws, [1.0, 0.0]);
        let fb = f(&m, &mut ws, [0.0, 1.0]);
        let f0 = f(&m, &mut ws, [0.0, 0.0]);
        let fab = f(&m, &mut ws, [1.0, 1.0]);
        for k in 0..2 {
            assert!((fa[k] + fb[k] - f0[k] - fab[k]).abs() < 1e-5);
        }
    }
}
