//! Small fully-connected networks with hand-derived backpropagation
//! (Step ③-② of the pipeline).
//!
//! Instant-NGP replaces the vanilla-NeRF 10×256 MLP with tiny heads, and
//! so does `instant3d_core`'s `NerfModel::new` at its default
//! `mlp_hidden_layers = 1`: a density MLP
//! (`emb_d → 64 → 1`, truncated-exp output = raw density) and a colour MLP
//! (`(emb_c ‖ SH(dir)) → 64 → 3`, sigmoid RGB). These networks are small
//! enough that a straightforward cache-friendly implementation is fast; the
//! accelerator models them on a systolic array / multiplier-adder tree
//! (`instant3d-accel::mlp_unit`).
//!
//! The batched passes run three sweeps per layer — forward rows,
//! parameter-gradient rows, input gradient (with the activation
//! derivative of the gradient it consumes) — and each is written twice
//! here: the hand-written untiled scalar reference, and one
//! register-tiled body that the `simd` backend runs. A tile keeps up to
//! eight eight-lane accumulators in registers across a whole input, output
//! or item loop: lanes hold outputs, gradient columns or — on layers
//! narrower than eight — items. Tiling never reorders the sum that forms
//! any one output, and every accumulate is a distinct multiply then a
//! distinct add (see [`crate::simd`]), so the tiled body has the
//! reference's bits.
//!
//! The batch drivers enter the worker pool once per forward pass — each
//! 32-item block runs through every layer while it sits in L1 — and twice
//! per backward pass: item blocks carry the gradient down through every
//! layer, then tiles of every layer's parameter gradient sweep the items
//! in order, one L2-sized run of blocks at a time. There is one forward
//! driver. It reads each block's input rows through a row fill
//! ([`RowFill`]) and either keeps every block's activations for the
//! backward ([`Mlp::forward_batch_with`]) or, for callers that never run
//! the backward (the tile renderer, the occupancy refresh), reuses one
//! block of scratch per worker run ([`MlpBatchWorkspace::forward_only`]),
//! so no activation outlives its block.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::activation::Activation;
use crate::kernels::BackendHandle;
use rand::Rng;
use rayon::prelude::*;
use std::ops::Range;

/// The row fill of a batched forward: `fill(items, rows)` writes the input
/// rows of `items` into `rows` (`items.len() × in_dim`, row-major). The
/// driver calls it once per 32-item block, from any worker, with the
/// block's input sub-block as `rows`.
pub type RowFill<'a> = dyn Fn(Range<usize>, &mut [f32]) + Sync + 'a;

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

    /// The weights, row-major (`out_dim` rows × `in_dim` columns).
    pub fn weights(&self) -> &[f32] {
        &self.w
    }

    /// The biases, one per output.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// FLOPs of one forward evaluation: `2 · in_dim · out_dim`, a multiply
    /// and an add per weight.
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
    /// (`wt[i * out_dim + o] = w[o * in_dim + i]`) — the layout the tiled
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

    /// Reference forward rows for a block of items: one
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

    /// Tiled forward rows for a block of items, over the transposed
    /// weights `wt`. Full groups of eight outputs run as register tiles of
    /// `T` items × `G` groups (`T · G = 8` accumulators) held across the
    /// whole input loop; the last `out_dim % 8` outputs run with one item
    /// per lane. Each tile applies the activation as it stores. Each
    /// output still accumulates `b[o] + Σ_i w[o,i]·x[i]` in `i`-ascending
    /// order, so it has [`Linear::forward_into`]'s bits whatever the
    /// tiling.
    #[inline(always)]
    pub(crate) fn forward_rows(&self, wt: &[f32], xc: &[f32], prec: &mut [f32], yc: &mut [f32]) {
        let (iw, ow) = (self.spec.in_dim, self.spec.out_dim);
        debug_assert_eq!(wt.len(), iw * ow);
        let m = xc.len() / iw;
        let wide = ow - ow % 8;
        let mut o0 = 0;
        while o0 < wide {
            let g = group_block((wide - o0) / 8);
            let mut j = 0;
            while j < m {
                let out = (&mut *prec, &mut *yc);
                j += match g {
                    8 => self.forward_tile::<1, 8>(wt, xc, out, j, o0, m),
                    4 => self.forward_tile::<2, 4>(wt, xc, out, j, o0, m),
                    2 => self.forward_tile::<4, 2>(wt, xc, out, j, o0, m),
                    _ => self.forward_tile::<8, 1>(wt, xc, out, j, o0, m),
                };
            }
            o0 += 8 * g;
        }
        if wide == ow {
            return;
        }
        for j in (0..m).step_by(NARROW) {
            let items = (m - j).min(NARROW);
            let xn = &xc[j * iw..(j + items) * iw];
            let out = (&mut prec[j * ow..], &mut yc[j * ow..]);
            match ow - wide {
                1 => self.forward_narrow::<1>(wt, xn, out, wide),
                2 => self.forward_narrow::<2>(wt, xn, out, wide),
                3 => self.forward_narrow::<3>(wt, xn, out, wide),
                4 => self.forward_narrow::<4>(wt, xn, out, wide),
                5 => self.forward_narrow::<5>(wt, xn, out, wide),
                6 => self.forward_narrow::<6>(wt, xn, out, wide),
                _ => self.forward_narrow::<7>(wt, xn, out, wide),
            }
        }
    }

    /// One forward tile: outputs `o0..o0 + 8G` of items `j..j + T` (of
    /// item `j` alone when fewer than `T` remain). Returns the items done.
    #[inline(always)]
    fn forward_tile<const T: usize, const G: usize>(
        &self,
        wt: &[f32],
        xc: &[f32],
        (prec, yc): (&mut [f32], &mut [f32]),
        j: usize,
        o0: usize,
        m: usize,
    ) -> usize {
        if T > 1 && j + T > m {
            return self.forward_tile::<1, G>(wt, xc, (prec, yc), j, o0, m);
        }
        let (iw, ow) = (self.spec.in_dim, self.spec.out_dim);
        let xr: [&[f32]; T] = std::array::from_fn(|t| &xc[(j + t) * iw..(j + t + 1) * iw]);
        let mut acc = [[[0.0f32; 8]; G]; T];
        for tile in &mut acc {
            for (g, a) in tile.iter_mut().enumerate() {
                *a = lanes(&self.b[o0 + 8 * g..]);
            }
        }
        for (i, wr) in (0..iw).zip(wt.chunks_exact(ow)) {
            let wv: [[f32; 8]; G] = std::array::from_fn(|g| lanes(&wr[o0 + 8 * g..]));
            for (tile, x) in acc.iter_mut().zip(&xr) {
                let xi = x[i];
                for (a, w) in tile.iter_mut().zip(&wv) {
                    for (a, &w) in a.iter_mut().zip(w) {
                        *a += w * xi;
                    }
                }
            }
        }
        let act = self.spec.activation;
        for (t, tile) in acc.iter().enumerate() {
            let at = (j + t) * ow + o0;
            let (pre, y) = (&mut prec[at..at + 8 * G], &mut yc[at..at + 8 * G]);
            for ((a, p), y) in tile
                .iter()
                .zip(pre.chunks_exact_mut(8))
                .zip(y.chunks_exact_mut(8))
            {
                p.copy_from_slice(a);
                y.copy_from_slice(a);
                act.apply_slice(y);
            }
        }
        T
    }

    /// The narrow forward tile: the `R < 8` outputs from `o0` of up to
    /// `NARROW` items `xn`, one item per lane. The items' inputs are
    /// transposed into lane order on the stack, `NARROW_INPUTS` inputs at
    /// a time, so each output keeps four independent lane groups in flight
    /// across the whole input loop. Lanes past the last item compute on
    /// stale inputs and are never stored.
    #[inline(always)]
    fn forward_narrow<const R: usize>(
        &self,
        wt: &[f32],
        xn: &[f32],
        (pn, yn): (&mut [f32], &mut [f32]),
        o0: usize,
    ) {
        let (iw, ow) = (self.spec.in_dim, self.spec.out_dim);
        let mut acc: [[f32; NARROW]; R] = std::array::from_fn(|r| [self.b[o0 + r]; NARROW]);
        let mut xt = [[0.0f32; NARROW]; NARROW_INPUTS];
        for (i0, wts) in (0..iw)
            .step_by(NARROW_INPUTS)
            .zip(wt.chunks(NARROW_INPUTS * ow))
        {
            let span = (iw - i0).min(NARROW_INPUTS);
            for (l, x) in xn.chunks_exact(iw).enumerate() {
                for (t, &v) in xt.iter_mut().zip(&x[i0..i0 + span]) {
                    t[l] = v;
                }
            }
            for (x, wr) in xt.iter().zip(wts.chunks_exact(ow)) {
                for (a, &w) in acc.iter_mut().zip(&wr[o0..o0 + R]) {
                    for (a, &x) in a.iter_mut().zip(x) {
                        *a += w * x;
                    }
                }
            }
        }
        let rows = pn.chunks_exact_mut(ow).zip(yn.chunks_exact_mut(ow));
        for (l, (pre, y)) in rows.take(xn.len() / iw).enumerate() {
            for (p, a) in pre[o0..o0 + R].iter_mut().zip(&acc) {
                *p = a[l];
            }
            let y = &mut y[o0..o0 + R];
            y.copy_from_slice(&pre[o0..o0 + R]);
            self.spec.activation.apply_slice(y);
        }
    }
}

/// Items per lane-transposed run of the narrow forward tile: four lane
/// groups of eight.
const NARROW: usize = 32;
/// Inputs transposed per step of the narrow forward tile (a 4 KB stack
/// tile).
const NARROW_INPUTS: usize = 32;

/// Eight lanes from the front of `s`.
#[inline(always)]
fn lanes(s: &[f32]) -> [f32; 8] {
    let mut a = [0.0; 8];
    a.copy_from_slice(&s[..8]);
    a
}

/// How many eight-lane groups the next register tile covers when
/// `remaining` groups are left: 8, else the largest power of two that
/// fits. A tile holds `8 / groups` items (or gradient rows), so it always
/// keeps eight accumulators in flight.
#[inline(always)]
fn group_block(remaining: usize) -> usize {
    match remaining {
        8.. => 8,
        4..=7 => 4,
        2 | 3 => 2,
        _ => 1,
    }
}

/// The part of one layer's parameter gradient a [`GradRows`] call owns:
/// rows `o0..o0 + rows` of the row-major weight gradient (every column,
/// so its elements are contiguous) and the same rows of the bias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GradTile {
    o0: usize,
    rows: usize,
}

/// One layer's rows inside the blocked batch layout of
/// [`MlpBatchWorkspace`]: block `b` holds `width`-float rows for items
/// `b * BLOCK..` starting at `b * stride + offset` of `data`, and the `n`
/// items fill every block but the last.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Blocked<'a> {
    data: &'a [f32],
    stride: usize,
    offset: usize,
    width: usize,
    n: usize,
}

impl<'a> Blocked<'a> {
    /// `data` as the rows of one block (at most `BLOCK` items).
    fn one_block(data: &'a [f32], width: usize) -> Self {
        let n = data.len() / width;
        debug_assert!(n <= BLOCK);
        Blocked {
            data,
            stride: 0,
            offset: 0,
            width,
            n,
        }
    }

    /// Blocks holding the `n` items.
    #[inline(always)]
    fn blocks(&self) -> usize {
        self.n.div_ceil(BLOCK)
    }

    /// Items in block `b`.
    #[inline(always)]
    fn items(&self, b: usize) -> usize {
        (self.n - b * BLOCK).min(BLOCK)
    }

    /// Blocks `b0..b0 + nb` (those of them that hold items) as a batch of
    /// their own.
    #[inline(always)]
    fn sub(&self, b0: usize, nb: usize) -> Self {
        Blocked {
            data: &self.data[b0 * self.stride..],
            n: (self.n - b0 * BLOCK).min(nb * BLOCK),
            ..*self
        }
    }

    /// Block `b`'s rows.
    #[inline(always)]
    fn rows(&self, b: usize) -> &'a [f32] {
        &self.data[b * self.stride + self.offset..][..self.items(b) * self.width]
    }
}

/// Reference parameter gradients of one tile over every item (`x` holds
/// `iw`-wide rows, `dz` `ow`-wide rows; `gw` is `rows × iw`, `gb` is
/// `rows` long): item-outer, so each parameter accumulates in item order.
fn grad_rows_scalar(
    layer: &Linear,
    x: Blocked<'_>,
    dz: Blocked<'_>,
    tile: GradTile,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (iw, ow) = (layer.spec.in_dim, layer.spec.out_dim);
    for b in 0..x.blocks() {
        for (xr, dzr) in x.rows(b).chunks_exact(iw).zip(dz.rows(b).chunks_exact(ow)) {
            let rows = gw.chunks_exact_mut(iw).zip(gb.iter_mut());
            for ((grow, gb), &d) in rows.zip(&dzr[tile.o0..tile.o0 + tile.rows]) {
                *gb += d;
                for (g, &xk) in grow.iter_mut().zip(xr) {
                    *g += d * xk;
                }
            }
        }
    }
}

/// Tiled parameter gradients (same arguments as [`grad_rows_scalar`]):
/// the items run in runs of `RUN` blocks, and every pass of the tile runs
/// over one run before the next run starts. Within a run, full groups of
/// eight columns run as register tiles of `R` rows × `G` groups (`R · G =
/// 8` accumulators) held across the run's items, the last `iw % 8`
/// columns one element at a time, and the bias in a pass of its own. A
/// register tile loads its accumulators from `gw` and stores them back
/// once per run, so every parameter and every bias still accumulates in
/// item order from the same value: neither the runs nor the tile bounds
/// change a bit. What the runs change is where the rows come from: every
/// register tile after a run's first rereads the run from L2, where
/// sweeping the whole batch streamed it from past L2 once per tile.
#[inline(always)]
pub(crate) fn grad_rows(
    layer: &Linear,
    x: Blocked<'_>,
    dz: Blocked<'_>,
    tile: GradTile,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let (iw, ow) = (layer.spec.in_dim, layer.spec.out_dim);
    let (o0, rows) = (tile.o0, tile.rows);
    let wide = iw - iw % 8;
    for b0 in (0..dz.blocks()).step_by(RUN) {
        let (x, dz) = (x.sub(b0, RUN), dz.sub(b0, RUN));
        for b in 0..dz.blocks() {
            for dzr in dz.rows(b).chunks_exact(ow) {
                for (g, &d) in gb.iter_mut().zip(&dzr[o0..o0 + rows]) {
                    *g += d;
                }
            }
        }
        let mut c0 = 0;
        while c0 < wide {
            let g = group_block((wide - c0) / 8);
            let mut r = 0;
            while r < rows {
                let at = (r, c0);
                r += match g {
                    8 => grad_tile::<1, 8>(layer, x, dz, tile, at, gw),
                    4 => grad_tile::<2, 4>(layer, x, dz, tile, at, gw),
                    2 => grad_tile::<4, 2>(layer, x, dz, tile, at, gw),
                    _ => grad_tile::<8, 1>(layer, x, dz, tile, at, gw),
                };
            }
            c0 += 8 * g;
        }
        if wide < iw {
            for b in 0..x.blocks() {
                for (xr, dzr) in x.rows(b).chunks_exact(iw).zip(dz.rows(b).chunks_exact(ow)) {
                    for (j, grow) in gw.chunks_exact_mut(iw).enumerate() {
                        let d = dzr[o0 + j];
                        for (g, &xk) in grow[wide..].iter_mut().zip(&xr[wide..]) {
                            *g += d * xk;
                        }
                    }
                }
            }
        }
    }
}

/// One parameter-gradient tile: rows `r..r + R` (of row `r` alone when
/// fewer than `R` remain) × columns `c0..c0 + 8G` of `gw`, over the items
/// of `x` and `dz` — one run of [`grad_rows`]. The accumulators start from
/// `gw` and end in it. Returns the rows done.
#[inline(always)]
fn grad_tile<const R: usize, const G: usize>(
    layer: &Linear,
    x: Blocked<'_>,
    dz: Blocked<'_>,
    tile: GradTile,
    (r, c0): (usize, usize),
    gw: &mut [f32],
) -> usize {
    if R > 1 && r + R > tile.rows {
        return grad_tile::<1, G>(layer, x, dz, tile, (r, c0), gw);
    }
    let (iw, ow) = (layer.spec.in_dim, layer.spec.out_dim);
    let mut acc = [[[0.0f32; 8]; G]; R];
    for (rr, row) in acc.iter_mut().enumerate() {
        for (g, a) in row.iter_mut().enumerate() {
            *a = lanes(&gw[(r + rr) * iw + c0 + 8 * g..]);
        }
    }
    let o = tile.o0 + r;
    for b in 0..x.blocks() {
        let (xb, db) = (x.rows(b), dz.rows(b));
        for j in 0..x.items(b) {
            let xr = &xb[j * iw + c0..][..8 * G];
            let xv: [[f32; 8]; G] = std::array::from_fn(|g| lanes(&xr[8 * g..]));
            for (row, &d) in acc.iter_mut().zip(&db[j * ow + o..][..R]) {
                for (a, xs) in row.iter_mut().zip(&xv) {
                    for (a, &xs) in a.iter_mut().zip(xs) {
                        *a += d * xs;
                    }
                }
            }
        }
    }
    for (rr, row) in acc.iter().enumerate() {
        for (g, a) in row.iter().enumerate() {
            let at = (r + rr) * iw + c0 + 8 * g;
            gw[at..at + 8].copy_from_slice(a);
        }
    }
    R
}

/// Reference backward step through one layer for a block of items: scales
/// the upstream gradient `dz` (`m × ow`, in place) by the activation
/// derivative at (`pre`, `y`), then writes the first `k` columns of the
/// input gradient `dn = Wᵀ dz` into `dn` (`m × k`; nothing when `k == 0`):
/// each element accumulates in `o`-ascending order from `0.0`.
fn input_grad_scalar(
    layer: &Linear,
    dz: &mut [f32],
    pre: &[f32],
    y: &[f32],
    dn: &mut [f32],
    k: usize,
) {
    let act = layer.spec.activation;
    for ((d, &p), &a) in dz.iter_mut().zip(pre).zip(y) {
        *d *= act.derivative(p, a);
    }
    if k == 0 {
        return;
    }
    let (iw, ow) = (layer.spec.in_dim, layer.spec.out_dim);
    for (dnr, dzr) in dn.chunks_exact_mut(k).zip(dz.chunks_exact(ow)) {
        dnr.fill(0.0);
        for (&d, wr) in dzr.iter().zip(layer.w.chunks_exact(iw)) {
            for (y, &wk) in dnr.iter_mut().zip(&wr[..k]) {
                *y += d * wk;
            }
        }
    }
}

/// Tiled backward step through one layer (same arguments as
/// [`input_grad_scalar`]): the derivative is the branch-free
/// [`Activation::scale_by_derivative`], and full groups of eight input
/// columns run as register tiles of `T` items × `G` groups held across the
/// whole `o` loop, the last `k % 8` columns one element at a time. The
/// `o`-ascending term order from `0.0` is kept, so it has the reference's
/// bits whatever the tiling.
#[inline(always)]
pub(crate) fn input_grad(
    layer: &Linear,
    dz: &mut [f32],
    pre: &[f32],
    y: &[f32],
    dn: &mut [f32],
    k: usize,
) {
    layer.spec.activation.scale_by_derivative(dz, pre, y);
    if k == 0 {
        return;
    }
    let ow = layer.spec.out_dim;
    let m = dz.len() / ow;
    let dz: &[f32] = dz;
    let wide = k - k % 8;
    let mut c0 = 0;
    while c0 < wide {
        let g = group_block((wide - c0) / 8);
        let mut j = 0;
        while j < m {
            j += match g {
                8 => input_grad_tile::<1, 8>(layer, dz, dn, k, j, c0),
                4 => input_grad_tile::<2, 4>(layer, dz, dn, k, j, c0),
                2 => input_grad_tile::<4, 2>(layer, dz, dn, k, j, c0),
                _ => input_grad_tile::<8, 1>(layer, dz, dn, k, j, c0),
            };
        }
        c0 += 8 * g;
    }
    if wide < k {
        let iw = layer.spec.in_dim;
        for (dnr, dzr) in dn.chunks_exact_mut(k).zip(dz.chunks_exact(ow)) {
            dnr[wide..].fill(0.0);
            for (&d, wr) in dzr.iter().zip(layer.w.chunks_exact(iw)) {
                for (y, &wk) in dnr[wide..].iter_mut().zip(&wr[wide..k]) {
                    *y += d * wk;
                }
            }
        }
    }
}

/// One input-gradient tile: columns `c0..c0 + 8G` of items `j..j + T` (of
/// item `j` alone when fewer than `T` remain). Returns the items done.
#[inline(always)]
fn input_grad_tile<const T: usize, const G: usize>(
    layer: &Linear,
    dz: &[f32],
    dn: &mut [f32],
    k: usize,
    j: usize,
    c0: usize,
) -> usize {
    let (iw, ow) = (layer.spec.in_dim, layer.spec.out_dim);
    if T > 1 && (j + T) * ow > dz.len() {
        return input_grad_tile::<1, G>(layer, dz, dn, k, j, c0);
    }
    let dzr: [&[f32]; T] = std::array::from_fn(|t| &dz[(j + t) * ow..(j + t + 1) * ow]);
    let mut acc = [[[0.0f32; 8]; G]; T];
    for (o, wr) in (0..ow).zip(layer.w.chunks_exact(iw)) {
        let wv: [[f32; 8]; G] = std::array::from_fn(|g| lanes(&wr[c0 + 8 * g..]));
        for (tile, d) in acc.iter_mut().zip(&dzr) {
            let d = d[o];
            for (a, w) in tile.iter_mut().zip(&wv) {
                for (a, &w) in a.iter_mut().zip(w) {
                    *a += d * w;
                }
            }
        }
    }
    for (t, tile) in acc.iter().enumerate() {
        let row = &mut dn[(j + t) * k + c0..];
        for (g, a) in tile.iter().enumerate() {
            row[8 * g..8 * g + 8].copy_from_slice(a);
        }
    }
    T
}

/// The three sweeps a built-in backend runs inside the shared batch
/// drivers ([`Mlp::forward_batch_impl`], [`Mlp::backward_batch_impl`]),
/// fixed where the backend calls the driver: the drivers only block and
/// tile, they never ask which backend they serve.
pub(crate) struct Sweeps {
    pub(crate) forward_rows: ForwardRows,
    pub(crate) grad_rows: GradRows,
    pub(crate) input_grad: InputGrad,
}

/// Forward rows of one layer for a block of items:
/// `(layer, transposed weights, x, pre, y)`.
type ForwardRows = fn(&Linear, &[f32], &[f32], &mut [f32], &mut [f32]);
/// Parameter gradients of one tile over every item of the batch:
/// `(layer, x rows, dz rows, tile, weight-gradient tile, bias-gradient
/// tile)`.
type GradRows = fn(&Linear, Blocked<'_>, Blocked<'_>, GradTile, &mut [f32], &mut [f32]);
/// Backward step through one layer for a block of items — the activation
/// derivative in place on the upstream gradient, then the first `k`
/// columns of `dn = Wᵀ dz`: `(layer, dz, pre, y, dn, k)`.
type InputGrad = fn(&Linear, &mut [f32], &[f32], &[f32], &mut [f32], usize);

impl Sweeps {
    /// The hand-written untiled rows — the executable specification.
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

/// Items per block of [`MlpBatchWorkspace`]'s blocked layout. A block of
/// the default heads' activations and gradients is ~20 KB, so it stays in
/// L1 while every layer runs over it.
const BLOCK: usize = 32;

/// Blocks per run of [`grad_rows`], which runs every register tile of a
/// parameter-gradient tile over one run's items before the next run
/// starts: a run's `x` and `dz` rows come from memory once and from L2 for
/// every further tile. The widest layer the presets build, the first of
/// the Instant-NGP preset's colour head (48 inputs, 64 outputs), holds
/// 448 B of `x` and `dz` per item, so a run is 16 × 32 × 448 B = 224 KB:
/// about a tenth of a 2 MB L2, which leaves room for a hyper-thread
/// sibling's run and the gradient tile. A register tile loads and stores
/// its accumulators once per run, once per 512 items.
const RUN: usize = 16;

/// Reusable SoA scratch for batched forward/backward passes: the
/// activations of every item of a batch, retained between the forward and
/// backward pass so the backward never re-runs the forward (the scalar
/// training path re-forwards per point to rebuild activations).
///
/// The batch is stored in blocks of `BLOCK` (32) items, so one parallel
/// task owns every layer's rows of its items. Block `b` holds, each
/// row-major over the block's items: the input copy, then per layer its
/// pre-activation and — for every layer but the last, whose activation is
/// the network output `out` (`n × out_dim`) — its activation. The
/// backward keeps every layer's `dz` in the same blocked layout,
/// `Σ out_dim` floats per item.
///
/// A forward-only pass ([`MlpBatchWorkspace::forward_only`]) keeps no
/// block: each worker's run of blocks reuses one block of scratch, so the
/// pass holds one block per worker whatever its length.
///
/// All buffers grow once to the high-water batch size and are reused —
/// zero steady-state allocation. Every buffer is sized by the network of
/// each call, so one workspace serves any [`Mlp`].
#[derive(Debug, Clone, Default)]
pub struct MlpBatchWorkspace {
    /// Items whose activations the blocks hold (set by each forward: 0
    /// after a forward-only pass).
    n: usize,
    /// The forward blocks: input, pre-activations, hidden activations.
    blocks: Vec<f32>,
    /// The network output (`n × out_dim`, row-major).
    out: Vec<f32>,
    /// The backward's `dz` blocks, one sub-block per layer.
    dz: Vec<f32>,
    /// Column-major (transposed) weight scratch per layer, rebuilt by each
    /// forward pass (weights change between optimizer steps). Lets the
    /// tiled forward sweep read contiguous output-neuron rows.
    wt: Vec<Vec<f32>>,
}

impl MlpBatchWorkspace {
    /// Items whose activations the most recent forward kept for the
    /// backward (0 after a forward-only pass).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no activations are kept.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The forward-only pass: `mlp`'s batched forward over `n` items whose
    /// input rows `fill` writes (see [`RowFill`]), through `backend`, with
    /// no activation kept for a backward. Returns the `n × out_dim` output
    /// slice living inside this workspace.
    ///
    /// It runs the driver of [`Mlp::forward_batch_with`] with the same
    /// blocks and per-item arithmetic, so the outputs have its bits on
    /// any worker count. Where the pass splits, it splits into one
    /// contiguous run of blocks per worker, each reusing one block of
    /// scratch.
    pub fn forward_only<'w>(
        &'w mut self,
        backend: &BackendHandle,
        mlp: &Mlp,
        n: usize,
        fill: impl Fn(Range<usize>, &mut [f32]) + Sync,
    ) -> &'w [f32] {
        backend.mlp_forward_batch(mlp, n, &fill, false, self)
    }

    /// Grows every buffer a pass of `mlp` over `n` items uses to its size,
    /// so the pass allocates nothing: with `retain`, the retaining forward
    /// and the backward after it; without, the forward-only pass at the
    /// current worker count. A caller about to enter the worker pool calls
    /// this first, so the buffers come from its own thread's allocator
    /// arena rather than from whichever worker grows them.
    pub fn reserve(&mut self, mlp: &Mlp, n: usize, retain: bool) {
        let (_, _, kept) = mlp.forward_plan(n, retain);
        grown(&mut self.blocks, kept * BLOCK * mlp.block_width());
        grown(&mut self.out, n * mlp.out_dim());
        if retain {
            grown(&mut self.dz, n.div_ceil(BLOCK) * BLOCK * mlp.dz_width());
        }
        if self.wt.len() < mlp.layers.len() {
            self.wt.resize_with(mlp.layers.len(), Vec::new);
        }
        for (layer, wt) in mlp.layers.iter().zip(&mut self.wt) {
            grown(wt, layer.w.len());
        }
    }

    /// Items a retaining forward of `mlp` fits in this workspace's blocks
    /// without growing them: the most items such a pass has held here
    /// (rounded up to whole 32-item blocks).
    pub fn retained_capacity(&self, mlp: &Mlp) -> usize {
        self.blocks.len() / mlp.block_width() / BLOCK * BLOCK
    }
}

/// The first `len` elements of `buf`, grown with zeros to hold them.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
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

    /// FLOPs of one forward pass (one input point): twice its
    /// multiply-accumulate count.
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
    /// Unlike [`Mlp::backward_batch_with`], this takes only the full
    /// `in_dim` width, never a narrower leading-column `d_input`. Each
    /// layer runs the reference input-gradient and parameter-gradient
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
            let (iw, ow) = (layer.spec.in_dim, layer.spec.out_dim);
            // dz = dy ⊙ act'(pre), then the previous layer's dy = Wᵀ dz
            // (dead for the first layer when the caller passes no
            // `d_input`).
            let k = if i == 0 { d_input.len() } else { iw };
            let dz = &mut ws.d_cur[..ow];
            let (pre, y) = (&ws.pre[i], &ws.acts[i + 1]);
            input_grad_scalar(layer, dz, pre, y, &mut ws.d_next[..k], k);
            let (gw, gb) = &mut grads.layers[i];
            let tile = GradTile { o0: 0, rows: ow };
            let (x, dz) = (
                Blocked::one_block(&ws.acts[i], iw),
                Blocked::one_block(dz, ow),
            );
            grad_rows_scalar(layer, x, dz, tile, gw, gb);
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
        let mut ws = MlpBatchWorkspace::default();
        grown(
            &mut ws.blocks,
            capacity.div_ceil(BLOCK) * BLOCK * self.block_width(),
        );
        grown(&mut ws.out, capacity * self.out_dim());
        ws
    }

    /// Floats per item of a forward block: the input, every
    /// pre-activation, every hidden activation.
    fn block_width(&self) -> usize {
        let outs: usize = self.layers.iter().map(|l| 2 * l.spec.out_dim).sum();
        self.in_dim() + outs - self.out_dim()
    }

    /// Floats per item of a `dz` block: every layer's output width.
    fn dz_width(&self) -> usize {
        self.layers.iter().map(|l| l.spec.out_dim).sum()
    }

    /// Where layer `l`'s pre-activation sub-block starts in a forward
    /// block; its activation (hidden layers) follows it.
    fn pre_offset(&self, l: usize) -> usize {
        let before: usize = self.layers[..l].iter().map(|l| 2 * l.spec.out_dim).sum();
        BLOCK * (self.in_dim() + before)
    }

    /// Where layer `l`'s input sub-block starts in a forward block: the
    /// input copy, or the previous layer's activation.
    fn input_offset(&self, l: usize) -> usize {
        match l.checked_sub(1) {
            None => 0,
            Some(p) => self.pre_offset(p) + BLOCK * self.layers[p].spec.out_dim,
        }
    }

    /// Where layer `l`'s sub-block starts in a `dz` block.
    fn dz_offset(&self, l: usize) -> usize {
        BLOCK
            * self.layers[..l]
                .iter()
                .map(|l| l.spec.out_dim)
                .sum::<usize>()
    }

    /// Whether a batch of `n` items takes the pool: more than one worker,
    /// more than one block, and at least 2^15 forward FLOPs.
    fn parallel(&self, n: usize) -> bool {
        rayon::current_num_threads() > 1 && n > BLOCK && n * self.flops() >= 1 << 15
    }

    /// Batched forward pass over `n = inputs.len() / in_dim` row-major
    /// items through an explicit kernel backend ([`crate::kernels`]);
    /// returns the `n × out_dim` output slice living inside `ws`.
    ///
    /// Per-item arithmetic is identical to [`Mlp::forward`], and all
    /// parallel writes are disjoint rows, so results are bit-identical to
    /// the scalar path for any batch size and worker count. Activations
    /// stay in `ws` for [`Mlp::backward_batch_with`] — no re-forward
    /// needed. This is the driver's retaining mode with a row fill that
    /// copies `inputs`.
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
        let iw = self.in_dim();
        assert_eq!(inputs.len() % iw, 0, "input batch width mismatch");
        let fill = |items: Range<usize>, rows: &mut [f32]| {
            rows.copy_from_slice(&inputs[items.start * iw..items.end * iw]);
        };
        backend.mlp_forward_batch(self, inputs.len() / iw, &fill, true, ws)
    }

    /// The one batched forward driver of the built-in backends, over `n`
    /// items whose input rows `fill` writes straight into each block's
    /// input sub-block. Each block runs every layer's `sweeps.forward_rows`
    /// back to back while its rows sit in L1. The per-layer transposed
    /// weights are rebuilt once per call (weights change between optimizer
    /// steps), and the pass enters the pool at most once, when
    /// [`Mlp::parallel`] says so.
    ///
    /// With `retain` every block keeps its activations for the backward,
    /// and a split pass runs one task per block. Without it (forward
    /// only) a split pass runs one contiguous run of blocks per worker, and
    /// every block of a run reuses the run's one block of scratch.
    pub(crate) fn forward_batch_impl<'w>(
        &self,
        sweeps: &Sweeps,
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        let (parallel, span, kept) = self.forward_plan(n, retain);
        ws.n = if retain { n } else { 0 };
        ws.wt.resize_with(self.layers.len(), Vec::new);
        for (layer, wt) in self.layers.iter().zip(&mut ws.wt) {
            layer.fill_transposed(wt);
        }
        let bw = BLOCK * self.block_width();
        let scratch = grown(&mut ws.blocks, kept * bw);
        let out = grown(&mut ws.out, n * self.out_dim());
        let wt = &ws.wt[..];
        if parallel {
            scratch
                .par_chunks_mut(bw)
                .zip(out.par_chunks_mut(span * BLOCK * self.out_dim()))
                .enumerate()
                .for_each(|(t, (blk, yc))| {
                    self.forward_blocks(sweeps, wt, fill, t * span * BLOCK, blk, yc)
                });
        } else {
            self.forward_blocks(sweeps, wt, fill, 0, scratch, out);
        }
        out
    }

    /// How a forward pass over `n` items splits: whether it takes the
    /// pool, the blocks per task, and the forward blocks it holds (every
    /// block when it retains them, else one per task).
    fn forward_plan(&self, n: usize, retain: bool) -> (bool, usize, usize) {
        let blocks = n.div_ceil(BLOCK);
        let parallel = self.parallel(n);
        let span = match (parallel, retain) {
            (false, _) => blocks.max(1),
            (true, true) => 1,
            (true, false) => blocks.div_ceil(rayon::current_num_threads()),
        };
        let kept = if retain {
            blocks
        } else {
            blocks.div_ceil(span)
        };
        (parallel, span, kept)
    }

    /// Runs every layer over each block of a run of output rows `out`,
    /// whose first item is `first`. `blocks` holds either one forward
    /// block per output block (kept for the backward) or one block that
    /// every block of the run reuses.
    fn forward_blocks(
        &self,
        sweeps: &Sweeps,
        wt: &[Vec<f32>],
        fill: &RowFill<'_>,
        first: usize,
        blocks: &mut [f32],
        out: &mut [f32],
    ) {
        let (iw, ow) = (self.in_dim(), self.out_dim());
        let bw = BLOCK * self.block_width();
        let (last, held) = (self.layers.len() - 1, blocks.len());
        for (b, yc) in out.chunks_mut(BLOCK * ow).enumerate() {
            let m = yc.len() / ow;
            let blk = &mut blocks[(b * bw) % held..][..bw];
            let (x0, mut rest) = blk.split_at_mut(BLOCK * iw);
            let start = first + b * BLOCK;
            fill(start..start + m, &mut x0[..m * iw]);
            let mut x: &[f32] = &x0[..m * iw];
            for (l, (layer, wt)) in self.layers.iter().zip(wt).enumerate() {
                let lw = layer.spec.out_dim;
                let (pre, tail) = std::mem::take(&mut rest).split_at_mut(BLOCK * lw);
                let pre = &mut pre[..m * lw];
                if l == last {
                    (sweeps.forward_rows)(layer, wt, x, pre, yc);
                } else {
                    let (y, tail) = tail.split_at_mut(BLOCK * lw);
                    let y = &mut y[..m * lw];
                    (sweeps.forward_rows)(layer, wt, x, pre, y);
                    x = y;
                    rest = tail;
                }
            }
        }
    }

    /// Batched backward pass for the most recent
    /// [`Mlp::forward_batch_with`] on `ws` (`d_output` is `n × out_dim`,
    /// row-major), through an explicit kernel backend ([`crate::kernels`]).
    ///
    /// Accumulates parameter gradients into `grads` (per-parameter
    /// accumulation runs in item order) and writes the first `k` columns
    /// of each item's input gradient into `d_input` (`n × k` for any
    /// `k ≤ in_dim`; pass an empty slice to skip). Each column's sum is
    /// independent of the others, so a narrow `d_input` holds exactly the
    /// first `k` columns of the full-width result. Parallelism: item
    /// blocks for the activation-derivative / input-gradient sweeps,
    /// disjoint parameter tiles for the parameter-gradient sweep — every
    /// write is disjoint, so results do not depend on the worker count.
    /// Every backend produces gradients bit-identical to the scalar
    /// backend (and to `n` scalar [`Mlp::backward`] calls).
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

    /// The one batched backward driver of the built-in backends, in two
    /// parallel regions. The first runs over item blocks: each block
    /// carries the gradient from `d_output` down through every layer's
    /// `sweeps.input_grad` (activation derivative, then `Wᵀ dz`), keeping
    /// each layer's `dz`. The second runs over tiles of every layer's
    /// parameter gradient, each tile sweeping `sweeps.grad_rows` over the
    /// blocks in item order, so per-parameter accumulation stays in item
    /// order on every sweep set and tiling.
    pub(crate) fn backward_batch_impl(
        &self,
        sweeps: &Sweeps,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        let n = ws.n;
        let ow = self.out_dim();
        assert_eq!(d_output.len(), n * ow, "output gradient batch mismatch");
        let k = d_input.len().checked_div(n).unwrap_or(0);
        assert!(
            d_input.len() == n * k && k <= self.in_dim(),
            "input gradient batch mismatch"
        );
        let MlpBatchWorkspace {
            blocks, out, dz, ..
        } = ws;
        let dw = BLOCK * self.dz_width();
        dz.resize(n.div_ceil(BLOCK) * dw, 0.0);
        let (blocks, out) = (&blocks[..], &out[..n * ow]);
        let parallel = self.parallel(n);
        if parallel {
            let runs = dz
                .par_chunks_mut(dw)
                .zip(blocks.par_chunks(BLOCK * self.block_width()))
                .zip(out.par_chunks(BLOCK * ow))
                .zip(d_output.par_chunks(BLOCK * ow));
            if k == 0 {
                runs.for_each(|(((dzb, blk), yc), dyc)| {
                    self.backward_blocks(sweeps, dzb, blk, yc, dyc, &mut [])
                });
            } else {
                runs.zip(d_input.par_chunks_mut(BLOCK * k)).for_each(
                    |((((dzb, blk), yc), dyc), dic)| {
                        self.backward_blocks(sweeps, dzb, blk, yc, dyc, dic)
                    },
                );
            }
        } else {
            self.backward_blocks(sweeps, dz, blocks, out, d_output, d_input);
        }
        let pass = GradPass {
            mlp: self,
            sweeps,
            blocks,
            dz,
            n,
        };
        if parallel {
            pass.layers(0, &mut grads.layers);
        } else {
            for (l, (gw, gb)) in grads.layers.iter_mut().enumerate() {
                let rows = self.layers[l].spec.out_dim;
                pass.tile(l, GradTile { o0: 0, rows }, gw, gb);
            }
        }
        grads.count += n;
    }

    /// Carries the output gradient of each block of a run (`dz` blocks,
    /// forward `blocks`, output rows `out`, `d_output` rows, `d_input`
    /// rows of `k` columns) down through every layer.
    fn backward_blocks(
        &self,
        sweeps: &Sweeps,
        dz: &mut [f32],
        blocks: &[f32],
        out: &[f32],
        d_output: &[f32],
        d_input: &mut [f32],
    ) {
        let ow = self.out_dim();
        let items = d_output.len() / ow;
        let k = d_input.len().checked_div(items).unwrap_or(0);
        let mut d_input = d_input.chunks_mut(BLOCK * k.max(1));
        let last = self.layers.len() - 1;
        for (((dzb, blk), yc), dyc) in dz
            .chunks_mut(BLOCK * self.dz_width())
            .zip(blocks.chunks(BLOCK * self.block_width()))
            .zip(out.chunks(BLOCK * ow))
            .zip(d_output.chunks(BLOCK * ow))
        {
            let m = dyc.len() / ow;
            let dic = d_input.next().unwrap_or_default();
            for (l, layer) in self.layers.iter().enumerate().rev() {
                let lw = layer.spec.out_dim;
                let (below, cur) = dzb.split_at_mut(self.dz_offset(l));
                let cur = &mut cur[..m * lw];
                let pre = &blk[self.pre_offset(l)..][..m * lw];
                let y = if l == last {
                    cur.copy_from_slice(dyc);
                    yc
                } else {
                    &blk[self.pre_offset(l) + BLOCK * lw..][..m * lw]
                };
                match l.checked_sub(1) {
                    Some(p) => {
                        let pw = self.layers[p].spec.out_dim;
                        let dn = &mut below[self.dz_offset(p)..][..m * pw];
                        (sweeps.input_grad)(layer, cur, pre, y, dn, pw);
                    }
                    None => (sweeps.input_grad)(layer, cur, pre, y, dic, k),
                }
            }
        }
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

/// The read-only state of the parameter-gradient region: the forward and
/// `dz` blocks of an `n`-item batch, and the sweep to tile them with.
struct GradPass<'a> {
    mlp: &'a Mlp,
    sweeps: &'a Sweeps,
    blocks: &'a [f32],
    dz: &'a [f32],
    n: usize,
}

/// How one layer's parameter gradient splits into tiles: `count` row
/// blocks of `rows` rows (the last may be shorter).
#[derive(Debug, Clone, Copy)]
struct Tiling {
    rows: usize,
    count: usize,
}

impl Tiling {
    /// Tile `t`, and where its weight- and bias-gradient elements start.
    fn tile(&self, t: usize, spec: LayerSpec) -> (GradTile, usize, usize) {
        let o0 = t * self.rows;
        let tile = GradTile {
            o0,
            rows: self.rows.min(spec.out_dim - o0),
        };
        (tile, o0 * spec.in_dim, o0)
    }
}

impl GradPass<'_> {
    /// Splits a layer's parameter gradient into row blocks, about one per
    /// worker across the whole network in proportion to the layer's share
    /// of the work, and at least one. Every tile reads all of its layer's
    /// `x` and `dz` rows from past L2, so the fewest tiles that keep every
    /// worker busy read the least.
    fn tiling(&self, spec: LayerSpec) -> Tiling {
        let (iw, ow) = (spec.in_dim, spec.out_dim);
        let total: usize = self.mlp.flops() / 2;
        let target = (rayon::current_num_threads() * iw * ow)
            .div_ceil(total)
            .clamp(1, ow);
        let rows = ow.div_ceil(target);
        Tiling {
            rows,
            count: ow.div_ceil(rows),
        }
    }

    /// Every tile of the layers `first..` whose gradients are `grads`, as
    /// one fork-join tree.
    fn layers(&self, first: usize, grads: &mut [(Vec<f32>, Vec<f32>)]) {
        if let [(gw, gb)] = grads {
            let spec = self.mlp.layers[first].spec;
            let tiling = self.tiling(spec);
            self.tiles(first, tiling, 0..tiling.count, gw, gb);
            return;
        }
        let mid = grads.len() / 2;
        let (a, b) = grads.split_at_mut(mid);
        rayon::join(|| self.layers(first, a), || self.layers(first + mid, b));
    }

    /// Tiles `ts` of layer `l`, which own `gw` and `gb`.
    fn tiles(
        &self,
        l: usize,
        tiling: Tiling,
        ts: std::ops::Range<usize>,
        gw: &mut [f32],
        gb: &mut [f32],
    ) {
        let spec = self.mlp.layers[l].spec;
        if ts.len() == 1 {
            let (tile, _, _) = tiling.tile(ts.start, spec);
            return self.tile(l, tile, gw, gb);
        }
        let mid = ts.start + ts.len() / 2;
        let (_, w0, b0) = tiling.tile(ts.start, spec);
        let (_, w1, b1) = tiling.tile(mid, spec);
        let (gwa, gwb) = gw.split_at_mut(w1 - w0);
        let (gba, gbb) = gb.split_at_mut(b1 - b0);
        rayon::join(
            || self.tiles(l, tiling, ts.start..mid, gwa, gba),
            || self.tiles(l, tiling, mid..ts.end, gwb, gbb),
        );
    }

    /// One tile of layer `l`: `sweeps.grad_rows` over every block.
    fn tile(&self, l: usize, tile: GradTile, gw: &mut [f32], gb: &mut [f32]) {
        let mlp = self.mlp;
        let spec = mlp.layers[l].spec;
        let x = Blocked {
            data: self.blocks,
            stride: BLOCK * mlp.block_width(),
            offset: mlp.input_offset(l),
            width: spec.in_dim,
            n: self.n,
        };
        let dz = Blocked {
            data: self.dz,
            stride: BLOCK * mlp.dz_width(),
            offset: mlp.dz_offset(l),
            width: spec.out_dim,
            n: self.n,
        };
        (self.sweeps.grad_rows)(&mlp.layers[l], x, dz, tile, gw, gb);
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
