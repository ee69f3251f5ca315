//! The instrumented co-simulation backend: SIMD numerics plus an optional
//! recorder for the hash-grid read/update address streams of real
//! training steps.
//!
//! The Instant-3D accelerator's FRM and BUM units are characterised from
//! training address streams (Figs. 12/13). Before this backend existed the
//! `instant3d-accel` cycle simulators could only replay pre-captured trace
//! files; [`InstrumentedKernels`] closes the loop by observing the batched
//! engine's **real memory traffic** — the level-major encode reads and the
//! per-level scatter updates, in the exact order the engine issues them —
//! during live `Trainer::step` calls, with zero trace files on disk.
//! `instant3d_accel::cosim` consumes the [`RecordedStreams`] and produces
//! FRM/BUM utilisation numbers online.
//!
//! With recording **off** (the default) every method delegates straight to
//! [`SimdKernels`] behind one relaxed atomic load, so the backend is
//! usable as an everyday backend (it participates in the golden suites and
//! the CI matrix like any other registered backend). With recording **on**
//! the grid kernels run the *observed scalar* bodies — bit-identical to
//! the SIMD kernels by the bit-identity contract — sequentially
//! ([`Kernels::sequential_grid`]), so the captured stream order is
//! deterministic.

use super::{Kernels, SimdKernels};
use crate::grid::{AccessPhase, GridAccessObserver, HashGrid};
use crate::math::Vec3;
use crate::mlp::{Mlp, MlpBatchWorkspace, MlpGradients};
use crate::render::RenderOutput;
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One contiguous run of recorded grid accesses: a single encode call's
/// feed-forward reads, or a single level's scatter updates.
///
/// Segments are tagged with the shape of the grid they came from
/// (`grid_levels`, `grid_params`) so streams of different grids — the
/// decoupled density and color tables live in separate SRAM regions — can
/// be told apart without the backend knowing branch names. (Two distinct
/// grids with identical shape would share a tag; with the paper's
/// `S_D : S_C = 1 : 0.25` sizing they never do.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSegment {
    /// Feed-forward reads or back-propagation updates.
    pub phase: AccessPhase,
    /// Level count of the grid that produced the segment.
    pub grid_levels: usize,
    /// Parameter count of the grid that produced the segment.
    pub grid_params: usize,
    /// The addresses, in execution order. Feed-forward entries are flat
    /// whole-table entry indices (`entry_offset(level) + in-level addr`,
    /// the address a grid core's SRAM banking sees — always `< 2³²`);
    /// back-propagation entries are `(level << 32) | in-level addr` keys
    /// (what the BUM's one-to-all address match compares).
    pub addrs: Vec<u64>,
}

/// Everything one recording session captured, in execution order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordedStreams {
    /// Recorded segments, in capture order.
    pub segments: Vec<StreamSegment>,
}

impl RecordedStreams {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total recorded accesses across all segments and phases.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.addrs.len()).sum()
    }

    fn matches(seg: &StreamSegment, phase: AccessPhase, grid: &HashGrid) -> bool {
        seg.phase == phase
            && seg.grid_levels == grid.levels().len()
            && seg.grid_params == grid.num_params()
    }

    /// The feed-forward read stream of `grid` as flat whole-table entry
    /// addresses in capture order — the input shape of
    /// `instant3d_accel::simulate_frm`.
    pub fn reads_flat_for(&self, grid: &HashGrid) -> Vec<u32> {
        self.segments
            .iter()
            .filter(|s| Self::matches(s, AccessPhase::FeedForward, grid))
            .flat_map(|s| s.addrs.iter().map(|&a| a as u32))
            .collect()
    }

    /// The back-propagation update stream of `grid` as
    /// `(level << 32) | addr` keys in capture order. The batched engine
    /// scatters level by level, so the stream is naturally level-major —
    /// the hardware-visible order the BUM merges.
    pub fn updates_for(&self, grid: &HashGrid) -> Vec<u64> {
        self.segments
            .iter()
            .filter(|s| Self::matches(s, AccessPhase::BackProp, grid))
            .flat_map(|s| s.addrs.iter().copied())
            .collect()
    }
}

/// Records one kernel call's accesses, keyed for the segment tag.
struct StreamObserver<'a> {
    grid: &'a HashGrid,
    addrs: Vec<u64>,
}

impl GridAccessObserver for StreamObserver<'_> {
    #[inline]
    fn on_access(&mut self, phase: AccessPhase, level: u32, _corner: u8, addr: u32) {
        let key = match phase {
            AccessPhase::FeedForward => (self.grid.entry_offset(level as usize) + addr) as u64,
            AccessPhase::BackProp => ((level as u64) << 32) | addr as u64,
        };
        self.addrs.push(key);
    }
}

/// The `"instrumented"` backend: [`SimdKernels`] numerics with an
/// attachable address-stream recorder for the hash-grid read/update
/// streams of real training steps.
///
/// A shared instance is registered as a built-in
/// ([`super::instrumented`]); isolated co-sim sessions can wrap a fresh
/// instance in a [`super::BackendHandle`] instead:
///
/// ```
/// use instant3d_nerf::kernels::{BackendHandle, InstrumentedKernels};
///
/// let backend = BackendHandle::new(InstrumentedKernels::new());
/// let rec = backend.downcast_ref::<InstrumentedKernels>().unwrap();
/// assert!(!rec.is_recording());
/// rec.start_recording();
/// // ... run Trainer::step / kernel calls with `backend` ...
/// rec.stop_recording();
/// let streams = rec.take_streams();
/// assert!(streams.is_empty()); // nothing ran in this doctest
/// ```
#[derive(Debug, Default)]
pub struct InstrumentedKernels {
    inner: SimdKernels,
    recording: AtomicBool,
    segments: Mutex<Vec<StreamSegment>>,
}

impl InstrumentedKernels {
    /// A fresh backend with recording off and an empty stream buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts capturing grid address streams. Flip only **between**
    /// engine steps: the flag is sampled per kernel call, so toggling
    /// mid-step would record a partial stream (numerics are unaffected
    /// either way).
    ///
    /// The flag is genuinely `Relaxed` on both ends: segment contents are
    /// synchronized by the stream mutex, and the between-steps discipline
    /// means there is no cross-thread hand-off to order against.
    pub fn start_recording(&self) {
        // ORDERING: Relaxed — flag only; stream data is mutex-guarded.
        self.recording.store(true, Ordering::Relaxed);
    }

    /// Stops capturing. Already-recorded segments stay buffered until
    /// [`InstrumentedKernels::take_streams`].
    pub fn stop_recording(&self) {
        // ORDERING: Relaxed — flag only; stream data is mutex-guarded.
        self.recording.store(false, Ordering::Relaxed);
    }

    /// Whether grid calls are currently being recorded.
    pub fn is_recording(&self) -> bool {
        // ORDERING: Relaxed — flag only; stream data is mutex-guarded.
        self.recording.load(Ordering::Relaxed)
    }

    /// Drains and returns everything recorded so far.
    pub fn take_streams(&self) -> RecordedStreams {
        RecordedStreams {
            // PANICS: lock poisoning means a recording worker already
            // panicked — propagate rather than return a torn trace.
            segments: std::mem::take(&mut *self.segments.lock().unwrap()),
        }
    }

    fn push_segment(&self, phase: AccessPhase, grid: &HashGrid, addrs: Vec<u64>) {
        if addrs.is_empty() {
            return;
        }
        // PANICS: lock poisoning means a recording worker already
        // panicked — propagate rather than record onto a torn trace.
        self.segments.lock().unwrap().push(StreamSegment {
            phase,
            grid_levels: grid.levels().len(),
            grid_params: grid.num_params(),
            addrs,
        });
    }
}

impl Kernels for InstrumentedKernels {
    fn name(&self) -> &'static str {
        "instrumented"
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        unit_positions: &[Vec3],
        out: &mut [f32],
    ) {
        if !self.is_recording() {
            return self
                .inner
                .grid_encode_levels_chunk(grid, levels, unit_positions, out);
        }
        // Observed scalar bodies: same level-major order and bits as the
        // SIMD kernels, plus the address stream.
        let mut obs = StreamObserver {
            grid,
            addrs: Vec::with_capacity(unit_positions.len() * 8 * levels.len()),
        };
        for &l in levels {
            grid.encode_level_observed(l, unit_positions, out, &mut obs);
        }
        self.push_segment(AccessPhase::FeedForward, grid, obs.addrs);
    }

    fn grid_scatter_level(
        &self,
        grid: &HashGrid,
        level: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    ) {
        if !self.is_recording() {
            return self
                .inner
                .grid_scatter_level(grid, level, level_grads, unit_positions, d_out);
        }
        let mut obs = StreamObserver {
            grid,
            addrs: Vec::with_capacity(unit_positions.len() * 8),
        };
        grid.scatter_level_observed(level, level_grads, unit_positions, d_out, &mut obs);
        self.push_segment(AccessPhase::BackProp, grid, obs.addrs);
    }

    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32] {
        self.inner.mlp_forward_batch(mlp, inputs, ws)
    }

    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    ) {
        self.inner
            .mlp_backward_batch(mlp, d_output, ws, grads, d_input);
    }

    fn composite_ray(
        &self,
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize) {
        self.inner
            .composite_ray(t, dt, sigma, rgb, background, cache)
    }

    /// Sequential while recording, so the captured stream order is the
    /// deterministic level-major/level-ordered execution order.
    fn sequential_grid(&self) -> bool {
        self.is_recording()
    }
}
