//! The kernel-backend API: the [`Kernels`] trait, the built-in backends,
//! and their by-name lookup.
//!
//! The batched SoA engine dispatches every hot kernel through a
//! [`Kernels`] trait object instead of a closed enum. The trait has five
//! seams: the level-subset grid encode ([`Kernels::grid_encode_levels_chunk`];
//! a full encode is the subset of every level), the per-level gradient
//! scatter ([`Kernels::grid_scatter_level`]), the MLP batched forward and
//! backward ([`Kernels::mlp_forward_batch`], [`Kernels::mlp_backward_batch`])
//! and per-ray compositing ([`Kernels::composite_ray`]). The forward seam
//! serves both forward modes: one call reads its input rows through a row
//! fill and either keeps the activations for the backward (training) or
//! keeps none (the tile renderer, the occupancy refresh). Three backends
//! ship in-tree:
//!
//! * [`ScalarKernels`] (`"scalar"`) — the scalar reference kernels, the
//!   executable specification every other backend is tested against.
//! * [`SimdKernels`] (`"simd"`, the default) — lane-batched SIMD kernels
//!   built on the [`crate::simd`] lane types: one body per grid,
//!   compositing and MLP seam (one register-tiled body per MLP sweep),
//!   run in runtime-detected AVX2 arms where the host has AVX2 and
//!   portably otherwise, with the same bits.
//! * [`CheckedKernels`] (`"checked"`) — the shadow executor: wraps the
//!   SIMD kernels and re-derives every output through the scalar
//!   reference, panicking on the first diverging bit, to pin the fixed
//!   accumulation order.
//!
//! The set is closed: everything that names a backend —
//! `TrainConfig::kernel_backend`, the `INSTANT3D_KERNEL_BACKEND`
//! environment variable, `WorkloadStats::backend` — resolves against these
//! three. Any other [`Kernels`] implementation (a test's mock, say) is
//! wrapped with [`BackendHandle::new`] and handed to the engine directly.
//!
//! # The registration contract
//!
//! Being a built-in backend is a claim about its numerics, and there is one
//! claim: **a backend is bit-identical to [`ScalarKernels`]** on every
//! kernel, for every batch size and worker count. Concretely a conforming
//! backend must preserve:
//!
//! * **Additive order** — for each output scalar, the sequence of IEEE 754
//!   additions (per-corner embedding accumulation, per-parameter gradient
//!   accumulation in point order, the GEMV's `i`-ascending sum, the
//!   sequential transmittance recurrence) is exactly the scalar kernel's.
//!   Batching may only group *independent* scalars.
//! * **No FMA** — every multiply-add is a distinct IEEE multiply followed
//!   by a distinct IEEE add; a fused multiply-add rounds once instead of
//!   twice and silently breaks bit-equality.
//! * **Exact elementwise math** — no approximate reciprocals/rsqrt/vector
//!   exp; transcendentals stay scalar per element.
//!
//! The whole trace story depends on it: the FRM/BUM replays read the
//! scalar reference step's streams, which describe the engine only because
//! the engine has the reference's bits. The differential and golden suites
//! (`crates/nerf/tests/simd_differential.rs`,
//! `crates/nerf/tests/occupancy_differential.rs`,
//! `crates/core/tests/batched_equivalence.rs`, `tests/batched_equivalence.rs`)
//! iterate every [`registered`] backend, so no built-in backend can skip
//! them. A backend that trades bits for speed would need a contract, and
//! a gate, of its own.
//!
//! Every backend runs on every host: [`SimdKernels`]' AVX2 paths are
//! runtime specialisations over a portable fallback with identical
//! results.
//!
//! # Selecting a backend
//!
//! ```
//! use instant3d_nerf::kernels;
//!
//! // By name (panics on unknown names, listing the built-in ones):
//! let simd = kernels::resolve("simd");
//! assert_eq!(simd.name(), "simd");
//! // The built-ins have direct accessors:
//! assert_eq!(kernels::scalar().name(), "scalar");
//! // And the environment override used by the CI matrix:
//! let backend = kernels::from_env_or_default();
//! assert!(kernels::names().contains(&backend.name()));
//! ```
//!
//! # Contract enforcement
//!
//! Each part of the contract is carried by the one mechanism that can
//! actually see it; a new built-in backend opts in by joining the list
//! behind [`registered`].
//!
//! | | proves | how |
//! |---|---|---|
//! | **The compiler** | parallel tasks write **disjoint, in-bounds, gap-free** ranges | every dispatch seam hands its tasks `&mut` slices cut by `par_chunks_mut().zip(..)` or a `split_at_mut` partition (the per-level scatter's lives in one private helper in `grid.rs`), and `#![deny(unsafe_code)]` keeps a raw-pointer dispatcher from appearing unannounced — an overlapping, aliased or outliving write is a compile error (`compile_fail` doctests on that helper and on [`RayBatchCache`](crate::render::RayBatchCache)) |
//! | **clippy** | **no FMA**, the `unsafe` / `#[target_feature]` census, **determinism**, the **panic census**, a stated reason for every **atomic** | `cargo clippy` runs the lints below over every crate |
//! | **`checked` + the pool's protocol test** | what neither sees: **accumulation order**, the work-stealing pool's **sleep/latch orderings** | [`CheckedKernels`] re-runs every seam through [`ScalarKernels`] on a shadow copy and panics on the first diverging bit; a test in `vendor/rayon` pins every atomic ordering in the pool per function |
//!
//! `checked` rides the CI backend × worker matrix
//! (`.github/workflows/ci.yml`), whose axis is derived from [`names`]
//! by `tests/backend_api.rs`, so neither a new backend nor the checker
//! itself can silently drop out.
//!
//! **The clippy lints** (`cargo clippy --workspace --all-targets -- -D
//! warnings`; `[workspace.lints.clippy]` plus per-crate `clippy.toml`):
//!
//! * FMA — `clippy::disallowed_methods` forbids `f32`'s fused
//!   multiply-add anywhere in this crate (`crates/nerf/clippy.toml`), with
//!   no exception.
//! * `unsafe` — `clippy::undocumented_unsafe_blocks` requires a
//!   `// SAFETY:` comment on every `unsafe` block and
//!   `clippy::missing_safety_doc` a `# Safety` section on every `unsafe`
//!   or `#[target_feature]` fn, private ones included. The
//!   `#[target_feature]` fns are safe fns (target-feature 1.1), so calling
//!   one outside a feature-enabled context is a compile error without an
//!   `unsafe` block. All seven are expansions of one dispatch macro in this
//!   module, whose one `unsafe` block's `// SAFETY:` names its runtime
//!   CPUID guard, and none enables FMA.
//! * Determinism — `clippy::disallowed_types` (`HashMap`, `HashSet`) and
//!   `clippy::disallowed_methods` (`Instant::now`) in the kernel, trainer
//!   and serving crates: iteration order and wall-clock reads must never
//!   feed kernel numerics. Each telemetry site carries an `#[expect]`
//!   whose reason says why it cannot.
//! * Atomics — `clippy::disallowed_types` lists every
//!   `std::sync::atomic` type in the workspace's `clippy.toml` files
//!   (`vendor/rayon` excepted, see below). The one remaining site, the
//!   tile renderer's work ticket, carries an `#[expect]` whose reason says
//!   why `Relaxed` is enough.
//! * Panics — the kernel and trainer hot-path modules open with
//!   `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]`;
//!   each remaining site carries an `#[expect]` whose reason argues why
//!   aborting is the contractually correct response.
//!   `clippy::allow_attributes_without_reason` keeps that reason
//!   mandatory.
//!
//! **The pool's protocol test** (`vendor/rayon/tests/atomics_protocol.rs`)
//! counts every `Ordering::*` outside tests in `vendor/rayon/src`, per file
//! and enclosing function, and asserts the counts equal a literal table of
//! the sleep/latch protocol's sites. A weakened, added or deleted ordering
//! — including any `Relaxed` — fails it;
//! `sleep_wake_cycles_never_lose_a_wakeup` is the protocol's dynamic check.

/// Stamps kernel wrappers whose bodies are compiled twice: as a safe
/// `#[target_feature(enable = "avx2")]` fn, called when the host has AVX2,
/// and portably otherwise (the six `simd` seam bodies and the grid
/// optimizer tail's per-level sweep, all in `builtin.rs`). AVX2 alone:
/// with no FMA enabled an arm cannot contain a fused multiply-add whatever
/// the compiler does, so `acc + w * x` stays two roundings on eight lanes,
/// and without F16C it cannot narrow to fp16 in hardware either.
///
/// `@detect` is the guard: each expansion runs the CPUID check once per
/// process and caches the answer; it is always `false` off x86_64.
macro_rules! dispatched_kernels {
    (@detect) => {{
        #[cfg(target_arch = "x86_64")]
        {
            static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
            *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }};
    (@kernel
        $(#[$doc:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$doc])*
        #[allow(unsafe_code, reason = "calls the target-feature arm behind its runtime guard")]
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            /// The body, compiled with AVX2 enabled.
            ///
            /// # Safety
            ///
            /// Callable only on a host with AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn arm($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            if dispatched_kernels!(@detect) {
                // SAFETY: the `@detect` guard just confirmed that this host
                // has AVX2, the one feature `arm` is compiled with and its
                // only obligation.
                return unsafe { arm($($arg),*) };
            }
            $body
        }
    };
    ($($(#[$doc:meta])* $vis:vis fn $name:ident $args:tt $(-> $ret:ty)? $body:block)+) => {
        $(dispatched_kernels!(@kernel $(#[$doc])* $vis fn $name $args $(-> $ret)? $body);)+
    };
}

mod builtin;
mod checked;

pub(crate) use builtin::consume_sweep;
pub use builtin::{ScalarKernels, SimdKernels};
pub use checked::CheckedKernels;

use crate::grid::{GridLayout, HashGrid};
use crate::math::Vec3;
use crate::mlp::{Mlp, MlpBatchWorkspace, MlpGradients, RowFill};
use crate::render::RenderOutput;
use std::sync::{Arc, OnceLock};

/// The numeric contract a backend is built in under. There is one: every
/// backend is bit-identical to [`ScalarKernels`] (see the
/// [module docs](self#the-registration-contract)).
///
/// The type survives for one reason only: the perf ledger (`ledger/`, a
/// package of its own) stamps `default_backend().tier().label()` into
/// every result set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// Bit-identical to [`ScalarKernels`] on every kernel.
    Strict,
}

impl Tier {
    /// `"strict"` — the stable label the perf ledger records.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Strict => "strict",
        }
    }
}

/// One interchangeable implementation of the batched engine's hot kernels.
///
/// Implementations must be bit-identical to [`ScalarKernels`] (see the
/// [module docs](self#the-registration-contract)). The easiest way to
/// satisfy that from outside this crate is to delegate the
/// numerics to a built-in backend (see [`CheckedKernels`], which wraps
/// [`SimdKernels`]); backends with their own kernels should build on
/// the observed scalar bodies ([`HashGrid::encode_level_observed`],
/// [`GridLayout::scatter_level_observed`]) or re-derive the scalar operation
/// order exactly.
///
/// All methods take `&self` and may run concurrently from multiple rayon
/// workers (the grid methods are called once per disjoint chunk / level);
/// backends that need mutable state must synchronise it internally.
pub trait Kernels: Send + Sync + std::fmt::Debug {
    /// The backend's name — stamped into `WorkloadStats` and panic
    /// messages. Lowercase, stable, unique among the built-in backends.
    fn name(&self) -> &'static str;

    /// Which contract this backend is built in under: [`Tier::Strict`], the
    /// only one (see [`Tier`] for why the method exists).
    fn tier(&self) -> Tier {
        Tier::Strict
    }

    /// Encodes one chunk of unit-cube points for the listed grid levels,
    /// in list order, into the `chunk × output_dim` row-major SoA slice
    /// `out`, leaving every other level's columns untouched.
    ///
    /// Called by [`HashGrid::par_encode_batch_levels_with`] once per
    /// disjoint chunk (once for the whole batch on a one-worker pool or a
    /// batch of at most one chunk) — with every level for a full encode
    /// ([`HashGrid::par_encode_batch_with`]), with the dirty levels for
    /// the occupancy cache's refresh.
    fn grid_encode_levels_chunk(
        &self,
        grid: &HashGrid,
        levels: &[usize],
        unit_positions: &[Vec3],
        out: &mut [f32],
    );

    /// Scatters the embedding gradients of one grid level: `level_grads`
    /// is that level's gradient slice (a slice of the flat gradient buffer
    /// or a level-sized buffer of its own), and per-parameter accumulation
    /// must run in point order ([`HashGrid::par_backward_batch_with`] and
    /// [`HashGrid::par_backward_step_with`] call this once per level).
    /// The seam sees the grid's [`GridLayout`], not its table: a scatter
    /// reads no feature, and another level's optimizer sweep may be
    /// writing the table meanwhile.
    fn grid_scatter_level(
        &self,
        grid: &GridLayout,
        level: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    );

    /// Batched MLP forward over `n` items whose input rows `fill` writes
    /// (see [`RowFill`]); returns the `n × out_dim` output slice living
    /// inside `ws`. With `retain` the activations stay in `ws` for
    /// [`Kernels::mlp_backward_batch`] (the seam behind
    /// [`Mlp::forward_batch_with`]); without it none is kept (the seam
    /// behind [`MlpBatchWorkspace::forward_only`]). Both modes have the
    /// same output bits.
    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        n: usize,
        fill: &RowFill<'_>,
        retain: bool,
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32];

    /// Batched MLP backward for the most recent forward on `ws` (the seam
    /// behind [`Mlp::backward_batch_with`]). `d_input` is `n × k` for any
    /// `k ≤ in_dim`, or empty: it receives the first `k` columns of each
    /// item's input gradient, bit-identical to those columns of the
    /// full-width result.
    fn mlp_backward_batch(
        &self,
        mlp: &Mlp,
        d_output: &[f32],
        ws: &mut MlpBatchWorkspace,
        grads: &mut MlpGradients,
        d_input: &mut [f32],
    );

    /// Composites one ray's SoA sample slices front-to-back
    /// ([`crate::render::composite_slices`] is the scalar reference).
    /// Returns the render output and the integrated
    /// (pre-early-termination) sample count; cache slices receive
    /// per-sample state when provided.
    fn composite_ray(
        &self,
        t: &[f32],
        dt: &[f32],
        sigma: &[f32],
        rgb: &[Vec3],
        background: Vec3,
        cache: Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize);
}

/// A shared, cheaply clonable handle to a built-in (or ad-hoc) backend.
///
/// This is what flows through the engine: `TrainConfig::kernel_backend` →
/// `NerfModel` → `BatchWorkspace` / `OccupancyWorkspace` all hold a
/// `BackendHandle` and dispatch through it, instead of matching on an enum
/// at every call site. Handles compare equal iff their backend names do.
#[derive(Clone)]
pub struct BackendHandle(Arc<dyn Kernels>);

impl BackendHandle {
    /// Wraps a backend implementation in a handle, directly usable by the
    /// engine (a test can hand a private mock straight to `TrainConfig`).
    /// Only the built-in backends are resolvable by name.
    pub fn new<K: Kernels + 'static>(kernels: K) -> Self {
        BackendHandle(Arc::new(kernels))
    }
}

impl std::ops::Deref for BackendHandle {
    type Target = dyn Kernels;
    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl PartialEq for BackendHandle {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for BackendHandle {}

impl std::hash::Hash for BackendHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

impl std::fmt::Debug for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BackendHandle({})", self.name())
    }
}

impl std::fmt::Display for BackendHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The built-in backends, in the order `scalar`, `simd`, `checked`: the
/// closed set that [`get`], [`resolve`], [`registered`], [`names`] and
/// [`from_env`] read, built once per process.
fn builtins() -> &'static [BackendHandle; 3] {
    static BUILTINS: OnceLock<[BackendHandle; 3]> = OnceLock::new();
    BUILTINS.get_or_init(|| {
        [
            BackendHandle::new(ScalarKernels),
            BackendHandle::new(SimdKernels),
            BackendHandle::new(CheckedKernels::new()),
        ]
    })
}

/// Looks a built-in backend up by name (case-insensitive, surrounding
/// whitespace ignored).
pub fn get(name: &str) -> Option<BackendHandle> {
    let wanted = name.trim();
    builtins()
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(wanted))
        .cloned()
}

/// Resolves a backend by name.
///
/// # Panics
///
/// Panics on unknown names, listing every built-in backend — a typo in
/// a config or CI matrix entry must fail loudly instead of silently
/// running the default backend.
pub fn resolve(name: &str) -> BackendHandle {
    get(name).unwrap_or_else(|| {
        panic!(
            "unknown kernel backend {:?}; registered backends: {}",
            name.trim(),
            described_names()
        )
    })
}

/// All built-in backends, in the order `scalar`, `simd`, `checked`.
pub fn registered() -> Vec<BackendHandle> {
    builtins().to_vec()
}

/// The built-in backend names, in [`registered`] order.
pub fn names() -> Vec<&'static str> {
    builtins().iter().map(|b| b.name()).collect()
}

/// `"name"` for every built-in backend — the panic payload of
/// [`resolve`] / [`from_env_value`].
fn described_names() -> String {
    names()
        .iter()
        .map(|name| format!("{name:?}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The scalar reference backend.
pub fn scalar() -> BackendHandle {
    get("scalar").expect("built-in scalar backend")
}

/// The lane-batched SIMD backend.
pub fn simd() -> BackendHandle {
    get("simd").expect("built-in simd backend")
}

/// The shadow-execution backend: SIMD
/// numerics plus a bitwise scalar shadow comparison of every seam — see
/// [`CheckedKernels`].
pub fn checked() -> BackendHandle {
    get("checked").expect("built-in checked backend")
}

/// The engine's default backend (`simd`).
pub fn default_backend() -> BackendHandle {
    simd()
}

/// The backend requested by `INSTANT3D_KERNEL_BACKEND`, if the variable is
/// set — the hook the CI matrix uses to force every built-in backend
/// through the full suite.
///
/// # Panics
///
/// Panics when the variable names no built-in backend (see
/// [`resolve`]).
pub fn from_env() -> Option<BackendHandle> {
    from_env_value(std::env::var("INSTANT3D_KERNEL_BACKEND").ok().as_deref())
}

/// [`from_env`]'s env-independent core, split out so the unknown-name
/// panic is testable without mutating process-global environment state.
/// The lookup is a plain [`get`] — no hand-rolled name matching.
pub fn from_env_value(value: Option<&str>) -> Option<BackendHandle> {
    let v = value?;
    match get(v) {
        Some(handle) => Some(handle),
        None => panic!(
            "invalid INSTANT3D_KERNEL_BACKEND value {:?}; registered backends: {}",
            v.trim(),
            described_names()
        ),
    }
}

/// The env-var backend if set, otherwise [`default_backend`].
pub fn from_env_or_default() -> BackendHandle {
    from_env().unwrap_or_else(default_backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_detection_is_stable_across_calls() {
        let detect = || dispatched_kernels!(@detect);
        assert_eq!(detect(), detect());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(detect(), std::arch::is_x86_feature_detected!("avx2"));
    }

    #[test]
    fn builtins_are_registered_in_order() {
        assert_eq!(names(), ["scalar", "simd", "checked"]);
        assert_eq!(registered().len(), 3);
        assert_eq!(default_backend().name(), "simd");
    }

    #[test]
    fn lookup_is_case_and_whitespace_insensitive() {
        assert_eq!(get(" SIMD ").unwrap().name(), "simd");
        assert_eq!(resolve("Scalar").name(), "scalar");
        assert!(get("avx512").is_none());
    }

    #[test]
    fn handles_compare_and_print_by_name() {
        assert_eq!(scalar(), scalar());
        assert_ne!(scalar(), simd());
        assert_eq!(simd().to_string(), "simd");
        assert_eq!(format!("{:?}", scalar()), "BackendHandle(scalar)");
    }

    #[test]
    fn env_accepts_valid_and_unset_values() {
        assert!(from_env_value(None).is_none());
        assert_eq!(from_env_value(Some("scalar")).unwrap().name(), "scalar");
        assert_eq!(from_env_value(Some(" Simd ")).unwrap().name(), "simd");
        assert_eq!(from_env_value(Some("checked")).unwrap().name(), "checked");
    }

    #[test]
    #[should_panic(expected = "invalid INSTANT3D_KERNEL_BACKEND value \"smid\"")]
    fn env_rejects_typos_loudly() {
        // A misspelled CI matrix entry must fail the run, not silently
        // re-test the default backend.
        let _ = from_env_value(Some("smid"));
    }

    #[test]
    #[should_panic(expected = "registered backends: \"scalar\", \"simd\", \"checked\"")]
    fn resolve_panic_lists_every_registered_name() {
        let _ = resolve("no-such-backend");
    }
}
