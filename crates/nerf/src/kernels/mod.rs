//! The open kernel-backend API: the [`Kernels`] trait, the process-wide
//! backend registry, and the built-in backends.
//!
//! The batched SoA engine dispatches every hot kernel through a
//! [`Kernels`] trait object instead of a closed enum. The trait has five
//! seams: the level-subset grid encode ([`Kernels::grid_encode_levels_chunk`];
//! a full encode is the subset of every level), the per-level gradient
//! scatter ([`Kernels::grid_scatter_level`]), the MLP batched forward and
//! backward ([`Kernels::mlp_forward_batch`], [`Kernels::mlp_backward_batch`])
//! and per-ray compositing ([`Kernels::composite_ray`]). Four backends
//! ship in-tree:
//!
//! * [`ScalarKernels`] (`"scalar"`) — the scalar reference kernels, the
//!   executable specification every other backend is tested against.
//! * [`SimdKernels`] (`"simd"`, the default) — lane-batched SIMD kernels
//!   built on the [`crate::simd`] lane types: one body per grid,
//!   compositing and MLP seam (one blocked body per MLP sweep), generic
//!   over the accumulate policy that [`crate::simd`] owns; `simd` runs the
//!   `Strict` monomorphs, in runtime-detected AVX2 arms where the host
//!   has AVX2 and portably otherwise, with the same bits.
//! * [`FastKernels`] (`"fast"`) — the first **lossy-tier** backend: the
//!   same bodies instantiated with a fused accumulate policy private to
//!   `kernels/fast.rs`, with runtime-detected AVX2/FMA specialisations,
//!   trading bit-identity for speed under a declared [`Tolerance`].
//! * [`CheckedKernels`] (`"checked"`) — the strict-tier shadow executor:
//!   wraps the SIMD kernels and re-derives every output through the scalar
//!   reference, panicking on the first diverging bit, to pin the fixed
//!   accumulation order.
//!
//! New backends register at runtime through [`register`]; everything that
//! names a backend — `TrainConfig::kernel_backend`, the
//! `INSTANT3D_KERNEL_BACKEND` environment variable,
//! `WorkloadStats::backend` — resolves through this one registry.
//!
//! # The two-tier registration contract
//!
//! Registering a backend is a claim about its numerics, and the claim now
//! comes in two tiers, declared via [`Kernels::tier`]:
//!
//! ## `Tier::Strict` — the bit-identity contract
//!
//! **A strict backend claims it is bit-identical to [`ScalarKernels`]** on
//! every kernel, for every batch size and worker count. Concretely a
//! conforming strict backend must preserve:
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
//! `scalar`, `simd` and `checked` are strict and stay strict — the whole
//! trace story depends on it: the FRM/BUM replays read the scalar
//! reference step's streams, which describe the engine only because the
//! engine has the reference's bits.
//!
//! ## `Tier::Lossy(Tolerance)` — the tolerance contract
//!
//! A lossy backend is released from bit-identity (it may fuse
//! multiply-adds, re-round, use wider intermediates) but must **prove** it
//! stays inside the [`Tolerance`] it declares:
//!
//! * **Per-kernel bounds** — every kernel output, compared element-wise
//!   against the scalar reference, stays within the declared
//!   relative-error / normwise-error / ULP bounds
//!   ([`Tolerance::check_slices`]).
//! * **End-to-end quality floors** — a training run on the lossy backend
//!   must land within `max_psnr_drop_db` PSNR and `max_ssim_drop` SSIM of
//!   the scalar golden run, scored by `nerf::metrics` / `nerf::ssim`.
//!
//! What a lossy backend may **not** relax: determinism (same inputs →
//! same bits, run to run and across worker counts) and workload
//! accounting (`WorkloadStats` must agree with the strict path).
//!
//! Neither tier is on the honor system. The differential and golden
//! bit-identity suites (`crates/nerf/tests/simd_differential.rs`,
//! `crates/nerf/tests/occupancy_differential.rs`,
//! `crates/core/tests/batched_equivalence.rs`, `tests/batched_equivalence.rs`)
//! iterate [`registered_strict`] backends; the tolerance suites
//! (`crates/nerf/tests/tolerance_differential.rs`,
//! `crates/core/tests/tolerance_gate.rs`) iterate [`registered_lossy`]
//! backends — so a registered lossy backend cannot skip its quality gate,
//! and a lossy backend can never sneak into the bit-identity matrix
//! (`tests/backend_api.rs` pins the CI axes to the registry split).
//!
//! Every backend runs on every host: [`SimdKernels`]' AVX2 paths and
//! [`FastKernels`]' AVX2/FMA paths are runtime specialisations over a
//! portable fallback with identical results.
//!
//! # Selecting a backend
//!
//! ```
//! use instant3d_nerf::kernels;
//!
//! // By name, through the registry (panics on unknown names, listing the
//! // registered ones with their tiers):
//! let simd = kernels::resolve("simd");
//! assert_eq!(simd.name(), "simd");
//! assert!(simd.tier().is_strict());
//! // The lossy tier declares its tolerance:
//! assert!(kernels::fast().tier().tolerance().is_some());
//! // The built-ins have direct accessors:
//! assert_eq!(kernels::scalar().name(), "scalar");
//! // And the environment override used by the CI matrix:
//! let backend = kernels::from_env_or_default();
//! assert!(kernels::names().contains(&backend.name()));
//! ```
//!
//! # Contract enforcement
//!
//! Each part of the strict contract is carried by the one mechanism that
//! can actually see it; a new backend opts in simply by registering.
//!
//! | | proves | how |
//! |---|---|---|
//! | **The compiler** | parallel tasks write **disjoint, in-bounds, gap-free** ranges | every dispatch seam hands its tasks `&mut` slices cut by `par_chunks_mut().zip(..)` or a `split_at_mut` partition (the per-level scatter's lives in one private helper in `grid.rs`), and `#![deny(unsafe_code)]` keeps a raw-pointer dispatcher from appearing unannounced — an overlapping, aliased or outliving write is a compile error (`compile_fail` doctests on that helper and on [`RayBatchCache`](crate::render::RayBatchCache)) |
//! | **Privacy + clippy** | **FMA placement**, the `unsafe` / `#[target_feature]` census, **determinism**, the **panic census** | the fused accumulate policy is private to `kernels/fast.rs`, so a strict module that names it does not compile; `cargo clippy` runs the lints below over every crate |
//! | **`checked` + the atomics linter** | what neither sees: **accumulation order**, atomics orderings | [`CheckedKernels`] re-runs every seam through [`ScalarKernels`] on a shadow copy and panics on the first diverging bit; the conformance linter checks `// ORDERING:` markers |
//!
//! `checked` rides the CI strict backend × worker matrix
//! (`.github/workflows/ci.yml`), whose axis is derived from the registry
//! by `tests/backend_api.rs`, so neither a new strict backend nor the
//! checker itself can silently drop out.
//!
//! **The clippy lints** (`cargo clippy --workspace --all-targets -- -D
//! warnings`; `[workspace.lints.clippy]` plus per-crate `clippy.toml`):
//!
//! * FMA — `clippy::disallowed_methods` forbids `f32`'s fused
//!   multiply-add anywhere in this crate (`crates/nerf/clippy.toml`); the
//!   one `#[expect]` sits on the fused policy's impl.
//! * `unsafe` — `clippy::undocumented_unsafe_blocks` requires a
//!   `// SAFETY:` comment on every `unsafe` block and
//!   `clippy::missing_safety_doc` a `# Safety` section on every `unsafe`
//!   or `#[target_feature]` fn, private ones included. The
//!   `#[target_feature]` fns are safe fns (target-feature 1.1), so calling
//!   one outside a feature-enabled context is a compile error without an
//!   `unsafe` block. All twelve — six strict, six fused — are expansions
//!   of one dispatch macro in this module, whose one `unsafe` block's
//!   `// SAFETY:` names its runtime CPUID guard.
//! * Determinism — `clippy::disallowed_types` (`HashMap`, `HashSet`) and
//!   `clippy::disallowed_methods` (`Instant::now`) in the kernel, trainer
//!   and serving crates: iteration order and wall-clock reads must never
//!   feed kernel numerics. Each telemetry site carries an `#[expect]`
//!   whose reason says why it cannot.
//! * Panics — the kernel and trainer hot-path modules open with
//!   `#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]`;
//!   each remaining site carries an `#[expect]` whose reason argues why
//!   aborting is the contractually correct response.
//!   `clippy::allow_attributes_without_reason` keeps that reason
//!   mandatory.
//!
//! **The conformance linter** (`cargo run -p instant3d-conformance`, also
//! a `#[test]` in that crate) lexes the workspace sources and enforces one
//! marker: `// ORDERING:` on (or trailing, or in the comment block above)
//! every line using `Ordering::Relaxed`. Stronger orderings in
//! `vendor/rayon/src/` are cross-checked against the sleep/latch protocol
//! manifest in `crates/conformance/allowlists/atomics_protocol.txt`.

/// Stamps kernel wrappers whose bodies are compiled twice: as a safe
/// `#[target_feature]` fn enabling the listed x86-64 features, called when
/// the host has them all, and portably otherwise. `builtin.rs` lists
/// `["avx2"]` for the strict tier, `fast.rs` its lossy tier's features.
///
/// `@detect [..]` is the guard: each expansion runs the CPUID check once
/// per process and caches the answer; it is always `false` off x86_64.
macro_rules! dispatched_kernels {
    (@detect [$($feature:tt),+]) => {{
        #[cfg(target_arch = "x86_64")]
        {
            static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
            *AVAILABLE.get_or_init(|| $(std::arch::is_x86_feature_detected!($feature))&&+)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }};
    (@kernel [$($feature:tt),+]
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$doc])*
        #[allow(unsafe_code, reason = "calls the target-feature arm behind its runtime guard")]
        fn $name($($arg: $ty),*) $(-> $ret)? {
            /// The body, compiled with the listed target features enabled.
            ///
            /// # Safety
            ///
            /// Callable only on a host with every one of those features.
            #[cfg(target_arch = "x86_64")]
            $(#[target_feature(enable = $feature)])+
            fn arm($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            if dispatched_kernels!(@detect [$($feature),+]) {
                // SAFETY: the `@detect` guard just confirmed that this host
                // has every feature `arm` is compiled with, its only
                // obligation.
                return unsafe { arm($($arg),*) };
            }
            $body
        }
    };
    ($features:tt $($(#[$doc:meta])* fn $name:ident $args:tt $(-> $ret:ty)? $body:block)+) => {
        $(dispatched_kernels!(@kernel $features $(#[$doc])* fn $name $args $(-> $ret)? $body);)+
    };
}

mod builtin;
mod checked;
mod fast;

pub use builtin::{ScalarKernels, SimdKernels};
pub use checked::CheckedKernels;
pub use fast::FastKernels;

use crate::grid::HashGrid;
use crate::math::Vec3;
use crate::mlp::{Mlp, MlpBatchWorkspace, MlpGradients};
use crate::render::RenderOutput;
use std::sync::{Arc, OnceLock, RwLock};

/// The numeric error bounds a lossy backend declares and is held to.
///
/// The per-kernel element check ([`Tolerance::check_slices`]) accepts an
/// element when any of these holds against the scalar reference value `s`:
///
/// * the bits are equal,
/// * `|l − s| ≤ max_rel_error·|s| + max_norm_error·‖s‖∞` (a mixed
///   componentwise/normwise bound — the normwise term keeps catastrophic
///   cancellation near zero from demanding componentwise accuracy the
///   inputs never carried),
/// * `l` and `s` are within `max_ulps` representable values of each other.
///
/// The end-to-end floors (`max_psnr_drop_db`, `max_ssim_drop`) bound how
/// far a training run on the lossy backend may land below the scalar
/// golden run's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Componentwise relative error bound (vs the reference element).
    pub max_rel_error: f32,
    /// Normwise error bound, scaled by the reference slice's ∞-norm.
    pub max_norm_error: f32,
    /// Units-in-the-last-place escape hatch for well-scaled elements.
    pub max_ulps: u32,
    /// Max PSNR regression (dB) of a lossy training run vs the scalar
    /// golden run.
    pub max_psnr_drop_db: f32,
    /// Max SSIM regression of a lossy training run vs the scalar golden
    /// run.
    pub max_ssim_drop: f32,
}

/// Distance in representable `f32` steps between two finite floats of the
/// same sign class (the usual monotonic total-order bit trick).
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn key(x: f32) -> i64 {
        let bits = x.to_bits() as i32;
        (if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }) as i64
    }
    (key(a) - key(b)).unsigned_abs()
}

impl Tolerance {
    /// Checks a lossy kernel output slice element-wise against the scalar
    /// reference slice, returning a worst-offender diagnostic on failure.
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths — that is a shape
    /// bug, not a numeric violation.
    pub fn check_slices(
        &self,
        label: &str,
        lossy: &[f32],
        reference: &[f32],
    ) -> Result<(), String> {
        assert_eq!(
            lossy.len(),
            reference.len(),
            "{label}: lossy and reference outputs must have the same shape"
        );
        let norm = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (&l, &s)) in lossy.iter().zip(reference).enumerate() {
            if l.to_bits() == s.to_bits() {
                continue;
            }
            if !l.is_finite() || !s.is_finite() {
                return Err(format!(
                    "{label}[{i}]: non-finite mismatch (lossy {l}, reference {s})"
                ));
            }
            let err = (l - s).abs();
            if err <= self.max_rel_error * s.abs() + self.max_norm_error * norm {
                continue;
            }
            if ulp_distance(l, s) <= self.max_ulps as u64 {
                continue;
            }
            return Err(format!(
                "{label}[{i}]: lossy {l:e} vs reference {s:e} (abs err {err:e}, \
                 rel bound {:e}·|s| + {:e}·{norm:e}, ulp distance {})",
                self.max_rel_error,
                self.max_norm_error,
                ulp_distance(l, s)
            ));
        }
        Ok(())
    }
}

/// Which registration contract a backend signs up to: bit-identity
/// ([`Tier::Strict`]) or declared error bounds ([`Tier::Lossy`]). See the
/// [module docs](self#the-two-tier-registration-contract).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// Bit-identical to [`ScalarKernels`] on every kernel.
    Strict,
    /// Free to re-round (FMA, wider intermediates) within the declared
    /// [`Tolerance`]; still deterministic.
    Lossy(Tolerance),
}

impl Tier {
    /// `"strict"` or `"lossy"` — the stable label stamped into
    /// `WorkloadStats` and panic messages.
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Strict => "strict",
            Tier::Lossy(_) => "lossy",
        }
    }

    /// Whether this is the bit-identity tier.
    pub fn is_strict(&self) -> bool {
        matches!(self, Tier::Strict)
    }

    /// The declared tolerance, for lossy backends.
    pub fn tolerance(&self) -> Option<Tolerance> {
        match self {
            Tier::Strict => None,
            Tier::Lossy(t) => Some(*t),
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One interchangeable implementation of the batched engine's hot kernels.
///
/// Implementations must uphold the contract of the tier they declare via
/// [`Kernels::tier`] (see the
/// [module docs](self#the-two-tier-registration-contract)): strict
/// backends must be bit-identical to [`ScalarKernels`], lossy backends
/// must stay inside their declared [`Tolerance`]. The easiest way to
/// satisfy the strict tier from outside this crate is to delegate the
/// numerics to a built-in backend (see [`CheckedKernels`], which wraps
/// [`SimdKernels`]); backends with their own kernels should build on
/// the observed scalar bodies ([`HashGrid::encode_level_observed`],
/// [`HashGrid::scatter_level_observed`]) or re-derive the scalar operation
/// order exactly.
///
/// All methods take `&self` and may run concurrently from multiple rayon
/// workers (the grid methods are called once per disjoint chunk / level);
/// backends that need mutable state must synchronise it internally.
pub trait Kernels: Send + Sync + std::fmt::Debug {
    /// The registry name — stamped into `WorkloadStats` and panic
    /// messages. Lowercase, stable, unique per registered backend.
    fn name(&self) -> &'static str;

    /// Which contract this backend registers under. Defaults to
    /// [`Tier::Strict`] — the conservative claim; declaring
    /// [`Tier::Lossy`] is an explicit opt-out of bit-identity and an
    /// opt-in to the tolerance suites.
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
    /// is that level's disjoint slice of the flat gradient buffer, and
    /// per-parameter accumulation must run in point order
    /// ([`HashGrid::par_backward_batch_with`] calls this once per level).
    fn grid_scatter_level(
        &self,
        grid: &HashGrid,
        level: usize,
        level_grads: &mut [f32],
        unit_positions: &[Vec3],
        d_out: &[f32],
    );

    /// Batched MLP forward over row-major inputs; returns the output slice
    /// living inside `ws` (the seam behind [`Mlp::forward_batch_with`]).
    fn mlp_forward_batch<'w>(
        &self,
        mlp: &Mlp,
        inputs: &[f32],
        ws: &'w mut MlpBatchWorkspace,
    ) -> &'w [f32];

    /// Batched MLP backward for the most recent forward on `ws` (the seam
    /// behind [`Mlp::backward_batch_with`]).
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

/// A shared, cheaply clonable handle to a registered (or ad-hoc) backend.
///
/// This is what flows through the engine: `TrainConfig::kernel_backend` →
/// `NerfModel` → `BatchWorkspace` / `OccupancyWorkspace` all hold a
/// `BackendHandle` and dispatch through it, instead of matching on an enum
/// at every call site. Handles compare equal iff their backend names do.
#[derive(Clone)]
pub struct BackendHandle(Arc<dyn Kernels>);

impl BackendHandle {
    /// Wraps a backend implementation in a handle. The handle does **not**
    /// register the backend — it is directly usable by the engine (a test
    /// can hand a private mock straight to `TrainConfig`), while
    /// [`register`] additionally makes it resolvable by name.
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

/// The process-wide backend registry: an append-only, name-keyed list of
/// [`BackendHandle`]s, pre-seeded with the built-in backends in the order
/// `scalar`, `simd`, `fast`, `checked`.
///
/// The free functions of this module ([`register`], [`get`], [`resolve`],
/// [`registered`], [`names`], [`from_env`]) are the public face; the
/// struct exists so the seeding happens exactly once.
struct BackendRegistry {
    backends: RwLock<Vec<BackendHandle>>,
}

impl BackendRegistry {
    fn global() -> &'static BackendRegistry {
        static REGISTRY: OnceLock<BackendRegistry> = OnceLock::new();
        REGISTRY.get_or_init(|| BackendRegistry {
            backends: RwLock::new(vec![
                BackendHandle::new(ScalarKernels),
                BackendHandle::new(SimdKernels),
                BackendHandle::new(FastKernels::new()),
                BackendHandle::new(CheckedKernels::new()),
            ]),
        })
    }
}

/// Registers a backend, making it resolvable by [`get`]/[`resolve`] (and
/// therefore selectable via `INSTANT3D_KERNEL_BACKEND` and picked up by
/// the test suites that iterate [`registered`]).
///
/// Registration is an API-level promise that the backend upholds the
/// contract of its declared [tier](self#the-two-tier-registration-contract):
/// strict backends land in the bit-identity suites, lossy backends in the
/// tolerance suites.
///
/// # Errors
///
/// Returns `Err` when a backend with the same name is already registered
/// (names are matched case-insensitively).
pub fn register<K: Kernels + 'static>(kernels: K) -> Result<BackendHandle, String> {
    let handle = BackendHandle::new(kernels);
    let mut backends = BackendRegistry::global().backends.write().unwrap();
    if let Some(existing) = backends
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(handle.name()))
    {
        return Err(format!(
            "kernel backend {:?} is already registered",
            existing.name()
        ));
    }
    backends.push(handle.clone());
    Ok(handle)
}

/// Looks a backend up by name (case-insensitive, surrounding whitespace
/// ignored).
pub fn get(name: &str) -> Option<BackendHandle> {
    let wanted = name.trim();
    BackendRegistry::global()
        .backends
        .read()
        .unwrap()
        .iter()
        .find(|b| b.name().eq_ignore_ascii_case(wanted))
        .cloned()
}

/// Resolves a backend by name.
///
/// # Panics
///
/// Panics on unknown names, listing every registered backend with its
/// tier — a typo in a config or CI matrix entry must
/// fail loudly instead of silently running the default backend.
pub fn resolve(name: &str) -> BackendHandle {
    get(name).unwrap_or_else(|| {
        panic!(
            "unknown kernel backend {:?}; registered backends: {}",
            name.trim(),
            described_names()
        )
    })
}

/// All registered backends, in registration order (built-ins first).
pub fn registered() -> Vec<BackendHandle> {
    BackendRegistry::global().backends.read().unwrap().clone()
}

/// The registered **strict-tier** backends, in registration order — the
/// iteration set of every bit-identity differential/golden suite.
pub fn registered_strict() -> Vec<BackendHandle> {
    registered()
        .into_iter()
        .filter(|b| b.tier().is_strict())
        .collect()
}

/// The registered **lossy-tier** backends, in registration order — the
/// iteration set of the tolerance suites, so no lossy backend can dodge
/// its declared quality gate.
pub fn registered_lossy() -> Vec<BackendHandle> {
    registered()
        .into_iter()
        .filter(|b| !b.tier().is_strict())
        .collect()
}

/// The registered backend names, in registration order.
pub fn names() -> Vec<&'static str> {
    BackendRegistry::global()
        .backends
        .read()
        .unwrap()
        .iter()
        .map(|b| b.name())
        .collect()
}

/// `"name" (tier)` for every registered backend — the panic payload of
/// [`resolve`] / [`from_env_value`].
fn described_names() -> String {
    registered()
        .iter()
        .map(|b| format!("{:?} ({})", b.name(), b.tier().label()))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The scalar reference backend (always registered).
pub fn scalar() -> BackendHandle {
    get("scalar").expect("built-in scalar backend")
}

/// The lane-batched SIMD backend (always registered).
pub fn simd() -> BackendHandle {
    get("simd").expect("built-in simd backend")
}

/// The lossy-tier FMA/AVX2 backend (always registered; runs everywhere —
/// it falls back to portable fused code where AVX2/FMA are absent).
pub fn fast() -> BackendHandle {
    get("fast").expect("built-in fast backend")
}

/// The strict-tier shadow-execution backend (always registered): SIMD
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
/// set — the hook the CI matrix uses to force every registered backend
/// through the full suite.
///
/// # Panics
///
/// Panics when the variable names an unregistered backend (see
/// [`resolve`]).
pub fn from_env() -> Option<BackendHandle> {
    from_env_value(std::env::var("INSTANT3D_KERNEL_BACKEND").ok().as_deref())
}

/// [`from_env`]'s env-independent core, split out so the unknown-name
/// panic is testable without mutating process-global environment state.
/// The lookup is a plain registry resolution — no hand-rolled name
/// matching.
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

/// The env-var backend **if it is strict-tier**, otherwise
/// [`default_backend`]. Reference paths and bit-identity fixtures use
/// this so that running the suite under a lossy env override (the CI
/// `fast` arm) keeps strict-contract comparisons meaningful instead of
/// asserting bit-equality against FMA numerics.
pub fn strict_from_env_or_default() -> BackendHandle {
    match from_env() {
        Some(backend) if backend.tier().is_strict() => backend,
        _ => default_backend(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::grid::{HashGridConfig, NullObserver};
    use crate::mlp::{self, Linear, MlpConfig, Sweeps};
    use crate::render::{composite_slices, composite_slices_lanes};
    use crate::simd::Accumulate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type Composite = fn(
        &[f32],
        &[f32],
        &[f32],
        &[Vec3],
        Vec3,
        Option<(&mut [f32], &mut [f32], &mut [f32])>,
    ) -> (RenderOutput, usize);

    /// One arm of the six shared lane bodies — grid encode, grid scatter,
    /// the three MLP sweeps, compositing — or the scalar reference's
    /// stand-in for each, so the dispatch tests of both tiers run one
    /// harness.
    pub(super) struct LaneBodies {
        pub(super) encode: fn(&HashGrid, usize, &[Vec3], &mut [f32]),
        pub(super) scatter: fn(&HashGrid, usize, &mut [f32], &[Vec3], &[f32]),
        pub(super) sweeps: Sweeps,
        pub(super) composite: Composite,
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    impl LaneBodies {
        /// The portable `A` monomorphs of the shared bodies.
        pub(super) fn portable<A: Accumulate>() -> LaneBodies {
            LaneBodies {
                encode: HashGrid::encode_level_lanes::<A>,
                scatter: HashGrid::scatter_level_lanes::<A>,
                sweeps: Sweeps {
                    forward_rows: Linear::forward_rows::<A>,
                    grad_rows: mlp::grad_rows::<A>,
                    input_grad: mlp::input_grad::<A>,
                },
                composite: composite_slices_lanes::<A>,
            }
        }

        /// [`ScalarKernels`]' bodies.
        pub(super) fn scalar() -> LaneBodies {
            LaneBodies {
                encode: |g, l, p, o| g.encode_level_observed(l, p, o, &mut NullObserver),
                scatter: |g, l, lg, p, d| g.scatter_level_observed(l, lg, p, d, &mut NullObserver),
                sweeps: Sweeps::SCALAR,
                composite: composite_slices,
            }
        }

        /// The output bits of the MLP, grid and compositing families on
        /// fixed inputs: lane tails in every blocked dimension, dense and
        /// hashed levels, a scatter onto non-zero gradients, and a ray
        /// that terminates early.
        pub(super) fn bits(&self) -> [Vec<Vec<u32>>; 3] {
            let mut rng = StdRng::seed_from_u64(3);

            // MLP sweeps through the batch drivers. Tails in all three
            // blocked dimensions: in_dim % 4 = 3, out_dim % 4 = 1, n % 4 = 2.
            let (iw, ow, n) = (7, 5, 6);
            let mut net = Mlp::new(
                MlpConfig::new(iw, &[ow], ow, Activation::Relu, Activation::None),
                &mut rng,
            );
            // Non-zero biases, so every output's first accumulate rounds too.
            net.for_each_param_mut(&net.zero_grads(), |p, _| {
                p.iter_mut().for_each(|v| *v += 0.3)
            });
            let x: Vec<f32> = (0..n * iw).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let dy: Vec<f32> = (0..n * ow).map(|_| rng.gen_range(-1.0..=1.0)).collect();
            let mut ws = net.batch_workspace(n);
            let mut mlp_bits = vec![bits(net.forward_batch_impl(&self.sweeps, &x, &mut ws))];
            let mut grads = net.zero_grads();
            let mut dx = vec![0.0; n * iw];
            // Twice, so the second pass accumulates onto non-zero gradients.
            for _ in 0..2 {
                net.backward_batch_impl(&self.sweeps, &dy, &mut ws, &mut grads, &mut dx);
            }
            for (gw, gb) in &grads.layers {
                mlp_bits.extend([bits(gw), bits(gb)]);
            }
            mlp_bits.push(bits(&dx));

            // Grid encode + scatter over dense and hashed levels: two full
            // lanes plus a five-point tail, scattered onto non-zero gradients.
            let grid = HashGrid::new_random(
                HashGridConfig {
                    levels: 3,
                    log2_table_size: 10,
                    base_resolution: 4,
                    max_resolution: 32,
                    store_fp16: false,
                    init_scale: 0.3,
                    ..HashGridConfig::default()
                },
                &mut rng,
            );
            let pts: Vec<Vec3> = (0..21)
                .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let d_out: Vec<f32> = (0..pts.len() * grid.output_dim())
                .map(|_| rng.gen_range(-1.0..=1.0))
                .collect();
            let mut emb = vec![0.0; d_out.len()];
            let mut grid_grads = vec![0.5; grid.num_params()];
            for (l, level) in grid.levels().iter().enumerate() {
                (self.encode)(&grid, l, &pts, &mut emb);
                let start = level.entry_offset as usize * 2;
                let level_grads = &mut grid_grads[start..start + level.table_size as usize * 2];
                (self.scatter)(&grid, l, level_grads, &pts, &d_out);
            }
            let grid_bits = vec![bits(&emb), bits(&grid_grads)];

            // Compositing: a translucent ray through two lanes and a tail,
            // and one that terminates early inside its second lane.
            let k = 21;
            let t: Vec<f32> = (0..k).map(|i| (i as f32 + 0.5) / k as f32).collect();
            let dt = vec![1.0 / k as f32; k];
            let rgb: Vec<Vec3> = (0..k)
                .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let translucent: Vec<f32> = (0..k).map(|_| rng.gen::<f32>() * 2.0).collect();
            let terminating: Vec<f32> = (0..k).map(|i| if i < 10 { 0.5 } else { 500.0 }).collect();
            let mut composite_bits = Vec::new();
            for (sigma, integrated) in [(&translucent, k..k + 1), (&terminating, 8..16)] {
                let (mut cw, mut ct, mut co) = (vec![0.0; k], vec![0.0; k], vec![0.0; k]);
                let cache = Some((&mut cw[..], &mut ct[..], &mut co[..]));
                let bg = Vec3::new(0.2, 0.4, 0.8);
                let (o, active) = (self.composite)(&t, &dt, sigma, &rgb, bg, cache);
                assert!(integrated.contains(&active), "{active} samples integrated");
                let c = o.color;
                let scalars = [c.x, c.y, c.z, o.depth, o.opacity, o.transmittance];
                composite_bits.extend([bits(&scalars), vec![active as u32], bits(&cw)]);
                composite_bits.extend([bits(&ct), bits(&co)]);
            }
            [mlp_bits, grid_bits, composite_bits]
        }
    }

    #[test]
    fn feature_detection_is_stable_across_calls() {
        let detect = || dispatched_kernels!(@detect ["avx2"]);
        assert_eq!(detect(), detect());
        #[cfg(target_arch = "x86_64")]
        assert_eq!(detect(), std::arch::is_x86_feature_detected!("avx2"));
    }

    #[test]
    fn builtins_are_registered_in_order() {
        let names = names();
        assert_eq!(&names[..4], &["scalar", "simd", "fast", "checked"]);
        assert_eq!(registered()[..4].len(), 4);
        assert_eq!(default_backend().name(), "simd");
    }

    #[test]
    fn builtin_tiers_split_strict_from_lossy() {
        let strict: Vec<_> = registered_strict().iter().map(|b| b.name()).collect();
        assert!(strict.contains(&"scalar"));
        assert!(strict.contains(&"simd"));
        assert!(strict.contains(&"checked"));
        assert!(!strict.contains(&"fast"));
        let lossy: Vec<_> = registered_lossy().iter().map(|b| b.name()).collect();
        assert!(lossy.contains(&"fast"));
        assert!(!lossy.contains(&"scalar"));
        // The split is a partition of the registry.
        assert_eq!(
            registered_strict().len() + registered_lossy().len(),
            registered().len()
        );
        // And the lossy tier carries its declared tolerance.
        let tol = fast().tier().tolerance().expect("fast declares bounds");
        assert!(tol.max_rel_error > 0.0 && tol.max_psnr_drop_db > 0.0);
        assert_eq!(fast().tier().label(), "lossy");
        assert_eq!(scalar().tier().label(), "strict");
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
        assert_eq!(from_env_value(Some("fast")).unwrap().name(), "fast");
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
    #[should_panic(
        expected = "registered backends: \"scalar\" (strict), \"simd\" (strict), \
                    \"fast\" (lossy), \"checked\" (strict)"
    )]
    fn resolve_panic_lists_names_with_tiers() {
        let _ = resolve("no-such-backend");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        // The built-in name is taken, whatever the casing.
        #[derive(Debug)]
        struct Impostor;
        impl Kernels for Impostor {
            fn name(&self) -> &'static str {
                "SCALAR"
            }
            fn grid_encode_levels_chunk(
                &self,
                _: &HashGrid,
                _: &[usize],
                _: &[Vec3],
                _: &mut [f32],
            ) {
            }
            fn grid_scatter_level(
                &self,
                _: &HashGrid,
                _: usize,
                _: &mut [f32],
                _: &[Vec3],
                _: &[f32],
            ) {
            }
            fn mlp_forward_batch<'w>(
                &self,
                _: &Mlp,
                _: &[f32],
                _: &'w mut MlpBatchWorkspace,
            ) -> &'w [f32] {
                &[]
            }
            fn mlp_backward_batch(
                &self,
                _: &Mlp,
                _: &[f32],
                _: &mut MlpBatchWorkspace,
                _: &mut MlpGradients,
                _: &mut [f32],
            ) {
            }
            fn composite_ray(
                &self,
                _: &[f32],
                _: &[f32],
                _: &[f32],
                _: &[Vec3],
                _: Vec3,
                _: Option<(&mut [f32], &mut [f32], &mut [f32])>,
            ) -> (RenderOutput, usize) {
                (RenderOutput::default(), 0)
            }
        }
        assert!(register(Impostor).is_err());
    }

    #[test]
    fn strict_from_env_falls_back_on_lossy_overrides() {
        // The helper keeps bit-identity fixtures on a strict backend even
        // when the process-wide override names a lossy one. (Exercised
        // through the value-level seam; the env-var plumbing is shared
        // with `from_env`.)
        let strict = |v: Option<&str>| match from_env_value(v) {
            Some(b) if b.tier().is_strict() => b,
            _ => default_backend(),
        };
        assert_eq!(strict(Some("scalar")).name(), "scalar");
        assert_eq!(strict(Some("fast")).name(), "simd");
        assert_eq!(strict(None).name(), "simd");
        assert!(strict_from_env_or_default().tier().is_strict());
    }

    #[test]
    fn tolerance_check_accepts_bounded_and_rejects_gross_errors() {
        let tol = Tolerance {
            max_rel_error: 1e-4,
            max_norm_error: 1e-5,
            max_ulps: 8,
            max_psnr_drop_db: 0.05,
            max_ssim_drop: 1e-3,
        };
        // Bit-equal (including NaN-to-NaN with equal payloads) passes.
        assert!(tol
            .check_slices("eq", &[1.0, f32::NAN], &[1.0, f32::NAN])
            .is_ok());
        // Small relative error passes; ±0 is bit-different but 0 ulps apart.
        assert!(tol
            .check_slices("rel", &[1.0 + 5e-5, -0.0], &[1.0, 0.0])
            .is_ok());
        // The normwise term absorbs cancellation noise near zero…
        assert!(tol
            .check_slices("norm", &[1e-6, 100.0], &[0.0, 100.0])
            .is_ok());
        // …but a gross error on a well-scaled element fails with context.
        let err = tol
            .check_slices("gross", &[1.01], &[1.0])
            .expect_err("1% off must fail a 1e-4 bound");
        assert!(err.contains("gross[0]"), "offender is named: {err}");
        // A non-finite divergence always fails.
        assert!(tol.check_slices("nan", &[f32::NAN], &[1.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "same shape")]
    fn tolerance_check_panics_on_shape_mismatch() {
        let tol = fast().tier().tolerance().unwrap();
        let _ = tol.check_slices("shape", &[1.0, 2.0], &[1.0]);
    }
}
