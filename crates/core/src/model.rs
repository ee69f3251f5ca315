//! The NeRF model: hash grid(s) plus the two small MLP heads, with full
//! hand-derived backpropagation (Steps ③-① and ③-② of the pipeline).
//!
//! Two topologies share one code path:
//!
//! * **Coupled** (Instant-NGP): a single grid is encoded once per point and
//!   its embedding feeds both the density and color heads.
//! * **Decoupled** (Instant-3D, Fig. 6): a density grid feeds the density
//!   head and a separate (typically smaller) color grid feeds the color
//!   head.
//!
//! The backward pass mirrors Instant-NGP's CUDA implementation: grid
//! *feature* values are not re-read during back-propagation (trilinear
//! scatter weights depend only on the sample position), so the BP access
//! stream seen by observers consists of gradient-scatter writes — the
//! stream the paper's BUM unit merges.

use crate::config::{GridTopology, TrainConfig};
use instant3d_nerf::activation::Activation;
use instant3d_nerf::field::RadianceField;
use instant3d_nerf::grid::{AccessPhase, GridAccessObserver, GridGradients, HashGrid};
use instant3d_nerf::kernels::BackendHandle;
use instant3d_nerf::math::{Aabb, Vec3};
use instant3d_nerf::mlp::{Mlp, MlpConfig, MlpGradients, MlpWorkspace};
use instant3d_nerf::sh::{sh_basis_size, sh_encode_into};
use rand::Rng;

pub use instant3d_nerf::grid::{BranchObserver, GridBranch, NullBranchObserver};

/// Adapter: forwards grid accesses to a [`BranchObserver`] with a fixed tag.
struct Tagged<'a, O: BranchObserver + ?Sized> {
    branch: GridBranch,
    inner: &'a mut O,
}

impl<O: BranchObserver + ?Sized> GridAccessObserver for Tagged<'_, O> {
    #[inline]
    fn on_access(&mut self, phase: AccessPhase, level: u32, corner: u8, addr: u32) {
        self.inner
            .on_branch_access(self.branch, phase, level, corner, addr);
    }
}

/// Scratch buffers for per-point forward/backward evaluation.
#[derive(Debug, Clone)]
pub struct ModelWorkspace {
    /// Density-grid embedding of the current point.
    pub emb_d: Vec<f32>,
    /// Color-grid embedding (aliases `emb_d` content when coupled).
    pub emb_c: Vec<f32>,
    color_in: Vec<f32>,
    ws_sigma: MlpWorkspace,
    ws_color: MlpWorkspace,
    d_emb_d: Vec<f32>,
    d_color_in: Vec<f32>,
}

/// Gradient buffers for every trainable tensor in the model.
#[derive(Debug, Clone)]
pub struct ModelGradients {
    /// Density (or shared) grid gradients.
    pub density_grid: GridGradients,
    /// Color grid gradients (decoupled only).
    pub color_grid: Option<GridGradients>,
    /// Density head gradients.
    pub sigma_mlp: MlpGradients,
    /// Color head gradients.
    pub color_mlp: MlpGradients,
}

/// The trainable radiance-field model.
#[derive(Debug, Clone)]
pub struct NerfModel {
    topology: GridTopology,
    aabb: Aabb,
    density_grid: HashGrid,
    color_grid: Option<HashGrid>,
    sigma_mlp: Mlp,
    color_mlp: Mlp,
    sh_degree: usize,
    kernel_backend: BackendHandle,
}

impl NerfModel {
    /// Builds a model from a training config for a scene with the given
    /// bounding volume.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`TrainConfig::validate`].
    pub fn new<R: Rng + ?Sized>(cfg: &TrainConfig, aabb: Aabb, rng: &mut R) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid TrainConfig: {e}");
        }
        let density_grid = HashGrid::new_random(cfg.density_grid_config(), rng);
        let (color_grid, color_emb_dim) = match cfg.topology {
            GridTopology::Coupled => (None, density_grid.output_dim()),
            GridTopology::Decoupled => {
                let g = HashGrid::new_random(cfg.color_grid_config(), rng);
                let dim = g.output_dim();
                (Some(g), dim)
            }
        };
        let hidden: Vec<usize> = vec![cfg.mlp_hidden_dim; cfg.mlp_hidden_layers];
        let sigma_mlp = Mlp::new(
            MlpConfig::new(
                density_grid.output_dim(),
                &hidden,
                1,
                Activation::Relu,
                Activation::TruncExp,
            ),
            rng,
        );
        let color_mlp = Mlp::new(
            MlpConfig::new(
                color_emb_dim + sh_basis_size(cfg.sh_degree),
                &hidden,
                3,
                Activation::Relu,
                Activation::Sigmoid,
            ),
            rng,
        );
        NerfModel {
            topology: cfg.topology,
            aabb,
            density_grid,
            color_grid,
            sigma_mlp,
            color_mlp,
            sh_degree: cfg.sh_degree,
            kernel_backend: cfg.kernel_backend.clone(),
        }
    }

    /// The kernel backend the batched engine runs for this model — the
    /// handle threaded from [`TrainConfig::kernel_backend`] into every
    /// [`crate::batch::BatchWorkspace`].
    pub fn kernel_backend(&self) -> &BackendHandle {
        &self.kernel_backend
    }

    /// Coupled or decoupled.
    pub fn topology(&self) -> GridTopology {
        self.topology
    }

    /// The scene volume the grids cover.
    pub fn aabb(&self) -> Aabb {
        self.aabb
    }

    /// The density (or shared) grid.
    pub fn density_grid(&self) -> &HashGrid {
        &self.density_grid
    }

    /// The color grid, when decoupled.
    pub fn color_grid(&self) -> Option<&HashGrid> {
        self.color_grid.as_ref()
    }

    /// Mutable access for the optimizer.
    pub fn density_grid_mut(&mut self) -> &mut HashGrid {
        &mut self.density_grid
    }

    /// Mutable access for the optimizer.
    pub fn color_grid_mut(&mut self) -> Option<&mut HashGrid> {
        self.color_grid.as_mut()
    }

    /// The density MLP head.
    pub fn sigma_mlp(&self) -> &Mlp {
        &self.sigma_mlp
    }

    /// The color MLP head.
    pub fn color_mlp(&self) -> &Mlp {
        &self.color_mlp
    }

    /// Mutable density head (optimizer).
    pub fn sigma_mlp_mut(&mut self) -> &mut Mlp {
        &mut self.sigma_mlp
    }

    /// Mutable color head (optimizer).
    pub fn color_mlp_mut(&mut self) -> &mut Mlp {
        &mut self.color_mlp
    }

    /// SH degree of the direction encoding.
    pub fn sh_degree(&self) -> usize {
        self.sh_degree
    }

    /// Width of the direction encoding.
    pub fn sh_dim(&self) -> usize {
        sh_basis_size(self.sh_degree)
    }

    /// Allocates a workspace for this model.
    pub fn workspace(&self) -> ModelWorkspace {
        let emb_c_dim = self.color_mlp.in_dim() - self.sh_dim();
        ModelWorkspace {
            emb_d: vec![0.0; self.density_grid.output_dim()],
            emb_c: vec![0.0; emb_c_dim],
            color_in: vec![0.0; self.color_mlp.in_dim()],
            ws_sigma: self.sigma_mlp.workspace(),
            ws_color: self.color_mlp.workspace(),
            d_emb_d: vec![0.0; self.density_grid.output_dim()],
            d_color_in: vec![0.0; self.color_mlp.in_dim()],
        }
    }

    /// Allocates gradient buffers shaped like this model.
    pub fn zero_grads(&self) -> ModelGradients {
        ModelGradients {
            density_grid: self.density_grid.zero_grads(),
            color_grid: self.color_grid.as_ref().map(HashGrid::zero_grads),
            sigma_mlp: self.sigma_mlp.zero_grads(),
            color_mlp: self.color_mlp.zero_grads(),
        }
    }

    /// Encodes the direction `dir` into its SH basis (cached once per ray
    /// by the trainer).
    pub fn encode_dir(&self, dir: Vec3, out: &mut [f32]) {
        sh_encode_into(dir, self.sh_degree, out);
    }

    /// Step ③-① — reads the grid(s) for a world-space point, filling
    /// `ws.emb_d` / `ws.emb_c`. Observers see the feed-forward reads.
    pub fn encode_point<O: BranchObserver + ?Sized>(
        &self,
        pos: Vec3,
        ws: &mut ModelWorkspace,
        obs: &mut O,
    ) {
        let unit = self.aabb.to_unit(pos);
        self.density_grid.encode_into(
            unit,
            &mut ws.emb_d,
            &mut Tagged {
                branch: GridBranch::Density,
                inner: obs,
            },
        );
        match (&self.color_grid, self.topology) {
            (Some(cg), GridTopology::Decoupled) => {
                cg.encode_into(
                    unit,
                    &mut ws.emb_c,
                    &mut Tagged {
                        branch: GridBranch::Color,
                        inner: obs,
                    },
                );
            }
            _ => ws.emb_c.copy_from_slice(&ws.emb_d),
        }
    }

    /// Step ③-② — evaluates the MLP heads from the embeddings currently in
    /// `ws` plus the SH-encoded direction. Returns `(σ, rgb)`.
    ///
    /// # Panics
    ///
    /// Panics if `sh.len() != self.sh_dim()`.
    pub fn heads_forward(&self, sh: &[f32], ws: &mut ModelWorkspace) -> (f32, Vec3) {
        assert_eq!(sh.len(), self.sh_dim(), "sh width mismatch");
        let sigma = self.sigma_mlp.forward(&ws.emb_d, &mut ws.ws_sigma)[0];
        let emb_len = ws.emb_c.len();
        ws.color_in[..emb_len].copy_from_slice(&ws.emb_c);
        ws.color_in[emb_len..].copy_from_slice(sh);
        let rgb_slice = self.color_mlp.forward(&ws.color_in, &mut ws.ws_color);
        let rgb = Vec3::new(rgb_slice[0], rgb_slice[1], rgb_slice[2]);
        (sigma, rgb)
    }

    /// Full forward query for training: encode + heads.
    pub fn query_train<O: BranchObserver + ?Sized>(
        &self,
        pos: Vec3,
        sh: &[f32],
        ws: &mut ModelWorkspace,
        obs: &mut O,
    ) -> (f32, Vec3) {
        self.encode_point(pos, ws, obs);
        self.heads_forward(sh, ws)
    }

    /// Step ③-② backward for one point, starting from the embeddings cached
    /// during the forward pass (no grid re-reads, exactly like
    /// Instant-NGP's CUDA backward): re-runs the cheap MLP forwards to
    /// rebuild activations and backpropagates `d_sigma`/`d_rgb` into the
    /// MLP gradients, leaving the embedding gradients in the workspace for
    /// [`NerfModel::scatter_grids`].
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per cached per-point input, gradient and buffer"
    )]
    pub fn heads_backward(
        &self,
        emb_d: &[f32],
        emb_c: &[f32],
        sh: &[f32],
        d_sigma: f32,
        d_rgb: Vec3,
        ws: &mut ModelWorkspace,
        grads: &mut ModelGradients,
    ) {
        // Rebuild MLP activations from the cached embeddings.
        ws.emb_d.copy_from_slice(emb_d);
        ws.emb_c.copy_from_slice(emb_c);
        let _ = self.heads_forward(sh, ws);

        // Color head backward → gradient w.r.t. [emb_c ++ sh].
        let d_out_color = [d_rgb.x, d_rgb.y, d_rgb.z];
        self.color_mlp.backward(
            &d_out_color,
            &mut ws.ws_color,
            &mut grads.color_mlp,
            &mut ws.d_color_in,
        );

        // Density head backward → gradient w.r.t. emb_d.
        self.sigma_mlp.backward(
            &[d_sigma],
            &mut ws.ws_sigma,
            &mut grads.sigma_mlp,
            &mut ws.d_emb_d,
        );
    }

    /// Step ③-① backward: scatters the embedding gradients currently in
    /// `ws` (left by [`NerfModel::heads_backward`]) into the grid gradient
    /// buffers. Observers see the scatter writes as
    /// [`AccessPhase::BackProp`].
    ///
    /// When `update_color_grid` is false (a skipped color-grid iteration,
    /// §3.3), the color-grid scatter is skipped entirely; the color MLP
    /// still received its gradients in [`NerfModel::heads_backward`].
    pub fn scatter_grids<O: BranchObserver + ?Sized>(
        &self,
        pos: Vec3,
        ws: &mut ModelWorkspace,
        grads: &mut ModelGradients,
        obs: &mut O,
        update_color_grid: bool,
    ) {
        let unit = self.aabb.to_unit(pos);
        let emb_len = ws.emb_c.len();
        match self.topology {
            GridTopology::Coupled => {
                // Shared grid: sum both heads' embedding gradients.
                for i in 0..ws.d_emb_d.len() {
                    ws.d_emb_d[i] += ws.d_color_in[i];
                }
                self.density_grid.backward_into(
                    unit,
                    &ws.d_emb_d,
                    &mut grads.density_grid,
                    &mut Tagged {
                        branch: GridBranch::Density,
                        inner: obs,
                    },
                );
            }
            GridTopology::Decoupled => {
                self.density_grid.backward_into(
                    unit,
                    &ws.d_emb_d,
                    &mut grads.density_grid,
                    &mut Tagged {
                        branch: GridBranch::Density,
                        inner: obs,
                    },
                );
                if update_color_grid {
                    if let (Some(cg), Some(cgrads)) = (&self.color_grid, &mut grads.color_grid) {
                        cg.backward_into(
                            unit,
                            &ws.d_color_in[..emb_len],
                            cgrads,
                            &mut Tagged {
                                branch: GridBranch::Color,
                                inner: obs,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Grid table reads per point during feed-forward (density + color).
    pub fn grid_reads_per_point(&self) -> usize {
        let d = self.density_grid.reads_per_point();
        match (&self.color_grid, self.topology) {
            (Some(cg), GridTopology::Decoupled) => d + cg.reads_per_point(),
            _ => d,
        }
    }

    /// MLP multiply-accumulates per point (both heads, forward only).
    pub fn mlp_flops_per_point(&self) -> usize {
        self.sigma_mlp.flops() + self.color_mlp.flops()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.density_grid.num_params()
            + self.color_grid.as_ref().map_or(0, |g| g.num_params())
            + self.sigma_mlp.num_params()
            + self.color_mlp.num_params()
    }
}

impl RadianceField for NerfModel {
    fn aabb(&self) -> Aabb {
        self.aabb
    }

    /// Convenience query allocating a fresh workspace per call. Hot paths
    /// (training, evaluation rendering) use the workspace APIs instead.
    fn query(&self, pos: Vec3, dir: Vec3) -> (f32, Vec3) {
        let mut ws = self.workspace();
        let mut sh = vec![0.0; self.sh_dim()];
        self.encode_dir(dir, &mut sh);
        self.query_train(pos, &sh, &mut ws, &mut NullBranchObserver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant3d_nerf::fp16::F16;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg(topology: GridTopology) -> TrainConfig {
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = topology;
        cfg
    }

    fn model(topology: GridTopology) -> NerfModel {
        let mut rng = StdRng::seed_from_u64(17);
        NerfModel::new(&tiny_cfg(topology), Aabb::UNIT, &mut rng)
    }

    #[test]
    fn coupled_model_has_no_color_grid() {
        let m = model(GridTopology::Coupled);
        assert!(m.color_grid().is_none());
        let d = m.density_grid().reads_per_point();
        assert_eq!(m.grid_reads_per_point(), d);
    }

    #[test]
    fn decoupled_model_reads_both_grids() {
        let m = model(GridTopology::Decoupled);
        assert!(m.color_grid().is_some());
        let d = m.density_grid().reads_per_point();
        let c = m.color_grid().unwrap().reads_per_point();
        assert_eq!(m.grid_reads_per_point(), d + c);
    }

    #[test]
    fn forward_outputs_are_sane() {
        for topo in [GridTopology::Coupled, GridTopology::Decoupled] {
            let m = model(topo);
            let mut ws = m.workspace();
            let mut sh = vec![0.0; m.sh_dim()];
            m.encode_dir(Vec3::new(0.0, 0.0, 1.0), &mut sh);
            let (sigma, rgb) =
                m.query_train(Vec3::splat(0.4), &sh, &mut ws, &mut NullBranchObserver);
            assert!(sigma >= 0.0, "TruncExp density must be non-negative");
            assert!(sigma.is_finite());
            for k in 0..3 {
                assert!((0.0..=1.0).contains(&rgb[k]), "sigmoid rgb in range");
            }
        }
    }

    #[test]
    fn radiance_field_impl_matches_workspace_path() {
        let m = model(GridTopology::Decoupled);
        let pos = Vec3::new(0.3, 0.6, 0.2);
        let dir = Vec3::new(0.6, 0.64, 0.48).normalized();
        let (s1, c1) = m.query(pos, dir);
        let mut ws = m.workspace();
        let mut sh = vec![0.0; m.sh_dim()];
        m.encode_dir(dir, &mut sh);
        let (s2, c2) = m.query_train(pos, &sh, &mut ws, &mut NullBranchObserver);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    /// End-to-end gradient check: L = a·σ + b·rgb for one point.
    fn check_model_gradients(topo: GridTopology, update_color: bool) {
        let mut m = model(topo);
        let pos = Vec3::new(0.37, 0.21, 0.66);
        let dir = Vec3::new(0.0, 0.6, 0.8);
        let mut sh = vec![0.0; m.sh_dim()];
        m.encode_dir(dir, &mut sh);
        let d_sigma = 0.3f32;
        let d_rgb = Vec3::new(1.0, -0.5, 0.25);

        let mut ws = m.workspace();
        let mut grads = m.zero_grads();
        let (_, _) = m.query_train(pos, &sh, &mut ws, &mut NullBranchObserver);
        let emb_d = ws.emb_d.clone();
        let emb_c = ws.emb_c.clone();
        m.heads_backward(&emb_d, &emb_c, &sh, d_sigma, d_rgb, &mut ws, &mut grads);
        m.scatter_grids(
            pos,
            &mut ws,
            &mut grads,
            &mut NullBranchObserver,
            update_color,
        );

        let loss = |m: &NerfModel| -> f32 {
            let mut ws = m.workspace();
            let mut sh2 = vec![0.0; m.sh_dim()];
            m.encode_dir(dir, &mut sh2);
            let (s, c) = m.query_train(pos, &sh2, &mut ws, &mut NullBranchObserver);
            d_sigma * s + d_rgb.dot(c)
        };

        // Finite-difference check on a few touched density-grid params.
        // eps is small to avoid crossing ReLU kinks inside the heads.
        let eps = 1e-4;
        let touched: Vec<usize> = grads
            .density_grid
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > 1e-7)
            .map(|(i, _)| i)
            .take(6)
            .collect();
        assert!(!touched.is_empty(), "density grid got no gradient");
        for i in touched {
            // The table holds fp16: divide by the perturbation it stored.
            let orig = m.density_grid().params()[i];
            let plus = F16::from_f32(orig.to_f32() + eps);
            let minus = F16::from_f32(orig.to_f32() - eps);
            m.density_grid_mut().params_mut()[i] = plus;
            let lp = loss(&m);
            m.density_grid_mut().params_mut()[i] = minus;
            let lm = loss(&m);
            m.density_grid_mut().params_mut()[i] = orig;
            let fd = (lp - lm) / (plus.to_f32() - minus.to_f32());
            let an = grads.density_grid.values[i];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                "{topo:?} density param {i}: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn coupled_gradients_match_finite_difference() {
        check_model_gradients(GridTopology::Coupled, true);
    }

    #[test]
    fn decoupled_gradients_match_finite_difference() {
        check_model_gradients(GridTopology::Decoupled, true);
    }

    #[test]
    fn skipped_color_update_leaves_color_grid_grads_zero() {
        let m = model(GridTopology::Decoupled);
        let pos = Vec3::splat(0.5);
        let mut sh = vec![0.0; m.sh_dim()];
        m.encode_dir(Vec3::Z, &mut sh);
        let mut ws = m.workspace();
        let mut grads = m.zero_grads();
        m.query_train(pos, &sh, &mut ws, &mut NullBranchObserver);
        let emb_d = ws.emb_d.clone();
        let emb_c = ws.emb_c.clone();
        m.heads_backward(&emb_d, &emb_c, &sh, 1.0, Vec3::ONE, &mut ws, &mut grads);
        // A skipped color iteration.
        m.scatter_grids(pos, &mut ws, &mut grads, &mut NullBranchObserver, false);
        let cg = grads.color_grid.as_ref().unwrap();
        assert!(
            cg.values.iter().all(|&v| v == 0.0),
            "color grid must be untouched"
        );
        // But the color MLP still learned.
        let any_mlp_grad = grads
            .color_mlp
            .layers
            .iter()
            .any(|(w, _)| w.iter().any(|&v| v != 0.0));
        assert!(any_mlp_grad, "color MLP should still receive gradients");
    }

    #[test]
    fn observer_sees_branch_tagged_accesses() {
        #[derive(Default)]
        struct Counts {
            ff_d: usize,
            ff_c: usize,
            bp_d: usize,
            bp_c: usize,
        }
        impl BranchObserver for Counts {
            fn on_branch_access(
                &mut self,
                branch: GridBranch,
                phase: AccessPhase,
                _: u32,
                _: u8,
                _: u32,
            ) {
                match (branch, phase) {
                    (GridBranch::Density, AccessPhase::FeedForward) => self.ff_d += 1,
                    (GridBranch::Color, AccessPhase::FeedForward) => self.ff_c += 1,
                    (GridBranch::Density, AccessPhase::BackProp) => self.bp_d += 1,
                    (GridBranch::Color, AccessPhase::BackProp) => self.bp_c += 1,
                }
            }
        }
        let m = model(GridTopology::Decoupled);
        let mut obs = Counts::default();
        let mut ws = m.workspace();
        let mut sh = vec![0.0; m.sh_dim()];
        m.encode_dir(Vec3::Z, &mut sh);
        let pos = Vec3::splat(0.5);
        m.query_train(pos, &sh, &mut ws, &mut obs);
        let rd = m.density_grid().reads_per_point();
        let rc = m.color_grid().unwrap().reads_per_point();
        assert_eq!(obs.ff_d, rd);
        assert_eq!(obs.ff_c, rc);
        let emb_d = ws.emb_d.clone();
        let emb_c = ws.emb_c.clone();
        let mut grads = m.zero_grads();
        m.heads_backward(&emb_d, &emb_c, &sh, 1.0, Vec3::ONE, &mut ws, &mut grads);
        m.scatter_grids(pos, &mut ws, &mut grads, &mut obs, true);
        assert_eq!(obs.bp_d, rd, "BP writes mirror the corner count");
        assert_eq!(obs.bp_c, rc);
    }

    #[test]
    fn param_count_is_positive_and_topology_dependent() {
        let c = model(GridTopology::Coupled).num_params();
        let d = model(GridTopology::Decoupled).num_params();
        assert!(c > 0);
        assert!(d > c, "decoupled adds a color grid");
    }
}
