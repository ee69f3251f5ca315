//! Model checkpointing: serialize a trained [`NerfModel`]'s parameters to
//! a compact binary blob and restore them later.
//!
//! The paper's AR/VR story depends on shipping reconstructed scenes as
//! small models instead of image sets ("a 20 MB reconstructed model may be
//! used instead of 120 MB jpeg images", §1) — so a real deployment needs
//! (de)serialization. The format is a minimal versioned container: magic,
//! version, per-tensor lengths and coding flags, then raw little-endian
//! values. Grid features are written as fp16 — the grids' own storage
//! format, copied as the tables lie, so nothing is lost — which roughly
//! halves checkpoint size; MLP weights are written as `f32`.

use crate::model::NerfModel;
use instant3d_nerf::fp16::F16;

/// Magic bytes identifying an Instant-3D checkpoint.
pub const MAGIC: &[u8; 4] = b"I3DC";
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors from checkpoint encode/decode.
///
/// A failed [`load`] — whatever the error — leaves the receiving model
/// bitwise untouched (see the transactional guarantee on [`load`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The blob ended before all tensors were read (including a stored
    /// length field that promises more payload bytes than the blob
    /// holds — lengths are validated against the remaining input
    /// *before* any buffer is sized from them).
    Truncated,
    /// A tensor's fp16/f32 coding flag held a value other than 0 or 1.
    BadFlag {
        /// Which tensor carried the flag (in serialization order).
        tensor: usize,
        /// The byte found.
        value: u8,
    },
    /// A tensor's length does not match the receiving model.
    ShapeMismatch {
        /// Which tensor disagreed (in serialization order).
        tensor: usize,
        /// Length stored in the blob.
        stored: usize,
        /// Length the model expects.
        expected: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not an Instant-3D checkpoint"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint data ended unexpectedly"),
            CheckpointError::BadFlag { tensor, value } => {
                write!(f, "tensor {tensor} has unknown coding flag {value:#04x}")
            }
            CheckpointError::ShapeMismatch {
                tensor,
                stored,
                expected,
            } => write!(
                f,
                "tensor {tensor} has {stored} values but the model expects {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// One tensor: its length, its coding flag, then each value's `N`
    /// little-endian bytes.
    fn tensor<T: Copy, const N: usize>(&mut self, flag: u8, values: &[T], le: fn(T) -> [u8; N]) {
        self.u32(values.len() as u32);
        self.buf.push(flag);
        let start = self.buf.len();
        self.buf.resize(start + N * values.len(), 0);
        for (out, &v) in self.buf[start..].chunks_exact_mut(N).zip(values) {
            out.copy_from_slice(&le(v));
        }
    }
    /// An fp16-coded tensor: the table's bits as they lie.
    fn f16_slice(&mut self, values: &[F16]) {
        self.tensor(1, values, |h| h.0.to_le_bytes());
    }
    fn f32_slice(&mut self, values: &[f32]) {
        self.tensor(0, values, f32::to_le_bytes);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        // `pos <= data.len()` is an invariant of `take`, so this cannot
        // underflow.
        self.data.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        // Subtraction-form bounds test: `pos + n` would wrap for
        // adversarial `n` near `usize::MAX` in release builds and let a
        // corrupt length field read out of bounds.
        if n > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Decodes one tensor (length, coding flag, payload) into `out`,
    /// which ends up holding exactly the stored number of values, each
    /// fp16-coded one through `fp16` and each f32-coded one through `f32`.
    ///
    /// The stored length is validated against the bytes actually left in
    /// the blob *before* any memory is reserved from it: a corrupt or
    /// adversarial length field costs at most `remaining` scratch bytes
    /// and a [`CheckpointError::Truncated`], never an unbounded
    /// allocation (and the OOM abort that follows).
    fn tensor_into<T>(
        &mut self,
        tensor: usize,
        out: &mut Vec<T>,
        fp16: fn(F16) -> T,
        f32: fn(f32) -> T,
    ) -> Result<(), CheckpointError> {
        let n = self.u32()? as usize;
        let flag = self.take(1)?[0];
        let elem = match flag {
            0 => 4,
            1 => 2,
            value => return Err(CheckpointError::BadFlag { tensor, value }),
        };
        if n > self.remaining() / elem {
            return Err(CheckpointError::Truncated);
        }
        let bytes = self.take(n * elem)?;
        out.clear();
        out.reserve(n);
        if elem == 2 {
            let values = bytes
                .chunks_exact(2)
                .map(|b| F16(u16::from_le_bytes([b[0], b[1]])));
            out.extend(values.map(fp16));
        } else {
            let values = bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            out.extend(values.map(f32));
        }
        Ok(())
    }

    /// A grid tensor: fp16-coded values kept as stored, f32-coded ones
    /// narrowed through [`F16::from_f32`].
    fn grid_tensor_into(
        &mut self,
        tensor: usize,
        out: &mut Vec<F16>,
    ) -> Result<(), CheckpointError> {
        self.tensor_into(tensor, out, |h| h, F16::from_f32)
    }

    /// An MLP tensor: fp16-coded values widened, f32-coded ones as stored.
    fn f32_tensor_into(
        &mut self,
        tensor: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), CheckpointError> {
        self.tensor_into(tensor, out, F16::to_f32, |v| v)
    }
}

/// The MLP tensors in serialization order: each layer's weights then its
/// bias, the sigma head's layers before the color head's — the order of
/// [`instant3d_nerf::mlp::Mlp::for_each_param_mut`], which [`load`]
/// writes them back through.
fn mlp_tensors(model: &NerfModel) -> impl Iterator<Item = &[f32]> {
    let layers = model.sigma_mlp().layers().iter();
    layers
        .chain(model.color_mlp().layers())
        .flat_map(|l| [l.weights(), l.bias()])
}

/// Serializes a model's parameters (grids fp16, MLPs f32).
pub fn save(model: &NerfModel) -> Vec<u8> {
    let density = model.density_grid().params();
    let color = model.color_grid().map_or(&[][..], |g| g.params());
    // Header, two grid tensors, the MLP tensor count, the MLP tensors.
    let tensor = 4 + 1;
    let mlp: usize = mlp_tensors(model).map(|t| tensor + 4 * t.len()).sum();
    let len = MAGIC.len() + 2 + 2 * tensor + 2 * (density.len() + color.len()) + 4 + mlp;
    let mut w = Writer {
        buf: Vec::with_capacity(len),
    };
    w.buf.extend_from_slice(MAGIC);
    w.u16(VERSION);
    // Tensor 0: density grid. Tensor 1: color grid (possibly empty).
    w.f16_slice(density);
    w.f16_slice(color);
    // MLP tensors in visitor order, f32.
    w.u32(mlp_tensors(model).count() as u32);
    for t in mlp_tensors(model) {
        w.f32_slice(t);
    }
    debug_assert_eq!(w.buf.len(), len, "checkpoint size drifted from its layout");
    w.buf
}

/// Restores parameters into a shape-compatible model (same config).
///
/// The load is **transactional**: the blob is fully decoded into scratch
/// buffers and every tensor shape is validated against `model` *before*
/// the first parameter is written. On any error — bad header, truncated
/// or corrupt data, shape mismatch — the model is left bitwise
/// untouched; a half-restored model (grids from the new blob, MLPs from
/// the old weights) cannot be observed. The serve layer's checkpoint
/// streaming relies on this: a corrupt blob arriving over the wire must
/// not poison a resident job.
///
/// Grid tensors land in the fp16 tables as stored; an f32-coded grid
/// tensor is narrowed through [`F16::from_f32`], the grids' one rounding.
///
/// # Errors
///
/// Returns [`CheckpointError`] when the blob is malformed or its tensor
/// shapes do not match `model`.
pub fn load(model: &mut NerfModel, data: &[u8]) -> Result<(), CheckpointError> {
    // Phase 1 — parse the whole blob into scratch, with every stored
    // length bounds-checked against the remaining input before it sizes
    // an allocation.
    let mut r = Reader { data, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let mut density = Vec::new();
    r.grid_tensor_into(0, &mut density)?;
    let mut color = Vec::new();
    r.grid_tensor_into(1, &mut color)?;
    let n_mlp = r.u32()? as usize;
    // Every stored tensor occupies at least 5 bytes (u32 length + coding
    // flag), which bounds a corrupt tensor count before `with_capacity`.
    if n_mlp > r.remaining() / 5 {
        return Err(CheckpointError::Truncated);
    }
    let mut tensors: Vec<Vec<f32>> = Vec::with_capacity(n_mlp);
    for t in 0..n_mlp {
        let mut buf = Vec::new();
        r.f32_tensor_into(2 + t, &mut buf)?;
        tensors.push(buf);
    }

    // Phase 2 — validate every tensor shape against the model.
    let expected_density = model.density_grid().params().len();
    if density.len() != expected_density {
        return Err(CheckpointError::ShapeMismatch {
            tensor: 0,
            stored: density.len(),
            expected: expected_density,
        });
    }
    let expected_color = model.color_grid().map_or(0, |g| g.params().len());
    if color.len() != expected_color {
        return Err(CheckpointError::ShapeMismatch {
            tensor: 1,
            stored: color.len(),
            expected: expected_color,
        });
    }
    let mut expected_mlp = 0;
    for (i, expected) in mlp_tensors(model).map(<[f32]>::len).enumerate() {
        match tensors.get(i) {
            Some(t) if t.len() == expected => {}
            Some(t) => {
                return Err(CheckpointError::ShapeMismatch {
                    tensor: 2 + i,
                    stored: t.len(),
                    expected,
                })
            }
            None => return Err(CheckpointError::Truncated),
        }
        expected_mlp += 1;
    }
    if tensors.len() != expected_mlp {
        return Err(CheckpointError::ShapeMismatch {
            tensor: 2 + expected_mlp,
            stored: tensors.len(),
            expected: expected_mlp,
        });
    }

    // Phase 3 — commit. Every shape was proven above, so nothing below
    // can fail: the model transitions atomically from its old parameter
    // set to the checkpoint's.
    model
        .density_grid_mut()
        .params_mut()
        .copy_from_slice(&density);
    if let Some(g) = model.color_grid_mut() {
        g.params_mut().copy_from_slice(&color);
    }
    let mut idx = 0usize;
    let mut apply = |mlp: &mut instant3d_nerf::mlp::Mlp| {
        let grads = mlp.zero_grads();
        mlp.for_each_param_mut(&grads, |params, _| {
            params.copy_from_slice(&tensors[idx]);
            idx += 1;
        });
    };
    apply(model.sigma_mlp_mut());
    apply(model.color_mlp_mut());
    debug_assert_eq!(idx, tensors.len(), "visitor order drifted from shapes");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GridTopology, TrainConfig};
    use instant3d_nerf::field::RadianceField;
    use instant3d_nerf::math::{Aabb, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64, topo: GridTopology) -> NerfModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = TrainConfig::fast_preview();
        cfg.topology = topo;
        NerfModel::new(&cfg, Aabb::UNIT, &mut rng)
    }

    #[test]
    fn roundtrip_restores_exact_outputs() {
        for topo in [GridTopology::Coupled, GridTopology::Decoupled] {
            let original = model(1, topo);
            let blob = save(&original);
            let mut restored = model(2, topo); // different random init
            let p = Vec3::new(0.3, 0.6, 0.2);
            let d = Vec3::new(0.6, 0.0, 0.8);
            assert_ne!(original.query(p, d), restored.query(p, d));
            load(&mut restored, &blob).expect("load should succeed");
            // Grid features pass through fp16 (lossless: they were already
            // fp16-quantized by storage); MLP weights are exact f32.
            let (s1, c1) = original.query(p, d);
            let (s2, c2) = restored.query(p, d);
            assert!((s1 - s2).abs() < 1e-5, "{topo:?} sigma {s1} vs {s2}");
            assert!((c1 - c2).norm() < 1e-5, "{topo:?} rgb {c1} vs {c2}");
        }
    }

    #[test]
    fn f32_coded_grid_tensor_is_quantised_to_fp16_storage() {
        // Tensor 0 re-coded as f32 with a value fp16 cannot represent.
        let original = model(8, GridTopology::Decoupled);
        let blob = save(&original);
        let mut density: Vec<f32> = original
            .density_grid()
            .params()
            .iter()
            .map(|h| h.to_f32())
            .collect();
        density[0] = 0.1;
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(MAGIC);
        w.u16(VERSION);
        w.f32_slice(&density);
        w.buf
            .extend_from_slice(&blob[MAGIC.len() + 2 + 4 + 1 + 2 * density.len()..]);
        let mut restored = model(9, GridTopology::Decoupled);
        load(&mut restored, &w.buf).unwrap();
        let q = instant3d_nerf::fp16::quantize(0.1);
        assert_eq!(
            restored.density_grid().params()[0].to_f32().to_bits(),
            q.to_bits()
        );
        assert_eq!(
            restored.density_grid().params()[1..],
            original.density_grid().params()[1..]
        );
    }

    #[test]
    fn checkpoint_is_compact() {
        let m = model(3, GridTopology::Decoupled);
        let blob = save(&m);
        // Grids dominate and are 2 bytes/param; MLPs 4 bytes/param.
        let upper = m.num_params() * 4 + 64;
        assert!(blob.len() < upper, "blob {} vs bound {upper}", blob.len());
        let grid_params =
            m.density_grid().num_params() + m.color_grid().map_or(0, |g| g.num_params());
        assert!(blob.len() >= grid_params * 2, "fp16 floor");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut m = model(4, GridTopology::Decoupled);
        assert_eq!(load(&mut m, b"NOPE....."), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let m = model(5, GridTopology::Coupled);
        let mut blob = save(&m);
        blob[4] = 99; // corrupt version
        let mut m2 = model(5, GridTopology::Coupled);
        assert_eq!(load(&mut m2, &blob), Err(CheckpointError::BadVersion(99)));
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let m = model(6, GridTopology::Decoupled);
        let blob = save(&m);
        let mut m2 = model(6, GridTopology::Decoupled);
        let err = load(&mut m2, &blob[..blob.len() / 2]).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated));
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let coupled = model(7, GridTopology::Coupled);
        let blob = save(&coupled);
        let mut decoupled = model(7, GridTopology::Decoupled);
        assert!(load(&mut decoupled, &blob).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckpointError::ShapeMismatch {
            tensor: 3,
            stored: 10,
            expected: 20,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains("10") && s.contains("20"));
    }
}
