//! Property-based tests of the NeRF substrate's core invariants.

use instant3d_nerf::activation::Activation;
use instant3d_nerf::fp16::{quantize, F16};
use instant3d_nerf::grid::{HashGrid, HashGridConfig, NullObserver};
use instant3d_nerf::hash::{corner_group, dense_index, spatial_hash};
use instant3d_nerf::kernels;
use instant3d_nerf::math::{Aabb, Ray, Vec3};
use instant3d_nerf::metrics::psnr;
use instant3d_nerf::render::{
    composite_backward_slices, composite_slices, RayBatch, RayBatchCache, RenderOutput,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_f32(range: std::ops::RangeInclusive<f32>) -> impl Strategy<Value = f32> {
    range.prop_filter("finite", |v| v.is_finite())
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (
        finite_f32(-10.0..=10.0),
        finite_f32(-10.0..=10.0),
        finite_f32(-10.0..=10.0),
    )
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// One ray with the given densities, uniformly spaced over `[0, 1]`, all
/// emitting `rgb`.
fn uniform_ray(sigmas: &[f32], rgb: Vec3) -> RayBatch {
    let dt = 1.0 / sigmas.len() as f32;
    let mut ray = RayBatch::new();
    for i in 0..sigmas.len() {
        ray.push_sample((i as f32 + 0.5) * dt, dt);
    }
    ray.sigma.copy_from_slice(sigmas);
    ray.rgb.fill(rgb);
    ray.end_ray();
    ray
}

/// Composites `ray`, filling `cache` when given.
fn integrate(
    ray: &RayBatch,
    background: Vec3,
    cache: Option<&mut RayBatchCache>,
) -> (RenderOutput, usize) {
    let rows = cache.map(|c| {
        c.reserve_for(ray);
        (
            &mut c.weights[..],
            &mut c.trans[..],
            &mut c.one_minus_alpha[..],
        )
    });
    composite_slices(&ray.t, &ray.dt, &ray.sigma, &ray.rgb, background, rows)
}

proptest! {
    // ---------- fp16 ----------

    #[test]
    fn fp16_roundtrip_is_idempotent(v in finite_f32(-1e4..=1e4)) {
        let once = quantize(v);
        prop_assert_eq!(quantize(once), once);
    }

    #[test]
    fn fp16_relative_error_bounded(v in finite_f32(0.001..=1e4)) {
        let q = F16::from_f32(v).to_f32();
        // Normal-range fp16 rounding error is at most 2^-11 relative.
        prop_assert!((q - v).abs() <= v * 4.9e-4, "v={v} q={q}");
    }

    #[test]
    fn fp16_preserves_ordering(a in finite_f32(-6e4..=6e4), b in finite_f32(-6e4..=6e4)) {
        // Rounding is monotone: a <= b implies q(a) <= q(b).
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantize(lo) <= quantize(hi));
    }

    // ---------- spatial hash ----------

    #[test]
    fn hash_stays_in_table(x in 0u32..10_000, y in 0u32..10_000, z in 0u32..10_000,
                           log2 in 4u32..20) {
        let t = 1u32 << log2;
        prop_assert!(spatial_hash(x, y, z, t) < t);
    }

    #[test]
    fn hash_is_deterministic(x in any::<u32>(), y in any::<u32>(), z in any::<u32>()) {
        let t = 1 << 16;
        prop_assert_eq!(spatial_hash(x, y, z, t), spatial_hash(x, y, z, t));
    }

    #[test]
    fn even_x_neighbours_are_adjacent(x in (0u32..1000).prop_map(|v| v * 2),
                                      y in 0u32..1000, z in 0u32..1000) {
        // π₁ = 1 ⇒ even-x neighbours differ by exactly 1 (Fig. 9's peak).
        let t = 1 << 18;
        let a = spatial_hash(x, y, z, t) as i64;
        let b = spatial_hash(x + 1, y, z, t) as i64;
        prop_assert_eq!((a - b).abs(), 1);
    }

    #[test]
    fn dense_index_bounds(res in 1u32..32, x in 0u32..33, y in 0u32..33, z in 0u32..33) {
        let n = res + 1;
        prop_assume!(x < n && y < n && z < n);
        let i = dense_index(x, y, z, res);
        prop_assert!(i < n * n * n);
    }

    #[test]
    fn corner_groups_partition(c in 0usize..8) {
        let g = corner_group(c);
        prop_assert!(g < 4);
        prop_assert_eq!(corner_group(c ^ 1), g, "x-partner shares the group");
    }

    // ---------- geometry ----------

    #[test]
    fn aabb_unit_mapping_roundtrips(p in vec3()) {
        let b = Aabb::new(Vec3::splat(-12.0), Vec3::splat(12.0));
        let u = b.to_unit(p);
        let back = b.from_unit(u);
        prop_assert!((back - p).norm() < 1e-3, "p={p} back={back}");
    }

    #[test]
    fn ray_box_intersection_points_are_on_box(ox in finite_f32(-5.0..=5.0),
                                              oy in finite_f32(-5.0..=5.0)) {
        let ray = Ray::new(Vec3::new(ox, oy, -3.0), Vec3::Z);
        if let Some((t0, t1)) = Aabb::UNIT.intersect(&ray) {
            prop_assert!(t0 <= t1);
            let eps = 1e-3;
            for t in [t0, t1] {
                let p = ray.at(t);
                prop_assert!(p.x >= -eps && p.x <= 1.0 + eps);
                prop_assert!(p.y >= -eps && p.y <= 1.0 + eps);
                prop_assert!(p.z >= -eps && p.z <= 1.0 + eps);
            }
        }
    }

    #[test]
    fn vec3_triangle_inequality(a in vec3(), b in vec3()) {
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-4);
    }

    // ---------- volume rendering ----------

    #[test]
    fn compositing_conserves_probability(sigmas in prop::collection::vec(0.0f32..50.0, 1..64)) {
        let (out, _) = integrate(&uniform_ray(&sigmas, Vec3::ONE), Vec3::ZERO, None);
        prop_assert!(out.opacity >= -1e-5 && out.opacity <= 1.0 + 1e-5);
        prop_assert!(out.transmittance >= 0.0 && out.transmittance <= 1.0);
        prop_assert!((out.opacity + out.transmittance - 1.0).abs() < 1e-4);
        // White emitters on black background: color = opacity per channel.
        prop_assert!((out.color.x - out.opacity).abs() < 1e-4);
    }

    #[test]
    fn compositing_color_in_convex_hull(
        sigmas in prop::collection::vec(0.0f32..20.0, 1..32),
        r in 0.0f32..1.0, g in 0.0f32..1.0)
    {
        // All samples share one color; the background is another color:
        // the output must lie between them channel-wise.
        let emit = Vec3::new(r, g, 0.25);
        let bg = Vec3::new(1.0 - r, 1.0 - g, 0.75);
        let (out, _) = integrate(&uniform_ray(&sigmas, emit), bg, None);
        for k in 0..3 {
            let lo = emit[k].min(bg[k]) - 1e-4;
            let hi = emit[k].max(bg[k]) + 1e-4;
            prop_assert!(out.color[k] >= lo && out.color[k] <= hi);
        }
    }

    #[test]
    fn composite_backward_rgb_grads_are_weights(
        sigmas in prop::collection::vec(0.1f32..10.0, 1..16))
    {
        let n = sigmas.len();
        let ray = uniform_ray(&sigmas, Vec3::splat(0.5));
        let mut cache = RayBatchCache::default();
        let (out, active) = integrate(&ray, Vec3::ZERO, Some(&mut cache));
        let (mut d_sigma, mut d_rgb) = (vec![0.0f32; n], vec![Vec3::ZERO; n]);
        composite_backward_slices(
            &ray.dt, &ray.rgb, Vec3::ZERO, &cache.weights, &cache.trans, &cache.one_minus_alpha,
            active, &out, Vec3::new(1.0, 0.0, 0.0), &mut d_sigma, &mut d_rgb,
        );
        for (k, w) in cache.weights[..active].iter().enumerate() {
            prop_assert!((d_rgb[k].x - w).abs() < 1e-5);
            prop_assert_eq!(d_rgb[k].y, 0.0);
        }
    }

    // ---------- activations ----------

    #[test]
    fn activations_are_finite_and_ranged(x in finite_f32(-50.0..=50.0)) {
        for act in [Activation::Relu, Activation::Sigmoid, Activation::TruncExp, Activation::Softplus] {
            let y = act.apply(x);
            prop_assert!(y.is_finite(), "{act:?}({x}) = {y}");
            if act == Activation::Sigmoid {
                prop_assert!((0.0..=1.0).contains(&y));
            }
            if matches!(act, Activation::Relu | Activation::TruncExp | Activation::Softplus) {
                prop_assert!(y >= 0.0);
            }
        }
    }

    // ---------- hash grid ----------

    #[test]
    fn grid_encoding_is_bounded_by_feature_magnitude(px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0) {
        let cfg = HashGridConfig {
            levels: 3,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 16,
            init_scale: 0.5,
            ..HashGridConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(99);
        let grid = HashGrid::new_random(cfg, &mut rng);
        let emb = grid.encode(Vec3::new(px, py, pz));
        // A convex combination of features bounded by ±0.5 stays bounded.
        for v in emb {
            prop_assert!(v.abs() <= 0.5 + 1e-5);
        }
    }

    #[test]
    fn grid_backward_distributes_exactly_one_weight_unit(
        px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0)
    {
        // Scattering a unit gradient puts trilinear weights summing to 1
        // per level per feature — unless hash collisions merge corners, in
        // which case weights still sum to 1 (they accumulate).
        let cfg = HashGridConfig {
            levels: 2,
            log2_table_size: 12,
            base_resolution: 4,
            max_resolution: 8,
            ..HashGridConfig::default()
        };
        let grid = HashGrid::new(cfg.clone());
        let mut grads = grid.zero_grads();
        let d = vec![1.0f32; grid.output_dim()];
        grid.backward_into(Vec3::new(px, py, pz), &d, &mut grads, &mut NullObserver);
        let f = cfg.features_per_entry;
        // Feature slot 0 of each entry accumulates level-0's weights.
        let total: f32 = grads.values.iter().step_by(f).sum();
        prop_assert!((total - cfg.levels as f32).abs() < 1e-4, "total {total}");
    }

    // ---------- metrics ----------

    #[test]
    fn psnr_is_monotone_in_mse(a in 1e-6f32..1.0, b in 1e-6f32..1.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(psnr(lo, 1.0) >= psnr(hi, 1.0));
    }

    // ---------- batched SoA kernels vs scalar reference ----------

    #[test]
    fn grid_encode_batch_matches_scalar(
        pts in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 1..64),
        seed in 0u64..32)
    {
        let cfg = HashGridConfig {
            levels: 3,
            log2_table_size: 10,
            base_resolution: 4,
            max_resolution: 32,
            ..HashGridConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = HashGrid::new_random(cfg, &mut rng);
        let positions: Vec<Vec3> = pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let w = grid.output_dim();

        let mut parallel = vec![0.0f32; positions.len() * w];
        grid.par_encode_batch_with(&kernels::scalar(), &positions, &mut parallel);
        let mut par_lanes = vec![0.0f32; positions.len() * w];
        grid.par_encode_batch_with(&kernels::simd(), &positions, &mut par_lanes);

        for (i, p) in positions.iter().enumerate() {
            let scalar = grid.encode(*p);
            prop_assert_eq!(&parallel[i * w..(i + 1) * w], &scalar[..], "parallel row {}", i);
            prop_assert_eq!(&par_lanes[i * w..(i + 1) * w], &scalar[..], "par simd row {}", i);
        }
    }

    #[test]
    fn grid_backward_batch_matches_scalar(
        pts in prop::collection::vec((0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0), 1..48),
        scale in 0.1f32..2.0)
    {
        let cfg = HashGridConfig {
            levels: 3,
            log2_table_size: 8,
            base_resolution: 4,
            max_resolution: 16,
            ..HashGridConfig::default()
        };
        let grid = HashGrid::new(cfg);
        let positions: Vec<Vec3> = pts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let w = grid.output_dim();
        let d_out: Vec<f32> = (0..positions.len() * w)
            .map(|i| scale * ((i % 7) as f32 - 3.0))
            .collect();

        // Scalar reference: one backward_into per point, in order.
        let mut scalar = grid.zero_grads();
        for (i, p) in positions.iter().enumerate() {
            grid.backward_into(*p, &d_out[i * w..(i + 1) * w], &mut scalar, &mut NullObserver);
        }
        // Parallel level-major scalar and SIMD scatters.
        let mut parallel = grid.zero_grads();
        grid.par_backward_batch_with(&kernels::scalar(), &positions, &d_out, &mut parallel);
        let mut lanes = grid.zero_grads();
        grid.par_backward_batch_with(&kernels::simd(), &positions, &d_out, &mut lanes);

        prop_assert_eq!(&parallel.values, &scalar.values);
        prop_assert_eq!(parallel.count, scalar.count);
        prop_assert_eq!(&lanes.values, &scalar.values);
        prop_assert_eq!(lanes.count, scalar.count);
    }

    #[test]
    fn mlp_forward_batch_matches_scalar(
        rows in prop::collection::vec((0.0f32..1.0, -1.0f32..1.0, 0.0f32..1.0, -1.0f32..1.0), 1..48),
        seed in 0u64..32)
    {
        use instant3d_nerf::mlp::{Mlp, MlpConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            MlpConfig::new(4, &[8, 8], 3, Activation::Relu, Activation::Sigmoid),
            &mut rng,
        );
        let inputs: Vec<f32> = rows.iter().flat_map(|&(a, b, c, d)| [a, b, c, d]).collect();
        let mut bws = mlp.batch_workspace(rows.len());
        let out = mlp
            .forward_batch_with(&kernels::scalar(), &inputs, &mut bws)
            .to_vec();
        let mut bws_simd = mlp.batch_workspace(rows.len());
        let out_simd = mlp
            .forward_batch_with(&kernels::simd(), &inputs, &mut bws_simd)
            .to_vec();
        let mut ws = mlp.workspace();
        for (i, row) in inputs.chunks(4).enumerate() {
            let scalar = mlp.forward(row, &mut ws);
            prop_assert_eq!(&out[i * 3..(i + 1) * 3], scalar, "row {}", i);
            prop_assert_eq!(&out_simd[i * 3..(i + 1) * 3], scalar, "simd row {}", i);
        }
    }

    #[test]
    fn mlp_backward_batch_matches_scalar(
        rows in prop::collection::vec((0.0f32..1.0, -1.0f32..1.0, 0.0f32..1.0), 1..32),
        seed in 0u64..32)
    {
        use instant3d_nerf::mlp::{Mlp, MlpConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(
            MlpConfig::new(3, &[8], 2, Activation::Relu, Activation::None),
            &mut rng,
        );
        let inputs: Vec<f32> = rows.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
        let n = rows.len();
        let d_out: Vec<f32> = (0..n * 2).map(|i| 0.25 * ((i % 5) as f32 - 2.0)).collect();

        // Scalar reference: forward + backward per item, accumulating.
        let mut ws = mlp.workspace();
        let mut scalar_grads = mlp.zero_grads();
        let mut scalar_d_in = vec![0.0f32; n * 3];
        for i in 0..n {
            mlp.forward(&inputs[i * 3..(i + 1) * 3], &mut ws);
            mlp.backward(
                &d_out[i * 2..(i + 1) * 2],
                &mut ws,
                &mut scalar_grads,
                &mut scalar_d_in[i * 3..(i + 1) * 3],
            );
        }
        // Batched: one forward, one backward, retained activations — on
        // every registered kernel backend.
        for backend in kernels::registered() {
            let mut bws = mlp.batch_workspace(n);
            mlp.forward_batch_with(&backend, &inputs, &mut bws);
            let mut grads = mlp.zero_grads();
            let mut d_in = vec![0.0f32; n * 3];
            mlp.backward_batch_with(&backend, &d_out, &mut bws, &mut grads, &mut d_in);

            prop_assert_eq!(grads.count, scalar_grads.count);
            for (li, ((gw, gb), (sw, sb))) in
                grads.layers.iter().zip(&scalar_grads.layers).enumerate()
            {
                prop_assert_eq!(gw, sw, "{} layer {} weights", backend, li);
                prop_assert_eq!(gb, sb, "{} layer {} biases", backend, li);
            }
            prop_assert_eq!(d_in, scalar_d_in.clone(), "{} input grads", backend);
        }
    }

    // ---------- Morton-packed occupancy bitfield ----------

    #[test]
    fn morton3_roundtrips_through_bit_deinterleave(
        x in 0u32..(1 << 21), y in 0u32..(1 << 21), z in 0u32..(1 << 21))
    {
        use instant3d_nerf::occupancy::morton3;
        let code = morton3(x, y, z);
        let mut dx = 0u32;
        let mut dy = 0u32;
        let mut dz = 0u32;
        for b in 0..21 {
            dx |= (((code >> (3 * b)) & 1) as u32) << b;
            dy |= (((code >> (3 * b + 1)) & 1) as u32) << b;
            dz |= (((code >> (3 * b + 2)) & 1) as u32) << b;
        }
        prop_assert_eq!((dx, dy, dz), (x, y, z));
    }

    #[test]
    fn occupancy_bitfield_matches_vec_bool_model(
        resolution in 1u32..=11,
        seed in 0u64..1000,
        threshold in -0.5f32..0.5)
    {
        use instant3d_nerf::occupancy::OccupancyGrid;
        use rand::Rng;
        let aabb = Aabb::new(Vec3::new(-1.5, 0.0, 0.5), Vec3::new(0.5, 2.0, 3.5));
        let r = resolution as usize;
        let n = r * r * r;
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        // The naive model: a plain Vec<bool> in linear (x-fastest) order.
        let model: Vec<bool> = values.iter().map(|&v| v > threshold).collect();

        let mut occ = OccupancyGrid::new(aabb, resolution);
        occ.set_from_values(&values, threshold);

        // set_from_values / occupied_linear round-trip.
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(occ.occupied_linear(i), m, "cell {}", i);
        }
        // occupancy_fraction agrees with the model's popcount.
        let frac = model.iter().filter(|&&b| b).count() as f32 / n as f32;
        prop_assert_eq!(occ.occupancy_fraction(), frac);
        // occupied_at agrees with the model under the same cell-index math
        // at random world points (inside and outside the box).
        for _ in 0..32 {
            let p = Vec3::new(
                rng.gen_range(-2.0f32..1.0),
                rng.gen_range(-0.5f32..2.5),
                rng.gen_range(0.0f32..4.0),
            );
            let u = aabb.to_unit(p);
            let expect = if !(0.0..=1.0).contains(&u.x)
                || !(0.0..=1.0).contains(&u.y)
                || !(0.0..=1.0).contains(&u.z)
            {
                false
            } else {
                let cx = ((u.x * resolution as f32) as usize).min(r - 1);
                let cy = ((u.y * resolution as f32) as usize).min(r - 1);
                let cz = ((u.z * resolution as f32) as usize).min(r - 1);
                model[cx + cy * r + cz * r * r]
            };
            prop_assert_eq!(occ.occupied_at(p), expect, "point {:?}", p);
        }
        // Padding invariant: the packed popcount equals the model's even
        // for non-power-of-two resolutions (no stray bits in the padded
        // Morton index space).
        let set: u64 = occ.words().iter().map(|w| w.count_ones() as u64).sum();
        prop_assert_eq!(set as usize, model.iter().filter(|&&b| b).count());
    }

    #[test]
    fn occupancy_update_from_fn_equals_set_from_values_on_centers(
        resolution in 1u32..=8, seed in 0u64..1000)
    {
        use instant3d_nerf::occupancy::OccupancyGrid;
        let aabb = Aabb::UNIT;
        let mut a = OccupancyGrid::new(aabb, resolution);
        let mut b = OccupancyGrid::new(aabb, resolution);
        let f = move |p: Vec3| {
            // A deterministic pseudo-density varying per cell.
            (p.x * 37.0 + p.y * 17.0 + p.z * 11.0 + seed as f32).sin() * 2.0
        };
        a.update_from_fn(f, 0.3);
        let values: Vec<f32> = b.cell_centers().iter().map(|&c| f(c)).collect();
        b.set_from_values(&values, 0.3);
        prop_assert_eq!(a.words(), b.words());
    }
}
