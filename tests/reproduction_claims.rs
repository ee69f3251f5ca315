//! The paper's headline claims, asserted as integration tests against the
//! calibrated models. Tolerances are generous where our substitutions
//! legitimately shift constants; shapes (who wins, rough factors,
//! crossovers) are asserted tightly.

use instant3d::accel::energy::AreaModel;
use instant3d::accel::{AccelConfig, Accelerator, FeatureSet};
use instant3d::core::{PipelineWorkload, TrainConfig};
use instant3d::devices::breakdown::StepBreakdown;
use instant3d::devices::perf::{ITERS_TO_PSNR25, ITERS_TO_PSNR26};
use instant3d::devices::DeviceModel;
use instant3d::nerf::fp16::F16;
use instant3d::nerf::grid::{HashGrid, HashGridConfig};

fn ngp() -> PipelineWorkload {
    PipelineWorkload::paper_scale_instant_ngp(ITERS_TO_PSNR26)
}

fn i3d() -> PipelineWorkload {
    PipelineWorkload::paper_scale_instant3d(ITERS_TO_PSNR26)
}

#[test]
fn abstract_claim_training_time_reduction_41x_to_248x() {
    // "achieving a large training time reduction of 41× - 248×".
    let accel = Accelerator::default()
        .simulate(&i3d(), FeatureSet::full())
        .seconds_total;
    let speedups: Vec<f64> = DeviceModel::all_baselines()
        .iter()
        .map(|d| d.runtime(&ngp()) / accel)
        .collect();
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    assert!(
        min > 30.0 && min < 60.0,
        "min speedup {min:.0}x should be ≈ 45x (paper band starts at 41x)"
    );
    assert!(
        max > 180.0 && max < 280.0,
        "max speedup {max:.0}x should be ≈ 224x (paper band ends at 248x)"
    );
}

#[test]
fn abstract_claim_instant_reconstruction_under_power_budget() {
    // "1.6 seconds per scene ... meeting the AR/VR power consumption
    // constraint of 1.9 W".
    let r = Accelerator::default().simulate(
        &PipelineWorkload::paper_scale_instant3d(ITERS_TO_PSNR25),
        FeatureSet::full(),
    );
    assert!(
        r.seconds_total < 5.0,
        "reconstruction {:.2} s must be instant (< 5 s)",
        r.seconds_total
    );
    assert!(
        (1.5..=2.3).contains(&r.avg_power_w),
        "power {:.2} W should be ≈ 1.9 W",
        r.avg_power_w
    );
}

#[test]
fn fig4_claim_grid_interpolation_is_the_bottleneck_everywhere() {
    for device in DeviceModel::all_baselines() {
        let b = StepBreakdown::compute(&device, &ngp());
        let frac = b.grid_interpolation_fraction();
        assert!(
            (0.7..=0.9).contains(&frac),
            "{}: grid share {frac:.2} should be ≈ 0.8",
            device.spec().name
        );
    }
}

#[test]
fn tab4_claim_algorithm_speeds_up_every_dataset_scale() {
    let xavier = DeviceModel::xavier_nx();
    for points_scale in [1.0, 1.875, 1.17] {
        let scale = |mut w: PipelineWorkload| {
            w.points_per_iter *= points_scale;
            w.grid_reads_ff_per_iter *= points_scale;
            w.grid_writes_bp_per_iter *= points_scale;
            w.mlp_flops_per_iter *= points_scale;
            w
        };
        let t_ngp = xavier.runtime(&scale(ngp()));
        let t_i3d = xavier.runtime(&scale(i3d()));
        let ratio = t_i3d / t_ngp;
        assert!(
            (0.70..=0.95).contains(&ratio),
            "algorithm-normalized runtime {ratio:.2} should sit near the paper's 0.82-0.86"
        );
    }
}

#[test]
fn tab5_claim_codesign_reaches_a_few_percent() {
    let xavier = DeviceModel::xavier_nx();
    let base = xavier.runtime(&ngp());
    let codesign = Accelerator::default()
        .simulate(&i3d(), FeatureSet::full())
        .seconds_total;
    let normalized = codesign / base;
    assert!(
        (0.01..=0.05).contains(&normalized),
        "co-design normalized runtime {:.1}% should be ≈ 2-3%",
        normalized * 100.0
    );
}

#[test]
fn fig15_claim_grid_cores_dominate_area_and_energy() {
    let area = AreaModel::default();
    assert!(
        (area.total() - 6.8).abs() < 0.1,
        "total {} mm²",
        area.total()
    );
    assert!((0.72..=0.84).contains(&area.grid_fraction()));

    let r = Accelerator::default().simulate(&i3d(), FeatureSet::full());
    let f = r.energy_breakdown.grid_fraction_dynamic();
    assert!((0.7..=0.9).contains(&f), "energy grid fraction {f:.2}");
}

#[test]
fn fig17_claim_waterfall_multiplies_to_total() {
    let stages = Accelerator::default().speedup_waterfall(ITERS_TO_PSNR26);
    let product: f64 = stages
        .windows(2)
        .map(|w| w[0].1.seconds_total / w[1].1.seconds_total)
        .product();
    let direct = stages[0].1.seconds_total / stages[3].1.seconds_total;
    assert!(
        (product - direct).abs() / direct < 1e-9,
        "stages must compose"
    );
    assert!(
        direct > 30.0,
        "staged total {direct:.0}x should be tens of ×"
    );
}

#[test]
fn fig16_claim_energy_efficiency_order_of_magnitude() {
    // 1198× / 1089× / 479× more energy-efficient than Nano / TX2 / Xavier.
    let acc = Accelerator::default().simulate(&i3d(), FeatureSet::full());
    let effs: Vec<f64> = DeviceModel::all_baselines()
        .iter()
        .map(|d| d.energy(&ngp()) / acc.energy_total_j)
        .collect();
    assert!(
        (900.0..=1500.0).contains(&effs[0]),
        "vs Nano {:.0}",
        effs[0]
    );
    assert!((800.0..=1400.0).contains(&effs[1]), "vs TX2 {:.0}", effs[1]);
    assert!(
        (350.0..=650.0).contains(&effs[2]),
        "vs Xavier {:.0}",
        effs[2]
    );
}

#[test]
fn related_work_claim_tiny_chip() {
    // Instant-3D consumes "36% of the chip area" of RT-NeRF-class designs
    // and is far smaller than the edge SoCs it replaces.
    let spec = instant3d::devices::spec::instant3d_accelerator();
    let xavier = instant3d::devices::spec::xavier_nx();
    assert!(spec.area_mm2.unwrap() / xavier.area_mm2.unwrap() < 0.05);
    assert!(spec.typical_power_w / xavier.typical_power_w < 0.15);
}

#[test]
fn grid_size_knob_behaves_like_tab1() {
    // Shrinking the color grid must not slow things down; the decomposed
    // configs must be at least as fast as the coupled baseline.
    let xavier = DeviceModel::xavier_nx();
    let base = xavier.runtime(&PipelineWorkload::paper_scale_instant_ngp(400.0));
    for (d, c) in [(1.0, 0.25), (0.25, 1.0)] {
        let cfg = TrainConfig::decoupled(d, c, 1, 1);
        let w = instant3d_workload(&cfg, 400.0);
        let t = xavier.runtime(&w);
        assert!(
            t < base,
            "decoupled {d}:{c} runtime {t:.0}s should beat coupled {base:.0}s"
        );
    }
}

/// Local re-implementation of the bench workload builder (the bench crate
/// is not a dependency of the facade).
fn instant3d_workload(cfg: &TrainConfig, iterations: f64) -> PipelineWorkload {
    let points = 200_000.0;
    let reads = points * 16.0 * 8.0;
    PipelineWorkload {
        iterations,
        rays_per_iter: 4096.0,
        points_per_iter: points,
        levels: 16,
        grid_reads_ff_per_iter: 2.0 * reads,
        grid_writes_bp_per_iter: reads / cfg.density_update_every as f64
            + reads / cfg.color_update_every as f64,
        mlp_flops_per_iter: points * 36_000.0,
        density_table_bytes: ((1 << 20) as f64 * cfg.density_size_factor) as usize,
        color_table_bytes: ((1 << 20) as f64 * cfg.color_size_factor) as usize,
        bytes_per_access: 4,
    }
}

#[test]
fn engine_table_entries_are_the_modelled_bytes_per_access() {
    // The workload model and the accelerator charge one table access as
    // F features × fp16 (§5.1); the engine's tables store exactly that.
    for cfg in [TrainConfig::instant_ngp(), TrainConfig::instant3d()] {
        let f = cfg.grid.features_per_entry;
        let entry = std::mem::size_of::<F16>() * f;
        let modelled = PipelineWorkload::paper_scale(&cfg, 1.0).bytes_per_access;
        assert_eq!(entry, modelled, "PipelineWorkload bytes per access");
        assert_eq!(entry, AccelConfig::default().bytes_per_access, "accel");
        let grid = HashGrid::new(HashGridConfig {
            features_per_entry: f,
            ..HashGridConfig::default()
        });
        let entries: usize = grid.levels().iter().map(|l| l.table_size as usize).sum();
        assert_eq!(std::mem::size_of_val(grid.params()), entries * entry);
    }
}
