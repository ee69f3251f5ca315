//! Device energy accounting and efficiency comparisons (Fig. 16's
//! energy-efficiency axis).

use crate::perf::DeviceModel;
use instant3d_core::PipelineWorkload;

/// Runtime + energy of one (device, workload) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCost {
    /// Device name.
    pub device: String,
    /// Total runtime in seconds.
    pub seconds: f64,
    /// Total energy in joules.
    pub joules: f64,
    /// Average power in watts.
    pub watts: f64,
}

/// Evaluates a workload's cost on a device.
pub fn run_cost(device: &DeviceModel, w: &PipelineWorkload) -> RunCost {
    let seconds = device.runtime(w);
    let joules = device.energy(w);
    RunCost {
        device: device.spec().name.to_string(),
        seconds,
        joules,
        watts: device.spec().typical_power_w,
    }
}

/// Speedup of `fast` over `slow` (× factor; > 1 means `fast` wins).
pub fn speedup(slow: &RunCost, fast: &RunCost) -> f64 {
    slow.seconds / fast.seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::ITERS_TO_PSNR26;

    fn workload() -> PipelineWorkload {
        PipelineWorkload::paper_scale_instant_ngp(ITERS_TO_PSNR26)
    }

    #[test]
    fn run_cost_is_consistent() {
        let m = DeviceModel::xavier_nx();
        let c = run_cost(&m, &workload());
        assert_eq!(c.device, "Xavier NX");
        assert!((c.joules - c.seconds * c.watts).abs() < 1e-9);
    }

    #[test]
    fn speedup_and_efficiency_are_reciprocal_consistent() {
        let slow = run_cost(&DeviceModel::jetson_nano(), &workload());
        let fast = run_cost(&DeviceModel::xavier_nx(), &workload());
        let s = speedup(&slow, &fast);
        assert!(s > 1.0);
        assert!((speedup(&fast, &slow) - 1.0 / s).abs() < 1e-12);
        // Nano at 10 W vs Xavier at 20 W: efficiency gain is less than the
        // runtime gap because Xavier burns double the power.
        let e = slow.joules / fast.joules;
        assert!((e - s * 10.0 / 20.0).abs() < 1e-9);
    }
}
