//! The declared workloads and metrics: the one list the code emits from
//! and `BENCHMARK.json` is checked against (both directions, see the
//! tests). README.md in this directory is the glossary.

/// The four workloads, in the order the one command runs them.
pub const WORKLOADS: [&str; 4] = [
    "capture_object",
    "capture_room_ngp",
    "preview_orbit",
    "fleet_mixed",
];

/// `lower` or `higher`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// End-to-end metrics. Every one is defined on every workload (the
/// benchmark contract prints all of them for each workload); README.md
/// says what each means per workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_result_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "quality_db",
        unit: "dB",
        better: Better::Higher,
        bound: 0.12,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly for a seed: `ledger compare` requires equality.
    pub exact: bool,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn x(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics, grouped by the module they observe. A metric whose
/// layer is not on a workload's path reads 0 there.
pub const PER_LAYER: [PerLayer; 87] = [
    // scenes
    m("scenes.build_ms", "ms", L),
    // nerf::sampler
    m("sampler.pixels_ns_per_ray", "ns", L),
    m("sampler.segments_ns_per_ray", "ns", L),
    // nerf::occupancy
    x("occupancy.keep_ratio", "ratio", L),
    m("occupancy.refresh_ms", "ms", L),
    x("occupancy.refresh_cells", "count", L),
    // nerf::grid
    m("grid.encode_density_ns_per_point", "ns", L),
    m("grid.encode_color_ns_per_point", "ns", L),
    m("grid.scatter_density_ns_per_point", "ns", L),
    m("grid.scatter_color_ns_per_point", "ns", L),
    m("grid.zero_grads_ms_per_iter", "ms", L),
    m("grid.adam_ms_per_iter", "ms", L),
    x("grid.adam_touched_ratio", "ratio", H),
    x("grid.encode_bytes_per_point", "B", L),
    x("grid.scatter_bytes_per_point", "B", L),
    m("grid.encode_gbps", "GB/s", H),
    m("grid.scatter_gbps", "GB/s", H),
    m("grid.encode_roof_share", "ratio", H),
    m("grid.scatter_roof_share", "ratio", H),
    // nerf::mlp
    m("mlp.forward_sigma_ns_per_point", "ns", L),
    m("mlp.forward_color_ns_per_point", "ns", L),
    m("mlp.backward_sigma_ns_per_point", "ns", L),
    m("mlp.backward_color_ns_per_point", "ns", L),
    x("mlp.flops_per_point", "flop", L),
    m("mlp.forward_gflops", "GFLOP/s", H),
    m("mlp.backward_gflops", "GFLOP/s", H),
    m("mlp.forward_roof_share", "ratio", H),
    m("mlp.backward_roof_share", "ratio", H),
    // nerf::adam
    m("adam.mlp_ms_per_iter", "ms", L),
    // nerf::render
    m("render.composite_ns_per_point", "ns", L),
    m("render.composite_backward_ns_per_point", "ns", L),
    // vendor/rayon, seen through the seams
    m("pool.encode_speedup", "ratio", H),
    m("pool.scatter_speedup", "ratio", H),
    m("pool.mlp_forward_speedup", "ratio", H),
    m("pool.mlp_backward_speedup", "ratio", H),
    m("pool.step_speedup", "ratio", H),
    // core::trainer
    x("trainer.points_per_iter", "count", L),
    x("trainer.grid_reads_per_iter", "count", L),
    x("trainer.grid_writes_per_iter", "count", L),
    x("trainer.mlp_flops_per_iter", "flop", L),
    m("trainer.new_ms", "ms", L),
    m("trainer.step_ms_p50", "ms", L),
    m("trainer.step_ms_tail", "ms", L),
    m("trainer.step_tail_pct", "%", H),
    m("trainer.step_samples", "count", H),
    m("share.grid", "ratio", L),
    m("share.mlp", "ratio", L),
    m("share.render", "ratio", L),
    m("share.sampler", "ratio", L),
    m("share.optimizer", "ratio", L),
    m("share.occupancy", "ratio", L),
    m("share.glue", "ratio", L),
    m("trace.coverage", "ratio", H),
    m("trace.overhead", "ratio", L),
    m("trace.train_spans", "count", L),
    x("trace.replica_loss_mismatches", "count", L),
    // core::eval
    m("eval.ms_per_view", "ms", L),
    // core::render
    x("tiles.rendered_per_frame", "count", L),
    x("tiles.cached_ratio", "ratio", H),
    x("tiles.invalidated_per_step", "count", L),
    x("render.points_per_ray", "count", L),
    m("render.ns_per_point", "ns", L),
    m("render.set_camera_us", "us", L),
    m("render.frame_copy_us", "us", L),
    m("render.frame_ms_p50", "ms", L),
    m("render.frame_ms_tail", "ms", L),
    m("render.frame_tail_pct", "%", H),
    m("render.frame_samples", "count", H),
    m("render.refine_frame_ms_p50", "ms", L),
    m("render.settle_ms", "ms", L),
    // core::pool
    m("wspool.minted", "count", L),
    m("wspool.recycled", "count", H),
    // core::checkpoint
    x("checkpoint.bytes", "B", L),
    m("checkpoint.save_ns_per_byte", "ns", L),
    m("checkpoint.load_ns_per_byte", "ns", L),
    // serve::fleet
    m("fleet.busy_share", "ratio", H),
    m("fleet.speedup_vs_solo", "ratio", H),
    m("fleet.job_busy_ms_p50", "ms", L),
    m("fleet.makespan_s_max", "s", L),
    x("fleet.checkpoints_written", "count", L),
    m("fleet.checkpoints_evicted", "count", L),
    x("fleet.preview_tiles", "count", L),
    // machine, measured in the same invocation
    m("machine.triad_gbps", "GB/s", H),
    m("machine.fma_gflops", "GFLOP/s", H),
    m("machine.triad_array_mb", "MB", H),
    m("machine.llc_mb", "MB", H),
    x("machine.workers", "count", H),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|e| e.name == name)
}

/// Unit of any declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|e| e.unit)
        .or_else(|| per_layer(name).map(|e| e.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|e| e.name));
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|e| e.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{} bound", e.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str, fields: &[&str]) -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|row| {
                assert_eq!(row.fields().len(), fields.len(), "{key} row keys: {row:?}");
                fields
                    .iter()
                    .map(|f| match row.get(f) {
                        Some(Value::Str(s)) => s.clone(),
                        Some(Value::Num(n)) => n.to_string(),
                        other => panic!("{key}.{f}: {other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    /// The names and units the code emits equal the ones BENCHMARK.json
    /// declares, in both directions (same rows, same order).
    #[test]
    fn emitted_metrics_equal_benchmark_json() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let workloads = declared(&doc, "workloads", &["name", "why"]);
        let names: Vec<&str> = workloads.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, WORKLOADS);
        for row in &workloads {
            assert!(
                row[1].len() <= 200 && !row[1].contains('\n'),
                "why of {}",
                row[0]
            );
        }

        let e2e = declared(&doc, "end_to_end", &["name", "unit", "better", "bound"]);
        let ours: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|e| {
                vec![
                    e.name.to_string(),
                    e.unit.to_string(),
                    e.better.as_str().to_string(),
                    e.bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(e2e, ours);

        let layers = declared(&doc, "per_layer", &["name", "unit", "better"]);
        let ours: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|e| {
                vec![
                    e.name.to_string(),
                    e.unit.to_string(),
                    e.better.as_str().to_string(),
                ]
            })
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn benchmark_json_command_and_paths_fit_the_contract() {
        let doc = benchmark_json();
        let paths = declared_strings(&doc, "paths");
        assert_eq!(paths, ["ledger"]);
        let command = declared_strings(&doc, "command");
        assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
        assert!(command
            .iter()
            .all(|a| !a.starts_with('/') && !a.contains("..")));
        let secs = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    }

    fn declared_strings(doc: &Value, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|v| v.as_str().expect("string").to_string())
            .collect()
    }
}
