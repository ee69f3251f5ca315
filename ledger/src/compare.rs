//! `ledger compare A B`: two result sets, one row per workload ×
//! end-to-end metric, by the rules of the choosing-metrics guide.

use crate::json::{self, Value};
use crate::names::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};

/// One run as `ledger run` saved it.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: Vec<(String, f64)>,
    exact: Vec<(String, String)>,
}

/// Reads a result set. Exact values (declared exact metrics, checkpoint
/// digests and the iteration at which the target was met) are kept as
/// strings so equality is equality.
fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?;
    runs.iter()
        .map(|r| {
            let field = |k: &str| r.get(k).ok_or_else(|| format!("{path}: run lacks {k}"));
            let metrics: Vec<(String, f64)> = field("metrics")?
                .fields()
                .iter()
                .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
                .collect();
            let mut exact: Vec<(String, String)> = metrics
                .iter()
                .filter(|(k, _)| PER_LAYER.iter().any(|p| p.exact && p.name == k))
                .map(|(k, v)| (k.clone(), v.to_string()))
                .collect();
            exact.extend(
                field("hashes")?
                    .fields()
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string())),
            );
            exact.extend(
                field("counts")?
                    .fields()
                    .iter()
                    .filter(|(k, _)| k == "iters_to_psnr")
                    .map(|(k, v)| (k.clone(), v.to_json())),
            );
            Ok(Run {
                workload: field("workload")?.as_str().unwrap_or("").to_string(),
                seed: field("seed")?.as_f64().unwrap_or(-1.0) as u64,
                trace: field("trace")?.as_bool().unwrap_or(false),
                metrics,
                exact,
            })
        })
        .collect()
}

/// Verdict on one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regression,
    Unresolved,
}

/// Judges B against A for one metric. `a` and `b` are the runs' values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of A's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let beats = |x: &[f64], y: &[f64]| {
        // Every run of x reads better than every run of y.
        x.iter().all(|p| {
            y.iter().all(|q| match better {
                Better::Lower => p < q,
                Better::Higher => p > q,
            })
        })
    };
    let noisy = spread(a) > bound || spread(b) > bound;
    if noisy && !beats(a, b) && !beats(b, a) {
        return Verdict::Unresolved;
    }
    if worse > bound {
        Verdict::Regression
    } else if beats(b, a) && worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison; `Ok(true)` when nothing regressed and every
/// exact value matched.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut pass = true;
    println!(
        "{:<18} {:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound"
    );
    for workload in WORKLOADS {
        for e in &END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|r| r.workload == workload && !r.trace)
                    .filter_map(|r| r.metrics.iter().find(|(k, _)| k == e.name).map(|(_, v)| *v))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.len() < 3 || vb.len() < 3 {
                return Err(format!(
                    "{workload} {}: {} and {} runs; a result set needs at least 3",
                    e.name,
                    va.len(),
                    vb.len()
                ));
            }
            let verdict = judge(&va, &vb, e.better, e.bound);
            pass &= verdict != Verdict::Regression;
            let ((a1, a3), (b1, b3)) = (quartiles(&va), quartiles(&vb));
            println!(
                "{workload:<18} {:<20} {a1:>12.5} {:>12.5} {a3:>12.5} {b1:>12.5} {:>12.5} {b3:>12.5} {:>6.2}  {verdict:?}",
                e.name,
                median(&va),
                median(&vb),
                e.bound
            );
        }
    }

    // Exact values: equal wherever both sets ran the same workload, seed
    // and mode.
    let mut compared = 0usize;
    for ra in &a {
        for rb in b.iter().filter(|rb| {
            (rb.workload.as_str(), rb.seed, rb.trace) == (ra.workload.as_str(), ra.seed, ra.trace)
        }) {
            for (key, va) in &ra.exact {
                if let Some((_, vb)) = rb.exact.iter().find(|(k, _)| k == key) {
                    compared += 1;
                    if va != vb {
                        pass = false;
                        println!(
                            "EXACT MISMATCH {} seed {} {key}: {va} vs {vb}",
                            ra.workload, ra.seed
                        );
                    }
                }
            }
        }
    }
    println!("exact values compared: {compared}");
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_metric_within_bound_is_ok() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let b = [10.3, 10.2, 10.4, 10.3];
        assert_eq!(judge(&a, &b, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(judge(&a, &b, Better::Higher, 0.1), Verdict::Improved);
    }

    #[test]
    fn steady_metric_beyond_bound_regresses() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let b = [12.0, 12.1, 11.9, 12.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.1), Verdict::Regression);
        assert_eq!(judge(&b, &a, Better::Lower, 0.1), Verdict::Improved);
    }

    #[test]
    fn noisy_overlapping_metric_is_unresolved() {
        let a = [10.0, 14.0, 8.0, 12.0];
        let b = [11.0, 15.0, 9.0, 13.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn noisy_but_separated_metric_is_resolved() {
        let a = [10.0, 14.0, 8.0, 12.0];
        let b = [30.0, 34.0, 28.0, 32.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.1), Verdict::Regression);
        assert_eq!(judge(&b, &a, Better::Lower, 0.1), Verdict::Improved);
    }
}
