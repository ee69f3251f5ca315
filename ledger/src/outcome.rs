//! What one child process hands back to the driver, and the helpers all
//! workloads share for filling it in.

use crate::json::{self, Value};

/// Arguments of one child: one workload, one mode, one worker count.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds (already divided by 20 under `--smoke`).
    pub seconds: f64,
    pub trace: bool,
    /// 1/20 of every count.
    pub smoke: bool,
    /// `RAYON_NUM_THREADS` the driver started this child with.
    pub workers: usize,
    /// Where the traced child writes its trace-event file.
    pub out_dir: String,
}

impl ChildArgs {
    /// A count scaled for `--smoke` (1/20, at least `min`).
    pub fn scaled(&self, count: u64, min: u64) -> u64 {
        if self.smoke {
            (count / 20).max(min)
        } else {
            count
        }
    }
}

/// Result of one child process.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Measured metrics by declared name.
    pub metrics: Vec<(String, f64)>,
    /// Operations attempted and failed (see README.md, "failed operations").
    pub attempted: u64,
    pub failed: u64,
    /// Digests that must repeat across runs of one seed.
    pub hashes: Vec<(String, String)>,
    /// The run's shape: iterations, frames, repetitions actually measured.
    pub counts: Vec<(String, f64)>,
    /// Failed output checks, in words.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(
            crate::names::unit_of(name).is_some(),
            "undeclared metric {name}"
        );
        self.metrics.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn hash(&mut self, name: &str, digest: String) {
        self.hashes.push((name.to_string(), digest));
    }

    pub fn get_hash(&self, name: &str) -> Option<&str> {
        self.hashes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Records one attempted operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records an output check: a failed check is a failed operation and
    /// keeps its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(ok);
        if !ok {
            self.errors.push(what());
        }
    }

    /// The output check on [`repeat_set_up`]'s digests; records the common
    /// digest under `name`.
    pub fn check_same_digests(&mut self, name: &str, digests: &[String]) {
        self.check(digests.iter().all(|d| *d == digests[0]), || {
            format!("set-up repetitions left different bits behind: {digests:?}")
        });
        self.hash(name, digests[0].clone());
    }

    pub fn to_json(&self) -> Value {
        let nums = |rows: &[(String, f64)]| {
            Value::Obj(
                rows.iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            )
        };
        Value::obj()
            .with("metrics", nums(&self.metrics))
            .with("attempted", self.attempted.into())
            .with("failed", self.failed.into())
            .with(
                "hashes",
                Value::Obj(
                    self.hashes
                        .iter()
                        .map(|(k, v)| (k.clone(), v.as_str().into()))
                        .collect(),
                ),
            )
            .with("counts", nums(&self.counts))
            .with(
                "errors",
                Value::Arr(self.errors.iter().map(|e| e.as_str().into()).collect()),
            )
    }

    /// Parses what [`Outcome::to_json`] wrote.
    pub fn from_json(text: &str) -> Result<Outcome, String> {
        let v = json::parse(text)?;
        let nums = |key: &str| -> Result<Vec<(String, f64)>, String> {
            v.get(key)
                .ok_or_else(|| format!("child result lacks {key}"))?
                .fields()
                .iter()
                .map(|(k, n)| {
                    // A non-finite measurement was written as null.
                    Ok((k.clone(), n.as_f64().unwrap_or(f64::NAN)))
                })
                .collect()
        };
        let whole = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("child result lacks a whole {key}"))
        };
        Ok(Outcome {
            metrics: nums("metrics")?,
            attempted: whole("attempted")?,
            failed: whole("failed")?,
            hashes: v
                .get("hashes")
                .map(|h| {
                    h.fields()
                        .iter()
                        .filter_map(|(k, s)| Some((k.clone(), s.as_str()?.to_string())))
                        .collect()
                })
                .unwrap_or_default(),
            counts: nums("counts")?,
            errors: v
                .get("errors")
                .and_then(Value::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
        })
    }
}

/// Peak resident set of this process (`VmHWM`) in MB; `NaN` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `num / den`, or 0 when nothing was counted (a layer that is not on
/// the workload's path).
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up, `reps` times over, one state resident at a time (so peak RSS
/// is one state's). Returns the last state, each repetition's seconds —
/// their median is `setup_s`; the first is timed from process start — and
/// each repetition's digest, taken outside the timing: all must be equal,
/// because timing never changes bits.
pub fn repeat_set_up<T>(
    reps: u64,
    t_main: std::time::Instant,
    mut set_up: impl FnMut() -> T,
    digest: impl Fn(&T) -> String,
) -> (T, Vec<f64>, Vec<String>) {
    let mut state: Option<T> = None;
    let mut seconds = Vec::new();
    let mut digests = Vec::new();
    for rep in 0..reps.max(1) {
        drop(state.take());
        let t = if rep == 0 {
            t_main
        } else {
            std::time::Instant::now()
        };
        let s = set_up();
        seconds.push(t.elapsed().as_secs_f64());
        digests.push(digest(&s));
        state = Some(s);
    }
    (
        state.expect("at least one set-up repetition"),
        seconds,
        digests,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_json() {
        let mut o = Outcome::default();
        o.metric("setup_s", 1.25);
        o.metric("quality_db", f64::NAN);
        o.count("iterations", 400.0);
        o.hash("ckpt@warmup", "00ff".into());
        o.check(true, || unreachable!());
        o.check(false, || "frame 0 differs".into());
        let back = Outcome::from_json(&o.to_json().to_json()).unwrap();
        assert_eq!(back.get("setup_s"), Some(1.25));
        assert!(back.get("quality_db").unwrap().is_nan());
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.get_hash("ckpt@warmup"), Some("00ff"));
        assert_eq!(back.errors, ["frame 0 differs"]);
        assert_eq!(back.counts, [("iterations".to_string(), 400.0)]);
    }

    #[test]
    fn repeated_set_up_keeps_the_last_state_and_every_digest() {
        let mut n = 0u32;
        let (last, seconds, digests) = repeat_set_up(
            3,
            std::time::Instant::now(),
            || {
                n += 1;
                n
            },
            |s| format!("d{}", s % 2),
        );
        assert_eq!((last, seconds.len()), (3, 3));
        assert_eq!(digests, ["d1", "d0", "d1"]);
        let mut o = Outcome::default();
        o.check_same_digests("ckpt", &digests);
        assert_eq!((o.failed, o.get_hash("ckpt")), (1, Some("d1")));
        assert_eq!((per(6.0, 3.0), per(6.0, 0.0)), (2.0, 0.0));
    }

    #[test]
    fn smoke_scales_counts_with_a_floor() {
        let mut a = ChildArgs {
            workload: "capture_object".into(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            smoke: false,
            workers: 2,
            out_dir: String::new(),
        };
        assert_eq!(a.scaled(300, 1), 300);
        a.smoke = true;
        assert_eq!(a.scaled(300, 1), 15);
        assert_eq!(a.scaled(5, 2), 2);
    }
}
