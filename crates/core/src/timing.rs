//! Wall-clock per-step instrumentation of the training pipeline.
//!
//! The paper's Fig. 4 comes from profiling Instant-NGP on real devices.
//! This module profiles *this repository's* trainer the same way: each of
//! the six pipeline steps (with Step ③ split and backward separated) is
//! timed with a monotonic clock, giving a native measured breakdown to set
//! beside the modelled device breakdowns.
//!
//! Every [`Trainer`](crate::Trainer) owns one [`StepTimer`] and laps it
//! on every engine step ([`Trainer::step`](crate::Trainer::step)); read
//! it with [`Trainer::timer`](crate::Trainer::timer). The timer is a
//! fixed array of durations — it allocates nothing, reads no clock itself
//! (the trainer does) and never feeds back into numeric results.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::profile::PipelineStep;
use std::time::Duration;

/// Accumulated wall-clock time per pipeline step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepTimer {
    totals: [Duration; PipelineStep::ALL.len()],
    iterations: u64,
}

impl StepTimer {
    /// A zeroed timer.
    pub fn new() -> Self {
        StepTimer::default()
    }

    /// Adds `d` to `step`'s total. Slots are indexed by discriminant:
    /// [`PipelineStep::ALL`] lists the variants in declaration order.
    pub fn add(&mut self, step: PipelineStep, d: Duration) {
        self.totals[step as usize] += d;
    }

    /// Marks the end of one training iteration.
    pub fn end_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Iterations recorded.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Total time across all steps.
    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// `(step, total, fraction)` rows in pipeline order.
    pub fn breakdown(&self) -> Vec<(PipelineStep, Duration, f64)> {
        let total = self.total().as_secs_f64().max(1e-12);
        PipelineStep::ALL
            .iter()
            .map(|&s| {
                let d = self.totals[s as usize];
                (s, d, d.as_secs_f64() / total)
            })
            .collect()
    }

    /// The combined fraction spent in Step ③-① (grid interpolation,
    /// forward + backward) — the paper's headline bottleneck number.
    pub fn grid_interpolation_fraction(&self) -> f64 {
        self.breakdown()
            .iter()
            .filter(|(s, _, _)| s.is_grid_interpolation())
            .map(|(_, _, f)| f)
            .sum()
    }

    /// Renders an ASCII breakdown like the Fig. 4 bars.
    pub fn to_ascii(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "native trainer breakdown over {} iterations ({:.1} ms/iter):",
            self.iterations,
            self.total().as_secs_f64() * 1e3 / self.iterations.max(1) as f64
        );
        for (step, d, f) in self.breakdown() {
            let bar = "#".repeat((f * width as f64).round() as usize);
            let _ = writeln!(
                out,
                "  {:<22} {:>9.3} ms {:>6.2} % |{bar}",
                step.label(),
                d.as_secs_f64() * 1e3,
                f * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_fractions_sum_to_one() {
        let mut t = StepTimer::new();
        t.add(PipelineStep::GridForward, Duration::from_millis(30));
        t.add(PipelineStep::GridBackward, Duration::from_millis(50));
        t.add(PipelineStep::MlpForward, Duration::from_millis(20));
        t.end_iteration();
        assert_eq!(t.iterations(), 1);
        assert_eq!(t.total(), Duration::from_millis(100));
        let frac_sum: f64 = t.breakdown().iter().map(|(_, _, f)| f).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
        assert!((t.grid_interpolation_fraction() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn slots_are_indexed_by_discriminant() {
        for (i, s) in PipelineStep::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "{s:?}");
        }
    }

    #[test]
    fn ascii_contains_all_labels() {
        let mut t = StepTimer::new();
        t.add(PipelineStep::GridForward, Duration::from_millis(1));
        t.end_iteration();
        let art = t.to_ascii(30);
        for s in PipelineStep::ALL {
            assert!(art.contains(s.label()));
        }
    }

    #[test]
    fn empty_timer_is_safe() {
        let t = StepTimer::new();
        assert_eq!(t.total(), Duration::ZERO);
        assert_eq!(t.grid_interpolation_fraction(), 0.0);
        let _ = t.to_ascii(10);
    }
}
