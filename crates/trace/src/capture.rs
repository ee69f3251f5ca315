//! The observer that records training access streams.

use crate::record::{AccessRecord, Trace};
use instant3d_nerf::grid::{AccessPhase, BranchObserver, GridBranch};

/// Captures every grid access the trainer performs into a [`Trace`].
///
/// Plug into `Trainer::step_scalar_observed`; call
/// [`TraceCollector::begin_iteration`] before each step so records carry
/// their iteration index. A `capacity` cap bounds memory — capture stops
/// (silently) once reached, which is fine for the paper's analyses (they
/// need a few hundred thousand contiguous accesses).
///
/// # Example
///
/// ```
/// use instant3d_trace::TraceCollector;
/// use instant3d_nerf::grid::{AccessPhase, BranchObserver, GridBranch};
///
/// let mut tc = TraceCollector::new(1000);
/// tc.begin_iteration(0);
/// tc.on_branch_access(GridBranch::Density, AccessPhase::FeedForward, 0, 0, 42);
/// let trace = tc.into_trace();
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.records[0].addr, 42);
/// ```
#[derive(Debug, Clone)]
pub struct TraceCollector {
    records: Vec<AccessRecord>,
    capacity: usize,
    seq: u64,
    iter: u32,
    dropped: u64,
}

impl TraceCollector {
    /// A collector that keeps at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        TraceCollector {
            records: Vec::new(),
            capacity,
            seq: 0,
            iter: 0,
            dropped: 0,
        }
    }

    /// Marks the start of training iteration `iter` for subsequent records.
    pub fn begin_iteration(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Records captured so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was captured yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Accesses that arrived after the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finishes capture and returns the trace.
    pub fn into_trace(self) -> Trace {
        Trace {
            records: self.records,
        }
    }
}

impl BranchObserver for TraceCollector {
    #[inline]
    fn on_branch_access(
        &mut self,
        branch: GridBranch,
        phase: AccessPhase,
        level: u32,
        corner: u8,
        addr: u32,
    ) {
        let seq = self.seq;
        self.seq += 1;
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(AccessRecord {
            seq,
            iter: self.iter,
            branch,
            phase,
            level,
            corner,
            addr,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_in_order_with_iterations() {
        let mut tc = TraceCollector::new(100);
        tc.begin_iteration(0);
        tc.on_branch_access(GridBranch::Density, AccessPhase::FeedForward, 0, 0, 1);
        tc.begin_iteration(1);
        tc.on_branch_access(GridBranch::Color, AccessPhase::BackProp, 2, 5, 9);
        let t = tc.into_trace();
        assert_eq!(t.records[0].iter, 0);
        assert_eq!(t.records[1].iter, 1);
        assert_eq!(t.records[1].level, 2);
        assert_eq!(t.records[1].corner, 5);
        assert!(t.records[0].seq < t.records[1].seq);
    }

    #[test]
    fn capacity_caps_and_counts_drops() {
        let mut tc = TraceCollector::new(3);
        for i in 0..10 {
            tc.on_branch_access(GridBranch::Density, AccessPhase::FeedForward, 0, 0, i);
        }
        assert_eq!(tc.len(), 3);
        assert_eq!(tc.dropped(), 7);
        let t = tc.into_trace();
        assert_eq!(
            t.records.iter().map(|r| r.addr).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = TraceCollector::new(0);
    }
}
