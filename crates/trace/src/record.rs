//! Trace records and the in-memory trace container.

use instant3d_nerf::grid::{AccessPhase, GridBranch, HashGrid};

/// One hash-table access, in capture order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Global sequence number (capture order).
    pub seq: u64,
    /// Training iteration the access belongs to.
    pub iter: u32,
    /// Density or color table.
    pub branch: GridBranch,
    /// Feed-forward read or back-propagation update.
    pub phase: AccessPhase,
    /// Grid level.
    pub level: u32,
    /// Corner index 0..8 within the interpolation cube
    /// (bit 0 = dx, bit 1 = dy, bit 2 = dz).
    pub corner: u8,
    /// In-level table entry index.
    pub addr: u32,
}

impl AccessRecord {
    /// A key that is unique per (branch, level, addr) — sufficient for
    /// uniqueness analyses across the whole multi-level table.
    #[inline]
    pub fn global_key(&self) -> u64 {
        let b = match self.branch {
            GridBranch::Density => 0u64,
            GridBranch::Color => 1u64,
        };
        (b << 60) | ((self.level as u64) << 32) | self.addr as u64
    }
}

/// An ordered sequence of [`AccessRecord`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Records in capture order.
    pub records: Vec<AccessRecord>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records were captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one phase, preserving order.
    pub fn phase(&self, phase: AccessPhase) -> impl Iterator<Item = &AccessRecord> {
        self.records.iter().filter(move |r| r.phase == phase)
    }

    /// Records of one branch, preserving order.
    pub fn branch(&self, branch: GridBranch) -> impl Iterator<Item = &AccessRecord> {
        self.records.iter().filter(move |r| r.branch == branch)
    }

    /// Feed-forward global-key stream in capture order (point-major: the
    /// levels of one point are adjacent — how the forward kernel walks the
    /// table).
    pub fn ff_stream(&self) -> Vec<u64> {
        self.phase(AccessPhase::FeedForward)
            .map(AccessRecord::global_key)
            .collect()
    }

    /// Back-propagation global-key stream reordered level-major within each
    /// iteration: Instant-NGP's grid backward launches one scatter kernel
    /// per level, so the hardware-visible update stream groups all points'
    /// updates of a level together. Stable within groups.
    pub fn bp_stream_level_major(&self) -> Vec<u64> {
        self.bp_level_major()
            .map(AccessRecord::global_key)
            .collect()
    }

    /// One branch's back-propagation updates as untagged
    /// `(level << 32) | addr` keys, in [`Trace::bp_stream_level_major`]'s
    /// order — the stream the BUM merges, and the batched engine's own
    /// scatter order for that grid (pinned by `tests/batched_equivalence.rs`).
    pub fn updates_level_major(&self, branch: GridBranch) -> Vec<u64> {
        self.bp_level_major()
            .filter(|r| r.branch == branch)
            .map(|r| ((r.level as u64) << 32) | r.addr as u64)
            .collect()
    }

    /// One branch's feed-forward reads as flat whole-table entry addresses
    /// (`grid.entry_offset(level) + addr`, with `grid` that branch's
    /// grid), in capture order — the address stream a grid core's SRAM
    /// banking sees, and the input of `instant3d_accel::simulate_frm`.
    pub fn reads_flat(&self, branch: GridBranch, grid: &HashGrid) -> Vec<u32> {
        self.phase(AccessPhase::FeedForward)
            .filter(|r| r.branch == branch)
            .map(|r| grid.entry_offset(r.level as usize) + r.addr)
            .collect()
    }

    /// Back-propagation records grouped per iteration, branch and level,
    /// capture order within each group.
    fn bp_level_major(&self) -> impl Iterator<Item = &AccessRecord> {
        let mut bp: Vec<&AccessRecord> = self.phase(AccessPhase::BackProp).collect();
        bp.sort_by_key(|r| (r.iter, r.branch == GridBranch::Color, r.level, r.seq));
        bp.into_iter()
    }

    /// Iterations covered by the trace (inclusive range), or `None` if empty.
    pub fn iteration_range(&self) -> Option<(u32, u32)> {
        let mut it = self.records.iter().map(|r| r.iter);
        let first = it.next()?;
        let (mut lo, mut hi) = (first, first);
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        seq: u64,
        iter: u32,
        branch: GridBranch,
        phase: AccessPhase,
        level: u32,
        addr: u32,
    ) -> AccessRecord {
        AccessRecord {
            seq,
            iter,
            branch,
            phase,
            level,
            corner: (seq % 8) as u8,
            addr,
        }
    }

    #[test]
    fn global_key_distinguishes_branch_and_level() {
        let a = rec(0, 0, GridBranch::Density, AccessPhase::FeedForward, 0, 5);
        let b = rec(1, 0, GridBranch::Color, AccessPhase::FeedForward, 0, 5);
        let c = rec(2, 0, GridBranch::Density, AccessPhase::FeedForward, 1, 5);
        assert_ne!(a.global_key(), b.global_key());
        assert_ne!(a.global_key(), c.global_key());
        let a2 = rec(9, 3, GridBranch::Density, AccessPhase::BackProp, 0, 5);
        assert_eq!(
            a.global_key(),
            a2.global_key(),
            "key ignores seq/iter/phase"
        );
    }

    #[test]
    fn phase_and_branch_filters() {
        let t = Trace {
            records: vec![
                rec(0, 0, GridBranch::Density, AccessPhase::FeedForward, 0, 1),
                rec(1, 0, GridBranch::Color, AccessPhase::FeedForward, 0, 2),
                rec(2, 0, GridBranch::Density, AccessPhase::BackProp, 0, 3),
            ],
        };
        assert_eq!(t.phase(AccessPhase::FeedForward).count(), 2);
        assert_eq!(t.branch(GridBranch::Color).count(), 1);
        assert_eq!(t.ff_stream().len(), 2);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn bp_stream_is_level_major_within_iteration() {
        // Two points × two levels, point-major capture order.
        let t = Trace {
            records: vec![
                rec(0, 0, GridBranch::Density, AccessPhase::BackProp, 0, 10),
                rec(1, 0, GridBranch::Density, AccessPhase::BackProp, 1, 20),
                rec(2, 0, GridBranch::Density, AccessPhase::BackProp, 0, 11),
                rec(3, 0, GridBranch::Density, AccessPhase::BackProp, 1, 21),
            ],
        };
        let s = t.bp_stream_level_major();
        // Expected order: level 0 (addr 10, 11), then level 1 (20, 21).
        let addrs: Vec<u32> = s.iter().map(|k| (k & 0xFFFF_FFFF) as u32).collect();
        assert_eq!(addrs, vec![10, 11, 20, 21]);
    }

    #[test]
    fn bp_stream_respects_iteration_boundaries() {
        let t = Trace {
            records: vec![
                rec(0, 1, GridBranch::Density, AccessPhase::BackProp, 1, 99),
                rec(1, 0, GridBranch::Density, AccessPhase::BackProp, 0, 1),
            ],
        };
        let s = t.bp_stream_level_major();
        let addrs: Vec<u32> = s.iter().map(|k| (k & 0xFFFF_FFFF) as u32).collect();
        // Iteration 0 comes first despite its later capture order.
        assert_eq!(addrs, vec![1, 99]);
        assert_eq!(t.iteration_range(), Some((0, 1)));
    }

    #[test]
    fn empty_trace_behaviour() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.iteration_range(), None);
        assert!(t.ff_stream().is_empty());
        let grid = two_level_grid();
        for branch in [GridBranch::Density, GridBranch::Color] {
            assert!(t.reads_flat(branch, &grid).is_empty());
            assert!(t.updates_level_major(branch).is_empty());
        }
    }

    fn two_level_grid() -> HashGrid {
        HashGrid::new(instant3d_nerf::grid::HashGridConfig {
            levels: 2,
            log2_table_size: 8,
            base_resolution: 4,
            max_resolution: 8,
            ..Default::default()
        })
    }

    /// `bp_stream_level_major` split by its color tag bit, tag removed.
    fn split_tagged(t: &Trace, branch: GridBranch) -> Vec<u64> {
        const COLOR_TAG: u64 = 1 << 60;
        let want_color = branch == GridBranch::Color;
        t.bp_stream_level_major()
            .into_iter()
            .filter(|k| (k & COLOR_TAG != 0) == want_color)
            .map(|k| k & !COLOR_TAG)
            .collect()
    }

    #[test]
    fn flat_streams_keep_branches_apart() {
        use AccessPhase::{BackProp as Bp, FeedForward as Ff};
        use GridBranch::{Color as C, Density as D};
        let grid = two_level_grid();
        let off1 = grid.entry_offset(1);
        assert!(off1 > 0);
        // Point-major capture over two iterations, branches interleaved.
        let t = Trace {
            records: vec![
                rec(0, 0, D, Ff, 0, 3),
                rec(1, 0, D, Ff, 1, 4),
                rec(2, 0, C, Ff, 0, 5),
                rec(3, 0, D, Bp, 1, 6),
                rec(4, 0, C, Bp, 1, 7),
                rec(5, 0, D, Bp, 0, 8),
                rec(6, 1, D, Bp, 0, 9),
            ],
        };
        assert_eq!(t.reads_flat(D, &grid), vec![3, off1 + 4]);
        assert_eq!(t.reads_flat(C, &grid), vec![5]);
        assert_eq!(t.updates_level_major(D), vec![8, (1 << 32) | 6, 9]);
        assert_eq!(t.updates_level_major(C), vec![(1 << 32) | 7]);
        for branch in [D, C] {
            assert_eq!(t.updates_level_major(branch), split_tagged(&t, branch));
        }
    }

    #[test]
    fn coupled_trace_has_an_empty_color_stream() {
        use AccessPhase::{BackProp as Bp, FeedForward as Ff};
        let d = GridBranch::Density;
        let grid = two_level_grid();
        let t = Trace {
            records: vec![
                rec(0, 0, d, Ff, 1, 2),
                rec(1, 0, d, Bp, 1, 2),
                rec(2, 0, d, Bp, 0, 1),
            ],
        };
        assert!(t.reads_flat(GridBranch::Color, &grid).is_empty());
        assert!(t.updates_level_major(GridBranch::Color).is_empty());
        assert_eq!(t.reads_flat(d, &grid), vec![grid.entry_offset(1) + 2]);
        // Density keys carry no tag, so the untagged stream is the whole
        // level-major stream.
        assert_eq!(t.updates_level_major(d), t.bp_stream_level_major());
        assert_eq!(t.updates_level_major(d), vec![1, (1 << 32) | 2]);
    }
}
