//! The workspace reuse pool: scratch is checked out per unit of work
//! instead of allocated per caller.
//!
//! Introduced for the serve layer's fleet slices, the pool now also backs
//! the tile renderer ([`crate::render`]): every tile job checks a
//! [`BatchWorkspace`] out, renders, and parks it back, so steady-state
//! rendering performs zero workspace allocations — the mint count is
//! bounded by the number of workers that ever held a workspace at once.
//!
//! Two kinds of workspace, with different recycling rules:
//!
//! * [`BatchWorkspace`] is pure scratch (every buffer cleared/resized per
//!   step), so it moves freely between same-shaped users — parked here at
//!   the end of every slice or tile, checked out at the start of the
//!   next, keyed by [`WorkspaceShape`] so a mismatched model never sees
//!   it.
//! * [`OccupancyWorkspace`] carries per-job training state (density EMA,
//!   subset phase, embedding cache). It stays attached for a job's whole
//!   life and is parked here only at retirement, after a
//!   [`reset`](OccupancyWorkspace::reset) — handing live state to a new
//!   job would break the determinism contract.

use crate::batch::{BatchWorkspace, WorkspaceShape};
use crate::model::NerfModel;
use instant3d_nerf::occupancy::OccupancyWorkspace;
use std::sync::Mutex;

/// Shared, shape-keyed reuse pool. All methods take `&self`; the pool is
/// what fleet runners and tile jobs contend on (briefly — checkout/park
/// are O(1) map and vec operations).
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "keyed by shape; pools are drained per shape and never iterated, so the order is never observed"
)]
pub struct WorkspacePool {
    batch: Mutex<std::collections::HashMap<WorkspaceShape, Vec<BatchWorkspace>>>,
    occ: Mutex<Vec<OccupancyWorkspace>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a parked batch workspace fitting `model`, if any.
    /// `None` is a pool miss: the caller mints one lazily (a warmup
    /// allocation, counted in the fleet/render telemetry).
    pub fn checkout_batch(&self, model: &NerfModel) -> Option<BatchWorkspace> {
        self.batch
            .lock()
            .unwrap()
            .get_mut(&WorkspaceShape::of(model))
            .and_then(Vec::pop)
    }

    /// Parks a batch workspace for the next same-shaped user.
    pub fn park_batch(&self, ws: BatchWorkspace) {
        self.batch
            .lock()
            .unwrap()
            .entry(ws.shape())
            .or_default()
            .push(ws);
    }

    /// Checks out a (reset) occupancy workspace for a booting job.
    /// Occupancy workspaces are shape-agnostic: their buffers rebuild on
    /// the first refresh against the new job's grid.
    pub fn checkout_occ(&self) -> Option<OccupancyWorkspace> {
        self.occ.lock().unwrap().pop()
    }

    /// Parks a retired job's occupancy workspace, resetting it first so
    /// no training state (EMA, phase, cache) leaks into the next job.
    pub fn park_occ(&self, mut ws: OccupancyWorkspace) {
        ws.reset();
        self.occ.lock().unwrap().push(ws);
    }

    /// Parked batch workspaces across all shapes (diagnostics/tests).
    pub fn parked_batch(&self) -> usize {
        self.batch.lock().unwrap().values().map(Vec::len).sum()
    }
}
