//! Fleet bookkeeping shared by the ledger, the protocol, and the CLI:
//! lease-churn counters, status snapshots, and result pages.

use serde::{Deserialize, Serialize};

/// Lease-churn counters, maintained by the
/// [`LeaseLedger`](crate::lease::LeaseLedger) and reported at end of
/// run.
///
/// The reconciliation invariant: every cell-grant event either ended in
/// that grant's completion or in the cell moving to another lease
/// (stolen from a straggler, or requeued when its lease expired), so
/// `cells_granted == cells_completed + cells_stolen` — and every cell
/// completed exactly once.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetCounters {
    /// Leases handed out.
    pub leases_granted: u64,
    /// Leases whose every cell was reported by their holder.
    pub leases_completed: u64,
    /// Leases expired for lost liveness.
    pub leases_expired: u64,
    /// Cell-grant events (a re-granted cell counts again).
    pub cells_granted: u64,
    /// Cells completed (each cell exactly once).
    pub cells_completed: u64,
    /// Cell-reassignment events: stolen from a straggler's tail or
    /// requeued from an expired lease.
    pub cells_stolen: u64,
    /// Reports rejected because the reporter no longer held the cell.
    pub stale_reports: u64,
    /// Reconnects that presented a known `SessionId` and were welcomed
    /// back.
    pub sessions_resumed: u64,
    /// Live leases re-adopted (refreshed instead of expired) across
    /// those reconnects.
    pub leases_readopted: u64,
    /// Ledger transitions replayed from the WAL by `--recover` (zero on
    /// a run that never crashed).
    pub wal_events_replayed: u64,
}

impl FleetCounters {
    /// Whether the ledger reconciles for a finished sweep over
    /// `total_cells` cells.
    pub fn reconciled(&self, total_cells: u64) -> bool {
        self.cells_completed == total_cells
            && self.cells_granted == self.cells_completed + self.cells_stolen
    }
}

/// One active lease, as shown in a status snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseInfo {
    /// Lease id.
    pub lease: u64,
    /// Holding worker.
    pub worker: String,
    /// Cells not yet reported.
    pub outstanding: usize,
    /// Cells completed under this lease.
    pub done: usize,
}

/// Progress counters plus the active leases — the coordinator's answer
/// to [`Request::Status`](crate::protocol::Request::Status).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatusReport {
    /// Experiment name.
    pub experiment: String,
    /// Cells in the plan.
    pub total_cells: usize,
    /// Cells completed so far.
    pub completed_cells: usize,
    /// Whether the sweep has finished (final table rendered).
    pub complete: bool,
    /// Churn counters so far.
    pub counters: FleetCounters,
    /// Active leases.
    pub leases: Vec<LeaseInfo>,
}

/// One cell's completion state in a results page.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellProgress {
    /// Plan index.
    pub index: usize,
    /// Cell id, fixed-width hex.
    pub cell: String,
    /// `pending` / `leased` / `done`.
    pub state: String,
    /// For `done`: the worker whose result was accepted. For `leased`:
    /// the holder.
    pub worker: Option<String>,
}

/// A page of per-cell states in plan order — the incremental-results
/// answer served while the sweep is still running.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultsPage {
    /// Cells in the plan.
    pub total: usize,
    /// Cells completed so far.
    pub completed: usize,
    /// Plan index of the first entry.
    pub start: usize,
    /// The page.
    pub cells: Vec<CellProgress>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconciliation_requires_full_completion_and_balanced_churn() {
        let mut c = FleetCounters {
            cells_granted: 12,
            cells_completed: 10,
            cells_stolen: 2,
            ..FleetCounters::default()
        };
        assert!(c.reconciled(10));
        assert!(!c.reconciled(12), "two cells never completed");
        c.cells_stolen = 1;
        assert!(!c.reconciled(10), "a grant went unaccounted");
    }

    #[test]
    fn counters_round_trip_as_json() {
        let c = FleetCounters {
            leases_granted: 3,
            cells_granted: 9,
            cells_completed: 7,
            cells_stolen: 2,
            ..FleetCounters::default()
        };
        let text = serde_json::to_string(&c).expect("encode");
        let back: FleetCounters = serde_json::from_str(&text).expect("decode");
        assert_eq!(back, c);
    }
}
