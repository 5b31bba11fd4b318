//! The lease state machine: which worker owns which cells, with
//! work-stealing and expiry.
//!
//! Pure and clock-free: every transition takes `now` (milliseconds, any
//! monotonic origin) as an explicit argument, so the machine can be
//! property-tested over arbitrary grant/steal/expire/complete
//! interleavings with simulated time. The coordinator supplies real
//! wall-clock offsets; tests supply whatever adversarial schedule they
//! like.
//!
//! A lease's only liveness evidence is its grant, its holder's
//! heartbeats ([`LeaseLedger::heartbeat`]) and its cell reports
//! ([`LeaseLedger::complete_cell`]); one silent for the timeout is
//! [`stale`](LeaseLedger::stale_leases) and gets expired.
//!
//! Each cell is always in exactly one state — pending, leased to
//! exactly one lease, or done — and the transitions preserve the churn
//! ledger invariant checked by
//! [`FleetCounters::reconciled`]: every grant event ends in either a
//! completion under that grant or a reassignment (steal / expiry
//! requeue), never both, never neither.
//!
//! Results from a lease that no longer holds a cell are **rejected**
//! ([`CellReport::Stale`]), not merged: outputs are deterministic, so
//! re-running the cell under its new lease produces identical bytes and
//! nothing is lost — while accepting them would let one cell's result
//! enter the WAL from two workers, which is exactly what the
//! reconciliation check forbids.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dsp_bench::engine::CellId;

use crate::stats::{FleetCounters, LeaseInfo};

/// One cell's position in the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CellState {
    /// Waiting to be granted (initially, or again after a requeue).
    Pending,
    /// Owned by the lease with this id.
    Leased(u64),
    /// Completed exactly once; terminal.
    Done,
}

/// An active lease.
#[derive(Clone, Debug)]
pub struct Lease {
    /// Lease id (monotonic).
    pub id: u64,
    /// Holding worker.
    pub worker: String,
    /// Outstanding cells in plan order — the order the worker runs
    /// them, so stealing from the *back* takes the cells the holder
    /// would reach last.
    pub cells: Vec<CellId>,
    /// Cells completed under this lease.
    pub done: usize,
    /// Last liveness evidence: the grant, or a heartbeat or cell report
    /// about this lease.
    pub last_alive: u64,
    /// When the last cell was accepted under this lease (or the grant
    /// time, before any completion) — the baseline the coordinator's
    /// [`LeaseSizer`] measures per-cell wall clock against.
    pub last_progress: u64,
}

/// What [`LeaseLedger::grant`] produced.
#[derive(Clone, Debug)]
pub enum GrantOutcome {
    /// A new lease.
    Granted {
        /// The lease id.
        lease: u64,
        /// Its cells, in plan order.
        cells: Vec<CellId>,
        /// Whether the cells were stolen from a straggler's tail
        /// rather than drawn from the pending queue.
        stolen: bool,
    },
    /// Nothing grantable right now: everything is leased out in tails
    /// too short to steal. Poll again — an expiry may free work.
    Wait,
    /// Every cell is done; the worker should exit.
    Finished,
}

/// Verdict on one reported cell completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellReport {
    /// First completion: record the output.
    Accepted,
    /// The cell was already done; identical by determinism, drop it.
    Duplicate,
    /// The reporter no longer holds the cell (lease expired or the
    /// cell was stolen); drop it — its current owner will complete it.
    Stale,
}

/// The coordinator's authoritative record of cell ownership.
#[derive(Debug)]
pub struct LeaseLedger {
    /// Every cell id, in plan order.
    order: Vec<CellId>,
    /// Id → plan index.
    index: HashMap<CellId, usize>,
    /// Per-cell state, by plan index.
    state: Vec<CellState>,
    /// Plan indices awaiting a grant (BTreeSet keeps plan order).
    pending: BTreeSet<usize>,
    /// Active leases by id (BTreeMap for deterministic iteration).
    active: BTreeMap<u64, Lease>,
    next_lease: u64,
    /// Churn ledger.
    pub counters: FleetCounters,
}

impl LeaseLedger {
    /// A ledger over `cells` (the plan's `CellId::assign` manifest, in
    /// plan order; ids are unique within a plan by construction).
    pub fn new(cells: Vec<CellId>) -> Self {
        let index = cells.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let pending = (0..cells.len()).collect();
        LeaseLedger {
            state: vec![CellState::Pending; cells.len()],
            index,
            pending,
            active: BTreeMap::new(),
            next_lease: 1,
            counters: FleetCounters::default(),
            order: cells,
        }
    }

    /// Cells in the plan.
    pub fn total(&self) -> usize {
        self.order.len()
    }

    /// Cells completed so far.
    pub fn completed(&self) -> usize {
        self.state
            .iter()
            .filter(|s| matches!(s, CellState::Done))
            .count()
    }

    /// Cells awaiting a grant.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Cells held by active leases.
    pub fn outstanding(&self) -> usize {
        self.active.values().map(|l| l.cells.len()).sum()
    }

    /// Whether every cell is done.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.total()
    }

    /// The active lease with id `lease`.
    pub fn lease(&self, lease: u64) -> Option<&Lease> {
        self.active.get(&lease)
    }

    /// Status-snapshot rows for every active lease.
    pub fn lease_infos(&self) -> Vec<LeaseInfo> {
        self.active
            .values()
            .map(|l| LeaseInfo {
                lease: l.id,
                worker: l.worker.clone(),
                outstanding: l.cells.len(),
                done: l.done,
            })
            .collect()
    }

    /// One cell's state, for results pages: `(id, state-name, holder)`
    /// where `holder` is the owning lease for leased cells.
    pub fn cell_view(&self, index: usize) -> Option<(CellId, &'static str, Option<u64>)> {
        let id = *self.order.get(index)?;
        Some(match self.state[index] {
            CellState::Pending => (id, "pending", None),
            CellState::Leased(lease) => (id, "leased", Some(lease)),
            CellState::Done => (id, "done", None),
        })
    }

    /// Grants up to `max_cells` cells to `worker`: from the pending
    /// queue in plan order, or — when the queue is empty — by stealing
    /// the back half of the largest straggler lease (the cells its
    /// holder would reach last). Single-cell leases are never stolen
    /// from, so two idle workers cannot ping-pong one cell; a wedged
    /// single-cell lease is recovered by expiry instead.
    pub fn grant(&mut self, worker: &str, now: u64, max_cells: usize) -> GrantOutcome {
        if self.is_complete() {
            return GrantOutcome::Finished;
        }
        let max_cells = max_cells.max(1);
        let mut take: Vec<usize> = Vec::new();
        while take.len() < max_cells {
            match self.pending.pop_first() {
                Some(i) => take.push(i),
                None => break,
            }
        }
        let mut stolen = false;
        if take.is_empty() {
            // Steal: largest outstanding tail wins, oldest lease on
            // ties (deterministic under the BTreeMap ordering).
            let victim = self
                .active
                .values()
                .filter(|l| l.cells.len() >= 2)
                .max_by_key(|l| (l.cells.len(), std::cmp::Reverse(l.id)))
                .map(|l| l.id);
            let Some(victim) = victim else {
                return GrantOutcome::Wait;
            };
            let lease = self.active.get_mut(&victim).expect("victim is active");
            let steal = (lease.cells.len() / 2).min(max_cells);
            let tail = lease.cells.split_off(lease.cells.len() - steal);
            self.counters.cells_stolen += tail.len() as u64;
            take = tail.iter().map(|id| self.index[id]).collect();
            stolen = true;
        }
        let id = self.next_lease;
        self.next_lease += 1;
        let cells: Vec<CellId> = take.iter().map(|&i| self.order[i]).collect();
        for &i in &take {
            self.state[i] = CellState::Leased(id);
        }
        self.counters.leases_granted += 1;
        self.counters.cells_granted += cells.len() as u64;
        self.active.insert(
            id,
            Lease {
                id,
                worker: worker.to_string(),
                cells: cells.clone(),
                done: 0,
                last_alive: now,
                last_progress: now,
            },
        );
        GrantOutcome::Granted {
            lease: id,
            cells,
            stolen,
        }
    }

    /// Re-applies a grant recorded in the coordinator's WAL: the same
    /// transition [`grant`](Self::grant) made originally, but with the
    /// lease id and cell set forced to what the log says rather than
    /// chosen by policy. Pending cells are drawn from the queue;
    /// still-leased cells are taken from their current holder as a
    /// steal — exactly the two sources a live grant has — so the churn
    /// counters reconcile across the replay the same way they did
    /// across the original run.
    ///
    /// # Errors
    ///
    /// A WAL that grants a completed or unknown cell is corrupt (the
    /// live ledger can never do that); the error names the cell.
    pub fn replay_granted(
        &mut self,
        lease: u64,
        worker: &str,
        cells: &[CellId],
        now: u64,
    ) -> Result<(), String> {
        if self.active.contains_key(&lease) {
            return Err(format!("WAL grants lease {lease} twice"));
        }
        for &cell in cells {
            let Some(&idx) = self.index.get(&cell) else {
                return Err(format!("WAL grants unknown cell {cell}"));
            };
            match self.state[idx] {
                CellState::Pending => {
                    self.pending.remove(&idx);
                }
                CellState::Leased(victim) => {
                    let holder = self
                        .active
                        .get_mut(&victim)
                        .ok_or_else(|| format!("cell {cell} leased to unknown lease {victim}"))?;
                    holder.cells.retain(|c| *c != cell);
                    self.counters.cells_stolen += 1;
                }
                CellState::Done => {
                    return Err(format!("WAL grants completed cell {cell}"));
                }
            }
            self.state[idx] = CellState::Leased(lease);
        }
        self.counters.leases_granted += 1;
        self.counters.cells_granted += cells.len() as u64;
        self.active.insert(
            lease,
            Lease {
                id: lease,
                worker: worker.to_string(),
                cells: cells.to_vec(),
                done: 0,
                last_alive: now,
                last_progress: now,
            },
        );
        self.next_lease = self.next_lease.max(lease + 1);
        Ok(())
    }

    /// Records protocol-level liveness. Returns `false` for an unknown
    /// (expired) lease.
    pub fn heartbeat(&mut self, lease: u64, now: u64) -> bool {
        match self.active.get_mut(&lease) {
            Some(l) => {
                l.last_alive = now;
                true
            }
            None => false,
        }
    }

    /// Judges one reported cell completion; see [`CellReport`]. Only
    /// the cell's *current* leaseholder may complete it.
    pub fn complete_cell(&mut self, lease: u64, cell: CellId, now: u64) -> CellReport {
        let Some(&idx) = self.index.get(&cell) else {
            self.counters.stale_reports += 1;
            return CellReport::Stale;
        };
        match self.state[idx] {
            CellState::Done => {
                self.heartbeat(lease, now);
                CellReport::Duplicate
            }
            CellState::Leased(holder) if holder == lease && self.active.contains_key(&lease) => {
                self.state[idx] = CellState::Done;
                let l = self.active.get_mut(&lease).expect("checked");
                l.last_alive = now;
                l.last_progress = now;
                l.done += 1;
                l.cells.retain(|c| *c != cell);
                self.counters.cells_completed += 1;
                CellReport::Accepted
            }
            _ => {
                self.counters.stale_reports += 1;
                self.heartbeat(lease, now);
                CellReport::Stale
            }
        }
    }

    /// Retires a lease whose holder reported every cell. Returns
    /// `false` (and keeps the lease) if cells are still outstanding —
    /// the holder is confused, and expiry will reclaim the rest.
    pub fn complete_lease(&mut self, lease: u64) -> bool {
        match self.active.get(&lease) {
            Some(l) if l.cells.is_empty() => {
                self.active.remove(&lease);
                self.counters.leases_completed += 1;
                true
            }
            _ => false,
        }
    }

    /// Leases with no liveness evidence within `timeout_ms` of `now`;
    /// the caller [`expire`](Self::expire)s each one.
    pub fn stale_leases(&self, now: u64, timeout_ms: u64) -> Vec<u64> {
        self.active
            .values()
            .filter(|l| now.saturating_sub(l.last_alive) > timeout_ms)
            .map(|l| l.id)
            .collect()
    }

    /// Kills a lease: outstanding cells return to the pending queue
    /// (counted as reassigned — they will be granted again). Returns
    /// how many cells were requeued.
    pub fn expire(&mut self, lease: u64) -> usize {
        let Some(l) = self.active.remove(&lease) else {
            return 0;
        };
        self.counters.leases_expired += 1;
        self.counters.cells_stolen += l.cells.len() as u64;
        let requeued = l.cells.len();
        for cell in l.cells {
            let idx = self.index[&cell];
            debug_assert_eq!(self.state[idx], CellState::Leased(lease));
            self.state[idx] = CellState::Pending;
            self.pending.insert(idx);
        }
        requeued
    }
}

/// Feedback-regulated lease sizing (the LMS-AR idea applied to the
/// control plane): instead of a fixed `--lease-cells`, the grant size
/// tracks an EWMA of observed per-cell wall clock so each lease aims
/// at a constant *time* budget. Early grants are big (nothing observed
/// yet → take the clamp); as the EWMA settles, size becomes
/// `target_ms / ewma`; and near the tail a pending-fraction limit
/// shrinks grants further so work stealing keeps fine grain for the
/// stragglers.
///
/// All-integer and pure: the same sequence of `observe`/`size` calls
/// produces the same sizes, so the policy is deterministic given the
/// report stream (and the final table never depends on it at all —
/// sizing only changes the interleaving, which the merge layer already
/// proves irrelevant).
#[derive(Debug)]
pub struct LeaseSizer {
    /// Wall-clock budget one lease should represent.
    target_ms: u64,
    /// Hard size clamp (the configured `--lease-cells`).
    max_cells: usize,
    /// EWMA of per-cell milliseconds; `None` until the first sample.
    ewma_ms: Option<u64>,
    /// Smallest size granted so far (trajectory, for BENCH rows).
    min_size: usize,
    /// Largest size granted so far.
    max_size: usize,
    /// Most recent size granted.
    last_size: usize,
}

impl LeaseSizer {
    /// A sizer aiming each lease at `target_ms` of work, never granting
    /// more than `max_cells` cells.
    pub fn new(target_ms: u64, max_cells: usize) -> Self {
        LeaseSizer {
            target_ms: target_ms.max(1),
            max_cells: max_cells.max(1),
            ewma_ms: None,
            min_size: 0,
            max_size: 0,
            last_size: 0,
        }
    }

    /// Feeds one observed per-cell duration into the EWMA
    /// (`ewma ← (7·ewma + sample) / 8`, integer, sample floored at
    /// 1 ms so a burst of sub-millisecond cells cannot divide by zero
    /// later).
    pub fn observe(&mut self, cell_ms: u64) {
        let sample = cell_ms.max(1);
        self.ewma_ms = Some(match self.ewma_ms {
            None => sample,
            Some(e) => (7 * e + sample) / 8,
        });
    }

    /// The current per-cell estimate, if anything has been observed.
    pub fn ewma_ms(&self) -> Option<u64> {
        self.ewma_ms
    }

    /// Decides the next grant's size given `pending` cells still
    /// queued, and records it in the trajectory.
    pub fn size(&mut self, pending: usize) -> usize {
        let by_time = match self.ewma_ms {
            // Nothing observed: open big, the clamp is the policy.
            None => self.max_cells,
            Some(ewma) => (self.target_ms / ewma.max(1)).max(1) as usize,
        };
        // Tail limit: never hand one worker more than ~half of what is
        // left, so the endgame stays stealable.
        let by_tail = pending.div_ceil(2).max(1);
        let size = by_time.min(by_tail).min(self.max_cells).max(1);
        if self.last_size == 0 {
            self.min_size = size;
            self.max_size = size;
        } else {
            self.min_size = self.min_size.min(size);
            self.max_size = self.max_size.max(size);
        }
        self.last_size = size;
        size
    }

    /// `(min, max, final)` granted sizes, for the BENCH robustness row;
    /// zeros when nothing was granted.
    pub fn trajectory(&self) -> (usize, usize, usize) {
        (self.min_size, self.max_size, self.last_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<CellId> {
        (0..n)
            .map(|i| CellId::from_hex(&format!("{:016x}", 0x1000 + i as u64)).expect("hex"))
            .collect()
    }

    fn granted(outcome: GrantOutcome) -> (u64, Vec<CellId>, bool) {
        match outcome {
            GrantOutcome::Granted {
                lease,
                cells,
                stolen,
            } => (lease, cells, stolen),
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_reconciles() {
        let cells = ids(5);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, c1, s1) = granted(ledger.grant("w1", 0, 3));
        assert_eq!(c1, cells[..3]);
        assert!(!s1);
        let (l2, c2, _) = granted(ledger.grant("w2", 0, 3));
        assert_eq!(c2, cells[3..]);
        for &c in &c1 {
            assert_eq!(ledger.complete_cell(l1, c, 10), CellReport::Accepted);
        }
        for &c in &c2 {
            assert_eq!(ledger.complete_cell(l2, c, 10), CellReport::Accepted);
        }
        assert!(ledger.complete_lease(l1));
        assert!(ledger.complete_lease(l2));
        assert!(ledger.is_complete());
        assert!(matches!(ledger.grant("w1", 20, 3), GrantOutcome::Finished));
        assert!(ledger.counters.reconciled(5));
        assert_eq!(ledger.counters.leases_completed, 2);
    }

    #[test]
    fn steal_takes_the_tail_of_the_largest_lease() {
        let cells = ids(6);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, c1, _) = granted(ledger.grant("w1", 0, 6));
        assert_eq!(c1.len(), 6);
        // Queue is empty; an idle worker steals the back half.
        let (l2, c2, stolen) = granted(ledger.grant("w2", 5, 4));
        assert!(stolen);
        assert_eq!(c2, cells[3..]);
        assert_eq!(ledger.lease(l1).expect("active").cells, cells[..3]);
        assert_eq!(ledger.counters.cells_stolen, 3);
        // The victim reporting a stolen cell is rejected...
        assert_eq!(ledger.complete_cell(l1, cells[5], 6), CellReport::Stale);
        // ...the stealer completing it is accepted.
        assert_eq!(ledger.complete_cell(l2, cells[5], 7), CellReport::Accepted);
        // Drain the rest.
        for &c in &cells[..3] {
            assert_eq!(ledger.complete_cell(l1, c, 8), CellReport::Accepted);
        }
        for &c in &cells[3..5] {
            assert_eq!(ledger.complete_cell(l2, c, 8), CellReport::Accepted);
        }
        assert!(ledger.is_complete());
        assert!(ledger.counters.reconciled(6));
        assert_eq!(ledger.counters.stale_reports, 1);
    }

    #[test]
    fn expiry_requeues_and_the_cells_complete_elsewhere() {
        let cells = ids(4);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, _, _) = granted(ledger.grant("w1", 0, 4));
        assert_eq!(
            ledger.complete_cell(l1, cells[0], 100),
            CellReport::Accepted
        );
        // No liveness after t=100; stale only strictly past t=100+timeout.
        assert_eq!(ledger.stale_leases(5_101, 5_000), vec![l1]);
        assert!(ledger.stale_leases(5_100, 5_000).is_empty());
        assert_eq!(ledger.expire(l1), 3);
        assert_eq!(ledger.pending(), 3);
        // A late report from the dead lease is rejected.
        assert_eq!(ledger.complete_cell(l1, cells[1], 6_000), CellReport::Stale);
        let (l2, c2, stolen) = granted(ledger.grant("w2", 6_000, 8));
        assert!(!stolen, "requeued cells come from the pending queue");
        assert_eq!(c2, cells[1..]);
        for &c in &c2 {
            assert_eq!(ledger.complete_cell(l2, c, 6_500), CellReport::Accepted);
        }
        assert!(ledger.is_complete());
        assert!(ledger.counters.reconciled(4));
        assert_eq!(ledger.counters.leases_expired, 1);
        assert_eq!(ledger.counters.cells_stolen, 3);
    }

    #[test]
    fn replay_granted_reproduces_grants_and_steals() {
        let cells = ids(6);
        // Original run: one big grant, then a steal of its tail.
        let mut live = LeaseLedger::new(cells.clone());
        let (l1, c1, _) = granted(live.grant("w1", 0, 6));
        let (l2, c2, stolen) = granted(live.grant("w2", 5, 4));
        assert!(stolen);
        // Replay the two Granted transitions into a fresh ledger.
        let mut replayed = LeaseLedger::new(cells.clone());
        replayed.replay_granted(l1, "w1", &c1, 0).expect("grant 1");
        replayed.replay_granted(l2, "w2", &c2, 5).expect("grant 2");
        assert_eq!(replayed.counters.cells_granted, live.counters.cells_granted);
        assert_eq!(replayed.counters.cells_stolen, live.counters.cells_stolen);
        assert_eq!(
            replayed.lease(l1).expect("active").cells,
            live.lease(l1).expect("active").cells
        );
        // New leases continue past the replayed ids.
        let (l3, _, _) = granted({
            for &c in &cells[..2] {
                assert_eq!(replayed.complete_cell(l1, c, 9), CellReport::Accepted);
            }
            assert_eq!(replayed.expire(l2), 3);
            replayed.grant("w3", 10, 8)
        });
        assert!(l3 > l2);
        // A corrupt WAL (granting a done cell) is refused.
        let err = replayed
            .replay_granted(99, "w9", &cells[..1], 11)
            .expect_err("done cell");
        assert!(err.contains("completed cell"), "{err}");
    }

    #[test]
    fn sizer_opens_big_then_tracks_the_ewma_and_the_tail() {
        let mut sizer = LeaseSizer::new(400, 8);
        // No observations yet: clamp wins (tail limit permitting).
        assert_eq!(sizer.size(64), 8);
        // 100 ms/cell settles the EWMA → 400/100 = 4 cells per lease.
        for _ in 0..20 {
            sizer.observe(100);
        }
        assert_eq!(sizer.size(64), 4);
        // Cells slowed down to ~400 ms: one cell per lease.
        for _ in 0..40 {
            sizer.observe(400);
        }
        assert_eq!(sizer.size(64), 1);
        // Near the tail the pending fraction dominates.
        let mut tail_sizer = LeaseSizer::new(10_000, 8);
        assert_eq!(tail_sizer.size(6), 3, "6 pending → ceil(6/2) = 3");
        assert_eq!(tail_sizer.size(1), 1, "1 pending → ceil(1/2) = 1");
        assert_eq!(tail_sizer.size(0), 1, "floor at one cell");
        let (min, max, last) = sizer.trajectory();
        assert_eq!((min, max, last), (1, 8, 1));
    }

    #[test]
    fn duplicates_and_single_cell_leases() {
        let cells = ids(1);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, _, _) = granted(ledger.grant("w1", 0, 4));
        // A single-cell lease cannot be stolen from.
        assert!(matches!(ledger.grant("w2", 1, 4), GrantOutcome::Wait));
        assert_eq!(ledger.complete_cell(l1, cells[0], 2), CellReport::Accepted);
        assert_eq!(ledger.complete_cell(l1, cells[0], 3), CellReport::Duplicate);
        assert_eq!(ledger.counters.cells_completed, 1);
        assert!(ledger.counters.reconciled(1));
    }
}
