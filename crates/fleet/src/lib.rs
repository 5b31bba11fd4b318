//! Fleet orchestration, the one way to split a sweep across processes
//! or machines: a coordinator that leases cells to workers, watches
//! their heartbeats, steals straggler tails, and folds every accepted
//! cell back into one byte-identical table.
//!
//! The sweep engine (`dsp_bench::engine`) makes every cell
//! content-addressed, idempotent, and merge-deterministic. This crate
//! turns it into a serving system:
//!
//! * [`protocol`] — a std-only newline-delimited-JSON message set over
//!   TCP (`std::net` + one thread per connection; no async runtime, no
//!   external dependencies beyond the in-tree serde stubs).
//! * [`lease`] — the pure lease state machine: grant / heartbeat /
//!   complete / steal / expire over explicit [`CellId`] sets, with a
//!   churn ledger that must reconcile (`granted == completed + stolen`)
//!   when the sweep finishes. Time is an explicit parameter, so the
//!   machine is property-testable without clocks.
//! * [`coordinator`] — owns an `ExperimentPlan` and the ledger, serves
//!   leases and incremental results, expires leases whose heartbeats
//!   stop and re-leases their unreported cells, and folds its WAL into
//!   the final table.
//! * [`worker`] — wraps `SweepSession`: pull a lease, run its cells in
//!   memory while a heartbeat thread keeps the lease alive, stream each
//!   finished cell back, repeat until the coordinator says the sweep is
//!   done. Workers keep no files, so a remote one needs only a tunnel.
//! * [`stats`] — counters, status snapshots, and result pages shared by
//!   the protocol and the `repro fleet` / `fleet-status` front-ends.
//!
//! The control plane is hardened to survive a hostile run of luck:
//!
//! * [`auth`] — shared-token challenge/response (std-only keyed hash
//!   over a coordinator nonce) so unauthenticated or version-skewed
//!   clients get a typed refusal instead of a lease.
//! * sessions — every authenticated worker holds a `SessionId`; a
//!   worker that loses TCP mid-lease reconnects with the same id and
//!   its live leases are *re-adopted*, not expired. Only a lease's own
//!   session can heartbeat it.
//! * [`wal`] — the coordinator write-ahead-logs every ledger transition,
//!   accepted cell outputs included, in its only durable log;
//!   `repro fleet --recover` replays it, expires the orphaned leases,
//!   and finishes the sweep with the ledger still reconciling.
//! * [`chaos`] — a seeded flaky-TCP proxy (delays, stalls, mid-message
//!   disconnects) the e2e tests and `repro fleet --chaos` push whole
//!   sweeps through; the result must still be byte-identical to serial.
//!
//! # Determinism
//!
//! Cell outputs are pure functions of the plan, so any interleaving of
//! grants, steals, kills, and re-runs yields the same bytes: a cell
//! that a worker presumed dead finished but never reported is re-run
//! by the next holder with an *identical* output. The WAL accepts each
//! cell exactly once, and the final compaction folds those outputs into
//! a table byte-identical to a serial run; a cell missing from the WAL
//! fails the fold loudly.
//!
//! [`CellId`]: dsp_bench::engine::CellId

pub mod auth;
pub mod chaos;
pub mod coordinator;
pub mod lease;
pub mod protocol;
pub mod stats;
pub mod wal;
pub mod worker;

pub use chaos::{ChaosProxy, ChaosSpec};
pub use coordinator::{Coordinator, CoordinatorHandle, FleetConfig, FleetReport};
pub use lease::{CellReport, GrantOutcome, LeaseLedger, LeaseSizer};
pub use protocol::{MessageReader, PlanIdentity, ProtocolError, Reply, Request, PROTOCOL_VERSION};
pub use stats::{CellProgress, FleetCounters, LeaseInfo, ResultsPage, StatusReport};
pub use wal::{read_wal, WalEvent};
pub use worker::{query_results, query_status, run_worker, run_worker_with, WorkerConfig};
