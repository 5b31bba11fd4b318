//! Fleet orchestration, the one way to split a sweep across processes
//! or machines: a coordinator that leases cells to workers, watches
//! their liveness, steals straggler tails, and folds every journal back
//! into one byte-identical table.
//!
//! The sweep engine (`dsp_bench::engine`) makes every cell
//! content-addressed, idempotent, and merge-deterministic, and journals
//! each finished cell. This crate turns that checkpoint layer into a
//! serving system:
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
//!   leases and incremental results, tails worker journals as
//!   heartbeats, harvests the durable prefix of a dead worker's journal
//!   before re-leasing the rest, and compacts every journal through
//!   `merge_journals` into the final table.
//! * [`worker`] — wraps `SweepSession`: pull a lease, run its cells
//!   (journaling locally), stream each finished cell back, repeat until
//!   the coordinator says the sweep is done.
//! * [`stats`] — counters, status snapshots, and result pages shared by
//!   the protocol and the `repro fleet` / `fleet-status` front-ends.
//!
//! The control plane is hardened to survive a hostile run of luck:
//!
//! * [`auth`] — shared-token challenge/response (std-only keyed hash
//!   over a coordinator nonce) so unauthenticated or version-skewed
//!   clients get a typed refusal instead of a lease.
//! * sessions — every authenticated worker holds a `SessionId`; a
//!   worker that loses TCP but kept its lease journal reconnects with
//!   the same id and its live leases are *re-adopted*, not harvested.
//! * [`wal`] — the coordinator write-ahead-logs every ledger transition
//!   next to the master journal; `repro fleet --recover` replays it,
//!   re-adopts the master journal, harvests orphaned lease journals,
//!   and finishes the sweep with the ledger still reconciling.
//! * [`chaos`] — a seeded flaky-TCP proxy (delays, stalls, mid-message
//!   disconnects) the e2e tests and `repro fleet --chaos` push whole
//!   sweeps through; the result must still be byte-identical to serial.
//!
//! # Determinism
//!
//! Cell outputs are pure functions of the plan, so any interleaving of
//! grants, steals, kills, and harvests yields the same bytes: a cell
//! journaled by a worker presumed dead and re-run by its stealer
//! produces *identical* records, which is why the final compaction can
//! merge the master journal with every surviving lease journal and
//! still demand byte-identity with a serial run. The merge layer
//! enforces the contract — differing duplicate outputs fail the merge
//! loudly instead of folding silently.
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
pub use wal::{read_wal, WalEvent, WalWriter};
pub use worker::{query_results, query_status, run_worker, run_worker_with, WorkerConfig};
