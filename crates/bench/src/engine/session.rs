//! One plan (or an explicit subset of its cells), executed as a
//! streaming session.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use super::{
    execute_cell, parallel_map, CellId, CellOutput, CellRecord, CellSink, Collector,
    ExperimentPlan, PartitionStore, TraceKey, TraceStore,
};

/// Collecting outputs from a session that covers only part of the
/// plan.
#[derive(Debug)]
pub enum SessionError {
    /// Outputs do not cover the plan (collecting from a session
    /// restricted to a cell subset).
    Incomplete {
        /// Cells with no output.
        missing: usize,
        /// Cells in the plan.
        total: usize,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Incomplete { missing, total } => write!(
                f,
                "outputs cover only {}/{total} cells ({missing} missing — collect every \
                 cell set, or run the whole plan)",
                total - missing
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// What a finished session did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionReport {
    /// Cells in the plan.
    pub cells: usize,
    /// Cells this session covers.
    pub owned: usize,
    /// Owned cells executed in this session.
    pub executed: usize,
}

/// A configured execution of an [`ExperimentPlan`], or of an explicit
/// subset of its cells.
///
/// The session owns the run policy — cell coverage, worker count,
/// trace/partition caches — while the plan stays a pure description.
/// Finished cells stream through the caller's [`CellSink`]s as they
/// complete; nothing is buffered beyond what the sinks themselves
/// keep. Crash safety is the fleet's job: its coordinator logs every
/// accepted cell to a write-ahead log.
///
/// ```
/// use dsp_bench::engine::{CellId, Collector, SweepRunner, SweepSession};
/// use dsp_bench::{experiments, Scale};
///
/// let scale = Scale::quick();
/// let plan = experiments::table2_plan(&scale);
/// let ids = CellId::assign(&plan.cells);
/// let (first, second) = ids.split_at(ids.len() / 2);
/// // Two explicit cell sets (normally two fleet leases on two
/// // workers), collected into one set of plan-ordered slots.
/// let mut collector = Collector::new(plan.len());
/// for lease in [first, second] {
///     SweepSession::new(&plan)
///         .cells(lease.to_vec())
///         .run(&mut [&mut collector]);
/// }
/// let split = plan.render_outputs(&collector.into_outputs().expect("every cell"));
/// let serial = SweepRunner::serial().run(&plan);
/// assert_eq!(split.to_csv(), serial.to_csv());
/// ```
#[derive(Debug)]
pub struct SweepSession<'p> {
    plan: &'p ExperimentPlan,
    /// The covered cells, sorted and deduplicated; `None` = the whole
    /// plan.
    cells: Option<Arc<[CellId]>>,
    threads: usize,
    store: Arc<TraceStore>,
    partitions: Arc<PartitionStore>,
}

impl<'p> SweepSession<'p> {
    /// A serial, full-coverage session over `plan`.
    pub fn new(plan: &'p ExperimentPlan) -> Self {
        SweepSession {
            plan,
            cells: None,
            threads: 1,
            store: Arc::new(TraceStore::default()),
            partitions: Arc::new(PartitionStore::default()),
        }
    }

    /// Restricts the session to the cells named by `ids` (a fleet
    /// lease). Order and duplicates do not matter.
    #[must_use]
    pub fn cells(mut self, mut ids: Vec<CellId>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        self.cells = Some(ids.into());
        self
    }

    /// Sets the worker-thread count (minimum 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Shares a runner's trace and partition caches with this session.
    #[must_use]
    pub fn stores(mut self, store: Arc<TraceStore>, partitions: Arc<PartitionStore>) -> Self {
        self.store = store;
        self.partitions = partitions;
        self
    }

    /// Executes the session, streaming each finished cell through every
    /// sink in completion order.
    pub fn run(&self, sinks: &mut [&mut dyn CellSink]) -> SessionReport {
        let ids = CellId::assign(&self.plan.cells);
        let owned: Vec<usize> = (0..ids.len())
            .filter(|&i| {
                self.cells
                    .as_ref()
                    .is_none_or(|cells| cells.binary_search(&ids[i]).is_ok())
            })
            .collect();

        // Phase 1: materialize each distinct trace the owned cells need
        // exactly once.
        let mut keys: Vec<TraceKey> = Vec::new();
        for &i in &owned {
            if let Some(key) = self.plan.cells[i].trace_key(self.plan) {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        self.store.ensure(&keys, self.threads);

        // Phase 2: execute in parallel, emitting each cell as it
        // finishes (under one lock so sinks see whole records).
        let emit = Mutex::new(sinks);
        let executed = AtomicUsize::new(0);
        parallel_map(&owned, self.threads, |&i| {
            let cell = &self.plan.cells[i];
            let trace = cell
                .trace_key(self.plan)
                .map(|key| self.store.get(&key).expect("trace materialized in phase 1"));
            let output = execute_cell(cell, self.plan, trace, &self.partitions);
            let record = CellRecord {
                id: ids[i],
                index: i,
                output,
            };
            let mut sinks = emit.lock().expect("sink lock poisoned");
            for sink in sinks.iter_mut() {
                sink.on_cell(self.plan, &record);
            }
            executed.fetch_add(1, Ordering::Relaxed);
        });

        SessionReport {
            cells: self.plan.cells.len(),
            owned: owned.len(),
            executed: executed.into_inner(),
        }
    }

    /// Runs the session into an in-memory collector and returns the
    /// plan-ordered outputs.
    ///
    /// # Errors
    ///
    /// [`SessionError::Incomplete`] when the session covers only part
    /// of the plan (a cell subset).
    pub fn run_collect(&self) -> Result<Vec<CellOutput>, SessionError> {
        let mut collector = Collector::new(self.plan.cells.len());
        self.run(&mut [&mut collector]);
        collector
            .into_outputs()
            .map_err(|missing| SessionError::Incomplete {
                missing,
                total: self.plan.cells.len(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Cell, SweepRunner};
    use super::*;
    use crate::Scale;
    use dsp_core::PredictorConfig;
    use dsp_trace::Workload;
    use dsp_types::SystemConfig;

    fn tiny() -> Scale {
        Scale {
            footprint: 1.0 / 256.0,
            trace_warmup: 100,
            trace_measured: 500,
            sim_warmup: 10,
            sim_measured: 50,
            sim_runs: 1,
        }
    }

    fn plan(scale: &Scale) -> ExperimentPlan {
        let config = SystemConfig::isca03();
        let mut plan = ExperimentPlan::new("session-test", &["workload", "label", "msgs"], scale);
        for workload in [Workload::Oltp, Workload::Apache, Workload::BarnesHut] {
            plan.push(Cell::Baselines { config, workload });
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor: PredictorConfig::group(),
            });
        }
        plan.render(|cells, outputs, table| {
            for (cell, output) in cells.iter().zip(outputs) {
                let workload = cell.workload().expect("trace cell").name().to_string();
                match output {
                    CellOutput::Baselines {
                        snooping,
                        directory,
                    } => {
                        for p in [snooping, directory] {
                            table.row([
                                workload.clone(),
                                p.label.clone(),
                                p.request_messages.to_string(),
                            ]);
                        }
                    }
                    CellOutput::Tradeoff(p) => {
                        table.row([workload, p.label.clone(), p.request_messages.to_string()])
                    }
                    other => panic!("unexpected output {other:?}"),
                }
            }
        })
    }

    #[test]
    fn explicit_cell_sets_collect_byte_identical() {
        let scale = tiny();
        let plan = plan(&scale);
        let serial = SweepRunner::serial().run(&plan);
        let ids = CellId::assign(&plan.cells);
        // Uneven leases (the coordinator's shape) and round-robin
        // splits into 1..=3 groups: every family covers each cell
        // exactly once and its sessions collect byte-identical to
        // serial.
        let mut families: Vec<Vec<Vec<CellId>>> = vec![vec![
            ids[..1].to_vec(),
            ids[1..4].to_vec(),
            ids[4..].to_vec(),
        ]];
        for count in 1..=3 {
            families.push(
                (0..count)
                    .map(|g| (g..ids.len()).step_by(count).map(|i| ids[i]).collect())
                    .collect(),
            );
        }
        for (f, leases) in families.iter().enumerate() {
            let mut collector = Collector::new(plan.len());
            for (i, lease) in leases.iter().enumerate() {
                let before = collector.filled();
                let report = SweepSession::new(&plan)
                    .cells(lease.clone())
                    .threads(1 + i % 4)
                    .run(&mut [&mut collector]);
                assert_eq!(report.cells, plan.len());
                assert_eq!(report.owned, lease.len());
                assert_eq!(report.executed, report.owned);
                assert_eq!(collector.filled(), before + lease.len(), "family {f}");
            }
            let table = plan.render_outputs(&collector.into_outputs().expect("every cell"));
            assert_eq!(table.to_csv(), serial.to_csv(), "family {f}");
            assert_eq!(table.to_string(), serial.to_string(), "family {f}");
        }
    }

    #[test]
    fn partial_shard_collection_is_incomplete() {
        let scale = tiny();
        let plan = plan(&scale);
        let ids = CellId::assign(&plan.cells);
        let err = SweepSession::new(&plan)
            .cells(ids[..3].to_vec())
            .run_collect()
            .unwrap_err();
        assert!(matches!(err, SessionError::Incomplete { .. }), "{err}");
    }
}
