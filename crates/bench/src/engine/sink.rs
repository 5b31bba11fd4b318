//! Streaming consumers of finished cells.
//!
//! A [`SweepSession`](super::SweepSession) does not hold its results
//! until the end of the run: every finished cell is pushed through the
//! [`CellSink`]s the caller passed in, as soon as it completes. The
//! built-in sinks cover the three uses the harness needs — the
//! checkpoint journal ([`JournalWriter`](super::JournalWriter) is a
//! sink too), live progress on long `paper`-scale runs
//! ([`ProgressSink`]), and the in-memory ordered collection the
//! existing render path consumes ([`Collector`]).

use super::{CellId, CellOutput, ExperimentPlan};

/// One finished cell, as delivered to sinks.
#[derive(Clone, Debug)]
pub struct CellRecord {
    /// Stable content identity of the cell.
    pub id: CellId,
    /// The cell's plan position (sinks that need plan order, like the
    /// collector, index with this; the id is what leases and journals
    /// match on).
    pub index: usize,
    /// `true` when the output was replayed from a checkpoint journal
    /// rather than executed in this session.
    pub replayed: bool,
    /// The cell's output.
    pub output: CellOutput,
}

/// A consumer of finished cells.
///
/// Executed cells arrive in *completion* order (worker threads race);
/// replayed cells arrive first, in plan order. Sinks needing plan
/// order must order by [`CellRecord::index`] themselves — outputs are
/// deterministic per cell, so any arrival order carries the same data.
pub trait CellSink: Send {
    /// Called once per finished (or replayed) cell.
    fn on_cell(&mut self, plan: &ExperimentPlan, record: &CellRecord);
}

/// Collects outputs into plan-ordered slots — the bridge from the
/// streaming session to the batch render path.
#[derive(Debug, Default)]
pub struct Collector {
    outputs: Vec<Option<CellOutput>>,
}

impl Collector {
    /// A collector with one slot per plan cell.
    pub fn new(cells: usize) -> Self {
        Collector {
            outputs: (0..cells).map(|_| None).collect(),
        }
    }

    /// Number of filled slots.
    pub fn filled(&self) -> usize {
        self.outputs.iter().filter(|o| o.is_some()).count()
    }

    /// The plan-ordered outputs, or `Err(missing_count)` if any cell
    /// never arrived (e.g. the session covered only a cell subset).
    pub fn into_outputs(self) -> Result<Vec<CellOutput>, usize> {
        let missing = self.outputs.iter().filter(|o| o.is_none()).count();
        if missing > 0 {
            return Err(missing);
        }
        Ok(self
            .outputs
            .into_iter()
            .map(|o| o.expect("checked"))
            .collect())
    }
}

impl CellSink for Collector {
    fn on_cell(&mut self, _plan: &ExperimentPlan, record: &CellRecord) {
        self.outputs[record.index] = Some(record.output.clone());
    }
}

/// Prints one progress line per finished cell to stderr — the
/// incremental rendering for long checkpointed runs, where the table
/// is rendered only once the journal is complete.
#[derive(Debug)]
pub struct ProgressSink {
    done: usize,
    expected: usize,
}

impl ProgressSink {
    /// A reporter expecting `expected` cells (the session's share).
    pub fn new(expected: usize) -> Self {
        ProgressSink { done: 0, expected }
    }
}

impl CellSink for ProgressSink {
    fn on_cell(&mut self, plan: &ExperimentPlan, record: &CellRecord) {
        self.done += 1;
        eprintln!(
            "[{}/{}] cell {} ({}){}",
            self.done,
            self.expected,
            record.id,
            plan.cells[record.index].summary(),
            if record.replayed { " [resumed]" } else { "" },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Cell, SweepSession};
    use super::*;
    use crate::Scale;

    #[test]
    fn collector_reports_missing_slots() {
        let mut c = Collector::new(2);
        assert_eq!(c.filled(), 0);
        let scale = Scale {
            footprint: 1.0 / 256.0,
            trace_warmup: 0,
            trace_measured: 100,
            sim_warmup: 0,
            sim_measured: 10,
            sim_runs: 1,
        };
        let mut plan = ExperimentPlan::new("t", &["c"], &scale);
        plan.push(Cell::Verify {
            nodes: 2,
            bug: None,
        });
        plan.push(Cell::Verify {
            nodes: 3,
            bug: None,
        });
        // Drive one cell through a real session, leaving slot coverage
        // partial on purpose.
        let session = SweepSession::new(&plan);
        session.run(&mut [&mut c]).expect("in-memory session");
        assert_eq!(c.filled(), 2);
        assert!(c.into_outputs().is_ok());
        match Collector::new(3).into_outputs() {
            Err(missing) => assert_eq!(missing, 3),
            Ok(outputs) => panic!("empty collector produced {} outputs", outputs.len()),
        }
    }
}
