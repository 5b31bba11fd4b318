//! One plan (or an explicit subset of its cells), executed as a
//! streaming, resumable session.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dsp_analysis::TextTable;

use super::checkpoint::{coverage, read_journal, JournalWriter};
use super::{
    execute_cell, parallel_map, CellId, CellOutput, CellRecord, CellSink, Collector,
    ExperimentPlan, PartitionStore, TraceKey, TraceStore,
};

/// Failures a session (or a merge) can hit. Pure in-memory sessions —
/// no checkpoint configured — cannot fail.
#[derive(Debug)]
pub enum SessionError {
    /// Filesystem failure on a journal file.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A journal file exists but does not belong to this plan (or is
    /// corrupt beyond the tolerated torn final line).
    Journal {
        /// The journal path.
        path: PathBuf,
        /// What went wrong.
        message: String,
    },
    /// Outputs do not cover the plan (merging journals that miss some
    /// cells, or collecting from a session restricted to a cell subset).
    Incomplete {
        /// Cells with no output.
        missing: usize,
        /// Cells in the plan.
        total: usize,
    },
}

impl SessionError {
    pub(crate) fn io(path: &Path, error: std::io::Error) -> Self {
        SessionError::Io {
            path: path.to_path_buf(),
            error,
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io { path, error } => {
                write!(f, "journal i/o failed on {}: {error}", path.display())
            }
            SessionError::Journal { path, message } => {
                write!(f, "bad journal {}: {message}", path.display())
            }
            SessionError::Incomplete { missing, total } => write!(
                f,
                "outputs cover only {}/{total} cells ({missing} missing — merge the journals \
                 of every lease, or run the whole plan)",
                total - missing
            ),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// What a finished session did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionReport {
    /// Cells in the plan.
    pub cells: usize,
    /// Cells this session covers.
    pub owned: usize,
    /// Owned cells replayed from the checkpoint journal.
    pub replayed: usize,
    /// Owned cells executed in this session.
    pub executed: usize,
}

/// A configured execution of an [`ExperimentPlan`], or of an explicit
/// subset of its cells.
///
/// The session owns the run policy — cell coverage, worker count,
/// trace/partition caches, checkpoint journal — while the plan stays a
/// pure description. Finished cells stream through the caller's
/// [`CellSink`]s as they complete; nothing is buffered beyond what the
/// sinks themselves keep.
///
/// ```
/// use dsp_bench::engine::{merge_journals, CellId, SweepSession};
/// use dsp_bench::{experiments, Scale};
///
/// let scale = Scale::quick();
/// let plan = experiments::table2_plan(&scale);
/// let dir = std::env::temp_dir().join("dsp-session-doc");
/// let ids = CellId::assign(&plan.cells);
/// let (first, second) = ids.split_at(ids.len() / 2);
/// // Two explicit cell sets (normally two fleet leases on two
/// // workers), each journaled, then a merge.
/// let mut journals = Vec::new();
/// for (i, lease) in [first, second].into_iter().enumerate() {
///     let path = dir.join(format!("lease{i}.jsonl"));
///     SweepSession::new(&plan)
///         .cells(lease.to_vec())
///         .checkpoint(&path)
///         .run(&mut [])?;
///     journals.push(path);
/// }
/// let merged = merge_journals(&plan, &journals)?;
/// let serial = SweepSession::new(&plan).run_table()?;
/// assert_eq!(merged.to_csv(), serial.to_csv());
/// # std::fs::remove_dir_all(dir).ok();
/// # Ok::<(), dsp_bench::engine::SessionError>(())
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
    checkpoint: Option<PathBuf>,
    resume: bool,
}

impl<'p> SweepSession<'p> {
    /// A serial, full-coverage, in-memory session over `plan`.
    pub fn new(plan: &'p ExperimentPlan) -> Self {
        SweepSession {
            plan,
            cells: None,
            threads: 1,
            store: Arc::new(TraceStore::default()),
            partitions: Arc::new(PartitionStore::default()),
            checkpoint: None,
            resume: false,
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

    /// Journals every completed cell to `path` (JSONL, flushed per
    /// cell). Without [`resume`](SweepSession::resume) an existing file
    /// is overwritten.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// On [`run`](SweepSession::run), replay cells already present in
    /// the checkpoint journal instead of re-executing them, and append
    /// only the missing ones. A no-op when the journal does not exist
    /// yet.
    #[must_use]
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Executes the session, streaming each finished cell through every
    /// sink: journaled cells are replayed first (in plan order, marked
    /// `replayed`), then missing cells execute on the worker pool and
    /// arrive in completion order.
    ///
    /// # Errors
    ///
    /// Only checkpoint I/O can fail: reading a resume journal that is
    /// corrupt or belongs to another plan, or writing the journal.
    pub fn run(&self, sinks: &mut [&mut dyn CellSink]) -> Result<SessionReport, SessionError> {
        let ids = CellId::assign(&self.plan.cells);
        let owned: Vec<usize> = (0..ids.len())
            .filter(|&i| {
                self.cells
                    .as_ref()
                    .is_none_or(|cells| cells.binary_search(&ids[i]).is_ok())
            })
            .collect();
        let coverage = coverage(self.cells.as_deref());

        // Resume: load the journal's completed cells (last write wins;
        // outputs are deterministic so duplicates carry identical data)
        // and remember where its last intact line ends.
        let mut completed: HashMap<CellId, CellOutput> = HashMap::new();
        let mut journal_valid_bytes = 0u64;
        let resuming = self.resume && self.checkpoint.as_deref().is_some_and(|p| p.exists());
        if resuming {
            let path = self.checkpoint.as_deref().expect("checked");
            let contents = read_journal(path, self.plan, &ids)?;
            if contents.shard != coverage {
                return Err(SessionError::Journal {
                    path: path.to_path_buf(),
                    message: format!(
                        "shard mismatch: journal covers {}, resuming a session covering {} \
                         would mix two coverage patterns",
                        contents.shard, coverage
                    ),
                });
            }
            journal_valid_bytes = contents.valid_bytes;
            for (id, _, output) in contents.records {
                completed.insert(id, output);
            }
        }

        // The journal is just another sink (it skips replayed records).
        // Resume appends after cutting off any torn crash remnant.
        let mut journal = match &self.checkpoint {
            Some(path) if resuming => Some(JournalWriter::append_to(path, journal_valid_bytes)?),
            Some(path) => Some(JournalWriter::create(
                path,
                self.plan,
                self.cells.as_deref(),
            )?),
            None => None,
        };
        let mut all_sinks: Vec<&mut dyn CellSink> = Vec::with_capacity(sinks.len() + 1);
        if let Some(journal) = journal.as_mut() {
            all_sinks.push(journal);
        }
        for sink in sinks.iter_mut() {
            all_sinks.push(&mut **sink);
        }

        // Replay journaled cells in plan order.
        let mut replayed = 0usize;
        let mut todo: Vec<usize> = Vec::with_capacity(owned.len());
        for &i in &owned {
            match completed.remove(&ids[i]) {
                Some(output) => {
                    let record = CellRecord {
                        id: ids[i],
                        index: i,
                        replayed: true,
                        output,
                    };
                    for sink in all_sinks.iter_mut() {
                        sink.on_cell(self.plan, &record);
                    }
                    replayed += 1;
                }
                None => todo.push(i),
            }
        }

        // Phase 1: materialize each distinct trace the remaining cells
        // need exactly once.
        let mut keys: Vec<TraceKey> = Vec::new();
        for &i in &todo {
            if let Some(key) = self.plan.cells[i].trace_key(self.plan) {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        self.store.ensure(&keys, self.threads);

        // Phase 2: execute in parallel, emitting each cell as it
        // finishes (under one lock so sinks see whole records).
        let emit = Mutex::new(all_sinks);
        let executed = AtomicUsize::new(0);
        parallel_map(&todo, self.threads, |&i| {
            let cell = &self.plan.cells[i];
            let trace = cell
                .trace_key(self.plan)
                .map(|key| self.store.get(&key).expect("trace materialized in phase 1"));
            let output = execute_cell(cell, self.plan, trace, &self.partitions);
            let record = CellRecord {
                id: ids[i],
                index: i,
                replayed: false,
                output,
            };
            let mut sinks = emit.lock().expect("sink lock poisoned");
            for sink in sinks.iter_mut() {
                sink.on_cell(self.plan, &record);
            }
            executed.fetch_add(1, Ordering::Relaxed);
        });
        drop(emit);

        if let Some(journal) = journal {
            journal.finish()?;
        }
        Ok(SessionReport {
            cells: self.plan.cells.len(),
            owned: owned.len(),
            replayed,
            executed: executed.into_inner(),
        })
    }

    /// Runs the session into an in-memory collector and returns the
    /// plan-ordered outputs.
    ///
    /// # Errors
    ///
    /// Everything [`run`](SweepSession::run) can raise, plus
    /// [`SessionError::Incomplete`] when the session covers only part
    /// of the plan (a cell subset) — merge journals instead.
    pub fn run_collect(&self) -> Result<Vec<CellOutput>, SessionError> {
        let mut collector = Collector::new(self.plan.cells.len());
        self.run(&mut [&mut collector])?;
        collector
            .into_outputs()
            .map_err(|missing| SessionError::Incomplete {
                missing,
                total: self.plan.cells.len(),
            })
    }

    /// [`run_collect`](SweepSession::run_collect) plus rendering.
    ///
    /// # Errors
    ///
    /// See [`run_collect`](SweepSession::run_collect).
    pub fn run_table(&self) -> Result<TextTable, SessionError> {
        Ok(self.plan.render_outputs(&self.run_collect()?))
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

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsp-session-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn explicit_cell_set_journals_merge_byte_identical() {
        let scale = tiny();
        let plan = plan(&scale);
        let serial = SweepRunner::serial().run(&plan);
        let ids = CellId::assign(&plan.cells);
        let dir = tmp("leases");
        // Uneven leases (the coordinator's shape) and round-robin
        // splits into 1..=3 groups: every family covers each cell
        // exactly once and its journals merge byte-identical to serial.
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
            let mut seen = vec![0usize; plan.len()];
            let mut paths = Vec::new();
            for (i, lease) in leases.iter().enumerate() {
                let path = dir.join(format!("family{f}-lease{i}.jsonl"));
                let report = SweepSession::new(&plan)
                    .cells(lease.clone())
                    .threads(1 + i % 4)
                    .checkpoint(&path)
                    .run(&mut [])
                    .expect("lease session");
                assert_eq!(report.cells, plan.len());
                assert_eq!(report.owned, lease.len());
                assert_eq!(report.executed, report.owned);
                for (_, index, _) in read_journal(&path, &plan, &ids).expect("read").records {
                    seen[index] += 1;
                }
                paths.push(path);
            }
            assert_eq!(seen, vec![1; plan.len()], "family {f} partitions the plan");
            let merged = super::super::merge_journals(&plan, &paths).expect("merge");
            assert_eq!(merged.to_csv(), serial.to_csv(), "family {f}");
            assert_eq!(merged.to_string(), serial.to_string(), "family {f}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resume_skips_journaled_cells() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("resume");
        let path = dir.join("full.jsonl");
        let first = SweepSession::new(&plan)
            .checkpoint(&path)
            .run(&mut [])
            .expect("first run");
        assert_eq!(first.executed, plan.len());
        // A resumed run replays everything and executes nothing.
        let again = SweepSession::new(&plan)
            .checkpoint(&path)
            .resume(true)
            .run(&mut [])
            .expect("resume");
        assert_eq!(again.executed, 0);
        assert_eq!(again.replayed, plan.len());
        // Resumed outputs render byte-identical to a fresh run.
        let resumed_table = SweepSession::new(&plan)
            .checkpoint(&path)
            .resume(true)
            .run_table()
            .expect("resumed table");
        assert_eq!(
            resumed_table.to_csv(),
            SweepRunner::serial().run(&plan).to_csv()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn crash_then_resume_completes_the_journal() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("crash");
        let path = dir.join("crashed.jsonl");
        SweepSession::new(&plan)
            .checkpoint(&path)
            .run(&mut [])
            .expect("full run");
        // Simulate a crash killed mid-write: keep header + 2 records
        // plus a torn fragment of the third, with no trailing newline.
        let text = std::fs::read_to_string(&path).expect("read");
        let mut keep: Vec<String> = text.lines().take(3).map(str::to_string).collect();
        let torn = text.lines().nth(3).expect("a fourth line");
        keep.push(torn[..torn.len() / 2].to_string());
        std::fs::write(&path, keep.join("\n")).expect("truncate");
        let resumed = SweepSession::new(&plan)
            .checkpoint(&path)
            .resume(true)
            .run(&mut [])
            .expect("resume");
        assert_eq!(resumed.replayed, 2);
        assert_eq!(resumed.executed, plan.len() - 2);
        // The completed journal now merges byte-identical to serial.
        let merged = super::super::merge_journals(&plan, &[path]).expect("merge");
        assert_eq!(merged.to_csv(), SweepRunner::serial().run(&plan).to_csv());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resume_under_a_different_shard_is_rejected() {
        let scale = tiny();
        let plan = plan(&scale);
        let ids = CellId::assign(&plan.cells);
        let dir = tmp("shard-mismatch");
        let path = dir.join("lease.jsonl");
        SweepSession::new(&plan)
            .cells(ids[..3].to_vec())
            .checkpoint(&path)
            .run(&mut [])
            .expect("first lease run");
        let err = SweepSession::new(&plan)
            .cells(ids[..2].to_vec())
            .checkpoint(&path)
            .resume(true)
            .run(&mut [])
            .unwrap_err();
        assert!(err.to_string().contains("shard mismatch"), "{err}");
        std::fs::remove_dir_all(dir).ok();
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

    #[test]
    fn without_resume_the_journal_is_overwritten() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("overwrite");
        let path = dir.join("j.jsonl");
        SweepSession::new(&plan)
            .checkpoint(&path)
            .run(&mut [])
            .expect("first");
        let len_once = std::fs::metadata(&path).expect("meta").len();
        SweepSession::new(&plan)
            .checkpoint(&path)
            .run(&mut [])
            .expect("second");
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            len_once,
            "re-running without --resume starts a fresh journal"
        );
        std::fs::remove_dir_all(dir).ok();
    }
}
