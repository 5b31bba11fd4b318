//! Checkpoint journals: durable JSONL records of completed cells.
//!
//! A journal is one JSON object per line. The first line is a
//! [`JournalHeader`] identifying the plan (title, cell count, seed, and
//! the full scale parameters) so a journal can never silently resume or
//! merge against a different experiment or run size. Every following
//! line is a [`JournalRecord`]: the cell's [`CellId`] plus its
//! serialized [`CellOutput`]. Records are flushed line-by-line as cells
//! finish, so a crash loses at most the cell in flight — a torn final
//! line is expected and tolerated on read.
//!
//! The same file format serves three roles:
//!
//! * **checkpoint** — `--resume` replays the journaled outputs and
//!   executes only the missing cells;
//! * **lease output** — a fleet worker's journal carries the cells of
//!   one lease (an explicit `CellId` set); record order is completion
//!   order and does not matter, because
//! * **merge** — [`merge_journals`] folds any set of journals covering
//!   a plan back into plan-ordered outputs and renders the table, which
//!   is byte-identical to a serial in-memory run (cell outputs are
//!   deterministic and the JSON layer round-trips them exactly).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use dsp_analysis::TextTable;
use serde::{Deserialize, Serialize};

use super::session::SessionError;
use super::{manifest_digest, CellId, CellOutput, CellRecord, CellSink, ExperimentPlan};

/// Magic string identifying the journal format (and its version).
const MAGIC: &str = "dsp-sweep-journal-v1";

/// First line of every journal: the plan identity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct JournalHeader {
    journal: String,
    plan: String,
    cells: usize,
    seed: u64,
    scale: String,
    /// The writer's coverage, see [`coverage`].
    shard: String,
}

/// A session's coverage as its journal header records it: `all`, or
/// `cells:<len>:<digest>` for an explicit (sorted, deduplicated) cell
/// set, so equal sets render equally.
pub(crate) fn coverage(cells: Option<&[CellId]>) -> String {
    match cells {
        None => "all".to_string(),
        Some(ids) => format!("cells:{}:{:016x}", ids.len(), manifest_digest(ids)),
    }
}

impl JournalHeader {
    fn for_plan(plan: &ExperimentPlan, cells: Option<&[CellId]>) -> Self {
        JournalHeader {
            journal: MAGIC.to_string(),
            plan: plan.title.clone(),
            cells: plan.cells.len(),
            seed: plan.seed,
            // Exact footprint bits: two scales that differ in any run
            // parameter produce incompatible journals.
            scale: plan.scale.identity(),
            shard: coverage(cells),
        }
    }

    fn validate(&self, plan: &ExperimentPlan, path: &Path) -> Result<(), SessionError> {
        let expect = JournalHeader::for_plan(plan, None);
        let mismatch = |what: &str, got: &str, want: &str| {
            Err(SessionError::Journal {
                path: path.to_path_buf(),
                message: format!("{what} mismatch: journal has {got:?}, plan has {want:?}"),
            })
        };
        if self.journal != expect.journal {
            return mismatch("format", &self.journal, &expect.journal);
        }
        if self.plan != expect.plan {
            return mismatch("plan title", &self.plan, &expect.plan);
        }
        if self.cells != expect.cells {
            return mismatch(
                "cell count",
                &self.cells.to_string(),
                &expect.cells.to_string(),
            );
        }
        if self.seed != expect.seed {
            return mismatch("seed", &self.seed.to_string(), &expect.seed.to_string());
        }
        if self.scale != expect.scale {
            return mismatch("scale", &self.scale, &expect.scale);
        }
        Ok(())
    }
}

/// One completed cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct JournalRecord {
    cell: String,
    index: usize,
    output: CellOutput,
}

/// Appends completed cells to a journal file, one flushed JSON line per
/// cell. Implements [`CellSink`], so a session streams into it like any
/// other consumer; records replayed *from* a journal are skipped (they
/// are already on disk).
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    /// First write/serialization failure; surfaced by `finish`.
    error: Option<SessionError>,
}

impl JournalWriter {
    /// Creates (truncating) `path` and writes the header line of a
    /// journal covering the whole plan.
    pub fn create(path: &Path, plan: &ExperimentPlan) -> Result<Self, SessionError> {
        JournalWriter::create_covering(path, plan, None)
    }

    /// [`create`](JournalWriter::create) for a session restricted to
    /// `cells` (`None` = the whole plan).
    pub(crate) fn create_covering(
        path: &Path,
        plan: &ExperimentPlan,
        cells: Option<&[CellId]>,
    ) -> Result<Self, SessionError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| SessionError::io(path, e))?;
        }
        let file = File::create(path).map_err(|e| SessionError::io(path, e))?;
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            error: None,
        };
        let header = JournalHeader::for_plan(plan, cells);
        writer.write_line(&serde_json::to_string(&header).expect("header serializes"))?;
        Ok(writer)
    }

    /// Opens an existing journal for appending (resume), first cutting
    /// it back to `valid_bytes` — the end of its last intact line as
    /// reported by the reader — so a torn crash remnant can never fuse
    /// with the first appended record. The header is assumed to have
    /// been validated by the reader.
    pub fn append_to(path: &Path, valid_bytes: u64) -> Result<Self, SessionError> {
        let truncate = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| SessionError::io(path, e))?;
        truncate
            .set_len(valid_bytes)
            .map_err(|e| SessionError::io(path, e))?;
        drop(truncate);
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| SessionError::io(path, e))?;
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
            error: None,
        })
    }

    fn write_line(&mut self, line: &str) -> Result<(), SessionError> {
        debug_assert!(!line.contains('\n'), "journal lines must be single-line");
        let io = |e| SessionError::io(&self.path, e);
        self.file.write_all(line.as_bytes()).map_err(io)?;
        self.file.write_all(b"\n").map_err(io)?;
        // One cell, one durable line: a crash loses at most the cell in
        // flight.
        self.file.flush().map_err(io)
    }

    /// Appends one completed cell.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), SessionError> {
        let line = serde_json::to_string(&JournalRecord {
            cell: record.id.to_hex(),
            index: record.index,
            output: record.output.clone(),
        })
        .map_err(|e| SessionError::Journal {
            path: self.path.clone(),
            message: format!("cannot serialize cell {}: {e}", record.id),
        })?;
        self.write_line(&line)
    }

    /// The first error any [`CellSink`] delivery hit, ending the
    /// writer's useful life.
    pub fn finish(self) -> Result<(), SessionError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl CellSink for JournalWriter {
    fn on_cell(&mut self, _plan: &ExperimentPlan, record: &CellRecord) {
        if record.replayed || self.error.is_some() {
            return;
        }
        if let Err(e) = self.append(record) {
            self.error = Some(e);
        }
    }
}

/// All completed cells read from one journal, in file order.
#[derive(Debug)]
pub(crate) struct JournalContents {
    pub records: Vec<(CellId, usize, CellOutput)>,
    /// Byte offset just past the last intact line (every intact line
    /// ends in `\n`); a resumed writer truncates the file here so a
    /// torn crash remnant never fuses with the next appended record.
    pub valid_bytes: u64,
    /// The coverage the journal's writer ran under. Merging accepts
    /// any journal; *resuming* must cover the same cells, or the file
    /// would silently mix two coverage patterns.
    pub shard: String,
}

/// Reads and validates a journal against `plan`, whose cell ids are
/// `ids`.
///
/// Only newline-*terminated* lines count: the writer terminates and
/// flushes every line, so an unterminated final line is exactly the
/// remnant of a crash mid-write and is skipped (even if it happens to
/// parse — an unterminated record was never known durable). A malformed
/// *terminated* line, an unknown cell id, or a header mismatch is
/// corruption and errors out.
pub(crate) fn read_journal(
    path: &Path,
    plan: &ExperimentPlan,
    ids: &[CellId],
) -> Result<JournalContents, SessionError> {
    let text = std::fs::read_to_string(path).map_err(|e| SessionError::io(path, e))?;
    let lines: Vec<&str> = text.lines().collect();
    let complete = if text.ends_with('\n') {
        lines.len()
    } else {
        lines.len().saturating_sub(1)
    };
    let Some(header_line) = lines.first().filter(|_| complete > 0) else {
        return Err(SessionError::Journal {
            path: path.to_path_buf(),
            message: "empty or headerless journal".to_string(),
        });
    };
    let header: JournalHeader =
        serde_json::from_str(header_line).map_err(|e| SessionError::Journal {
            path: path.to_path_buf(),
            message: format!("malformed header: {e}"),
        })?;
    header.validate(plan, path)?;
    let known: HashMap<CellId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut records = Vec::new();
    let mut valid_bytes = (header_line.len() + 1) as u64;
    for (pos, line) in lines.iter().enumerate().take(complete).skip(1) {
        let record: JournalRecord =
            serde_json::from_str(line).map_err(|e| SessionError::Journal {
                path: path.to_path_buf(),
                message: format!("malformed record at line {}: {e}", pos + 1),
            })?;
        let Some(id) = CellId::from_hex(&record.cell) else {
            return Err(SessionError::Journal {
                path: path.to_path_buf(),
                message: format!("bad cell id {:?} at line {}", record.cell, pos + 1),
            });
        };
        let Some(&index) = known.get(&id) else {
            return Err(SessionError::Journal {
                path: path.to_path_buf(),
                message: format!(
                    "cell {id} at line {} is not in this plan (journal from another \
                     experiment or scale?)",
                    pos + 1
                ),
            });
        };
        records.push((id, index, record.output));
        valid_bytes += (line.len() + 1) as u64;
    }
    Ok(JournalContents {
        records,
        valid_bytes,
        shard: header.shard,
    })
}

/// Folds journals back into one table.
///
/// Plan identity (title, cell count, seed, and the exact scale bits) is
/// verified against *every* input journal — and since each header must
/// equal the plan's, all journals are transitively verified against
/// each other; a journal from a different experiment or run size fails
/// the merge instead of silently folding into it. Cells may repeat
/// across journals (e.g. a resumed journal re-merged with its pre-crash
/// copy, or a lease completed by a worker presumed dead *and* by
/// its stealer): outputs are deterministic, so repeats must carry
/// byte-identical serialized data — a conflicting repeat means the
/// journals came from incompatible runs and also fails the merge. The
/// rendered table is byte-identical to running the plan serially in
/// memory.
pub fn merge_journals(plan: &ExperimentPlan, paths: &[PathBuf]) -> Result<TextTable, SessionError> {
    let ids = CellId::assign(&plan.cells);
    let mut outputs: Vec<Option<(CellOutput, String, usize)>> =
        (0..plan.cells.len()).map(|_| None).collect();
    for (journal_idx, path) in paths.iter().enumerate() {
        let contents = read_journal(path, plan, &ids)?;
        for (id, index, output) in contents.records {
            let rendered = serde_json::to_string(&output).map_err(|e| SessionError::Journal {
                path: path.clone(),
                message: format!("cannot re-serialize cell {id}: {e}"),
            })?;
            match &outputs[index] {
                Some((_, have, from)) if *have != rendered => {
                    return Err(SessionError::Journal {
                        path: path.clone(),
                        message: format!(
                            "cell {id} conflicts with {}: the two journals carry different \
                             outputs for the same cell — they come from incompatible runs \
                             (code versions?) and must not be folded together",
                            paths[*from].display()
                        ),
                    });
                }
                Some(_) => {}
                None => outputs[index] = Some((output, rendered, journal_idx)),
            }
        }
    }
    let missing = outputs.iter().filter(|o| o.is_none()).count();
    if missing > 0 {
        return Err(SessionError::Incomplete {
            missing,
            total: plan.cells.len(),
        });
    }
    let outputs: Vec<CellOutput> = outputs.into_iter().map(|o| o.expect("checked").0).collect();
    Ok(plan.render_outputs(&outputs))
}

/// Reads every completed cell from one journal, validated against
/// `plan` — the coordinator's harvest path: when a worker's lease
/// expires, the cells it durably journaled before dying are recovered
/// here and only the rest are re-leased.
///
/// # Errors
///
/// Everything [`read_journal`] rejects: I/O failure, a header that does
/// not match the plan, or a corrupt terminated record. A torn final
/// line (crash mid-write) is tolerated and skipped.
pub fn harvest_journal(plan: &ExperimentPlan, path: &Path) -> Result<HarvestedCells, SessionError> {
    let ids = CellId::assign(&plan.cells);
    read_journal(path, plan, &ids).map(|contents| contents.records)
}

/// Durable cell records recovered from a journal: `(id, plan index,
/// output)` per cell, in journal order.
pub type HarvestedCells = Vec<(CellId, usize, CellOutput)>;

/// Like [`harvest_journal`], but also returns the intact byte length,
/// for callers that will both re-adopt the durable records *and* reopen
/// the file for appending — the fleet coordinator's crash recovery does
/// this with its master journal: `scan_journal`, then
/// [`JournalWriter::append_to`]`(path, valid_bytes)` resumes exactly
/// where the durable prefix ends.
///
/// # Errors
///
/// Same as [`harvest_journal`]: I/O failure, a header from a different
/// plan, or a corrupt terminated record.
pub fn scan_journal(
    plan: &ExperimentPlan,
    path: &Path,
) -> Result<(HarvestedCells, u64), SessionError> {
    let ids = CellId::assign(&plan.cells);
    read_journal(path, plan, &ids).map(|contents| (contents.records, contents.valid_bytes))
}

/// A cheap liveness probe of a (possibly live) journal file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalTail {
    /// File size in bytes (torn tail included).
    pub bytes: u64,
    /// Newline-terminated lines — the header plus one per durable cell.
    pub lines: usize,
}

impl JournalTail {
    /// Completed cell records (lines minus the header).
    pub fn records(&self) -> usize {
        self.lines.saturating_sub(1)
    }
}

/// Probes a journal for liveness without validating or deserializing
/// it: the coordinator tails every active lease's journal and treats
/// growth (more bytes or more terminated lines) as a heartbeat, so a
/// worker that is making durable progress is never expired just because
/// its network messages are delayed.
///
/// # Errors
///
/// Propagates filesystem errors; a journal that does not exist yet is
/// an error the caller treats as "no progress observed".
pub fn tail_journal(path: &Path) -> std::io::Result<JournalTail> {
    let text = std::fs::read(path)?;
    Ok(JournalTail {
        bytes: text.len() as u64,
        lines: text.iter().filter(|&&b| b == b'\n').count(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::{Cell, SweepSession};
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
        let mut plan = ExperimentPlan::new("ckpt-test", &["workload", "msgs"], scale);
        for workload in [Workload::Oltp, Workload::BarnesHut] {
            plan.push(Cell::Tradeoff {
                config,
                workload,
                predictor: PredictorConfig::owner(),
            });
        }
        plan.render(|cells, outputs, table| {
            for (cell, output) in cells.iter().zip(outputs) {
                table.row([
                    cell.workload().expect("trace cell").name().to_string(),
                    output.tradeoff().request_messages.to_string(),
                ]);
            }
        })
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsp-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn journal_round_trips_and_merges() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("roundtrip");
        let path = dir.join("full.jsonl");
        let session = SweepSession::new(&plan).checkpoint(&path);
        let report = session.run(&mut []).expect("session");
        assert_eq!(report.executed, 2);
        let merged = merge_journals(&plan, &[path]).expect("merge");
        let direct = SweepSession::new(&plan).run_table().expect("direct");
        assert_eq!(merged.to_csv(), direct.to_csv());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("torn");
        let path = dir.join("torn.jsonl");
        SweepSession::new(&plan)
            .checkpoint(&path)
            .run(&mut [])
            .expect("session");
        // Simulate a crash mid-write: chop the last record in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - text.len() / 4;
        std::fs::write(&path, &text[..cut]).expect("write");
        let ids = CellId::assign(&plan.cells);
        let contents = read_journal(&path, &plan, &ids).expect("torn line tolerated");
        assert_eq!(contents.records.len(), 1, "only the intact record");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mismatched_plan_is_rejected() {
        let scale = tiny();
        let plan_a = plan(&scale);
        let dir = tmp("mismatch");
        let path = dir.join("a.jsonl");
        SweepSession::new(&plan_a)
            .checkpoint(&path)
            .run(&mut [])
            .expect("session");
        // Different scale -> scale mismatch.
        let bigger = Scale {
            trace_measured: 600,
            ..scale
        };
        let err = merge_journals(&plan(&bigger), std::slice::from_ref(&path)).unwrap_err();
        assert!(err.to_string().contains("scale mismatch"), "{err}");
        // Different title -> plan mismatch.
        let mut renamed = plan(&scale);
        renamed.title = "other".to_string();
        let err = merge_journals(&renamed, &[path]).unwrap_err();
        assert!(err.to_string().contains("plan title mismatch"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn merge_rejects_conflicting_duplicates() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("conflict");
        let a = dir.join("a.jsonl");
        SweepSession::new(&plan)
            .checkpoint(&a)
            .run(&mut [])
            .expect("session");
        // Forge a second journal whose first cell carries the *second*
        // cell's output: same plan identity, same cell id, different
        // data — the shape of a stale journal from an older code
        // version.
        let text = std::fs::read_to_string(&a).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        let r1: JournalRecord = serde_json::from_str(lines[1]).expect("rec1");
        let r2: JournalRecord = serde_json::from_str(lines[2]).expect("rec2");
        assert_ne!(
            serde_json::to_string(&r1.output).unwrap(),
            serde_json::to_string(&r2.output).unwrap(),
            "test needs two cells with distinct outputs"
        );
        let forged = JournalRecord {
            cell: r1.cell.clone(),
            index: r1.index,
            output: r2.output.clone(),
        };
        let b = dir.join("b.jsonl");
        std::fs::write(
            &b,
            format!(
                "{}\n{}\n",
                lines[0],
                serde_json::to_string(&forged).expect("forged")
            ),
        )
        .expect("write");
        let err = merge_journals(&plan, &[a.clone(), b]).unwrap_err();
        assert!(err.to_string().contains("conflicts with"), "{err}");
        // Identical duplicates stay mergeable: the same journal twice
        // is a complete, conflict-free input set.
        merge_journals(&plan, &[a.clone(), a]).expect("identical duplicates merge");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn harvest_and_tail_observe_journal_progress() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("harvest");
        let path = dir.join("j.jsonl");
        assert!(tail_journal(&path).is_err(), "no journal yet");
        SweepSession::new(&plan)
            .checkpoint(&path)
            .run(&mut [])
            .expect("session");
        let tail = tail_journal(&path).expect("tail");
        assert_eq!(tail.lines, 3, "header + 2 cells");
        assert_eq!(tail.records(), 2);
        let harvested = harvest_journal(&plan, &path).expect("harvest");
        assert_eq!(harvested.len(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn merge_reports_missing_cells() {
        let scale = tiny();
        let plan = plan(&scale);
        let dir = tmp("missing");
        let path = dir.join("half.jsonl");
        // A one-cell session journals only its own cell.
        let ids = CellId::assign(&plan.cells);
        SweepSession::new(&plan)
            .cells(vec![ids[0]])
            .checkpoint(&path)
            .run(&mut [])
            .expect("session");
        match merge_journals(&plan, &[path]) {
            Err(SessionError::Incomplete { missing, total }) => {
                assert_eq!(total, 2);
                assert_eq!(missing, 1);
            }
            other => panic!("expected incomplete merge, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
