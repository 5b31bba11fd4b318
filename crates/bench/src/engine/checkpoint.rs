//! Checkpoint journals: durable JSONL records of completed cells.
//!
//! A journal is one JSON object per line, written through the shared
//! [`JsonlWriter`] framing. The first line is a header identifying the
//! plan (title, cell count, seed, and the full scale parameters) so a
//! journal can never silently resume or merge against a different
//! experiment or run size. Every following line is one completed cell:
//! its [`CellId`] plus its serialized [`CellOutput`]. Records are
//! flushed line-by-line as cells finish, so a crash loses at most the
//! cell in flight — a torn final line is expected and tolerated on
//! read.
//!
//! The same file format serves two roles:
//!
//! * **checkpoint** — `--resume` replays the journaled outputs and
//!   executes only the missing cells;
//! * **merge** — [`merge_journals`] folds any set of journals covering
//!   a plan (whole-plan sessions, or sessions over explicit `CellId`
//!   sets) back into plan-ordered outputs and renders the table, which
//!   is byte-identical to a serial in-memory run (cell outputs are
//!   deterministic and the JSON layer round-trips them exactly). Record
//!   order is completion order and does not matter.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use dsp_analysis::TextTable;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use super::session::SessionError;
use super::{manifest_digest, CellId, CellOutput, CellRecord, CellSink, ExperimentPlan};

/// Appends flushed single-line JSON values after a header line — the
/// crash-tolerant framing shared by checkpoint journals and the fleet
/// coordinator's write-ahead log. [`read_jsonl`] reads it back.
#[derive(Debug)]
pub struct JsonlWriter {
    file: BufWriter<File>,
}

impl JsonlWriter {
    /// Creates (truncating) `path` and writes `header` as its first
    /// line.
    ///
    /// # Errors
    ///
    /// Filesystem or serialization failure.
    pub fn create(path: &Path, header: &impl Serialize) -> io::Result<Self> {
        let mut writer = JsonlWriter {
            file: BufWriter::new(File::create(path)?),
        };
        writer.append(header)?;
        Ok(writer)
    }

    /// Reopens an existing file for appending, first cutting it back to
    /// `valid_bytes` ([`JsonlFile::valid_bytes`]) so a torn crash
    /// remnant can never fuse with the first appended line.
    ///
    /// # Errors
    ///
    /// Filesystem failure opening or truncating the file.
    pub fn append_to(path: &Path, valid_bytes: u64) -> io::Result<Self> {
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(valid_bytes)?;
        Ok(JsonlWriter {
            file: BufWriter::new(OpenOptions::new().append(true).open(path)?),
        })
    }

    /// Appends one value as a line, flushed before returning: a crash
    /// loses at most the line in flight.
    ///
    /// # Errors
    ///
    /// Serialization or write failure.
    pub fn append(&mut self, value: &impl Serialize) -> io::Result<()> {
        let line =
            serde_json::to_string(value).map_err(|e| invalid(format!("cannot encode: {e}")))?;
        debug_assert!(!line.contains('\n'), "JSONL lines must be single-line");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }
}

/// The durable prefix of a [`JsonlWriter`] file: its header and the
/// record lines after it.
#[derive(Debug)]
pub struct JsonlFile<H> {
    /// The first line, parsed.
    pub header: H,
    /// Every newline-terminated line after the header.
    body: String,
    /// Byte offset just past the last newline-terminated line;
    /// [`JsonlWriter::append_to`] truncates here.
    pub valid_bytes: u64,
}

impl<H> JsonlFile<H> {
    /// Parses every record line as `R`, in file order.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] naming the first malformed line.
    pub fn records<R: DeserializeOwned>(&self) -> io::Result<Vec<R>> {
        self.body
            .lines()
            .enumerate()
            .map(|(pos, line)| {
                serde_json::from_str(line)
                    .map_err(|e| invalid(format!("malformed record at line {}: {e}", pos + 2)))
            })
            .collect()
    }
}

/// Reads a [`JsonlWriter`] file and parses its header.
///
/// Only newline-*terminated* lines count: the writer terminates and
/// flushes every line, so an unterminated final line is exactly the
/// remnant of a crash mid-write and is skipped (even if it happens to
/// parse — an unterminated line was never known durable).
///
/// # Errors
///
/// I/O failure, or [`io::ErrorKind::InvalidData`] for a missing or
/// malformed header.
pub fn read_jsonl<H: DeserializeOwned>(path: &Path) -> io::Result<JsonlFile<H>> {
    let mut text = std::fs::read_to_string(path)?;
    text.truncate(text.rfind('\n').map_or(0, |end| end + 1));
    let valid_bytes = text.len() as u64;
    let Some((header_line, _)) = text.split_once('\n') else {
        return Err(invalid("empty or headerless file".to_string()));
    };
    let header =
        serde_json::from_str(header_line).map_err(|e| invalid(format!("malformed header: {e}")))?;
    let body = text.split_off(header_line.len() + 1);
    Ok(JsonlFile {
        header,
        body,
        valid_bytes,
    })
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

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

/// A framing failure is a bad journal; anything else is I/O.
fn journal_error(path: &Path, error: io::Error) -> SessionError {
    match error.kind() {
        io::ErrorKind::InvalidData => SessionError::Journal {
            path: path.to_path_buf(),
            message: error.to_string(),
        },
        _ => SessionError::io(path, error),
    }
}

/// Appends completed cells to a journal file, one flushed JSON line per
/// cell. Implements [`CellSink`], so a session streams into it like any
/// other consumer; records replayed *from* a journal are skipped (they
/// are already on disk).
#[derive(Debug)]
pub(crate) struct JournalWriter {
    path: PathBuf,
    lines: JsonlWriter,
    /// First write/serialization failure; surfaced by `finish`.
    error: Option<SessionError>,
}

impl JournalWriter {
    /// Creates (truncating) `path` and writes the header line of a
    /// journal for a session restricted to `cells` (`None` = the whole
    /// plan).
    pub(crate) fn create(
        path: &Path,
        plan: &ExperimentPlan,
        cells: Option<&[CellId]>,
    ) -> Result<Self, SessionError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| SessionError::io(path, e))?;
        }
        let header = JournalHeader::for_plan(plan, cells);
        Ok(JournalWriter {
            path: path.to_path_buf(),
            lines: JsonlWriter::create(path, &header).map_err(|e| SessionError::io(path, e))?,
            error: None,
        })
    }

    /// Opens an existing journal for appending (resume) at
    /// `valid_bytes`, as [`JsonlWriter::append_to`] does. The header is
    /// assumed to have been validated by the reader.
    pub(crate) fn append_to(path: &Path, valid_bytes: u64) -> Result<Self, SessionError> {
        Ok(JournalWriter {
            path: path.to_path_buf(),
            lines: JsonlWriter::append_to(path, valid_bytes)
                .map_err(|e| SessionError::io(path, e))?,
            error: None,
        })
    }

    /// The first error any [`CellSink`] delivery hit, ending the
    /// writer's useful life.
    pub(crate) fn finish(self) -> Result<(), SessionError> {
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
        let line = JournalRecord {
            cell: record.id.to_hex(),
            index: record.index,
            output: record.output.clone(),
        };
        if let Err(e) = self.lines.append(&line) {
            self.error = Some(SessionError::io(&self.path, e));
        }
    }
}

/// All completed cells read from one journal, in file order.
#[derive(Debug)]
pub(crate) struct JournalContents {
    pub records: DurableCells,
    /// Byte offset just past the last intact line; a resumed writer
    /// truncates the file here.
    pub valid_bytes: u64,
    /// The coverage the journal's writer ran under. Merging accepts
    /// any journal; *resuming* must cover the same cells, or the file
    /// would silently mix two coverage patterns.
    pub shard: String,
}

/// Reads and validates a journal against `plan`, whose cell ids are
/// `ids`. A torn final line is skipped ([`read_jsonl`]); a malformed
/// terminated line, an unknown cell id, or a header mismatch is
/// corruption and errors out.
pub(crate) fn read_journal(
    path: &Path,
    plan: &ExperimentPlan,
    ids: &[CellId],
) -> Result<JournalContents, SessionError> {
    let file = read_jsonl::<JournalHeader>(path).map_err(|e| journal_error(path, e))?;
    file.header.validate(plan, path)?;
    let known: HashMap<CellId, usize> = ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let bad = |message: String| SessionError::Journal {
        path: path.to_path_buf(),
        message,
    };
    let mut records = Vec::new();
    let lines: Vec<JournalRecord> = file.records().map_err(|e| journal_error(path, e))?;
    for (line, record) in (2..).zip(lines) {
        let id = CellId::from_hex(&record.cell)
            .ok_or_else(|| bad(format!("bad cell id {:?} at line {line}", record.cell)))?;
        let &index = known.get(&id).ok_or_else(|| {
            bad(format!(
                "cell {id} at line {line} is not in this plan (journal from another experiment \
                 or scale?)"
            ))
        })?;
        records.push((id, index, record.output));
    }
    Ok(JournalContents {
        records,
        valid_bytes: file.valid_bytes,
        shard: file.header.shard,
    })
}

/// Folds journals back into one table: reads each of `paths`, then
/// [`fold_cells`].
///
/// Plan identity (title, cell count, seed, and the exact scale bits) is
/// verified against *every* input journal — and since each header must
/// equal the plan's, all journals are transitively verified against
/// each other; a journal from a different experiment or run size fails
/// the merge instead of silently folding into it.
pub fn merge_journals(plan: &ExperimentPlan, paths: &[PathBuf]) -> Result<TextTable, SessionError> {
    let ids = CellId::assign(&plan.cells);
    let sources = paths
        .iter()
        .map(|path| Ok((path.clone(), read_journal(path, plan, &ids)?.records)))
        .collect::<Result<Vec<_>, SessionError>>()?;
    fold_cells(plan, sources)
}

/// Folds durable cell records from several sources — each named by its
/// file, for errors — into `plan`'s table.
///
/// Cells may repeat across sources (e.g. a resumed journal re-merged
/// with its pre-crash copy): outputs are deterministic, so repeats
/// must carry byte-identical serialized data — a conflicting repeat
/// means the sources came from incompatible runs and fails the fold.
/// The rendered table is byte-identical to running the plan serially in
/// memory.
///
/// # Errors
///
/// [`SessionError::Journal`] for a conflicting repeat,
/// [`SessionError::Incomplete`] when some cell has no record.
pub fn fold_cells(
    plan: &ExperimentPlan,
    sources: Vec<(PathBuf, DurableCells)>,
) -> Result<TextTable, SessionError> {
    let (paths, sources): (Vec<PathBuf>, Vec<DurableCells>) = sources.into_iter().unzip();
    let mut outputs: Vec<Option<(CellOutput, String, usize)>> =
        (0..plan.cells.len()).map(|_| None).collect();
    for (source, records) in sources.into_iter().enumerate() {
        let path = &paths[source];
        for (id, index, output) in records {
            let rendered = serde_json::to_string(&output).map_err(|e| SessionError::Journal {
                path: path.clone(),
                message: format!("cannot re-serialize cell {id}: {e}"),
            })?;
            match &outputs[index] {
                Some((_, have, from)) if *have != rendered => {
                    return Err(SessionError::Journal {
                        path: path.clone(),
                        message: format!(
                            "cell {id} conflicts with {}: the two files carry different \
                             outputs for the same cell — they come from incompatible runs \
                             (code versions?) and must not be folded together",
                            paths[*from].display()
                        ),
                    });
                }
                Some(_) => {}
                None => outputs[index] = Some((output, rendered, source)),
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

/// Durable cell records read from a journal (or the fleet's WAL):
/// `(id, plan index, output)` per cell, in file order.
pub type DurableCells = Vec<(CellId, usize, CellOutput)>;

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
