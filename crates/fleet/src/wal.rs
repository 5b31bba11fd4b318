//! The coordinator's write-ahead log and only durable log: every ledger
//! transition, durable before it takes effect on the wire. An accepted
//! cell's [`WalEvent::CellDone`] carries its output, so one append
//! makes both the ledger and the output durable. It is the
//! repository's one durable format: crash safety for any experiment is
//! `repro fleet <exp>` and, after a crash, the same command with
//! `--recover`.
//!
//! `repro fleet --recover` replays the WAL to rebuild a crashed
//! coordinator's lease state machine (same transitions, same lease ids,
//! same churn counters), expires the leases the crash orphaned, and
//! resumes the sweep — with the reconciliation invariant
//! (`granted == completed + stolen`) still spanning both incarnations.
//!
//! The file is line-framed JSON (`JsonlWriter`, `read_jsonl`): a
//! header carrying the full [`PlanIdentity`] (a WAL can never silently
//! recover a different experiment, seed, or scale), then one flushed
//! [`WalEvent`] per transition. A [`WalEvent::Granted`] is logged
//! **before** the `Grant` reply is sent, so no lease exists on the wire
//! that the WAL does not know. A crash tears at most the transition in
//! flight; a torn `CellDone` leaves its cell leased to an orphan, and
//! recovery requeues it to run again.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use dsp_bench::engine::CellOutput;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

use crate::protocol::PlanIdentity;

/// Appends flushed single-line JSON values after a header line — the
/// WAL's crash-tolerant framing. [`read_jsonl`] reads it back.
#[derive(Debug)]
pub(crate) struct JsonlWriter {
    file: BufWriter<File>,
}

impl JsonlWriter {
    /// Creates (truncating) `path` and writes `header` as its first
    /// line.
    fn create(path: &Path, header: &impl Serialize) -> io::Result<Self> {
        let mut writer = JsonlWriter {
            file: BufWriter::new(File::create(path)?),
        };
        writer.append(header)?;
        Ok(writer)
    }

    /// Reopens an existing file for appending, first cutting it back to
    /// `valid_bytes` (where [`read_jsonl`] found the last intact line)
    /// so a torn crash remnant can never fuse with the first appended
    /// line.
    pub(crate) fn append_to(path: &Path, valid_bytes: u64) -> io::Result<Self> {
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
    pub(crate) fn append(&mut self, value: &impl Serialize) -> io::Result<()> {
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
struct JsonlFile<H> {
    header: H,
    /// Every newline-terminated line after the header.
    body: String,
    /// Byte offset just past the last newline-terminated line;
    /// [`JsonlWriter::append_to`] truncates here.
    valid_bytes: u64,
}

impl<H> JsonlFile<H> {
    /// Parses every record line as `R`, in file order; a malformed
    /// line is [`io::ErrorKind::InvalidData`] naming it.
    fn records<R: DeserializeOwned>(&self) -> io::Result<Vec<R>> {
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
/// parse — an unterminated line was never known durable). A missing or
/// malformed header is [`io::ErrorKind::InvalidData`].
fn read_jsonl<H: DeserializeOwned>(path: &Path) -> io::Result<JsonlFile<H>> {
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

/// Magic string identifying the WAL format (and its version).
const MAGIC: &str = "dsp-fleet-wal-v3";

/// First line of every WAL: format magic plus the full plan identity.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WalHeader {
    wal: String,
    identity: PlanIdentity,
}

/// One ledger transition. Cells travel as fixed-width hex (the same
/// rendering the wire protocol and `repro plan` use).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum WalEvent {
    /// A lease was granted (from the pending queue or by stealing a
    /// straggler's tail — replay re-derives which from the cell
    /// states, so the steal policy can evolve without versioning the
    /// WAL).
    Granted {
        /// The lease id.
        lease: u64,
        /// The holding worker.
        worker: String,
        /// The granted cells, in plan order.
        cells: Vec<String>,
    },
    /// A cell completion was accepted under `lease`.
    CellDone {
        /// The accepting lease.
        lease: u64,
        /// The completed cell.
        cell: String,
        /// The cell's plan index.
        index: usize,
        /// The accepted output.
        output: Box<CellOutput>,
    },
    /// A lease retired cleanly (every cell reported).
    LeaseDone {
        /// The retired lease.
        lease: u64,
    },
    /// A lease was expired; its outstanding cells were requeued.
    Expired {
        /// The expired lease.
        lease: u64,
    },
}

/// Creates (truncating) a WAL at `path` for the plan `identity` names.
///
/// # Errors
///
/// Filesystem failure creating or writing the file.
pub(crate) fn create_wal(path: &Path, identity: &PlanIdentity) -> io::Result<JsonlWriter> {
    let header = WalHeader {
        wal: MAGIC.to_string(),
        identity: identity.clone(),
    };
    JsonlWriter::create(path, &header)
}

/// Reads a WAL's intact transitions, in append order, and the byte
/// offset just past the last one (a recovered coordinator truncates
/// there before appending). The header is validated against `identity` before any event
/// is parsed. A malformed *terminated* line, or a header naming another
/// format or plan, is corruption and errors out — recovery must not
/// guess.
///
/// # Errors
///
/// I/O failure, a missing or malformed header, a format or identity
/// mismatch, or a corrupt terminated event line.
pub fn read_wal(path: &Path, identity: &PlanIdentity) -> io::Result<(Vec<WalEvent>, u64)> {
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let bad = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let file = read_jsonl::<WalHeader>(path).map_err(named)?;
    if file.header.wal != MAGIC {
        return Err(bad(format!(
            "{}: not a fleet WAL (format {:?})",
            path.display(),
            file.header.wal
        )));
    }
    if let Some(diff) = identity.mismatch(&file.header.identity) {
        return Err(bad(format!(
            "{}: WAL is from a different run ({diff}); refusing to recover",
            path.display()
        )));
    }
    Ok((file.records().map_err(named)?, file.valid_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn identity() -> PlanIdentity {
        PlanIdentity {
            experiment: "e2e".into(),
            title: "t".into(),
            cells: 4,
            seed: 7,
            scale: "s".into(),
            manifest: "m".into(),
        }
    }

    fn events() -> Vec<WalEvent> {
        vec![
            WalEvent::Granted {
                lease: 1,
                worker: "w1".into(),
                cells: vec!["0000000000001000".into(), "0000000000001001".into()],
            },
            WalEvent::CellDone {
                lease: 1,
                cell: "0000000000001000".into(),
                index: 0,
                output: Box::new(CellOutput::Runtime(Vec::new())),
            },
            WalEvent::Expired { lease: 1 },
        ]
    }

    /// `WalEvent` carries a `CellOutput`, which has no `PartialEq`:
    /// compare what the WAL would write.
    fn rendered(events: &[WalEvent]) -> Vec<String> {
        events
            .iter()
            .map(|e| serde_json::to_string(e).expect("encode"))
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsp-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("fleet.wal.jsonl")
    }

    #[test]
    fn wal_round_trips_and_a_torn_tail_is_cut_before_appending() {
        let path = tmp("torn");
        let mut writer = create_wal(&path, &identity()).expect("create");
        for event in events() {
            writer.append(&event).expect("append");
        }
        drop(writer);
        let (read, _) = read_wal(&path, &identity()).expect("read");
        assert_eq!(rendered(&read), rendered(&events()));
        // Crash mid-append: chop the final line in half.
        let text = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, &text[..text.len() - 10]).expect("write");
        let (read, valid_bytes) = read_wal(&path, &identity()).expect("torn tail tolerated");
        assert_eq!(
            rendered(&read),
            rendered(&events()[..2]),
            "only intact events"
        );
        // A recovered writer truncates the remnant and appends whole
        // lines after it.
        let mut writer = JsonlWriter::append_to(&path, valid_bytes).expect("reopen");
        writer
            .append(&WalEvent::LeaseDone { lease: 9 })
            .expect("append");
        drop(writer);
        let (read, _) = read_wal(&path, &identity()).expect("reread");
        assert_eq!(read.len(), 3);
        assert!(matches!(read[2], WalEvent::LeaseDone { lease: 9 }));
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn mismatched_identity_is_refused() {
        let path = tmp("mismatch");
        create_wal(&path, &identity()).expect("create");
        let mut other = identity();
        other.seed ^= 0xdead;
        let err = read_wal(&path, &other).expect_err("must refuse");
        assert!(err.to_string().contains("different run"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn older_format_is_refused_by_its_header() {
        let path = tmp("v1");
        let header = WalHeader {
            wal: "dsp-fleet-wal-v1".into(),
            identity: identity(),
        };
        // A v1 completion carries no output; the header check must
        // refuse the file before any event is parsed.
        let v1_done = r#"{"CellDone":{"lease":1,"cell":"0000000000001000"}}"#;
        std::fs::write(
            &path,
            format!(
                "{}\n{v1_done}\n",
                serde_json::to_string(&header).expect("header")
            ),
        )
        .expect("write");
        let err = read_wal(&path, &identity()).expect_err("must refuse");
        assert!(err.to_string().contains("not a fleet WAL"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
