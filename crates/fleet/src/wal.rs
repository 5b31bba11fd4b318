//! The coordinator's write-ahead log: every ledger transition, durable
//! before it takes effect on the wire.
//!
//! The master journal makes accepted *outputs* durable; the WAL makes
//! the *ledger* durable. Together they let `repro fleet --recover`
//! rebuild a crashed coordinator: replay the WAL to reconstruct the
//! lease state machine (same transitions, same lease ids, same churn
//! counters), re-adopt the master journal's outputs, harvest whatever
//! the orphaned leases journaled before the crash, and resume the
//! sweep — with the reconciliation invariant
//! (`granted == completed + stolen`) still spanning both incarnations.
//!
//! Format is the same greppable JSONL dialect as the checkpoint
//! journals: a header line carrying the full [`PlanIdentity`] (a WAL
//! can never silently recover a different experiment, seed, or scale),
//! then one flushed [`WalEvent`] per transition. Only
//! newline-terminated lines count on read; a torn final line is the
//! crash remnant and is cut away before the recovered coordinator
//! appends — exactly the journal-tail discipline.
//!
//! # Write ordering
//!
//! Two rules make replay sound, both enforced under the coordinator's
//! state mutex:
//!
//! * a [`WalEvent::Granted`] is logged **before** the `Grant` reply is
//!   sent, so no lease can exist on the wire that the WAL does not
//!   know;
//! * a [`WalEvent::CellDone`] is logged **after** the master-journal
//!   append, so a WAL completion always has a durable output behind it.
//!   The converse crash window (master has the record, WAL lost the
//!   completion) is healed at recovery by re-completing the cell from
//!   the master journal — its lease still holds it in the replayed
//!   ledger, because the WAL is at most one transition behind.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::protocol::PlanIdentity;

/// Magic string identifying the WAL format (and its version).
const MAGIC: &str = "dsp-fleet-wal-v1";

/// First line of every WAL: format magic plus the full plan identity.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct WalHeader {
    wal: String,
    identity: PlanIdentity,
}

/// One ledger transition. Cells travel as fixed-width hex (the same
/// rendering the wire protocol and `repro plan` use).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
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
        /// The journal filename assigned to the lease, relative
        /// to the fleet directory — recovery harvests it.
        journal: String,
    },
    /// A cell completion was accepted under `lease`.
    CellDone {
        /// The accepting lease.
        lease: u64,
        /// The completed cell.
        cell: String,
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

/// Appends ledger transitions to the WAL, one flushed JSON line each.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: BufWriter<File>,
}

impl WalWriter {
    /// Creates (truncating) `path` and writes the header line.
    ///
    /// # Errors
    ///
    /// Filesystem failure creating or writing the file.
    pub fn create(path: &Path, identity: &PlanIdentity) -> io::Result<Self> {
        let file = File::create(path)?;
        let mut writer = WalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
        };
        let header = WalHeader {
            wal: MAGIC.to_string(),
            identity: identity.clone(),
        };
        writer.write_line(&encode(&header)?)?;
        Ok(writer)
    }

    /// Reopens an existing WAL for appending after recovery, first
    /// truncating it to `valid_bytes` (the end of its last intact line
    /// as reported by [`read_wal`]) so the torn crash remnant can never
    /// fuse with the first recovered append.
    ///
    /// # Errors
    ///
    /// Filesystem failure opening or truncating the file.
    pub fn append_to(path: &Path, valid_bytes: u64) -> io::Result<Self> {
        let truncate = OpenOptions::new().write(true).open(path)?;
        truncate.set_len(valid_bytes)?;
        drop(truncate);
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file: BufWriter::new(file),
        })
    }

    /// The WAL's path (for logs and CI artifacts).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one transition, durable before the caller acts on it.
    ///
    /// # Errors
    ///
    /// Serialization or write failure — the caller must treat this as
    /// fatal for recoverability (the coordinator records it as the
    /// run's failure).
    pub fn append(&mut self, event: &WalEvent) -> io::Result<()> {
        let line = encode(event)?;
        self.write_line(&line)
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "WAL lines must be single-line");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        // One transition, one durable line: a crash loses at most the
        // transition in flight.
        self.file.flush()
    }
}

fn encode<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("cannot encode: {e}")))
}

/// Everything read back from a WAL.
#[derive(Debug)]
pub struct WalContents {
    /// Intact transitions, in append order.
    pub events: Vec<WalEvent>,
    /// Byte offset just past the last intact line; [`WalWriter::append_to`]
    /// truncates here.
    pub valid_bytes: u64,
}

/// Reads a WAL and validates its header against `identity`.
///
/// Only newline-terminated lines count: an unterminated final line is
/// the remnant of a crash mid-append and is skipped. A malformed
/// *terminated* line, or a header naming a different plan, is
/// corruption and errors out — recovery must not guess.
///
/// # Errors
///
/// I/O failure, a missing or malformed header, an identity mismatch,
/// or a corrupt terminated event line.
pub fn read_wal(path: &Path, identity: &PlanIdentity) -> io::Result<WalContents> {
    let text = std::fs::read_to_string(path)?;
    let lines: Vec<&str> = text.lines().collect();
    let complete = if text.ends_with('\n') {
        lines.len()
    } else {
        lines.len().saturating_sub(1)
    };
    let bad = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let Some(header_line) = lines.first().filter(|_| complete > 0) else {
        return Err(bad(format!("{}: empty or headerless WAL", path.display())));
    };
    let header: WalHeader = serde_json::from_str(header_line)
        .map_err(|e| bad(format!("{}: malformed WAL header: {e}", path.display())))?;
    if header.wal != MAGIC {
        return Err(bad(format!(
            "{}: not a fleet WAL (format {:?})",
            path.display(),
            header.wal
        )));
    }
    if let Some(diff) = identity.mismatch(&header.identity) {
        return Err(bad(format!(
            "{}: WAL is from a different run ({diff}); refusing to recover",
            path.display()
        )));
    }
    let mut events = Vec::new();
    let mut valid_bytes = (header_line.len() + 1) as u64;
    for (pos, line) in lines.iter().enumerate().take(complete).skip(1) {
        let event: WalEvent = serde_json::from_str(line).map_err(|e| {
            bad(format!(
                "{}: malformed WAL event at line {}: {e}",
                path.display(),
                pos + 1
            ))
        })?;
        events.push(event);
        valid_bytes += (line.len() + 1) as u64;
    }
    Ok(WalContents {
        events,
        valid_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
                journal: "e2e.lease1.w1.jsonl".into(),
            },
            WalEvent::CellDone {
                lease: 1,
                cell: "0000000000001000".into(),
            },
            WalEvent::Expired { lease: 1 },
        ]
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsp-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir.join("fleet.wal.jsonl")
    }

    #[test]
    fn wal_round_trips_in_order() {
        let path = tmp("roundtrip");
        let mut writer = WalWriter::create(&path, &identity()).expect("create");
        for event in events() {
            writer.append(&event).expect("append");
        }
        drop(writer);
        let contents = read_wal(&path, &identity()).expect("read");
        assert_eq!(contents.events, events());
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn torn_tail_is_cut_and_appending_resumes_cleanly() {
        let path = tmp("torn");
        let mut writer = WalWriter::create(&path, &identity()).expect("create");
        for event in events() {
            writer.append(&event).expect("append");
        }
        drop(writer);
        // Crash mid-append: chop the final line in half.
        let text = std::fs::read_to_string(&path).expect("read");
        let cut = text.len() - 10;
        std::fs::write(&path, &text[..cut]).expect("write");
        let contents = read_wal(&path, &identity()).expect("torn tail tolerated");
        assert_eq!(contents.events, events()[..2], "only intact events");
        // A recovered writer truncates the remnant and appends whole
        // lines after it.
        let mut writer = WalWriter::append_to(&path, contents.valid_bytes).expect("reopen");
        writer
            .append(&WalEvent::LeaseDone { lease: 9 })
            .expect("append");
        drop(writer);
        let contents = read_wal(&path, &identity()).expect("reread");
        assert_eq!(contents.events.len(), 3);
        assert_eq!(contents.events[2], WalEvent::LeaseDone { lease: 9 });
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }

    #[test]
    fn mismatched_identity_is_refused() {
        let path = tmp("mismatch");
        let writer = WalWriter::create(&path, &identity()).expect("create");
        drop(writer);
        let mut other = identity();
        other.seed ^= 0xdead;
        let err = read_wal(&path, &other).expect_err("must refuse");
        assert!(err.to_string().contains("different run"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().expect("parent"));
    }
}
