//! The coordinator's write-ahead log and only durable log: every ledger
//! transition, durable before it takes effect on the wire. An accepted
//! cell's [`WalEvent::CellDone`] carries its output, so one append
//! makes both the ledger and the output durable.
//!
//! `repro fleet --recover` replays the WAL to rebuild a crashed
//! coordinator's lease state machine (same transitions, same lease ids,
//! same churn counters), expires the leases the crash orphaned, and
//! resumes the sweep — with the reconciliation invariant
//! (`granted == completed + stolen`) still spanning both incarnations.
//!
//! The file uses the checkpoint journals' framing ([`JsonlWriter`],
//! [`read_jsonl`]): a header carrying the full [`PlanIdentity`] (a WAL
//! can never silently recover a different experiment, seed, or scale),
//! then one flushed [`WalEvent`] per transition. A [`WalEvent::Granted`]
//! is logged **before** the `Grant` reply is sent, so no lease exists
//! on the wire that the WAL does not know. A crash tears at most the
//! transition in flight; a torn `CellDone` leaves its cell leased to an
//! orphan, and recovery requeues it to run again.

use std::io;
use std::path::Path;

use dsp_bench::engine::{read_jsonl, CellOutput, JsonlWriter};
use serde::{Deserialize, Serialize};

use crate::protocol::PlanIdentity;

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
pub fn create_wal(path: &Path, identity: &PlanIdentity) -> io::Result<JsonlWriter> {
    let header = WalHeader {
        wal: MAGIC.to_string(),
        identity: identity.clone(),
    };
    JsonlWriter::create(path, &header)
}

/// Reads a WAL's intact transitions, in append order, and the byte
/// offset just past the last one ([`JsonlWriter::append_to`] truncates
/// there). The header is validated against `identity` before any event
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
