//! The fleet wire protocol: newline-delimited JSON over TCP.
//!
//! One [`Request`] line in, one [`Reply`] line out, in strict
//! alternation per connection — no framing beyond `\n`, no pipelining,
//! no async. Every message is a single line of the same JSON dialect
//! the coordinator's WAL uses, so a captured session is greppable next
//! to the WAL it produced.
//!
//! Connections are long-lived: a worker holds one connection for its
//! whole life (hello → challenge → auth → lease → stream cell
//! completions → repeat); observers (`repro fleet-status`) connect,
//! ask, and hang up. Reads on the coordinator side run with a short
//! timeout so connection threads can notice shutdown; [`MessageReader`]
//! buffers partial lines across those timeouts, so a message split
//! across TCP segments is never torn.
//!
//! # Handshake (v2)
//!
//! ```text
//! worker → Hello { worker, proto }
//! coord  → Challenge { nonce }            (or Refused: VersionSkew)
//! worker → Auth { worker, mac: mac64(token, nonce), session }
//! coord  → Welcome { proto, scale, identity, session, lease_timeout_ms }
//!                                         (or Refused: AuthFailure)
//! ```
//!
//! `session` in `Auth` is `None` on a fresh connection; a worker
//! reconnecting after a dropped TCP session echoes the `SessionId` it
//! was welcomed with, and the coordinator re-adopts its live leases
//! instead of expiring them. Observer requests (`Status` / `Results`)
//! need no auth — they reveal progress, not control.
//!
//! # Liveness
//!
//! A lease stays alive only through messages about it: its `CellDone`
//! reports and, while a cell is still running, a [`Request::Heartbeat`]
//! every third of the `lease_timeout_ms` the `Welcome` carries. A
//! heartbeat counts only from the session that holds the lease.

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};

use dsp_bench::engine::{manifest_digest, CellId, CellOutput, ExperimentPlan};

use crate::stats::{ResultsPage, StatusReport};

/// Protocol revision; bumped on any incompatible message change.
/// v2 added the challenge/auth handshake and session ids; v3 changed
/// the shape of the status counters; v4 dropped the grant's journal
/// name and the harvest counter, and added the welcome's lease timeout.
pub const PROTOCOL_VERSION: u32 = 4;

/// Typed protocol violations — every way the coordinator can refuse a
/// client, distinguishable by the client without parsing prose.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolError {
    /// A line that is not a well-formed message.
    Malformed {
        /// Decoder detail.
        detail: String,
    },
    /// A well-formed message that is not valid in this connection
    /// state (e.g. `Lease` before `Auth`).
    UnknownRequest {
        /// What was rejected and why.
        detail: String,
    },
    /// The challenge response did not verify, or a mutating request
    /// arrived on an unauthenticated connection.
    AuthFailure {
        /// Refusal detail (never echoes the expected MAC).
        detail: String,
    },
    /// The client speaks a different protocol revision.
    VersionSkew {
        /// The coordinator's [`PROTOCOL_VERSION`].
        coordinator: u32,
        /// What the client announced.
        client: u32,
    },
    /// Coordinator-side failure while serving the request.
    Internal {
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Malformed { detail } => write!(f, "malformed message: {detail}"),
            ProtocolError::UnknownRequest { detail } => write!(f, "unknown request: {detail}"),
            ProtocolError::AuthFailure { detail } => write!(f, "authentication failed: {detail}"),
            ProtocolError::VersionSkew {
                coordinator,
                client,
            } => write!(
                f,
                "protocol version skew: coordinator v{coordinator}, client v{client}"
            ),
            ProtocolError::Internal { detail } => write!(f, "coordinator error: {detail}"),
        }
    }
}

/// Everything that must match for a worker to lease against a
/// coordinator's plan: the plan universe ([`manifest_digest`] over the
/// `CellId` manifest) plus the run parameters the ids do *not* encode —
/// title, seed, and the exact scale bits (cell ids hash only cell
/// parameters, so two runs of the same cells at different scales share
/// ids but not outputs).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanIdentity {
    /// Experiment name (`fig5`, `table2`, ...): what a worker feeds
    /// back into `experiments::plan_for` to rebuild the plan locally.
    pub experiment: String,
    /// Plan title.
    pub title: String,
    /// Cell count.
    pub cells: usize,
    /// Base seed.
    pub seed: u64,
    /// `Scale::identity()` — exact footprint bits and run lengths.
    pub scale: String,
    /// `manifest_digest` over the plan's `CellId`s, as fixed-width hex.
    pub manifest: String,
}

impl PlanIdentity {
    /// The identity of `plan`, registered under `experiment`.
    pub fn of(experiment: &str, plan: &ExperimentPlan) -> Self {
        let ids = CellId::assign(&plan.cells);
        PlanIdentity {
            experiment: experiment.to_string(),
            title: plan.title.clone(),
            cells: plan.cells.len(),
            seed: plan.seed,
            scale: plan.scale.identity(),
            manifest: format!("{:016x}", manifest_digest(&ids)),
        }
    }

    /// The first field where `self` and `other` disagree, rendered for
    /// an error message; `None` when the identities match.
    pub fn mismatch(&self, other: &PlanIdentity) -> Option<String> {
        let fields = [
            ("experiment", &self.experiment, &other.experiment),
            ("plan title", &self.title, &other.title),
            ("scale", &self.scale, &other.scale),
            ("manifest", &self.manifest, &other.manifest),
        ];
        for (what, mine, theirs) in fields {
            if mine != theirs {
                return Some(format!("{what}: {mine:?} here vs {theirs:?} there"));
            }
        }
        if self.cells != other.cells {
            return Some(format!(
                "cells: {} here vs {} there",
                self.cells, other.cells
            ));
        }
        if self.seed != other.seed {
            return Some(format!("seed: {} here vs {} there", self.seed, other.seed));
        }
        None
    }
}

/// Client → coordinator messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Request {
    /// First message on a worker connection.
    Hello {
        /// Worker name (unique per fleet, e.g. `w1`).
        worker: String,
        /// The worker's [`PROTOCOL_VERSION`].
        proto: u32,
    },
    /// Second message: the answer to [`Reply::Challenge`].
    Auth {
        /// Worker name (must match the `Hello`).
        worker: String,
        /// `auth::mac64(token, nonce)` over the challenged nonce.
        mac: u64,
        /// `None` on a fresh connection; the previously-welcomed
        /// `SessionId` when reconnecting, so live leases are re-adopted
        /// instead of expired.
        session: Option<u64>,
    },
    /// Ask for work.
    Lease {
        /// Requesting worker.
        worker: String,
    },
    /// Keep-alive for a held lease — the liveness signal while a cell
    /// runs. Workers send one every third of the lease timeout; the
    /// coordinator answers `Stale` unless the lease is live and held by
    /// this connection's session.
    Heartbeat {
        /// Reporting worker.
        worker: String,
        /// The held lease.
        lease: u64,
    },
    /// One finished cell, streamed as it completes.
    CellDone {
        /// Reporting worker.
        worker: String,
        /// The lease the cell ran under.
        lease: u64,
        /// The cell's id, fixed-width hex.
        cell: String,
        /// The cell's plan index.
        index: usize,
        /// The deterministic output.
        output: Box<CellOutput>,
    },
    /// Every cell of the lease has been reported.
    Complete {
        /// Reporting worker.
        worker: String,
        /// The finished lease.
        lease: u64,
    },
    /// Observer: progress counters and active leases.
    Status,
    /// Observer: a page of per-cell completion states, in plan order.
    Results {
        /// First plan index of the page.
        start: usize,
        /// Maximum cells in the page.
        limit: usize,
    },
}

/// Coordinator → client messages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Reply {
    /// Answer to [`Request::Hello`] when the versions agree: prove you
    /// know the fleet token.
    Challenge {
        /// Fresh per-connection nonce to MAC under the shared token.
        nonce: u64,
    },
    /// Answer to a verified [`Request::Auth`]: what this fleet is
    /// running.
    Welcome {
        /// The coordinator's [`PROTOCOL_VERSION`].
        proto: u32,
        /// Scale preset name (`quick` / `standard` / `paper`) the
        /// worker feeds to `Scale::parse`.
        scale: String,
        /// Full plan identity; the worker must verify it against the
        /// plan it builds locally before leasing.
        identity: PlanIdentity,
        /// The connection's session id — echoed in `Auth.session` when
        /// reconnecting to keep held leases alive.
        session: u64,
        /// The coordinator's lease timeout: a lease with no message
        /// about it for this long expires. Workers heartbeat every
        /// third of it.
        lease_timeout_ms: u64,
    },
    /// Work: run exactly these cells.
    Grant {
        /// Lease id, echoed in every report about this work.
        lease: u64,
        /// Cell ids (fixed-width hex), in plan order.
        cells: Vec<String>,
    },
    /// No work available right now (stragglers may yet be re-leased);
    /// ask again after `poll_ms`.
    Wait {
        /// Suggested back-off.
        poll_ms: u64,
    },
    /// The sweep is complete; the worker should exit.
    Shutdown,
    /// Report accepted.
    Ack,
    /// The lease is no longer held by the reporter (expired or the
    /// cell was re-leased); drop the result and ask for fresh work.
    Stale {
        /// The stale lease id.
        lease: u64,
    },
    /// Answer to [`Request::Status`].
    Status(StatusReport),
    /// Answer to [`Request::Results`].
    Results(ResultsPage),
    /// Typed refusal: protocol violation, failed auth, version skew,
    /// or internal failure.
    Refused {
        /// Why.
        error: ProtocolError,
    },
}

/// Writes one message as one flushed JSON line.
///
/// # Errors
///
/// I/O failure, or a message that cannot be encoded (non-finite float).
pub fn send<T: Serialize, W: Write>(to: &mut W, msg: &T) -> io::Result<()> {
    let line = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("cannot encode: {e}")))?;
    debug_assert!(
        !line.contains('\n'),
        "protocol messages must be single-line"
    );
    to.write_all(line.as_bytes())?;
    to.write_all(b"\n")?;
    to.flush()
}

/// Reads newline-delimited messages from a stream, preserving partial
/// lines across read timeouts.
///
/// A plain `BufRead::read_line` would drop already-buffered bytes when
/// a read times out mid-line; this reader keeps them, so coordinator
/// connection threads can poll with short timeouts (to notice
/// shutdown) without ever tearing a message.
#[derive(Debug)]
pub struct MessageReader<R: Read> {
    from: R,
    buf: Vec<u8>,
}

impl<R: Read> MessageReader<R> {
    /// Wraps a stream.
    pub fn new(from: R) -> Self {
        MessageReader {
            from,
            buf: Vec::new(),
        }
    }

    /// Reads the next message.
    ///
    /// Returns `Ok(None)` on clean end-of-stream (the peer hung up
    /// between messages).
    ///
    /// # Errors
    ///
    /// `WouldBlock`/`TimedOut` pass through with buffered bytes intact
    /// — call again. EOF mid-line, malformed JSON, and I/O failures are
    /// terminal.
    pub fn recv<T: Deserialize>(&mut self) -> io::Result<Option<T>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                let text = std::str::from_utf8(&line[..line.len() - 1]).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("non-UTF-8 message: {e}"),
                    )
                })?;
                return serde_json::from_str(text)
                    .map(Some)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")));
            }
            let mut chunk = [0u8; 4096];
            match self.from.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "stream closed mid-message",
                        ))
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_round_trip_one_per_line() {
        let msgs = [
            Request::Hello {
                worker: "w1".into(),
                proto: PROTOCOL_VERSION,
            },
            Request::Lease {
                worker: "w1".into(),
            },
            Request::Results {
                start: 0,
                limit: 10,
            },
        ];
        let mut wire = Vec::new();
        for msg in &msgs {
            send(&mut wire, msg).expect("send");
        }
        assert_eq!(wire.iter().filter(|&&b| b == b'\n').count(), msgs.len());
        let mut reader = MessageReader::new(&wire[..]);
        for msg in &msgs {
            let got: Request = reader.recv().expect("recv").expect("some");
            assert_eq!(format!("{got:?}"), format!("{msg:?}"));
        }
        assert!(reader.recv::<Request>().expect("eof").is_none());
    }

    /// A reader fed one byte at a time (worst-case segmentation) still
    /// reassembles whole messages.
    #[test]
    fn reader_survives_split_segments() {
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                match self.0.split_first() {
                    Some((&b, rest)) => {
                        buf[0] = b;
                        self.0 = rest;
                        Ok(1)
                    }
                    None => Ok(0),
                }
            }
        }
        let mut wire = Vec::new();
        send(&mut wire, &Reply::Wait { poll_ms: 250 }).expect("send");
        let mut reader = MessageReader::new(OneByte(&wire));
        let got: Reply = reader.recv().expect("recv").expect("some");
        assert!(matches!(got, Reply::Wait { poll_ms: 250 }));
    }

    #[test]
    fn handshake_messages_and_refusals_round_trip() {
        let mut wire = Vec::new();
        send(
            &mut wire,
            &Request::Auth {
                worker: "w1".into(),
                mac: 0xdead_beef,
                session: Some(3),
            },
        )
        .expect("send auth");
        send(
            &mut wire,
            &Request::Hello {
                worker: "w1".into(),
                proto: 2,
            },
        )
        .expect("send hello");
        let mut reader = MessageReader::new(&wire[..]);
        let got: Request = reader.recv().expect("recv").expect("some");
        assert!(
            matches!(
                got,
                Request::Auth {
                    mac: 0xdead_beef,
                    session: Some(3),
                    ..
                }
            ),
            "{got:?}"
        );
        let mut wire = Vec::new();
        for reply in [
            Reply::Challenge { nonce: 17 },
            Reply::Refused {
                error: ProtocolError::VersionSkew {
                    coordinator: PROTOCOL_VERSION,
                    client: 1,
                },
            },
        ] {
            send(&mut wire, &reply).expect("send");
        }
        let mut reader = MessageReader::new(&wire[..]);
        let challenge: Reply = reader.recv().expect("recv").expect("some");
        assert!(matches!(challenge, Reply::Challenge { nonce: 17 }));
        let refused: Reply = reader.recv().expect("recv").expect("some");
        match refused {
            Reply::Refused { error } => {
                assert_eq!(
                    error,
                    ProtocolError::VersionSkew {
                        coordinator: PROTOCOL_VERSION,
                        client: 1
                    }
                );
                assert!(error.to_string().contains("version skew"), "{error}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn mismatch_reports_the_differing_field() {
        let a = PlanIdentity {
            experiment: "fig5".into(),
            title: "t".into(),
            cells: 4,
            seed: 7,
            scale: "s".into(),
            manifest: "m".into(),
        };
        assert_eq!(a.mismatch(&a), None);
        let mut b = a.clone();
        b.scale = "other".into();
        let msg = a.mismatch(&b).expect("differs");
        assert!(msg.contains("scale"), "{msg}");
    }
}
