//! Trace serialization: JSON-lines reading and writing.
//!
//! Generated traces are cheap to re-create (the generators are seeded and
//! deterministic), but persisting them lets experiments pin an exact
//! input, diff runs, or feed external tools. The format is one JSON
//! object per line, mirroring the record schema.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use crate::record::TraceRecord;

/// Error raised while reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line was not a valid trace record.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Decoder message.
        source: serde_json::Error,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse { line, source } => {
                write!(f, "malformed trace record at line {line}: {source}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes `records` to `out`, one JSON object per line.
///
/// # Errors
///
/// Returns an error if writing to `out` fails.
///
/// # Example
///
/// ```
/// use dsp_trace::{write_trace_json, read_trace_json, TraceRecord};
/// use dsp_types::{AccessKind, Address, NodeId, Pc};
///
/// let recs = vec![TraceRecord::new(NodeId::new(1), AccessKind::Load, Address::new(64), Pc::new(8))];
/// let mut buf = Vec::new();
/// write_trace_json(&mut buf, recs.iter().copied())?;
/// let back = read_trace_json(&buf[..])?;
/// assert_eq!(back, recs);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace_json<W: Write, I: IntoIterator<Item = TraceRecord>>(
    mut out: W,
    records: I,
) -> Result<usize, TraceIoError> {
    let mut count = 0;
    for rec in records {
        let line = serde_json::to_string(&rec).expect("trace records always serialize");
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        count += 1;
    }
    Ok(count)
}

/// Reads a JSON-lines trace written by [`write_trace_json`].
///
/// Blank lines are skipped.
///
/// # Errors
///
/// Returns an error on I/O failure or if any non-blank line fails to
/// parse (reporting its line number).
pub fn read_trace_json<R: BufRead>(input: R) -> Result<Vec<TraceRecord>, TraceIoError> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = serde_json::from_str(&line).map_err(|source| TraceIoError::Parse {
            line: i + 1,
            source,
        })?;
        records.push(rec);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Workload, WorkloadSpec};
    use dsp_types::SystemConfig;

    #[test]
    fn round_trip_generated_trace() {
        let spec = WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(4).take(500).collect();
        let mut buf = Vec::new();
        let n = write_trace_json(&mut buf, recs.iter().copied()).expect("write");
        assert_eq!(n, 500);
        let back = read_trace_json(&buf[..]).expect("read");
        assert_eq!(back, recs);
    }

    #[test]
    fn skips_blank_lines() {
        let spec = WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(4).take(3).collect();
        let mut buf = Vec::new();
        write_trace_json(&mut buf, recs.iter().copied()).expect("write");
        buf.extend_from_slice(b"\n\n");
        let back = read_trace_json(&buf[..]).expect("read");
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn reports_malformed_line() {
        let err = read_trace_json(&b"{not json}\n"[..]).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(err.to_string().contains("line 1"));
        assert!(err.source().is_some());
    }
}
