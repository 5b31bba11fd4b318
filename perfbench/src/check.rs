//! Output check: each repetition's rendered tables against the stored
//! expected tables, cell by cell, plus checks that hold for any seed.
//!
//! A plan cell fails when any row it renders differs from the stored
//! table, differs from the run's first repetition, or breaks a
//! normalization anchor (snooping traffic = 100, directory runtime =
//! 100, broadcast = nodes - 1 request messages per miss).

use std::path::{Path, PathBuf};

use dsp_analysis::{fmt_f, TextTable};
use dsp_bench::engine::{Cell, ExperimentPlan};

use crate::workload::{rows_per_cell, Size, Workload};

/// The stored table for `(workload, size, seed)`, generated by the
/// engine's serial runner over the same plans.
pub fn expected_path(dir: &Path, workload: Workload, size: Size, seed: u64) -> PathBuf {
    dir.join(format!("{}-{}-{seed}.csv", workload.name(), size.name()))
}

/// Concatenates the plans' tables as CSV: one header line per plan,
/// then its rows.
pub fn joined_csv(tables: &[TextTable]) -> String {
    tables.iter().map(TextTable::to_csv).collect()
}

/// Outcome of checking one or more repetitions.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellCheck {
    /// Plan cells checked.
    pub cells: u64,
    /// Cells that failed any check.
    pub failed: u64,
    /// Cells whose rows differ from the stored table.
    pub stored_mismatches: u64,
}

impl std::ops::AddAssign for CellCheck {
    fn add_assign(&mut self, other: CellCheck) {
        self.cells += other.cells;
        self.failed += other.failed;
        self.stored_mismatches += other.stored_mismatches;
    }
}

/// Checks `rendered` cell by cell against `first` (the run's first
/// repetition) and, when present, the stored `expected` table.
pub fn check_cells(
    plans: &[ExperimentPlan],
    rendered: &str,
    first: &str,
    expected: Option<&str>,
) -> CellCheck {
    let rendered: Vec<&str> = rendered.lines().collect();
    let first: Vec<&str> = first.lines().collect();
    let expected: Option<Vec<&str>> = expected.map(|e| e.lines().collect());
    let mut out = CellCheck::default();
    let mut at = 0usize;
    for plan in plans {
        // A stored table of another shape fails every cell of the plan.
        let header_ok = expected
            .as_ref()
            .is_none_or(|e| e.len() == rendered.len() && e.get(at) == rendered.get(at));
        at += 1;
        for cell in &plan.cells {
            let span = at..at + rows_per_cell(cell);
            at = span.end;
            let rows = rendered.get(span.clone()).unwrap_or(&[]);
            let stored_ok = match &expected {
                None => true,
                Some(e) => header_ok && e.get(span.clone()) == Some(rows),
            };
            let repeat_ok = first.get(span) == Some(rows);
            let anchors_ok = rows.len() == rows_per_cell(cell) && anchors_hold(plan, cell, rows);
            out.cells += 1;
            out.stored_mismatches += u64::from(!stored_ok);
            out.failed += u64::from(!(stored_ok && repeat_ok && anchors_ok));
        }
    }
    out
}

/// Splits one CSV line into fields (quoted fields may hold commas).
fn fields(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match (c, quoted) {
            ('"', true) if chars.peek() == Some(&'"') => {
                field.push('"');
                chars.next();
            }
            ('"', _) => quoted = !quoted,
            (',', false) => out.push(std::mem::take(&mut field)),
            _ => field.push(c),
        }
    }
    out.push(field);
    out
}

/// The normalization anchors every seed's table must satisfy, and every
/// numeric cell must be a finite number.
fn anchors_hold(plan: &ExperimentPlan, cell: &Cell, rows: &[&str]) -> bool {
    let column = |name: &str| plan.columns.iter().position(|c| *c == name);
    let rows: Vec<Vec<String>> = rows.iter().map(|r| fields(r)).collect();
    if rows.iter().any(|r| r.len() != plan.columns.len()) {
        return false;
    }
    let finite = rows.iter().all(|r| {
        r.iter()
            .skip(2)
            .all(|f| f.parse::<f64>().is_ok_and(f64::is_finite))
    });
    let get = |row: usize, name: &str| column(name).map(|c| rows[row][c].as_str());
    let labels_ok = |labels: &[&str]| {
        labels
            .iter()
            .enumerate()
            .all(|(i, l)| rows[i].get(1).map(String::as_str) == Some(*l))
    };
    finite
        && match cell {
            Cell::Baselines { config, .. } => {
                let broadcast = fmt_f((config.num_nodes() - 1) as f64, 2);
                labels_ok(&["Broadcast Snooping", "Directory"])
                    && get(0, "request msgs/miss") == Some(broadcast.as_str())
                    && get(0, "indirections %") == Some("0.0")
            }
            Cell::Runtime { .. } => {
                labels_ok(&["Broadcast Snooping", "Directory"])
                    && get(0, "norm traffic/miss") == Some("100.0")
                    && get(1, "norm runtime") == Some("100.0")
            }
            _ => true,
        }
}

#[cfg(test)]
mod tests {
    use super::fields;

    #[test]
    fn csv_fields_honor_quotes() {
        assert_eq!(
            fields("OLTP,\"Multicast [Owner, 1024B]\",1.0"),
            vec!["OLTP", "Multicast [Owner, 1024B]", "1.0"]
        );
        assert_eq!(fields("a,\"b \"\"q\"\"\",c"), vec!["a", "b \"q\"", "c"]);
    }
}
