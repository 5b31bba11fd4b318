//! Stable cell identity.
//!
//! A [`CellId`] is a content hash of a cell's parameters — workload,
//! system configuration, predictor, protocol set, model size — not its
//! plan position, so two processes that build the same plan
//! independently agree on every id without exchanging anything, and
//! reordering unrelated cells in a plan does not change which cells a
//! lease names. The fleet coordinator leases explicit `CellId` sets to
//! its workers (see [`SweepSession::cells`](super::SweepSession::cells)),
//! and [`manifest_digest`] fingerprints the whole id list so both sides
//! can check they lease against the same plan.

use std::collections::HashMap;
use std::fmt;

use dsp_types::hash::mix64;

use super::Cell;

/// Stable identity of one [`Cell`]: a content hash of its parameters.
///
/// The hash is FNV-1a over the cell's canonical debug rendering (all
/// cell components are plain data with derived, platform-independent
/// `Debug` output — enum names, integers, and shortest-round-trip
/// floats), folded through [`mix64`]. When a plan contains several
/// cells with *identical* parameters, each later duplicate mixes in its
/// occurrence index so ids stay unique within the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(u64);

impl CellId {
    /// Ids for every cell of a plan, in plan order, deduplicated by
    /// occurrence index.
    pub fn assign(cells: &[Cell]) -> Vec<CellId> {
        let mut occurrences: HashMap<u64, u64> = HashMap::new();
        cells
            .iter()
            .map(|cell| {
                let content = content_hash(cell);
                let occ = occurrences.entry(content).or_insert(0);
                let id = mix64(content.wrapping_add(*occ));
                *occ += 1;
                CellId(id)
            })
            .collect()
    }

    /// The raw 64-bit id.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Fixed-width lowercase hex, the journal encoding.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the journal encoding.
    pub fn from_hex(text: &str) -> Option<CellId> {
        if text.len() != 16 {
            return None;
        }
        u64::from_str_radix(text, 16).ok().map(CellId)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// FNV-1a over the cell's debug rendering.
fn content_hash(cell: &Cell) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{cell:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Order-sensitive digest of a plan's full `CellId` manifest.
///
/// `repro plan` prints it, the fleet coordinator advertises it in its
/// welcome message, and every worker recomputes it from its own copy of
/// the plan — one source of truth for "are we leasing against the same
/// cell universe". FNV-1a over the little-endian id bytes in plan
/// order, folded through [`mix64`].
pub fn manifest_digest(ids: &[CellId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in ids {
        for b in id.raw().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    mix64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_core::PredictorConfig;
    use dsp_trace::Workload;
    use dsp_types::SystemConfig;

    fn cells() -> Vec<Cell> {
        let config = SystemConfig::isca03();
        let mut cells = Vec::new();
        for workload in [Workload::Oltp, Workload::Apache] {
            cells.push(Cell::Baselines { config, workload });
            cells.push(Cell::Tradeoff {
                config,
                workload,
                predictor: PredictorConfig::group(),
            });
        }
        cells
    }

    #[test]
    fn ids_are_content_based_not_positional() {
        let forward = cells();
        let mut reversed = cells();
        reversed.reverse();
        let a = CellId::assign(&forward);
        let mut b = CellId::assign(&reversed);
        b.reverse();
        assert_eq!(a, b, "reordering distinct cells must not change ids");
    }

    #[test]
    fn duplicate_cells_get_distinct_ids() {
        let one = cells();
        let mut twice = cells();
        twice.extend(cells());
        let ids = CellId::assign(&twice);
        let mut unique: Vec<u64> = ids.iter().map(|id| id.raw()).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "ids must be unique within a plan");
        // The first occurrence keeps the pure content hash.
        assert_eq!(ids[..one.len()], CellId::assign(&one)[..]);
    }

    #[test]
    fn hex_round_trips() {
        for id in CellId::assign(&cells()) {
            assert_eq!(CellId::from_hex(&id.to_hex()), Some(id));
        }
        assert_eq!(CellId::from_hex("xyz"), None);
        assert_eq!(CellId::from_hex(""), None);
    }

    #[test]
    fn manifest_digest_is_order_sensitive_and_stable() {
        let ids = CellId::assign(&cells());
        let d1 = manifest_digest(&ids);
        let d2 = manifest_digest(&ids);
        assert_eq!(d1, d2);
        let mut rev = ids.clone();
        rev.reverse();
        assert_ne!(d1, manifest_digest(&rev), "digest must be order-sensitive");
    }
}
