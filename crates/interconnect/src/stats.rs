//! Traffic accounting by message class.

use std::fmt;

use serde::{Deserialize, Serialize};

use dsp_types::MessageClass;

/// Counters for one message class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassTraffic {
    /// Messages injected (one per `send`, regardless of fan-out).
    pub messages: u64,
    /// Endpoint deliveries (one per destination).
    pub deliveries: u64,
    /// Bytes delivered to endpoints (deliveries × message size).
    pub bytes: u64,
}

/// Aggregate interconnect traffic, broken down by [`MessageClass`].
///
/// The paper uses two traffic metrics, both derivable from this:
/// *request messages per miss* (deliveries of Request + Forward + Retry;
/// Figures 5–6) and *total traffic bytes per miss* (all classes,
/// endpoint bytes; Figures 7–8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    per_class: [ClassTraffic; MessageClass::COUNT],
}

impl TrafficStats {
    /// Records one injected message delivered to `deliveries` endpoints.
    #[inline]
    pub fn record(&mut self, class: MessageClass, deliveries: u64) {
        let t = &mut self.per_class[class.index()];
        t.messages += 1;
        t.deliveries += deliveries;
        t.bytes += deliveries * class.bytes();
    }

    /// Counters for one class.
    pub fn class(&self, class: MessageClass) -> ClassTraffic {
        self.per_class[class.index()]
    }

    /// Endpoint deliveries of request-class messages (request, forward,
    /// retry) — the unit of the paper's trace-driven bandwidth axis.
    pub fn request_deliveries(&self) -> u64 {
        MessageClass::ALL
            .iter()
            .filter(|c| c.is_request_class())
            .map(|c| self.class(*c).deliveries)
            .sum()
    }

    /// Total endpoint bytes across all classes — the unit of the
    /// runtime-evaluation traffic axis.
    pub fn total_bytes(&self) -> u64 {
        self.per_class.iter().map(|t| t.bytes).sum()
    }

    /// Sum of per-class injected message counts.
    pub fn total_messages(&self) -> u64 {
        self.per_class.iter().map(|t| t.messages).sum()
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (mine, theirs) in self.per_class.iter_mut().zip(other.per_class.iter()) {
            mine.messages += theirs.messages;
            mine.deliveries += theirs.deliveries;
            mine.bytes += theirs.bytes;
        }
    }
}

/// Message-conservation ledger: deliveries *committed* when a message
/// entered its source link versus deliveries *recorded* at destination
/// links, in aggregate and per incoming link.
///
/// The two sides are counted at different points of the send path, so
/// any toxic or topology that silently lost or duplicated a delivery
/// would leave the ledger unbalanced. [`LinkStats::assert_reconciled`]
/// is the end-of-run invariant behind the `link_reconciled` marker of
/// `repro degraded`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Total deliveries committed at injection time.
    pub injected: u64,
    /// Total arrivals recorded at destinations.
    pub delivered: u64,
    /// Deliveries committed per incoming link (empty on the untoxiced
    /// fast path, which only keeps the aggregate counters).
    pub per_link_injected: Vec<u64>,
    /// Arrivals recorded per incoming link.
    pub per_link_delivered: Vec<u64>,
}

impl LinkStats {
    /// A ledger with per-link counters for `num_nodes` incoming links.
    pub fn with_links(num_nodes: usize) -> Self {
        LinkStats {
            injected: 0,
            delivered: 0,
            per_link_injected: vec![0; num_nodes],
            per_link_delivered: vec![0; num_nodes],
        }
    }

    /// Whether every committed delivery was recorded, in aggregate and
    /// on each link.
    pub fn is_reconciled(&self) -> bool {
        self.injected == self.delivered && self.per_link_injected == self.per_link_delivered
    }

    /// Asserts [`LinkStats::is_reconciled`].
    ///
    /// # Panics
    ///
    /// Panics if any delivery was lost or duplicated.
    pub fn assert_reconciled(&self) {
        assert!(
            self.is_reconciled(),
            "link ledger unbalanced: {} injected vs {} delivered",
            self.injected,
            self.delivered
        );
    }
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in MessageClass::ALL {
            let t = self.class(class);
            if t.messages > 0 {
                writeln!(
                    f,
                    "{class:>12}: {:>10} msgs {:>12} deliveries {:>14} bytes",
                    t.messages, t.deliveries, t.bytes
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = TrafficStats::default();
        s.record(MessageClass::Request, 15);
        s.record(MessageClass::Request, 3);
        s.record(MessageClass::DataResponse, 1);
        let req = s.class(MessageClass::Request);
        assert_eq!(req.messages, 2);
        assert_eq!(req.deliveries, 18);
        assert_eq!(req.bytes, 18 * 8);
        assert_eq!(s.class(MessageClass::DataResponse).bytes, 72);
    }

    #[test]
    fn request_deliveries_cover_request_classes_only() {
        let mut s = TrafficStats::default();
        s.record(MessageClass::Request, 2);
        s.record(MessageClass::Forward, 3);
        s.record(MessageClass::Retry, 4);
        s.record(MessageClass::DataResponse, 100);
        s.record(MessageClass::Writeback, 100);
        assert_eq!(s.request_deliveries(), 9);
    }

    #[test]
    fn totals() {
        let mut s = TrafficStats::default();
        s.record(MessageClass::Request, 15);
        s.record(MessageClass::DataResponse, 1);
        assert_eq!(s.total_bytes(), 15 * 8 + 72);
        assert_eq!(s.total_messages(), 2);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = TrafficStats::default();
        a.record(MessageClass::Request, 5);
        let mut b = TrafficStats::default();
        b.record(MessageClass::Request, 7);
        b.record(MessageClass::Control, 1);
        a.merge(&b);
        assert_eq!(a.class(MessageClass::Request).deliveries, 12);
        assert_eq!(a.class(MessageClass::Control).messages, 1);
    }

    #[test]
    fn link_ledger_reconciles_only_when_balanced() {
        let mut l = LinkStats::with_links(2);
        l.injected += 3;
        l.delivered += 3;
        l.per_link_injected[1] += 3;
        l.per_link_delivered[1] += 3;
        assert!(l.is_reconciled());
        l.assert_reconciled();
        l.per_link_delivered[1] -= 1;
        assert!(!l.is_reconciled(), "per-link drop must unbalance");
        l.per_link_delivered[1] += 1;
        l.delivered += 1;
        assert!(!l.is_reconciled(), "aggregate duplicate must unbalance");
    }

    #[test]
    fn display_skips_empty_classes() {
        let mut s = TrafficStats::default();
        s.record(MessageClass::Retry, 2);
        let text = s.to_string();
        assert!(text.contains("retry"));
        assert!(!text.contains("writeback"));
    }
}
