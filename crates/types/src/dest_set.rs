//! Destination sets: the central abstraction of the paper.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
#[cfg(test)]
use crate::node::MAX_NODES;

/// Number of `u64` words backing the default-width [`DestSet`]
/// (`MAX_NODES / 64`).
#[cfg(test)]
pub(crate) const WORDS: usize = MAX_NODES / 64;

/// A set of nodes that should receive a coherence request.
///
/// The *destination set* is the collection of processors (or nodes) that
/// receive a particular coherence request. Snooping protocols use the
/// maximal destination set (all nodes); directory protocols use the
/// minimal one; destination-set predictors pick something in between.
///
/// Implemented as a fixed `[u64; W]` bitmask (bit *i* of word *i / 64*
/// = node *i*), so all operations are O(1) word-parallel. The word
/// count is a compile-time parameter: `W = 4` (the default, alias
/// [`DestSet256`]) covers the 128- and 256-node scaling studies, while
/// `W = 1` ([`DestSet64`]) monomorphizes paper-scale (≤ 64-node) runs
/// down to single-word operations with no widening tax. Code that never
/// exceeds 64 nodes on its hot path should be generic over `W` so the
/// simulator can instantiate it at either width.
///
/// # Example
///
/// ```
/// use dsp_types::{DestSet, NodeId};
///
/// let minimal: DestSet = DestSet::from_iter([NodeId::new(0), NodeId::new(4)]);
/// let predicted = minimal | DestSet::single(NodeId::new(9));
/// assert!(predicted.is_superset(minimal));
/// assert_eq!(predicted.len(), 3);
/// assert_eq!(predicted.to_string(), "{P0, P4, P9}");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct DestSet<const W: usize = 4>([u64; W]);

// Serde impls are written by hand (the derive macro cannot restate a
// const-generic default in its impl header); both forward transparently
// to the backing word array, exactly as `#[serde(transparent)]` did
// when the width was fixed.
impl<const W: usize> Serialize for DestSet<W> {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl<const W: usize> Deserialize for DestSet<W> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::de::Error> {
        <[u64; W]>::from_value(v).map(DestSet)
    }
}

/// A destination set over nodes `0..64`: one word, the natural width
/// for paper-scale (16-node) and medium (≤ 64-node) systems.
pub type DestSet64 = DestSet<1>;

/// A destination set over nodes `0..256` ([`MAX_NODES`](crate::MAX_NODES)): four words,
/// the width required by the 128- and 256-node scaling studies and the
/// default for width-agnostic code.
pub type DestSet256 = DestSet<4>;

impl<const W: usize> DestSet<W> {
    /// Highest node index this width can represent, plus one.
    pub const CAPACITY: usize = W * 64;

    /// The empty destination set.
    #[inline]
    pub const fn empty() -> Self {
        DestSet([0; W])
    }

    /// The set containing exactly one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is beyond this width's [`Self::CAPACITY`].
    #[inline]
    pub fn single(node: NodeId) -> Self {
        let mut words = [0; W];
        words[node.index() >> 6] = 1u64 << (node.index() & 63);
        DestSet(words)
    }

    /// The maximal destination set of an `n`-node system (what broadcast
    /// snooping uses for every request).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds this width's [`Self::CAPACITY`].
    #[inline]
    pub fn broadcast(n: usize) -> Self {
        assert!(
            n <= Self::CAPACITY,
            "system size {n} out of range (max {} at width {W})",
            Self::CAPACITY
        );
        let mut words = [0; W];
        let full = n / 64;
        words[..full].fill(u64::MAX);
        if !n.is_multiple_of(64) {
            words[full] = (1u64 << (n % 64)) - 1;
        }
        DestSet(words)
    }

    /// Builds a set of the first 64 nodes from a raw bitmask (bit *i* =
    /// node *i*); the convenient constructor for tests and synthetic
    /// workloads on paper-sized systems. Use [`DestSet::from_words`]
    /// when nodes 64+ are in play.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        let mut words = [0; W];
        words[0] = bits;
        DestSet(words)
    }

    /// The raw bitmask of the first 64 nodes (bit *i* = node *i*); the
    /// low word of [`DestSet::words`]. Lossless for systems of up to 64
    /// nodes.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0[0]
    }

    /// Builds a set from its full word representation (bit *i* of word
    /// *i / 64* = node *i*).
    #[inline]
    pub const fn from_words(words: [u64; W]) -> Self {
        DestSet(words)
    }

    /// The full word representation (bit *i* of word *i / 64* = node
    /// *i*).
    #[inline]
    pub const fn words(self) -> [u64; W] {
        self.0
    }

    /// Re-expresses the set at word width `W2`.
    ///
    /// Widening is always lossless. Narrowing asserts that no member
    /// lies beyond the new width — callers select widths from the
    /// system size, so a lossy narrow is a logic error, not data.
    #[inline]
    #[must_use]
    pub fn resize<const W2: usize>(self) -> DestSet<W2> {
        let mut words = [0u64; W2];
        let mut i = 0;
        while i < W {
            if i < W2 {
                words[i] = self.0[i];
            } else {
                assert!(
                    self.0[i] == 0,
                    "resize to width {W2} would drop nodes {}..",
                    W2 * 64
                );
            }
            i += 1;
        }
        DestSet(words)
    }

    /// OR of every word above word 0 — zero exactly when the set is
    /// confined to nodes 0..64.
    ///
    /// Every paper-scale system (16 nodes) lives entirely in word 0, so
    /// the *wide* word loops below test this first and take a
    /// single-word path. At `W = 1` the check is gone entirely: the
    /// single-word case *is* the only case, so the monomorphized code
    /// has no residual branch (the PR 6 follow-up to the ROADMAP's
    /// "upper-words-zero fast path" item).
    #[inline]
    const fn upper_or(self) -> u64 {
        let mut acc = 0;
        let mut i = 1;
        while i < W {
            acc |= self.0[i];
            i += 1;
        }
        acc
    }

    /// Whether the set contains no nodes.
    #[inline]
    pub const fn is_empty(self) -> bool {
        if W == 1 {
            return self.0[0] == 0;
        }
        self.0[0] | self.upper_or() == 0
    }

    /// Number of nodes in the set.
    #[inline]
    pub const fn len(self) -> usize {
        if W == 1 || self.upper_or() == 0 {
            return self.0[0].count_ones() as usize;
        }
        let mut total = 0;
        let mut i = 0;
        while i < W {
            total += self.0[i].count_ones() as usize;
            i += 1;
        }
        total
    }

    /// Whether `node` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `node` is beyond this width's [`Self::CAPACITY`].
    #[inline]
    pub fn contains(self, node: NodeId) -> bool {
        self.0[node.index() >> 6] & (1u64 << (node.index() & 63)) != 0
    }

    /// Adds `node` to the set. Returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let word = &mut self.0[node.index() >> 6];
        let bit = 1u64 << (node.index() & 63);
        let newly = *word & bit == 0;
        *word |= bit;
        newly
    }

    /// Removes `node` from the set. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let word = &mut self.0[node.index() >> 6];
        let bit = 1u64 << (node.index() & 63);
        let present = *word & bit != 0;
        *word &= !bit;
        present
    }

    /// Returns `self` with `node` added (consuming builder style).
    #[inline]
    #[must_use]
    pub fn with(mut self, node: NodeId) -> Self {
        self.insert(node);
        self
    }

    /// Returns `self` with `node` removed.
    #[inline]
    #[must_use]
    pub fn without(mut self, node: NodeId) -> Self {
        self.remove(node);
        self
    }

    /// Whether every node of `other` is in `self`.
    #[inline]
    pub const fn is_superset(self, other: Self) -> bool {
        if W == 1 || self.upper_or() | other.upper_or() == 0 {
            return self.0[0] & other.0[0] == other.0[0];
        }
        let mut i = 0;
        while i < W {
            if self.0[i] & other.0[i] != other.0[i] {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Whether every node of `self` is in `other`.
    #[inline]
    pub const fn is_subset(self, other: Self) -> bool {
        other.is_superset(self)
    }

    /// Set union.
    #[inline]
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        let mut words = self.0;
        let mut i = 0;
        while i < W {
            words[i] |= other.0[i];
            i += 1;
        }
        DestSet(words)
    }

    /// Set intersection.
    #[inline]
    #[must_use]
    pub const fn intersection(self, other: Self) -> Self {
        let mut words = self.0;
        let mut i = 0;
        while i < W {
            words[i] &= other.0[i];
            i += 1;
        }
        DestSet(words)
    }

    /// Set difference (`self` minus `other`).
    #[inline]
    #[must_use]
    pub const fn difference(self, other: Self) -> Self {
        let mut words = self.0;
        let mut i = 0;
        while i < W {
            words[i] &= !other.0[i];
            i += 1;
        }
        DestSet(words)
    }

    /// The complement within an `n`-node system: every node of the
    /// system not in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds this width's [`Self::CAPACITY`].
    #[inline]
    #[must_use]
    pub fn complement(self, n: usize) -> Self {
        Self::broadcast(n).difference(self)
    }

    /// Iterates over the members in increasing node-index order.
    ///
    /// The iterator carries the index just past the highest populated
    /// word, so wide sets confined to word 0 never scan the empty upper
    /// words — neither per step nor when the iteration drains. At
    /// `W = 1` the limit computation disappears entirely.
    #[inline]
    pub fn iter(self) -> DestSetIter<W> {
        let limit = if W == 1 || self.upper_or() == 0 {
            usize::from(self.0[0] != 0)
        } else {
            let mut l = W;
            while self.0[l - 1] == 0 {
                l -= 1;
            }
            l
        };
        DestSetIter {
            words: self.0,
            word: 0,
            limit,
        }
    }

    /// The lowest-indexed node in the set, if any.
    #[inline]
    pub fn first(self) -> Option<NodeId> {
        if self.0[0] != 0 {
            return Some(NodeId::new_unchecked(self.0[0].trailing_zeros() as u8));
        }
        let mut i = 1;
        while i < W {
            if self.0[i] != 0 {
                let idx = i * 64 + self.0[i].trailing_zeros() as usize;
                return Some(NodeId::new_unchecked(idx as u8));
            }
            i += 1;
        }
        None
    }
}

impl<const W: usize> Default for DestSet<W> {
    fn default() -> Self {
        DestSet::empty()
    }
}

impl<const W: usize> FromIterator<NodeId> for DestSet<W> {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = DestSet::empty();
        for node in iter {
            set.insert(node);
        }
        set
    }
}

impl<const W: usize> Extend<NodeId> for DestSet<W> {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for node in iter {
            self.insert(node);
        }
    }
}

impl<const W: usize> IntoIterator for DestSet<W> {
    type Item = NodeId;
    type IntoIter = DestSetIter<W>;

    fn into_iter(self) -> DestSetIter<W> {
        self.iter()
    }
}

impl<const W: usize> BitOr for DestSet<W> {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        self.union(rhs)
    }
}

impl<const W: usize> BitOrAssign for DestSet<W> {
    fn bitor_assign(&mut self, rhs: Self) {
        *self = self.union(rhs);
    }
}

impl<const W: usize> BitAnd for DestSet<W> {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        self.intersection(rhs)
    }
}

impl<const W: usize> BitAndAssign for DestSet<W> {
    fn bitand_assign(&mut self, rhs: Self) {
        *self = self.intersection(rhs);
    }
}

impl<const W: usize> Sub for DestSet<W> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.difference(rhs)
    }
}

impl<const W: usize> SubAssign for DestSet<W> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = self.difference(rhs);
    }
}

impl<const W: usize> fmt::Display for DestSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, node) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{node}")?;
        }
        write!(f, "}}")
    }
}

impl<const W: usize> fmt::Debug for DestSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DestSet{self}")
    }
}

/// The `digit`-th group of `width` bits of the `W * 64`-bit value, LSB
/// first; groups may straddle word boundaries (octal's 3-bit groups
/// do). Bits beyond the top word read as zero.
#[inline]
fn radix_digit<const W: usize>(words: &[u64; W], digit: usize, width: usize) -> u64 {
    let lo = digit * width;
    let word = lo / 64;
    if word >= W {
        return 0;
    }
    let off = lo % 64;
    let mut v = words[word] >> off;
    if off + width > 64 && word + 1 < W {
        v |= words[word + 1] << (64 - off);
    }
    v & ((1u64 << width) - 1)
}

/// Formats the set's `W * 64`-bit mask in a power-of-two radix (`width`
/// bits per digit), skipping leading zeros — identical to `u64`
/// formatting whenever only the low word is populated. Routed through
/// [`fmt::Formatter::pad_integral`] so alternate (`#`), width, and
/// zero-padding flags behave like the primitive integer impls.
fn fmt_radix<const W: usize>(
    words: &[u64; W],
    f: &mut fmt::Formatter<'_>,
    width: usize,
    prefix: &str,
    digits: &[u8],
) -> fmt::Result {
    let positions = (W * 64).div_ceil(width);
    let mut out = String::with_capacity(positions);
    for digit in (0..positions).rev() {
        let v = radix_digit(words, digit, width) as usize;
        if v != 0 || !out.is_empty() || digit == 0 {
            out.push(digits[v] as char);
        }
    }
    f.pad_integral(true, prefix, &out)
}

impl<const W: usize> fmt::Binary for DestSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_radix(&self.0, f, 1, "0b", b"01")
    }
}

impl<const W: usize> fmt::LowerHex for DestSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_radix(&self.0, f, 4, "0x", b"0123456789abcdef")
    }
}

impl<const W: usize> fmt::UpperHex for DestSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_radix(&self.0, f, 4, "0x", b"0123456789ABCDEF")
    }
}

impl<const W: usize> fmt::Octal for DestSet<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_radix(&self.0, f, 3, "0o", b"01234567")
    }
}

/// Iterator over the members of a [`DestSet`], in node-index order.
#[derive(Clone, Debug)]
pub struct DestSetIter<const W: usize = 4> {
    words: [u64; W],
    word: usize,
    /// One past the highest populated word at construction; words at
    /// and beyond it are zero and are never scanned.
    limit: usize,
}

impl<const W: usize> Iterator for DestSetIter<W> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.word < self.limit {
            let w = self.words[self.word];
            if w != 0 {
                let idx = self.word * 64 + w.trailing_zeros() as usize;
                self.words[self.word] = w & (w - 1);
                return Some(NodeId::new_unchecked(idx as u8));
            }
            self.word += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.word..self.limit]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for DestSetIter<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_set_has_no_members() {
        let s: DestSet = DestSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
    }

    #[test]
    fn broadcast_contains_all_nodes() {
        let s: DestSet = DestSet::broadcast(16);
        assert_eq!(s.len(), 16);
        for i in 0..16 {
            assert!(s.contains(n(i)));
        }
        assert!(!s.contains(n(16)));
    }

    #[test]
    fn broadcast_max_nodes_is_full_mask() {
        assert_eq!(DestSet::broadcast(MAX_NODES).words(), [u64::MAX; WORDS]);
        assert_eq!(DestSet::<WORDS>::broadcast(64).bits(), u64::MAX);
        assert_eq!(DestSet::<WORDS>::broadcast(64).words()[1..], [0; WORDS - 1]);
    }

    #[test]
    fn broadcast_straddles_word_boundaries() {
        for nodes in [63, 64, 65, 127, 128, 129, 255, 256] {
            let s: DestSet = DestSet::broadcast(nodes);
            assert_eq!(s.len(), nodes, "broadcast({nodes})");
            assert!(s.contains(n(nodes - 1)));
            if nodes < MAX_NODES {
                assert!(!s.contains(n(nodes)));
            }
        }
    }

    #[test]
    fn narrow_width_rejects_oversized_broadcast() {
        assert_eq!(DestSet64::broadcast(64).bits(), u64::MAX);
        let result = std::panic::catch_unwind(|| DestSet64::broadcast(65));
        assert!(result.is_err(), "width 1 cannot hold 65 nodes");
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut s: DestSet = DestSet::empty();
        assert!(s.insert(n(5)));
        assert!(!s.insert(n(5)));
        assert!(s.contains(n(5)));
        assert!(s.remove(n(5)));
        assert!(!s.remove(n(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn high_nodes_round_trip() {
        let mut s: DestSet = DestSet::empty();
        for i in [0usize, 63, 64, 127, 128, 191, 192, 255] {
            assert!(s.insert(n(i)));
        }
        assert_eq!(s.len(), 8);
        for i in [0usize, 63, 64, 127, 128, 191, 192, 255] {
            assert!(s.contains(n(i)));
            assert!(s.remove(n(i)));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn union_intersection_difference() {
        let a: DestSet = DestSet::from_iter([n(1), n(2), n(3), n(200)]);
        let b = DestSet::from_iter([n(3), n(4), n(200)]);
        assert_eq!(a | b, DestSet::from_iter([n(1), n(2), n(3), n(4), n(200)]));
        assert_eq!(a & b, DestSet::from_iter([n(3), n(200)]));
        assert_eq!(a - b, DestSet::from_iter([n(1), n(2)]));
    }

    #[test]
    fn complement_within_system() {
        let a: DestSet = DestSet::from_iter([n(1), n(100)]);
        let c = a.complement(128);
        assert_eq!(c.len(), 126);
        assert!(!c.contains(n(1)) && !c.contains(n(100)));
        assert!(c.contains(n(0)) && c.contains(n(127)));
    }

    #[test]
    fn subset_superset() {
        let a: DestSet = DestSet::from_iter([n(1), n(2)]);
        let b = DestSet::from_iter([n(1), n(2), n(9), n(70)]);
        assert!(a.is_subset(b));
        assert!(b.is_superset(a));
        assert!(!a.is_superset(b));
        assert!(a.is_subset(a));
    }

    #[test]
    fn iter_in_index_order() {
        let s: DestSet = DestSet::from_iter([n(9), n(0), n(33), n(130), n(64)]);
        let order: Vec<_> = s.iter().map(NodeId::index).collect();
        assert_eq!(order, vec![0, 9, 33, 64, 130]);
        assert_eq!(s.iter().len(), 5);
    }

    #[test]
    fn first_is_lowest_index() {
        let s: DestSet = DestSet::from_iter([n(7), n(3)]);
        assert_eq!(s.first(), Some(n(3)));
        let high: DestSet = DestSet::from_iter([n(200), n(90)]);
        assert_eq!(high.first(), Some(n(90)));
    }

    #[test]
    fn display_formats_members() {
        let s: DestSet = DestSet::from_iter([n(0), n(4), n(9)]);
        assert_eq!(s.to_string(), "{P0, P4, P9}");
        assert_eq!(DestSet::<4>::empty().to_string(), "{}");
    }

    #[test]
    fn debug_is_never_empty() {
        assert_eq!(format!("{:?}", DestSet::<4>::empty()), "DestSet{}");
    }

    #[test]
    fn with_without_builder_style() {
        let s: DestSet = DestSet::empty().with(n(2)).with(n(5)).without(n(2));
        assert_eq!(s, DestSet::single(n(5)));
    }

    #[test]
    fn assign_ops() {
        let mut s: DestSet = DestSet::from_iter([n(1), n(2)]);
        s |= DestSet::single(n(3));
        s &= DestSet::from_iter([n(2), n(3), n(4)]);
        s -= DestSet::single(n(3));
        assert_eq!(s, DestSet::single(n(2)));
    }

    #[test]
    fn extend_and_collect() {
        let mut s: DestSet = [n(1)].into_iter().collect();
        s.extend([n(2), n(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn numeric_formatting() {
        let s: DestSet = DestSet::from_iter([n(0), n(2)]);
        assert_eq!(format!("{s:b}"), "101");
        assert_eq!(format!("{s:x}"), "5");
        assert_eq!(format!("{s:o}"), "5");
    }

    #[test]
    fn numeric_formatting_matches_u64_for_low_words() {
        for bits in [0u64, 1, 5, 0xdead_beef, u64::MAX, 1 << 63] {
            let s: DestSet = DestSet::from_bits(bits);
            assert_eq!(format!("{s:b}"), format!("{bits:b}"));
            assert_eq!(format!("{s:x}"), format!("{bits:x}"));
            assert_eq!(format!("{s:X}"), format!("{bits:X}"));
            assert_eq!(format!("{s:o}"), format!("{bits:o}"));
            // Formatter flags route through pad_integral like u64's.
            assert_eq!(format!("{s:#x}"), format!("{bits:#x}"));
            assert_eq!(format!("{s:#b}"), format!("{bits:#b}"));
            assert_eq!(format!("{s:08x}"), format!("{bits:08x}"));
            assert_eq!(format!("{s:>12o}"), format!("{bits:>12o}"));
        }
    }

    #[test]
    fn numeric_formatting_above_64_nodes() {
        // Node 64 is bit 0 of word 1: 2^64 = 0x1_0000_0000_0000_0000.
        let s: DestSet = DestSet::single(n(64));
        assert_eq!(format!("{s:x}"), "10000000000000000");
        assert_eq!(format!("{s:X}"), "10000000000000000");
        // 2^64 in octal: bits 63..66 straddle the word boundary.
        assert_eq!(format!("{s:o}"), "2000000000000000000000");
        let top: DestSet = DestSet::single(n(255));
        assert_eq!(
            format!("{top:x}"),
            format!("8{}", "0".repeat(63)),
            "bit 255 is the top hex nibble"
        );
    }

    #[test]
    fn fast_path_agrees_with_wide_sets() {
        // The upper-words-zero fast paths must be observationally
        // invisible: low-word sets, straddling sets, and upper-only
        // sets answer identically through every word loop.
        let cases: [DestSet; 6] = [
            DestSet::empty(),
            DestSet::from_bits(0b1011),
            DestSet::from_bits(u64::MAX),
            DestSet::single(n(64)),
            DestSet::from_iter([n(3), n(64), n(200)]),
            DestSet::from_words([0, 0, 0, 1 << 63]),
        ];
        for s in cases {
            let members: Vec<NodeId> = s.iter().collect();
            assert_eq!(members.len(), s.len());
            assert_eq!(s.iter().len(), s.len(), "size_hint respects limit");
            assert_eq!(s.is_empty(), members.is_empty());
            assert_eq!(s.first(), members.first().copied());
            assert!(s.is_superset(s));
            for &m in &members {
                assert!(s.is_superset(DestSet::single(m)));
            }
            assert!(DestSet::broadcast(MAX_NODES).is_superset(s));
            if !s.is_empty() {
                assert!(!DestSet::empty().is_superset(s));
            }
        }
    }

    #[test]
    fn words_round_trip() {
        let words = [0x5u64, 0, 1 << 63, 0xffff];
        let s = DestSet::from_words(words);
        assert_eq!(s.words(), words);
        assert_eq!(s.bits(), 0x5);
        assert_eq!(
            s.len(),
            words.iter().map(|w| w.count_ones() as usize).sum::<usize>()
        );
    }

    #[test]
    fn resize_round_trips_and_narrows() {
        let narrow = DestSet64::from_bits(0b1010_0101);
        let wide: DestSet256 = narrow.resize();
        assert_eq!(wide.bits(), 0b1010_0101);
        assert_eq!(wide.words()[1..], [0; 3]);
        let back: DestSet64 = wide.resize();
        assert_eq!(back, narrow);
    }

    #[test]
    fn lossy_narrow_panics() {
        let wide = DestSet256::single(n(64));
        let result = std::panic::catch_unwind(|| wide.resize::<1>());
        assert!(result.is_err(), "narrowing away node 64 must panic");
    }
}
