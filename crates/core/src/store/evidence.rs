//! The serializable `Evidence` model: everything a sink must not lose.
//!
//! The paper's sink accrues traceback evidence *incrementally* over a long
//! collection window — order-matrix edges, per-node support counts,
//! pipeline counters, the quarantine set. [`Evidence`] gathers that state
//! (previously scattered across `SinkEngine`, `RouteReconstructor`,
//! `QuarantineFilter`, and `SinkCounters`) into one explicit value with a
//! canonical byte encoding, so it can be persisted, diffed, and replayed.
//!
//! Two algebraic properties carry the whole durability design:
//!
//! * **Evidence is a commutative monoid under [`Evidence::merge`]** —
//!   counters and support counts sum, node/edge/quarantine sets union,
//!   `first_unequivocal` takes the minimum. Merging partitions of a packet
//!   stream in any order equals processing the whole stream sequentially
//!   (the same property `SinkEngine::absorb` relies on).
//! * **Evidence grows monotonically** — no pipeline step ever removes a
//!   node, edge, or count. The growth between two checkpoints is therefore
//!   itself an `Evidence` value, and `prev.merge(&delta) == now`, which is
//!   what lets a store persist compact deltas instead of full snapshots.
//!   `SinkEngine` records that delta as the evidence grows, so a
//!   checkpoint costs the delta's size, not the evidence's.

use std::collections::{BTreeMap, BTreeSet};

use pnm_wire::NodeId;

use crate::sink::SinkCounters;
use crate::store::StoreError;

/// Hard cap on a single encoded evidence record; a declared length beyond
/// this is rejected before any allocation.
pub const MAX_EVIDENCE_BYTES: usize = 64 << 20;

/// A complete, serializable snapshot of one engine's traceback evidence.
///
/// # Examples
///
/// ```
/// use pnm_core::store::Evidence;
///
/// let mut a = Evidence::default();
/// a.nodes.insert(1);
/// a.edges.insert((1, 2));
/// let bytes = a.to_bytes();
/// assert_eq!(Evidence::from_bytes(&bytes)?, a);
/// # Ok::<(), pnm_core::store::StoreError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Evidence {
    /// Cumulative pipeline counters.
    pub counters: SinkCounters,
    /// Verified chains folded into the route graph.
    pub chains_observed: usize,
    /// Raw ids of every node observed in a verified mark.
    pub nodes: BTreeSet<u16>,
    /// Order-matrix edges `(upstream, downstream)`.
    pub edges: BTreeSet<(u16, u16)>,
    /// Chains whose most-upstream element was this node.
    pub head_support: BTreeMap<u16, usize>,
    /// Chains in which the pair appeared as a direct upstream relation.
    pub edge_support: BTreeMap<(u16, u16), usize>,
    /// Raw ids of quarantined nodes.
    pub quarantined: BTreeSet<u16>,
    /// Packet count at which identification first became unequivocal.
    pub first_unequivocal: Option<u64>,
}

/// The 11 counter fields in canonical (declaration) order.
fn counter_fields(c: &SinkCounters) -> [usize; 11] {
    [
        c.packets,
        c.hash_count,
        c.marks_verified,
        c.marks_rejected,
        c.table_builds,
        c.table_cache_hits,
        c.resolver_fallback_scans,
        c.suspicious,
        c.benign,
        c.malformed,
        c.duplicates_suppressed,
    ]
}

fn counters_from_fields(f: [usize; 11]) -> SinkCounters {
    SinkCounters {
        packets: f[0],
        hash_count: f[1],
        marks_verified: f[2],
        marks_rejected: f[3],
        table_builds: f[4],
        table_cache_hits: f[5],
        resolver_fallback_scans: f[6],
        suspicious: f[7],
        benign: f[8],
        malformed: f[9],
        duplicates_suppressed: f[10],
    }
}

/// The field-wise difference `now − prev` of two readings of one
/// monotone counter set.
pub(crate) fn counters_since(now: &SinkCounters, prev: &SinkCounters) -> SinkCounters {
    let now = counter_fields(now);
    let old = counter_fields(prev);
    let mut diff = [0usize; 11];
    for i in 0..11 {
        debug_assert!(now[i] >= old[i], "counters must be monotone");
        diff[i] = now[i].saturating_sub(old[i]);
    }
    counters_from_fields(diff)
}

/// Incremental big-endian reader over a byte slice with structured errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, off: 0 }
    }

    fn need(&self, n: usize, context: &'static str) -> Result<(), StoreError> {
        if self.bytes.len() - self.off < n {
            return Err(StoreError::Corrupt {
                context,
                offset: self.off as u64,
            });
        }
        Ok(())
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, StoreError> {
        self.need(1, context)?;
        let v = self.bytes[self.off];
        self.off += 1;
        Ok(v)
    }

    fn u16(&mut self, context: &'static str) -> Result<u16, StoreError> {
        self.need(2, context)?;
        let v = u16::from_be_bytes([self.bytes[self.off], self.bytes[self.off + 1]]);
        self.off += 2;
        Ok(v)
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, StoreError> {
        self.need(8, context)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[self.off..self.off + 8]);
        self.off += 8;
        Ok(u64::from_be_bytes(buf))
    }

    /// An element count whose `count * elem_size` must fit in the
    /// remaining bytes — a corrupted length field can never drive a long
    /// loop or an unbounded allocation.
    fn count(&mut self, elem_size: usize, context: &'static str) -> Result<usize, StoreError> {
        let declared = self.u64(context)? as usize;
        let remaining = self.bytes.len() - self.off;
        if declared
            .checked_mul(elem_size)
            .is_none_or(|need| need > remaining)
        {
            return Err(StoreError::Corrupt {
                context,
                offset: self.off as u64,
            });
        }
        Ok(declared)
    }

    fn finish(&self) -> Result<(), StoreError> {
        if self.off != self.bytes.len() {
            return Err(StoreError::Corrupt {
                context: "trailing bytes after evidence",
                offset: self.off as u64,
            });
        }
        Ok(())
    }
}

impl Evidence {
    /// `true` when every field is zero/empty — the identity of
    /// [`Evidence::merge`]. Empty deltas are not worth a log record.
    pub fn is_empty(&self) -> bool {
        *self == Evidence::default()
    }

    /// Folds `other` into `self`: counters and support counts sum, sets
    /// union, `first_unequivocal` takes the minimum. Commutative and
    /// associative, with the empty evidence as identity.
    pub fn merge(&mut self, other: &Evidence) {
        self.counters += other.counters;
        self.chains_observed += other.chains_observed;
        self.nodes.extend(other.nodes.iter().copied());
        self.edges.extend(other.edges.iter().copied());
        for (&n, &c) in &other.head_support {
            *self.head_support.entry(n).or_default() += c;
        }
        for (&e, &c) in &other.edge_support {
            *self.edge_support.entry(e).or_default() += c;
        }
        self.quarantined.extend(other.quarantined.iter().copied());
        self.first_unequivocal = match (self.first_unequivocal, other.first_unequivocal) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// The exact difference `self − prev`, valid because evidence grows
    /// monotonically: counters and support counts subtract field-wise,
    /// sets take the set difference. Satisfies
    /// `prev.merge(&self.delta_since(&prev)) == self` whenever `prev` is a
    /// past state of the same accumulation (debug-asserted field-wise).
    ///
    /// The test oracle for the engine's incremental checkpoint delta,
    /// which must equal this byte for byte at every checkpoint.
    #[cfg(test)]
    pub(crate) fn delta_since(&self, prev: &Evidence) -> Evidence {
        debug_assert!(self.chains_observed >= prev.chains_observed);
        let head_support = self
            .head_support
            .iter()
            .filter_map(|(&n, &c)| {
                let d = c.saturating_sub(prev.head_support.get(&n).copied().unwrap_or(0));
                (d > 0).then_some((n, d))
            })
            .collect();
        let edge_support = self
            .edge_support
            .iter()
            .filter_map(|(&e, &c)| {
                let d = c.saturating_sub(prev.edge_support.get(&e).copied().unwrap_or(0));
                (d > 0).then_some((e, d))
            })
            .collect();
        let first_unequivocal = match (prev.first_unequivocal, self.first_unequivocal) {
            (Some(a), Some(b)) if a == b => None,
            (_, now) => now,
        };
        Evidence {
            counters: counters_since(&self.counters, &prev.counters),
            chains_observed: self.chains_observed.saturating_sub(prev.chains_observed),
            nodes: self.nodes.difference(&prev.nodes).copied().collect(),
            edges: self.edges.difference(&prev.edges).copied().collect(),
            head_support,
            edge_support,
            quarantined: self
                .quarantined
                .difference(&prev.quarantined)
                .copied()
                .collect(),
            first_unequivocal,
        }
    }

    /// Quarantined ids as [`NodeId`]s.
    pub fn quarantined_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.quarantined.iter().map(|&n| NodeId(n))
    }

    /// Canonical byte encoding: fixed-width big-endian fields, every
    /// collection length-prefixed — the same injective-encoding idiom as
    /// the `pnm-wire` packet formats, so identical evidence always
    /// produces identical bytes (CRC framing and digest comparison both
    /// rely on this).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        for field in counter_fields(&self.counters) {
            out.extend_from_slice(&(field as u64).to_be_bytes());
        }
        out.extend_from_slice(&(self.chains_observed as u64).to_be_bytes());
        match self.first_unequivocal {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_be_bytes());
            }
            None => out.push(0),
        }
        out.extend_from_slice(&(self.nodes.len() as u64).to_be_bytes());
        for &n in &self.nodes {
            out.extend_from_slice(&n.to_be_bytes());
        }
        out.extend_from_slice(&(self.edges.len() as u64).to_be_bytes());
        for &(u, v) in &self.edges {
            out.extend_from_slice(&u.to_be_bytes());
            out.extend_from_slice(&v.to_be_bytes());
        }
        out.extend_from_slice(&(self.head_support.len() as u64).to_be_bytes());
        for (&n, &c) in &self.head_support {
            out.extend_from_slice(&n.to_be_bytes());
            out.extend_from_slice(&(c as u64).to_be_bytes());
        }
        out.extend_from_slice(&(self.edge_support.len() as u64).to_be_bytes());
        for (&(u, v), &c) in &self.edge_support {
            out.extend_from_slice(&u.to_be_bytes());
            out.extend_from_slice(&v.to_be_bytes());
            out.extend_from_slice(&(c as u64).to_be_bytes());
        }
        out.extend_from_slice(&(self.quarantined.len() as u64).to_be_bytes());
        for &n in &self.quarantined {
            out.extend_from_slice(&n.to_be_bytes());
        }
        out
    }

    /// Total encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        11 * 8
            + 8
            + 1
            + self.first_unequivocal.map_or(0, |_| 8)
            + 8
            + 2 * self.nodes.len()
            + 8
            + 4 * self.edges.len()
            + 8
            + 10 * self.head_support.len()
            + 8
            + 12 * self.edge_support.len()
            + 8
            + 2 * self.quarantined.len()
    }

    /// Parses a canonical encoding, requiring exact consumption.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on truncation, length fields that
    /// exceed the remaining bytes, trailing bytes, or collection entries
    /// out of canonical (strictly increasing) order — never panics and
    /// never allocates from an attacker-controlled length alone. The
    /// ordering check makes decoding injective: a successful parse
    /// re-encodes byte-identically, so no two distinct byte strings can
    /// claim the same evidence.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() > MAX_EVIDENCE_BYTES {
            return Err(StoreError::Corrupt {
                context: "evidence record oversized",
                offset: 0,
            });
        }
        let mut c = Cursor::new(bytes);
        let mut fields = [0usize; 11];
        for f in fields.iter_mut() {
            *f = c.u64("evidence counters")? as usize;
        }
        let chains_observed = c.u64("evidence chains")? as usize;
        let first_unequivocal = match c.u8("evidence first-unequivocal flag")? {
            0 => None,
            1 => Some(c.u64("evidence first-unequivocal")?),
            _ => {
                return Err(StoreError::Corrupt {
                    context: "evidence first-unequivocal flag",
                    offset: 0,
                })
            }
        };
        // Canonical order: every collection is emitted by BTree iteration,
        // so entries must arrive strictly increasing. Anything else is a
        // non-canonical encoding (the set would silently re-sort or
        // deduplicate on re-encode) and is rejected as corrupt.
        fn canonical<K: Ord>(
            last: &mut Option<K>,
            key: K,
            context: &'static str,
        ) -> Result<(), StoreError> {
            if last.as_ref().is_some_and(|prev| *prev >= key) {
                return Err(StoreError::Corrupt { context, offset: 0 });
            }
            *last = Some(key);
            Ok(())
        }
        let mut nodes = BTreeSet::new();
        let mut last = None;
        for _ in 0..c.count(2, "evidence node count")? {
            let n = c.u16("evidence node")?;
            canonical(&mut last, n, "evidence nodes out of order")?;
            nodes.insert(n);
        }
        let mut edges = BTreeSet::new();
        let mut last = None;
        for _ in 0..c.count(4, "evidence edge count")? {
            let u = c.u16("evidence edge")?;
            let v = c.u16("evidence edge")?;
            canonical(&mut last, (u, v), "evidence edges out of order")?;
            edges.insert((u, v));
        }
        let mut head_support = BTreeMap::new();
        let mut last = None;
        for _ in 0..c.count(10, "evidence head-support count")? {
            let n = c.u16("evidence head-support node")?;
            let v = c.u64("evidence head-support value")? as usize;
            canonical(&mut last, n, "evidence head support out of order")?;
            head_support.insert(n, v);
        }
        let mut edge_support = BTreeMap::new();
        let mut last = None;
        for _ in 0..c.count(12, "evidence edge-support count")? {
            let u = c.u16("evidence edge-support edge")?;
            let v = c.u16("evidence edge-support edge")?;
            let s = c.u64("evidence edge-support value")? as usize;
            canonical(&mut last, (u, v), "evidence edge support out of order")?;
            edge_support.insert((u, v), s);
        }
        let mut quarantined = BTreeSet::new();
        let mut last = None;
        for _ in 0..c.count(2, "evidence quarantine count")? {
            let n = c.u16("evidence quarantine node")?;
            canonical(&mut last, n, "evidence quarantine out of order")?;
            quarantined.insert(n);
        }
        c.finish()?;
        Ok(Evidence {
            counters: counters_from_fields(fields),
            chains_observed,
            nodes,
            edges,
            head_support,
            edge_support,
            quarantined,
            first_unequivocal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Evidence {
        Evidence {
            counters: SinkCounters {
                packets: 7,
                hash_count: 70,
                marks_verified: 21,
                marks_rejected: 2,
                table_builds: 3,
                table_cache_hits: 4,
                resolver_fallback_scans: 1,
                suspicious: 5,
                benign: 2,
                malformed: 1,
                duplicates_suppressed: 1,
            },
            chains_observed: 6,
            nodes: [1, 2, 3, 9].into_iter().collect(),
            edges: [(1, 2), (2, 3)].into_iter().collect(),
            head_support: [(1, 5), (2, 1)].into_iter().collect(),
            edge_support: [((1, 2), 5), ((2, 3), 4)].into_iter().collect(),
            quarantined: [1, 2].into_iter().collect(),
            first_unequivocal: Some(4),
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for ev in [Evidence::default(), sample()] {
            let bytes = ev.to_bytes();
            assert_eq!(bytes.len(), ev.encoded_len());
            assert_eq!(Evidence::from_bytes(&bytes).unwrap(), ev);
        }
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Evidence::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Evidence::from_bytes(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn merge_then_delta_round_trips() {
        let mut a = sample();
        let mut b = sample();
        b.nodes.insert(40);
        b.edges.insert((3, 40));
        b.counters.packets += 3;
        b.chains_observed += 2;
        *b.head_support.entry(1).or_default() += 2;
        b.quarantined.insert(40);
        let mut merged = a.clone();
        merged.merge(&b);
        let delta = merged.delta_since(&a);
        a.merge(&delta);
        assert_eq!(a, merged);
    }

    #[test]
    fn delta_of_self_is_empty() {
        let ev = sample();
        assert!(ev.delta_since(&ev).is_empty());
        assert!(Evidence::default().is_empty());
        assert!(!ev.is_empty());
    }

    #[test]
    fn first_unequivocal_delta_preserves_minimum() {
        let mut prev = Evidence::default();
        // Setting: None -> Some.
        let mut now = Evidence {
            first_unequivocal: Some(9),
            ..Evidence::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.first_unequivocal, Some(9));
        prev.merge(&d);
        assert_eq!(prev.first_unequivocal, Some(9));
        // Lowering (via an absorb): Some(9) -> Some(4).
        now.first_unequivocal = Some(4);
        let d = now.delta_since(&prev);
        assert_eq!(d.first_unequivocal, Some(4));
        prev.merge(&d);
        assert_eq!(prev.first_unequivocal, Some(4));
        // Unchanged: no delta payload.
        assert_eq!(now.delta_since(&prev).first_unequivocal, None);
    }

    #[test]
    fn oversized_length_fields_rejected_without_allocation() {
        // A node count claiming u64::MAX entries must fail the
        // remaining-bytes check, not attempt a huge loop.
        let mut bytes = Evidence::default().to_bytes();
        let node_count_off = 11 * 8 + 8 + 1;
        bytes[node_count_off..node_count_off + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            Evidence::from_bytes(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
