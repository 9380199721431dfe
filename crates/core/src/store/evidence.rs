//! The serializable `Evidence` model: everything a verdict depends on.
//!
//! The paper's verdict is a function of the verified mark pairs the sink
//! has collected: the order matrix, its support, and the quarantine it
//! implies (§4.2, Theorem 4). [`Evidence`] holds exactly that state — the
//! route graph with its support counts, the quarantine set, and the
//! [`VerdictCounters`] — as one value with a canonical byte encoding, so
//! it can be persisted, diffed, replayed and compared byte for byte.
//!
//! What an engine does to reach a verdict is not evidence. The work
//! counters (`hash_count`, `table_builds`, `table_cache_hits`) depend on
//! each engine's table cache and on the route it has learned, and the
//! packet index at which the source first became unequivocal depends on
//! arrival order; both stay on the engine ([`crate::SinkEngine::counters`],
//! [`crate::SinkEngine::first_unequivocal`]).
//!
//! Two algebraic properties carry the whole durability design:
//!
//! * **Evidence is a commutative monoid under [`Evidence::merge`]** —
//!   counters and support counts sum, node/edge/quarantine sets union.
//!   Every field is a sum or a union over packets, so merging the evidence
//!   of any partition of a packet stream, in any order, equals the
//!   evidence of the whole stream processed sequentially, byte for byte
//!   (the property `SinkEngine::absorb` and a sharded pool's drain rely
//!   on).
//! * **Evidence grows monotonically** — no pipeline step ever removes a
//!   node, edge, or count. The growth between two checkpoints is therefore
//!   itself an `Evidence` value, and `prev.merge(&delta) == now`, which is
//!   what lets a store persist compact deltas instead of full snapshots.
//!   `SinkEngine` records that delta as the evidence grows, so a
//!   checkpoint costs the delta's size, not the evidence's.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::AddAssign;

use pnm_wire::NodeId;

use crate::store::StoreError;

/// Hard cap on a single encoded evidence record; a declared length beyond
/// this is rejected before any allocation.
pub const MAX_EVIDENCE_BYTES: usize = 64 << 20;

/// The pipeline counters a verdict's evidence carries: the
/// [`SinkCounters`](crate::SinkCounters) fields that count packets and
/// marks, which any split of a packet stream sums to the same value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounters {
    /// Packets offered to the pipeline (including rejected ones).
    pub packets: usize,
    /// Marks whose MAC verified.
    pub marks_verified: usize,
    /// Marks rejected (invalid MAC, unknown key, or past the first invalid
    /// mark).
    pub marks_rejected: usize,
    /// Packets the classifier admitted as suspicious.
    pub suspicious: usize,
    /// Packets the classifier rejected as benign.
    pub benign: usize,
    /// Byte buffers that failed wire decoding.
    pub malformed: usize,
    /// Packets rejected as exact duplicates.
    pub duplicates_suppressed: usize,
}

impl VerdictCounters {
    /// The fields in canonical (declaration) order.
    fn fields(&self) -> [usize; 7] {
        [
            self.packets,
            self.marks_verified,
            self.marks_rejected,
            self.suspicious,
            self.benign,
            self.malformed,
            self.duplicates_suppressed,
        ]
    }

    fn from_fields(f: [usize; 7]) -> Self {
        VerdictCounters {
            packets: f[0],
            marks_verified: f[1],
            marks_rejected: f[2],
            suspicious: f[3],
            benign: f[4],
            malformed: f[5],
            duplicates_suppressed: f[6],
        }
    }

    /// The field-wise difference `self − prev` of two readings of one
    /// monotone counter set.
    pub(crate) fn since(&self, prev: &VerdictCounters) -> VerdictCounters {
        let (now, old) = (self.fields(), prev.fields());
        VerdictCounters::from_fields(std::array::from_fn(|i| {
            debug_assert!(now[i] >= old[i], "counters must be monotone");
            now[i].saturating_sub(old[i])
        }))
    }
}

impl AddAssign for VerdictCounters {
    fn add_assign(&mut self, rhs: VerdictCounters) {
        let (a, b) = (self.fields(), rhs.fields());
        *self = VerdictCounters::from_fields(std::array::from_fn(|i| a[i] + b[i]));
    }
}

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
    /// Cumulative verdict counters.
    pub counters: VerdictCounters,
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
    /// Not evidence: never set, encoded or merged. Kept only so code
    /// written against the field while it was still evidence compiles.
    #[doc(hidden)]
    pub first_unequivocal: Option<u64>,
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

    fn usizes<const N: usize>(&mut self, context: &'static str) -> Result<[usize; N], StoreError> {
        let mut out = [0usize; N];
        for v in out.iter_mut() {
            *v = self.u64(context)? as usize;
        }
        Ok(out)
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
    /// union. Commutative and associative, with the empty evidence as
    /// identity.
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
        Evidence {
            counters: self.counters.since(&prev.counters),
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
            first_unequivocal: None,
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
        for field in self.counters.fields() {
            out.extend_from_slice(&(field as u64).to_be_bytes());
        }
        out.extend_from_slice(&(self.chains_observed as u64).to_be_bytes());
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
        7 * 8
            + 8
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
        Self::decode(bytes, false)
    }

    /// Parses an evidence record written by evidence-log format v1, which
    /// also carried the four table-cache work counters and a
    /// first-unequivocal packet index. Those are engine-local, not
    /// evidence, so they are read and dropped.
    pub(crate) fn from_v1_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::decode(bytes, true)
    }

    fn decode(bytes: &[u8], v1: bool) -> Result<Self, StoreError> {
        if bytes.len() > MAX_EVIDENCE_BYTES {
            return Err(StoreError::Corrupt {
                context: "evidence record oversized",
                offset: 0,
            });
        }
        let mut c = Cursor::new(bytes);
        let fields = if v1 {
            // v1 interleaved four work counters (hash_count, then
            // table_builds, table_cache_hits and a since-removed count of
            // fallback scans) with the seven verdict counters.
            let f: [usize; 11] = c.usizes("evidence counters")?;
            [f[0], f[2], f[3], f[7], f[8], f[9], f[10]]
        } else {
            c.usizes("evidence counters")?
        };
        let chains_observed = c.u64("evidence chains")? as usize;
        if v1 {
            match c.u8("evidence first-unequivocal flag")? {
                0 => {}
                1 => {
                    c.u64("evidence first-unequivocal")?;
                }
                _ => {
                    return Err(StoreError::Corrupt {
                        context: "evidence first-unequivocal flag",
                        offset: 0,
                    })
                }
            }
        }
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
            counters: VerdictCounters::from_fields(fields),
            chains_observed,
            nodes,
            edges,
            head_support,
            edge_support,
            quarantined,
            first_unequivocal: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> Evidence {
        Evidence {
            counters: VerdictCounters {
                packets: 7,
                marks_verified: 21,
                marks_rejected: 2,
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
            first_unequivocal: None,
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
    fn oversized_length_fields_rejected_without_allocation() {
        // A node count claiming u64::MAX entries must fail the
        // remaining-bytes check, not attempt a huge loop.
        let mut bytes = Evidence::default().to_bytes();
        let node_count_off = 7 * 8 + 8;
        bytes[node_count_off..node_count_off + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(
            Evidence::from_bytes(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }
}
