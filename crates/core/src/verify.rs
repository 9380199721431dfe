//! Sink-side mark verification (§4.1 "Traceback", §4.2 "Mark Verification").
//!
//! The sink holds every node's key ([`pnm_crypto::KeyStore`]) and verifies a
//! packet's marks **backwards**: starting from the last mark, it checks
//! `MAC_i == H_{k_i}(M_{i-1} | id_i)`, where `M_{i-1}` is the packet with
//! marks `1..i-1` — i.e. each mark's MAC covers everything before it. The
//! first invalid MAC stops the walk; a mole lies within the one-hop
//! neighborhood of the last node whose MAC verified.
//!
//! For PNM's anonymous IDs the sink first maps each `i'` back to a real id
//! in an [`AnonTable`], the per-report table of `H'_{k_j}(M | j)` for every
//! provisioned node `j` — feasible thanks to the sink's computing power and
//! the low sensor data rate (§4.2). The sink engine grows that table a node
//! at a time, probing the nodes that earlier verified chains placed
//! directly upstream of the node resolved for the mark below, then, with
//! [`crate::SinkConfig::topology`], its physical neighbours (§7); a probe
//! miss completes it in one batch, and no node is hashed twice.
//!
//! Either table is checked by the one nested verifier,
//! [`SinkVerifier::verify_nested_with_table_batched`]: every mark's MAC in
//! one lane-parallel SHA-256 sweep. The §4.1 scalar backward walk survives
//! only in tests, as the oracle the lane paths are checked against.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use pnm_crypto::{
    anon_id_many_prepared, anon_id_prepared, verify_mark_mac_prepared, verify_mark_macs_prepared,
    AnonId, HmacKey, KeySchedule, KeyStore,
};
use pnm_wire::{MarkId, NodeId, Packet};

use crate::reconstruct::RouteReconstructor;
use crate::scheme::ExtendedAms;

/// How the sink interprets a packet's marks, matching the scheme the
/// network runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VerifyMode {
    /// Marks are unauthenticated plain IDs; the sink can only trust them.
    PlainTrust,
    /// Extended AMS: each MAC independently covers `report | id`.
    Ams,
    /// Nested: each MAC covers the entire preceding message (basic nested
    /// marking, the broken plain-ID probabilistic variant, and PNM).
    Nested,
}

/// Why backward verification stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every mark on the packet verified.
    AllVerified,
    /// A MAC failed to verify (or its key was unknown / anon-ID
    /// unresolvable); the offending mark index (packet order) is given.
    InvalidMac {
        /// Index into `packet.marks` of the first bad mark (scanning
        /// backwards from the end).
        mark_index: usize,
    },
    /// The packet carried no marks at all.
    NoMarks,
}

/// The outcome of verifying one packet's mark stack.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifiedChain {
    /// Real IDs of the nodes whose marks verified, in **path order**
    /// (upstream first) — the order they appear in the packet.
    pub nodes: Vec<NodeId>,
    /// Why verification stopped.
    pub stop: StopReason,
    /// Total marks present on the packet.
    pub total_marks: usize,
}

impl VerifiedChain {
    /// The most-upstream verified node, if any — for basic nested marking
    /// this is the node whose one-hop neighborhood contains a mole (§4.1).
    pub fn most_upstream(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// The most-downstream verified node.
    pub fn most_downstream(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// `true` if every mark on the packet verified.
    pub fn fully_verified(&self) -> bool {
        matches!(self.stop, StopReason::AllVerified) && self.total_marks == self.nodes.len()
    }
}

/// Hash state for [`AnonId`] table keys: an anonymous ID is already HMAC
/// output — uniformly distributed, and unforgeable without the node keys —
/// so the table folds its bytes directly instead of re-hashing them through
/// SipHash. Collision-flooding the map would require predicting `H'_k`
/// outputs, i.e. breaking the MAC.
#[derive(Clone, Copy, Debug, Default)]
struct AnonIdHasher(u64);

impl std::hash::Hasher for AnonIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // One XOR-fold per 8-byte chunk; an AnonId is exactly one chunk.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 ^= u64::from_le_bytes(buf);
        }
    }

    fn write_usize(&mut self, _len: usize) {
        // Slice length prefix: constant for fixed-width AnonIds, skip it.
    }
}

/// [`std::hash::BuildHasher`] producing [`AnonIdHasher`]s.
#[derive(Clone, Copy, Debug, Default)]
struct AnonIdBuildHasher;

impl std::hash::BuildHasher for AnonIdBuildHasher {
    type Hasher = AnonIdHasher;

    fn build_hasher(&self) -> AnonIdHasher {
        AnonIdHasher(0)
    }
}

/// How many candidate ids a [`CandidateSet`] holds before spilling to the
/// heap. 8-byte anonymous IDs make even two-way collisions rare in
/// few-thousand-node networks, so virtually every entry stays inline.
const INLINE_CANDIDATES: usize = 3;

/// Candidate real IDs for one anonymous ID.
///
/// Almost every anonymous ID maps to exactly one real id, so the common
/// case is stored inline (no heap allocation per table entry); the rare
/// collision chains longer than three spill to a `Vec`.
/// Equality compares the candidate ids, not the representation.
#[derive(Clone, Debug)]
pub struct CandidateSet(Candidates);

#[derive(Clone, Debug)]
enum Candidates {
    Inline {
        buf: [u16; INLINE_CANDIDATES],
        len: u8,
    },
    Heap(Vec<u16>),
}

impl Default for CandidateSet {
    fn default() -> Self {
        CandidateSet(Candidates::Inline {
            buf: [0; INLINE_CANDIDATES],
            len: 0,
        })
    }
}

impl CandidateSet {
    /// Appends a candidate id, spilling to the heap past the inline cap.
    pub fn push(&mut self, id: u16) {
        match &mut self.0 {
            Candidates::Inline { buf, len } => {
                if (*len as usize) < INLINE_CANDIDATES {
                    buf[*len as usize] = id;
                    *len += 1;
                } else {
                    let mut spilled = buf.to_vec();
                    spilled.push(id);
                    self.0 = Candidates::Heap(spilled);
                }
            }
            Candidates::Heap(v) => v.push(id),
        }
    }

    /// The candidate ids, in insertion order.
    pub fn as_slice(&self) -> &[u16] {
        match &self.0 {
            Candidates::Inline { buf, len } => &buf[..*len as usize],
            Candidates::Heap(v) => v,
        }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` if no candidate was recorded.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl PartialEq for CandidateSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for CandidateSet {}

impl FromIterator<u16> for CandidateSet {
    fn from_iter<T: IntoIterator<Item = u16>>(iter: T) -> Self {
        let mut set = CandidateSet::default();
        for id in iter {
            set.push(id);
        }
        set
    }
}

/// Per-report anonymous-ID lookup table (§4.2 "Mark Verification").
///
/// Maps `i' = H'_{k_i}(M | i)` back to candidate real IDs. Collisions are
/// kept as candidate lists and disambiguated by MAC verification, so a hash
/// collision can never cause a wrong attribution.
///
/// Built off the keystore's precomputed [`KeySchedule`] in ascending id
/// order, so collision candidate lists come out ascending.
#[derive(Clone, Debug, PartialEq)]
pub struct AnonTable {
    map: HashMap<AnonId, CandidateSet, AnonIdBuildHasher>,
    /// Number of `H'` evaluations spent building the table.
    pub hash_count: usize,
    /// `None` once every scheduled node is in; for a table grown by
    /// probes, each node hashed so far with its `H'`, ascending by id
    /// (`map` holds only those a mark resolved to).
    probed: Option<Vec<(u16, AnonId)>>,
}

impl AnonTable {
    /// Builds the table for one report over every node in `schedule`.
    ///
    /// All `H'` evaluations run as one batched call on the lane-parallel
    /// SIMD engine ([`pnm_crypto::Sha256xN`]), 4/8 messages per
    /// compression. Map- and `hash_count`-identical to the per-node scalar
    /// loop the paper describes (pinned by test and proptest).
    pub fn build(schedule: &KeySchedule, report_bytes: &[u8]) -> Self {
        let aids = anon_id_many_prepared(schedule.prepared(), report_bytes, schedule.ids());
        let mut map: HashMap<AnonId, CandidateSet, AnonIdBuildHasher> =
            HashMap::with_capacity_and_hasher(schedule.len(), AnonIdBuildHasher);
        for (aid, &id) in aids.iter().zip(schedule.ids()) {
            map.entry(*aid).or_default().push(id);
        }
        AnonTable {
            map,
            hash_count: schedule.len(),
            probed: None,
        }
    }

    /// [`AnonTable::build`]; `_threads` is ignored. Kept only so the
    /// `perfbench` harness builds unchanged; remove it when that harness
    /// next changes.
    #[doc(hidden)]
    pub fn build_parallel_lanes_with(
        schedule: &KeySchedule,
        report_bytes: &[u8],
        _threads: usize,
    ) -> Self {
        Self::build(schedule, report_bytes)
    }

    /// A table with no node hashed yet: resolves nothing, costs no
    /// hashes. [`Topology::walk`] grows one by probes, and
    /// [`AnonTable::complete`] finishes it.
    pub(crate) fn empty() -> Self {
        AnonTable {
            map: HashMap::default(),
            hash_count: 0,
            probed: Some(Vec::new()),
        }
    }

    /// `true` once every scheduled node is in the table.
    pub(crate) fn is_complete(&self) -> bool {
        self.probed.is_none()
    }

    /// Whether `id`'s `H'` is already in the table.
    fn holds(&self, id: u16) -> bool {
        self.probed
            .as_ref()
            .is_none_or(|p| p.binary_search_by_key(&id, |&(n, _)| n).is_ok())
    }

    /// The node `aid` resolves to, if the table has hashed one.
    fn find(&mut self, aid: &AnonId) -> Option<u16> {
        if let Some(&id) = self.resolve(aid).first() {
            return Some(id);
        }
        let (id, _) = *self.probed.as_ref()?.iter().find(|(_, a)| a == aid)?;
        self.insert(*aid, id);
        Some(id)
    }

    /// Hashes one more node into a table grown by probes: one `H'`.
    fn probe(&mut self, key: &HmacKey, report_bytes: &[u8], id: u16) -> AnonId {
        let aid = anon_id_prepared(key, report_bytes, id);
        self.hash_count += 1;
        if let Some(p) = &mut self.probed {
            if let Err(at) = p.binary_search_by_key(&id, |&(n, _)| n) {
                p.insert(at, (id, aid));
            }
        }
        aid
    }

    /// Hashes every scheduled node the table lacks, in one lane-parallel
    /// batch. The table then equals [`AnonTable::build`]'s for the report,
    /// `hash_count` included: no node is hashed twice.
    pub(crate) fn complete(&mut self, schedule: &KeySchedule, report_bytes: &[u8]) {
        let Some(probed) = self.probed.take() else {
            return;
        };
        if probed.is_empty() {
            *self = AnonTable::build(schedule, report_bytes);
            return;
        }
        let (keys, ids): (Vec<HmacKey>, Vec<u16>) = schedule
            .iter()
            .filter(|&(id, _)| probed.binary_search_by_key(&id, |&(n, _)| n).is_err())
            .map(|(id, key)| (*key, id))
            .unzip();
        let aids = anon_id_many_prepared(&keys, report_bytes, &ids);
        self.map.reserve(schedule.len());
        for (id, aid) in probed.into_iter().chain(ids.iter().copied().zip(aids)) {
            self.insert(aid, id);
        }
        self.hash_count += ids.len();
    }

    /// Records `id` as a candidate for `aid`, keeping the candidates
    /// ascending as [`AnonTable::build`] lists them.
    fn insert(&mut self, aid: AnonId, id: u16) {
        let cands = self.map.entry(aid).or_default();
        let ids = cands.as_slice();
        match ids.binary_search(&id) {
            Ok(_) => {}
            Err(at) if at == ids.len() => cands.push(id),
            Err(at) => {
                *cands = ids[..at]
                    .iter()
                    .chain([&id])
                    .chain(&ids[at..])
                    .copied()
                    .collect();
            }
        }
    }

    /// The §4.2 definition, one scalar `H'` per node in ascending id
    /// order: the oracle [`AnonTable::build`] is checked against.
    #[cfg(test)]
    pub(crate) fn build_scalar(schedule: &KeySchedule, report_bytes: &[u8]) -> Self {
        let mut map: HashMap<AnonId, CandidateSet, AnonIdBuildHasher> =
            HashMap::with_capacity_and_hasher(schedule.len(), AnonIdBuildHasher);
        let mut hash_count = 0;
        for (id, key) in schedule.iter() {
            let aid = anon_id_prepared(key, report_bytes, id);
            hash_count += 1;
            map.entry(aid).or_default().push(id);
        }
        AnonTable {
            map,
            hash_count,
            probed: None,
        }
    }

    /// Candidate real IDs for an anonymous ID (usually exactly one).
    pub fn resolve(&self, aid: &AnonId) -> &[u16] {
        self.map.get(aid).map_or(&[], CandidateSet::as_slice)
    }

    /// Number of distinct anonymous IDs in the table.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The sink's verifier: keys plus the logic for all three verify modes.
///
/// Holds the deployment key table behind an [`Arc`], so every sink-side
/// component ([`crate::sink::SinkEngine`], its resolve stage, the
/// simulators' marking closures) shares one copy of the key material.
#[derive(Clone, Debug)]
pub struct SinkVerifier {
    keys: Arc<KeyStore>,
    /// Precomputed HMAC schedule — every MAC check runs two SHA-256
    /// compressions cheaper than re-deriving the key pads per packet.
    schedule: Arc<KeySchedule>,
}

impl SinkVerifier {
    /// Creates a verifier over the deployment's key table. Accepts either an
    /// owned [`KeyStore`] or an already-shared `Arc<KeyStore>`.
    ///
    /// Precomputes (or picks up the cached) HMAC [`KeySchedule`] once here;
    /// verification never touches raw key bytes again.
    pub fn new(keys: impl Into<Arc<KeyStore>>) -> Self {
        let keys = keys.into();
        let schedule = keys.schedule();
        SinkVerifier { keys, schedule }
    }

    /// Read access to the key table.
    pub fn keys(&self) -> &KeyStore {
        &self.keys
    }

    /// The precomputed HMAC schedule the verifier runs on.
    pub fn schedule(&self) -> &Arc<KeySchedule> {
        &self.schedule
    }

    /// Verifies a packet's marks under `mode`, returning the chain of
    /// verified real IDs in path order.
    pub fn verify(&self, packet: &Packet, mode: VerifyMode) -> VerifiedChain {
        match mode {
            VerifyMode::PlainTrust => self.verify_plain(packet),
            VerifyMode::Ams => self.verify_ams(packet),
            VerifyMode::Nested => {
                // Build the anon table only if an anonymous mark appears.
                let table = if packet.marks.iter().any(|m| m.id.as_anon().is_some()) {
                    AnonTable::build(&self.schedule, &packet.report.to_bytes())
                } else {
                    AnonTable::empty()
                };
                self.verify_nested_with_table_batched(packet, &table)
            }
        }
    }

    /// The §4.1 and §4.2 definitions end to end — the scalar table build,
    /// then the scalar backward walk over it: the oracle every lane path
    /// is checked against. The walk pops marks from last to first; each
    /// MAC must cover the exact preceding message bytes, and the first
    /// invalid mark stops it.
    #[cfg(test)]
    pub(crate) fn verify_nested_scalar(&self, packet: &Packet) -> VerifiedChain {
        let table = AnonTable::build_scalar(&self.schedule, &packet.report.to_bytes());
        let total_marks = packet.marks.len();
        if total_marks == 0 {
            return VerifiedChain {
                nodes: Vec::new(),
                stop: StopReason::NoMarks,
                total_marks,
            };
        }
        let mut verified_rev: Vec<NodeId> = Vec::new();
        let mut prefix = packet.clone();
        let mut stop = StopReason::AllVerified;
        for idx in (0..total_marks).rev() {
            let mark = prefix.marks.pop().expect("mark present by construction");
            let mut msg = prefix.to_bytes();
            let verified = mark.mac.as_ref().and_then(|mac| match mark.id {
                MarkId::Plain(id) => {
                    let key = self.schedule.get(id.raw())?;
                    msg.extend_from_slice(&id.to_bytes());
                    verify_mark_mac_prepared(key, &msg, mac).then_some(id)
                }
                MarkId::Anon(aid) => {
                    msg.extend_from_slice(aid.as_bytes());
                    // Disambiguate collisions by MAC: only the true
                    // marker's key verifies.
                    for &cand in table.resolve(&aid) {
                        let key = self.schedule.get(cand)?;
                        if verify_mark_mac_prepared(key, &msg, mac) {
                            return Some(NodeId(cand));
                        }
                    }
                    None
                }
            });
            match verified {
                Some(id) => verified_rev.push(id),
                None => {
                    stop = StopReason::InvalidMac { mark_index: idx };
                    break;
                }
            }
        }
        verified_rev.reverse();
        VerifiedChain {
            nodes: verified_rev,
            stop,
            total_marks,
        }
    }

    /// Nested verification with a pre-built anonymous-ID table (reuse the
    /// table across marks of the same packet; the caller may also share it
    /// across packets carrying the same report).
    ///
    /// Lane-parallel MAC checking: collects every mark's candidate
    /// `(key, message, tag)` job along the backward walk first, computes
    /// all MACs in one batched [`pnm_crypto::verify_mark_macs_prepared`]
    /// call (4/8 lanes per SHA-256 compression), then replays the
    /// stop-at-first-invalid walk over the precomputed verdicts.
    ///
    /// Returns the [`VerifiedChain`] of the §4.1 scalar walk for every
    /// packet (pinned by test and proptest): each mark's verdict depends
    /// only on its own message prefix and the table, never on other
    /// verdicts, so precomputing is observation-equivalent. The one
    /// behavioral difference is wasted (never observed) work when an early
    /// mark is invalid — the batch computes MACs the scalar walk would have
    /// skipped — which is the right trade on benign traffic, where every
    /// mark verifies and nothing is wasted.
    pub fn verify_nested_with_table_batched(
        &self,
        packet: &Packet,
        table: &AnonTable,
    ) -> VerifiedChain {
        self.verify_batched_impl(packet, table, &mut Vec::new())
    }

    /// Scratch-reusing body of [`SinkVerifier::verify_nested_with_table_batched`]:
    /// `flat` stages every candidate message contiguously so a streaming
    /// caller amortizes the allocation across packets.
    pub(crate) fn verify_batched_impl(
        &self,
        packet: &Packet,
        table: &AnonTable,
        flat: &mut Vec<u8>,
    ) -> VerifiedChain {
        let total_marks = packet.marks.len();
        if total_marks == 0 {
            return VerifiedChain {
                nodes: Vec::new(),
                stop: StopReason::NoMarks,
                total_marks,
            };
        }

        // Pass 1 — backward walk collecting jobs. Mark `i` signs
        // `M_{i-1} ‖ id_i`, where `M_{i-1} = report ‖ count(i) ‖ marks[..i]`
        // is the encoding of the packet's first `i` marks. The report and
        // the marks are encoded once at the front of `flat`; a mark's input
        // is copied out of that encoding, with its 2-byte count, and
        // appended after it. A job is (key, input range, mark, candidate
        // id): a plain id is its own one candidate, an anonymous id's are
        // its table entries in table order, up to the first without a key
        // (the scalar walk aborts the mark there), and a mark without a MAC
        // has none. `plans[k]` is the job range of mark
        // `total_marks - 1 - k`; a mark with no job is invalid.
        // One allocation at most: room for the encoding and every input.
        let report_len = packet.report.encoded_len();
        let (mut marks_len, mut inputs_len) = (0, 0);
        for mark in &packet.marks {
            inputs_len += report_len + 2 + marks_len + mark.id.encoded_len();
            marks_len += mark.encoded_len();
        }
        flat.clear();
        flat.reserve(report_len + marks_len + inputs_len);
        packet.report.encode_into(flat);
        for mark in &packet.marks {
            mark.encode_into(flat);
        }
        // Where the encoding of `marks[..idx]` ends, walking down.
        let mut prefix_end = flat.len();
        let mut plans: Vec<Range<usize>> = Vec::with_capacity(total_marks);
        let mut staged: Vec<(&HmacKey, (usize, usize), usize, u16)> =
            Vec::with_capacity(total_marks);
        for (idx, mark) in packet.marks.iter().enumerate().rev() {
            prefix_end -= mark.encoded_len();
            let first = staged.len();
            if mark.mac.is_some() {
                let cands = match &mark.id {
                    MarkId::Plain(id) => std::slice::from_ref(&id.0),
                    MarkId::Anon(aid) => table.resolve(aid),
                };
                let mut input = None;
                for &cand in cands {
                    let Some(key) = self.schedule.get(cand) else {
                        break;
                    };
                    let range = *input.get_or_insert_with(|| {
                        stage_mac_input(flat, report_len, idx, prefix_end, &mark.id)
                    });
                    staged.push((key, range, idx, cand));
                }
            }
            plans.push(first..staged.len());
        }

        // Pass 2 — one lane-parallel MAC batch over every candidate job.
        let jobs: Vec<(&HmacKey, &[u8], &pnm_crypto::MacTag)> = staged
            .iter()
            .map(|&(key, (start, end), idx, _)| {
                let tag = packet.marks[idx]
                    .mac
                    .as_ref()
                    .expect("jobs only staged for marks with a MAC");
                (key, &flat[start..end], tag)
            })
            .collect();
        let verdicts = verify_mark_macs_prepared(&jobs);

        // Pass 3 — replay the scalar stop-at-first-invalid walk over the
        // precomputed verdicts.
        let mut verified_rev: Vec<NodeId> = Vec::new();
        let mut stop = StopReason::AllVerified;
        for (k, plan) in plans.iter().enumerate() {
            match plan.clone().find(|&j| verdicts[j]) {
                Some(j) => verified_rev.push(NodeId(staged[j].3)),
                None => {
                    stop = StopReason::InvalidMac {
                        mark_index: total_marks - 1 - k,
                    };
                    break;
                }
            }
        }

        verified_rev.reverse();
        VerifiedChain {
            nodes: verified_rev,
            stop,
            total_marks,
        }
    }

    /// Plain marks carry no MACs: the sink can only take the IDs at face
    /// value. All marks "verify".
    fn verify_plain(&self, packet: &Packet) -> VerifiedChain {
        let nodes: Vec<NodeId> = packet
            .marks
            .iter()
            .filter_map(|m| m.id.as_plain())
            .collect();
        let stop = if packet.marks.is_empty() {
            StopReason::NoMarks
        } else {
            StopReason::AllVerified
        };
        VerifiedChain {
            nodes,
            stop,
            total_marks: packet.marks.len(),
        }
    }

    /// Extended-AMS verification: every mark checked independently against
    /// `H_k(report | id)`; invalid marks are skipped (they invalidate
    /// nothing else — the scheme's fatal weakness).
    fn verify_ams(&self, packet: &Packet) -> VerifiedChain {
        let report_bytes = packet.report.to_bytes();
        let mut nodes = Vec::new();
        for mark in &packet.marks {
            let (Some(id), Some(mac)) = (mark.id.as_plain(), &mark.mac) else {
                continue;
            };
            let Some(key) = self.schedule.get(id.raw()) else {
                continue;
            };
            let msg = ExtendedAms::mac_message(&report_bytes, id);
            if verify_mark_mac_prepared(key, &msg, mac) {
                nodes.push(id);
            }
        }
        let stop = if packet.marks.is_empty() {
            StopReason::NoMarks
        } else {
            StopReason::AllVerified
        };
        VerifiedChain {
            nodes,
            stop,
            total_marks: packet.marks.len(),
        }
    }
}

/// Appends mark `idx`'s nested MAC input, `M_{idx-1} ‖ id` with
/// `M_{idx-1} = report ‖ count(idx) ‖ marks[..idx]`, to `flat`, whose
/// front holds the packet's report (`report_len` bytes) followed by its
/// encoded marks, `marks[..idx]` ending at `prefix_end`. The id is signed
/// without its kind byte. Returns the input's range in `flat`.
fn stage_mac_input(
    flat: &mut Vec<u8>,
    report_len: usize,
    idx: usize,
    prefix_end: usize,
    id: &MarkId,
) -> (usize, usize) {
    let start = flat.len();
    flat.extend_from_within(..report_len);
    flat.extend_from_slice(&(idx as u16).to_be_bytes());
    flat.extend_from_within(report_len..prefix_end);
    match id {
        MarkId::Plain(id) => flat.extend_from_slice(&id.to_bytes()),
        MarkId::Anon(aid) => flat.extend_from_slice(aid.as_bytes()),
    }
    (start, flat.len())
}

/// `H'` evaluations one packet's walk may spend on probes before it falls
/// back to completing the report's §4.2 table.
const PROBE_BUDGET: usize = 32;

/// The sink-known adjacency ([`crate::SinkConfig::topology`]; empty
/// without one), the engine's only copy, and the walk that resolves a
/// packet's anonymous marks by probing: §7's neighbourhood search (O(d)
/// hashes where the §4.2 table costs one per node), over the route the
/// sink learned from its verified chains ([`RouteReconstructor`]) and
/// then the physical neighbours.
#[derive(Clone, Debug, Default)]
pub(crate) struct Topology {
    /// adjacency[i] = ids of i's one-hop neighbors.
    adjacency: HashMap<u16, Vec<u16>>,
}

/// How a walk ended.
#[derive(Debug)]
pub(crate) enum WalkEnd {
    /// Every mark the backward walk can reach resolved in the table.
    Resolved,
    /// A probe missed, or the budget ran out, and every mark below the
    /// missed one verified: the completed §4.2 table decides.
    Fallback,
    /// The sweep before the fallback found a mark below the missed one
    /// invalid: the packet's chain, final.
    Decided(VerifiedChain),
}

impl Topology {
    /// The sink-known adjacency.
    pub(crate) fn new(adjacency: HashMap<u16, Vec<u16>>) -> Self {
        Topology { adjacency }
    }

    /// The one-hop neighbors of `node` (none if the topology omits it).
    pub(crate) fn neighbors(&self, node: NodeId) -> &[u16] {
        self.adjacency.get(&node.raw()).map_or(&[], Vec::as_slice)
    }

    /// Resolves `packet`'s anonymous marks from the sink end upstream in
    /// `table`, the report's table: a mark the table lacks is found by
    /// probing where `learned`'s chains put the marker above the id
    /// resolved for the mark below, and each probe hashes one more node
    /// into the table. A probe hit stands in for the table's candidate
    /// list, which differs only when two nodes' 64-bit `AnonId`s collide
    /// on one report.
    ///
    /// The §4.1 walk observes a mark only if every mark below it verified,
    /// and for such a mark the id resolved below is the walk's previously
    /// verified node. A probe miss, or a spent budget, sweeps what is
    /// resolved: if a mark below the missed one fails, that chain is
    /// final; otherwise the completed table decides. A plain-ID mark
    /// anchors the next probe, and a mark without a MAC is never resolved:
    /// nothing at or above it verifies.
    pub(crate) fn walk(
        &self,
        verifier: &SinkVerifier,
        learned: &RouteReconstructor,
        packet: &Packet,
        report_bytes: &[u8],
        table: &mut AnonTable,
        flat: &mut Vec<u8>,
    ) -> WalkEnd {
        let schedule = verifier.schedule();
        let budget = table.hash_count + PROBE_BUDGET;
        if let Some(probed) = &mut table.probed {
            probed.reserve(PROBE_BUDGET);
        }
        let mut anchor = None;
        for (idx, mark) in packet.marks.iter().enumerate().rev() {
            if mark.mac.is_none() {
                break;
            }
            let aid = match mark.id {
                MarkId::Plain(id) => {
                    anchor = Some(id.raw());
                    continue;
                }
                MarkId::Anon(aid) => aid,
            };
            let mut found = table.find(&aid);
            let mut candidates = self.candidates(learned, anchor);
            while found.is_none() && table.hash_count < budget {
                let Some(cand) = candidates.next() else {
                    break;
                };
                // A node already hashed does not derive `aid`.
                if table.holds(cand) {
                    continue;
                }
                if let Some(key) = schedule.get(cand) {
                    if table.probe(key, report_bytes, cand) == aid {
                        table.insert(aid, cand);
                        found = Some(cand);
                    }
                }
            }
            let Some(id) = found else {
                let below = packet.marks.len() - 1 - idx;
                let swept = (below > 0).then(|| verifier.verify_batched_impl(packet, table, flat));
                return match swept {
                    Some(chain) if chain.nodes.len() < below => WalkEnd::Decided(chain),
                    _ => WalkEnd::Fallback,
                };
            };
            anchor = Some(id);
        }
        WalkEnd::Resolved
    }

    /// Where to probe for the marker above `anchor`: the nodes `learned`
    /// placed directly upstream of it (the chain tails without one), most
    /// support first, then its physical neighbours not on that list.
    fn candidates<'a>(
        &'a self,
        learned: &'a RouteReconstructor,
        anchor: Option<u16>,
    ) -> impl Iterator<Item = u16> + 'a {
        let listed = match anchor {
            Some(a) => learned.upstream_of(a),
            None => learned.tails(),
        };
        let neighbours = anchor.map_or(&[][..], |a| self.neighbors(NodeId(a)));
        let unlisted = neighbours
            .iter()
            .copied()
            .filter(move |&n| listed.iter().all(|&(u, _)| u != n));
        listed.iter().map(|&(u, _)| u).chain(unlisted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkingConfig;
    use crate::scheme::{
        ExtendedAms, MarkingScheme, NestedMarking, NodeContext, PlainMarking,
        ProbabilisticNestedMarking,
    };
    use crate::test_support::honest_packet;
    use pnm_crypto::{anon_id, MacKey};
    use pnm_wire::{Location, Mark, Report};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keystore(n: u16) -> KeyStore {
        KeyStore::derive_from_master(b"verify-test", n)
    }

    fn report() -> Report {
        Report::new(b"ev".to_vec(), Location::new(0.0, 0.0), 1)
    }

    fn ctx(keys: &KeyStore, id: u16) -> NodeContext {
        NodeContext::new(NodeId(id), *keys.key(id).unwrap())
    }

    #[test]
    fn nested_full_chain_verifies() {
        let keys = keystore(10);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let pkt = honest_packet(&keys, &scheme, 10, report(), &mut StdRng::seed_from_u64(0));
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        assert!(chain.fully_verified());
        assert_eq!(chain.nodes.len(), 10);
        assert_eq!(chain.most_upstream(), Some(NodeId(0)));
        assert_eq!(chain.most_downstream(), Some(NodeId(9)));
    }

    #[test]
    fn nested_tamper_detected_at_tamper_point() {
        // Corrupt node 3's MAC: marks 3..8 become unverifiable because each
        // downstream MAC covers the corrupted bytes... no — downstream MACs
        // covered the *corrupted* packet? They covered the original. After
        // corruption, every MAC downstream of the tamper (4..) covered the
        // original mark-3 bytes, so they now mismatch; verification walking
        // backwards fails immediately at the last mark... unless the
        // corruption happened before those nodes marked. Here we model an
        // end-tamper: the adversary corrupts a finished packet, so the
        // *newest* MACs break first.
        let keys = keystore(8);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut pkt = honest_packet(&keys, &scheme, 8, report(), &mut StdRng::seed_from_u64(0));
        let m = &mut pkt.marks[3];
        m.mac = Some(m.mac.unwrap().corrupted());
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        // Marks 7,6,5,4 covered the original mark 3; they were computed
        // over the uncorrupted bytes, so with the corruption in place they
        // no longer verify: traceback stops at the very end.
        assert_eq!(chain.nodes.len(), 0);
        assert_eq!(chain.stop, StopReason::InvalidMac { mark_index: 7 });
    }

    #[test]
    fn nested_midpath_tamper_stops_at_tamperer() {
        // Model the §4.1 scenario: mole at hop x alters upstream marks
        // *then* downstream nodes mark the altered packet. Traceback must
        // verify the downstream suffix and stop exactly at the tamper.
        let keys = keystore(8);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut pkt = Packet::new(report());
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..4u16 {
            scheme.mark(&ctx(&keys, i), &mut pkt, &mut rng);
        }
        // Mole (between hop 3 and 4) corrupts node 1's mark.
        let m = &mut pkt.marks[1];
        m.mac = Some(m.mac.unwrap().corrupted());
        for i in 4..8u16 {
            scheme.mark(&ctx(&keys, i), &mut pkt, &mut rng);
        }
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        // Marks 4..8 verify (they covered the already-corrupted bytes);
        // marks 0..4 are dead: 3 and 2's MACs covered the *original* mark 1.
        // Walking backwards: 7,6,5,4 verify, 3 fails.
        assert_eq!(
            chain.nodes,
            vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]
        );
        assert_eq!(chain.stop, StopReason::InvalidMac { mark_index: 3 });
        // The mole sits between the last verified node (4) and upstream —
        // within node 4's one-hop neighborhood, exactly the paper's claim.
        assert_eq!(chain.most_upstream(), Some(NodeId(4)));
    }

    #[test]
    fn nested_mark_removal_detected() {
        let keys = keystore(6);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut pkt = honest_packet(&keys, &scheme, 4, report(), &mut StdRng::seed_from_u64(0));
        // Remove node 1's mark, then let nodes 4,5 mark the mutilated packet.
        pkt.marks.remove(1);
        let mut rng = StdRng::seed_from_u64(99);
        for i in 4..6u16 {
            scheme.mark(&ctx(&keys, i), &mut pkt, &mut rng);
        }
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        // 5 and 4 verify; node 3's MAC covered a packet that still had
        // mark 1, so it fails now.
        assert_eq!(chain.nodes, vec![NodeId(4), NodeId(5)]);
        assert!(matches!(chain.stop, StopReason::InvalidMac { .. }));
    }

    #[test]
    fn nested_reorder_detected() {
        let keys = keystore(6);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut pkt = honest_packet(&keys, &scheme, 6, report(), &mut StdRng::seed_from_u64(0));
        pkt.marks.swap(1, 2);
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        assert!(!chain.fully_verified());
    }

    #[test]
    fn pnm_anonymous_chain_verifies() {
        let keys = keystore(20);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let pkt = honest_packet(&keys, &scheme, 20, report(), &mut StdRng::seed_from_u64(0));
        assert_eq!(pkt.mark_count(), 20);
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        assert!(chain.fully_verified());
        let expect: Vec<NodeId> = (0..20).map(NodeId).collect();
        assert_eq!(chain.nodes, expect);
    }

    #[test]
    fn pnm_partial_marks_verify() {
        let keys = keystore(30);
        let scheme = ProbabilisticNestedMarking::paper_default(30);
        let pkt = honest_packet(&keys, &scheme, 30, report(), &mut StdRng::seed_from_u64(7));
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        assert!(chain.fully_verified());
        // Verified IDs must be a strictly increasing subsequence of 0..30.
        let raws: Vec<u16> = chain.nodes.iter().map(|n| n.raw()).collect();
        assert!(raws.windows(2).all(|w| w[0] < w[1]), "{raws:?}");
    }

    #[test]
    fn shared_anon_table_gives_same_answer() {
        let keys = keystore(15);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ProbabilisticNestedMarking::new(cfg);
        let pkt = honest_packet(&keys, &scheme, 15, report(), &mut StdRng::seed_from_u64(3));
        let verifier = SinkVerifier::new(keys.clone());
        let table = AnonTable::build(&keys.schedule(), &pkt.report.to_bytes());
        assert_eq!(table.hash_count, 15);
        let with_table = verifier.verify_nested_with_table_batched(&pkt, &table);
        let without = verifier.verify(&pkt, VerifyMode::Nested);
        assert_eq!(with_table, without);
        assert_eq!(without, verifier.verify_nested_scalar(&pkt));
    }

    #[test]
    fn ams_accepts_individual_marks() {
        let keys = keystore(5);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ExtendedAms::new(cfg);
        let pkt = honest_packet(&keys, &scheme, 5, report(), &mut StdRng::seed_from_u64(0));
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Ams);
        assert_eq!(chain.nodes.len(), 5);
    }

    #[test]
    fn ams_mark_removal_goes_undetected() {
        // The §3 attack: mole removes the two most-upstream marks; the rest
        // still verify and the sink traces to an innocent node.
        let keys = keystore(5);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = ExtendedAms::new(cfg);
        let mut pkt = honest_packet(&keys, &scheme, 5, report(), &mut StdRng::seed_from_u64(0));
        pkt.marks.drain(0..2);
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Ams);
        assert_eq!(chain.nodes.len(), 3);
        // Traceback now stops at innocent node 2.
        assert_eq!(chain.nodes.first(), Some(&NodeId(2)));
    }

    #[test]
    fn plain_trusts_everything() {
        let keys = keystore(3);
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let scheme = PlainMarking::new(cfg);
        let mut pkt = honest_packet(&keys, &scheme, 3, report(), &mut StdRng::seed_from_u64(0));
        // Forge a mark claiming to be node 999 — accepted blindly.
        pkt.push_mark(Mark::unauthenticated(NodeId(999)));
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::PlainTrust);
        assert_eq!(chain.nodes.len(), 4);
        assert_eq!(chain.nodes.last(), Some(&NodeId(999)));
    }

    #[test]
    fn empty_packet_reports_no_marks() {
        let keys = keystore(3);
        let verifier = SinkVerifier::new(keys);
        let pkt = Packet::new(report());
        for mode in [VerifyMode::PlainTrust, VerifyMode::Ams, VerifyMode::Nested] {
            let chain = verifier.verify(&pkt, mode);
            assert_eq!(chain.stop, StopReason::NoMarks, "{mode:?}");
            assert!(chain.nodes.is_empty());
            assert!(chain.most_upstream().is_none());
        }
    }

    #[test]
    fn unknown_plain_id_fails_nested() {
        let keys = keystore(4);
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut pkt = Packet::new(report());
        let mut rng = StdRng::seed_from_u64(0);
        scheme.mark(&ctx(&keys, 0), &mut pkt, &mut rng);
        // A mark claiming an unprovisioned id.
        let fake_key = MacKey::derive(b"attacker", 0);
        let mac = fake_key.mark_mac(&pkt.to_bytes(), 8);
        pkt.push_mark(Mark::plain(NodeId(4000), mac));
        let verifier = SinkVerifier::new(keys);
        let chain = verifier.verify(&pkt, VerifyMode::Nested);
        assert!(matches!(
            chain.stop,
            StopReason::InvalidMac { mark_index: 1 }
        ));
        assert!(chain.nodes.is_empty());
    }

    #[test]
    fn anon_table_resolves_every_node() {
        let keys = keystore(100);
        let rb = report().to_bytes();
        let table = AnonTable::build(&keys.schedule(), &rb);
        assert!(!table.is_empty());
        for (id, key) in keys.iter() {
            let aid = anon_id(key, &rb, id);
            assert!(table.resolve(&aid).contains(&id));
        }
        let bogus = AnonId::from_bytes([0xff; 8]);
        assert!(table.resolve(&bogus).is_empty() || !table.resolve(&bogus).contains(&60000));
    }

    #[test]
    fn candidate_set_stays_inline_then_spills() {
        let mut set = CandidateSet::default();
        assert!(set.is_empty());
        for id in [7u16, 3, 9] {
            set.push(id);
        }
        assert_eq!(set.as_slice(), &[7, 3, 9]);
        assert!(matches!(set.0, Candidates::Inline { .. }));
        set.push(1);
        assert!(matches!(set.0, Candidates::Heap(_)));
        assert_eq!(set.as_slice(), &[7, 3, 9, 1]);
        assert_eq!(set.len(), 4);
        // Equality is over candidates, not representation.
        let inline_equal: CandidateSet = [7u16, 3, 9].into_iter().collect();
        let heap_equal: CandidateSet = [7u16, 3, 9, 1].into_iter().collect();
        assert_ne!(set, inline_equal);
        assert_eq!(set, heap_equal);
    }

    #[test]
    fn verifier_schedule_is_shared_with_keystore() {
        let keys = Arc::new(keystore(10));
        let verifier = SinkVerifier::new(Arc::clone(&keys));
        assert!(Arc::ptr_eq(verifier.schedule(), &keys.schedule()));
    }

    #[test]
    fn lane_build_matches_serial() {
        let rb = report().to_bytes();
        // 1000–4000 nodes: the §4.2 "few thousand nodes" table.
        for n in [0u16, 1, 2, 7, 100, 600, 1000, 2000, 4000] {
            let schedule = keystore(n).schedule();
            let serial = AnonTable::build_scalar(&schedule, &rb);
            let lanes = AnonTable::build(&schedule, &rb);
            assert_eq!(serial, lanes, "n={n}");
            assert_eq!(lanes.hash_count, n as usize);
            // Grown by probes, then completed, it is the same table: no
            // node is hashed twice.
            let mut grown = AnonTable::empty();
            for &id in schedule.ids().iter().step_by(7) {
                let aid = grown.probe(schedule.get(id).unwrap(), &rb, id);
                assert!(grown.holds(id));
                assert_eq!(grown.find(&aid), Some(id));
                assert_eq!(grown.resolve(&aid), lanes.resolve(&aid));
            }
            assert!(!grown.is_complete());
            grown.complete(&schedule, &rb);
            assert_eq!(grown, lanes, "n={n} grown");
        }
    }

    #[test]
    fn batched_verify_matches_scalar_on_tampered_packets() {
        let keys = keystore(12);
        let verifier = SinkVerifier::new(keys.clone());
        let cfg = MarkingConfig::builder().marking_probability(1.0).build();
        let pnm = ProbabilisticNestedMarking::new(cfg);
        let nested = NestedMarking::new(cfg);
        for scheme in [&pnm as &dyn MarkingScheme, &nested] {
            for seed in 0..4u64 {
                let intact = honest_packet(
                    &keys,
                    scheme,
                    12,
                    report(),
                    &mut StdRng::seed_from_u64(seed),
                );
                let mut variants: Vec<Packet> = vec![intact.clone()];
                for i in [0usize, 5, 11] {
                    // Corrupted MAC at position i.
                    let mut p = intact.clone();
                    p.marks[i].mac = Some(p.marks[i].mac.unwrap().corrupted());
                    variants.push(p);
                    // Mark stripped of its MAC entirely.
                    let mut p = intact.clone();
                    p.marks[i].mac = None;
                    variants.push(p);
                    // Mark removed mid-chain.
                    let mut p = intact.clone();
                    p.marks.remove(i);
                    variants.push(p);
                }
                for pkt in &variants {
                    let table = AnonTable::build(&keys.schedule(), &pkt.report.to_bytes());
                    let oracle = verifier.verify_nested_scalar(pkt);
                    assert_eq!(
                        verifier.verify_nested_with_table_batched(pkt, &table),
                        oracle,
                        "seed={seed}"
                    );
                    assert_eq!(
                        verifier.verify(pkt, VerifyMode::Nested),
                        oracle,
                        "seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_verify_handles_empty_and_unknown() {
        let keys = keystore(4);
        let verifier = SinkVerifier::new(keys.clone());
        let table = AnonTable::build(&keys.schedule(), &report().to_bytes());
        // Empty packet.
        let empty = Packet::new(report());
        assert_eq!(
            verifier.verify_nested_with_table_batched(&empty, &table),
            verifier.verify_nested_scalar(&empty)
        );
        // Unknown plain id and unresolvable anon id.
        let scheme = NestedMarking::new(MarkingConfig::default());
        let mut pkt = Packet::new(report());
        let mut rng = StdRng::seed_from_u64(0);
        scheme.mark(&ctx(&keys, 0), &mut pkt, &mut rng);
        let fake_key = MacKey::derive(b"attacker", 0);
        let mac = fake_key.mark_mac(&pkt.to_bytes(), 8);
        pkt.push_mark(Mark::plain(NodeId(4000), mac));
        let mac2 = fake_key.mark_mac(&pkt.to_bytes(), 8);
        pkt.push_mark(Mark::anon(AnonId::from_bytes([0xEE; 8]), mac2));
        let oracle = verifier.verify_nested_scalar(&pkt);
        assert_eq!(
            verifier.verify_nested_with_table_batched(&pkt, &table),
            oracle
        );
        assert_eq!(verifier.verify(&pkt, VerifyMode::Nested), oracle);
    }

    /// The batched verifier stages each mark's MAC input from one
    /// encoding of the packet: after the report and the marks, `flat`
    /// holds, last mark first, `Packet::to_bytes` of each mark's prefix
    /// followed by the mark's id, for plain and anonymous marks alike.
    #[test]
    fn staged_mac_inputs_equal_each_prefix_encoding() {
        let keys = keystore(12);
        let mut rng = StdRng::seed_from_u64(5);
        let nested = NestedMarking::new(MarkingConfig::default());
        let all = MarkingConfig::builder().marking_probability(1.0).build();
        let pnm = ProbabilisticNestedMarking::new(all);
        let mut pkt = Packet::new(report());
        for i in 0..12u16 {
            let scheme: &dyn MarkingScheme = if i % 3 == 0 { &nested } else { &pnm };
            scheme.mark(&ctx(&keys, i), &mut pkt, &mut rng);
        }
        assert!(pkt.marks.iter().any(|m| m.id.as_plain().is_some()));
        assert!(pkt.marks.iter().any(|m| m.id.as_anon().is_some()));
        let verifier = SinkVerifier::new(keys.clone());
        let table = AnonTable::build(&keys.schedule(), &pkt.report.to_bytes());
        let mut flat = Vec::new();
        let chain = verifier.verify_batched_impl(&pkt, &table, &mut flat);
        assert_eq!(chain, verifier.verify_nested_scalar(&pkt));
        assert!(chain.fully_verified());

        let mut expect = pkt.report.to_bytes();
        for mark in &pkt.marks {
            mark.encode_into(&mut expect);
        }
        for (idx, mark) in pkt.marks.iter().enumerate().rev() {
            let prefix = Packet {
                report: pkt.report.clone(),
                marks: pkt.marks[..idx].to_vec(),
            };
            expect.extend_from_slice(&prefix.to_bytes());
            match mark.id {
                MarkId::Plain(id) => expect.extend_from_slice(&id.to_bytes()),
                MarkId::Anon(aid) => expect.extend_from_slice(aid.as_bytes()),
            }
        }
        assert_eq!(flat, expect);
    }

    proptest! {
        /// The lane-parallel table build is map- and count-identical to the
        /// scalar build for any report and population.
        #[test]
        fn prop_lane_table_equals_serial(
            report in proptest::collection::vec(any::<u8>(), 0..64),
            n in 0u16..64,
        ) {
            let schedule = keystore(n).schedule();
            prop_assert_eq!(
                AnonTable::build_scalar(&schedule, &report),
                AnonTable::build(&schedule, &report)
            );
        }

        /// Batched (lane-parallel) nested verification — over a shared
        /// table and through `verify(_, Nested)` — returns the exact
        /// `VerifiedChain` of the scalar oracle for anonymous (PNM) and
        /// plain-id (nested) marks, arbitrary path lengths, marking
        /// probabilities, and an arbitrary single tamper.
        #[test]
        fn prop_batched_verify_equals_scalar(
            n in 1u16..24,
            seed in any::<u64>(),
            prob in 0.3f64..=1.0,
            tamper in 0usize..4,
            at in 0usize..24,
            anonymous in any::<bool>(),
        ) {
            let keys = keystore(n);
            let cfg = MarkingConfig::builder().marking_probability(prob).build();
            let pnm = ProbabilisticNestedMarking::new(cfg);
            let nested = NestedMarking::new(cfg);
            let scheme: &dyn MarkingScheme = if anonymous { &pnm } else { &nested };
            let mut pkt = honest_packet(&keys, scheme, n, report(), &mut StdRng::seed_from_u64(seed));
            if !pkt.marks.is_empty() {
                let i = at % pkt.marks.len();
                match tamper {
                    1 => pkt.marks[i].mac = pkt.marks[i].mac.map(|m| m.corrupted()),
                    2 => pkt.marks[i].mac = None,
                    3 => { pkt.marks.remove(i); }
                    _ => {}
                }
            }
            let verifier = SinkVerifier::new(keys.clone());
            let table = AnonTable::build(&keys.schedule(), &pkt.report.to_bytes());
            let oracle = verifier.verify_nested_scalar(&pkt);
            prop_assert_eq!(
                &verifier.verify_nested_with_table_batched(&pkt, &table),
                &oracle
            );
            prop_assert_eq!(&verifier.verify(&pkt, VerifyMode::Nested), &oracle);
        }
    }
}
