//! Anonymous node identifiers — the `H'_k(M | i)` function of PNM (§4.2).
//!
//! In probabilistic nested marking a node must not reveal *who* marked a
//! packet, or a colluding mole can selectively drop packets carrying marks
//! from particular upstream nodes and steer the traceback to an innocent
//! node. Instead of its real ID `i`, a node embeds the anonymous ID
//! `i' = H'_{k_i}(M | i)`, bound to the original report `M` so the mapping
//! changes per message and cannot be accumulated by an observer.
//!
//! The sink, which knows every key, rebuilds the `i' → i` mapping per
//! message by exhaustive search (`AnonTable` in `pnm-core::verify`).

use core::fmt;

use crate::hmac::{HmacKey, HmacSha256};
use crate::mac::{MacKey, DOMAIN_ANON};
use crate::sha256::Digest;

/// Width of an anonymous ID in bytes.
///
/// 8 bytes keeps the per-mark overhead sensor-friendly while making
/// accidental collisions in few-thousand-node networks negligible
/// (collisions are additionally handled correctly at verification time;
/// see `pnm-core::verify`).
pub const ANON_ID_LEN: usize = 8;

/// An anonymous per-(message, node) identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AnonId([u8; ANON_ID_LEN]);

impl AnonId {
    /// Wraps raw bytes.
    pub fn from_bytes(bytes: [u8; ANON_ID_LEN]) -> Self {
        AnonId(bytes)
    }

    /// The identifier bytes.
    pub fn as_bytes(&self) -> &[u8; ANON_ID_LEN] {
        &self.0
    }

    /// The first [`ANON_ID_LEN`] bytes of an `H'` output.
    fn truncate(digest: &Digest) -> Self {
        let mut out = [0u8; ANON_ID_LEN];
        out.copy_from_slice(&digest.as_bytes()[..ANON_ID_LEN]);
        AnonId(out)
    }

    /// The identifier as a `u64` (big-endian), convenient for hashing.
    pub fn as_u64(&self) -> u64 {
        u64::from_be_bytes(self.0)
    }
}

impl fmt::Debug for AnonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnonId({:016x})", self.as_u64())
    }
}

impl fmt::Display for AnonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.as_u64())
    }
}

impl AsRef<[u8]> for AnonId {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Computes the anonymous ID `i' = H'_{k}(M | i)` for report bytes
/// `report` and real node id `real_id`.
///
/// `H'` is domain-separated from the marking MAC `H`, so knowing one never
/// helps forging the other.
pub fn anon_id(key: &MacKey, report: &[u8], real_id: u16) -> AnonId {
    anon_id_from(HmacSha256::new(key.as_bytes()), report, real_id)
}

/// [`anon_id`] through a precomputed [`HmacKey`] schedule.
///
/// Identical output for the same underlying key (pinned by proptest in
/// `lib.rs`), two SHA-256 compressions cheaper per evaluation — the sink
/// hot path, where `H'` is evaluated once per provisioned node per report
/// (see `pnm-core::verify::AnonTable`).
pub fn anon_id_prepared(key: &HmacKey, report: &[u8], real_id: u16) -> AnonId {
    anon_id_from(key.begin(), report, real_id)
}

/// Batched [`anon_id_prepared`]: evaluates `H'_{k_i}(M | i)` for many
/// `(key, id)` pairs against one report, lane-parallel (see
/// [`crate::Sha256xN`]). This is exactly the anon-table build workload —
/// N independent short HMACs under N different keys — and is element-wise
/// equal to the scalar path.
///
/// # Panics
///
/// Panics if `keys` and `real_ids` differ in length.
pub fn anon_id_many_prepared(keys: &[HmacKey], report: &[u8], real_ids: &[u16]) -> Vec<AnonId> {
    assert_eq!(
        keys.len(),
        real_ids.len(),
        "one key per real id ({} keys, {} ids)",
        keys.len(),
        real_ids.len()
    );
    let id_bytes: Vec<[u8; 2]> = real_ids.iter().map(|id| id.to_be_bytes()).collect();
    let jobs: Vec<(&HmacKey, [&[u8]; 3])> = keys
        .iter()
        .zip(&id_bytes)
        .map(|(key, id)| (key, [DOMAIN_ANON, report, &id[..]]))
        .collect();
    HmacKey::mac_many_parts(&jobs, |_, d| AnonId::truncate(&d))
}

/// Shared `H'_{k}(M | i)` composition over an opened HMAC context.
fn anon_id_from(mut h: HmacSha256, report: &[u8], real_id: u16) -> AnonId {
    h.update(DOMAIN_ANON);
    h.update(report);
    h.update(&real_id.to_be_bytes());
    AnonId::truncate(&h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let k = MacKey::derive(b"m", 5);
        assert_eq!(anon_id(&k, b"report", 5), anon_id(&k, b"report", 5));
    }

    #[test]
    fn changes_per_message() {
        // The mapping must change per distinct report, otherwise an attacker
        // could accumulate a static i' -> i table over time (§4.2).
        let k = MacKey::derive(b"m", 5);
        assert_ne!(anon_id(&k, b"report-1", 5), anon_id(&k, b"report-2", 5));
    }

    #[test]
    fn changes_per_node() {
        let report = b"same report";
        let k1 = MacKey::derive(b"m", 1);
        let k2 = MacKey::derive(b"m", 2);
        assert_ne!(anon_id(&k1, report, 1), anon_id(&k2, report, 2));
    }

    #[test]
    fn depends_on_key_not_just_id() {
        // Even with the same claimed id, a different key yields a different
        // anonymous id — an attacker without k_i cannot impersonate node i.
        let report = b"r";
        let k1 = MacKey::derive(b"m", 1);
        let k2 = MacKey::derive(b"other", 1);
        assert_ne!(anon_id(&k1, report, 1), anon_id(&k2, report, 1));
    }

    #[test]
    fn prepared_matches_oneshot() {
        let k = MacKey::derive(b"m", 5);
        let prepared = k.prepare();
        for (report, id) in [
            (&b"r1"[..], 0u16),
            (b"r2", 5),
            (b"a longer report body", 999),
        ] {
            assert_eq!(
                anon_id_prepared(&prepared, report, id),
                anon_id(&k, report, id)
            );
        }
    }

    #[test]
    fn u64_round_trip() {
        let k = MacKey::derive(b"m", 9);
        let a = anon_id(&k, b"r", 9);
        let b = AnonId::from_bytes(a.as_u64().to_be_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn display_and_debug_nonempty() {
        let k = MacKey::derive(b"m", 9);
        let a = anon_id(&k, b"r", 9);
        assert_eq!(format!("{a}").len(), 16);
        assert!(format!("{a:?}").starts_with("AnonId("));
    }
}
