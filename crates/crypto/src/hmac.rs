//! HMAC-SHA256 (RFC 2104), validated against RFC 4231 test vectors.
//!
//! The paper writes `H_k(.)` for "an efficient and secure keyed hash
//! function" shared between each node and the sink. HMAC over our SHA-256
//! implementation is the standard instantiation of such a PRF.
//!
//! Three entry points share one implementation:
//!
//! - [`HmacKey`] precomputes the RFC 2104 key schedule **once**: the inner
//!   (`key ⊕ ipad`) and outer (`key ⊕ opad`) pad blocks are compressed at
//!   construction and kept as SHA-256 [`Midstate`]s. Every subsequent
//!   [`HmacKey::mac`] replays the midstates instead of re-deriving the
//!   schedule, saving two compressions per MAC — a ~2× speedup for the
//!   short messages marks and anonymous IDs are made of. The sink, whose
//!   per-node keys are fixed for the deployment lifetime, uses this
//!   everywhere (see `pnm_crypto::keystore::KeySchedule`).
//! - [`HmacSha256`] is the one-shot/streaming API, now a thin wrapper that
//!   builds an [`HmacKey`] and streams from it. `HmacSha256::mac(k, m)` and
//!   `HmacKey::new(k).mac(m)` are equal by construction (and pinned by
//!   proptest in `lib.rs`).
//! - [`HmacKey::mac_many`] MACs a batch of `(key, message)` jobs through
//!   the one batched HMAC the domain batches (`verify_mark_macs_prepared`,
//!   `anon_id_many_prepared`) share: jobs run in lane groups of
//!   [`crate::MAX_LANES`] on the stack, the inner and then the outer round
//!   per group, so a call allocates only its job list and its result.
//!
//! # Examples
//!
//! ```
//! use pnm_crypto::hmac::{HmacKey, HmacSha256};
//!
//! let tag = HmacSha256::mac(b"key", b"message");
//! assert!(HmacSha256::verify(b"key", b"message", tag.as_bytes()));
//! assert!(!HmacSha256::verify(b"key", b"tampered", tag.as_bytes()));
//!
//! // Precomputed schedule: same tags, two fewer compressions per call.
//! let key = HmacKey::new(b"key");
//! assert_eq!(key.mac(b"message"), tag);
//! ```

use crate::sha256::{constant_time_eq, Digest, Midstate, Sha256, BLOCK_LEN, DIGEST_LEN};
use crate::sha256_lanes::{finalize_group, LaneJob, Sha256xN, MAX_LANES};

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Minimum accepted truncated-tag width in bytes.
///
/// A zero-length tag is an empty prefix, and an empty prefix trivially
/// matches any digest under [`constant_time_eq`] — accepting it would turn
/// every verification into a forgery oracle. One byte is the hard floor the
/// verifier enforces; it is **not** a recommended deployment width: the
/// MAC-width ablation (`crates/sim/src/ablation.rs::mac_width_table`) shows
/// a 1-byte tag admits brute-force mark framing at ≈2⁻⁸ per attempt, so
/// sensor-grade deployments truncate to at least 4 bytes (the reproduction
/// defaults to 8, [`crate::mac::DEFAULT_MAC_LEN`]; see DESIGN.md §6.1).
pub const MIN_TAG_LEN: usize = 1;

/// A precomputed HMAC-SHA256 key schedule.
///
/// Stores the SHA-256 [`Midstate`]s reached after compressing the inner
/// (`key ⊕ ipad`) and outer (`key ⊕ opad`) pad blocks. Construction costs
/// two compressions (plus one key hash for keys longer than 64 bytes);
/// every [`HmacKey::mac`] after that skips both, so a short-message MAC
/// drops from four compressions to two.
///
/// The raw key is **not** retained — only the pad midstates, which suffice
/// to compute and verify MACs but never leave via `Debug`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HmacKey {
    /// State after compressing `key ⊕ ipad`.
    inner: Midstate,
    /// State after compressing `key ⊕ opad`.
    outer: Midstate,
}

impl HmacKey {
    /// Precomputes the schedule for `key`.
    ///
    /// Keys longer than the 64-byte block are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = Sha256::digest(key);
            k[..DIGEST_LEN].copy_from_slice(d.as_bytes());
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut inner_key = [0u8; BLOCK_LEN];
        let mut outer_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_key[i] = k[i] ^ IPAD;
            outer_key[i] = k[i] ^ OPAD;
        }

        let mut inner = Sha256::new();
        inner.update(&inner_key);
        let mut outer = Sha256::new();
        outer.update(&outer_key);
        HmacKey {
            inner: inner.midstate(),
            outer: outer.midstate(),
        }
    }

    /// Opens a streaming MAC computation keyed by this schedule.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::from_midstate(self.inner),
            outer: self.outer,
        }
    }

    /// Computes the 32-byte HMAC tag of `message`.
    ///
    /// Equal to [`HmacSha256::mac`] under the same key, two compressions
    /// cheaper.
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut h = self.begin();
        h.update(message);
        h.finalize()
    }

    /// Verifies a truncated tag in constant time.
    ///
    /// `tag` must be [`MIN_TAG_LEN`]..=32 bytes; anything outside that
    /// range is rejected outright.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        if tag.len() < MIN_TAG_LEN || tag.len() > DIGEST_LEN {
            return false;
        }
        let full = self.mac(message);
        constant_time_eq(&full.as_bytes()[..tag.len()], tag)
    }

    /// Precomputes schedules for many keys at once, compressing the pad
    /// blocks lane-parallel. Element-wise equal to [`HmacKey::new`].
    pub fn new_many(keys: &[&[u8]]) -> Vec<HmacKey> {
        let mut inner_blocks: Vec<[u8; BLOCK_LEN]> = Vec::with_capacity(keys.len());
        let mut outer_blocks: Vec<[u8; BLOCK_LEN]> = Vec::with_capacity(keys.len());
        for key in keys {
            let mut k = [0u8; BLOCK_LEN];
            if key.len() > BLOCK_LEN {
                // Long keys are rare (provisioned keys are 16 bytes); the
                // scalar pre-hash keeps this path simple.
                let d = Sha256::digest(key);
                k[..DIGEST_LEN].copy_from_slice(d.as_bytes());
            } else {
                k[..key.len()].copy_from_slice(key);
            }
            inner_blocks.push(core::array::from_fn(|i| k[i] ^ IPAD));
            outer_blocks.push(core::array::from_fn(|i| k[i] ^ OPAD));
        }
        let inner = Sha256xN::midstate_many(&inner_blocks);
        let outer = Sha256xN::midstate_many(&outer_blocks);
        inner
            .into_iter()
            .zip(outer)
            .map(|(inner, outer)| HmacKey { inner, outer })
            .collect()
    }

    /// Computes the HMAC tags of many independent `(key, message)` jobs
    /// lane-parallel (see [`Sha256xN`]). Element-wise equal to
    /// [`HmacKey::mac`].
    pub fn mac_many(jobs: &[(&HmacKey, &[u8])]) -> Vec<Digest> {
        let parts: Vec<(&HmacKey, [&[u8]; 3])> = jobs
            .iter()
            .map(|&(key, msg)| (key, [msg, &[][..], &[][..]]))
            .collect();
        Self::mac_many_parts(&parts, |_, tag| tag)
    }

    /// The one batched HMAC: job `i`'s tag over its three parts (absorbed
    /// in order, empty parts skipped) goes through `finish(i, tag)` into the
    /// result, so callers MAC `domain ‖ report ‖ id` compositions without
    /// concatenated buffers. Jobs run in groups of [`MAX_LANES`], both
    /// rounds per group: the inner round from each key's inner-pad midstate
    /// over the parts, the outer round from its outer-pad midstate over the
    /// 32-byte inner digest. A group lives on the stack, so the result is
    /// the only allocation.
    pub(crate) fn mac_many_parts<T>(
        jobs: &[(&HmacKey, [&[u8]; 3])],
        mut finish: impl FnMut(usize, Digest) -> T,
    ) -> Vec<T> {
        let backend = Sha256xN::backend();
        let mut out = Vec::with_capacity(jobs.len());
        for group in jobs.chunks(MAX_LANES) {
            let inner = finalize_group(backend, group.len(), |i| LaneJob {
                midstate: group[i].0.inner,
                parts: group[i].1,
            });
            let tags = finalize_group(backend, group.len(), |i| {
                LaneJob::new(group[i].0.outer, inner[i].as_bytes())
            });
            for &tag in &tags[..group.len()] {
                out.push(finish(out.len(), tag));
            }
        }
        out
    }
}

impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the pad midstates: they are equivalent to the key for
        // MAC-forging purposes.
        write!(f, "HmacKey(…redacted…)")
    }
}

/// Incremental HMAC-SHA256 computation.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// State after compressing `key ⊕ opad`, replayed at finalize.
    outer: Midstate,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`.
    ///
    /// Keys longer than the 64-byte block are first hashed, per RFC 2104.
    /// This is [`HmacKey::new`] + [`HmacKey::begin`]; callers MAC-ing under
    /// the same key repeatedly should hold the [`HmacKey`] instead and skip
    /// the schedule recomputation.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).begin()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the computation, returning the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::from_midstate(self.outer);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// One-shot HMAC of `message` under `key`.
    pub fn mac(key: &[u8], message: &[u8]) -> Digest {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Verifies a (possibly truncated) tag in constant time.
    ///
    /// `tag` may be any prefix of the full 32-byte HMAC output of width
    /// [`MIN_TAG_LEN`]..=32 — how sensor-grade truncated MACs are checked.
    /// Zero-length tags are rejected: an empty prefix matches trivially and
    /// would make verification vacuous (see [`MIN_TAG_LEN`] for the
    /// deployment-width discussion).
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        HmacKey::new(key).verify(message, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 4231 test cases for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = vec![0x0b; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = vec![0xaa; 20];
        let msg = vec![0xdd; 50];
        let tag = HmacSha256::mac(&key, &msg);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key = hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
        let msg = vec![0xcd; 50];
        let tag = HmacSha256::mac(&key, &msg);
        assert_eq!(
            tag.to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_5_truncated_128_bits() {
        // Test Case 5 exercises exactly our sensor-grade truncation path:
        // the spec publishes only the first 128 bits of the tag.
        let key = vec![0x0c; 20];
        let msg = b"Test With Truncation";
        let tag = HmacSha256::mac(&key, msg);
        let expected = hex("a3b6167473100ee06e0c796c2955552b");
        assert_eq!(&tag.as_bytes()[..16], expected.as_slice());
        // Both verifiers accept the truncated vector.
        assert!(HmacSha256::verify(&key, msg, &expected));
        assert!(HmacKey::new(&key).verify(msg, &expected));
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = vec![0xaa; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = vec![0xaa; 131];
        let msg: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = HmacSha256::mac(&key, msg);
        assert_eq!(
            tag.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn precomputed_key_matches_oneshot_on_rfc_vectors() {
        // Every RFC 4231 key shape (short, exact, longer-than-block) MACs
        // identically through the precomputed schedule.
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![0x0b; 20], b"Hi There".to_vec()),
            (b"Jefe".to_vec(), b"what do ya want for nothing?".to_vec()),
            (vec![0xaa; 20], vec![0xdd; 50]),
            (vec![0xaa; 64], vec![0x33; 100]),
            (vec![0xaa; 131], vec![0x44; 200]),
            (Vec::new(), Vec::new()),
        ];
        for (key, msg) in &cases {
            let prepared = HmacKey::new(key);
            assert_eq!(prepared.mac(msg), HmacSha256::mac(key, msg));
        }
    }

    #[test]
    fn precomputed_key_is_reusable() {
        let key = HmacKey::new(b"reused-key");
        let a1 = key.mac(b"first");
        let b1 = key.mac(b"second");
        assert_eq!(a1, HmacSha256::mac(b"reused-key", b"first"));
        assert_eq!(b1, HmacSha256::mac(b"reused-key", b"second"));
        assert_ne!(a1, b1);
    }

    #[test]
    fn precomputed_streaming_matches_oneshot() {
        let key = HmacKey::new(b"stream-key");
        let msg = b"a message split into several pieces for streaming";
        let mut h = key.begin();
        for chunk in msg.chunks(5) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), key.mac(msg));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"incremental-key";
        let msg = b"a message split into several pieces for streaming";
        let mut h = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), HmacSha256::mac(key, msg));
    }

    #[test]
    fn verify_truncated_tags() {
        let key = b"k";
        let msg = b"m";
        let full = HmacSha256::mac(key, msg);
        for n in MIN_TAG_LEN..=32 {
            assert!(
                HmacSha256::verify(key, msg, &full.as_bytes()[..n]),
                "len {n}"
            );
        }
    }

    #[test]
    fn verify_rejects_wrong_key_and_message() {
        let tag = HmacSha256::mac(b"key", b"msg");
        assert!(!HmacSha256::verify(b"other", b"msg", tag.as_bytes()));
        assert!(!HmacSha256::verify(b"key", b"other", tag.as_bytes()));
    }

    #[test]
    fn verify_rejects_zero_length_tag() {
        // Regression: an empty prefix trivially satisfies constant_time_eq,
        // so a verifier that forgot the width floor would accept it for
        // *any* key and message. Both entry points must refuse.
        assert!(constant_time_eq(b"", b"")); // the trap this guards against
        assert!(!HmacSha256::verify(b"key", b"msg", &[]));
        assert!(!HmacKey::new(b"key").verify(b"msg", &[]));
    }

    #[test]
    fn verify_rejects_degenerate_tags() {
        let tag = HmacSha256::mac(b"key", b"msg");
        assert!(!HmacSha256::verify(b"key", b"msg", &[]));
        let mut long = tag.as_bytes().to_vec();
        long.push(0);
        assert!(!HmacSha256::verify(b"key", b"msg", &long));
        assert!(!HmacKey::new(b"key").verify(b"msg", &long));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let a = HmacSha256::mac(b"key-a", b"msg");
        let b = HmacSha256::mac(b"key-b", b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn empty_message_and_key_are_defined() {
        // HMAC is defined for empty keys and messages; must not panic.
        let t = HmacSha256::mac(b"", b"");
        assert_eq!(t.as_bytes().len(), 32);
        assert_eq!(HmacKey::new(b"").mac(b""), t);
    }

    #[test]
    fn hmac_key_debug_redacts() {
        let k = HmacKey::new(b"super-secret");
        assert_eq!(format!("{k:?}"), "HmacKey(…redacted…)");
    }
}
