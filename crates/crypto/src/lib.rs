//! Symmetric-cryptography substrate for the PNM reproduction.
//!
//! The paper (*Catching "Moles" in Sensor Networks*, ICDCS 2007) assumes
//! sensor nodes can afford only symmetric cryptography: each node shares a
//! secret key with the sink and uses "an efficient and secure keyed hash
//! function `H_k`". This crate provides everything the marking schemes need,
//! implemented from scratch with no external crypto dependencies:
//!
//! - [`sha256`] — FIPS 180-4 SHA-256, validated against NIST vectors, with
//!   exported midstates ([`sha256::Midstate`]) for precomputed-prefix
//!   hashing.
//! - [`hmac`] — HMAC-SHA256 (RFC 2104 / RFC 4231), plus the precomputed
//!   key schedule [`hmac::HmacKey`] the sink hot path runs on.
//! - [`mac`] — truncated sensor-grade MAC tags and per-node keys with
//!   domain separation between the marking MAC `H` and anonymous-ID hash `H'`.
//! - [`anon`] — the anonymous node-ID function `i' = H'_{k_i}(M | i)` that
//!   defeats selective-dropping attacks (§4.2).
//! - [`keystore`] — the sink's id → key lookup table (§2.1).
//!
//! # Examples
//!
//! ```
//! use pnm_crypto::{KeyStore, MacTag};
//!
//! let ks = KeyStore::derive_from_master(b"deployment", 32);
//! let key = ks.key(3).expect("node 3 provisioned");
//! let tag = key.mark_mac(b"report|3", 8);
//! assert!(key.verify_mark_mac(b"report|3", &tag));
//! ```

// `deny` rather than `forbid`: the SIMD dispatch in `sha256_lanes` needs one
// scoped `#[allow(unsafe_code)]` for the `#[target_feature]` kernels; every
// other module still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod anon;
pub mod hmac;
pub mod keystore;
pub mod mac;
pub mod sha256;
pub mod sha256_lanes;

pub use anon::{anon_id, anon_id_many_prepared, anon_id_prepared, AnonId, ANON_ID_LEN};
pub use hmac::{HmacKey, HmacSha256, MIN_TAG_LEN};
pub use keystore::{KeySchedule, KeyStore};
pub use mac::{
    mark_mac_prepared, verify_mark_mac_prepared, verify_mark_macs_prepared, MacKey, MacTag,
    DEFAULT_MAC_LEN,
};
pub use sha256::{Digest, Midstate, Sha256};
pub use sha256_lanes::{LaneBackend, Sha256xN, MAX_LANES};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::hmac::{HmacKey, HmacSha256};
    use crate::mac::MacKey;
    use crate::sha256::{Digest, Sha256};

    proptest! {
        /// The precomputed key schedule is a pure optimization:
        /// `HmacKey::mac` ≡ `HmacSha256::mac` for arbitrary key and message
        /// lengths, including keys longer than the 64-byte block (which RFC
        /// 2104 hashes first) and empty keys/messages.
        #[test]
        fn hmac_key_equals_oneshot(
            key in proptest::collection::vec(any::<u8>(), 0..192),
            msg in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let prepared = HmacKey::new(&key);
            prop_assert_eq!(prepared.mac(&msg), HmacSha256::mac(&key, &msg));
        }

        /// Prepared streaming agrees with one-shot across arbitrary
        /// chunkings, and both verifiers agree on every truncation width.
        #[test]
        fn hmac_key_streaming_and_verify_agree(
            key in proptest::collection::vec(any::<u8>(), 0..100),
            msg in proptest::collection::vec(any::<u8>(), 0..256),
            chunk in 1usize..32,
            width in 1usize..=32,
        ) {
            let prepared = HmacKey::new(&key);
            let mut h = prepared.begin();
            for piece in msg.chunks(chunk) {
                h.update(piece);
            }
            let tag = h.finalize();
            prop_assert_eq!(tag, HmacSha256::mac(&key, &msg));
            prop_assert_eq!(
                prepared.verify(&msg, &tag.as_bytes()[..width]),
                HmacSha256::verify(&key, &msg, &tag.as_bytes()[..width])
            );
        }

        /// Both domain-separated sink functions agree between the raw-key
        /// and precomputed paths for arbitrary inputs.
        #[test]
        fn prepared_domain_functions_equal_raw(
            master in proptest::collection::vec(any::<u8>(), 1..32),
            report in proptest::collection::vec(any::<u8>(), 0..128),
            node in any::<u16>(),
            width in 1usize..=32,
        ) {
            let k = MacKey::derive(&master, node as u64);
            let prepared = k.prepare();
            prop_assert_eq!(
                crate::anon::anon_id_prepared(&prepared, &report, node),
                crate::anon::anon_id(&k, &report, node)
            );
            prop_assert_eq!(
                crate::mac::mark_mac_prepared(&prepared, &report, width),
                k.mark_mac(&report, width)
            );
        }
    }

    proptest! {
        /// Streaming and one-shot hashing agree for arbitrary inputs and
        /// arbitrary chunkings.
        #[test]
        fn sha256_streaming_equals_oneshot(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            splits in proptest::collection::vec(0usize..2048, 0..8),
        ) {
            let mut h = Sha256::new();
            let mut prev = 0usize;
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            for cut in cuts {
                h.update(&data[prev..cut.max(prev)]);
                prev = cut.max(prev);
            }
            h.update(&data[prev..]);
            prop_assert_eq!(h.finalize(), Sha256::digest(&data));
        }

        /// Hex round-trip is lossless.
        #[test]
        fn digest_hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let d = Sha256::digest(&data);
            prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        }

        /// HMAC verification accepts the genuine tag at every truncation
        /// width and rejects a tag for any different message.
        #[test]
        fn hmac_verify_is_sound(
            key in proptest::collection::vec(any::<u8>(), 0..128),
            msg in proptest::collection::vec(any::<u8>(), 0..512),
            width in 1usize..=32,
        ) {
            let tag = HmacSha256::mac(&key, &msg);
            prop_assert!(HmacSha256::verify(&key, &msg, &tag.as_bytes()[..width]));
            // A short truncated tag can collide by chance (e.g. 1/256 for a
            // 1-byte tag), so only assert rejection at widths where chance
            // collision is cryptographically negligible.
            if width >= 8 {
                let mut other = msg.clone();
                other.push(0x55);
                prop_assert!(!HmacSha256::verify(&key, &other, &tag.as_bytes()[..width]));
            }
        }

        /// Any single-bit flip in a message invalidates its mark MAC.
        #[test]
        fn mark_mac_detects_bit_flips(
            msg in proptest::collection::vec(any::<u8>(), 1..256),
            bit in 0usize..2048,
            node in any::<u64>(),
        ) {
            let k = MacKey::derive(b"prop-master", node);
            let tag = k.mark_mac(&msg, 8);
            let mut tampered = msg.clone();
            let b = bit % (msg.len() * 8);
            tampered[b / 8] ^= 1 << (b % 8);
            prop_assert!(!k.verify_mark_mac(&tampered, &tag));
        }

        /// Anonymous IDs never collide with the marking MAC prefix for the
        /// same key/message (domain separation holds).
        #[test]
        fn anon_and_mark_are_domain_separated(
            msg in proptest::collection::vec(any::<u8>(), 0..256),
            node in any::<u16>(),
        ) {
            let k = MacKey::derive(b"prop-master", node as u64);
            let mark = k.mark_mac(&msg, 8);
            let anon = crate::anon::anon_id(&k, &msg, node);
            prop_assert_ne!(mark.as_bytes(), anon.as_bytes());
        }
    }

    // ------------------------------------------------------------------
    // Differential suite: lane-parallel ≡ scalar. Every batched API must be
    // element-wise identical to its scalar counterpart for arbitrary
    // message lengths (including 0, block boundaries, and >64-byte keys),
    // ragged batch sizes (not a multiple of any lane width), and on every
    // kernel the host supports. The kernel oracle is the portable kernel on
    // an explicit request, pinned to the NIST and RFC 4231 vectors; the
    // scalar `Sha256` is no oracle for the kernels, since it runs on the
    // dispatched one.
    // ------------------------------------------------------------------
    use crate::sha256_lanes::{LaneBackend, LaneJob, Sha256xN};

    fn backends() -> Vec<LaneBackend> {
        [
            LaneBackend::Portable,
            LaneBackend::Avx2x8,
            LaneBackend::ShaNi,
        ]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
    }

    proptest! {
        /// `Sha256xN::finalize_many_with` ≡ the portable kernel, and the
        /// scalar `Sha256` ≡ it too, for ragged batches of arbitrary
        /// lengths on every available kernel. Lengths are drawn 0..200 so
        /// block-boundary cases (55/56/64/119…) occur constantly.
        #[test]
        fn lanes_equal_portable_oracle(
            msgs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..200), 0..21),
        ) {
            let jobs: Vec<LaneJob<'_>> = msgs
                .iter()
                .map(|m| LaneJob::new(crate::sha256::Midstate::initial(), m))
                .collect();
            let expected = Sha256xN::finalize_many_with(LaneBackend::Portable, &jobs);
            for backend in backends() {
                prop_assert_eq!(
                    Sha256xN::finalize_many_with(backend, &jobs),
                    expected.clone()
                );
            }
            let scalar: Vec<Digest> = msgs.iter().map(|m| Sha256::digest(m)).collect();
            prop_assert_eq!(scalar, expected);
        }

        /// `HmacKey::mac_many` ≡ scalar `mac` for arbitrary keys (including
        /// >64-byte keys that RFC 2104 pre-hashes) and messages, and every
        /// batched tag verifies through the scalar `verify` at every
        /// truncation width.
        #[test]
        fn mac_many_equals_scalar(
            keys in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..100), 1..13),
            msgs in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..150), 1..13),
            long_key in proptest::collection::vec(any::<u8>(), 65..200),
            width in 1usize..=32,
        ) {
            let mut prepared: Vec<HmacKey> = keys.iter().map(|k| HmacKey::new(k)).collect();
            prepared.push(HmacKey::new(&long_key));
            let jobs: Vec<(&HmacKey, &[u8])> = prepared
                .iter()
                .enumerate()
                .map(|(i, k)| (k, msgs[i % msgs.len()].as_slice()))
                .collect();
            let batched = HmacKey::mac_many(&jobs);
            for (i, &(key, msg)) in jobs.iter().enumerate() {
                prop_assert_eq!(batched[i], key.mac(msg));
                prop_assert!(key.verify(msg, &batched[i].as_bytes()[..width]));
            }
        }

        /// Batched mark-MAC verification and anon IDs ≡ their scalar
        /// prepared forms for an arbitrary node population and report:
        /// every scalar `mark_mac_prepared` tag verifies in the batch, and
        /// a corrupted one fails at its own index only.
        #[test]
        fn batched_domain_functions_equal_scalar(
            master in proptest::collection::vec(any::<u8>(), 1..32),
            report in proptest::collection::vec(any::<u8>(), 0..128),
            nodes in proptest::collection::vec(any::<u16>(), 1..19),
            width in 1usize..=32,
            corrupt in any::<prop::sample::Index>(),
        ) {
            let prepared: Vec<HmacKey> = nodes
                .iter()
                .map(|&n| MacKey::derive(&master, n as u64).prepare())
                .collect();
            let mut tags: Vec<crate::MacTag> = prepared
                .iter()
                .map(|k| crate::mac::mark_mac_prepared(k, &report, width))
                .collect();
            let bad = corrupt.index(tags.len());
            tags[bad] = tags[bad].corrupted();
            let verify_jobs: Vec<(&HmacKey, &[u8], &crate::MacTag)> = prepared
                .iter()
                .zip(&tags)
                .map(|(k, tag)| (k, report.as_slice(), tag))
                .collect();
            let verdicts = crate::mac::verify_mark_macs_prepared(&verify_jobs);
            for (i, &(k, msg, tag)) in verify_jobs.iter().enumerate() {
                prop_assert_eq!(verdicts[i], i != bad);
                prop_assert_eq!(verdicts[i], crate::mac::verify_mark_mac_prepared(k, msg, tag));
            }

            let ids = crate::anon::anon_id_many_prepared(&prepared, &report, &nodes);
            for (i, k) in prepared.iter().enumerate() {
                prop_assert_eq!(ids[i], crate::anon::anon_id_prepared(k, &report, nodes[i]));
            }
        }

        /// `HmacKey::new_many` ≡ per-key `HmacKey::new`, covering keys
        /// shorter than, equal to, and longer than the 64-byte block.
        #[test]
        fn new_many_equals_new(
            keys in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..130), 0..11),
        ) {
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let batched = HmacKey::new_many(&refs);
            prop_assert_eq!(batched.len(), keys.len());
            for (i, k) in keys.iter().enumerate() {
                prop_assert_eq!(batched[i], HmacKey::new(k));
            }
        }
    }
}
