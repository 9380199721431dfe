//! Truncated message-authentication codes sized for sensor packets.
//!
//! Sensor packets cannot afford full 32-byte tags; deployments truncate the
//! HMAC output to a handful of bytes (the paper leaves the width open — see
//! DESIGN.md §6.1). [`MacTag`] stores a tag of 1..=32 bytes inline, and
//! [`MacKey`] wraps the keyed computation with domain separation so the
//! marking MAC `H_k` and the anonymous-ID function `H'_k` can never collide.

use core::fmt;

use crate::hmac::{HmacKey, HmacSha256};
use crate::sha256::{constant_time_eq, DIGEST_LEN};

/// Default truncated-MAC width in bytes used throughout the reproduction.
pub const DEFAULT_MAC_LEN: usize = 8;

/// Domain-separation label for the nested-marking MAC `H_k`.
pub(crate) const DOMAIN_MARK: &[u8] = b"pnm/mark/v1";
/// Domain-separation label for the anonymous-ID function `H'_k`.
pub(crate) const DOMAIN_ANON: &[u8] = b"pnm/anon/v1";

/// A truncated MAC tag of 1..=32 bytes, stored inline.
///
/// Equality is constant-time over the tag bytes.
// Hash/PartialEq stay consistent: constant-time equality decides exactly
// byte equality, the same relation the derived Hash hashes over.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Copy, Eq, Hash, PartialOrd, Ord)]
pub struct MacTag {
    bytes: [u8; DIGEST_LEN],
    len: u8,
}

impl MacTag {
    /// Wraps raw tag bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty or longer than 32 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        assert!(
            !bytes.is_empty() && bytes.len() <= DIGEST_LEN,
            "MAC tag must be 1..=32 bytes, got {}",
            bytes.len()
        );
        let mut buf = [0u8; DIGEST_LEN];
        buf[..bytes.len()].copy_from_slice(bytes);
        MacTag {
            bytes: buf,
            len: bytes.len() as u8,
        }
    }

    /// The tag bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Tag width in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if the tag holds no bytes (never constructible; kept for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a copy with every bit of the tag flipped — handy for tests
    /// and for modelling mark-altering attacks.
    pub fn corrupted(&self) -> Self {
        let mut out = *self;
        for b in &mut out.bytes[..out.len as usize] {
            *b = !*b;
        }
        out
    }

    /// Returns a copy with a single bit flipped at `bit_index`
    /// (wrapping within the tag).
    pub fn with_bit_flipped(&self, bit_index: usize) -> Self {
        let mut out = *self;
        let nbits = out.len as usize * 8;
        let i = bit_index % nbits;
        out.bytes[i / 8] ^= 1 << (i % 8);
        out
    }
}

impl PartialEq for MacTag {
    fn eq(&self, other: &Self) -> bool {
        constant_time_eq(self.as_bytes(), other.as_bytes())
    }
}

impl fmt::Debug for MacTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacTag(")?;
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl AsRef<[u8]> for MacTag {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl serde::Serialize for MacTag {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(self.as_bytes())
    }
}

impl<'de> serde::Deserialize<'de> for MacTag {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes: Vec<u8> = serde::Deserialize::deserialize(deserializer)?;
        if bytes.is_empty() || bytes.len() > DIGEST_LEN {
            return Err(serde::de::Error::custom("MAC tag must be 1..=32 bytes"));
        }
        Ok(MacTag::from_bytes(&bytes))
    }
}

/// A per-node symmetric key shared with the sink.
///
/// 16 bytes, matching the key sizes used on Mica2-class hardware.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacKey([u8; 16]);

impl MacKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        MacKey(bytes)
    }

    /// Derives a deterministic per-node key from a master secret and a node
    /// index — the "pre-loaded before deployment" model of the paper (§2.1).
    pub fn derive(master: &[u8], index: u64) -> Self {
        let mut h = HmacSha256::new(master);
        h.update(b"pnm/keygen/v1");
        h.update(&index.to_be_bytes());
        let d = h.finalize();
        let mut k = [0u8; 16];
        k.copy_from_slice(&d.as_bytes()[..16]);
        MacKey(k)
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 16] {
        &self.0
    }

    /// Precomputes the HMAC key schedule for this key.
    ///
    /// The returned [`HmacKey`] computes the same marking MACs and
    /// anonymous IDs (via [`mark_mac_prepared`] /
    /// [`crate::anon::anon_id_prepared`]) two SHA-256 compressions cheaper
    /// per call. The sink precomputes one per provisioned node
    /// ([`crate::keystore::KeyStore::schedule`]).
    pub fn prepare(&self) -> HmacKey {
        HmacKey::new(&self.0)
    }

    /// Computes the marking MAC `H_k(message)`, truncated to `width` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 32.
    pub fn mark_mac(&self, message: &[u8], width: usize) -> MacTag {
        mark_mac_from(HmacSha256::new(&self.0), message, width)
    }

    /// Verifies a truncated marking MAC in constant time.
    pub fn verify_mark_mac(&self, message: &[u8], tag: &MacTag) -> bool {
        let expected = self.mark_mac(message, tag.len());
        expected == *tag
    }
}

/// [`MacKey::mark_mac`] through a precomputed [`HmacKey`] schedule —
/// identical output for the same underlying key, two compressions cheaper.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 32.
pub fn mark_mac_prepared(key: &HmacKey, message: &[u8], width: usize) -> MacTag {
    mark_mac_from(key.begin(), message, width)
}

/// [`MacKey::verify_mark_mac`] through a precomputed [`HmacKey`] schedule.
pub fn verify_mark_mac_prepared(key: &HmacKey, message: &[u8], tag: &MacTag) -> bool {
    mark_mac_prepared(key, message, tag.len()) == *tag
}

/// Batched [`verify_mark_mac_prepared`]: checks many `(key, message, tag)`
/// jobs lane-parallel (see [`crate::Sha256xN`]), comparing each full MAC
/// prefix in constant time. Element-wise equal to the scalar verifier.
pub fn verify_mark_macs_prepared(jobs: &[(&HmacKey, &[u8], &MacTag)]) -> Vec<bool> {
    let parts: Vec<(&HmacKey, [&[u8]; 3])> = jobs
        .iter()
        .map(|&(key, msg, _)| (key, [DOMAIN_MARK, msg, &[][..]]))
        .collect();
    HmacKey::mac_many_parts(&parts, |i, full| {
        let tag = jobs[i].2;
        constant_time_eq(&full.as_bytes()[..tag.len()], tag.as_bytes())
    })
}

/// Shared `H_k(DOMAIN_MARK | message)` composition over an opened context.
fn mark_mac_from(mut h: HmacSha256, message: &[u8], width: usize) -> MacTag {
    assert!(
        (1..=DIGEST_LEN).contains(&width),
        "MAC width must be 1..=32, got {width}"
    );
    h.update(DOMAIN_MARK);
    h.update(message);
    MacTag::from_bytes(&h.finalize().as_bytes()[..width])
}

impl fmt::Debug for MacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "MacKey(…redacted…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mark_mac_verifies() {
        let k = MacKey::derive(b"master", 7);
        let tag = k.mark_mac(b"hello", DEFAULT_MAC_LEN);
        assert_eq!(tag.len(), DEFAULT_MAC_LEN);
        assert!(k.verify_mark_mac(b"hello", &tag));
        assert!(!k.verify_mark_mac(b"hullo", &tag));
    }

    #[test]
    fn different_nodes_different_keys() {
        let a = MacKey::derive(b"master", 1);
        let b = MacKey::derive(b"master", 2);
        assert_ne!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn different_masters_different_keys() {
        let a = MacKey::derive(b"master-a", 1);
        let b = MacKey::derive(b"master-b", 1);
        assert_ne!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn corrupted_tag_rejected() {
        let k = MacKey::derive(b"m", 0);
        let tag = k.mark_mac(b"payload", 8);
        assert!(!k.verify_mark_mac(b"payload", &tag.corrupted()));
    }

    #[test]
    fn single_bit_flip_rejected() {
        let k = MacKey::derive(b"m", 0);
        let tag = k.mark_mac(b"payload", 8);
        for bit in 0..64 {
            assert!(
                !k.verify_mark_mac(b"payload", &tag.with_bit_flipped(bit)),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn prepared_mark_mac_matches_oneshot() {
        let k = MacKey::derive(b"m", 11);
        let prepared = k.prepare();
        for width in [1usize, 4, 8, 32] {
            let msg = b"a mark-sized message body";
            assert_eq!(
                mark_mac_prepared(&prepared, msg, width),
                k.mark_mac(msg, width)
            );
        }
        let tag = k.mark_mac(b"payload", 8);
        assert!(verify_mark_mac_prepared(&prepared, b"payload", &tag));
        assert!(!verify_mark_mac_prepared(
            &prepared,
            b"payload",
            &tag.corrupted()
        ));
        assert!(!verify_mark_mac_prepared(&prepared, b"other", &tag));
    }

    #[test]
    fn all_widths_work() {
        let k = MacKey::derive(b"m", 3);
        for width in 1..=32 {
            let tag = k.mark_mac(b"x", width);
            assert_eq!(tag.len(), width);
            assert!(k.verify_mark_mac(b"x", &tag));
        }
    }

    #[test]
    #[should_panic(expected = "MAC width")]
    fn zero_width_panics() {
        let k = MacKey::derive(b"m", 0);
        let _ = k.mark_mac(b"x", 0);
    }

    #[test]
    #[should_panic(expected = "MAC tag")]
    fn oversized_tag_panics() {
        let _ = MacTag::from_bytes(&[0u8; 33]);
    }

    #[test]
    fn tag_equality_is_width_sensitive() {
        let k = MacKey::derive(b"m", 0);
        let t8 = k.mark_mac(b"x", 8);
        let t16 = k.mark_mac(b"x", 16);
        assert_ne!(t8, t16);
        // But the 8-byte tag is a prefix of the 16-byte one.
        assert_eq!(t8.as_bytes(), &t16.as_bytes()[..8]);
    }

    #[test]
    fn debug_never_leaks_key() {
        let k = MacKey::derive(b"super-secret-master", 42);
        let s = format!("{k:?}");
        assert!(s.contains("redacted"));
        assert!(!s.contains("super"));
    }

    #[test]
    fn domain_separation_mark_vs_anon() {
        // The same key and message must yield different outputs for the
        // marking MAC and the anonymous-ID hash (see anon.rs).
        let k = MacKey::derive(b"m", 9);
        let mark = k.mark_mac(b"msg", 8);
        let anon = crate::anon::anon_id(&k, b"msg", 1);
        assert_ne!(mark.as_bytes(), anon.as_bytes());
    }
}
