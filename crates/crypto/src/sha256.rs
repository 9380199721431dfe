//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! The paper assumes only "efficient symmetric cryptography (e.g., secure
//! hash functions)" is available on sensor nodes. This module provides the
//! hash substrate everything else (HMAC, MACs, anonymous IDs) is built on.
//! It is an allocation-free implementation of the FIPS 180-4 specification,
//! validated against the NIST test vectors in the unit tests below. The
//! compression function itself is the runtime-dispatched kernel in
//! [`crate::sha256_lanes`] (SHA-NI where the CPU has it, else portable).
//!
//! # Examples
//!
//! ```
//! use pnm_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use core::fmt;

use crate::sha256_lanes::compress_blocks;

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of the SHA-256 internal block in bytes.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 prime numbers (FIPS 180-4 §4.2.2).
///
/// Used by the compression kernels in [`crate::sha256_lanes`].
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 32-byte SHA-256 digest.
///
/// Implements constant-time equality to avoid timing side channels when
/// digests are compared as authenticators.
// Hash/PartialEq stay consistent: constant-time equality decides exactly
// byte equality, the same relation the derived Hash hashes over.
#[allow(clippy::derived_hash_with_manual_eq)]
#[derive(Clone, Copy, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Returns the digest bytes as a slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Renders the digest as a lowercase hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(DIGEST_LEN * 2);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a digest from a 64-character hex string.
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != DIGEST_LEN * 2 || !s.is_ascii() {
            return None;
        }
        let bytes = s.as_bytes();
        let mut out = [0u8; DIGEST_LEN];
        for (i, chunk) in bytes.chunks_exact(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// The big-endian serialization of a final chaining value.
    pub(crate) fn from_state(state: &[u32; 8]) -> Self {
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Truncates the digest to its first `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn truncate(&self, n: usize) -> &[u8] {
        assert!(n <= DIGEST_LEN, "cannot truncate a 32-byte digest to {n}");
        &self.0[..n]
    }
}

impl PartialEq for Digest {
    fn eq(&self, other: &Self) -> bool {
        constant_time_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; DIGEST_LEN]> for Digest {
    fn from(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }
}

impl serde::Serialize for Digest {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bytes(&self.0)
    }
}

impl<'de> serde::Deserialize<'de> for Digest {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let bytes: Vec<u8> = serde::Deserialize::deserialize(deserializer)?;
        let arr: [u8; DIGEST_LEN] = bytes
            .try_into()
            .map_err(|_| serde::de::Error::custom("digest must be exactly 32 bytes"))?;
        Ok(Digest(arr))
    }
}

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately if lengths differ (length is not secret).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// A captured SHA-256 compression state at a block boundary.
///
/// A midstate is the 8-word chaining value after absorbing a whole number
/// of 64-byte blocks, together with how many bytes produced it. Restoring
/// it with [`Sha256::from_midstate`] resumes hashing exactly where the
/// capture left off, so a fixed prefix (e.g. an HMAC key pad block) is
/// compressed **once** and replayed for free on every subsequent message.
/// This is the standard "exported midstate" trick Bitcoin miners and
/// long-lived MAC verifiers use; here it powers [`crate::hmac::HmacKey`].
///
/// # Examples
///
/// ```
/// use pnm_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(&[0x36u8; 64]); // one full block: state is at a boundary
/// let mid = h.midstate();
///
/// let mut resumed = Sha256::from_midstate(mid);
/// resumed.update(b"suffix");
/// h.update(b"suffix");
/// assert_eq!(resumed.finalize(), h.finalize());
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Midstate {
    state: [u32; 8],
    /// Bytes absorbed to reach this state (always a multiple of 64).
    byte_len: u64,
}

impl Midstate {
    /// Bytes absorbed to reach this state (always a multiple of
    /// [`BLOCK_LEN`]).
    pub fn byte_len(&self) -> u64 {
        self.byte_len
    }

    /// The SHA-256 initial chaining value with no bytes absorbed.
    ///
    /// Finalizing from this midstate is exactly a one-shot hash; the lane
    /// engine starts its pad-midstate batches (`Sha256xN::midstate_many`)
    /// from it.
    pub(crate) fn initial() -> Self {
        Midstate {
            state: H0,
            byte_len: 0,
        }
    }

    /// Raw chaining value, for the lane kernels only. Never expose this
    /// publicly: HMAC pad midstates are key material.
    pub(crate) fn state(&self) -> [u32; 8] {
        self.state
    }

    /// Reassemble a midstate from a raw chaining value. `byte_len` must be
    /// the (block-aligned) byte count that produced `state`.
    pub(crate) fn from_raw(state: [u32; 8], byte_len: u64) -> Self {
        debug_assert_eq!(byte_len % BLOCK_LEN as u64, 0);
        Midstate { state, byte_len }
    }
}

impl fmt::Debug for Midstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Midstates derived from secret key pads must not leak: printing
        // the chaining value would hand an attacker the precomputed pad.
        f.debug_struct("Midstate")
            .field("byte_len", &self.byte_len)
            .finish_non_exhaustive()
    }
}

/// Incremental SHA-256 hasher.
///
/// Use [`Sha256::digest`] for one-shot hashing, or `update`/`finalize` for
/// streaming input.
///
/// # Examples
///
/// ```
/// use pnm_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Buffered partial block.
    buf: [u8; BLOCK_LEN],
    /// Number of valid bytes in `buf`.
    buf_len: usize,
    /// Total message length in bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buf_len", &self.buf_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Captures the current compression state as a [`Midstate`].
    ///
    /// # Panics
    ///
    /// Panics unless the hasher sits exactly on a 64-byte block boundary
    /// (no buffered partial block): a midstate is a chaining value, and
    /// chaining values only exist between whole compressed blocks.
    pub fn midstate(&self) -> Midstate {
        assert!(
            self.buf_len == 0,
            "midstate capture requires a block boundary ({} buffered bytes)",
            self.buf_len
        );
        Midstate {
            state: self.state,
            byte_len: self.total_len,
        }
    }

    /// Resumes hashing from a previously captured [`Midstate`].
    ///
    /// The restored hasher behaves exactly as if it had just absorbed the
    /// `midstate.byte_len()` bytes that produced the capture.
    pub fn from_midstate(midstate: Midstate) -> Self {
        Sha256 {
            state: midstate.state,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: midstate.byte_len,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Fill the partial block first.
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            data = &data[take..];
        }
        // Hash full blocks in place, then stash the tail.
        let full = data.len() - data.len() % BLOCK_LEN;
        compress_blocks(&mut self.state, &data[..full]);
        self.buf[..data.len() - full].copy_from_slice(&data[full..]);
        self.buf_len = data.len() - full;
    }

    /// Finishes the hash computation and returns the digest.
    ///
    /// Consumes the hasher; clone it first if you need to continue hashing.
    pub fn finalize(mut self) -> Digest {
        // Append 0x80, zero-pad to 56 mod 64, then the 64-bit bit length —
        // one or two blocks staged on the stack, so finalizing never
        // allocates. This is the HMAC hot path: every MAC finalizes twice
        // (inner and outer hash).
        let mut tail = [0u8; BLOCK_LEN * 2];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let end = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            BLOCK_LEN * 2
        };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..end]);
        Digest::from_state(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NIST / well-known SHA-256 test vectors.
    const VECTORS: &[(&[u8], &str)] = &[
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        ),
    ];

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(Sha256::digest(input).to_hex(), *expected);
        }
    }

    #[test]
    fn million_a() {
        // FIPS 180-4 long vector: 1,000,000 repetitions of 'a'.
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 500, 997] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time() {
        let data = b"nested marking protects all upstream marks";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(core::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(data));
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding around the 55/56/63/64 byte block boundaries.
        for len in [54, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let d1 = h.finalize();
            let d2 = Sha256::digest(&data);
            assert_eq!(d1, d2, "len {len}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        let parsed = Digest::from_hex(&d.to_hex()).expect("valid hex");
        assert_eq!(parsed, d);
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("").is_none());
        assert!(Digest::from_hex("zz").is_none());
        let d = Sha256::digest(b"x").to_hex();
        assert!(Digest::from_hex(&d[..62]).is_none());
        let bad = format!("{}zz", &d[..62]);
        assert!(Digest::from_hex(&bad).is_none());
    }

    #[test]
    fn truncate_prefix() {
        let d = Sha256::digest(b"abc");
        assert_eq!(d.truncate(8), &d.0[..8]);
        assert_eq!(d.truncate(32).len(), 32);
    }

    #[test]
    #[should_panic(expected = "cannot truncate")]
    fn truncate_too_long_panics() {
        let d = Sha256::digest(b"abc");
        let _ = d.truncate(33);
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        // Smoke test for gross implementation errors (e.g., ignoring input).
        let a = Sha256::digest(b"input-a");
        let b = Sha256::digest(b"input-b");
        assert_ne!(a, b);
    }

    #[test]
    fn midstate_resume_matches_oneshot() {
        // Capture after 1, 2, and 3 whole blocks; resuming must agree with
        // hashing the concatenation in one go.
        let data: Vec<u8> = (0..256u32).map(|i| (i * 7 % 251) as u8).collect();
        for blocks in 1..=3usize {
            let cut = blocks * BLOCK_LEN;
            let mut h = Sha256::new();
            h.update(&data[..cut]);
            let mid = h.midstate();
            assert_eq!(mid.byte_len(), cut as u64);
            let mut resumed = Sha256::from_midstate(mid);
            resumed.update(&data[cut..]);
            assert_eq!(resumed.finalize(), Sha256::digest(&data), "cut {cut}");
        }
    }

    #[test]
    fn midstate_is_reusable() {
        // One capture, many resumptions — the HMAC-key usage pattern.
        let mut h = Sha256::new();
        h.update(&[0x5c; BLOCK_LEN]);
        let mid = h.midstate();
        for suffix in [&b"a"[..], b"bb", b"ccc"] {
            let mut full = Sha256::new();
            full.update(&[0x5c; BLOCK_LEN]);
            full.update(suffix);
            let mut resumed = Sha256::from_midstate(mid);
            resumed.update(suffix);
            assert_eq!(resumed.finalize(), full.finalize());
        }
    }

    #[test]
    #[should_panic(expected = "block boundary")]
    fn midstate_off_boundary_panics() {
        let mut h = Sha256::new();
        h.update(b"partial");
        let _ = h.midstate();
    }

    #[test]
    fn midstate_debug_redacts_state() {
        let mid = Sha256::new().midstate();
        let s = format!("{mid:?}");
        assert!(s.contains("byte_len"));
        // The chaining words must not be printed (H0 starts 0x6a09e667).
        assert!(!s.contains("6a09e667") && !s.contains("1779033703"));
    }

    #[test]
    fn debug_display_nonempty() {
        let d = Sha256::digest(b"abc");
        assert!(!format!("{d:?}").is_empty());
        assert!(!format!("{d}").is_empty());
        let h = Sha256::new();
        assert!(!format!("{h:?}").is_empty());
    }
}
