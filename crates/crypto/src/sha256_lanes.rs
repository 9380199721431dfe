//! Message-parallel multi-lane SHA-256: the [`Sha256xN`] engine.
//!
//! The sink's hot path is many *independent* short hashes (one HMAC per mark
//! candidate, one per anon-table entry), not one long message — so the
//! profitable axis is message parallelism: keep several separate messages
//! in flight through the SHA-256 compression function at once.
//!
//! Three kernels implement the same compression:
//!
//! - a SHA-NI kernel (`sha256rnds2`, `sha256msg1`, `sha256msg2`): the
//!   hardware rounds, one or two messages per call with the two messages'
//!   rounds interleaved so one's `sha256rnds2` latency hides behind the
//!   other's;
//! - an AVX2 8-lane kernel (`__m256i`): each 32-bit word of the working
//!   state becomes a vector holding that word for 8 messages ("struct of
//!   arrays"), and the 64 rounds execute once for all lanes;
//! - a portable const-generic struct-of-arrays kernel over `[u32; N]` that
//!   compiles everywhere, auto-vectorizes where possible, and serves as the
//!   reference the hardware paths are proven digest-identical to.
//!
//! Dispatch is by runtime detection (`is_x86_feature_detected!`), cached in
//! a `OnceLock`: SHA-NI where `sha`, `sse4.1` and `ssse3` are all present,
//! else AVX2, else portable. The one-message [`Sha256`] compresses through
//! the same dispatch, so every hash in the crate runs on the chosen kernel.
//! Setting `PNM_SHA256_FORCE_PORTABLE=1` in the environment pins the
//! portable kernel regardless of CPU features, for [`Sha256`] too (CI runs
//! the suite both ways so the fallback cannot rot).
//!
//! Scheduling: a batch runs in groups of at most [`MAX_LANES`] jobs
//! (`finalize_group`). A group's lanes are ordered by descending block
//! count in a stack array and compressed block-step by block-step, each
//! step's padded blocks built in a stack buffer. Because of the sort, the
//! lanes still active at step `b` are always a *prefix* of the order, so
//! every step compresses a contiguous run of lanes (SHA-NI pairs plus a
//! straggler, or an AVX2 group of 8 with the rest on the portable kernel)
//! with no gather/scatter and no heap buffer. Digests come back in the
//! caller's job order.
//!
//! Everything here resumes from [`Midstate`]s, so HMAC's precomputed
//! pad-block midstates (see [`crate::HmacKey`]) drop straight in: a batched
//! MAC runs both rounds per group (inner hashes, then outer hashes over the
//! 32-byte inner digests — a perfectly uniform second round).

use std::sync::OnceLock;

// `Sha256` is named only by doc links and the tests.
#[cfg(any(doc, test))]
use crate::sha256::Sha256;
use crate::sha256::{Digest, Midstate, BLOCK_LEN, DIGEST_LEN, K};

/// Widest lane group any kernel processes at once.
pub const MAX_LANES: usize = 8;

/// Length of the padding suffix: one `0x80` byte plus the 64-bit bit length.
const PAD_MIN: usize = 9;

/// Which compression kernel a lane batch runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneBackend {
    /// Portable struct-of-arrays `u32` kernel; compiles on every target.
    Portable,
    /// AVX2 8-lane kernel (`__m256i`); requires runtime AVX2 detection.
    Avx2x8,
    /// SHA-NI kernel, two messages interleaved; requires runtime detection
    /// of `sha`, `sse4.1` and `ssse3`.
    ShaNi,
}

impl LaneBackend {
    /// Whether this backend can run on the current host.
    pub fn is_available(self) -> bool {
        match self {
            LaneBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            LaneBackend::Avx2x8 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            LaneBackend::ShaNi => {
                std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("sse4.1")
                    && std::arch::is_x86_feature_detected!("ssse3")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Short stable name for logs and bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            LaneBackend::Portable => "portable",
            LaneBackend::Avx2x8 => "avx2x8",
            LaneBackend::ShaNi => "shani",
        }
    }
}

/// One independent message in a lane batch: a resume point plus up to three
/// message parts hashed in order (empty parts are skipped).
///
/// Three parts cover every composition the hot path needs without
/// materializing concatenated buffers: `domain ‖ message`,
/// `domain ‖ report ‖ id`, or a plain single-slice message.
#[derive(Clone, Copy)]
pub(crate) struct LaneJob<'a> {
    /// Block-aligned chaining value to resume from (e.g. an HMAC pad
    /// midstate).
    pub(crate) midstate: Midstate,
    /// Message parts, absorbed left to right.
    pub(crate) parts: [&'a [u8]; 3],
}

impl<'a> LaneJob<'a> {
    /// A job hashing a single contiguous message from `midstate`.
    pub(crate) fn new(midstate: Midstate, message: &'a [u8]) -> Self {
        LaneJob {
            midstate,
            parts: [message, &[], &[]],
        }
    }

    fn msg_len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum()
    }

    /// Blocks hashed from the midstate on: the parts, `0x80`, zero padding
    /// and the 64-bit bit length.
    fn blocks(&self) -> usize {
        (self.msg_len() + PAD_MIN).div_ceil(BLOCK_LEN)
    }

    /// Writes block `b` of the padded stream into `block`. The bit length
    /// closing the last block counts the midstate's absorbed bytes too.
    fn padded_block(&self, b: usize, block: &mut [u8; BLOCK_LEN]) {
        let start = b * BLOCK_LEN;
        let end = start + BLOCK_LEN;
        block.fill(0);
        let mut pos = 0;
        for part in self.parts {
            let (lo, hi) = (pos.max(start), (pos + part.len()).min(end));
            if lo < hi {
                block[lo - start..hi - start].copy_from_slice(&part[lo - pos..hi - pos]);
            }
            pos += part.len();
        }
        if (start..end).contains(&pos) {
            block[pos - start] = 0x80;
        }
        if b + 1 == self.blocks() {
            let bit_len = self
                .midstate
                .byte_len()
                .wrapping_add(pos as u64)
                .wrapping_mul(8);
            block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        }
    }
}

/// The multi-lane SHA-256 engine. All methods are stateless entry points;
/// see the module docs for the execution model.
pub struct Sha256xN;

impl Sha256xN {
    /// The kernel batches and [`Sha256`] run on, after runtime detection
    /// and the `PNM_SHA256_FORCE_PORTABLE` override.
    pub fn backend() -> LaneBackend {
        static BACKEND: OnceLock<LaneBackend> = OnceLock::new();
        *BACKEND.get_or_init(|| {
            let forced = std::env::var_os("PNM_SHA256_FORCE_PORTABLE")
                .is_some_and(|v| !v.is_empty() && v != "0");
            if forced {
                return LaneBackend::Portable;
            }
            [LaneBackend::ShaNi, LaneBackend::Avx2x8]
                .into_iter()
                .find(|b| b.is_available())
                .unwrap_or(LaneBackend::Portable)
        })
    }

    /// Compresses one whole block per lane from the initial state and
    /// returns the captured midstates — the batched form of feeding a
    /// single 64-byte block to [`Sha256`] and calling
    /// [`Sha256::midstate`]. Used to prepare many HMAC pad midstates at
    /// once ([`crate::HmacKey::new_many`]).
    pub fn midstate_many(blocks: &[[u8; BLOCK_LEN]]) -> Vec<Midstate> {
        let backend = Self::backend();
        let mut states = vec![Midstate::initial().state(); blocks.len()];
        for (states, blocks) in states.chunks_mut(MAX_LANES).zip(blocks.chunks(MAX_LANES)) {
            let refs: [&[u8]; MAX_LANES] =
                core::array::from_fn(|l| blocks.get(l).map_or(&[][..], |b| &b[..]));
            compress_group(backend, states, &refs[..blocks.len()]);
        }
        states
            .into_iter()
            .map(|s| Midstate::from_raw(s, BLOCK_LEN as u64))
            .collect()
    }
}

/// Compresses whole 64-byte blocks into `state`, one at a time, on the
/// dispatched kernel: the compression [`Sha256`] runs on.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    let backend = Sha256xN::backend();
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress_group(backend, core::slice::from_mut(state), &[block]);
    }
}

/// The batch scheduler: finalizes jobs `job(0)..job(n)`, at most
/// [`MAX_LANES`] of them, on `backend` and returns their digests in job
/// order (slots from `n` on stay zero).
///
/// Exactly equivalent to, for each job, resuming a [`Sha256`] from the
/// job's midstate, updating with each part, and finalizing. Lanes are
/// ordered by descending block count, so the lanes still active at block
/// step `b` are a prefix of the order and every step compresses one
/// contiguous run; each step's padded blocks are built in a stack buffer.
/// `job` is called again whenever a lane needs it, so it should be cheap.
///
/// # Panics
///
/// Panics if `n` exceeds [`MAX_LANES`].
pub(crate) fn finalize_group<'a>(
    backend: LaneBackend,
    n: usize,
    job: impl Fn(usize) -> LaneJob<'a>,
) -> [Digest; MAX_LANES] {
    let nblocks: [usize; MAX_LANES] =
        core::array::from_fn(|i| if i < n { job(i).blocks() } else { 0 });
    let mut order: [usize; MAX_LANES] = core::array::from_fn(|i| i);
    order[..n].sort_unstable_by(|&a, &b| nblocks[b].cmp(&nblocks[a]));

    let mut states = [[0u32; 8]; MAX_LANES];
    for (state, &i) in states.iter_mut().zip(&order[..n]) {
        *state = job(i).midstate.state();
    }
    let mut blocks = [[0u8; BLOCK_LEN]; MAX_LANES];
    let mut active = n;
    for b in 0..nblocks[order[0]] {
        while nblocks[order[active - 1]] <= b {
            active -= 1;
        }
        for (block, &i) in blocks.iter_mut().zip(&order[..active]) {
            job(i).padded_block(b, block);
        }
        let refs: [&[u8]; MAX_LANES] = core::array::from_fn(|l| &blocks[l][..]);
        compress_group(backend, &mut states[..active], &refs[..active]);
    }

    let mut out = [Digest([0u8; DIGEST_LEN]); MAX_LANES];
    for (state, &i) in states.iter().zip(&order[..n]) {
        out[i] = Digest::from_state(state);
    }
    out
}

/// Compress one block for each of `states.len()` lanes, splitting the group
/// into the widest runs the backend supports. `blocks[i]` is lane `i`'s
/// 64-byte block.
///
/// The `unsafe` call sites below are the crate's entire dispatch surface:
/// `#[target_feature]` kernels must be called through `unsafe` even after
/// runtime detection proved the feature present.
#[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
fn compress_group(backend: LaneBackend, states: &mut [[u32; 8]], blocks: &[&[u8]]) {
    debug_assert_eq!(states.len(), blocks.len());
    let n = states.len();
    let mut i = 0;
    // Every caller passes `Sha256xN::backend()` (detected) or a `sanitize`d
    // request, so a hardware backend here is one the host has.
    #[cfg(target_arch = "x86_64")]
    match backend {
        LaneBackend::ShaNi => {
            while n - i >= 2 {
                // SAFETY: SHA, SSE4.1 and SSSE3 were detected (see above).
                unsafe { simd::compress_shani::<2>(&mut states[i..i + 2], &blocks[i..i + 2]) };
                i += 2;
            }
            if i < n {
                // SAFETY: as for the pairs above.
                unsafe { simd::compress_shani::<1>(&mut states[i..], &blocks[i..]) };
                i = n;
            }
        }
        LaneBackend::Avx2x8 => {
            while n - i >= 8 {
                // SAFETY: AVX2 was detected (see above).
                unsafe { simd::compress8_avx2(&mut states[i..i + 8], &blocks[i..i + 8]) };
                i += 8;
            }
        }
        LaneBackend::Portable => {}
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = backend;
    while n - i >= 8 {
        compress_portable::<8>(&mut states[i..i + 8], &blocks[i..i + 8]);
        i += 8;
    }
    if n - i >= 4 {
        compress_portable::<4>(&mut states[i..i + 4], &blocks[i..i + 4]);
        i += 4;
    }
    while i < n {
        compress_portable::<1>(&mut states[i..i + 1], &blocks[i..i + 1]);
        i += 1;
    }
}

#[inline(always)]
fn be_word(block: &[u8], t: usize) -> u32 {
    u32::from_be_bytes([
        block[4 * t],
        block[4 * t + 1],
        block[4 * t + 2],
        block[4 * t + 3],
    ])
}

/// Portable struct-of-arrays kernel: every working variable is `[u32; N]`
/// (word `w` of lane `l` lives at `var[l]`), and each round's operations run
/// as elementwise loops the compiler can vectorize. `N = 1` doubles as the
/// scalar straggler path and, without SHA-NI, as [`Sha256`]'s compression.
// The index loops mirror the FIPS 180-4 schedule recurrence, which reads
// `w` at four offsets while writing it — iterator form would need
// split-borrow gymnastics for no clarity gain.
#[allow(clippy::needless_range_loop)]
fn compress_portable<const N: usize>(states: &mut [[u32; 8]], blocks: &[&[u8]]) {
    debug_assert_eq!(states.len(), N);
    debug_assert_eq!(blocks.len(), N);
    let mut w = [[0u32; N]; 64];
    for t in 0..16 {
        for l in 0..N {
            w[t][l] = be_word(blocks[l], t);
        }
    }
    for t in 16..64 {
        for l in 0..N {
            let x = w[t - 15][l];
            let y = w[t - 2][l];
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            w[t][l] = w[t - 16][l]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7][l])
                .wrapping_add(s1);
        }
    }

    let mut va = [0u32; N];
    let mut vb = [0u32; N];
    let mut vc = [0u32; N];
    let mut vd = [0u32; N];
    let mut ve = [0u32; N];
    let mut vf = [0u32; N];
    let mut vg = [0u32; N];
    let mut vh = [0u32; N];
    for l in 0..N {
        [va[l], vb[l], vc[l], vd[l], ve[l], vf[l], vg[l], vh[l]] = states[l];
    }

    for t in 0..64 {
        for l in 0..N {
            let e = ve[l];
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & vf[l]) ^ (!e & vg[l]);
            let t1 = vh[l]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t][l]);
            let a = va[l];
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & vb[l]) ^ (a & vc[l]) ^ (vb[l] & vc[l]);
            let t2 = s0.wrapping_add(maj);
            vh[l] = vg[l];
            vg[l] = vf[l];
            vf[l] = e;
            ve[l] = vd[l].wrapping_add(t1);
            vd[l] = vc[l];
            vc[l] = vb[l];
            vb[l] = a;
            va[l] = t1.wrapping_add(t2);
        }
    }

    for l in 0..N {
        let s = &mut states[l];
        s[0] = s[0].wrapping_add(va[l]);
        s[1] = s[1].wrapping_add(vb[l]);
        s[2] = s[2].wrapping_add(vc[l]);
        s[3] = s[3].wrapping_add(vd[l]);
        s[4] = s[4].wrapping_add(ve[l]);
        s[5] = s[5].wrapping_add(vf[l]);
        s[6] = s[6].wrapping_add(vg[l]);
        s[7] = s[7].wrapping_add(vh[l]);
    }
}

/// Runtime-dispatched hardware kernels. This module is the crate's only
/// `unsafe` surface besides [`compress_group`]: `#[target_feature]`
/// functions must be called through `unsafe` even when the feature was
/// runtime-verified, and the vector load/store intrinsics take raw pointers
/// (always into correctly sized arrays or slices here).
#[cfg(target_arch = "x86_64")]
mod simd {
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    use super::be_word;
    use crate::sha256::{BLOCK_LEN, K};

    #[inline(always)]
    unsafe fn rotr256<const R: i32, const L: i32>(x: __m256i) -> __m256i {
        debug_assert_eq!(R + L, 32);
        // SAFETY: caller runs within an AVX2 context (inlined into the
        // `target_feature(avx2)` kernel below).
        unsafe { _mm256_or_si256(_mm256_srli_epi32::<R>(x), _mm256_slli_epi32::<L>(x)) }
    }

    /// AVX2 kernel: one SHA-256 block for 8 lanes at once.
    ///
    /// # Safety
    /// AVX2 must be available (runtime-detected by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compress8_avx2(states: &mut [[u32; 8]], blocks: &[&[u8]]) {
        debug_assert_eq!(states.len(), 8);
        debug_assert_eq!(blocks.len(), 8);
        // SAFETY: all loads/stores go through `[u32; 8]` stack arrays via
        // unaligned intrinsics; AVX2 is guaranteed by the caller.
        unsafe {
            let ld = |col: &[u32; 8]| _mm256_loadu_si256(col.as_ptr().cast());

            let mut s = [_mm256_setzero_si256(); 8];
            for (j, slot) in s.iter_mut().enumerate() {
                let col: [u32; 8] = core::array::from_fn(|l| states[l][j]);
                *slot = ld(&col);
            }

            let mut w = [_mm256_setzero_si256(); 64];
            for (t, slot) in w.iter_mut().take(16).enumerate() {
                let col: [u32; 8] = core::array::from_fn(|l| be_word(blocks[l], t));
                *slot = ld(&col);
            }
            for t in 16..64 {
                let x = w[t - 15];
                let y = w[t - 2];
                let s0 = _mm256_xor_si256(
                    _mm256_xor_si256(rotr256::<7, 25>(x), rotr256::<18, 14>(x)),
                    _mm256_srli_epi32::<3>(x),
                );
                let s1 = _mm256_xor_si256(
                    _mm256_xor_si256(rotr256::<17, 15>(y), rotr256::<19, 13>(y)),
                    _mm256_srli_epi32::<10>(y),
                );
                w[t] = _mm256_add_epi32(
                    _mm256_add_epi32(w[t - 16], s0),
                    _mm256_add_epi32(w[t - 7], s1),
                );
            }

            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = s;
            for t in 0..64 {
                let s1 = _mm256_xor_si256(
                    _mm256_xor_si256(rotr256::<6, 26>(e), rotr256::<11, 21>(e)),
                    rotr256::<25, 7>(e),
                );
                let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
                let t1 = _mm256_add_epi32(
                    _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[t])),
                    _mm256_set1_epi32(K[t] as i32),
                );
                let s0 = _mm256_xor_si256(
                    _mm256_xor_si256(rotr256::<2, 30>(a), rotr256::<13, 19>(a)),
                    rotr256::<22, 10>(a),
                );
                let maj = _mm256_xor_si256(
                    _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                    _mm256_and_si256(b, c),
                );
                let t2 = _mm256_add_epi32(s0, maj);
                h = g;
                g = f;
                f = e;
                e = _mm256_add_epi32(d, t1);
                d = c;
                c = b;
                b = a;
                a = _mm256_add_epi32(t1, t2);
            }

            let vars = [a, b, c, d, e, f, g, h];
            for j in 0..8 {
                let sum = _mm256_add_epi32(s[j], vars[j]);
                let mut col = [0u32; 8];
                _mm256_storeu_si256(col.as_mut_ptr().cast(), sum);
                for l in 0..8 {
                    states[l][j] = col[l];
                }
            }
        }
    }

    /// SHA-NI kernel: one SHA-256 block for each of `N` lanes (1 or 2),
    /// the lanes' rounds interleaved so one message's `sha256rnds2`
    /// latency hides behind the other's.
    ///
    /// # Safety
    /// SHA, SSE4.1 and SSSE3 must be available (runtime-detected by the
    /// dispatcher).
    #[target_feature(enable = "sha,sse4.1,ssse3")]
    pub(super) unsafe fn compress_shani<const N: usize>(states: &mut [[u32; 8]], blocks: &[&[u8]]) {
        debug_assert_eq!(states.len(), N);
        debug_assert_eq!(blocks.len(), N);
        // SAFETY: every load/store reads or writes 16 bytes inside a
        // `[u32; 8]` state, a 64-byte block slice or `K`; the features are
        // guaranteed by the caller.
        unsafe {
            // Byte-reverses each 32-bit word: blocks are big-endian.
            let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            let mut abef = [_mm_setzero_si128(); N];
            let mut cdgh = [_mm_setzero_si128(); N];
            let mut w = [[_mm_setzero_si128(); 4]; N];
            for l in 0..N {
                // `sha256rnds2` holds the state as (A,B,E,F) and (C,D,G,H),
                // A and C in the top lane.
                let dcba = _mm_loadu_si128(states[l].as_ptr().cast());
                let hgfe = _mm_loadu_si128(states[l][4..].as_ptr().cast());
                let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
                let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
                abef[l] = _mm_alignr_epi8::<8>(cdab, efgh);
                cdgh[l] = _mm_blend_epi16::<0xF0>(efgh, cdab);
                let block = &blocks[l][..BLOCK_LEN];
                for (j, slot) in w[l].iter_mut().enumerate() {
                    let words = _mm_loadu_si128(block[16 * j..].as_ptr().cast());
                    *slot = _mm_shuffle_epi8(words, bswap);
                }
            }
            let (abef0, cdgh0) = (abef, cdgh);
            for g in 0..16 {
                let k = _mm_loadu_si128(K[4 * g..].as_ptr().cast());
                for l in 0..N {
                    // W[4g..4g + 4]: the block's own words for g < 4, then
                    // the message schedule over the previous sixteen.
                    let [w0, w1, w2, w3] = w[l];
                    let m = if g < 4 {
                        w0
                    } else {
                        let t = _mm_sha256msg1_epu32(w0, w1);
                        _mm_sha256msg2_epu32(_mm_add_epi32(t, _mm_alignr_epi8::<4>(w3, w2)), w3)
                    };
                    w[l] = [w1, w2, w3, m];
                    // Two rounds per instruction; after two rounds the old
                    // (A,B,E,F) is the new (C,D,G,H), so the roles swap.
                    let wk = _mm_add_epi32(m, k);
                    cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
                    abef[l] =
                        _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32::<0x0E>(wk));
                }
            }
            for l in 0..N {
                let feba = _mm_shuffle_epi32::<0x1B>(_mm_add_epi32(abef[l], abef0[l]));
                let dchg = _mm_shuffle_epi32::<0xB1>(_mm_add_epi32(cdgh[l], cdgh0[l]));
                let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
                let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
                _mm_storeu_si128(states[l].as_mut_ptr().cast(), dcba);
                _mm_storeu_si128(states[l][4..].as_mut_ptr().cast(), hgfe);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Sha256xN {
        /// Finalizes every job on an explicit kernel, digests in job order:
        /// the tests' entry to the group scheduler, and with
        /// [`LaneBackend::Portable`] the oracle the hardware kernels are
        /// checked against. A backend the host lacks degrades (see
        /// [`sanitize`]), so any request is safe.
        pub(crate) fn finalize_many_with(
            backend: LaneBackend,
            jobs: &[LaneJob<'_>],
        ) -> Vec<Digest> {
            let backend = sanitize(backend);
            jobs.chunks(MAX_LANES)
                .flat_map(|group| {
                    finalize_group(backend, group.len(), |i| group[i])
                        .into_iter()
                        .take(group.len())
                })
                .collect()
        }
    }

    /// Clamp a requested backend to what the host supports: AVX2 where
    /// present, else portable.
    fn sanitize(backend: LaneBackend) -> LaneBackend {
        if backend.is_available() {
            backend
        } else if LaneBackend::Avx2x8.is_available() {
            LaneBackend::Avx2x8
        } else {
            LaneBackend::Portable
        }
    }

    /// FIPS 180-2 / NIST vectors: message and published digest. They pin
    /// the portable kernel, which in turn is the oracle for the others.
    const NIST: [(&[u8], &str); 5] = [
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            b"a",
            "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb",
        ),
    ];

    fn available_backends() -> Vec<LaneBackend> {
        [
            LaneBackend::Portable,
            LaneBackend::Avx2x8,
            LaneBackend::ShaNi,
        ]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
    }

    /// The oracle: the portable kernel on an explicit request. Not
    /// `Sha256`, which runs on the dispatched kernel under test.
    fn portable(jobs: &[LaneJob<'_>]) -> Vec<Digest> {
        Sha256xN::finalize_many_with(LaneBackend::Portable, jobs)
    }

    fn fresh_jobs(bufs: &[Vec<u8>]) -> Vec<LaneJob<'_>> {
        bufs.iter()
            .map(|b| LaneJob::new(Midstate::initial(), b))
            .collect()
    }

    /// The streaming hasher over one job: its own padding, independent of
    /// the group scheduler.
    fn streaming(job: &LaneJob<'_>) -> Digest {
        let mut h = Sha256::from_midstate(job.midstate);
        for part in job.parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Every backend equals the portable kernel, and the portable batch
    /// equals the streaming hasher job by job.
    fn assert_every_backend_matches(jobs: &[LaneJob<'_>], what: &str) {
        let expected = portable(jobs);
        let scalar: Vec<Digest> = jobs.iter().map(streaming).collect();
        assert_eq!(expected, scalar, "{what}: portable batch vs streaming");
        for backend in available_backends() {
            assert_eq!(
                Sha256xN::finalize_many_with(backend, jobs),
                expected,
                "{what}: backend {}",
                backend.name()
            );
        }
    }

    #[test]
    fn backend_in_use() {
        // CI runs this with `--nocapture` so the log names the kernel the
        // native steps actually exercised.
        let backend = Sha256xN::backend();
        println!("sha256 backend in use: {}", backend.name());
        assert!(backend.is_available());
        let forced = std::env::var_os("PNM_SHA256_FORCE_PORTABLE")
            .is_some_and(|v| !v.is_empty() && v != "0");
        if forced {
            // `Sha256` compresses through this same choice.
            assert_eq!(backend, LaneBackend::Portable);
        } else if LaneBackend::ShaNi.is_available() {
            assert_eq!(backend, LaneBackend::ShaNi);
        }
    }

    #[test]
    fn nist_vectors_through_lanes() {
        // Thirteen jobs cycling the vectors: one AVX2 group of 8, six
        // SHA-NI pairs plus a straggler, portable 8/4/1.
        let jobs: Vec<LaneJob<'_>> = NIST
            .iter()
            .cycle()
            .take(13)
            .map(|(m, _)| LaneJob::new(Midstate::initial(), m))
            .collect();
        for backend in available_backends() {
            let got = Sha256xN::finalize_many_with(backend, &jobs);
            for (digest, (_, want)) in got.iter().zip(NIST.iter().cycle()) {
                assert_eq!(digest.to_hex(), *want, "backend {}", backend.name());
            }
        }
    }

    #[test]
    fn boundary_lengths_digest_identical() {
        // Lengths around every padding boundary: 0, 1, 54..=66 (straddles
        // the one-vs-two-block padding split), 119..=130 (two-vs-three).
        let lengths: Vec<usize> = std::iter::once(0)
            .chain(std::iter::once(1))
            .chain(54..=66)
            .chain(119..=130)
            .collect();
        let bufs: Vec<Vec<u8>> = lengths
            .iter()
            .map(|&len| (0..len).map(|i| (i * 37 + len) as u8).collect())
            .collect();
        assert_every_backend_matches(&fresh_jobs(&bufs), "boundary lengths");
    }

    #[test]
    fn every_batch_size_up_to_3x_max_lanes() {
        // Ragged batches: each lane gets a different length so the
        // descending-block-count schedule actually reorders.
        for n in 0..=(3 * MAX_LANES) {
            let bufs: Vec<Vec<u8>> = (0..n)
                .map(|i| (0..(i * 29) % 150).map(|j| (i + j) as u8).collect())
                .collect();
            assert_every_backend_matches(&fresh_jobs(&bufs), &format!("n={n}"));
        }
    }

    #[test]
    fn resumes_from_midstates_with_parts() {
        // Jobs resuming from distinct nontrivial midstates, with the message
        // split across all three parts, equal the portable digest of the
        // whole message hashed from the initial state.
        let prefixes: Vec<Vec<u8>> = (0..9).map(|i| vec![i as u8; 64 * (1 + i % 3)]).collect();
        let p1: Vec<Vec<u8>> = (0..9).map(|i| vec![0xA0 | i as u8; i]).collect();
        let p2: Vec<Vec<u8>> = (0..9)
            .map(|i| vec![0x50 | i as u8; (i * 13) % 40])
            .collect();
        let p3: Vec<Vec<u8>> = (0..9).map(|i| vec![i as u8; (i * 7) % 70]).collect();
        let whole: Vec<Vec<u8>> = (0..9)
            .map(|i| [&prefixes[i][..], &p1[i], &p2[i], &p3[i]].concat())
            .collect();
        let expected = portable(&fresh_jobs(&whole));
        let jobs: Vec<LaneJob<'_>> = (0..9)
            .map(|i| {
                let mut h = Sha256::new();
                h.update(&prefixes[i]);
                LaneJob {
                    midstate: h.midstate(),
                    parts: [&p1[i], &p2[i], &p3[i]],
                }
            })
            .collect();
        for backend in available_backends() {
            assert_eq!(
                Sha256xN::finalize_many_with(backend, &jobs),
                expected,
                "backend {}",
                backend.name()
            );
        }
    }

    #[test]
    fn odd_batch_resumes_from_hmac_pad_midstates() {
        // RFC 4231 cases 1–7 as one batch of seven HMACs resumed from pad
        // midstates: three SHA-NI pairs plus a straggler, and case 7's
        // three-block inner message runs alone after the first step. The
        // pads are compressed on the portable kernel, so the published
        // tags (case 5 publishes 128 bits) anchor every backend.
        let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        let pad = |key: &[u8], byte: u8| {
            let mut k = [0u8; BLOCK_LEN];
            if key.len() > BLOCK_LEN {
                let d = portable(&[LaneJob::new(Midstate::initial(), key)])[0];
                k[..DIGEST_LEN].copy_from_slice(d.as_bytes());
            } else {
                k[..key.len()].copy_from_slice(key);
            }
            let block = k.map(|b| b ^ byte);
            let mut state = [Midstate::initial().state()];
            compress_group(LaneBackend::Portable, &mut state, &[&block]);
            Midstate::from_raw(state[0], BLOCK_LEN as u64)
        };
        let inner: Vec<Midstate> = cases.iter().map(|(k, _, _)| pad(k, 0x36)).collect();
        let outer: Vec<Midstate> = cases.iter().map(|(k, _, _)| pad(k, 0x5c)).collect();
        for backend in available_backends() {
            let inner_jobs: Vec<LaneJob<'_>> = cases
                .iter()
                .zip(&inner)
                .map(|((_, msg, _), &mid)| LaneJob::new(mid, msg))
                .collect();
            let inner_digests = Sha256xN::finalize_many_with(backend, &inner_jobs);
            let outer_jobs: Vec<LaneJob<'_>> = inner_digests
                .iter()
                .zip(&outer)
                .map(|(d, &mid)| LaneJob::new(mid, d.as_bytes()))
                .collect();
            let tags = Sha256xN::finalize_many_with(backend, &outer_jobs);
            for (i, (tag, (_, _, want))) in tags.iter().zip(&cases).enumerate() {
                assert!(
                    tag.to_hex().starts_with(want),
                    "RFC 4231 case {}: backend {}",
                    i + 1,
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn midstate_many_resumes_to_portable_digest() {
        let blocks: Vec<[u8; BLOCK_LEN]> = (0..11)
            .map(|i| core::array::from_fn(|j| (i * 67 + j) as u8))
            .collect();
        let mids = Sha256xN::midstate_many(&blocks);
        for (block, mid) in blocks.iter().zip(mids) {
            assert_eq!(mid.byte_len(), BLOCK_LEN as u64);
            let resumed = LaneJob::new(mid, b"suffix");
            let whole = LaneJob {
                midstate: Midstate::initial(),
                parts: [block, b"suffix", &[]],
            };
            assert_eq!(portable(&[resumed]), portable(&[whole]));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        assert!(Sha256xN::finalize_many_with(Sha256xN::backend(), &[]).is_empty());
        assert!(Sha256xN::midstate_many(&[]).is_empty());
    }

    #[test]
    fn single_job_group_matches_portable() {
        // A one-job batch runs the same group routine as any other.
        let job = LaneJob::new(Midstate::initial(), b"single-lane group");
        let got = Sha256xN::finalize_many_with(Sha256xN::backend(), &[job]);
        assert_eq!(got, portable(&[job]));
        assert_eq!(got, vec![streaming(&job)]);
    }

    #[test]
    fn unavailable_backend_degrades_safely() {
        // Requesting any backend must never crash; on hosts without the
        // feature it falls back to AVX2 where present, else to portable,
        // and still returns correct digests.
        let jobs = [
            LaneJob::new(Midstate::initial(), NIST[0].0),
            LaneJob::new(Midstate::initial(), NIST[4].0),
        ];
        let fallback = if LaneBackend::Avx2x8.is_available() {
            LaneBackend::Avx2x8
        } else {
            LaneBackend::Portable
        };
        for backend in [
            LaneBackend::ShaNi,
            LaneBackend::Avx2x8,
            LaneBackend::Portable,
        ] {
            let want = if backend.is_available() {
                backend
            } else {
                fallback
            };
            assert_eq!(sanitize(backend), want, "{}", backend.name());
            let got = Sha256xN::finalize_many_with(backend, &jobs);
            assert_eq!(got[0].to_hex(), NIST[0].1);
            assert_eq!(got[1].to_hex(), NIST[4].1);
        }
    }
}
