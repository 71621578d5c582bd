//! A from-scratch implementation of the SHA-256 collision-resistant hash
//! function (FIPS 180-4).
//!
//! The paper requires a public collision-resistant hash function `H` for
//! block chaining (`h' = H(B)`, Chain Integrity property in §3.1) and for
//! transaction identifiers. This module provides both a streaming
//! [`Sha256`] hasher and the one-shot [`sha256`] convenience function.
//!
//! # Kernels
//!
//! There is one hasher and nothing to configure. Underneath it, whole
//! 64-byte blocks are compressed by one of two kernels: the FIPS rounds in
//! portable integer code, or the same rounds on the x86-64 SHA extensions
//! (SHA-NI) where the CPU reports them at run time. Digests are identical
//! by definition and by test; [`kernel`] names the one in use so that a
//! measurement can say what produced it. The dispatch is one of the two
//! `unsafe` blocks in the workspace, both calls into a hardware kernel
//! behind a run-time check; the other is the big-integer kernel's
//! (DESIGN.md § "SHA-256 kernel").
//!
//! # Examples
//!
//! ```
//! use prb_crypto::sha256::{sha256, Sha256};
//!
//! let d1 = sha256(b"abc");
//! let mut h = Sha256::new();
//! h.update(b"a");
//! h.update(b"bc");
//! assert_eq!(h.finalize(), d1);
//! ```

use std::fmt;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
///
/// Wraps the raw 32 bytes and provides hex formatting plus constant-time
/// friendly equality (derived `Eq` on fixed arrays; timing is irrelevant in
/// the simulation context but the type keeps digests distinct from plain
/// byte arrays per the newtype guideline).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// Returns the digest as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Returns the digest as an owned byte array.
    pub fn to_bytes(self) -> [u8; DIGEST_LEN] {
        self.0
    }

    /// Builds a digest from exactly 32 bytes.
    ///
    /// Returns `None` when `bytes` is not 32 bytes long.
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Some(Digest(out))
    }

    /// Hex-encodes the digest.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parses a digest from a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = crate::hex::decode(s).ok()?;
        Self::from_slice(&bytes)
    }

    /// Interprets the first 8 bytes as a big-endian `u64`.
    ///
    /// Used where a pseudorandom integer is derived from a hash (e.g. the
    /// VRF-based leader election compares hash outputs numerically).
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
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

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Size of one SHA-256 message block in bytes.
const BLOCK_LEN: usize = 64;

/// Which compression kernel a hasher call runs on.
///
/// Every public entry point uses `Detected`; `Portable` exists so that the
/// differential tests and micro-benchmarks can pin the reference kernel on
/// a host where detection would pick the hardware one.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// SHA-NI where the CPU reports it, the portable rounds elsewhere.
    Detected,
    /// The portable rounds, whatever the CPU offers.
    Portable,
}

/// Whether this CPU has every feature the SHA-NI kernel is compiled with.
///
/// `std` caches the CPUID result in an atomic, so this is a load and a
/// mask per feature (`sse2` is part of the x86-64 baseline and folds away).
#[cfg(target_arch = "x86_64")]
#[inline]
fn sha_ni_detected() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn sha_ni_detected() -> bool {
    false
}

/// Name of the compression kernel this process hashes with: `"sha-ni"`
/// where the CPU has the SHA extensions, `"portable"` everywhere else.
///
/// The choice is made by the hardware, per call, and cannot be set; this
/// only reports it, so that a measurement can say what produced it.
pub fn kernel() -> &'static str {
    if sha_ni_detected() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Folds a run of whole 64-byte blocks into `state`.
///
/// The single place a kernel is chosen, and with `bigint`'s IFMA dispatch
/// one of the two `unsafe` blocks of the workspace: the call from baseline
/// code into a function compiled with the SHA extensions enabled.
#[allow(unsafe_code)]
#[inline]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8], kernel: Kernel) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Detected && sha_ni_detected() {
        // SAFETY: `sha_ni::compress_blocks` is a safe function whose only
        // requirement is that the CPU supports the features it is compiled
        // with (`sha`, `sse2`, `ssse3`, `sse4.1`); `sha_ni_detected` has
        // just checked each of the four at run time. It takes and returns
        // ordinary references and touches memory through no pointer.
        unsafe { sha_ni::compress_blocks(state, blocks) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kernel; // only x86-64 has a second kernel to choose
    portable::compress_blocks(state, blocks);
}

/// The FIPS 180-4 rounds in plain integer code: the reference the SHA-NI
/// kernel is tested against, and the path on every CPU without it.
mod portable {
    use super::{BLOCK_LEN, K};

    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(BLOCK_LEN) {
            compress(state, block);
        }
    }

    fn compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunk of 4"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The same rounds on the x86-64 SHA extensions.
///
/// `sha256rnds2` performs two rounds on a state held as two vectors,
/// `ABEF` and `CDGH`; `sha256msg1`/`sha256msg2` compute the message
/// schedule four words at a time. Everything here is safe code: inside a
/// `#[target_feature]` function the value intrinsics are safe to call, and
/// words enter and leave the vectors through `_mm_set_epi32` /
/// `_mm_extract_epi32`, so no pointer intrinsic is used.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Packs four words into a vector, `w[0]` in the lowest lane.
    #[target_feature(enable = "sse2")]
    fn pack(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Folds whole blocks into `state`, which stays in two registers from
    /// the first block of the call to the last.
    // `rounds4!` expands the schedule updates under constant conditions; in
    // the last groups they are dead code, which the lint reads as a store.
    #[allow(unused_assignments)]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = pack([f, e, b, a]);
        let mut cdgh = pack([h, g, d, c]);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            // m[j] holds W[4j..4j + 4] on entry and is rewritten in place
            // with W[4(j + 4k)..] as the rounds consume it.
            let mut m = [pack([0; 4]); 4];
            for (v, bytes) in m.iter_mut().zip(block.chunks_exact(16)) {
                let word = |i: usize| {
                    u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("chunk of 4"))
                };
                *v = pack([word(0), word(1), word(2), word(3)]);
            }
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Group `g` runs rounds 4g..4g + 4 on the words in m[g % 4]. A
            // macro over a literal, not a loop: every index and condition
            // must be a constant for `m` to live in four registers.
            macro_rules! rounds4 {
                ($($g:literal)*) => {$(
                    let cur = m[$g % 4];
                    let k = [K[4 * $g], K[4 * $g + 1], K[4 * $g + 2], K[4 * $g + 3]];
                    let wk = _mm_add_epi32(cur, pack(k));
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    if 3 <= $g && $g < 15 {
                        // W[4g + 4..4g + 8]: msg1 was applied two groups
                        // ago; add W[t - 7], finish with msg2 over W[t - 2].
                        let next = ($g + 1) % 4;
                        let w_minus_7 = _mm_alignr_epi8(cur, m[($g + 3) % 4], 4);
                        m[next] = _mm_sha256msg2_epu32(_mm_add_epi32(m[next], w_minus_7), cur);
                    }
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                    if 1 <= $g && $g < 13 {
                        let prev = ($g + 3) % 4;
                        m[prev] = _mm_sha256msg1_epu32(m[prev], cur);
                    }
                )*};
            }
            rounds4!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3) as u32,
            _mm_extract_epi32(abef, 2) as u32,
            _mm_extract_epi32(cdgh, 3) as u32,
            _mm_extract_epi32(cdgh, 2) as u32,
            _mm_extract_epi32(abef, 1) as u32,
            _mm_extract_epi32(abef, 0) as u32,
            _mm_extract_epi32(cdgh, 1) as u32,
            _mm_extract_epi32(cdgh, 0) as u32,
        ];
    }
}

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use prb_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
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
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a fresh hasher with the FIPS 180-4 initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    #[inline]
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.absorb(data, Kernel::Detected);
        self
    }

    /// Absorbs a length-prefixed field, for unambiguous multi-field hashing.
    ///
    /// Writes the field length as an 8-byte big-endian integer followed by
    /// the bytes, so that `("ab", "c")` and `("a", "bc")` hash differently.
    #[inline]
    pub fn update_field(&mut self, data: &[u8]) -> &mut Self {
        self.update(&(data.len() as u64).to_be_bytes());
        self.update(data)
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> Digest {
        self.pad_and_finish(Kernel::Detected)
    }

    /// Input that leaves the buffered block short of full is only copied;
    /// inlined, so that a caller's fixed-size field (a length prefix, a
    /// digest) becomes a store rather than a `memcpy` call.
    #[inline]
    fn absorb(&mut self, data: &[u8], kernel: Kernel) {
        let end = self.buffer_len + data.len();
        if end < BLOCK_LEN {
            self.buffer[self.buffer_len..end].copy_from_slice(data);
            self.buffer_len = end;
            self.total_len = self.total_len.wrapping_add(data.len() as u64);
        } else {
            self.absorb_blocks(data, kernel);
        }
    }

    /// Tops up the buffered block, then compresses every whole block of
    /// the rest in one kernel call straight from `data`; only the tail
    /// shorter than a block is copied.
    fn absorb_blocks(&mut self, data: &[u8], kernel: Kernel) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let (head, rest) = input.split_at(BLOCK_LEN - self.buffer_len);
            self.buffer[self.buffer_len..].copy_from_slice(head);
            compress_blocks(&mut self.state, &self.buffer, kernel);
            input = rest;
        }
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks, kernel);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Padding (`0x80`, zeros, the bit length as 8 big-endian bytes) written
    /// in place into the buffered block, spilling into a second block when
    /// fewer than 9 bytes are free.
    #[inline]
    fn pad_and_finish(mut self, kernel: Kernel) -> Digest {
        crate::stats::add(crate::stats::Counter::Sha256, 1);
        const LEN_AT: usize = BLOCK_LEN - 8;
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= LEN_AT {
            compress_blocks(&mut self.state, &self.buffer, kernel);
            self.buffer = [0u8; BLOCK_LEN];
        }
        self.buffer[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer, kernel);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// Digest of `parts`, absorbed one `update` per part, on the named kernel
/// (see [`kernel`] for the names); `None` when this CPU cannot run it.
///
/// Not a way to configure the hasher: it exists so the differential tests
/// and micro-benchmarks can drive each kernel through the same streaming
/// code as [`Sha256`]. `"sha-ni"` goes through the run-time detection like
/// every other call.
#[doc(hidden)]
pub fn sha256_on_kernel(name: &str, parts: &[&[u8]]) -> Option<Digest> {
    let kernel = match name {
        "portable" => Kernel::Portable,
        "sha-ni" if sha_ni_detected() => Kernel::Detected,
        _ => return None,
    };
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.absorb(part, kernel);
    }
    Some(hasher.pad_and_finish(kernel))
}

/// One-shot SHA-256 of `data`.
///
/// # Examples
///
/// ```
/// let d = prb_crypto::sha256::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Hashes a sequence of length-prefixed fields with a domain-separation tag.
///
/// Every hash use in the protocol goes through a distinct `domain` so that
/// a hash computed in one context can never be replayed in another (e.g. a
/// transaction id never collides with a block hash input).
pub fn hash_fields(domain: &str, fields: &[&[u8]]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update_field(domain.as_bytes());
    for field in fields {
        hasher.update_field(field);
    }
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernels this host can run. The portable one always; SHA-NI
    /// where detected, with a note in the test output where it is not, so
    /// a log shows which differential checks were real.
    fn kernels() -> Vec<&'static str> {
        let mut names = vec!["portable"];
        if kernel() == "sha-ni" {
            names.push("sha-ni");
        } else {
            println!("note: this CPU lacks SHA-NI; only the portable kernel is tested");
        }
        names
    }

    fn on(kernel: &str, parts: &[&[u8]]) -> Digest {
        sha256_on_kernel(kernel, parts).expect("kernel listed as runnable")
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0u8..=255).cycle().take(len).collect()
    }

    // NIST / well-known test vectors, on every kernel and on the public
    // entry point (which must be one of them).
    fn assert_vector(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_hex(), hex);
        for k in kernels() {
            assert_eq!(on(k, &[data]).to_hex(), hex, "kernel {k}");
        }
    }

    #[test]
    fn empty_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn kernel_is_reported_and_runnable() {
        println!("sha256 kernel: {}", kernel());
        assert!(["portable", "sha-ni"].contains(&kernel()));
        assert!(sha256_on_kernel(kernel(), &[]).is_some());
        assert!(sha256_on_kernel("portable", &[]).is_some());
        assert!(sha256_on_kernel("no-such-kernel", &[]).is_none());
    }

    /// Every length 0..=300 — which takes in each padding boundary (55, 56,
    /// 57, 63, 64, 65, 119, 120, 128: the length field fits, just does not,
    /// the block is exactly full, one and two blocks over) — gives one
    /// digest on every kernel and through the public hasher.
    #[test]
    fn kernels_agree_on_every_length_to_300() {
        let data = pattern(300);
        for len in 0..=data.len() {
            let want = on("portable", &[&data[..len]]);
            assert_eq!(sha256(&data[..len]), want, "public hasher, length {len}");
            for k in kernels() {
                assert_eq!(on(k, &[&data[..len]]), want, "kernel {k}, length {len}");
            }
        }
    }

    /// One `update` over many whole blocks (the kernel's multi-block loop,
    /// state held in registers) equals the same bytes fed a block at a time
    /// and fed in pieces that straddle every block boundary.
    #[test]
    fn one_update_matches_block_at_a_time() {
        let data = pattern((1 << 20) + 17);
        let blocks: Vec<&[u8]> = data.chunks(BLOCK_LEN).collect();
        let straddling: Vec<&[u8]> = data.chunks(BLOCK_LEN + 3).collect();
        let want = on("portable", &[&data]);
        for k in kernels() {
            assert_eq!(on(k, &[&data]), want, "kernel {k}, one update");
            assert_eq!(on(k, &blocks), want, "kernel {k}, block at a time");
            assert_eq!(on(k, &straddling), want, "kernel {k}, 67-byte pieces");
        }
    }

    #[test]
    fn streaming_matches_oneshot_for_all_split_points() {
        let data = pattern(300);
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
            for k in kernels() {
                let got = on(k, &[&data[..split], &data[split..]]);
                assert_eq!(got, want, "kernel {k}, split at {split}");
            }
        }
    }

    /// A digest computed at the commit before the kernels were split: the
    /// field framing and the hash are both part of the ledger format.
    #[test]
    fn hash_fields_digest_is_pinned() {
        assert_eq!(
            hash_fields("pin", &[b"alpha", b"", &[7u8; 70]]).to_hex(),
            "7c056ddbfd3b91b808b0d0ab28dfccc2f583f164908cf3f17c7e4167b8be53c7"
        );
    }

    #[test]
    fn update_field_is_injective_on_boundaries() {
        let mut a = Sha256::new();
        a.update_field(b"ab").update_field(b"c");
        let mut b = Sha256::new();
        b.update_field(b"a").update_field(b"bc");
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn hash_fields_domain_separates() {
        assert_ne!(
            hash_fields("tx", &[b"payload"]),
            hash_fields("block", &[b"payload"])
        );
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex("ab"), None);
    }

    #[test]
    fn digest_from_slice_checks_length() {
        assert!(Digest::from_slice(&[0u8; 32]).is_some());
        assert!(Digest::from_slice(&[0u8; 31]).is_none());
        assert!(Digest::from_slice(&[0u8; 33]).is_none());
    }

    #[test]
    fn digest_to_u64_is_prefix() {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&0x0123_4567_89ab_cdefu64.to_be_bytes());
        assert_eq!(Digest(bytes).to_u64(), 0x0123_4567_89ab_cdef);
    }
}
