//! A from-scratch implementation of the SHA-256 collision-resistant hash
//! function (FIPS 180-4).
//!
//! The paper requires a public collision-resistant hash function `H` for
//! block chaining (`h' = H(B)`, Chain Integrity property in §3.1) and for
//! transaction identifiers. This module provides both a streaming
//! [`Sha256`] hasher and the one-shot [`sha256`] convenience function.
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
    buffer: [u8; 64],
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
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffer_len > 0 {
            let want = 64 - self.buffer_len;
            let take = want.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while input.len() >= 64 {
            let (block, rest) = input.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
        self
    }

    /// Absorbs a length-prefixed field, for unambiguous multi-field hashing.
    ///
    /// Writes the field length as an 8-byte big-endian integer followed by
    /// the bytes, so that `("ab", "c")` and `("a", "bc")` hash differently.
    pub fn update_field(&mut self, data: &[u8]) -> &mut Self {
        self.update(&(data.len() as u64).to_be_bytes());
        self.update(data)
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        crate::stats::record_sha256();
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        self.update_raw(&[0x80]);
        while self.buffer_len != 56 {
            self.update_raw(&[0]);
        }
        self.update_raw(&bit_len.to_be_bytes());
        debug_assert_eq!(self.buffer_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    /// Like `update` but does not advance `total_len` (used for padding).
    fn update_raw(&mut self, data: &[u8]) {
        for &byte in data {
            self.buffer[self.buffer_len] = byte;
            self.buffer_len += 1;
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
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
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
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
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
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

    // NIST / well-known test vectors.
    #[test]
    fn empty_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_for_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
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
