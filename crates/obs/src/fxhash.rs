//! The workspace's one deterministic, non-cryptographic hasher, for
//! per-transaction hot paths: the governor's transaction table and
//! signature memo, the chain's and the store's indexes, and this crate's
//! lifecycle tracker.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3 keyed by a random
//! per-process seed. That buys DoS resistance the simulation does not need
//! (every key is either an internal index or already a SHA-256 digest) and
//! costs both determinism (iteration order varies across processes) and
//! cycles (~1 ns/byte where an FxHash-style mix is ~0.2 ns/byte). This is
//! the standard Firefox `FxHasher` mix — multiply-rotate over native words —
//! from one fixed seed, so two runs of the same binary hash identically.
//! It lives here because this crate has no dependencies and every crate
//! that hashes already depends on it, or may.
//!
//! This is **not** a cryptographic hash and must never feed signatures,
//! ids, or any value that crosses the wire; it only places keys in
//! buckets. Anything order-sensitive that iterates a map sorts explicitly
//! rather than leaning on bucket order.

use std::hash::{BuildHasher, Hasher};

/// 64-bit golden-ratio multiplier used by the Fx mix.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The seed every hasher starts from.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn scramble(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Word-at-a-time multiply-rotate hasher (the rustc / Firefox "FxHash"),
/// started from the fixed seed.
#[derive(Clone, Copy, Debug)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            self.add(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")));
            bytes = &bytes[8..];
        }
        if bytes.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                bytes[..4].try_into().expect("4 bytes"),
            )));
            bytes = &bytes[4..];
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche: the raw Fx state keeps low-entropy high bits for
        // short inputs, which HashMap's bucket masking would expose.
        scramble(self.state)
    }
}

/// Fixed-seed [`BuildHasher`]; `Default` is the only constructor on
/// purpose — every map hashes identically in every run.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxSeed;

impl BuildHasher for FxSeed {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher {
            // splitmix64-style scramble: the raw Fx mix is weak on a
            // low-entropy start.
            state: scramble(SEED),
        }
    }
}

/// A `HashMap` using the deterministic hasher.
pub type FxMap<K, V> = std::collections::HashMap<K, V, FxSeed>;

/// A `HashSet` using the deterministic hasher.
pub type FxSet<K> = std::collections::HashSet<K, FxSeed>;

/// An empty [`FxMap`].
pub fn fx_map<K, V>() -> FxMap<K, V> {
    FxMap::with_hasher(FxSeed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxSeed.hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        let key = (7u32, [0xabu8; 32], 99u64);
        assert_eq!(hash_of(&key), hash_of(&key));
    }

    #[test]
    fn tail_bytes_are_significant() {
        // 9-byte inputs differing only in the last byte must differ.
        let a = [0u8; 9];
        let mut b = [0u8; 9];
        b[8] = 1;
        assert_ne!(hash_of(&a.as_slice()), hash_of(&b.as_slice()));
    }

    #[test]
    fn map_iteration_order_is_run_stable() {
        // Two maps built identically iterate identically — the property
        // SipHash's random keying denies.
        let build = || {
            let mut m = fx_map();
            for i in 0..1000u64 {
                m.insert(i.wrapping_mul(0x2545_f491_4f6c_dd1d), i);
            }
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn lifecycle_map_is_run_stable() {
        // Two maps built identically iterate identically — the property
        // the tracker relies on for deterministic metrics aggregation.
        let build = || {
            let mut m = FxMap::default();
            for i in 0..500u64 {
                m.insert(i.wrapping_mul(0x2545_f491_4f6c_dd1d), i);
            }
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn distribution_smoke_low_bits_spread() {
        // Sequential keys must not collide in the low bucket bits.
        let mut buckets = [0u32; 64];
        for i in 0..4096u64 {
            buckets[(hash_of(&i) & 63) as usize] += 1;
        }
        let (min, max) = buckets
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        assert!(min > 0, "empty bucket: degenerate distribution");
        assert!(max < 4096 / 8, "bucket hot spot: {max} of 4096");
    }
}
