//! A transaction index keyed by four bytes of the id.
//!
//! Every index from a transaction id to where the transaction is kept —
//! the governor's table, the chain's first recordings — holds one entry
//! per transaction for the whole run, and what holds the transaction
//! already holds its full id. So [`TxIndex`] keys an entry by the id's
//! first four bytes and stores only `(u32, V)`: 8 bytes for a `u32`
//! position, 12 for the chain's `(block, entry)`, against 36 and 40 with
//! the id as the key. The id is a SHA-256 output, so those four bytes are
//! uniform.
//!
//! A hit is confirmed against what its value names: every lookup takes an
//! `id_of` that returns the full id of what a held value points at, and is
//! only ever called on values the index holds. An id whose four-byte key
//! is already held by a *different* live id goes to an exact overflow map
//! keyed by the whole id; at 10⁵ ids about one pair collides. An id lives
//! in exactly one of the two maps, and the overflow map is probed first,
//! and only when it holds anything. A provider grinding its payloads for
//! an id whose four bytes repeat a chosen one (about 2³² hashes each) only
//! moves that id into the exact map; like the `FxMap`s this replaced, the
//! index is not keyed against crafted ids.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use prb_obs::fxhash::{fx_map, FxMap};

use crate::transaction::TxId;

/// The odd multiplier of [`KeyMix`]: the 64-bit golden ratio.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// Hashes a four-byte key by one multiplication by an odd constant, so
/// the bucket index (the low bits) and hashbrown's 7-bit tag (the top
/// bits) both see the key: the top bits of the product depend on every
/// key bit. The key is already uniform; nothing more is needed.
#[derive(Clone, Copy, Debug, Default)]
struct KeyMix(u64);

impl Hasher for KeyMix {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(MIX);
        }
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        self.0 = u64::from(key).wrapping_mul(MIX);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The id's first four bytes.
fn key(id: &TxId) -> u32 {
    let bytes = &id.0 .0;
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// An index from transaction id to a value `V` that names where the
/// transaction is kept, keyed by four bytes of the id (see the module
/// docs). Values must be distinct among the entries held, as positions
/// are.
///
/// # Examples
///
/// ```
/// use prb_crypto::sha256::Digest;
/// use prb_ledger::transaction::TxId;
/// use prb_ledger::txindex::TxIndex;
///
/// let ids = [TxId(Digest([1; 32])), TxId(Digest([2; 32]))];
/// let id_of = |at: u32| ids[at as usize];
/// let mut index = TxIndex::new();
/// assert_eq!(index.get_or_insert(ids[0], 0, id_of), (0, true));
/// assert_eq!(index.get_or_insert(ids[0], 7, id_of), (0, false));
/// assert_eq!(index.get(&ids[0], id_of), Some(0));
/// assert_eq!(index.get(&ids[1], id_of), None);
/// assert!(index.remove(&ids[0], 0));
/// assert!(index.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct TxIndex<V> {
    /// Entries keyed by the id's first four bytes.
    near: HashMap<u32, V, BuildHasherDefault<KeyMix>>,
    /// Ids whose four-byte key a different id held in `near` when they
    /// were inserted, by the whole id.
    far: FxMap<TxId, V>,
}

impl<V: Copy + Eq> Default for TxIndex<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Eq> TxIndex<V> {
    /// An empty index.
    pub fn new() -> Self {
        TxIndex {
            near: HashMap::default(),
            far: fx_map(),
        }
    }

    /// Entries held, in both maps.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// Whether no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room for `additional` more entries without a rehash.
    pub fn reserve(&mut self, additional: usize) {
        self.near.reserve(additional);
    }

    /// The value held for `id`, if any; `id_of` gives the full id of what
    /// a held value names.
    #[inline]
    pub fn get(&self, id: &TxId, id_of: impl Fn(V) -> TxId) -> Option<V> {
        if !self.far.is_empty() {
            if let Some(&v) = self.far.get(id) {
                return Some(v);
            }
        }
        self.near
            .get(&key(id))
            .copied()
            .filter(|&v| id_of(v) == *id)
    }

    /// The value held for `id` and `false`, or, if there is none, `v` —
    /// now held for `id` — and `true`.
    #[inline]
    pub fn get_or_insert(&mut self, id: TxId, v: V, id_of: impl Fn(V) -> TxId) -> (V, bool) {
        if !self.far.is_empty() {
            if let Some(&held) = self.far.get(&id) {
                return (held, false);
            }
        }
        match self.near.entry(key(&id)) {
            Entry::Vacant(vacant) => {
                vacant.insert(v);
                (v, true)
            }
            Entry::Occupied(held) if id_of(*held.get()) == id => (*held.get(), false),
            Entry::Occupied(_) => {
                self.far.insert(id, v);
                (v, true)
            }
        }
    }

    /// Removes the entry of `id` if it holds `v`, and says whether it did.
    /// `v` must name something whose id is `id` (values are distinct, so a
    /// held `v` is then `id`'s entry). Matching by value needs no `id_of`,
    /// so a caller may take out what `v` names first.
    pub fn remove(&mut self, id: &TxId, v: V) -> bool {
        if !self.far.is_empty() && self.far.get(id) == Some(&v) {
            self.far.remove(id);
            return true;
        }
        let key = key(id);
        if self.near.get(&key) == Some(&v) {
            self.near.remove(&key);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::sha256::Digest;

    /// An id with four-byte key `k` and `tail` in its remaining bytes.
    fn id(k: u32, tail: u64) -> TxId {
        let mut bytes = [0u8; 32];
        bytes[..4].copy_from_slice(&k.to_le_bytes());
        bytes[4..12].copy_from_slice(&tail.to_le_bytes());
        TxId(Digest(bytes))
    }

    #[test]
    fn an_entry_is_a_key_and_a_value() {
        assert!(std::mem::size_of::<(u32, u32)>() <= 8);
        assert_eq!(key(&id(0xdead_beef, 9)), 0xdead_beef);
    }

    #[test]
    fn a_colliding_insert_lands_in_far() {
        let ids = [id(5, 0), id(5, 1)];
        let id_of = |at: u32| ids[at as usize];
        let mut index = TxIndex::new();
        assert_eq!(index.get_or_insert(ids[0], 0, id_of), (0, true));
        assert_eq!(index.get(&ids[1], id_of), None, "a key hit is confirmed");
        assert_eq!(index.get_or_insert(ids[1], 1, id_of), (1, true));
        assert_eq!((index.near.len(), index.far.len()), (1, 1));
        assert_eq!(index.far.get(&ids[1]), Some(&1));
        assert_eq!(index.get(&ids[0], id_of), Some(0));
        assert_eq!(index.get(&ids[1], id_of), Some(1));
    }

    #[test]
    fn the_far_id_is_found_after_the_near_holder_is_removed() {
        let ids = [id(5, 0), id(5, 1)];
        let id_of = |at: u32| ids[at as usize];
        let mut index = TxIndex::new();
        index.get_or_insert(ids[0], 0, id_of);
        index.get_or_insert(ids[1], 1, id_of);
        assert!(!index.remove(&ids[0], 1), "removal matches by value");
        assert!(index.remove(&ids[0], 0));
        assert_eq!(index.get(&ids[0], id_of), None);
        assert_eq!(index.get(&ids[1], id_of), Some(1));
    }

    #[test]
    fn reinserting_the_far_id_makes_no_duplicate() {
        let ids = [id(5, 0), id(5, 1), id(5, 2)];
        let id_of = |at: u32| ids[at as usize];
        let mut index = TxIndex::new();
        index.get_or_insert(ids[0], 0, id_of);
        index.get_or_insert(ids[1], 1, id_of);
        index.remove(&ids[0], 0);
        assert_eq!(index.get_or_insert(ids[1], 2, id_of), (1, false));
        assert_eq!(index.len(), 1);
        // A third id with the key takes the free near place.
        assert_eq!(index.get_or_insert(ids[2], 2, id_of), (2, true));
        assert_eq!((index.near.len(), index.far.len()), (1, 1));
        assert!(index.remove(&ids[1], 1));
        assert_eq!(index.get(&ids[2], id_of), Some(2));
        assert_eq!(index.get_or_insert(ids[1], 1, id_of), (1, true));
        assert_eq!(index.get(&ids[1], id_of), Some(1));
    }

    #[test]
    fn len_counts_both_maps() {
        let ids = [id(1, 0), id(1, 1), id(1, 2), id(2, 0)];
        let id_of = |at: u32| ids[at as usize];
        let mut index = TxIndex::new();
        for (at, &id) in (0..).zip(&ids) {
            index.get_or_insert(id, at, id_of);
        }
        assert_eq!((index.near.len(), index.far.len()), (2, 2));
        assert_eq!(index.len(), 4);
        assert!(index.remove(&ids[2], 2));
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
    }

    /// splitmix64: the test's own seeded draws.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn lockstep_with_an_exact_map() {
        const KEYS: [u32; 4] = [0, 1, 0x8000_0000, u32::MAX];
        for seed in 0..4u64 {
            let mut rng = seed;
            // 48 ids over 4 keys: every key is shared many times over.
            let pool: Vec<TxId> = (0..48)
                .map(|n| id(KEYS[n % KEYS.len()], next(&mut rng)))
                .collect();
            // Each inserted value is a fresh position naming its id.
            let mut arena: Vec<TxId> = Vec::new();
            let mut index = TxIndex::new();
            let mut exact: FxMap<TxId, u32> = fx_map();
            // A value naming each id that the index does not hold for it.
            let mut stale: FxMap<TxId, u32> = fx_map();
            let (mut far_seen, mut found_far) = (0, 0);
            for step in 0..10_000 {
                let draw = next(&mut rng);
                let id = pool[(draw >> 8) as usize % pool.len()];
                let id_of = |at: u32| arena[at as usize];
                match draw % 8 {
                    0..=2 => {
                        let got = index.get(&id, id_of);
                        assert_eq!(got, exact.get(&id).copied(), "get, step {step}");
                        if got.is_some() && index.far.contains_key(&id) {
                            found_far += 1;
                        }
                    }
                    3..=5 => {
                        let v = u32::try_from(arena.len()).expect("fits");
                        arena.push(id);
                        let id_of = |at: u32| arena[at as usize];
                        let want = match exact.entry(id) {
                            Entry::Occupied(held) => (*held.get(), false),
                            Entry::Vacant(vacant) => (*vacant.insert(v), true),
                        };
                        let got = index.get_or_insert(id, v, id_of);
                        assert_eq!(got, want, "insert, step {step}");
                        if !got.1 {
                            stale.insert(id, v);
                        }
                    }
                    6 => {
                        if let Some(&old) = stale.get(&id) {
                            assert!(!index.remove(&id, old), "stale value, step {step}");
                        }
                        if let Some(v) = exact.remove(&id) {
                            assert!(index.remove(&id, v), "remove, step {step}");
                            stale.insert(id, v);
                        }
                    }
                    _ => {
                        // Remove through a value taken from the index.
                        if let Some(v) = index.get(&id, id_of) {
                            assert!(index.remove(&id, v));
                            assert_eq!(exact.remove(&id), Some(v), "step {step}");
                            stale.insert(id, v);
                        }
                    }
                }
                assert_eq!(index.len(), exact.len(), "len, step {step}");
                far_seen = far_seen.max(index.far.len());
            }
            for &id in &pool {
                let id_of = |at: u32| arena[at as usize];
                assert_eq!(index.get(&id, id_of), exact.get(&id).copied());
            }
            assert!(far_seen > 0 && found_far > 0, "the far map was used");
        }
    }
}
