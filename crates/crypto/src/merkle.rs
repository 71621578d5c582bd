//! Merkle trees over SHA-256, with inclusion proofs.
//!
//! Blocks commit to their transaction list via a Merkle root so that a
//! node holding only block headers can verify that a given transaction was
//! included (used by providers checking how their transactions were labeled
//! before invoking `argue`).
//!
//! Leaf and interior hashes are domain-separated (`0x00` / `0x01` prefixes)
//! to rule out second-preimage attacks that reinterpret interior nodes as
//! leaves. An odd node at any level is promoted (not duplicated), matching
//! the simple binary Merkle construction.

use crate::sha256::{Digest, Sha256};

/// A Merkle tree built from a list of leaf byte strings.
///
/// # Examples
///
/// ```
/// use prb_crypto::merkle::MerkleTree;
///
/// let tree = MerkleTree::from_leaves(["a".as_bytes(), b"b", b"c"]);
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&tree.root(), b"b"));
/// assert!(!proof.verify(&tree.root(), b"x"));
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = single root.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: the sibling path from a leaf to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    leaf_index: usize,
    /// Sibling hash at each level, bottom-up; `None` when the node was
    /// promoted without a sibling.
    path: Vec<Option<Digest>>,
}

fn hash_leaf(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// Root reported for an empty tree: the hash of the empty string under the
/// leaf domain, so it cannot collide with any real single-leaf root that
/// hashes actual content... it *can* equal the root of a tree whose single
/// leaf is empty, which is why [`MerkleTree::from_leaves`] over zero leaves
/// and over one empty leaf are distinguished by leaf count, carried in the
/// block header alongside the root.
pub fn empty_root() -> Digest {
    hash_leaf(&[])
}

/// The root of the tree over `leaves`, without the tree.
///
/// Equal to `MerkleTree::from_leaves(leaves).root()` (which stays the
/// reference it is tested against) with the same hashes in the same
/// order, but each level overwrites the one below it in a single vector.
/// For the caller that commits to a list and proves nothing about it.
///
/// # Examples
///
/// ```
/// use prb_crypto::merkle::{root_of_leaves, MerkleTree};
///
/// let leaves = ["a".as_bytes(), b"b", b"c"];
/// assert_eq!(root_of_leaves(leaves), MerkleTree::from_leaves(leaves).root());
/// ```
pub fn root_of_leaves<I, T>(leaves: I) -> Digest
where
    I: IntoIterator<Item = T>,
    T: AsRef<[u8]>,
{
    let mut level: Vec<Digest> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
    if level.is_empty() {
        return empty_root();
    }
    while level.len() > 1 {
        let pairs = level.len() / 2;
        for i in 0..pairs {
            level[i] = hash_node(&level[2 * i], &level[2 * i + 1]);
        }
        if level.len() % 2 == 1 {
            level[pairs] = level[2 * pairs]; // promoted, not duplicated
        }
        level.truncate(level.len().div_ceil(2));
    }
    level[0]
}

impl MerkleTree {
    /// Builds a tree from leaf values.
    pub fn from_leaves<I, T>(leaves: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]>,
    {
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds a tree from already-hashed leaves.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        if leaf_hashes.is_empty() {
            return MerkleTree {
                levels: vec![Vec::new()],
            };
        }
        let mut levels = vec![leaf_hashes];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                match pair {
                    [left, right] => next.push(hash_node(left, right)),
                    [promoted] => next.push(*promoted),
                    _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root commitment.
    pub fn root(&self) -> Digest {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or_else(empty_root)
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// Returns `None` when `index` is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = if i.is_multiple_of(2) { i + 1 } else { i - 1 };
            path.push(level.get(sibling).copied());
            i /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            path,
        })
    }
}

impl MerkleProof {
    /// Verifies that `leaf_data` is at this proof's index under `root`.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        self.verify_hash(root, &hash_leaf(leaf_data))
    }

    /// Verifies from a pre-hashed leaf.
    pub fn verify_hash(&self, root: &Digest, leaf_hash: &Digest) -> bool {
        let mut current = *leaf_hash;
        let mut i = self.leaf_index;
        for sibling in &self.path {
            current = match sibling {
                Some(s) if i.is_multiple_of(2) => hash_node(&current, s),
                Some(s) => hash_node(s, &current),
                None => current, // promoted node
            };
            i /= 2;
        }
        current == *root
    }

    /// The index of the leaf this proof covers.
    pub fn leaf_index(&self) -> usize {
        self.leaf_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_stable_root() {
        let tree = MerkleTree::from_leaves(Vec::<&[u8]>::new());
        assert_eq!(tree.root(), empty_root());
        assert_eq!(tree.leaf_count(), 0);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves([b"only".as_slice()]);
        assert_eq!(tree.root(), hash_leaf(b"only"));
        let proof = tree.prove(0).unwrap();
        assert!(proof.verify(&tree.root(), b"only"));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in 1..=20 {
            let data = leaves(n);
            let tree = MerkleTree::from_leaves(&data);
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(&tree.root(), leaf), "n={n} i={i}");
            }
            assert!(tree.prove(n).is_none());
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let data = leaves(7);
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&tree.root(), b"not-a-leaf"));
        let other = MerkleTree::from_leaves(leaves(8));
        assert!(!proof.verify(&other.root(), &data[3]));
    }

    #[test]
    fn proof_fails_for_wrong_position() {
        let data = leaves(8);
        let tree = MerkleTree::from_leaves(&data);
        let proof = tree.prove(2).unwrap();
        // Correct data for index 3, proven at index 2: must fail.
        assert!(!proof.verify(&tree.root(), &data[3]));
        assert_eq!(proof.leaf_index(), 2);
    }

    #[test]
    fn order_matters() {
        let t1 = MerkleTree::from_leaves([b"a".as_slice(), b"b"]);
        let t2 = MerkleTree::from_leaves([b"b".as_slice(), b"a"]);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // Root of [a, b] must differ from the single leaf whose content is
        // the concatenation of the two leaf hashes.
        let t = MerkleTree::from_leaves([b"a".as_slice(), b"b"]);
        let mut concat = Vec::new();
        concat.extend_from_slice(hash_leaf(b"a").as_bytes());
        concat.extend_from_slice(hash_leaf(b"b").as_bytes());
        let fake = MerkleTree::from_leaves([concat]);
        assert_ne!(t.root(), fake.root());
    }

    #[test]
    fn root_only_fold_matches_the_tree() {
        for n in 0..=33 {
            let data = leaves(n);
            assert_eq!(
                root_of_leaves(&data),
                MerkleTree::from_leaves(&data).root(),
                "n={n}"
            );
        }
    }

    #[test]
    fn from_leaf_hashes_matches_from_leaves() {
        let data = leaves(5);
        let t1 = MerkleTree::from_leaves(&data);
        let hashes = data.iter().map(|d| hash_leaf(d)).collect();
        let t2 = MerkleTree::from_leaf_hashes(hashes);
        assert_eq!(t1.root(), t2.root());
    }
}
