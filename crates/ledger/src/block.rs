//! Blocks: `B = (s, TXList, h)` plus integrity metadata.
//!
//! §3.1: a block carries a serial number, the list of signed transactions
//! with labels, and the hash of the previous block. We additionally commit
//! to the transaction list with a Merkle root so light verification and
//! inclusion proofs are possible, and record the proposing leader.
//!
//! Like a transaction, a block is an immutable, shared value that knows
//! its own name: [`Block`] is an `Arc` handle onto a sealed [`BlockBody`]
//! that carries the header hash and whether its Merkle root commits to its
//! entries, so a block's entries are Merkle-hashed once where the body is
//! built or decoded instead of at every chain that appends it (DESIGN.md
//! § "Block representation").

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use prb_crypto::identity::NodeId;
use prb_crypto::merkle::{root_of_leaves, MerkleProof, MerkleTree};
use prb_crypto::sha256::{Digest, Sha256};

use crate::header::BlockHeader;
use crate::transaction::{Label, SignedTx, TxId};

/// How a transaction was recorded in a block (Algorithm 2's outcomes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Verdict {
    /// The governor validated the transaction itself and found it valid.
    CheckedValid,
    /// The screening coin skipped validation; the transaction is recorded
    /// `(tx, invalid, unchecked)` on the strength of the drawn collector's
    /// `-1` label.
    UncheckedInvalid,
    /// The screening coin skipped validation and the drawn label was
    /// `+1`; only produced by the check-none baseline (the paper's
    /// mechanism always validates `+1`-labeled draws).
    UncheckedValid,
    /// Recorded valid after a provider's successful `argue(tx, s)`.
    ArguedValid,
}

impl Verdict {
    /// Whether the ledger currently treats the transaction as valid.
    pub fn counts_as_valid(self) -> bool {
        matches!(
            self,
            Verdict::CheckedValid | Verdict::ArguedValid | Verdict::UncheckedValid
        )
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::CheckedValid => "valid",
            Verdict::UncheckedInvalid => "invalid,unchecked",
            Verdict::UncheckedValid => "valid,unchecked",
            Verdict::ArguedValid => "valid,argued",
        })
    }
}

/// One entry of a block's `TXList`.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockEntry {
    /// The provider-signed transaction.
    pub tx: SignedTx,
    /// The governor's recorded verdict.
    pub verdict: Verdict,
    /// The labels collectors reported for this transaction, as packed by
    /// the leader (collector id, label). Used for audits and revenue.
    pub reported_labels: Vec<(NodeId, Label)>,
}

impl BlockEntry {
    /// Canonical bytes committed into the Merkle tree.
    ///
    /// Commits to the transaction id (covering payload, provider and
    /// timestamp), the provider *signature* bytes (so an exported ledger
    /// is tamper-evident down to the last byte — signatures here are
    /// deterministic, so there is no malleability concern), the verdict
    /// and the reported labels.
    pub fn leaf_bytes(&self) -> Vec<u8> {
        self.leaf_digest(&mut Vec::new()).to_vec()
    }

    /// [`Self::leaf_bytes`] without its allocations: the 32 bytes by
    /// value, and the encoded signature written into `scratch` (cleared
    /// first), which a caller hashing a whole block passes to every entry.
    fn leaf_digest(&self, scratch: &mut Vec<u8>) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_field(b"prb-block-entry");
        h.update_field(self.tx.id().0.as_bytes());
        scratch.clear();
        crate::codec::encode_sig(scratch, &self.tx.provider_sig);
        h.update_field(scratch);
        h.update(&[match self.verdict {
            Verdict::CheckedValid => 0u8,
            Verdict::UncheckedInvalid => 1,
            Verdict::ArguedValid => 2,
            Verdict::UncheckedValid => 3,
        }]);
        for (collector, label) in &self.reported_labels {
            h.update_field(&collector.to_bytes());
            h.update(&[label.to_i8() as u8]);
        }
        h.finalize().to_bytes()
    }
}

/// The sealed content of a [`Block`], reached through `Deref`.
///
/// The six content fields are readable but not assignable: a [`Block`]
/// only ever hands out `&BlockBody`, and a body cannot be built outside
/// this module (the memo fields are private). That is what lets the body
/// carry its own header hash and the answer to "does `merkle_root` commit
/// to `entries`?" — both are pure functions of the content, and nothing
/// can change the content after construction. A tampered block is a *new*
/// body ([`Block::from_parts`]), which recomputes them.
#[derive(Debug, PartialEq)]
pub struct BlockBody {
    /// Serial number `s`; the genesis block is serial 0.
    pub serial: u64,
    /// The recorded transaction list.
    pub entries: Vec<BlockEntry>,
    /// Hash of the previous block (`h` in the paper); all-zero for genesis.
    pub prev_hash: Digest,
    /// Merkle root over [`BlockEntry::leaf_bytes`].
    pub merkle_root: Digest,
    /// The governor that proposed the block.
    pub leader: NodeId,
    /// Proposal time (simulated ticks).
    pub timestamp: u64,
    /// Whether `merkle_root` is the root of `entries`, established once
    /// where the body is built.
    merkle_consistent: bool,
    /// The header hash, computed once where the body is built.
    hash: Digest,
}

/// A block: serial number, transaction list, previous-block hash.
///
/// A cheap handle onto one immutable, shared [`BlockBody`]: `clone()` is a
/// reference-count bump, so a proposal is Merkle-hashed once where it is
/// built or decoded and every chain, message and buffer that holds it
/// afterwards names the same entries, root and hash.
#[derive(Clone, Debug, PartialEq)]
pub struct Block(Arc<BlockBody>);

impl Deref for Block {
    type Target = BlockBody;

    fn deref(&self) -> &BlockBody {
        &self.0
    }
}

impl Block {
    /// Builds a block, computing the Merkle commitment.
    pub fn build(
        serial: u64,
        entries: Vec<BlockEntry>,
        prev_hash: Digest,
        leader: NodeId,
        timestamp: u64,
    ) -> Self {
        let merkle_root = Self::compute_merkle_root(&entries);
        Self::seal(
            serial,
            entries,
            prev_hash,
            merkle_root,
            leader,
            timestamp,
            true,
        )
    }

    /// Assembles a block around a *stated* Merkle root without trusting
    /// it (decoding, and modeling a tampered or stale block): the root of
    /// `entries` is computed once, here, and compared.
    pub fn from_parts(
        serial: u64,
        entries: Vec<BlockEntry>,
        prev_hash: Digest,
        merkle_root: Digest,
        leader: NodeId,
        timestamp: u64,
    ) -> Self {
        let merkle_consistent = Self::compute_merkle_root(&entries) == merkle_root;
        Self::seal(
            serial,
            entries,
            prev_hash,
            merkle_root,
            leader,
            timestamp,
            merkle_consistent,
        )
    }

    /// The genesis block for a chain identified by `chain_tag`.
    pub fn genesis(chain_tag: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update_field(b"prb-genesis");
        h.update_field(chain_tag);
        let tag = h.finalize();
        Self::seal(
            0,
            Vec::new(),
            tag,
            prb_crypto::merkle::empty_root(),
            NodeId::governor(0),
            0,
            true,
        )
    }

    fn seal(
        serial: u64,
        entries: Vec<BlockEntry>,
        prev_hash: Digest,
        merkle_root: Digest,
        leader: NodeId,
        timestamp: u64,
        merkle_consistent: bool,
    ) -> Self {
        let hash = BlockHeader {
            serial,
            prev_hash,
            merkle_root,
            leader,
            timestamp,
            entry_count: entries.len() as u64,
        }
        .hash();
        Block(Arc::new(BlockBody {
            serial,
            entries,
            prev_hash,
            merkle_root,
            leader,
            timestamp,
            merkle_consistent,
            hash,
        }))
    }

    /// Merkle root over the entries' canonical leaf bytes.
    pub fn compute_merkle_root(entries: &[BlockEntry]) -> Digest {
        let mut scratch = Vec::new();
        root_of_leaves(entries.iter().map(|e| e.leaf_digest(&mut scratch)))
    }

    /// The block hash `H(B)` chained into the successor: the
    /// [`BlockHeader::hash`] of this block's header (serial, previous
    /// hash, Merkle root, leader, timestamp, entry count); entry content
    /// is covered via the root.
    pub fn hash(&self) -> Digest {
        self.hash
    }

    /// Number of transactions in the block (`b ≤ b_limit`).
    pub fn tx_count(&self) -> usize {
        self.entries.len()
    }

    /// Looks up an entry by transaction id.
    pub fn entry(&self, id: TxId) -> Option<(usize, &BlockEntry)> {
        self.entries
            .iter()
            .enumerate()
            .find(|(_, e)| e.tx.id() == id)
    }

    /// Whether the stored Merkle root matches the entries.
    pub fn merkle_consistent(&self) -> bool {
        self.merkle_consistent
    }

    /// Produces an inclusion proof for entry `index`.
    pub fn prove_inclusion(&self, index: usize) -> Option<MerkleProof> {
        MerkleTree::from_leaves(self.entries.iter().map(BlockEntry::leaf_bytes)).prove(index)
    }

    /// Verifies an inclusion proof against this block's root.
    pub fn verify_inclusion(&self, proof: &MerkleProof, entry: &BlockEntry) -> bool {
        proof.verify(&self.merkle_root, &entry.leaf_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::TxPayload;
    use prb_crypto::signer::CryptoScheme;

    fn entry(nonce: u64, verdict: Verdict) -> BlockEntry {
        let key = CryptoScheme::sim().keypair_from_seed(b"p0");
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce,
                data: vec![1, 2, 3],
            },
            50,
            &key,
        );
        BlockEntry {
            tx,
            verdict,
            reported_labels: vec![(NodeId::collector(0), Label::Valid)],
        }
    }

    fn sample_block() -> Block {
        let genesis = Block::genesis(b"test-chain");
        Block::build(
            1,
            vec![
                entry(0, Verdict::CheckedValid),
                entry(1, Verdict::UncheckedInvalid),
                entry(2, Verdict::ArguedValid),
            ],
            genesis.hash(),
            NodeId::governor(1),
            99,
        )
    }

    #[test]
    fn genesis_is_deterministic_per_tag() {
        assert_eq!(Block::genesis(b"a").hash(), Block::genesis(b"a").hash());
        assert_ne!(Block::genesis(b"a").hash(), Block::genesis(b"b").hash());
        assert_eq!(Block::genesis(b"a").serial, 0);
        assert!(Block::genesis(b"a").merkle_consistent());
    }

    /// `b` rebuilt field by field, the way a tamperer has to.
    fn rebuilt(b: &Block, edit: impl FnOnce(&mut BlockHeader, &mut Vec<BlockEntry>)) -> Block {
        let (mut header, mut entries) = (b.header(), b.entries.clone());
        edit(&mut header, &mut entries);
        Block::from_parts(
            header.serial,
            entries,
            header.prev_hash,
            header.merkle_root,
            header.leader,
            header.timestamp,
        )
    }

    #[test]
    fn hash_changes_with_any_header_field() {
        let b = sample_block();
        let base = b.hash();
        assert_eq!(rebuilt(&b, |_, _| {}).hash(), base);
        assert_ne!(rebuilt(&b, |h, _| h.serial = 2).hash(), base);
        assert_ne!(rebuilt(&b, |h, _| h.timestamp += 1).hash(), base);
        assert_ne!(
            rebuilt(&b, |h, _| h.leader = NodeId::governor(2)).hash(),
            base
        );
        assert_ne!(
            rebuilt(&b, |h, _| h.prev_hash = Digest::default()).hash(),
            base
        );
        let c = rebuilt(&b, |h, _| h.merkle_root = Digest::default());
        assert_ne!(c.hash(), base);
        assert!(!c.merkle_consistent());
    }

    #[test]
    fn merkle_root_commits_to_entries() {
        let b = sample_block();
        assert!(b.merkle_consistent());
        assert!(b.clone().merkle_consistent());
        assert!(rebuilt(&b, |_, _| {}).merkle_consistent());
        let tampered = rebuilt(&b, |_, e| e[0].verdict = Verdict::ArguedValid);
        assert!(!tampered.merkle_consistent());
        let tampered = rebuilt(&b, |_, e| e[1].reported_labels[0].1 = Label::Invalid);
        assert!(!tampered.merkle_consistent());
        let tampered = rebuilt(&b, |_, e| e.truncate(2));
        assert!(!tampered.merkle_consistent());
    }

    #[test]
    fn entry_lookup() {
        let b = sample_block();
        let id = b.entries[1].tx.id();
        let (idx, e) = b.entry(id).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(e.verdict, Verdict::UncheckedInvalid);
        let missing = entry(77, Verdict::CheckedValid).tx.id();
        assert!(b.entry(missing).is_none());
    }

    #[test]
    fn inclusion_proofs() {
        let b = sample_block();
        for i in 0..b.tx_count() {
            let proof = b.prove_inclusion(i).unwrap();
            assert!(b.verify_inclusion(&proof, &b.entries[i]));
        }
        // Proof for one entry does not verify another.
        let proof = b.prove_inclusion(0).unwrap();
        assert!(!b.verify_inclusion(&proof, &b.entries[1]));
        assert!(b.prove_inclusion(10).is_none());
    }

    #[test]
    fn verdict_semantics() {
        assert!(Verdict::CheckedValid.counts_as_valid());
        assert!(Verdict::ArguedValid.counts_as_valid());
        assert!(Verdict::UncheckedValid.counts_as_valid());
        assert_eq!(Verdict::UncheckedValid.to_string(), "valid,unchecked");
        assert!(!Verdict::UncheckedInvalid.counts_as_valid());
        assert_eq!(Verdict::UncheckedInvalid.to_string(), "invalid,unchecked");
    }
}
