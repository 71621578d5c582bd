//! Light-client support: block headers and a header-only chain.
//!
//! Providers and auditors do not need full blocks to use the ledger: a
//! [`BlockHeader`] carries exactly the fields that [`crate::block::Block::hash`]
//! commits to, so a [`HeaderChain`] can verify chain integrity and check
//! Merkle inclusion proofs supplied by any full node — the light-client
//! counterpart of the paper's `retrieve(s)`.

use std::fmt;

use prb_crypto::identity::NodeId;
use prb_crypto::merkle::MerkleProof;
use prb_crypto::sha256::{Digest, Sha256};

use crate::block::{Block, BlockEntry};
use crate::chain::ChainError;

/// The hash-committed header of a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Serial number.
    pub serial: u64,
    /// Hash of the previous block.
    pub prev_hash: Digest,
    /// Merkle root over the entries.
    pub merkle_root: Digest,
    /// Proposing governor.
    pub leader: NodeId,
    /// Proposal time.
    pub timestamp: u64,
    /// Number of entries in the block body.
    pub entry_count: u64,
}

impl BlockHeader {
    /// The header hash. This is the one definition of a block's hash:
    /// [`Block::hash`] returns this value, computed once where the block
    /// body was built.
    pub fn hash(&self) -> Digest {
        let mut h = Sha256::new();
        h.update_field(b"prb-block");
        h.update(&self.serial.to_be_bytes());
        h.update_field(self.prev_hash.as_bytes());
        h.update_field(self.merkle_root.as_bytes());
        h.update_field(&self.leader.to_bytes());
        h.update(&self.timestamp.to_be_bytes());
        h.update(&self.entry_count.to_be_bytes());
        h.finalize()
    }
}

impl Block {
    /// Extracts the hash-committed header of this block.
    pub fn header(&self) -> BlockHeader {
        BlockHeader {
            serial: self.serial,
            prev_hash: self.prev_hash,
            merkle_root: self.merkle_root,
            leader: self.leader,
            timestamp: self.timestamp,
            entry_count: self.entries.len() as u64,
        }
    }
}

/// A header-only replica of the ledger.
///
/// Enforces the same *Chain Integrity* and *No Skipping* rules as the full
/// [`crate::chain::Chain`] but stores ~100 bytes per block. Inclusion of a
/// specific transaction is verified against the stored Merkle root with a
/// proof obtained from any (untrusted) full node.
///
/// # Examples
///
/// ```
/// use prb_ledger::header::HeaderChain;
///
/// let light = HeaderChain::new(b"example");
/// assert_eq!(light.height(), 0);
/// ```
#[derive(Clone)]
pub struct HeaderChain {
    headers: Vec<BlockHeader>,
    /// Serial of `headers[0]`; nonzero when anchored at a checkpoint.
    base: u64,
    /// Certified hash of the block at `base - 1`; present iff `base > 0`.
    anchor: Option<Digest>,
}

impl fmt::Debug for HeaderChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeaderChain")
            .field("height", &self.height())
            .field("base", &self.base)
            .finish()
    }
}

impl HeaderChain {
    /// A light chain holding only the genesis header of `chain_tag`.
    pub fn new(chain_tag: &[u8]) -> Self {
        HeaderChain {
            headers: vec![Block::genesis(chain_tag).header()],
            base: 0,
            anchor: None,
        }
    }

    /// A light chain anchored at a quorum-certified checkpoint: the caller
    /// vouches that the block at `head_serial` hashes to `head_hash`, and
    /// the chain then only needs the headers *after* the checkpoint — a
    /// million-block ledger audits from a recent checkpoint in O(delta)
    /// headers instead of O(chain).
    ///
    /// # Panics
    ///
    /// Panics if `head_serial` is `u64::MAX`.
    pub fn from_checkpoint(head_serial: u64, head_hash: Digest) -> Self {
        assert!(head_serial < u64::MAX, "checkpoint serial overflow");
        HeaderChain {
            headers: Vec::new(),
            base: head_serial + 1,
            anchor: Some(head_hash),
        }
    }

    /// Serial of the first held header (0 unless anchored).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Height (serial of the latest header; the certified checkpoint
    /// serial for a freshly anchored chain).
    pub fn height(&self) -> u64 {
        self.base + self.headers.len() as u64 - 1
    }

    /// The latest header.
    ///
    /// # Panics
    ///
    /// Panics on an anchored chain holding no headers yet; use
    /// [`head_hash`](Self::head_hash) where that state is reachable.
    pub fn latest(&self) -> &BlockHeader {
        self.headers.last().expect("chain holds no headers")
    }

    /// Hash of the block at [`height`](Self::height); the anchor hash for
    /// a freshly anchored chain.
    pub fn head_hash(&self) -> Digest {
        match self.headers.last() {
            Some(header) => header.hash(),
            None => self.anchor.expect("empty chain is always anchored"),
        }
    }

    /// The header with serial `s`, if present. Headers below an anchored
    /// chain's base are unavailable.
    pub fn retrieve(&self, serial: u64) -> Option<&BlockHeader> {
        let index = serial.checked_sub(self.base)?;
        self.headers.get(index as usize)
    }

    /// Appends a header after verifying serial continuity and the hash
    /// chain (the light-client analogue of [`crate::chain::Chain::append`];
    /// Merkle consistency of the body is checked lazily per inclusion
    /// proof). On a freshly anchored chain the hash check is against the
    /// anchor digest.
    ///
    /// # Errors
    ///
    /// Returns the violated invariant; the chain is unchanged on error.
    pub fn append(&mut self, header: BlockHeader) -> Result<(), ChainError> {
        let expected = self.height() + 1;
        if header.serial != expected {
            return Err(ChainError::NonConsecutiveSerial {
                expected,
                got: header.serial,
            });
        }
        if header.prev_hash != self.head_hash() {
            return Err(ChainError::BrokenHashChain {
                serial: header.serial,
            });
        }
        self.headers.push(header);
        Ok(())
    }

    /// Verifies that `entry` is included in block `serial` using a Merkle
    /// `proof` obtained from an untrusted full node.
    ///
    /// Returns `false` for unknown serials, bad proofs, or proofs against
    /// the wrong block.
    pub fn verify_inclusion(&self, serial: u64, proof: &MerkleProof, entry: &BlockEntry) -> bool {
        let Some(header) = self.retrieve(serial) else {
            return false;
        };
        if proof.leaf_index() as u64 >= header.entry_count {
            return false;
        }
        proof.verify(&header.merkle_root, &entry.leaf_bytes())
    }

    /// Syncs from a full chain iterator, appending every new block header.
    ///
    /// # Errors
    ///
    /// Returns the first integrity violation.
    pub fn sync_from<'a>(
        &mut self,
        blocks: impl IntoIterator<Item = &'a Block>,
    ) -> Result<(), ChainError> {
        for block in blocks {
            if block.serial <= self.height() {
                continue; // already have it
            }
            self.append(block.header())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Verdict;
    use crate::chain::Chain;
    use crate::transaction::{Label, SignedTx, TxPayload};
    use prb_crypto::signer::CryptoScheme;

    fn entry(nonce: u64) -> BlockEntry {
        let key = CryptoScheme::sim().keypair_from_seed(b"hdr-p0");
        BlockEntry {
            tx: SignedTx::create(
                TxPayload {
                    provider: NodeId::provider(0),
                    nonce,
                    data: vec![9, 9],
                },
                3,
                &key,
            ),
            verdict: Verdict::CheckedValid,
            reported_labels: vec![(NodeId::collector(1), Label::Valid)],
        }
    }

    fn full_chain(blocks: u64, per_block: u64) -> Chain {
        let mut chain = Chain::new(b"hdr", 64);
        let mut nonce = 0;
        for _ in 0..blocks {
            let entries = (0..per_block)
                .map(|_| {
                    nonce += 1;
                    entry(nonce)
                })
                .collect();
            let block = Block::build(
                chain.height() + 1,
                entries,
                chain.latest().hash(),
                NodeId::governor(0),
                nonce,
            );
            chain.append(block).unwrap();
        }
        chain
    }

    #[test]
    fn header_hash_matches_block_hash() {
        let chain = full_chain(3, 4);
        for block in chain.iter() {
            assert_eq!(
                block.header().hash(),
                block.hash(),
                "serial {}",
                block.serial
            );
        }
    }

    #[test]
    fn sync_and_integrity() {
        let chain = full_chain(5, 3);
        let mut light = HeaderChain::new(b"hdr");
        light.sync_from(chain.iter()).unwrap();
        assert_eq!(light.height(), 5);
        assert_eq!(light.latest().hash(), chain.latest().hash());
        // Re-sync is idempotent.
        light.sync_from(chain.iter()).unwrap();
        assert_eq!(light.height(), 5);
    }

    #[test]
    fn append_rejects_gaps_and_forks() {
        let chain = full_chain(3, 2);
        let mut light = HeaderChain::new(b"hdr");
        // Gap: block 2 before block 1.
        let h2 = chain.retrieve(2).unwrap().header();
        assert!(matches!(
            light.append(h2),
            Err(ChainError::NonConsecutiveSerial {
                expected: 1,
                got: 2
            })
        ));
        // Fork: block 1 with a doctored prev hash.
        let mut h1 = chain.retrieve(1).unwrap().header();
        h1.prev_hash = prb_crypto::sha256::sha256(b"fork");
        assert!(matches!(
            light.append(h1),
            Err(ChainError::BrokenHashChain { serial: 1 })
        ));
    }

    #[test]
    fn inclusion_proofs_verify_against_headers_only() {
        let chain = full_chain(4, 5);
        let mut light = HeaderChain::new(b"hdr");
        light.sync_from(chain.iter()).unwrap();
        // A full node serves a proof for entry 2 of block 3.
        let block = chain.retrieve(3).unwrap();
        let proof = block.prove_inclusion(2).unwrap();
        assert!(light.verify_inclusion(3, &proof, &block.entries[2]));
        // Wrong entry, wrong block, unknown serial: all rejected.
        assert!(!light.verify_inclusion(3, &proof, &block.entries[1]));
        assert!(!light.verify_inclusion(2, &proof, &block.entries[2]));
        assert!(!light.verify_inclusion(9, &proof, &block.entries[2]));
    }

    #[test]
    fn tampered_entry_fails_inclusion() {
        let chain = full_chain(2, 3);
        let mut light = HeaderChain::new(b"hdr");
        light.sync_from(chain.iter()).unwrap();
        let block = chain.retrieve(1).unwrap();
        let proof = block.prove_inclusion(0).unwrap();
        let mut tampered = block.entries[0].clone();
        tampered.verdict = Verdict::ArguedValid;
        assert!(!light.verify_inclusion(1, &proof, &tampered));
    }

    #[test]
    fn anchored_light_chain_audits_suffix_only() {
        let chain = full_chain(6, 3);
        // A provider that trusts a checkpoint at height 4 only ever sees
        // the suffix — O(delta) headers on a chain of any length.
        let mut light = HeaderChain::from_checkpoint(4, chain.retrieve(4).unwrap().hash());
        assert_eq!(light.height(), 4);
        assert_eq!(light.base(), 5);
        assert_eq!(light.head_hash(), chain.retrieve(4).unwrap().hash());
        assert_eq!(light.retrieve(4), None, "pre-anchor headers unavailable");

        // A suffix header that does not link into the anchor is rejected.
        let mut forged = chain.retrieve(5).unwrap().header();
        forged.prev_hash = prb_crypto::sha256::sha256(b"forged");
        assert!(matches!(
            light.append(forged),
            Err(ChainError::BrokenHashChain { serial: 5 })
        ));

        light.sync_from(chain.iter()).unwrap();
        assert_eq!(light.height(), 6);
        assert_eq!(light.head_hash(), chain.head_hash());

        // Inclusion proofs still verify against the suffix headers.
        let block = chain.retrieve(6).unwrap();
        let proof = block.prove_inclusion(1).unwrap();
        assert!(light.verify_inclusion(6, &proof, &block.entries[1]));
        assert!(!light.verify_inclusion(4, &proof, &block.entries[1]));
    }

    #[test]
    fn out_of_range_leaf_index_rejected() {
        let chain = full_chain(2, 2);
        let mut light = HeaderChain::new(b"hdr");
        light.sync_from(chain.iter()).unwrap();
        // A proof whose index exceeds the header's entry count cannot be
        // meaningful even if the hash math were made to work out.
        let big_block = full_chain(1, 10);
        let foreign = big_block.retrieve(1).unwrap();
        let proof = foreign.prove_inclusion(7).unwrap();
        assert!(!light.verify_inclusion(1, &proof, &foreign.entries[7]));
    }
}
