//! Canonical binary serialization of ledger structures.
//!
//! Allows a governor to export its chain (e.g. for a new member syncing
//! into the alliance, or for offline audit) and any party to re-import and
//! re-verify it: [`crate::chain::Chain::import`] replays every decoded
//! block through `append`, so Chain Integrity, No Skipping, size bounds
//! and Merkle consistency are re-checked structurally on import.
//!
//! The format is a simple length-prefixed canonical encoding (no external
//! serialization crates): every variable-length field is prefixed with a
//! `u32` big-endian length; integers are fixed-width big-endian; enums are
//! single tag bytes.

use std::fmt;

use prb_crypto::identity::{NodeId, Role};
use prb_crypto::sha256::Digest;
use prb_crypto::signer::Sig;

use crate::block::{Block, BlockEntry, Verdict};
use crate::transaction::{Label, SignedTx, TxPayload};

/// Errors from decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the structure was complete.
    UnexpectedEnd,
    /// An enum tag byte was not recognized.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A declared length was implausibly large for the remaining input.
    BadLength,
    /// Trailing bytes after a complete structure.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => f.write_str("input truncated"),
            DecodeError::BadTag { what, tag } => write!(f, "bad tag {tag:#x} decoding {what}"),
            DecodeError::BadLength => f.write_str("declared length exceeds remaining input"),
            DecodeError::TrailingBytes => f.write_str("trailing bytes after structure"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A byte reader with bounds checking.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Skips `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when fewer remain.
    pub fn skip(&mut self, n: usize) -> Result<(), DecodeError> {
        self.take(n).map(|_| ())
    }

    /// Consumes and returns the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when none remain.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u32` length prefix followed by that many bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::BadLength`] when the prefix overruns the
    /// input, or [`DecodeError::UnexpectedEnd`] when the prefix itself is
    /// cut short.
    pub fn bytes_field(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        self.take(len)
    }

    /// Reads a raw 32-byte SHA-256 digest.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnexpectedEnd`] when fewer than 32 bytes
    /// remain.
    pub fn digest(&mut self) -> Result<Digest, DecodeError> {
        Digest::from_slice(self.take(32)?).ok_or(DecodeError::UnexpectedEnd)
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    out.extend_from_slice(bytes);
}

fn encode_node_id(out: &mut Vec<u8>, id: NodeId) {
    out.push(match id.role {
        Role::Provider => 0,
        Role::Collector => 1,
        Role::Governor => 2,
    });
    out.extend_from_slice(&id.index.to_be_bytes());
}

fn decode_node_id(r: &mut Reader<'_>) -> Result<NodeId, DecodeError> {
    let role = match r.u8()? {
        0 => Role::Provider,
        1 => Role::Collector,
        2 => Role::Governor,
        tag => return Err(DecodeError::BadTag { what: "role", tag }),
    };
    Ok(NodeId {
        role,
        index: r.u32()?,
    })
}

/// Encodes a signature (canonical: tag byte + parts).
pub fn encode_sig(out: &mut Vec<u8>, sig: &Sig) {
    match sig {
        Sig::Sim(s) => {
            out.push(0);
            out.extend_from_slice(s.digest().as_bytes());
        }
        Sig::Schnorr(s) => {
            out.push(1);
            put_bytes(out, &s.r().to_bytes_be());
            put_bytes(out, &s.s().to_bytes_be());
        }
    }
}

/// Decodes a signature encoded with [`encode_sig`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation or an unknown scheme tag.
pub fn decode_sig(r: &mut Reader<'_>) -> Result<Sig, DecodeError> {
    match r.u8()? {
        0 => {
            let digest = r.digest()?;
            Ok(Sig::Sim(prb_crypto::sim::SimSignature::from_digest(digest)))
        }
        1 => {
            let big_r = prb_crypto::bigint::BigUint::from_bytes_be(r.bytes_field()?);
            let big_s = prb_crypto::bigint::BigUint::from_bytes_be(r.bytes_field()?);
            Ok(Sig::Schnorr(Box::new(
                prb_crypto::schnorr::Signature::from_parts(big_r, big_s),
            )))
        }
        tag => Err(DecodeError::BadTag { what: "sig", tag }),
    }
}

fn encode_label(out: &mut Vec<u8>, label: Label) {
    out.push(if label.is_valid() { 1 } else { 0 });
}

fn decode_label(r: &mut Reader<'_>) -> Result<Label, DecodeError> {
    match r.u8()? {
        0 => Ok(Label::Invalid),
        1 => Ok(Label::Valid),
        tag => Err(DecodeError::BadTag { what: "label", tag }),
    }
}

/// Encodes a signed transaction.
pub fn encode_signed_tx(out: &mut Vec<u8>, tx: &SignedTx) {
    encode_node_id(out, tx.payload.provider);
    out.extend_from_slice(&tx.payload.nonce.to_be_bytes());
    put_bytes(out, &tx.payload.data);
    out.extend_from_slice(&tx.timestamp.to_be_bytes());
    encode_sig(out, &tx.provider_sig);
}

/// Decodes a signed transaction.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_signed_tx(r: &mut Reader<'_>) -> Result<SignedTx, DecodeError> {
    let provider = decode_node_id(r)?;
    let nonce = r.u64()?;
    let data = r.bytes_field()?.to_vec();
    let timestamp = r.u64()?;
    let provider_sig = decode_sig(r)?;
    Ok(SignedTx::from_parts(
        TxPayload {
            provider,
            nonce,
            data,
        },
        timestamp,
        provider_sig,
    ))
}

fn encode_verdict(out: &mut Vec<u8>, v: Verdict) {
    out.push(match v {
        Verdict::CheckedValid => 0,
        Verdict::UncheckedInvalid => 1,
        Verdict::ArguedValid => 2,
        Verdict::UncheckedValid => 3,
    });
}

fn decode_verdict(r: &mut Reader<'_>) -> Result<Verdict, DecodeError> {
    match r.u8()? {
        0 => Ok(Verdict::CheckedValid),
        1 => Ok(Verdict::UncheckedInvalid),
        2 => Ok(Verdict::ArguedValid),
        3 => Ok(Verdict::UncheckedValid),
        tag => Err(DecodeError::BadTag {
            what: "verdict",
            tag,
        }),
    }
}

/// Encodes a block entry.
pub fn encode_entry(out: &mut Vec<u8>, e: &BlockEntry) {
    encode_signed_tx(out, &e.tx);
    encode_verdict(out, e.verdict);
    out.extend_from_slice(&(e.reported_labels.len() as u32).to_be_bytes());
    for (collector, label) in &e.reported_labels {
        encode_node_id(out, *collector);
        encode_label(out, *label);
    }
}

/// Decodes a block entry.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_entry(r: &mut Reader<'_>) -> Result<BlockEntry, DecodeError> {
    let tx = decode_signed_tx(r)?;
    let verdict = decode_verdict(r)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(DecodeError::BadLength);
    }
    let mut reported_labels = Vec::with_capacity(n);
    for _ in 0..n {
        let id = decode_node_id(r)?;
        let label = decode_label(r)?;
        reported_labels.push((id, label));
    }
    Ok(BlockEntry {
        tx,
        verdict,
        reported_labels,
    })
}

/// Encodes a block (header + entries).
pub fn encode_block(out: &mut Vec<u8>, b: &Block) {
    out.extend_from_slice(&b.serial.to_be_bytes());
    out.extend_from_slice(b.prev_hash.as_bytes());
    out.extend_from_slice(b.merkle_root.as_bytes());
    encode_node_id(out, b.leader);
    out.extend_from_slice(&b.timestamp.to_be_bytes());
    out.extend_from_slice(&(b.entries.len() as u32).to_be_bytes());
    for e in &b.entries {
        encode_entry(out, e);
    }
}

/// Decodes a block. The entries are Merkle-hashed here, once, against the
/// stated root ([`Block::from_parts`]); whether they matched is then a
/// field read for [`crate::chain::Chain::append`] and every later holder.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input.
pub fn decode_block(r: &mut Reader<'_>) -> Result<Block, DecodeError> {
    let serial = r.u64()?;
    let prev_hash = r.digest()?;
    let merkle_root = r.digest()?;
    let leader = decode_node_id(r)?;
    let timestamp = r.u64()?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(DecodeError::BadLength);
    }
    // `n` is only bounded by the bytes left, and an entry is far larger
    // in memory than its least encoding: grow as entries actually decode.
    let mut entries = Vec::new();
    for _ in 0..n {
        entries.push(decode_entry(r)?);
    }
    Ok(Block::from_parts(
        serial,
        entries,
        prev_hash,
        merkle_root,
        leader,
        timestamp,
    ))
}

/// Measures the block at the reader's position without building it, for
/// bulk readers that decode blocks in parallel and need their boundaries
/// first: advances past exactly the bytes [`decode_block`] would consume.
///
/// It reads the same length fields in the same order with the same bounds
/// checks, and checks no tag but a signature's scheme (which fixes the
/// signature's length). So where it fails, `decode_block` from the same
/// position fails too, with its own error; where it succeeds,
/// `decode_block` either fails on a tag or consumes exactly these bytes.
///
/// # Errors
///
/// Returns a [`DecodeError`] where the block cannot be measured.
pub(crate) fn skip_block(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    // Serial, prev hash, Merkle root, leader, timestamp.
    r.skip(8 + 32 + 32 + 5 + 8)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(DecodeError::BadLength);
    }
    (0..n).try_for_each(|_| skip_entry(r))
}

/// [`skip_block`] for one [`decode_entry`].
fn skip_entry(r: &mut Reader<'_>) -> Result<(), DecodeError> {
    // Provider and nonce, then the data field, then the timestamp.
    r.skip(5 + 8)?;
    r.bytes_field()?;
    r.skip(8)?;
    match r.u8()? {
        0 => r.skip(32)?,
        1 => {
            r.bytes_field()?;
            r.bytes_field()?;
        }
        tag => return Err(DecodeError::BadTag { what: "sig", tag }),
    }
    // The verdict, then each reported label: a node id and a label byte.
    r.skip(1)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(DecodeError::BadLength);
    }
    r.skip(n.checked_mul(6).ok_or(DecodeError::UnexpectedEnd)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;

    fn sample_tx(scheme: &CryptoScheme, nonce: u64) -> SignedTx {
        let key = scheme.keypair_from_seed(b"codec-p0");
        SignedTx::create(
            TxPayload {
                provider: NodeId::provider(3),
                nonce,
                data: vec![1, 2, 3, 4, 5],
            },
            99,
            &key,
        )
    }

    fn sample_block(scheme: &CryptoScheme) -> Block {
        let entries = vec![
            BlockEntry {
                tx: sample_tx(scheme, 0),
                verdict: Verdict::CheckedValid,
                reported_labels: vec![
                    (NodeId::collector(0), Label::Valid),
                    (NodeId::collector(1), Label::Invalid),
                ],
            },
            BlockEntry {
                tx: sample_tx(scheme, 1),
                verdict: Verdict::UncheckedInvalid,
                reported_labels: vec![],
            },
        ];
        Block::build(
            1,
            entries,
            Block::genesis(b"codec").hash(),
            NodeId::governor(2),
            7,
        )
    }

    #[test]
    fn tx_roundtrip_sim_and_schnorr() {
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let tx = sample_tx(&scheme, 5);
            let mut bytes = Vec::new();
            encode_signed_tx(&mut bytes, &tx);
            let mut r = Reader::new(&bytes);
            let decoded = decode_signed_tx(&mut r).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(decoded, tx);
            assert_eq!(decoded.id(), tx.id());
            // The decoded signature still verifies.
            let pk = scheme.keypair_from_seed(b"codec-p0").public_key();
            assert!(decoded.verify(&pk));
        }
    }

    #[test]
    fn block_roundtrip_preserves_hash() {
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let block = sample_block(&scheme);
            let mut bytes = Vec::new();
            encode_block(&mut bytes, &block);
            let mut r = Reader::new(&bytes);
            let decoded = decode_block(&mut r).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(decoded, block);
            assert_eq!(decoded.hash(), block.hash());
            assert!(decoded.merkle_consistent());
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let block = sample_block(&CryptoScheme::sim());
        let mut bytes = Vec::new();
        encode_block(&mut bytes, &block);
        for cut in [0, 1, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(decode_block(&mut r).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut bytes = Vec::new();
        encode_node_id(&mut bytes, NodeId::provider(0));
        bytes[0] = 9; // invalid role tag
        let mut r = Reader::new(&bytes);
        assert_eq!(
            decode_node_id(&mut r),
            Err(DecodeError::BadTag {
                what: "role",
                tag: 9
            })
        );
    }

    #[test]
    fn absurd_length_rejected_without_allocation() {
        // A 4 GiB declared data field with 4 bytes of input.
        let mut bytes = Vec::new();
        encode_node_id(&mut bytes, NodeId::provider(0));
        bytes.extend_from_slice(&0u64.to_be_bytes()); // nonce
        bytes.extend_from_slice(&u32::MAX.to_be_bytes()); // data length
        let mut r = Reader::new(&bytes);
        assert_eq!(decode_signed_tx(&mut r), Err(DecodeError::BadLength));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::UnexpectedEnd.to_string().contains("truncated"));
        assert!(DecodeError::BadLength.to_string().contains("length"));
        assert!(DecodeError::TrailingBytes.to_string().contains("railing"));
    }
}
