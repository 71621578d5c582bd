//! Transactions: provider-signed payloads and collector-labeled uploads.
//!
//! §3.1 of the paper: a provider's broadcast `tx` *"should contain a
//! transaction payload, the current timestamp, as well as the provider's
//! signature on them, to prevent a collector from fabricating one"*; a
//! collector's upload `Tx` adds *"a label (e.g. valid or invalid), and the
//! collector's signature on all of them"*. Here one [`UploadBatch`] carries
//! every transaction a collector labeled in one dispatch under a single
//! collector signature (DESIGN.md § "Substitutions", row 6).
//!
//! Both are immutable, shared values that know their own names:
//! [`SignedTx`] and [`UploadBatch`] are `Arc` handles onto sealed bodies
//! that carry the transaction id and the signing digests, so a
//! transaction's bytes are hashed once where the body is built instead of
//! at every site that asks (DESIGN.md § "Transaction representation").

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use prb_crypto::identity::NodeId;
use prb_crypto::sha256::{hash_fields, Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};

/// Unique transaction identifier: the hash of the signed content.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxId(pub Digest);

impl TxId {
    /// The causal trace id lifecycle events carry: the first 8 digest
    /// bytes as a little-endian `u64`. Unique with overwhelming
    /// probability, and computable at any site holding the tx, so no
    /// message needs to carry it on the wire.
    pub fn trace(&self) -> u64 {
        u64::from_le_bytes(self.0 .0[..8].try_into().expect("digest is 32 bytes"))
    }
}

impl fmt::Debug for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TxId({}…)", &self.0.to_hex()[..12])
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.to_hex()[..12])
    }
}

/// The label a collector assigns to a transaction: `+1` (valid) or `-1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// The collector judged the transaction valid (`+1`).
    Valid,
    /// The collector judged the transaction invalid (`-1`).
    Invalid,
}

impl Label {
    /// The paper's numeric form: `+1` or `-1`.
    pub fn to_i8(self) -> i8 {
        match self {
            Label::Valid => 1,
            Label::Invalid => -1,
        }
    }

    /// Builds from a ground-truth validity bit.
    pub fn from_validity(valid: bool) -> Self {
        if valid {
            Label::Valid
        } else {
            Label::Invalid
        }
    }

    /// The opposite label (a misreport).
    pub fn flipped(self) -> Self {
        match self {
            Label::Valid => Label::Invalid,
            Label::Invalid => Label::Valid,
        }
    }

    /// Whether the label is [`Label::Valid`].
    pub fn is_valid(self) -> bool {
        matches!(self, Label::Valid)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Label::Valid => "+1",
            Label::Invalid => "-1",
        })
    }
}

/// The raw transaction content a provider creates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TxPayload {
    /// The authoring provider.
    pub provider: NodeId,
    /// Provider-local sequence number (guards against replay of identical
    /// payloads; combined with the timestamp in the signature).
    pub nonce: u64,
    /// Opaque application data (ride request, insurance form, …).
    pub data: Vec<u8>,
}

impl TxPayload {
    /// The 32-byte digest a provider signs: payload plus timestamp.
    fn signing_digest(&self, timestamp: u64) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_field(b"prb-tx");
        h.update_field(&self.provider.to_bytes());
        h.update(&self.nonce.to_be_bytes());
        h.update(&timestamp.to_be_bytes());
        h.update_field(&self.data);
        h.finalize().to_bytes()
    }

    /// The transaction id: hash of provider id, nonce, timestamp and data.
    fn id(&self, timestamp: u64) -> TxId {
        TxId(hash_fields(
            "tx-id",
            &[
                &self.provider.to_bytes(),
                &self.nonce.to_be_bytes(),
                &timestamp.to_be_bytes(),
                &self.data,
            ],
        ))
    }
}

/// The sealed content of a [`SignedTx`], reached through `Deref`.
///
/// The three content fields are readable but not assignable: a
/// [`SignedTx`] only ever hands out `&TxBody`, and a body cannot be built
/// outside this module (the memo fields are private). That is what lets
/// the body carry its own id and signing digest — both are pure functions
/// of `payload` and `timestamp`, and nothing can change those after
/// construction. A tampered transaction is a *new* body
/// ([`SignedTx::from_parts`]), which recomputes them.
#[derive(Clone, Debug)]
pub struct TxBody {
    /// The payload.
    pub payload: TxPayload,
    /// Provider-side timestamp (simulated ticks), signed together with the
    /// payload so a collector cannot replay an old transaction as new.
    pub timestamp: u64,
    /// Provider signature over payload + timestamp.
    pub provider_sig: Sig,
    /// Computed once, where the body is built.
    id: TxId,
    /// Computed in `create` (signing needs it); elsewhere on first use, so
    /// decoding a ledger never pays for a digest nobody verifies.
    signing_digest: OnceLock<[u8; 32]>,
}

/// A provider-signed transaction (`tx` in the paper).
///
/// A cheap handle onto one immutable, shared [`TxBody`]: `clone()` is a
/// reference-count bump, and every copy a node (or, in this in-process
/// simulation, every node) holds names the same bytes, id and signing
/// digest.
#[derive(Clone, Debug)]
pub struct SignedTx(Arc<TxBody>);

impl Deref for SignedTx {
    type Target = TxBody;

    fn deref(&self) -> &TxBody {
        &self.0
    }
}

impl PartialEq for SignedTx {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.timestamp == other.timestamp
                && self.provider_sig == other.provider_sig
                && self.payload == other.payload)
    }
}

impl SignedTx {
    /// Creates and signs a transaction.
    pub fn create(payload: TxPayload, timestamp: u64, provider_key: &KeyPair) -> Self {
        let digest = payload.signing_digest(timestamp);
        let provider_sig = provider_key.sign(&digest);
        Self::seal(payload, timestamp, provider_sig, OnceLock::from(digest))
    }

    /// Assembles a transaction from parts without signing (decoding, and
    /// modeling forgery or tampering: pair with a garbage or stale
    /// [`Sig`]).
    pub fn from_parts(payload: TxPayload, timestamp: u64, provider_sig: Sig) -> Self {
        Self::seal(payload, timestamp, provider_sig, OnceLock::new())
    }

    fn seal(
        payload: TxPayload,
        timestamp: u64,
        provider_sig: Sig,
        signing_digest: OnceLock<[u8; 32]>,
    ) -> Self {
        let id = payload.id(timestamp);
        SignedTx(Arc::new(TxBody {
            payload,
            timestamp,
            provider_sig,
            id,
            signing_digest,
        }))
    }

    /// The same signed content under a different provider signature. The
    /// id and signing digest do not cover the signature, so they carry
    /// over; the body is copied only if another handle still shares it.
    pub fn with_provider_sig(mut self, provider_sig: Sig) -> Self {
        Arc::make_mut(&mut self.0).provider_sig = provider_sig;
        self
    }

    /// The transaction id: hash of payload, timestamp and provider id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The exact 32 bytes [`SignedTx::verify`] checks the provider
    /// signature against — exposed so callers can accumulate
    /// `(digest, sig, key)` triples and drain them through a batch
    /// verifier.
    pub fn signing_digest(&self) -> &[u8; 32] {
        self.signing_digest
            .get_or_init(|| self.payload.signing_digest(self.timestamp))
    }

    /// [`SignedTx::signing_digest`] as an owned vector.
    pub fn signing_bytes(&self) -> Vec<u8> {
        self.signing_digest().to_vec()
    }

    /// Verifies the provider signature against `provider_pk`.
    pub fn verify(&self, provider_pk: &PublicKey) -> bool {
        provider_pk.verify(self.signing_digest(), &self.provider_sig)
    }

    /// Approximate wire size in bytes (for bandwidth accounting).
    pub fn wire_size(&self) -> usize {
        self.payload.data.len() + 5 + 8 + 8 + 64
    }
}

/// The sealed content of an [`UploadBatch`], reached through `Deref`;
/// readable, not assignable, for the same reason as [`TxBody`].
#[derive(Debug)]
pub struct UploadBody {
    /// The uploading collector.
    pub collector: NodeId,
    /// The batch's sequence number on the collector's upload channel.
    pub seq: u64,
    /// The labeled transactions, in the order the collector labeled them.
    pub entries: Box<[(SignedTx, Label)]>,
    /// Collector signature over the batch digest.
    pub collector_sig: Sig,
    /// What `collector_sig` signs, computed once where the body is built.
    signing_digest: [u8; 32],
}

/// A collector's upload (`Tx` in the paper, one per transaction there):
/// every `(tx, label)` the collector labeled in one dispatch, under one
/// signature. A cheap handle onto one immutable, shared [`UploadBody`],
/// like [`SignedTx`].
///
/// The signature covers a flat digest of a domain tag, the collector, the
/// sequence number and every `(tx id, label)` in order, so a flipped,
/// reordered, added or removed entry, a swapped collector or a replayed
/// sequence number all fail [`UploadBatch::verify`]. It is not a Merkle
/// root: governors keep no per-copy proof, and a root would cost each of
/// them about two hashes per entry where the flat digest is one hash per
/// batch (DESIGN.md § "Substitutions").
#[derive(Clone, Debug)]
pub struct UploadBatch(Arc<UploadBody>);

impl Deref for UploadBatch {
    type Target = UploadBody;

    fn deref(&self) -> &UploadBody {
        &self.0
    }
}

impl PartialEq for UploadBatch {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.collector == other.collector
                && self.seq == other.seq
                && self.collector_sig == other.collector_sig
                && self.entries == other.entries)
    }
}

impl UploadBatch {
    fn signing_digest(collector: NodeId, seq: u64, entries: &[(SignedTx, Label)]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_field(b"prb-upload-batch");
        h.update_field(&collector.to_bytes());
        h.update(&seq.to_be_bytes());
        h.update(&(entries.len() as u64).to_be_bytes());
        for (tx, label) in entries {
            h.update(tx.id().0.as_bytes());
            h.update(&[label.to_i8() as u8]);
        }
        h.finalize().to_bytes()
    }

    /// Signs `entries` as batch `seq` of `collector`.
    pub fn create(
        collector: NodeId,
        seq: u64,
        entries: Vec<(SignedTx, Label)>,
        collector_key: &KeyPair,
    ) -> Self {
        let signing_digest = Self::signing_digest(collector, seq, &entries);
        let collector_sig = collector_key.sign(&signing_digest);
        Self::seal(collector, seq, entries, collector_sig, signing_digest)
    }

    /// Assembles from parts without signing (forgery and tamper modeling).
    pub fn from_parts(
        collector: NodeId,
        seq: u64,
        entries: Vec<(SignedTx, Label)>,
        collector_sig: Sig,
    ) -> Self {
        let signing_digest = Self::signing_digest(collector, seq, &entries);
        Self::seal(collector, seq, entries, collector_sig, signing_digest)
    }

    fn seal(
        collector: NodeId,
        seq: u64,
        entries: Vec<(SignedTx, Label)>,
        collector_sig: Sig,
        signing_digest: [u8; 32],
    ) -> Self {
        UploadBatch(Arc::new(UploadBody {
            collector,
            seq,
            entries: entries.into_boxed_slice(),
            collector_sig,
            signing_digest,
        }))
    }

    /// The exact 32 bytes [`UploadBatch::verify`] checks the collector
    /// signature against.
    pub fn collector_signing_digest(&self) -> &[u8; 32] {
        &self.signing_digest
    }

    /// Verifies the collector signature over the whole batch (not the
    /// entries' provider signatures, which are the governor's to settle
    /// per entry).
    pub fn verify(&self, collector_pk: &PublicKey) -> bool {
        collector_pk.verify(&self.signing_digest, &self.collector_sig)
    }

    /// Approximate wire size in bytes: every entry and its label, plus
    /// the collector id, the sequence number and one signature.
    pub fn wire_size(&self) -> usize {
        let entries: usize = self.entries.iter().map(|(tx, _)| tx.wire_size() + 1).sum();
        entries + 5 + 8 + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keys() -> (KeyPair, KeyPair) {
        let scheme = CryptoScheme::sim();
        (
            scheme.keypair_from_seed(b"provider-0"),
            scheme.keypair_from_seed(b"collector-0"),
        )
    }

    fn sample_tx(pk: &KeyPair) -> SignedTx {
        SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce: 1,
                data: b"ride to airport".to_vec(),
            },
            100,
            pk,
        )
    }

    #[test]
    fn provider_signature_verifies() {
        let (pk, _) = keys();
        let tx = sample_tx(&pk);
        assert!(tx.verify(&pk.public_key()));
    }

    #[test]
    fn tampered_payload_rejected() {
        let (pk, _) = keys();
        let tx = sample_tx(&pk);
        let payload = TxPayload {
            data: b"ride to mars".to_vec(),
            ..tx.payload.clone()
        };
        let tampered = SignedTx::from_parts(payload, tx.timestamp, tx.provider_sig.clone());
        assert_ne!(tampered.id(), tx.id());
        assert!(!tampered.verify(&pk.public_key()));
    }

    #[test]
    fn tampered_timestamp_rejected() {
        let (pk, _) = keys();
        let tx = sample_tx(&pk);
        let tampered = SignedTx::from_parts(
            tx.payload.clone(),
            tx.timestamp + 1,
            tx.provider_sig.clone(),
        );
        assert_ne!(tampered.id(), tx.id());
        assert!(!tampered.verify(&pk.public_key()));
    }

    #[test]
    fn forged_signature_rejected() {
        let (pk, _) = keys();
        let mut rng = StdRng::seed_from_u64(1);
        let scheme = CryptoScheme::sim();
        let tx = SignedTx::from_parts(
            TxPayload {
                provider: NodeId::provider(0),
                nonce: 9,
                data: b"fabricated".to_vec(),
            },
            5,
            Sig::forged(&scheme, &mut rng),
        );
        assert!(!tx.verify(&pk.public_key()));
    }

    #[test]
    fn tx_ids_are_unique_per_content() {
        let (pk, _) = keys();
        let t1 = sample_tx(&pk);
        let mut p2 = t1.payload.clone();
        p2.nonce = 2;
        let t2 = SignedTx::create(p2, 100, &pk);
        assert_ne!(t1.id(), t2.id());
        assert_eq!(t1.id(), sample_tx(&pk).id());
    }

    /// Two provider transactions labeled by collector 0 as batch 3.
    fn sample_batch(pk: &KeyPair, ck: &KeyPair) -> UploadBatch {
        let tx = sample_tx(pk);
        let mut payload = tx.payload.clone();
        payload.nonce = 2;
        let other = SignedTx::create(payload, 100, pk);
        let entries = vec![(tx, Label::Valid), (other, Label::Invalid)];
        UploadBatch::create(NodeId::collector(0), 3, entries, ck)
    }

    /// `batch`'s signature over other content.
    fn restated(
        batch: &UploadBatch,
        collector: NodeId,
        seq: u64,
        entries: Vec<(SignedTx, Label)>,
    ) -> UploadBatch {
        UploadBatch::from_parts(collector, seq, entries, batch.collector_sig.clone())
    }

    #[test]
    fn upload_batch_roundtrip() {
        let (pk, ck) = keys();
        let batch = sample_batch(&pk, &ck);
        assert!(batch.verify(&ck.public_key()));
        assert!(batch
            .entries
            .iter()
            .all(|(tx, _)| tx.verify(&pk.public_key())));
        let same = restated(&batch, batch.collector, batch.seq, batch.entries.to_vec());
        assert_eq!(
            same.collector_signing_digest(),
            batch.collector_signing_digest()
        );
        assert!(same.verify(&ck.public_key()));
        assert_eq!(same, batch);
    }

    #[test]
    fn label_flip_is_detected() {
        let (pk, ck) = keys();
        let batch = sample_batch(&pk, &ck);
        let mut entries = batch.entries.to_vec();
        entries[1].1 = entries[1].1.flipped();
        let flipped = restated(&batch, batch.collector, batch.seq, entries);
        assert!(!flipped.verify(&ck.public_key()));
    }

    #[test]
    fn collector_identity_bound_into_signature() {
        let (pk, ck) = keys();
        let batch = sample_batch(&pk, &ck);
        let reattributed = restated(
            &batch,
            NodeId::collector(1),
            batch.seq,
            batch.entries.to_vec(),
        );
        assert!(!reattributed.verify(&ck.public_key()));
    }

    #[test]
    fn sequence_number_order_and_membership_are_bound_into_signature() {
        let (pk, ck) = keys();
        let batch = sample_batch(&pk, &ck);
        let mut reordered = batch.entries.to_vec();
        reordered.swap(0, 1);
        for tampered in [
            restated(
                &batch,
                batch.collector,
                batch.seq + 1,
                batch.entries.to_vec(),
            ),
            restated(&batch, batch.collector, batch.seq, reordered),
            restated(
                &batch,
                batch.collector,
                batch.seq,
                batch.entries[..1].to_vec(),
            ),
            restated(&batch, batch.collector, batch.seq, Vec::new()),
        ] {
            assert!(!tampered.verify(&ck.public_key()));
        }
    }

    #[test]
    fn forged_inner_tx_fails_full_verification() {
        let (pk, ck) = keys();
        let mut rng = StdRng::seed_from_u64(2);
        let scheme = CryptoScheme::sim();
        let forged_tx = SignedTx::from_parts(
            TxPayload {
                provider: NodeId::provider(0),
                nonce: 3,
                data: b"never sent".to_vec(),
            },
            7,
            Sig::forged(&scheme, &mut rng),
        );
        let entries = vec![(sample_tx(&pk), Label::Valid), (forged_tx, Label::Valid)];
        let batch = UploadBatch::create(NodeId::collector(0), 0, entries, &ck);
        // The collector signature is fine, one provider signature is
        // garbage: the batch is the collector's word, each entry's
        // provenance is checked on its own.
        assert!(batch.verify(&ck.public_key()));
        assert!(batch.entries[0].0.verify(&pk.public_key()));
        assert!(!batch.entries[1].0.verify(&pk.public_key()));
    }

    #[test]
    fn label_helpers() {
        assert_eq!(Label::Valid.to_i8(), 1);
        assert_eq!(Label::Invalid.to_i8(), -1);
        assert_eq!(Label::Valid.flipped(), Label::Invalid);
        assert_eq!(Label::from_validity(true), Label::Valid);
        assert_eq!(Label::from_validity(false), Label::Invalid);
        assert!(Label::Valid.is_valid());
        assert_eq!(Label::Valid.to_string(), "+1");
        assert_eq!(Label::Invalid.to_string(), "-1");
    }

    #[test]
    fn wire_sizes_are_positive_and_monotone() {
        let (pk, ck) = keys();
        let batch = sample_batch(&pk, &ck);
        let txs: usize = batch.entries.iter().map(|(tx, _)| tx.wire_size()).sum();
        assert!(batch.wire_size() > txs);
        let one = UploadBatch::create(NodeId::collector(0), 0, batch.entries[..1].to_vec(), &ck);
        assert!(one.wire_size() < batch.wire_size());
    }
}
