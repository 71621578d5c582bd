//! Property-based tests of the ledger: whatever sequence of valid blocks
//! is appended, the chain invariants hold; whatever tampering is applied,
//! the audit catches it.

use proptest::prelude::*;

use prb_crypto::identity::NodeId;
use prb_crypto::sha256::{hash_fields, Digest, Sha256};
use prb_crypto::signer::CryptoScheme;
use prb_crypto::signer::KeyPair;
use prb_ledger::block::{Block, BlockEntry, Verdict};
use prb_ledger::chain::Chain;
use prb_ledger::header::BlockHeader;
use prb_ledger::transaction::{Label, SignedTx, TxId, TxPayload, UploadBatch};

fn verdict_strategy() -> impl Strategy<Value = Verdict> {
    prop_oneof![
        Just(Verdict::CheckedValid),
        Just(Verdict::UncheckedInvalid),
        Just(Verdict::UncheckedValid),
        Just(Verdict::ArguedValid),
    ]
}

fn entry(provider: u32, nonce: u64, verdict: Verdict) -> BlockEntry {
    let key = CryptoScheme::sim().keypair_from_seed(format!("prop-{provider}").as_bytes());
    let tx = SignedTx::create(
        TxPayload {
            provider: NodeId::provider(provider),
            nonce,
            data: vec![provider as u8],
        },
        7,
        &key,
    );
    BlockEntry {
        tx,
        verdict,
        reported_labels: vec![(NodeId::collector(provider % 3), Label::Valid)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Appending any sequence of well-formed blocks keeps the chain
    /// auditable, retrievable, and gap-free.
    #[test]
    fn chain_invariants_hold_for_any_block_sequence(
        blocks in proptest::collection::vec(
            proptest::collection::vec((0u32..4, verdict_strategy()), 0..6),
            1..8,
        )
    ) {
        let mut chain = Chain::new(b"prop", 64);
        let mut nonce = 0u64;
        for spec in &blocks {
            let entries: Vec<BlockEntry> = spec
                .iter()
                .map(|&(p, v)| {
                    nonce += 1;
                    entry(p, nonce, v)
                })
                .collect();
            let block = Block::build(
                chain.height() + 1,
                entries,
                chain.latest().hash(),
                NodeId::governor(0),
                nonce,
            );
            chain.append(block).expect("well-formed block appends");
        }
        prop_assert_eq!(chain.height(), blocks.len() as u64);
        prop_assert_eq!(chain.audit(), None);
        // No Skipping: every serial up to the height retrieves.
        for s in 0..=chain.height() {
            prop_assert!(chain.retrieve(s).is_some());
        }
        // Every recorded transaction is findable at its first location.
        for block in chain.iter() {
            for e in &block.entries {
                let (loc, found) = chain.find_tx(e.tx.id()).expect("indexed");
                let stored = &chain.retrieve(loc.serial).expect("exists").entries[loc.index];
                prop_assert_eq!(stored.tx.id(), found.tx.id());
            }
        }
    }

    /// Any bit of tampering with a committed block is caught by audit.
    #[test]
    fn audit_catches_any_tamper(
        n_blocks in 2u64..6,
        target in 0usize..4,
        kind in 0u8..3,
    ) {
        let mut chain = Chain::new(b"prop2", 64);
        for i in 0..n_blocks {
            let block = Block::build(
                chain.height() + 1,
                vec![entry(0, i + 1, Verdict::CheckedValid)],
                chain.latest().hash(),
                NodeId::governor(0),
                i,
            );
            chain.append(block).expect("appends");
        }
        prop_assert_eq!(chain.audit(), None);
        // Tamper via a cloned chain's internals: rebuild one block. A
        // header-only tamper (kind 1) of the *last* block produces a
        // different-but-self-consistent chain that replay alone cannot
        // distinguish (agreement across replicas catches that case), so
        // the victim is never the final block.
        let victim = (target as u64 % (n_blocks - 1)) + 1;
        let mut blocks: Vec<Block> = chain.iter().cloned().collect();
        let b = &blocks[victim as usize];
        let (mut serial, mut entries, mut timestamp) = (b.serial, b.entries.clone(), b.timestamp);
        match kind {
            0 => entries[0].verdict = Verdict::ArguedValid, // merkle break
            1 => timestamp += 1,                            // hash-chain break
            _ => serial += 1,                               // serial break
        }
        blocks[victim as usize] =
            Block::from_parts(serial, entries, b.prev_hash, b.merkle_root, b.leader, timestamp);
        // Re-assemble a chain-like structure and audit it by replaying.
        let mut replay = Chain::new(b"prop2", 64);
        let mut broken = false;
        for block in blocks.into_iter().skip(1) {
            if replay.append(block).is_err() {
                broken = true;
                break;
            }
        }
        prop_assert!(broken, "tampering of kind {kind} went unnoticed");
    }

    /// Merkle commitments make block hashes injective in the entry list.
    #[test]
    fn block_hash_injective_in_entries(
        a in proptest::collection::vec((0u32..3, verdict_strategy()), 0..5),
        b in proptest::collection::vec((0u32..3, verdict_strategy()), 0..5),
    ) {
        let prev = Block::genesis(b"x").hash();
        let build = |spec: &[(u32, Verdict)]| {
            let entries = spec
                .iter()
                .enumerate()
                .map(|(i, &(p, v))| entry(p, i as u64, v))
                .collect();
            Block::build(1, entries, prev, NodeId::governor(0), 0)
        };
        let ba = build(&a);
        let bb = build(&b);
        if a == b {
            prop_assert_eq!(ba.hash(), bb.hash());
        } else {
            prop_assert_ne!(ba.hash(), bb.hash());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Export/import round-trips exactly, and flipping any byte of the
    /// file — including the 24-byte header (b_limit + base + block count)
    /// — is rejected on import: every content byte is either
    /// hash-committed or structural.
    #[test]
    fn export_is_tamper_evident(
        n_blocks in 1u64..5,
        per_block in 1usize..4,
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let mut chain = Chain::new(b"export-prop", 64);
        let mut nonce = 0;
        for _ in 0..n_blocks {
            let entries = (0..per_block)
                .map(|p| {
                    nonce += 1;
                    entry(p as u32 % 4, nonce, Verdict::CheckedValid)
                })
                .collect();
            let block = Block::build(
                chain.height() + 1,
                entries,
                chain.latest().hash(),
                NodeId::governor(0),
                nonce,
            );
            chain.append(block).expect("appends");
        }
        let bytes = chain.export();
        // Clean import round-trips.
        let imported = Chain::import(&bytes).expect("clean import");
        prop_assert_eq!(imported.latest().hash(), chain.latest().hash());
        prop_assert_eq!(imported.height(), chain.height());
        // Any single-bit flip anywhere in the file fails to import
        // (lengths are structural, content is hash-committed, and the
        // trailer pins b_limit and the chain head).
        let idx = flip.index(bytes.len());
        let mut tampered = bytes.clone();
        tampered[idx] ^= 1 << bit;
        prop_assert!(
            Chain::import(&tampered).is_err(),
            "flip of bit {bit} at byte {idx} (of {}) imported cleanly",
            bytes.len()
        );
    }
}

// ---------------------------------------------------------------------
// Codec hardening: the canonical encoders round-trip exactly, and no
// corruption of the byte stream — truncation at any boundary or a flip of
// any single byte — can make a decoder panic. A corrupted stream either
// errors or decodes to a value whose canonical re-encoding reproduces the
// corrupted bytes exactly (the codec is injective, so nothing is silently
// reinterpreted).
// ---------------------------------------------------------------------

fn label_strategy() -> impl Strategy<Value = Label> {
    prop_oneof![Just(Label::Valid), Just(Label::Invalid)]
}

fn entry_strategy() -> impl Strategy<Value = BlockEntry> {
    (
        0u32..8,
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..24),
        any::<u64>(),
        verdict_strategy(),
        proptest::collection::vec((0u32..8, label_strategy()), 0..4),
    )
        .prop_map(|(provider, nonce, data, ts, verdict, labels)| {
            let key = CryptoScheme::sim().keypair_from_seed(format!("codec-{provider}").as_bytes());
            BlockEntry {
                tx: SignedTx::create(
                    TxPayload {
                        provider: NodeId::provider(provider),
                        nonce,
                        data,
                    },
                    ts,
                    &key,
                ),
                verdict,
                reported_labels: labels
                    .into_iter()
                    .map(|(c, l)| (NodeId::collector(c), l))
                    .collect(),
            }
        })
}

fn block_strategy() -> impl Strategy<Value = Block> {
    (
        1u64..1000,
        proptest::collection::vec(entry_strategy(), 0..5),
        any::<u64>(),
    )
        .prop_map(|(serial, entries, ts)| {
            Block::build(
                serial,
                entries,
                prb_crypto::sha256::sha256(&serial.to_be_bytes()),
                NodeId::governor((serial % 4) as u32),
                ts,
            )
        })
}

/// Shared corruption sweep: decoding any strict prefix must not panic, and
/// decoding any one-byte corruption must not panic; when a corrupted input
/// decodes cleanly and is fully consumed, its canonical re-encoding must
/// equal the corrupted input byte for byte.
fn assert_corruption_immune<T>(
    bytes: &[u8],
    decode: impl Fn(&mut prb_ledger::codec::Reader<'_>) -> Result<T, prb_ledger::codec::DecodeError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    for cut in 0..bytes.len() {
        let mut r = prb_ledger::codec::Reader::new(&bytes[..cut]);
        match decode(&mut r) {
            // A strict prefix can only decode cleanly if a trailing field
            // shrank; full consumption plus canonical re-encode rules out
            // silent reinterpretation.
            Ok(v) if r.remaining() == 0 => assert_eq!(encode(&v), &bytes[..cut]),
            Ok(_) | Err(_) => {}
        }
    }
    for i in 0..bytes.len() {
        let mut bad = bytes.to_vec();
        bad[i] ^= 0x80;
        let mut r = prb_ledger::codec::Reader::new(&bad);
        match decode(&mut r) {
            Ok(v) if r.remaining() == 0 => {
                assert_eq!(encode(&v), bad, "byte {i} silently reinterpreted")
            }
            Ok(_) | Err(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `encode_signed_tx`/`decode_signed_tx` round-trip exactly and are
    /// immune to truncation and single-byte corruption.
    #[test]
    fn signed_tx_codec_roundtrips_and_survives_corruption(e in entry_strategy()) {
        let tx = e.tx;
        let mut bytes = Vec::new();
        prb_ledger::codec::encode_signed_tx(&mut bytes, &tx);
        let mut r = prb_ledger::codec::Reader::new(&bytes);
        let back = prb_ledger::codec::decode_signed_tx(&mut r).expect("clean decode");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(&back, &tx);
        prop_assert_eq!(back.id(), tx.id(), "tx id re-derived identically");
        assert_corruption_immune(
            &bytes,
            prb_ledger::codec::decode_signed_tx,
            |t| { let mut o = Vec::new(); prb_ledger::codec::encode_signed_tx(&mut o, t); o },
        );
    }

    /// `encode_entry`/`decode_entry` round-trip exactly and are immune to
    /// truncation and single-byte corruption.
    #[test]
    fn entry_codec_roundtrips_and_survives_corruption(e in entry_strategy()) {
        let mut bytes = Vec::new();
        prb_ledger::codec::encode_entry(&mut bytes, &e);
        let mut r = prb_ledger::codec::Reader::new(&bytes);
        let back = prb_ledger::codec::decode_entry(&mut r).expect("clean decode");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(&back, &e);
        assert_corruption_immune(
            &bytes,
            prb_ledger::codec::decode_entry,
            |t| { let mut o = Vec::new(); prb_ledger::codec::encode_entry(&mut o, t); o },
        );
    }

    /// `encode_block`/`decode_block` round-trip exactly and are immune to
    /// truncation and single-byte corruption.
    #[test]
    fn block_codec_roundtrips_and_survives_corruption(b in block_strategy()) {
        let mut bytes = Vec::new();
        prb_ledger::codec::encode_block(&mut bytes, &b);
        let mut r = prb_ledger::codec::Reader::new(&bytes);
        let back = prb_ledger::codec::decode_block(&mut r).expect("clean decode");
        prop_assert_eq!(r.remaining(), 0);
        prop_assert_eq!(&back, &b);
        prop_assert_eq!(back.hash(), b.hash());
        assert_corruption_immune(
            &bytes,
            prb_ledger::codec::decode_block,
            |t| { let mut o = Vec::new(); prb_ledger::codec::encode_block(&mut o, t); o },
        );
    }
}

// ---------------------------------------------------------------------
// "The memo never lies": a sealed body's id and signing digests always
// equal a from-scratch hash of its content, however the body was built.
// ---------------------------------------------------------------------

/// The transaction id, hashed from scratch.
fn reference_id(p: &TxPayload, timestamp: u64) -> TxId {
    TxId(hash_fields(
        "tx-id",
        &[
            &p.provider.to_bytes(),
            &p.nonce.to_be_bytes(),
            &timestamp.to_be_bytes(),
            &p.data,
        ],
    ))
}

/// What the provider signs, hashed from scratch.
fn reference_signing_digest(p: &TxPayload, timestamp: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update_field(b"prb-tx");
    h.update_field(&p.provider.to_bytes());
    h.update(&p.nonce.to_be_bytes());
    h.update(&timestamp.to_be_bytes());
    h.update_field(&p.data);
    h.finalize().to_bytes()
}

/// What the collector signs, hashed from scratch.
fn reference_batch_digest(collector: NodeId, seq: u64, entries: &[(TxId, Label)]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update_field(b"prb-upload-batch");
    h.update_field(&collector.to_bytes());
    h.update(&seq.to_be_bytes());
    h.update(&(entries.len() as u64).to_be_bytes());
    for (id, label) in entries {
        h.update(id.0.as_bytes());
        h.update(&[label.to_i8() as u8]);
    }
    h.finalize().to_bytes()
}

fn sim_key(seed: &str) -> KeyPair {
    CryptoScheme::sim().keypair_from_seed(seed.as_bytes())
}

fn payload_strategy() -> impl Strategy<Value = TxPayload> {
    (
        0u32..1000,
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..80),
    )
        .prop_map(|(provider, nonce, data)| TxPayload {
            provider: NodeId::provider(provider),
            nonce,
            data,
        })
}

/// `tx` reports exactly what hashing its content from scratch gives.
fn assert_memo_honest(tx: &SignedTx) {
    assert_eq!(tx.id(), reference_id(&tx.payload, tx.timestamp));
    let digest = reference_signing_digest(&tx.payload, tx.timestamp);
    assert_eq!(tx.signing_digest(), &digest);
    assert_eq!(tx.signing_bytes(), digest.to_vec());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every way of obtaining a `SignedTx` — `create`, `from_parts`,
    /// decode, `with_provider_sig` (on a shared and on a sole handle),
    /// `clone` — reports the id and signing digest of its own content.
    #[test]
    fn signed_tx_memo_matches_a_from_scratch_hash(
        payload in payload_strategy(),
        timestamp in any::<u64>(),
        garbage in any::<[u8; 32]>(),
    ) {
        let key = sim_key("memo-provider");
        let other_sig = sim_key("memo-stranger").sign(&garbage);
        let created = SignedTx::create(payload.clone(), timestamp, &key);
        assert_memo_honest(&created);
        prop_assert!(created.verify(&key.public_key()));
        assert_memo_honest(&created.clone());

        let parts = SignedTx::from_parts(payload.clone(), timestamp, other_sig.clone());
        assert_memo_honest(&parts);
        prop_assert!(!parts.verify(&key.public_key()));

        let mut bytes = Vec::new();
        prb_ledger::codec::encode_signed_tx(&mut bytes, &created);
        let decoded = prb_ledger::codec::decode_signed_tx(
            &mut prb_ledger::codec::Reader::new(&bytes),
        ).expect("clean decode");
        assert_memo_honest(&decoded);
        prop_assert!(decoded.verify(&key.public_key()));

        // Re-homing a signature: shared body (copied), then sole handle
        // (rewritten in place). Content, id and digest carry over; only
        // the signature — and with it `verify` — changes.
        let shared = created.clone().with_provider_sig(other_sig.clone());
        assert_memo_honest(&shared);
        prop_assert_eq!(&shared.provider_sig, &other_sig);
        prop_assert!(!shared.verify(&key.public_key()));
        prop_assert!(created.verify(&key.public_key()), "the shared original is untouched");
        let sole = parts.with_provider_sig(created.provider_sig.clone());
        assert_memo_honest(&sole);
        prop_assert!(sole.verify(&key.public_key()));
        prop_assert_eq!(&sole, &created);
    }

    /// Changing any one signed field (a rebuild under the old signature —
    /// the only way to "tamper" with a sealed body) changes the id and
    /// fails verification.
    #[test]
    fn any_field_flip_changes_the_id_and_fails_verify(
        payload in payload_strategy(),
        timestamp in any::<u64>(),
        field in 0usize..4,
        at in any::<proptest::sample::Index>(),
    ) {
        let key = sim_key("memo-provider");
        let tx = SignedTx::create(payload.clone(), timestamp, &key);
        let mut p = payload;
        let mut ts = timestamp;
        match field {
            0 => p.provider = NodeId::provider(p.provider.index + 1),
            1 => p.nonce ^= 1,
            2 => ts ^= 1,
            _ if p.data.is_empty() => p.data.push(0),
            _ => {
                let i = at.index(p.data.len());
                p.data[i] ^= 0x01;
            }
        }
        let tampered = SignedTx::from_parts(p, ts, tx.provider_sig.clone());
        assert_memo_honest(&tampered);
        prop_assert_ne!(tampered.id(), tx.id());
        prop_assert_ne!(tampered.signing_digest(), tx.signing_digest());
        prop_assert!(!tampered.verify(&key.public_key()));
        prop_assert!(tampered != tx);
    }

    /// An `UploadBatch` keeps the collector-signing digest of its own
    /// content, however it was built; any one change to what it binds —
    /// a label flipped, two entries swapped, an entry dropped, the
    /// sequence number or the collector swapped — rebuilt under the old
    /// signature changes the digest and fails `verify`.
    #[test]
    fn upload_batch_memo_matches_and_tampering_is_caught(
        payloads in proptest::collection::vec(payload_strategy(), 1..6),
        timestamp in any::<u64>(),
        labels in proptest::collection::vec(label_strategy(), 6),
        collector in 0u32..64,
        seq in 0u64..1_000,
        tamper in 0usize..5,
        at in any::<proptest::sample::Index>(),
    ) {
        let (pk, ck) = (sim_key("memo-provider"), sim_key("memo-collector"));
        let collector = NodeId::collector(collector);
        let entries: Vec<(SignedTx, Label)> = payloads
            .into_iter()
            .zip(&labels)
            .enumerate()
            .map(|(i, (mut p, label))| {
                p.nonce = i as u64; // distinct ids
                (SignedTx::create(p, timestamp, &pk), *label)
            })
            .collect();
        let ids = |entries: &[(SignedTx, Label)]| -> Vec<(TxId, Label)> {
            entries.iter().map(|(tx, l)| (reference_id(&tx.payload, tx.timestamp), *l)).collect()
        };
        let batch = UploadBatch::create(collector, seq, entries.clone(), &ck);
        let digest = reference_batch_digest(collector, seq, &ids(&entries));
        prop_assert_eq!(batch.collector_signing_digest(), &digest);
        let copy = batch.clone();
        prop_assert_eq!(copy.collector_signing_digest(), &digest);
        prop_assert!(batch.verify(&ck.public_key()));

        let sig = batch.collector_sig.clone();
        let same = UploadBatch::from_parts(collector, seq, entries.clone(), sig.clone());
        prop_assert_eq!(same.collector_signing_digest(), &digest);
        prop_assert!(same.verify(&ck.public_key()));
        prop_assert_eq!(&same, &batch);

        let (mut c, mut s, mut e) = (collector, seq, entries.clone());
        let (n, i) = (e.len(), at.index(e.len()));
        match tamper {
            0 => e[i].1 = e[i].1.flipped(),
            1 if n > 1 => e.swap(i, (i + 1) % n),
            1 | 2 => { e.remove(i); }
            3 => s += 1,
            _ => c = NodeId::collector(c.index + 1),
        }
        let tampered = UploadBatch::from_parts(c, s, e.clone(), sig);
        prop_assert_eq!(
            tampered.collector_signing_digest(),
            &reference_batch_digest(c, s, &ids(&e))
        );
        prop_assert_ne!(tampered.collector_signing_digest(), &digest);
        prop_assert!(!tampered.verify(&ck.public_key()));
    }
}

// ---------------------------------------------------------------------
// The same for blocks: however a body was built, `merkle_consistent()`
// and `hash()` report what recomputing from its content gives.
// ---------------------------------------------------------------------

/// The header hash, hashed from scratch.
fn reference_block_hash(b: &Block) -> Digest {
    let mut h = Sha256::new();
    h.update_field(b"prb-block");
    h.update(&b.serial.to_be_bytes());
    h.update_field(b.prev_hash.as_bytes());
    h.update_field(b.merkle_root.as_bytes());
    h.update_field(&b.leader.to_bytes());
    h.update(&b.timestamp.to_be_bytes());
    h.update(&(b.entries.len() as u64).to_be_bytes());
    h.finalize()
}

/// `b` reports exactly what recomputing from its content gives.
fn assert_block_memo_honest(b: &Block) {
    assert_eq!(
        b.merkle_consistent(),
        Block::compute_merkle_root(&b.entries) == b.merkle_root
    );
    assert_eq!(b.hash(), reference_block_hash(b));
    assert_eq!(b.header().hash(), b.hash());
}

/// Values computed at the commit before the SHA-NI kernel existed: ids and
/// block hashes are ledger bytes, whatever computes them.
#[test]
fn tx_id_and_header_hash_are_pinned() {
    let payload = TxPayload {
        provider: NodeId::provider(3),
        nonce: 9,
        data: b"pinned".to_vec(),
    };
    let tx = SignedTx::create(payload, 42, &sim_key("pin"));
    assert_eq!(
        tx.id().0.to_hex(),
        "573d58546d9e07b7c4bd6e3d3c8982b597a5ef271674b8cb6b53fed54df43428"
    );
    let header = BlockHeader {
        serial: 5,
        prev_hash: Digest([1; 32]),
        merkle_root: Digest([2; 32]),
        leader: NodeId::governor(1),
        timestamp: 77,
        entry_count: 3,
    };
    assert_eq!(
        header.hash().to_hex(),
        "f355062039ff2a413f0496b64fa6807a6f474abf2b0063d8581708051b02198b"
    );
}

#[test]
fn genesis_memo_matches_a_from_scratch_hash() {
    let g = Block::genesis(b"memo");
    assert_block_memo_honest(&g);
    assert!(g.merkle_consistent());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every way of obtaining a `Block` — `build`, `from_parts` under the
    /// right and under a wrong root, decode, `clone`, `Chain::pop` —
    /// reports the consistency and header hash of its own content.
    #[test]
    fn block_memo_matches_a_from_scratch_hash(
        b in block_strategy(),
        extra in entry_strategy(),
        garbage in any::<[u8; 32]>(),
    ) {
        assert_block_memo_honest(&b);
        prop_assert!(b.merkle_consistent());
        assert_block_memo_honest(&b.clone());

        let parts = |entries: Vec<BlockEntry>, root| {
            Block::from_parts(b.serial, entries, b.prev_hash, root, b.leader, b.timestamp)
        };
        let same = parts(b.entries.clone(), b.merkle_root);
        assert_block_memo_honest(&same);
        prop_assert!(same.merkle_consistent());
        prop_assert_eq!(&same, &b);
        prop_assert_eq!(same.hash(), b.hash());

        // A wrong stated root, and the right root stated over other entries.
        let wrong_root = parts(b.entries.clone(), Digest(garbage));
        assert_block_memo_honest(&wrong_root);
        prop_assert!(!wrong_root.merkle_consistent());
        prop_assert!(wrong_root != b);
        let mut more = b.entries.clone();
        more.push(extra);
        let stale = parts(more, b.merkle_root);
        assert_block_memo_honest(&stale);
        prop_assert!(!stale.merkle_consistent());

        for block in [&b, &wrong_root, &stale] {
            let mut bytes = Vec::new();
            prb_ledger::codec::encode_block(&mut bytes, block);
            let decoded = prb_ledger::codec::decode_block(
                &mut prb_ledger::codec::Reader::new(&bytes),
            ).expect("clean decode");
            assert_block_memo_honest(&decoded);
            prop_assert_eq!(decoded.merkle_consistent(), block.merkle_consistent());
            prop_assert_eq!(&decoded, block);
        }

        // Through a chain and back out: append takes the consistent
        // block, refuses the other two, and pop returns the same body.
        let mut chain = Chain::from_checkpoint(b.serial - 1, b.prev_hash, 64);
        prop_assert!(chain.append(wrong_root).is_err());
        prop_assert!(chain.append(stale).is_err());
        chain.append(b.clone()).expect("consistent block appends");
        prop_assert_eq!(chain.head_hash(), reference_block_hash(&b));
        prop_assert_eq!(chain.audit(), None);
        let popped = chain.pop().expect("anchored chains pop to the anchor");
        assert_block_memo_honest(&popped);
        prop_assert_eq!(&popped, &b);
    }
}
