//! SHA-256 calls per committed transaction, pinned without a wall clock.
//!
//! Its own file, so its own process, and one `#[test]`, so one thread:
//! `prb_crypto::stats` keeps counts per thread and folds them into
//! process-wide totals, so a snapshot sees this thread's counts and those
//! of every thread folded before it (a `par` worker folds itself as it
//! finishes), and here nothing else adds to them.

use prb::core::config::{ProtocolConfig, RevealPolicy};
use prb::core::scale::ScaleSim;
use prb::crypto::identity::NodeId;
use prb::crypto::signer::CryptoScheme;
use prb::crypto::stats;
use prb::ledger::block::{Block, BlockEntry, Verdict};
use prb::ledger::chain::Chain;
use prb::ledger::codec;
use prb::ledger::transaction::{Label, SignedTx, TxPayload, UploadBatch};
use prb::store::{BlockStore, StoreOptions};
use prb::workload::ScaleWorkload;

/// Runs `f`, returning its value and the SHA-256 calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = stats::snapshot();
    let out = f();
    (out, stats::snapshot().delta_since(&before).sha256_calls)
}

/// A body hashes its id once where it is built and its signing digest at
/// most once; asking again, cloning, and re-homing a signature are free.
fn bodies_hash_once() {
    let scheme = CryptoScheme::sim();
    let (pk, ck) = (
        scheme.keypair_from_seed(b"p"),
        scheme.keypair_from_seed(b"c"),
    );
    let payload = TxPayload {
        provider: NodeId::provider(0),
        nonce: 1,
        data: vec![0xa5; 32],
    };
    // id + signing digest + the sim signer's tag.
    let (tx, calls) = counted(|| SignedTx::create(payload.clone(), 7, &pk));
    assert_eq!(calls, 3);
    let ((), calls) = counted(|| {
        for _ in 0..10 {
            let copy = tx.clone();
            assert_eq!(copy.id(), tx.id());
            assert_eq!(copy.signing_bytes().len(), 32);
        }
        let rehomed = tx.clone().with_provider_sig(ck.sign(b""));
        assert_eq!(rehomed.id(), tx.id());
        assert_eq!(rehomed.signing_digest(), tx.signing_digest());
    });
    assert_eq!(calls, 1, "only the stand-in signature's tag hashes");
    // from_parts: the id now, the signing digest on first use only.
    let (parts, calls) = counted(|| SignedTx::from_parts(payload, 7, tx.provider_sig.clone()));
    assert_eq!(calls, 1);
    let entry = BlockEntry {
        tx: parts.clone(),
        verdict: Verdict::CheckedValid,
        reported_labels: Vec::new(),
    };
    assert_eq!(counted(|| entry.leaf_bytes()).1, 1);
    // First verify: the digest and the signer's tag; second: the tag.
    assert_eq!(counted(|| assert!(parts.verify(&pk.public_key()))).1, 2);
    assert_eq!(counted(|| assert!(parts.verify(&pk.public_key()))).1, 1);
    // An upload batch, however many entries: one digest + one tag to
    // sign, one tag per verify.
    let entries = vec![(tx.clone(), Label::Valid), (parts, Label::Invalid)];
    let (batch, calls) = counted(|| UploadBatch::create(NodeId::collector(0), 0, entries, &ck));
    assert_eq!(calls, 2);
    let copy = batch.clone();
    assert_eq!(counted(|| assert!(copy.verify(&ck.public_key()))).1, 1);
}

/// A block hashes its entries into a Merkle root once where its body is
/// built, and its header once; cloning, asking again, appending it to a
/// chain and reading the chain's head are free.
fn blocks_hash_once() {
    const N: u64 = 5;
    let key = CryptoScheme::sim().keypair_from_seed(b"p");
    let entries: Vec<BlockEntry> = (0..N)
        .map(|nonce| BlockEntry {
            tx: SignedTx::create(
                TxPayload {
                    provider: NodeId::provider(0),
                    nonce,
                    data: vec![0xa5; 32],
                },
                7,
                &key,
            ),
            verdict: Verdict::CheckedValid,
            reported_labels: vec![(NodeId::collector(0), Label::Valid)],
        })
        .collect();
    let mut chain = Chain::new(b"budget", 64);
    let prev = chain.head_hash();
    // N leaf-bytes hashes, N leaf hashes, N - 1 nodes, one header.
    let sealed = 3 * N;
    let (block, calls) = counted(|| Block::build(1, entries.clone(), prev, NodeId::governor(0), 9));
    assert_eq!(calls, sealed);
    let ((), calls) = counted(|| {
        let copy = block.clone();
        assert!(copy.merkle_consistent());
        assert_eq!(copy.hash(), block.hash());
        chain.append(copy).unwrap();
        assert_eq!(chain.head_hash(), block.hash());
        assert_eq!(chain.pop().as_ref(), Some(&block));
    });
    assert_eq!(calls, 0);
    // Restating the parts, and decoding, cost what building did (plus one
    // id per decoded transaction); a wrong root costs the same to refute.
    let parts = |root| Block::from_parts(1, entries.clone(), prev, root, block.leader, 9);
    assert_eq!(counted(|| parts(block.merkle_root)).1, sealed);
    let (stale, calls) = counted(|| parts(prev));
    assert_eq!(calls, sealed);
    assert_eq!(counted(|| chain.append(stale.clone()).unwrap_err()).1, 0);
    let mut bytes = Vec::new();
    codec::encode_block(&mut bytes, &block);
    let (decoded, calls) =
        counted(|| codec::decode_block(&mut codec::Reader::new(&bytes)).unwrap());
    assert_eq!(calls, sealed + N);
    assert_eq!(counted(|| chain.append(decoded).unwrap()).1, 0);
    // The audit is the from-scratch reference: it consults no memo.
    assert_eq!(counted(|| assert_eq!(chain.audit(), None)).1, sealed);

    // The same per block where import, audit and store replay take the
    // parallel path (several chunks of 8 blocks): each worker folds its
    // per-thread counts into the totals before the caller joins it, so
    // worker threads are counted.
    const BLOCKS: u64 = 40;
    let dir = std::env::temp_dir().join(format!("prb-hash-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || StoreOptions {
        chain_tag: b"budget".to_vec(),
        b_limit: 64,
        ..StoreOptions::default()
    };
    let (mut store, _) = BlockStore::open(&dir, opts()).unwrap();
    store.append(chain.latest()).unwrap();
    while chain.height() < BLOCKS {
        let block = Block::build(
            chain.next_serial(),
            entries.clone(),
            chain.head_hash(),
            NodeId::governor(0),
            9,
        );
        store.append(&block).unwrap();
        chain.append(block).unwrap();
    }
    drop(store);
    let bytes = chain.export();
    let genesis = counted(|| codec::decode_block(&mut codec::Reader::new(&bytes[24..])).unwrap()).1;
    // Every block decoded, then the export's trailer.
    let (imported, calls) = counted(|| Chain::import(&bytes).unwrap());
    assert_eq!(calls, genesis + BLOCKS * (sealed + N) + 1);
    assert_eq!(
        counted(|| assert_eq!(imported.audit(), None)).1,
        BLOCKS * sealed
    );
    // Every record checksummed and decoded, over what opening an empty
    // store costs (the genesis block).
    let empty = std::env::temp_dir().join(format!("prb-hash-budget-empty-{}", std::process::id()));
    let (_, empty_calls) = counted(|| BlockStore::open(&empty, opts()).unwrap());
    let ((_, recovered), calls) = counted(|| BlockStore::open(&dir, opts()).unwrap());
    assert_eq!(calls, empty_calls + BLOCKS * (1 + sealed + N));
    assert_eq!(recovered.chain.export(), bytes);
    for d in [dir, empty] {
        std::fs::remove_dir_all(d).unwrap();
    }
}

/// A scaled-down `open-steady` (BENCHMARK.json): open loop, sim signer,
/// r = 2, 4 governors, all arrivals valid.
fn sha256_calls_per_committed_tx() -> f64 {
    let cfg = ProtocolConfig {
        providers: 2_000,
        collectors: 10,
        governors: 4,
        replication: 2,
        tx_per_provider: 0,
        open_loop: true,
        reveal: RevealPolicy::ArgueOnly,
        seed: 11,
        ..Default::default()
    };
    let mut sim = ScaleSim::new(cfg, 16).unwrap();
    let mut wl = ScaleWorkload::for_sim(&sim, 0.0);
    let ticks = sim.round_ticks();
    // Key generation and enrollment hash too; count the rounds only.
    let ((), calls) = counted(|| {
        for _ in 0..6 {
            let arrivals = wl.window(sim.next_round_start(), ticks, 2.0);
            sim.run_round(arrivals);
        }
        sim.drain(4);
    });
    assert!(sim.chains_agree());
    assert_eq!(sim.committed(), wl.generated(), "every arrival commits");
    assert!(sim.committed() > 1_000);
    calls as f64 / sim.committed() as f64
}

#[test]
fn sha256_calls_stay_in_budget() {
    bodies_hash_once();
    blocks_hash_once();
    // 107.34 per tx before `SignedTx` carried its own id and signing
    // digest (PR 15: 58 of them `SignedTx::id()` over the same bytes),
    // 36.46 after; 24.44 once a `Block` carried its Merkle verdict and
    // header hash (PR 16: each of four governors' `append` used to rehash
    // every entry, ~3 calls per tx per ledger); 12.66 now that a collector
    // uploads one batch per dispatch under one signature (PR 26: the 12
    // calls per tx that went were one label digest and one signing tag per
    // copy, r = 2, and one verifying tag per copy at each of 4 governors).
    // The count repeats exactly per seed. What is left per tx is 7
    // sim-signature tags (the provider's sign, 2 collectors' verify, 4
    // governors' batched verify), one id, one provider signing digest, one
    // leaf-bytes hash, one leaf hash and one tree node where the leader
    // builds the block, and ~0.26 for the batches themselves: one digest
    // and one signing tag per batch, one verifying tag per batch at each
    // governor.
    const AFTER: f64 = 12.66;
    let per_tx = sha256_calls_per_committed_tx();
    assert!(
        per_tx <= AFTER * 1.10,
        "{per_tx:.2} SHA-256 calls per committed tx, budget {AFTER} + 10 %"
    );
}
