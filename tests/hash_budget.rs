//! SHA-256 calls per committed transaction, pinned without a wall clock.
//!
//! Its own file, so its own process, and one `#[test]`, so one thread:
//! `prb_crypto::stats` counters are process-wide, and here nothing else
//! bumps them.

use prb::core::config::{ProtocolConfig, RevealPolicy};
use prb::core::scale::ScaleSim;
use prb::crypto::identity::NodeId;
use prb::crypto::signer::CryptoScheme;
use prb::crypto::stats;
use prb::ledger::block::{BlockEntry, Verdict};
use prb::ledger::transaction::{Label, LabeledTx, SignedTx, TxPayload};
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
    // An upload: one label digest + one tag to sign, one tag per verify.
    let (ltx, calls) = counted(|| LabeledTx::create(tx, Label::Valid, NodeId::collector(0), &ck));
    assert_eq!(calls, 2);
    let copy = ltx.clone();
    assert_eq!(
        counted(|| assert!(copy.verify_collector(&ck.public_key()))).1,
        1
    );
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
    // 107.34 per tx before `SignedTx` carried its own id and signing
    // digest (PR 15: 58 of them `SignedTx::id()` over the same bytes),
    // 36.46 after; the count repeats exactly per seed. What is left per
    // tx is 17 sim-signature tags (one per sign or verify), one id, one
    // provider signing digest, one label digest per upload (r = 2), and
    // the Merkle leaves, nodes and block hashes of four ledgers.
    const AFTER: f64 = 36.46;
    let per_tx = sha256_calls_per_committed_tx();
    assert!(
        per_tx <= AFTER * 1.10,
        "{per_tx:.2} SHA-256 calls per committed tx, budget {AFTER} + 10 %"
    );
}
