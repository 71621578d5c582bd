//! Exponentiations per election claim, counted without a wall clock.
//!
//! Its own file, so its own process, and one `#[test]`, so one thread:
//! `prb_crypto::stats` keeps counts per thread and folds them into
//! process-wide totals, so a snapshot sees this thread's counts and those
//! of every thread folded before it (a `par` worker folds itself as it
//! finishes), and here nothing else adds to them.

use prb_consensus::election::{round_message, ElectionClaim};
use prb_crypto::signer::CryptoScheme;
use prb_crypto::stats::{self, CryptoStats};

/// The counters `f` moves.
fn spent(f: impl FnOnce()) -> CryptoStats {
    let before = stats::snapshot();
    f();
    stats::snapshot().delta_since(&before)
}

#[test]
fn a_claim_costs_one_vrf_output_exponentiation_at_any_stake() {
    let key = CryptoScheme::schnorr_test_256().keypair_from_seed(b"election-cost");
    // Warm-up: the generator's fixed-base table gets built.
    key.vrf_evaluate(b"warm-up");
    // One evaluation with its proof: `gamma = h^x` (the output) and the
    // proof's `h^k` are one Montgomery exponentiation over a shared
    // squaring chain (two separate ones before), its `g^k` a table
    // exponentiation.
    let one = spent(|| {
        key.vrf_evaluate(&round_message(b"cost", 1, 0));
    });
    assert_eq!(
        (one.modexp_calls, one.table_pows, one.dleq_proofs),
        (1, 1, 1)
    );
    for stake in [1, 4, 64] {
        let claim = spent(|| {
            ElectionClaim::compute(b"cost", 1, 0, stake, &key).unwrap();
        });
        // The same as one evaluation: one `h^x`, one proof, whatever the
        // stake. The per-unit rule took `stake + 1` Montgomery
        // exponentiations (an output per unit and the proof's `h^k`).
        assert_eq!(
            (claim.modexp_calls, claim.multi_pow_calls, claim.table_pows),
            (one.modexp_calls, 0, one.table_pows),
            "stake {stake}"
        );
        assert_eq!(claim.dleq_proofs, 1, "stake {stake}");
    }
}
