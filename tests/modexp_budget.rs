//! Modular exponentiations per committed transaction and VRF proofs per
//! governor per round, pinned without a wall clock.
//!
//! Its own file, so its own process, and one `#[test]`, so one thread:
//! `prb_crypto::stats` counters are process-wide, and here nothing else
//! bumps them.

use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;
use prb::crypto::signer::CryptoScheme;
use prb::crypto::stats;

const GOVERNORS: u32 = 4;
const ROUNDS: u32 = 12;

#[test]
fn modexp_calls_and_vrf_proofs_stay_pinned() {
    // A scaled-down `closed-crypto` (BENCHMARK.json): closed loop, 4/4/4,
    // 2 tx per provider, four stake units per governor, `verify_blocks`,
    // real Schnorr arithmetic over the 256-bit test group for speed.
    let cfg = ProtocolConfig {
        providers: 4,
        collectors: 4,
        governors: GOVERNORS,
        replication: 2,
        tx_per_provider: 2,
        stake_per_governor: 4,
        verify_blocks: true,
        crypto: CryptoScheme::schnorr_test_256(),
        seed: 11,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg).unwrap();
    // Warm-up: key tables get built, the first blocks commit.
    sim.run(4);
    let before = stats::snapshot();
    let committed: usize = sim.run(ROUNDS).iter().map(|r| r.txs_in_block).sum();
    let spent = stats::snapshot().delta_since(&before);
    assert!(sim.chains_agree());
    assert!(committed > 0);

    // Each governor proves the one stake unit it publishes: 1 proof per
    // governor per round. It was 4 (one per unit, three thrown away)
    // until `ElectionClaim::compute` took the least *output* first.
    assert_eq!(spent.dleq_proofs, u64::from(GOVERNORS * ROUNDS));

    // 3 394 exponentiations of any kind for these 90 transactions (37.71
    // per tx) before that and before `claim_key` answered from the
    // election batch its governor had just verified; 2 962 (32.91) after.
    // The 36 a round that went: 12 discarded proofs at two apiece, and
    // the leader's claim verified alone by each of four governors when
    // the block arrived, at three apiece. 2 521 for 89 (28.33) since a
    // collector signs one upload batch per dispatch and each governor
    // verifies it once (PR 26): a delivery that releases several provider
    // transactions costs one collector signature, not one each, and the
    // kernel's shifted RNG commits one transaction fewer in the window.
    // 1 666 for 86 (19.37) since a closed-loop collector holds its labels
    // until the driver closes the collection phase: one signature per
    // collector per round, and one check of it per governor, where there
    // was one per delivery; the RNG shifted again. 1 486 for the same 86
    // (17.28) since the election checks claims in output order and stops
    // at the first valid one, taking its own claim unchecked, and a header
    // echo over an already recorded hash is not verified again; the
    // schedule did not move. Exact per seed.
    let modexp = spent.modexp_calls + spent.multi_pow_calls + spent.table_pows;
    assert_eq!((modexp, committed), (1_486, 86));
    assert!(modexp <= 18 * committed as u64, "≤ 18 per committed tx");
}
