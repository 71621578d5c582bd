//! End-to-end byzantine-governor fault injection: a profiled governor
//! equivocates, forges, censors, or goes silent mid-run, and the honest
//! committee detects what is detectable, expels what is provable, and
//! keeps its chain prefixes byte-identical throughout.

use std::rc::Rc;

use prb_core::behavior::GovernorProfile;
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;
use prb_obs::{Obs, Recorder, RingRecorder};

/// A 4-governor deployment with governor 3 running `profile` from round
/// 2 onward. Paranoid verification and reliable delivery are on — the
/// byzantine experiments' configuration.
fn byz_sim(profile: GovernorProfile, seed: u64) -> Simulation {
    let cfg = ProtocolConfig {
        providers: 2,
        collectors: 2,
        governors: 4,
        replication: 2,
        tx_per_provider: 2,
        verify_blocks: true,
        reliable_delivery: true,
        governor_profiles: vec![
            GovernorProfile::honest(),
            GovernorProfile::honest(),
            GovernorProfile::honest(),
            profile,
        ],
        seed,
        ..Default::default()
    };
    Simulation::new(cfg).unwrap()
}

/// Runs until governor 3's byzantine action fires at least once (probed
/// by `acted`), up to `max_rounds`. Panics if it never leads — pick a
/// seed where it does, so the test stays deterministic and meaningful.
fn run_until_acted(
    sim: &mut Simulation,
    max_rounds: u32,
    acted: impl Fn(&Simulation) -> bool,
) -> u32 {
    for r in 1..=max_rounds {
        sim.run_round();
        if acted(sim) {
            return r;
        }
    }
    panic!("governor 3 never acted in {max_rounds} rounds; pick another seed");
}

#[test]
fn equivocator_is_convicted_and_expelled_on_every_honest_node() {
    let mut sim = byz_sim(GovernorProfile::equivocator().sleeper(2), 3);
    let fired = run_until_acted(&mut sim, 24, |s| s.metrics(3).equivocations_sent >= 1);
    // A couple more rounds so evidence lands and the chain moves on.
    sim.run(3);
    sim.settle(200);

    let eq_round = sim.metrics(3).first_equivocation_round.unwrap();
    for g in 0..3 {
        // Every honest governor holds verified evidence and expelled g3.
        assert_eq!(sim.governor(g).expelled(), &[3], "governor {g}");
        assert_eq!(sim.governor(g).stake_table().stake(3), Some(0));
        let m = sim.metrics(g);
        assert!(m.evidence_broadcast + m.evidence_received >= 1);
        // Detection is prompt: expelled in the round of the crime.
        let expelled_in = m.expulsion_round[&3];
        assert!(
            expelled_in <= eq_round + 1,
            "governor {g} took until round {expelled_in} (crime in {eq_round})"
        );
    }
    // The culprit convicted itself from the gossiped evidence too.
    assert_eq!(sim.governor(3).expelled(), &[3]);
    // Honest prefixes never diverge, and the committee keeps committing
    // after the expulsion.
    assert!(sim.chains_prefix_agree(&[0, 1, 2]));
    assert!(
        sim.governor(0).chain().height() > u64::from(fired),
        "chain stalled after expulsion"
    );
}

#[test]
fn invalid_proposals_are_rejected_and_attributed() {
    let mut sim = byz_sim(GovernorProfile::invalid_proposer().sleeper(2), 3);
    let obs = Obs::with_sink(Rc::new(RingRecorder::new(100_000)) as Rc<dyn Recorder>);
    sim.set_obs(Rc::clone(&obs));
    let fired = run_until_acted(&mut sim, 24, |s| s.metrics(3).invalid_proposals_sent >= 1);
    sim.run(2);
    sim.settle(200);

    for g in 0..3 {
        // No honest chain ever recorded the fabricated entry (its marker
        // payload is a single 0xBD byte).
        let chain = sim.governor(g).chain();
        for serial in 1..=chain.height() {
            let block = chain.retrieve(serial).unwrap();
            assert!(
                block.entries.iter().all(|e| e.tx.payload.data != [0xBD]),
                "governor {g} accepted a forged entry at serial {serial}"
            );
        }
        assert!(
            sim.metrics(g).invalid_blocks_rejected >= 1,
            "governor {g} never rejected the forged proposal"
        );
        // The forged proposal arrived under g3's own signed header, so
        // it is self-incriminating: every honest node convicts.
        assert_eq!(sim.governor(g).expelled(), &[3], "governor {g}");
        assert_eq!(sim.governor(g).stake_table().stake(3), Some(0));
        // Same-round conviction: the entry re-check runs before the
        // block can enter the chain, so the expulsion books to the round
        // the forged proposal was made in.
        let expelled_in = sim.metrics(g).expulsion_round[&3];
        assert!(
            expelled_in <= u64::from(fired),
            "governor {g} convicted in round {expelled_in} (crime in {fired})"
        );
    }
    assert!(sim.chains_prefix_agree(&[0, 1, 2]));
    // Rejecting the forged block strands nothing: every submitted
    // transaction still reaches a lifecycle terminal.
    assert!(
        obs.open_traces().is_empty(),
        "open traces left behind: {:?}",
        obs.open_traces()
    );
    assert!(obs.lifecycle_counts().committed > 0);
}

#[test]
fn censor_drops_entries_but_stays_undetected() {
    let mut sim = byz_sim(GovernorProfile::censor().sleeper(2), 3);
    run_until_acted(&mut sim, 24, |s| s.metrics(3).censored_txs >= 1);
    sim.run(2);
    sim.settle(200);

    // Censorship is tolerated: well-formed blocks, no evidence, no
    // expulsion — just missing transactions.
    for g in 0..4 {
        assert!(sim.governor(g).expelled().is_empty());
        assert_eq!(sim.metrics(g).evidence_broadcast, 0);
    }
    assert!(sim.chains_agree());
}

#[test]
fn silent_governor_is_indistinguishable_from_a_crash() {
    let mut sim = byz_sim(GovernorProfile::silent().sleeper(2), 7);
    let outcomes = sim.run(10);
    sim.settle(200);

    assert!(sim.metrics(3).silent_rounds >= 1);
    // A mute governor never wins: it mints no claims.
    for o in &outcomes {
        assert!(
            o.round < 2 || o.leader != Some(3),
            "silent governor led round {}",
            o.round
        );
    }
    // Tolerated, not expelled — and the committee keeps its liveness.
    for g in 0..3 {
        assert!(sim.governor(g).expelled().is_empty());
    }
    assert!(sim.chains_prefix_agree(&[0, 1, 2]));
    assert!(sim.governor(0).chain().height() >= 5);
}
