//! The committee's one record of who counts, end to end: membership
//! requests that end in a cert, and a member log — certs and convictions —
//! that a reopened governor replays to the committee it left.

use prb_core::behavior::GovernorProfile;
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;

/// 5 governors, governor 4 an equivocator, collector churn at 0.2 both
/// ways and a durable store in `dir`.
fn equivocator_under_churn(seed: u64, dir: &std::path::Path) -> ProtocolConfig {
    let mut governor_profiles = vec![GovernorProfile::honest(); 5];
    governor_profiles[4] = GovernorProfile::equivocator();
    ProtocolConfig {
        governors: 5,
        governor_profiles,
        join_rate: 0.2,
        leave_rate: 0.2,
        store_dir: Some(dir.to_path_buf()),
        seed,
        ..Default::default()
    }
}

fn store_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "prb-core-membership-{tag}-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Regression for the reopen refusal (ROADMAP item 20(a)): assembly and
/// the reopen audit count a cert by one rule, with the conviction of
/// governor 4 in the log as a departure on both sides, so a restart over
/// the store refuses none of the certs governor 0 formed. 16 rounds and 2
/// drain rounds, seeds 1–8; with two counting rules 26 of 64 were refused.
#[test]
fn a_reopened_store_refuses_no_honest_membership_cert() {
    for seed in 1..=8 {
        let dir = store_dir("audit", seed);
        let cfg = equivocator_under_churn(seed, &dir);
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        sim.run(16);
        sim.run_drain_rounds(2);
        assert_eq!(sim.governor(0).expelled(), [4], "seed {seed}");
        let formed = sim.governor(0).committee().certs().to_vec();
        assert!(!formed.is_empty(), "seed {seed}");
        drop(sim);
        let reopened = Simulation::new(cfg).unwrap();
        assert_eq!(reopened.metrics(0).member_certs_refused, 0, "seed {seed}");
        assert_eq!(
            reopened.governor(0).committee().certs(),
            formed,
            "seed {seed}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Regression: a reopened governor keeps its convictions. The member log
/// holds the evidence against governor 4; the replay convicts it again
/// and slashes whatever stake the checkpoint or genesis state restored.
#[test]
fn a_reopened_governor_keeps_its_convictions() {
    let dir = store_dir("convictions", 1);
    let cfg = equivocator_under_churn(1, &dir);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(16);
    sim.run_drain_rounds(2);
    let live = sim.governor(0);
    assert_eq!(live.expelled(), [4]);
    assert_eq!(live.stake_table().stake(4), Some(0));
    let excluded = live.committee().excluded().to_vec();
    drop(sim);
    let reopened = Simulation::new(cfg).unwrap();
    for g in 0..4 {
        let gov = reopened.governor(g);
        assert_eq!(gov.expelled(), [4], "governor {g}");
        assert_eq!(gov.stake_table().stake(4), Some(0), "governor {g}");
    }
    assert_eq!(reopened.governor(0).committee().excluded(), excluded);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression for the stranded churn request (ROADMAP item 20(c)): at
/// `join_rate = leave_rate = 0.9` a collector draws a Join in the round its
/// Leave takes effect. The driver now draws after `StartRound`, so
/// governors judge the Join with the Leave applied and certify it. 10
/// rounds, seeds 1–3, no faults; after 2 drain rounds no request is left
/// in flight. Drawn before `StartRound`, 3, 5 and 5 certs formed and requests
/// stayed in flight for ever.
#[test]
fn a_join_drawn_as_its_leave_takes_effect_is_certified() {
    for seed in 1..=3 {
        let cfg = ProtocolConfig {
            join_rate: 0.9,
            leave_rate: 0.9,
            seed,
            ..Default::default()
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(10);
        assert_eq!(sim.governor(0).committee().certs().len(), 15, "seed {seed}");
        sim.run_drain_rounds(2);
        assert_eq!(sim.churn_in_flight(), 0, "seed {seed}");
    }
}

/// The drift of ROADMAP item 20(b): checkpoint certs are counted at their
/// serial against an epoch log kept by round. Governor 4 proposes invalid
/// blocks, which paranoid governors refuse, so every round it leads
/// commits nothing, serials fall behind rounds, and governor 4 is
/// convicted; governor 1 leaves mid-run. Every checkpoint cert any
/// governor holds after any round must verify on every governor's view,
/// and each governor must reopen its stored cert. On seed 3 the chain
/// ends a serial behind the rounds and seven certs form; none fails, so
/// the drift has no ledger entry. The axis decision itself is still open
/// (item 20).
#[test]
fn checkpoint_certs_across_a_drifting_membership_change_verify_everywhere() {
    use prb_consensus::membership::{MemberRole, MembershipAction};

    let dir = store_dir("drift", 3);
    let mut governor_profiles = vec![GovernorProfile::honest(); 5];
    governor_profiles[4] = GovernorProfile::invalid_proposer();
    let cfg = ProtocolConfig {
        governors: 5,
        governor_profiles,
        verify_blocks: true,
        governor_mode: prb_core::config::GovernorMode::CheckAll,
        checkpoint_interval: 2,
        decay_halflife: 1_000,
        store_dir: Some(dir.clone()),
        seed: 3,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    let (mut checked, mut failed) = (0, 0);
    for round in 0..16u32 {
        if round == 6 {
            sim.submit_membership(MemberRole::Governor, 1, MembershipAction::Leave)
                .unwrap();
        }
        sim.run_round();
        for holder in 0..5 {
            let Some(cert) = sim.governor(holder).latest_cert().cloned() else {
                continue;
            };
            for g in 0..5 {
                let c = sim.governor(g).committee().checkpoint();
                checked += 1;
                failed += usize::from(cert.verify(c.0, &c.excluded_at(cert.state.serial)).is_err());
            }
        }
    }
    let rounds = 16;
    let height = sim.governor(0).chain().height();
    assert!(height < rounds, "serials lag rounds: height {height}");
    assert_eq!(sim.governor(0).expelled(), [4]);
    assert!(sim.governor(0).committee().has_left(1));
    assert!(checked > 0);
    assert_eq!(failed, 0, "{failed} of {checked} checks failed");
    let held: Vec<_> = (0..5)
        .map(|g| sim.governor(g).latest_cert().cloned())
        .collect();
    drop(sim);
    let reopened = Simulation::new(cfg).unwrap();
    // A conviction for an invalid block is not persisted: its header's
    // signature proves nothing alone, so the reopened log cannot check it.
    assert!(reopened.governor(0).expelled().is_empty());
    for (g, cert) in held.iter().enumerate() {
        assert_eq!(
            reopened.governor(g as u32).latest_cert(),
            cert.as_ref(),
            "g{g}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
