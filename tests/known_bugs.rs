//! The known-bug ledger: each open bug pinned as the exact set of seeds on
//! which a small configuration reproduces it, so that no change to the
//! event schedule can hide a bug without the ledger noticing.
//!
//! An entry asserts `failing == recorded` with equality, not `≤`:
//!
//! - a fix lowers the count, updates the entry with its reason and adds a
//!   named regression;
//! - a change that moves the schedule and so moves a count says whether
//!   the bug was fixed or only hidden, and for a hidden one names a seed
//!   or configuration that still reproduces it;
//! - an entry leaves only when its count reaches zero through a fix.
//!
//! A run that panics counts as failing. Bugs that no configuration within
//! this file's budget reproduces are listed in [`UNREPRODUCED`] with the
//! commit where they last showed.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use prb::core::behavior::GovernorProfile;
use prb::core::config::{GovernorMode, ProtocolConfig};
use prb::core::sim::Simulation;
use prb::ledger::block::Verdict;
use prb::net::fault::FaultPlan;
use prb::net::time::SimTime;
use prb_bench::properties::scenarios;

/// Open bugs with no reproduction in budget: ROADMAP item, what goes
/// wrong, and the commit where it last showed.
const UNREPRODUCED: [(&str, &str, &str); 1] = [(
    "4(b)",
    "permanent inbox gap: a send that exhausts its retry budget leaves a \
     gap an OrderedInbox waits behind for ever (seeds 4294967296 and \
     3534612867012378930 of 650-round closed-faulty runs at drop_all(0.1) \
     lost 1 201 and 153 valid transactions)",
    "5b385b7",
)];

/// The seeds in `seeds` on which `fails` holds or the run panics.
fn failing(seeds: impl Iterator<Item = u64>, fails: impl Fn(u64) -> bool) -> Vec<u64> {
    seeds
        .filter(|&seed| catch_unwind(AssertUnwindSafe(|| fails(seed))).unwrap_or(true))
        .collect()
}

/// ROADMAP 4(a), the permanent fork: `fork_choice_under_loss_is_pinned`'s
/// run (b) without the crash — 5 governors, reliable delivery,
/// `drop_all(0.3)`, 12 rounds, 1 drain round, 5 rounds to settle — over
/// seeds 4100–4199. A seed fails when the governors' chains disagree.
#[test]
fn permanent_fork_under_loss() {
    let forks = failing(4100..4200, |seed| {
        let cfg = ProtocolConfig {
            governors: 5,
            reliable_delivery: true,
            seed,
            ..Default::default()
        };
        let rt = cfg.round_ticks();
        let mut sim = Simulation::new(cfg).unwrap();
        let mut faults = FaultPlan::none();
        faults.drop_all(0.3);
        sim.set_faults(faults);
        sim.run(12);
        sim.run_drain_rounds(1);
        sim.settle(5 * rt);
        !sim.chains_agree()
    });
    // 1fade56: 4105, 4111, 4149, 4177, 4191. Conflicts that must share a
    // round (no honest expulsion) move the schedule: + 4146, not a fix.
    // A proposal whose claim does not rank no longer settles the head:
    // 4105 fixed (that mechanism); + 4163, moved.
    // One VRF per governor per round moves every election: 4149, 4163,
    // 4177 and 4191 stop forking, hidden, not fixed; 4128, 4174 and 4176
    // fork instead, and 4111 and 4146 still do. Without the settling fix
    // this schedule forks 4120 and 4122 too.
    assert_eq!(forks, [4111, 4128, 4146, 4174, 4176]);
}

/// ROADMAP 4(a), a governor stuck behind a fork: `permanent_fork_under_loss`'s
/// run over seeds 4100–4199, then 8 loss-free rounds, 2 drain rounds and 5
/// rounds to settle. A seed fails when a governor's height did not grow
/// over the loss-free rounds while at least three others' did: a minority
/// governor one block onto a losing branch can neither contest nor sync
/// past it.
#[test]
fn stuck_governor_after_loss() {
    let stuck = failing(4100..4200, |seed| {
        let cfg = ProtocolConfig {
            governors: 5,
            reliable_delivery: true,
            seed,
            ..Default::default()
        };
        let (rt, governors) = (cfg.round_ticks(), cfg.governors);
        let mut sim = Simulation::new(cfg).unwrap();
        let mut faults = FaultPlan::none();
        faults.drop_all(0.3);
        sim.set_faults(faults);
        sim.run(12);
        sim.run_drain_rounds(1);
        sim.settle(5 * rt);
        let heights = |sim: &Simulation| -> Vec<u64> {
            (0..governors)
                .map(|g| sim.governor(g).chain().height())
                .collect()
        };
        let before = heights(&sim);
        sim.set_faults(FaultPlan::none());
        sim.run(8);
        sim.run_drain_rounds(2);
        sim.settle(5 * rt);
        let grew: Vec<bool> = before
            .iter()
            .zip(heights(&sim))
            .map(|(&was, now)| now > was)
            .collect();
        grew.contains(&false) && grew.iter().filter(|&&g| g).count() >= 3
    });
    // Recorded when the entry was added: governor 4 of 4128 stays at
    // height 5 while the other four go from 10 to 16.
    assert_eq!(stuck, [4128]);
}

/// ROADMAP item 1, E10: `exp_properties`'s five scenarios (12 rounds, 4
/// drain rounds) over seeds 1–16. A seed fails when any of the five §3.1
/// properties does not hold.
#[test]
fn e10_properties_fail() {
    let failing: Vec<Vec<u64>> = scenarios()
        .iter()
        .map(|scenario| failing(1..=16, |seed| !scenario.run(seed, 12).all()))
        .collect();
    // Failing per scenario [0, 12, 0, 0, 0] at 1fade56: "forger +
    // misreporters" failed on seeds 1–8, 12, 13, 15 and 16. One VRF per
    // governor per round moves every election, and with it the argue
    // path: 9 of 16 now, hidden, not fixed (no argue rule changed);
    // seeds 3, 7, 8, 13, 15 and 16 fail under both schedules.
    assert_eq!(
        failing,
        [
            vec![],
            vec![3, 7, 8, 10, 11, 13, 14, 15, 16],
            vec![],
            vec![],
            vec![],
        ]
    );
}

/// ROADMAP 4(c2), duplicate records and an honest governor expelled:
/// `recovery_is_pinned`'s run (b) — 5 governors, reliable delivery,
/// checkpoints every 4 blocks, `drop_all(0.3)`, governors 1 and 2 crashed
/// in turn, 14 rounds, 1 drain round, 5 rounds to settle — over seeds
/// 0–99. Every governor is honest, so a seed shows the first half when any
/// governor expels another, and the second when any chain records a
/// transaction twice.
#[test]
fn honest_expulsion_and_duplicate_records_under_crashes() {
    let run = |seed: u64| {
        let cfg = ProtocolConfig {
            governors: 5,
            reliable_delivery: true,
            governor_mode: GovernorMode::Reputation,
            checkpoint_interval: 4,
            sync_page: 2,
            seed,
            ..Default::default()
        };
        let rt = cfg.round_ticks();
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        let mut faults = FaultPlan::none();
        faults.drop_all(0.3);
        faults.crash_window(sim.governor_net_index(1), SimTime(2 * rt), SimTime(7 * rt));
        faults.crash_window(sim.governor_net_index(2), SimTime(3 * rt), SimTime(8 * rt));
        sim.set_faults(faults);
        sim.run(14);
        sim.run_drain_rounds(1);
        sim.settle(5 * rt);
        let expelled = (0..cfg.governors).any(|g| !sim.governor(g).expelled().is_empty());
        let duplicated = (0..cfg.governors).any(|g| {
            let mut seen = HashSet::new();
            sim.governor(g)
                .chain()
                .iter()
                .flat_map(|b| &b.entries)
                .filter(|e| e.verdict != Verdict::ArguedValid)
                .any(|e| !seen.insert(e.tx.id()))
        });
        (expelled, duplicated)
    };
    let outcomes: Vec<(u64, (bool, bool))> = (0..100)
        .map(|seed| {
            let outcome = catch_unwind(AssertUnwindSafe(|| run(seed)));
            (seed, outcome.unwrap_or((true, true)))
        })
        .collect();
    let seeds = |half: fn(&(bool, bool)) -> bool| -> Vec<u64> {
        outcomes
            .iter()
            .filter(|(_, o)| half(o))
            .map(|&(seed, _)| seed)
            .collect()
    };
    // 1fade56: honest expulsions on 16 seeds (1, 6, 26, 34, 40, 52, 58,
    // 59, 65, 66, 71, 77, 78, 80, 88, 89), every one a governor that led
    // the same serial again in a later round and was convicted of
    // equivocation; 0 since a conflict must share its round (fixed).
    // Duplicate records on 17, 25, 28 and 30; + 66, which expelled a
    // governor before and records twice now (moved, not fixed).
    // One VRF per governor per round moves every election: duplicates on
    // 38, 39, 42, 84 and 86 instead, hidden and moved, not fixed.
    assert_eq!(seeds(|o| o.0), Vec::<u64>::new(), "honest expulsions");
    assert_eq!(seeds(|o| o.1), [38, 39, 42, 84, 86], "duplicate records");
}

/// ROADMAP item 17(a), two signer rules for one membership cert:
/// assembly counts a threshold of the governors neither departed nor
/// convicted (`Tally::bft`), while the audit on reopening a store counts a
/// threshold of the epoch's active governors (`Tally::active`), among whom
/// a convicted governor that never left still stands. 5 governors,
/// governor 4 an equivocator, collector churn at 0.2 both ways, a durable
/// store, 16 rounds and 2 drain rounds, then a restart over the store,
/// seeds 1–8. Governor 0 convicts governor 4 on every seed; a cert it
/// assembled afterwards with `threshold(4) = 3` shares is audited against
/// `threshold(5) = 4` and refused. Each seed gives the certs governor 0
/// formed and the honest ones it refused on reopening.
#[test]
fn reopen_refuses_a_cert_assembled_without_a_convicted_governor() {
    let certs: Vec<(usize, u64)> = (1..=8)
        .map(|seed| {
            let dir = std::env::temp_dir().join(format!(
                "prb-known-bugs-audit-{}-{seed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut governor_profiles = vec![GovernorProfile::honest(); 5];
            governor_profiles[4] = GovernorProfile::equivocator();
            let cfg = ProtocolConfig {
                governors: 5,
                governor_profiles,
                join_rate: 0.2,
                leave_rate: 0.2,
                store_dir: Some(dir.clone()),
                seed,
                ..Default::default()
            };
            let mut sim = Simulation::new(cfg.clone()).unwrap();
            sim.run(16);
            sim.run_drain_rounds(2);
            assert_eq!(sim.governor(0).expelled(), [4], "seed {seed}");
            let formed = sim.governor(0).committee().certs().len();
            drop(sim);
            let reopened = Simulation::new(cfg).unwrap();
            let refused = reopened.metrics(0).member_certs_refused;
            std::fs::remove_dir_all(&dir).unwrap();
            (formed, refused)
        })
        .collect();
    // Recorded when the entry was added (ce7bf93's rules): refusals on 7
    // of 8 seeds.
    assert_eq!(
        certs,
        [
            (5, 2),
            (11, 4),
            (5, 0),
            (6, 2),
            (9, 6),
            (9, 5),
            (8, 5),
            (11, 2)
        ]
    );
}

#[test]
fn unreproduced_entries_name_the_commit_that_last_showed_them() {
    for (id, what, commit) in UNREPRODUCED {
        assert!(!what.is_empty(), "{id}");
        assert!(
            commit.len() == 7 && commit.bytes().all(|b| b.is_ascii_hexdigit()),
            "{id}: {commit}"
        );
    }
}
