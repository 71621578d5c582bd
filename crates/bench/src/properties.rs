//! E10's five §3.1 properties and its fault matrix, shared by
//! `exp_properties` (one seed per scenario) and the known-bug ledger (each
//! scenario over a seed range).

use prb_core::behavior::{CollectorProfile, ProviderProfile};
use prb_core::config::{ProtocolConfig, RevealPolicy};
use prb_core::sim::Simulation;
use prb_ledger::block::Verdict;
use prb_net::fault::FaultPlan;
use prb_net::time::SimTime;

/// The five §3.1 properties, as read off one finished run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropertyResult {
    /// Every live governor holds the same chain.
    pub agreement: bool,
    /// Every live governor's chain passes its own audit.
    pub integrity: bool,
    /// No serial is missing below the head.
    pub no_skipping: bool,
    /// Every recorded transaction was submitted by a provider.
    pub no_creation: bool,
    /// Every argued-valid entry is valid, and no valid transaction stays
    /// buried as unchecked-invalid.
    pub validity: bool,
}

impl PropertyResult {
    /// Whether all five hold.
    pub fn all(&self) -> bool {
        self.agreement && self.integrity && self.no_skipping && self.no_creation && self.validity
    }
}

/// Checks the five properties on the chains of `live_governors`.
pub fn check_properties(sim: &Simulation, live_governors: &[u32]) -> PropertyResult {
    let agreement = sim.chains_agree_among(live_governors);
    let integrity = live_governors
        .iter()
        .all(|&g| sim.governor(g).chain().audit().is_none());
    let chain = sim.governor(live_governors[0]).chain();
    let no_skipping = (0..=chain.height()).all(|s| chain.retrieve(s).is_some());
    let oracle = sim.oracle().borrow();
    let no_creation = chain
        .iter()
        .flat_map(|b| &b.entries)
        .all(|e| oracle.peek(e.tx.id()).is_some());
    // Validity (liveness for active providers): every *argued-valid* entry
    // is genuinely valid, and no genuinely-valid tx of an active provider
    // remains buried given unlimited argue budget (checked as: every
    // buried valid tx was eventually re-recorded).
    let buried_forever = chain
        .iter()
        .flat_map(|b| &b.entries)
        .filter(|e| {
            e.verdict == Verdict::UncheckedInvalid
                && oracle.peek(e.tx.id()) == Some(true)
                && chain.latest_verdict(e.tx.id()) == Some(Verdict::UncheckedInvalid)
        })
        .count();
    let argued_ok = chain
        .iter()
        .flat_map(|b| &b.entries)
        .filter(|e| e.verdict == Verdict::ArguedValid)
        .all(|e| oracle.peek(e.tx.id()) == Some(true));
    PropertyResult {
        agreement,
        integrity,
        no_skipping,
        no_creation,
        validity: argued_ok && buried_forever == 0,
    }
}

/// One row of E10's fault matrix.
#[derive(Debug)]
pub struct Scenario {
    /// Row label.
    pub name: &'static str,
    /// The seed `exp_properties` runs it at.
    pub seed: u64,
    /// Rounds to run for a requested round count.
    pub rounds: fn(u32) -> u32,
    /// The simulation at a seed, with the governors expected live.
    pub build: fn(u64) -> (Simulation, Vec<u32>),
}

impl Scenario {
    /// Runs the scenario at `seed` for `rounds` (then four drain rounds)
    /// and checks the properties.
    pub fn run(&self, seed: u64, rounds: u32) -> PropertyResult {
        let (mut sim, live) = (self.build)(seed);
        sim.run((self.rounds)(rounds));
        sim.run_drain_rounds(4);
        check_properties(&sim, &live)
    }
}

fn base_cfg(seed: u64) -> ProtocolConfig {
    let mut cfg = ProtocolConfig {
        tx_per_provider: 4,
        seed,
        ..Default::default()
    };
    cfg.reputation.f = 0.7;
    cfg.reveal = RevealPolicy::AfterRounds(1);
    cfg
}

/// Eight active providers submitting 20 % invalid transactions.
fn providers() -> Vec<ProviderProfile> {
    vec![
        ProviderProfile {
            invalid_rate: 0.2,
            active: true
        };
        8
    ]
}

fn build(cfg: ProtocolConfig) -> Simulation {
    Simulation::builder(cfg)
        .provider_profiles(providers())
        .build()
        .expect("valid config")
}

/// E10's five scenarios, in table order.
pub fn scenarios() -> [Scenario; 5] {
    [
        Scenario {
            name: "clean run",
            seed: 1,
            rounds: |r| r,
            build: |seed| (build(base_cfg(seed)), (0..4).collect()),
        },
        Scenario {
            name: "forger + misreporters",
            seed: 2,
            rounds: |r| r,
            build: |seed| {
                let sim = Simulation::builder(base_cfg(seed))
                    .collector_profile(0, CollectorProfile::forger(0.5))
                    .collector_profile(1, CollectorProfile::misreporter(0.8))
                    .collector_profile(2, CollectorProfile::misreporter(0.8))
                    .provider_profiles(providers())
                    .build()
                    .expect("valid config");
                (sim, (0..4).collect())
            },
        },
        Scenario {
            name: "governor g3 crashed from t=0",
            seed: 3,
            rounds: |r| r,
            build: |seed| {
                let mut sim = build(base_cfg(seed));
                let mut faults = FaultPlan::none();
                faults.crash(sim.governor_net_index(3), SimTime(0));
                sim.set_faults(faults);
                (sim, vec![0, 1, 2])
            },
        },
        Scenario {
            name: "g3 crashes rounds 2–4, recovers and syncs",
            seed: 5,
            rounds: |r| r.max(8),
            build: |seed| {
                let cfg = base_cfg(seed);
                let round_ticks = cfg.round_ticks();
                let mut sim = build(cfg);
                let mut faults = FaultPlan::none();
                faults.crash_window(
                    sim.governor_net_index(3),
                    SimTime(round_ticks),
                    SimTime(4 * round_ticks),
                );
                sim.set_faults(faults);
                (sim, (0..4).collect())
            },
        },
        Scenario {
            name: "10% loss on provider→collector links",
            seed: 4,
            rounds: |r| r,
            build: |seed| {
                let mut sim = build(base_cfg(seed));
                let mut faults = FaultPlan::none();
                for p in 0..8 {
                    for c in 0..8 {
                        faults.drop_link(
                            sim.provider_net_index(p),
                            sim.collector_net_index(c),
                            0.1,
                        );
                    }
                }
                sim.set_faults(faults);
                (sim, (0..4).collect())
            },
        },
    ]
}
