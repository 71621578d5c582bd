//! The adversary gauntlet: every misbehaviour class from §4.2 at once.
//!
//! ```text
//! cargo run --release --example adversary_gauntlet
//! ```
//!
//! Runs the "zoo" mix — a concealer, a forger, a misreporter and a sleeper
//! that turns hostile halfway — against active providers, then prints how
//! each adversary's reputation vector and revenue fared, and verifies the
//! paper's five safety/liveness properties on the resulting ledgers.

#![forbid(unsafe_code)]

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;
use prb::ledger::block::Verdict;

fn main() -> Result<(), String> {
    let mut cfg = ProtocolConfig {
        seed: 1337,
        tx_per_provider: 5,
        ..Default::default()
    };
    cfg.reputation.f = 0.7;
    println!("== adversary gauntlet (f = {}) ==", cfg.reputation.f);

    let profiles: Vec<CollectorProfile> = (0..8)
        .map(|c| match c {
            0 => CollectorProfile::concealer(0.6),
            1 => CollectorProfile::forger(0.4),
            2 => CollectorProfile::misreporter(0.6),
            3 => CollectorProfile::misreporter(0.9).sleeper(10),
            _ => CollectorProfile::honest(),
        })
        .collect();
    let roles = [
        "concealer (drops 60%)",
        "forger (fabricates 40%)",
        "misreporter (flips 60%)",
        "sleeper (honest, turns hostile at round 10)",
        "honest",
        "honest",
        "honest",
        "honest",
    ];

    let mut sim = Simulation::builder(cfg)
        .collector_profiles(profiles)
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.3,
                active: true
            };
            8
        ])
        .build()?;

    sim.run(20);
    sim.run_drain_rounds(3);

    println!("\n-- reputation vectors at governor g0 --");
    let table = sim.governor(0).reputation();
    for (c, role) in roles.iter().enumerate() {
        println!("c{}: {}  [{}]", c, table.collector(c), role);
    }

    let mut paid = [0.0f64; 8];
    for g in 0..4 {
        for (c, share) in sim.metrics(g).revenue_paid.iter().enumerate() {
            paid[c] += share;
        }
    }
    println!("\n-- cumulative revenue --");
    for (c, p) in paid.iter().enumerate() {
        println!("c{c}: {p:>9.2}  [{}]", roles[c]);
    }

    // The paper's properties, checked on the run's artifacts.
    println!("\n-- §3.1 properties --");
    let agreement = sim.chains_agree();
    println!("Agreement:          {agreement}");
    let integrity = (0..4).all(|g| sim.governor(g).chain().audit().is_none());
    println!("Chain Integrity:    {integrity}");
    let no_skipping = {
        let chain = sim.governor(0).chain();
        (0..=chain.height()).all(|s| chain.retrieve(s).is_some())
    };
    println!("No Skipping:        {no_skipping}");
    let no_creation = {
        let chain = sim.governor(0).chain();
        let oracle = sim.oracle();
        chain
            .iter()
            .flat_map(|b| &b.entries)
            .all(|e| oracle.borrow().peek(e.tx.id()).is_some())
    };
    println!(
        "Almost No Creation: {no_creation} (forger sent {} fabrications, all rejected)",
        sim.collector(1).counters().3
    );
    let validity = {
        // Every argued-valid entry is genuinely valid.
        let chain = sim.governor(0).chain();
        let oracle = sim.oracle();
        chain
            .iter()
            .flat_map(|b| &b.entries)
            .filter(|e| e.verdict == Verdict::ArguedValid)
            .all(|e| oracle.borrow().peek(e.tx.id()) == Some(true))
    };
    println!("Validity (argued):  {validity}");
    assert!(agreement && integrity && no_skipping && no_creation && validity);
    println!("\nall properties hold.");
    Ok(())
}
