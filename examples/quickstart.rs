//! Quickstart: run the protocol end to end and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a default deployment (8 providers, 8 collectors, 4 governors,
//! replication r = 4, f = 0.5, β = 0.9), runs ten rounds with one
//! misreporting collector, and prints the committed chain, the screening
//! statistics, the reputation table and the revenue split.

#![forbid(unsafe_code)]

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;

fn main() -> Result<(), String> {
    let cfg = ProtocolConfig {
        seed: 2021,
        ..Default::default()
    };
    println!("== prb quickstart ==");
    println!(
        "l = {} providers, n = {} collectors, m = {} governors, r = {}, s = {}",
        cfg.providers,
        cfg.collectors,
        cfg.governors,
        cfg.replication,
        cfg.s()
    );
    println!(
        "f = {}, beta = {}, mu = {}, nu = {}, U = {}, b_limit = {}",
        cfg.reputation.f,
        cfg.reputation.beta,
        cfg.reputation.mu,
        cfg.reputation.nu,
        cfg.argue_limit_u,
        cfg.b_limit
    );

    let mut sim = Simulation::builder(cfg)
        .collector_profile(3, CollectorProfile::misreporter(0.6))
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.3,
                active: true,
            };
            8
        ])
        .build()?;

    println!("\nrunning 10 rounds (collector c3 flips 60% of its labels)…\n");
    for outcome in sim.run(10) {
        println!(
            "round {:>2}: leader g{}  block #{} with {} txs",
            outcome.round,
            outcome.leader.map_or("?".into(), |l| l.to_string()),
            outcome.block_serial.unwrap_or(0),
            outcome.txs_in_block,
        );
    }
    sim.run_drain_rounds(3); // let reveals and argues settle

    println!("\nagreement across governors: {}", sim.chains_agree());
    let m = sim.metrics(0);
    println!("\n-- governor g0 --");
    println!("screened {:>5} transactions", m.screened);
    println!(
        "checked  {:>5} ({} validations incl. argues)",
        m.checked, m.validations
    );
    println!(
        "unchecked{:>6} ({:.1}% — bounded by f = 50%)",
        m.unchecked,
        100.0 * m.unchecked_fraction()
    );
    println!(
        "argues   {:>5} accepted, {} rejected",
        m.argue_accepted, m.argue_rejected
    );
    println!(
        "realized loss {:.1}, expected loss {:.2}",
        m.realized_loss, m.expected_loss
    );

    println!("\n-- reputation table (governor g0) --");
    let table = sim.governor(0).reputation();
    for c in 0..8 {
        println!("c{}: {}", c, table.collector(c));
    }

    println!("\n-- cumulative revenue per collector (all leaders) --");
    let mut paid = [0.0f64; 8];
    for g in 0..4 {
        for (c, share) in sim.metrics(g).revenue_paid.iter().enumerate() {
            paid[c] += share;
        }
    }
    for (c, p) in paid.iter().enumerate() {
        let marker = if c == 3 { "  <- misreporter" } else { "" };
        println!("c{c}: {p:>8.2}{marker}");
    }
    Ok(())
}
