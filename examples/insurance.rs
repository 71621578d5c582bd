//! Insurance underwriting on the permissioned chain (§5.2 of the paper).
//!
//! ```text
//! cargo run --release --example insurance
//! ```
//!
//! Potential policyholders (providers) submit signed applications to
//! independent agents (collectors), who verify the materials and forward
//! them to the insurance companies (governors). One agent colludes with
//! applicants, labeling fraudulent applications as clean; companies only
//! spot-check (f = 0.6), yet the reputation mechanism drives the corrupt
//! agent's screening weight — and commission — down.

#![forbid(unsafe_code)]

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;
use prb::workload::insurance::{Application, InsuranceWorkload};

fn main() -> Result<(), String> {
    let mut cfg = ProtocolConfig {
        providers: 10,
        collectors: 5,
        governors: 4,
        replication: 2,
        tx_per_provider: 4,
        seed: 99,
        ..Default::default()
    };
    cfg.reputation.f = 0.6;
    println!(
        "== insurance: {} applicants, {} independent agents, {} companies (spot-check f = {}) ==",
        cfg.providers, cfg.collectors, cfg.governors, cfg.reputation.f
    );

    let mut sim = Simulation::builder(cfg)
        // Agent a2 helps applicants: flips 80% of its labels, so frauds
        // read as clean (and clean reads as fraud).
        .collector_profile(2, CollectorProfile::misreporter(0.8))
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.0,
                active: false
            };
            10
        ])
        .workload(Box::new(InsuranceWorkload::new(0.35)))
        .build()?;

    sim.run(20);
    sim.run_drain_rounds(3);

    // Underwriting results from the committed ledger.
    let chain = sim.governor(0).chain();
    let oracle = sim.oracle();
    let mut underwritten = 0usize;
    let mut fraud_blocked = 0usize;
    let mut fraud_slipped = 0usize;
    let mut risk_sum = 0u64;
    let mut seen = 0usize;
    for block in chain.iter() {
        for entry in &block.entries {
            seen += 1;
            let app = Application::from_bytes(&entry.tx.payload.data)
                .expect("ledger carries applications");
            let truth = oracle.borrow().peek(entry.tx.id()).unwrap_or(false);
            if entry.verdict.counts_as_valid() {
                underwritten += 1;
                risk_sum += app.risk_score() as u64;
                if !truth {
                    fraud_slipped += 1;
                }
            } else if !truth {
                fraud_blocked += 1;
            }
        }
    }
    let _ = seen;
    println!("\nledger height {}", chain.height());
    println!(
        "underwritten policies: {underwritten} (mean risk score {:.1})",
        risk_sum as f64 / underwritten.max(1) as f64
    );
    println!("fraudulent applications recorded-but-flagged: {fraud_blocked}");
    println!("fraudulent applications slipped through unchecked: {fraud_slipped}");

    println!("\n-- company g0's view of agent reliability --");
    let table = sim.governor(0).reputation();
    for a in 0..5 {
        let v = table.collector(a);
        let marker = if a == 2 { "  <- colluding agent" } else { "" };
        println!("agent a{a}: {}{marker}", v);
    }

    // Commission: agents are paid from executed policies by reputation.
    let mut commission = [0.0f64; 5];
    for g in 0..4 {
        for (c, share) in sim.metrics(g).revenue_paid.iter().enumerate() {
            commission[c] += share;
        }
    }
    println!("\n-- cumulative commission --");
    let honest_avg: f64 = (0..5)
        .filter(|&a| a != 2)
        .map(|a| commission[a])
        .sum::<f64>()
        / 4.0;
    for (a, c) in commission.iter().enumerate() {
        let marker = if a == 2 { "  <- colluding agent" } else { "" };
        println!("agent a{a}: {c:>8.2}{marker}");
    }
    println!(
        "\ncolluding agent earns {:.0}% of an honest agent's commission",
        100.0 * commission[2] / honest_avg
    );
    Ok(())
}
