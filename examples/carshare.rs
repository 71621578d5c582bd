//! Car-sharing on the permissioned chain (§5.1 of the paper).
//!
//! ```text
//! cargo run --release --example carshare
//! ```
//!
//! Users (providers) broadcast ride requests to drivers (collectors), who
//! label each request serviceable (+1) or not (−1) and upload to
//! schedulers (governors). Two drivers are dishonest: one rejects rides it
//! could serve (labels them −1), one accepts everything including
//! unserviceable requests. The reputation system exposes both, and the
//! schedulers' committed ledger carries the assignable rides.

#![forbid(unsafe_code)]

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;
use prb::ledger::block::Verdict;
use prb::workload::carshare::{CarShareWorkload, RideRequest};

fn main() -> Result<(), String> {
    let cfg = ProtocolConfig {
        providers: 12,
        collectors: 6,
        governors: 3,
        replication: 3,
        tx_per_provider: 5,
        seed: 51,
        ..Default::default()
    };
    println!(
        "== car-sharing: {} users, {} drivers, {} schedulers ==",
        cfg.providers, cfg.collectors, cfg.governors
    );

    let mut sim = Simulation::builder(cfg)
        // Driver d1 "rejects" 70% of rides (flips serviceable ones to -1);
        // driver d4 rubber-stamps everything (flips unserviceable to +1).
        .collector_profile(1, CollectorProfile::misreporter(0.7))
        .collector_profile(4, CollectorProfile::misreporter(0.7))
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.0,
                active: true
            };
            12
        ])
        .workload(Box::new(CarShareWorkload::new(0.25)))
        .build()?;

    sim.run(15);
    sim.run_drain_rounds(3);

    // Read the committed ledger and reconstruct the ride market.
    let chain = sim.governor(0).chain();
    let mut assignable = 0usize;
    let mut rejected = 0usize;
    let mut total_fare = 0u64;
    let mut total_distance = 0u64;
    for block in chain.iter() {
        for entry in &block.entries {
            let req = RideRequest::from_bytes(&entry.tx.payload.data)
                .expect("ledger carries ride requests");
            match entry.verdict {
                Verdict::CheckedValid | Verdict::ArguedValid => {
                    assignable += 1;
                    total_fare += req.fare_cents as u64;
                    total_distance += req.distance() as u64;
                }
                Verdict::UncheckedInvalid | Verdict::UncheckedValid => rejected += 1,
            }
        }
    }
    println!(
        "\nledger height {} — {} assignable rides, {} rejected/unchecked",
        chain.height(),
        assignable,
        rejected
    );
    if assignable > 0 {
        println!(
            "average fare {:.2} EUR, average trip {:.1} cells",
            total_fare as f64 / assignable as f64 / 100.0,
            total_distance as f64 / assignable as f64
        );
    }

    println!("\n-- scheduler g0's view of driver reliability --");
    let table = sim.governor(0).reputation();
    let mut ranked: Vec<(u32, f64)> = (0..6)
        .map(|d| {
            let v = table.collector(d as usize);
            let mean_weight: f64 = v.weights().iter().sum::<f64>() / v.weights().len() as f64;
            (d, mean_weight)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
    for (d, w) in &ranked {
        let marker = match d {
            1 | 4 => "  <- dishonest driver",
            _ => "",
        };
        println!("driver d{d}: mean screening weight {w:.4}{marker}");
    }
    let worst_two: Vec<u32> = ranked[4..].iter().map(|(d, _)| *d).collect();
    println!(
        "\nthe two lowest-ranked drivers are {:?} — the reputation system found the dishonest pair: {}",
        worst_two,
        worst_two.contains(&1) && worst_two.contains(&4)
    );
    Ok(())
}
