//! **E9 — §5 use cases: car-sharing and insurance on the protocol.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_apps [--seeds 6] [--rounds 20]
//! ```
//!
//! Runs both scenario workloads with embedded dishonest intermediaries and
//! reports domain-level outcomes: whether the reputation ranking exposes
//! the dishonest drivers/agents, and how the fraud slip-through rate falls
//! as the spot-check parameter tightens.

#![forbid(unsafe_code)]

use prb_bench::{mean, pm, run_seeds, seed_list, Args, Table};
use prb_core::behavior::{CollectorProfile, ProviderProfile};
use prb_core::config::{GovernorMode, ProtocolConfig};
use prb_core::sim::Simulation;
use prb_workload::carshare::CarShareWorkload;
use prb_workload::insurance::InsuranceWorkload;

/// Runs a scenario with two dishonest collectors; returns
/// `(both_detected, fraud_slip_rate, honest_revenue_ratio)`.
fn run_scenario(
    seed: u64,
    rounds: u32,
    f: f64,
    insurance: bool,
    mode: GovernorMode,
) -> (bool, f64, f64) {
    let mut cfg = ProtocolConfig {
        providers: 12,
        collectors: 6,
        governors: 3,
        replication: 3,
        tx_per_provider: 5,
        governor_mode: mode,
        seed,
        ..Default::default()
    };
    cfg.reputation.f = f;
    let dishonest = [1u32, 4];
    let mut builder = Simulation::builder(cfg).provider_profiles(vec![
        ProviderProfile {
            invalid_rate: 0.0,
            active: true
        };
        12
    ]);
    for &d in &dishonest {
        builder = builder.collector_profile(d, CollectorProfile::misreporter(0.7));
    }
    let mut sim = if insurance {
        builder.workload(Box::new(InsuranceWorkload::new(0.3)))
    } else {
        builder.workload(Box::new(CarShareWorkload::new(0.3)))
    }
    .build()
    .expect("valid config");
    sim.run(rounds);
    sim.run_drain_rounds(3);

    // Detection: are the two dishonest collectors the two lowest-ranked?
    let table = sim.governor(0).reputation();
    let mut ranked: Vec<(u32, f64)> = (0..6)
        .map(|c| {
            let v = table.collector(c as usize);
            (
                c,
                v.weights().iter().sum::<f64>() + v.misreport() as f64 * 1e-6,
            )
        })
        .collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let bottom_two: Vec<u32> = ranked[..2].iter().map(|(c, _)| *c).collect();
    let detected = dishonest.iter().all(|d| bottom_two.contains(d));

    // Fraud slip rate: invalid txs recorded as valid in the ledger.
    let chain = sim.governor(0).chain();
    let oracle = sim.oracle();
    let mut frauds_recorded_ok = 0usize;
    let mut frauds_total = 0usize;
    for block in chain.iter() {
        for entry in &block.entries {
            if oracle.borrow().peek(entry.tx.id()) == Some(false) {
                frauds_total += 1;
                if entry.verdict.counts_as_valid() {
                    frauds_recorded_ok += 1;
                }
            }
        }
    }
    let slip = if frauds_total == 0 {
        0.0
    } else {
        frauds_recorded_ok as f64 / frauds_total as f64
    };

    // Revenue ratio dishonest/honest.
    let mut paid = [0.0f64; 6];
    for g in 0..3 {
        for (c, share) in sim.metrics(g).revenue_paid.iter().enumerate() {
            paid[c] += share;
        }
    }
    let honest_avg: f64 = (0..6)
        .filter(|c| !dishonest.contains(&(*c as u32)))
        .map(|c| paid[c])
        .sum::<f64>()
        / 4.0;
    let dishonest_avg: f64 = dishonest.iter().map(|&d| paid[d as usize]).sum::<f64>() / 2.0;
    let ratio = if honest_avg > 0.0 {
        dishonest_avg / honest_avg
    } else {
        0.0
    };
    (detected, slip, ratio)
}

fn main() {
    let args = Args::parse();
    // Shared `--trace-out FILE` flag: one traced run of a representative
    // deployment (JSONL trace + summary) instead of the sweeps.
    if prb_bench::run_traced(&args, 10, 2, || prb_bench::traced_default_sim(100)) {
        return;
    }
    let seeds = seed_list(300, args.get_or("seeds", 6));
    let rounds = args.get_or("rounds", 20u32);

    println!("# E9 — the paper's use cases (§5)\n");
    for (scenario, insurance) in [("car-sharing (§5.1)", false), ("insurance (§5.2)", true)] {
        let mut table = Table::new(
            &format!("{scenario}: 2 dishonest intermediaries among 6"),
            &[
                "spot-check f",
                "dishonest pair detected (of seeds)",
                "fraud slip-through % (reputation)",
                "fraud slip-through % (check-none)",
                "dishonest/honest revenue %",
            ],
        );
        for f in [0.3, 0.6, 0.9] {
            let runs = run_seeds(&seeds, |s| {
                run_scenario(s, rounds, f, insurance, GovernorMode::Reputation)
            });
            let baseline = run_seeds(&seeds, |s| {
                run_scenario(s, rounds, f, insurance, GovernorMode::CheckNone)
            });
            let detected = runs.iter().filter(|r| r.0).count();
            let slips: Vec<f64> = runs.iter().map(|r| 100.0 * r.1).collect();
            let base_slips: Vec<f64> = baseline.iter().map(|r| 100.0 * r.1).collect();
            let ratios: Vec<f64> = runs.iter().map(|r| 100.0 * r.2).collect();
            table.row(vec![
                format!("{f:.1}"),
                format!("{detected}/{}", runs.len()),
                pm(&slips),
                pm(&base_slips),
                format!("{:.1}", mean(&ratios)),
            ]);
        }
        table.print();
    }
    println!("Interpretation: in both domains the reputation ranking singles out");
    println!("the dishonest intermediaries and their revenue collapses. Fraud");
    println!("slip-through is structurally ZERO under the paper's mechanism: an");
    println!("unchecked transaction is only ever recorded under a drawn -1 label,");
    println!("so no invalid transaction can be recorded valid without a governor");
    println!("validating it. The check-none baseline shows what trusting labels");
    println!("blindly would cost instead.");
}
