//! **E4 — Theorem 4: end-to-end governor loss `L ≤ S + O(√((f+δ)N))`**
//! (plus ablation A3: the argue latency bound `U`).
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_loss [--seeds 8] [--rounds 25] [--sweep-u]
//! ```
//!
//! Runs the full protocol with the Theorem 4 adversary mix (one honest
//! collector per provider group, the rest noisy) and sweeps `f`,
//! reporting the governor's expected loss `L`, the best collector's loss
//! `S`, the number of unchecked transactions, and the `O(√((f+δ)N))`
//! reference with δ = 0.05. With `--sweep-u` it instead sweeps the argue
//! bound `U` under an argue-only reveal policy and reports how many valid
//! transactions are permanently lost.

#![forbid(unsafe_code)]

use prb_bench::claims::loss_run;
use prb_bench::{pm, run_seeds, seed_list, Args, Table};
use prb_core::behavior::ProviderProfile;
use prb_core::config::{ProtocolConfig, RevealPolicy};
use prb_core::sim::Simulation;
use prb_workload::adversary::AdversaryMix;

fn sweep_f(args: &Args) {
    let seeds = seed_list(40, args.get_or("seeds", 8));
    let rounds = args.get_or("rounds", 25u32);
    let delta = 0.05;
    let mut table = Table::new(
        "end-to-end loss vs f (one honest collector, rest noisy; governor g0)",
        &[
            "f",
            "N (screened)",
            "unchecked",
            "L (expected loss)",
            "S (best collector)",
            "L − S",
            "√((f+δ)N) ref",
            "L ≤ S + 16√((f+δ)N)?",
        ],
    );
    for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let runs = run_seeds(&seeds, |s| loss_run(s, f, rounds));
        let l: Vec<f64> = runs.iter().map(|r| r.expected_loss).collect();
        let s_: Vec<f64> = runs.iter().map(|r| r.best_loss).collect();
        let unchecked: Vec<f64> = runs.iter().map(|r| r.unchecked).collect();
        let n: Vec<f64> = runs.iter().map(|r| r.total_txs).collect();
        let gap: Vec<f64> = runs.iter().map(|r| r.expected_loss - r.best_loss).collect();
        let refs: Vec<f64> = runs
            .iter()
            .map(|r| ((f + delta) * r.total_txs).sqrt())
            .collect();
        let within = runs.iter().all(|r| r.within_theorem_4(f, delta));
        table.row(vec![
            format!("{f:.1}"),
            pm(&n),
            pm(&unchecked),
            pm(&l),
            pm(&s_),
            pm(&gap),
            pm(&refs),
            within.to_string(),
        ]);
    }
    table.print();
    println!("Interpretation: the loss gap `L − S` stays within a small multiple of");
    println!("√((f+δ)N) at every f — the Theorem 4 shape — while the unchecked");
    println!("count (the validation work saved) grows with f.");
}

fn sweep_u(args: &Args) {
    let seeds = seed_list(60, args.get_or("seeds", 8));
    let rounds = args.get_or("rounds", 20u32);
    let mut table = Table::new(
        "A3: argue latency bound U (argue-only reveals, hostile majority)",
        &[
            "U",
            "argues accepted",
            "argues rejected",
            "valid txs lost",
            "expected loss",
        ],
    );
    for u in [0u64, 2, 8, 32, 128, 512] {
        let runs = run_seeds(&seeds, |seed| {
            let mut cfg = ProtocolConfig {
                argue_limit_u: u,
                tx_per_provider: 6,
                seed,
                ..Default::default()
            };
            cfg.reputation.f = 0.9;
            cfg.reveal = RevealPolicy::ArgueOnly;
            let mut sim = Simulation::builder(cfg)
                .collector_profiles(AdversaryMix::HalfMisreport(90).profiles(8))
                .provider_profiles(vec![ProviderProfile::honest_active(); 8])
                .build()
                .expect("valid config");
            sim.run(rounds);
            sim.run_drain_rounds(4);
            let m = sim.metrics(0);
            (
                m.argue_accepted as f64,
                m.argue_rejected as f64,
                m.lost_valid as f64,
                m.expected_loss,
            )
        });
        table.row(vec![
            u.to_string(),
            pm(&runs.iter().map(|r| r.0).collect::<Vec<_>>()),
            pm(&runs.iter().map(|r| r.1).collect::<Vec<_>>()),
            pm(&runs.iter().map(|r| r.2).collect::<Vec<_>>()),
            pm(&runs.iter().map(|r| r.3).collect::<Vec<_>>()),
        ]);
    }
    table.print();
    println!("Interpretation: small U permanently buries valid transactions of");
    println!("even *active* providers (argues bounce); past the point where U");
    println!("covers one round's unchecked volume per provider, nothing is lost.");
}

fn main() {
    let args = Args::parse();
    // Shared `--trace-out FILE` flag: one traced run of a representative
    // deployment (JSONL trace + summary) instead of the sweeps.
    if prb_bench::run_traced(&args, 10, 2, || prb_bench::traced_default_sim(100)) {
        return;
    }
    println!("# E4 — end-to-end governor loss (Theorem 4)\n");
    if args.flag("sweep-u") {
        sweep_u(&args);
    } else {
        sweep_f(&args);
    }
}
