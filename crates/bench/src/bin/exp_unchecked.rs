//! **E2 — Lemma 2: a transaction goes unchecked with probability ≤ f.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_unchecked [--seeds 10] [--rounds 12]
//! ```
//!
//! Part 1 samples the screening rule in isolation across weight profiles,
//! comparing the measured skip rate against the analytic
//! `Σ f·w²/W²` and the Lemma 2 bound `f` (the bound is *tight* in the
//! single-reporter worst case).
//!
//! Part 2 sweeps `f` in the full protocol (honest collectors, 90% invalid
//! workload so the `−1` path dominates) and reports every governor's
//! measured unchecked fraction.

#![forbid(unsafe_code)]

use prb_bench::claims::{e2_profiles, isolated_rate, protocol_unchecked};
use prb_bench::{pm, run_seeds, seed_list, Args, Table};
use prb_reputation::screening::prob_unchecked;

fn main() {
    let args = Args::parse();
    // Shared `--trace-out FILE` flag: one traced run of a representative
    // deployment (JSONL trace + summary) instead of the sweeps.
    if prb_bench::run_traced(&args, 10, 2, || prb_bench::traced_default_sim(100)) {
        return;
    }
    println!("# E2 — unchecked probability vs the Lemma 2 bound\n");

    // Part 1: the screening rule in isolation.
    let profiles = e2_profiles();
    let mut t1 = Table::new(
        "screening rule in isolation (100k samples per cell)",
        &[
            "profile",
            "f",
            "measured P[unchecked]",
            "analytic Σf·w²/W²",
            "bound f",
            "≤ f?",
        ],
    );
    for (name, reports) in &profiles {
        for f in [0.2, 0.5, 0.8] {
            let measured = isolated_rate(reports, f, 100_000, 42);
            let analytic = prob_unchecked(reports, f);
            t1.row(vec![
                (*name).into(),
                format!("{f:.1}"),
                format!("{measured:.4}"),
                format!("{analytic:.4}"),
                format!("{f:.1}"),
                (measured <= f + 0.01).to_string(),
            ]);
        }
    }
    t1.print();

    // Part 2: the full protocol.
    let seeds = seed_list(7, args.get_or("seeds", 10));
    let rounds = args.get_or("rounds", 12u32);
    let mut t2 = Table::new(
        "full protocol: measured unchecked fraction per governor (mean ± std over seeds)",
        &["f", "unchecked fraction", "max over governors", "bound f"],
    );
    for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let runs = run_seeds(&seeds, |seed| protocol_unchecked(seed, f, rounds));
        let means: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let maxes: Vec<f64> = runs.iter().map(|r| r.1).collect();
        t2.row(vec![
            format!("{f:.1}"),
            pm(&means),
            format!("{:.3}", maxes.iter().cloned().fold(0.0, f64::max)),
            format!("{f:.1}"),
        ]);
    }
    t2.print();
    println!("Interpretation: every measured rate sits at the analytic value and");
    println!("below the Lemma 2 bound; the single-reporter worst case makes the");
    println!("bound tight (measured ≈ f). In the full protocol with r = 4 honest");
    println!("equal-weight reporters the rate concentrates near f/r, far under f.");
}
