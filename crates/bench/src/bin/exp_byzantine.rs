//! **E12 — byzantine governors: fault injection with accountable
//! equivocation evidence.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_byzantine [--seeds 3] [--rounds 10]
//!     [--quick] [--bench-out BENCH_byzantine.json]
//! ```
//!
//! §2 assumes governors follow the protocol; this experiment drops that
//! assumption for a minority and measures what the accountability layer
//! buys. A 7-governor committee runs with `b ∈ 0..=⌈m/3⌉` byzantine
//! members (always the highest indices — governor 0 stays honest as the
//! driver's bookkeeping replica), each byzantine governor a sleeper that
//! behaves honestly until round 2 and then follows one of four modes:
//!
//! - **equivocate**: double-sign two conflicting blocks for the same
//!   serial and split-send them across the committee,
//! - **invalid**: smuggle a forged (unauthenticated) entry into led
//!   proposals,
//! - **censor**: drop half the collected entries from led proposals,
//! - **silent**: mint no election claims at all (crash-equivalent).
//!
//! Hard asserts: honest-governor chain prefixes stay byte-identical and
//! the committee keeps committing for `b < m/3`; every equivocation is
//! detected from the self-verifying evidence and its culprit expelled on
//! every honest node within one round of the crime; forged proposals are
//! rejected and their proposer convicted from its own signed header;
//! censorship and silence cause no expulsions
//! (they are tolerated, not provable); and two identical runs produce
//! byte-identical ledgers and identical `byzantine.*` counter values.
//! The machine-readable summary is written to `BENCH_byzantine.json`
//! (override with `--bench-out`); `--quick` trims the sweep to a single
//! seed for CI smoke runs.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::rc::Rc;

use prb_bench::{mean, run_seeds, seed_list, Args, Table};
use prb_core::behavior::GovernorProfile;
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;
use prb_obs::Obs;

/// Committee size. `⌈m/3⌉ = 3` byzantine governors at most.
const M: u32 = 7;
/// Round the sleeper profiles wake up and start misbehaving.
const SLEEPER_ROUND: u64 = 2;
/// The `byzantine.*` observability counters compared across the
/// determinism re-runs.
const COUNTERS: [&str; 9] = [
    "byzantine.equivocations_sent",
    "byzantine.equivocations_detected",
    "byzantine.evidence_broadcast",
    "byzantine.evidence_received",
    "byzantine.expulsions",
    "byzantine.invalid_proposals_sent",
    "byzantine.invalid_blocks_rejected",
    "byzantine.censored_txs",
    "byzantine.blocks_ignored",
];

fn profile_for(mode: &str) -> GovernorProfile {
    let p = match mode {
        "equivocate" => GovernorProfile::equivocator(),
        "invalid" => GovernorProfile::invalid_proposer(),
        "censor" => GovernorProfile::censor(),
        "silent" => GovernorProfile::silent(),
        other => panic!("unknown mode {other}"),
    };
    p.sleeper(SLEEPER_ROUND)
}

/// Everything one run reports.
struct ByzRun {
    committed_tx: u64,
    prefix_agree: bool,
    liveness: bool,
    equivocations_sent: u64,
    /// Every acting equivocator was expelled on every honest node.
    detected_everywhere: bool,
    /// Per (honest node, culprit): expulsion round − crime round.
    detection_latencies: Vec<u64>,
    invalid_sent: u64,
    invalid_rejected: u64,
    censored: u64,
    silent_rounds: u64,
    /// Expulsions recorded by honest nodes (any culprit).
    expulsions_by_honest: u64,
    /// Governor 0's exported ledger bytes (determinism witness).
    ledger: Vec<u8>,
    /// Snapshot of [`COUNTERS`] (determinism witness).
    counters: Vec<u64>,
}

fn run_once(seed: u64, rounds: u32, mode: &str, b: u32) -> ByzRun {
    let mut profiles = vec![GovernorProfile::honest(); M as usize];
    for g in M - b..M {
        profiles[g as usize] = profile_for(mode);
    }
    let cfg = ProtocolConfig {
        governors: M,
        verify_blocks: true,
        reliable_delivery: true,
        governor_profiles: profiles,
        seed,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let obs = Obs::counting();
    sim.set_obs(Rc::clone(&obs));
    sim.run(rounds);
    sim.run_drain_rounds(2);
    // Let the final round's dissemination, echoes, and evidence land.
    sim.settle(3 * cfg.round_ticks());

    let honest: Vec<u32> = (0..M - b).collect();
    let byz: Vec<u32> = (M - b..M).collect();
    let head = sim.governor(0).chain().height();
    let committed_tx = {
        let chain = sim.governor(0).chain();
        (1..=head)
            .map(|s| chain.retrieve(s).expect("contiguous chain").entries.len() as u64)
            .sum()
    };

    let mut detected_everywhere = true;
    let mut detection_latencies = Vec::new();
    let mut equivocations_sent = 0;
    let mut invalid_sent = 0;
    let mut censored = 0;
    let mut silent_rounds = 0;
    for &c in &byz {
        let mc = sim.metrics(c);
        equivocations_sent += mc.equivocations_sent;
        invalid_sent += mc.invalid_proposals_sent;
        censored += mc.censored_txs;
        silent_rounds += mc.silent_rounds;
        if mc.equivocations_sent >= 1 {
            let crime = mc
                .first_equivocation_round
                .expect("equivocations_sent implies a first round");
            for &g in &honest {
                match sim.metrics(g).expulsion_round.get(&c) {
                    Some(&r) => detection_latencies.push(r.saturating_sub(crime)),
                    None => detected_everywhere = false,
                }
            }
        }
    }
    let mut invalid_rejected = 0;
    let mut expulsions_by_honest = 0;
    for &g in &honest {
        let m = sim.metrics(g);
        invalid_rejected += m.invalid_blocks_rejected;
        expulsions_by_honest += m.expulsions;
    }

    ByzRun {
        committed_tx,
        prefix_agree: sim.chains_prefix_agree(&honest),
        liveness: 2 * head >= u64::from(rounds),
        equivocations_sent,
        detected_everywhere,
        detection_latencies,
        invalid_sent,
        invalid_rejected,
        censored,
        silent_rounds,
        expulsions_by_honest,
        ledger: sim.governor(0).chain().export(),
        counters: COUNTERS
            .iter()
            .map(|name| obs.metrics().counter(name))
            .collect(),
    }
}

/// Sums a counter over runs.
fn total(runs: &[ByzRun], f: impl Fn(&ByzRun) -> u64) -> u64 {
    runs.iter().map(f).sum()
}

fn json_bool(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let rounds = args.get_or("rounds", 10u32);
    let seeds = seed_list(120, if quick { 1 } else { args.get_or("seeds", 3) });
    let out_path = args.get("bench-out").unwrap_or("BENCH_byzantine.json");
    let modes = ["equivocate", "invalid", "censor", "silent"];
    let bs: &[u32] = if quick { &[1, 3] } else { &[1, 2, 3] };
    // b < m/3 is the accountability envelope: safety and liveness are
    // asserted inside it, reported as data at the b = ⌈m/3⌉ boundary.
    let b_envelope = (M - 1) / 3;

    println!("# E12 — byzantine governors, equivocation evidence, expulsion\n");

    // --- Fault-free baseline --------------------------------------------
    let baseline_runs = run_seeds(&seeds, |s| run_once(s, rounds, "equivocate", 0));
    for r in &baseline_runs {
        assert!(r.prefix_agree, "baseline prefixes diverged");
        assert!(r.liveness, "baseline committee stalled");
        assert_eq!(r.expulsions_by_honest, 0, "baseline expelled somebody");
    }
    let baseline_tx = mean(
        &baseline_runs
            .iter()
            .map(|r| r.committed_tx as f64)
            .collect::<Vec<_>>(),
    );
    println!(
        "baseline (b = 0): {baseline_tx:.1} committed tx over {} round(s), \
         honest prefixes byte-identical\n",
        rounds
    );

    // --- Mode × b sweep -------------------------------------------------
    let mut table = Table::new(
        &format!(
            "byzantine sweep: {M}-governor committee, b sleepers wake at round \
             {SLEEPER_ROUND} (mean over {} seed(s))",
            seeds.len()
        ),
        &[
            "mode",
            "b",
            "committed tx",
            "vs baseline",
            "equivocations",
            "expelled everywhere",
            "latency (rounds)",
            "forged rejected",
            "prefix agree",
            "live",
        ],
    );
    let mut rows = Vec::new();
    for mode in modes {
        for &b in bs {
            let runs = run_seeds(&seeds, |s| run_once(s, rounds, mode, b));
            let in_envelope = b <= b_envelope;
            for r in &runs {
                if in_envelope {
                    assert!(
                        r.prefix_agree,
                        "honest prefixes diverged (mode {mode}, b {b})"
                    );
                    assert!(r.liveness, "committee stalled (mode {mode}, b {b})");
                }
                // Accountability holds at any b: equivocation evidence is
                // self-verifying, so detection needs no quorum.
                assert!(
                    r.detected_everywhere,
                    "an equivocator escaped expulsion (mode {mode}, b {b})"
                );
                for &lat in &r.detection_latencies {
                    assert!(lat <= 1, "detection took {lat} rounds (mode {mode}, b {b})");
                }
                if r.invalid_sent >= 1 {
                    assert!(
                        r.invalid_rejected >= 1,
                        "a forged proposal went unrejected (mode {mode}, b {b})"
                    );
                }
                if mode == "censor" || mode == "silent" {
                    // Tolerated misbehaviour: nothing provable, nobody expelled.
                    assert_eq!(
                        r.expulsions_by_honest, 0,
                        "an unprovable fault triggered an expulsion (mode {mode}, b {b})"
                    );
                }
            }
            let committed = mean(
                &runs
                    .iter()
                    .map(|r| r.committed_tx as f64)
                    .collect::<Vec<_>>(),
            );
            let rel = if baseline_tx > 0.0 {
                committed / baseline_tx
            } else {
                0.0
            };
            let lats: Vec<f64> = runs
                .iter()
                .flat_map(|r| r.detection_latencies.iter().map(|&l| l as f64))
                .collect();
            table.row(vec![
                mode.into(),
                format!("{b}"),
                format!("{committed:.1}"),
                format!("{rel:.2}×"),
                format!("{}", total(&runs, |r| r.equivocations_sent)),
                if runs.iter().all(|r| r.detected_everywhere) {
                    "yes"
                } else {
                    "no"
                }
                .into(),
                if lats.is_empty() {
                    "—".into()
                } else {
                    format!("{:.2}", mean(&lats))
                },
                format!("{}", total(&runs, |r| r.invalid_rejected)),
                if runs.iter().all(|r| r.prefix_agree) {
                    "yes"
                } else {
                    "no"
                }
                .into(),
                if runs.iter().all(|r| r.liveness) {
                    "yes"
                } else {
                    "no"
                }
                .into(),
            ]);
            rows.push((mode, b, committed, rel, lats, runs));
        }
        // Each mode's sleepers must actually have fired somewhere in the
        // sweep, or the asserts above were vacuous.
        let mode_rows = rows.iter().filter(|(m, ..)| *m == mode);
        let acted: u64 = mode_rows
            .flat_map(|(.., runs)| runs.iter())
            .map(|r| match mode {
                "equivocate" => r.equivocations_sent,
                "invalid" => r.invalid_sent,
                "censor" => r.censored,
                "silent" => r.silent_rounds,
                _ => unreachable!(),
            })
            .sum();
        assert!(acted >= 1, "no {mode} governor ever acted across the sweep");
    }
    table.print();

    // --- Two-run determinism --------------------------------------------
    // Same seed, same schedule, twice: the ledgers must be byte-identical
    // and the byzantine.* counters must match exactly.
    let mut ledger_identical = true;
    let mut counters_identical = true;
    for mode in modes {
        let a = run_once(seeds[0], rounds, mode, 1);
        let b = run_once(seeds[0], rounds, mode, 1);
        ledger_identical &= a.ledger == b.ledger;
        counters_identical &= a.counters == b.counters;
    }
    assert!(
        ledger_identical,
        "two identical runs exported different ledgers"
    );
    assert!(
        counters_identical,
        "two identical runs disagreed on byzantine.* counters"
    );
    println!(
        "determinism: ledgers and byzantine.* counters byte-identical across \
         repeated runs of every mode\n"
    );

    println!("Interpretation: equivocation is the one provable crime — conflicting");
    println!("signed headers assemble into self-verifying evidence that convicts");
    println!("the culprit on every honest node within a round, slashes its stake,");
    println!("and recomputes the election quorum without it. Forged proposals are");
    println!("rejected on arrival and convict their proposer too: the signed");
    println!("header over the garbage block is self-incriminating. Censorship and");
    println!("silence degrade throughput but produce no false expulsions: the");
    println!("committee tolerates what it cannot prove.");

    // --- BENCH_byzantine.json -------------------------------------------
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"byzantine\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"governors\": {M}, \"sleeper_round\": {SLEEPER_ROUND}, \
         \"rounds\": {rounds}, \"seeds\": {}, \"b_values\": {bs:?}, \
         \"verify_blocks\": true, \"reliable_delivery\": true}},",
        seeds.len()
    );
    let _ = writeln!(
        out,
        "  \"baseline\": {{\"committed_tx_mean\": {baseline_tx}}},"
    );
    let _ = writeln!(out, "  \"sweep\": [");
    for (i, (mode, b, committed, rel, lats, runs)) in rows.iter().enumerate() {
        let latency = if lats.is_empty() {
            "null".to_string()
        } else {
            format!("{:.4}", mean(lats))
        };
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{mode}\", \"b\": {b}, \"committed_tx_mean\": {committed}, \
             \"throughput_vs_baseline\": {rel:.4}, \"equivocations_sent\": {}, \
             \"detected_everywhere\": {}, \"detection_latency_rounds_mean\": {latency}, \
             \"invalid_sent\": {}, \"invalid_rejected\": {}, \"censored_txs\": {}, \
             \"silent_rounds\": {}, \"expulsions_by_honest\": {}, \"prefix_agree\": {}, \
             \"liveness\": {}}}{}",
            total(runs, |r| r.equivocations_sent),
            json_bool(runs.iter().all(|r| r.detected_everywhere)),
            total(runs, |r| r.invalid_sent),
            total(runs, |r| r.invalid_rejected),
            total(runs, |r| r.censored),
            total(runs, |r| r.silent_rounds),
            total(runs, |r| r.expulsions_by_honest),
            json_bool(runs.iter().all(|r| r.prefix_agree)),
            json_bool(runs.iter().all(|r| r.liveness)),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"determinism\": {{\"ledger_identical\": {}, \"counters_identical\": {}}},",
        json_bool(ledger_identical),
        json_bool(counters_identical)
    );
    // The asserts above panic on violation, so reaching this point means
    // every invariant held (prefix agreement and liveness are asserted for
    // b < m/3, the accountability envelope; b = ⌈m/3⌉ is data only).
    let _ = writeln!(
        out,
        "  \"asserts\": {{\"honest_prefix_agreement_b_lt_third\": \"pass\", \
         \"liveness_b_lt_third\": \"pass\", \
         \"equivocators_expelled_within_one_round\": \"pass\", \
         \"forged_proposals_rejected\": \"pass\", \
         \"no_expulsions_without_evidence\": \"pass\", \
         \"two_run_determinism\": \"pass\"}}"
    );
    out.push_str("}\n");
    std::fs::write(out_path, &out).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwritten to {out_path}");
}
