//! **E11 — robustness: graceful degradation and crash recovery under
//! faults.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_faults [--seeds 3] [--rounds 10]
//!     [--quick] [--bench-out BENCH_faults.json]
//! ```
//!
//! §3.1 assumes crash faults and message loss inside a synchrony budget;
//! this experiment drives the protocol through the fault schedules the
//! kernel can throw at it and measures how gracefully it degrades:
//!
//! - **drop sweep**: uniform message loss 0–0.5 with reliable delivery
//!   on; committed throughput vs the fault-free baseline plus the
//!   `net.retry.*` counters behind it,
//! - **crash recovery**: crash-recovery windows on a minority of
//!   governors (never governor 0 — the driver's bookkeeping replica);
//!   healed nodes must detect their stale height and resync to the live
//!   head via the anti-entropy chain sync,
//! - **partition heal**: one governor isolated from its peers for two
//!   rounds, then healed.
//!
//! Inside the graceful-degradation envelope (`drop ≤ 0.3`, crash and
//! partition schedules) every run asserts the safety invariant that all
//! governors hold byte-identical chain prefixes; beyond the envelope the
//! bounded retry budget can exhaust, so prefix agreement is reported as
//! data. Crash schedules assert that every crashed node resynced to the
//! live head, and the drop sweep asserts committed throughput at
//! `drop = 0.1` stays within 2× of the fault-free baseline. The machine-readable summary is written to
//! `BENCH_faults.json` (override with `--bench-out`); `--quick` trims the
//! sweep to a single seed for CI smoke runs.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::rc::Rc;

use prb_bench::{mean, run_seeds, seed_list, Args, Table};
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;
use prb_net::fault::{FaultPlan, Partition};
use prb_net::time::SimTime;
use prb_obs::Obs;

/// Governors crashed in the crash-recovery schedules: a minority of the
/// five, and never governor 0 (the driver reads committed blocks from it).
const CRASHED: [u32; 2] = [1, 2];
/// Governor isolated in the partition-heal schedule.
const ISOLATED: u32 = 4;

/// One fault schedule: uniform drop plus optional crash windows (rounds
/// 3..=5 on [`CRASHED`]) and an optional partition (rounds 7..=8 around
/// [`ISOLATED`]).
#[derive(Clone, Copy, Debug, Default)]
struct Schedule {
    drop: f64,
    crash: bool,
    partition: bool,
}

/// Everything one run reports.
struct FaultRun {
    committed_tx: u64,
    retry_sent: u64,
    retry_resent: u64,
    retry_exhausted: u64,
    sync_requested: u64,
    sync_recovered: u64,
    sync_abandoned: u64,
    duplicate_blocks: u64,
    recovery_ticks: Vec<u64>,
    prefix_agree: bool,
    resynced_to_head: bool,
}

fn run_once(seed: u64, rounds: u32, sched: Schedule) -> FaultRun {
    let cfg = ProtocolConfig {
        governors: 5,
        reliable_delivery: true,
        seed,
        ..Default::default()
    };
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let obs = Obs::counting();
    sim.set_obs(Rc::clone(&obs));
    let rt = cfg.round_ticks();
    let mut faults = FaultPlan::none();
    faults.drop_all(sched.drop);
    if sched.crash {
        for &g in &CRASHED {
            // Deaf and mute for rounds 3..=5, healed with rounds to spare.
            faults.crash_window(sim.governor_net_index(g), SimTime(2 * rt), SimTime(5 * rt));
        }
    }
    if sched.partition {
        let isolated = vec![sim.governor_net_index(ISOLATED)];
        let rest = (0..cfg.governors)
            .filter(|&g| g != ISOLATED)
            .map(|g| sim.governor_net_index(g))
            .collect();
        // Collectors and providers stay bystanders: the isolated governor
        // keeps hearing uploads but misses its peers' blocks.
        faults.partition(Partition {
            groups: vec![isolated, rest],
            from: SimTime(6 * rt),
            until: SimTime(8 * rt),
        });
    }
    sim.set_faults(faults);
    sim.run(rounds);
    sim.run_drain_rounds(2);
    // Let the final round's block dissemination (and any last sync
    // exchange) finish: the retry schedule spans ~4.5 rounds of backoff.
    sim.settle(5 * rt);

    let head = sim.governor(0).chain().height();
    let committed_tx = {
        let chain = sim.governor(0).chain();
        (1..=head)
            .map(|s| chain.retrieve(s).expect("contiguous chain").entries.len() as u64)
            .sum()
    };
    let affected: &[u32] = if sched.crash {
        &CRASHED
    } else if sched.partition {
        &[ISOLATED]
    } else {
        &[]
    };
    let mut run = FaultRun {
        committed_tx,
        retry_sent: obs.metrics().counter("net.retry.sent"),
        retry_resent: obs.metrics().counter("net.retry.resent"),
        retry_exhausted: obs.metrics().counter("net.retry.exhausted"),
        sync_requested: 0,
        sync_recovered: 0,
        sync_abandoned: 0,
        duplicate_blocks: 0,
        recovery_ticks: Vec::new(),
        prefix_agree: sim.chains_prefix_agree(&(0..cfg.governors).collect::<Vec<_>>()),
        resynced_to_head: affected
            .iter()
            .all(|&g| sim.governor(g).chain().height() == head),
    };
    for g in 0..cfg.governors {
        let m = sim.metrics(g);
        run.sync_requested += m.sync_requested;
        run.sync_recovered += m.sync_recovered;
        run.sync_abandoned += m.sync_abandoned;
        run.duplicate_blocks += m.duplicate_blocks;
        run.recovery_ticks.extend(&m.recovery_ticks);
    }
    run
}

/// Sums a counter over runs.
fn total(runs: &[FaultRun], f: impl Fn(&FaultRun) -> u64) -> u64 {
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
    let seeds = seed_list(90, if quick { 1 } else { args.get_or("seeds", 3) });
    let out_path = args.get("bench-out").unwrap_or("BENCH_faults.json");
    let drops: &[f64] = if quick {
        &[0.0, 0.1, 0.3]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    };

    println!("# E11 — robustness under message loss, crashes, and partitions\n");

    // --- Drop sweep -----------------------------------------------------
    let mut table = Table::new(
        "committed throughput vs uniform drop probability (reliable delivery on; mean over seeds)",
        &[
            "drop",
            "committed tx",
            "vs baseline",
            "retries sent",
            "resent",
            "exhausted",
            "prefix agree",
        ],
    );
    let mut drop_rows = Vec::new();
    let mut baseline = 0.0;
    let mut at_drop_01 = 0.0;
    for &drop in drops {
        let runs = run_seeds(&seeds, |s| {
            run_once(
                s,
                rounds,
                Schedule {
                    drop,
                    ..Default::default()
                },
            )
        });
        // Hard safety bar: within the graceful-degradation envelope
        // (drop ≤ 0.3) every run must keep byte-identical prefixes.
        // Beyond it the bounded retry budget (5 attempts) can exhaust,
        // so prefix agreement is reported as data instead of asserted.
        let prefix_agree_all = runs.iter().all(|r| r.prefix_agree);
        if drop <= 0.3 + 1e-9 {
            assert!(prefix_agree_all, "chain prefixes diverged at drop {drop}");
        }
        let committed = mean(
            &runs
                .iter()
                .map(|r| r.committed_tx as f64)
                .collect::<Vec<_>>(),
        );
        if drop == 0.0 {
            baseline = committed;
        }
        if (drop - 0.1).abs() < 1e-9 {
            at_drop_01 = committed;
        }
        let rel = if baseline > 0.0 {
            committed / baseline
        } else {
            0.0
        };
        table.row(vec![
            format!("{drop:.1}"),
            format!("{committed:.1}"),
            format!("{rel:.2}×"),
            format!("{}", total(&runs, |r| r.retry_sent)),
            format!("{}", total(&runs, |r| r.retry_resent)),
            format!("{}", total(&runs, |r| r.retry_exhausted)),
            if prefix_agree_all { "yes" } else { "no" }.into(),
        ]);
        drop_rows.push((drop, committed, rel, runs));
    }
    table.print();
    assert!(
        2.0 * at_drop_01 >= baseline,
        "throughput at drop 0.1 ({at_drop_01:.1}) fell below half the \
         fault-free baseline ({baseline:.1})"
    );

    // --- Crash recovery -------------------------------------------------
    let crash_drops: &[f64] = if quick { &[0.1] } else { &[0.0, 0.1, 0.3] };
    let mut table = Table::new(
        "crash recovery: governors 1 and 2 deaf for rounds 3..=5, then healed (totals over seeds)",
        &[
            "drop",
            "sync requested",
            "recovered",
            "abandoned",
            "dup blocks",
            "recovery ticks (mean)",
            "resynced to head",
        ],
    );
    let mut crash_rows = Vec::new();
    for &drop in crash_drops {
        let runs = run_seeds(&seeds, |s| {
            run_once(
                s,
                rounds,
                Schedule {
                    drop,
                    crash: true,
                    partition: false,
                },
            )
        });
        for r in &runs {
            assert!(
                r.prefix_agree,
                "chain prefixes diverged (crash, drop {drop})"
            );
            assert!(
                r.resynced_to_head,
                "a crashed governor failed to resync to the live head (drop {drop})"
            );
            assert!(
                r.sync_recovered >= 1,
                "no recovery completed despite crash windows (drop {drop})"
            );
        }
        let ticks: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.recovery_ticks.iter().map(|&t| t as f64))
            .collect();
        table.row(vec![
            format!("{drop:.1}"),
            format!("{}", total(&runs, |r| r.sync_requested)),
            format!("{}", total(&runs, |r| r.sync_recovered)),
            format!("{}", total(&runs, |r| r.sync_abandoned)),
            format!("{}", total(&runs, |r| r.duplicate_blocks)),
            format!("{:.0}", mean(&ticks)),
            "yes".into(),
        ]);
        crash_rows.push((drop, runs, ticks));
    }
    table.print();

    // --- Partition heal -------------------------------------------------
    let partition_runs = run_seeds(&seeds, |s| {
        run_once(
            s,
            rounds,
            Schedule {
                drop: 0.1,
                crash: false,
                partition: true,
            },
        )
    });
    for r in &partition_runs {
        assert!(r.prefix_agree, "chain prefixes diverged (partition heal)");
        assert!(
            r.resynced_to_head,
            "the isolated governor failed to rejoin the live head"
        );
    }
    println!(
        "partition heal (governor {ISOLATED} isolated rounds 7..=8, drop 0.1): \
         {} recoveries over {} seed(s), isolated governor back at the live head\n",
        total(&partition_runs, |r| r.sync_recovered),
        seeds.len()
    );

    println!("Interpretation: reliable delivery absorbs uniform loss — committed");
    println!("throughput degrades smoothly rather than collapsing, and retransmits");
    println!("(not divergence) pay for the loss. Healed crash windows and");
    println!("partitions trigger the governor sync state machine: every affected");
    println!("replica detects its stale height, pages the missing blocks from a");
    println!("peer, and ends byte-identical with the live prefix.");

    // --- BENCH_faults.json ----------------------------------------------
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"faults\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"governors\": 5, \"crashed_governors\": [1, 2], \
         \"isolated_governor\": {ISOLATED}, \"rounds\": {rounds}, \"seeds\": {}, \
         \"reliable_delivery\": true}},",
        seeds.len()
    );
    let _ = writeln!(out, "  \"drop_sweep\": [");
    for (i, (drop, committed, rel, runs)) in drop_rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"drop\": {drop}, \"committed_tx_mean\": {committed}, \
             \"throughput_vs_baseline\": {rel:.4}, \"retry_sent\": {}, \
             \"retry_resent\": {}, \"retry_exhausted\": {}, \"prefix_agree\": {}}}{}",
            total(runs, |r| r.retry_sent),
            total(runs, |r| r.retry_resent),
            total(runs, |r| r.retry_exhausted),
            json_bool(runs.iter().all(|r| r.prefix_agree)),
            if i + 1 < drop_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"crash_recovery\": [");
    for (i, (drop, runs, ticks)) in crash_rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"drop\": {drop}, \"sync_requested\": {}, \"sync_recovered\": {}, \
             \"sync_abandoned\": {}, \"duplicate_blocks\": {}, \
             \"recovery_ticks_mean\": {:.1}, \"resynced_to_head\": {}, \
             \"prefix_agree\": {}}}{}",
            total(runs, |r| r.sync_requested),
            total(runs, |r| r.sync_recovered),
            total(runs, |r| r.sync_abandoned),
            total(runs, |r| r.duplicate_blocks),
            mean(ticks),
            json_bool(runs.iter().all(|r| r.resynced_to_head)),
            json_bool(runs.iter().all(|r| r.prefix_agree)),
            if i + 1 < crash_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"partition_heal\": {{\"drop\": 0.1, \"sync_recovered\": {}, \
         \"resynced_to_head\": {}, \"prefix_agree\": {}}},",
        total(&partition_runs, |r| r.sync_recovered),
        json_bool(partition_runs.iter().all(|r| r.resynced_to_head)),
        json_bool(partition_runs.iter().all(|r| r.prefix_agree))
    );
    // The asserts above panic on violation, so reaching this point means
    // every invariant held (prefix agreement is asserted for drop ≤ 0.3,
    // the graceful-degradation envelope; higher drops are data only).
    let _ = writeln!(
        out,
        "  \"asserts\": {{\"prefix_agreement_drop_le_0.3\": \"pass\", \
         \"crashed_nodes_resynced\": \"pass\", \
         \"throughput_within_2x_at_drop_0.1\": \"pass\"}}"
    );
    out.push_str("}\n");
    std::fs::write(out_path, &out).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwritten to {out_path}");
}
