//! **E15 — open-loop scale: the sustained-throughput knee at 10⁵–10⁶
//! simulated providers.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_scale            # full: 2·10⁵ providers
//! cargo run --release -p prb-bench --bin exp_scale -- --quick # CI: 10⁴ providers
//! cargo run --release -p prb-bench --bin exp_scale -- \
//!     [--providers N] [--pool N] [--rounds N] [--rates 8,16,24,32,40] \
//!     [--seed N] [--invalid-rate F] [--bench-out BENCH_scale.json] [--no-wall]
//! ```
//!
//! The closed-loop driver generates `tx_per_provider` per round — load
//! and capacity move together, so it can never show where the protocol
//! *saturates*. This harness drives **open-loop** arrival: a
//! [`ScaleWorkload`] injects transactions at a configured rate
//! (tx/sim-tick) regardless of what the chain absorbs, the collectors'
//! bounded mempools shed the overflow accountably, and the sweep walks
//! the rate axis to find the knee — the highest rate the deployment
//! sustains with zero shed and full commitment.
//!
//! Every rate leg hard-asserts the E15 closing invariants:
//!
//! 1. **Zero unaccounted transactions** — `submitted == committed +
//!    dropped` in the lifecycle tracker and no open traces after drain.
//! 2. **Bounded memory** — every pool's high-water mark is within its
//!    configured capacity.
//! 3. **Counter reconciliation** — per-node shed counters equal the obs
//!    metrics (`mempool.shed`, `gov.pending.shed`).
//!
//! plus a same-seed two-run ledger byte-identity check on the first leg.
//! `--no-wall` omits the wall-clock section from `BENCH_scale.json`, so
//! two same-seed runs of the document are byte-identical (the CI
//! determinism check diffs exactly that form).

#![forbid(unsafe_code)]

use prb_bench::Args;
use prb_core::config::{ProtocolConfig, RevealPolicy};
use prb_core::scale::{PoolStats, ScaleSim};
use prb_obs::Obs;
use prb_workload::ScaleWorkload;

/// Everything one rate leg produced. `wall_ns` is the only
/// non-deterministic field; the JSON writer segregates it.
struct Leg {
    rate: f64,
    injected: u64,
    committed: u64,
    dropped: u64,
    shed_mempool: u64,
    shed_pending: u64,
    retry_dropped: u64,
    mempool_high_water: usize,
    pending_high_water: usize,
    drain_rounds: u32,
    /// Commit latency percentiles in sim ticks (submit → first commit).
    lat_p50: u64,
    lat_p99: u64,
    lat_p999: u64,
    /// Committed tx per sim-second (1 tick = 1 µs convention).
    sim_tx_per_sec: f64,
    /// Wall-clock nanoseconds spent inside the arrival+drain rounds.
    wall_ns: u64,
    ledger_hash_hex: String,
}

fn scale_config(args: &Args, quick: bool) -> (ProtocolConfig, u32) {
    let providers: u32 = args.get_or("providers", if quick { 10_000 } else { 200_000 });
    let collectors: u32 = args.get_or("collectors", 50);
    let replication: u32 = args.get_or("replication", 2);
    let b_limit: usize = args.get_or("b-limit", 4096);
    // Admission aligned with block capacity: each collector's mempool
    // holds its share of one block (`b_limit · r / n`), so over-rate
    // traffic sheds accountably at the edge instead of accumulating in
    // the governors' ready buffers.
    let share = (b_limit * replication as usize).div_ceil(collectors as usize);
    let mempool_capacity: usize = args.get_or("mempool-capacity", share.max(1));
    let cfg = ProtocolConfig {
        providers,
        collectors,
        governors: args.get_or("governors", 4),
        replication,
        b_limit,
        tx_per_provider: 0,
        open_loop: true,
        reveal: RevealPolicy::ArgueOnly,
        mempool_capacity,
        seed: args.get_or("seed", 150),
        ..Default::default()
    };
    let pool: u32 = args.get_or("pool", 64);
    (cfg, pool)
}

fn run_leg(cfg: &ProtocolConfig, pool: u32, rate: f64, rounds: u32, invalid_rate: f64) -> Leg {
    let mut sim = ScaleSim::new(cfg.clone(), pool).expect("valid scale config");
    sim.set_obs(Obs::counting());
    let mut wl = ScaleWorkload::for_sim(&sim, invalid_rate);
    let ticks = sim.round_ticks();

    let wall = std::time::Instant::now();
    for _ in 0..rounds {
        let t0 = sim.next_round_start();
        let arrivals = wl.window(t0, ticks, rate);
        sim.run_round(arrivals);
    }
    let drain_rounds = sim.drain(256);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    assert!(
        sim.drained(),
        "rate {rate}: queues failed to drain within 256 arrival-free rounds"
    );

    // Invariant 1: zero unaccounted transactions.
    let counts = sim.obs().lifecycle_counts();
    assert_eq!(
        counts.submitted,
        sim.injected(),
        "rate {rate}: tracker lost submissions"
    );
    assert_eq!(
        counts.committed + counts.dropped,
        counts.submitted,
        "rate {rate}: submitted != committed + dropped"
    );
    assert_eq!(counts.open, 0, "rate {rate}: open traces after drain");
    let open = sim.obs().open_traces();
    assert!(open.is_empty(), "rate {rate}: {} open traces", open.len());

    // Invariant 2: bounded memory.
    let mempool: PoolStats = sim.mempool_stats();
    let pending: PoolStats = sim.pending_stats();
    let retry: PoolStats = sim.retry_stats();
    assert!(
        mempool.high_water <= cfg.mempool_capacity,
        "rate {rate}: mempool high-water {} exceeds capacity {}",
        mempool.high_water,
        cfg.mempool_capacity
    );
    assert!(
        pending.high_water <= cfg.pending_capacity,
        "rate {rate}: pending high-water {} exceeds capacity {}",
        pending.high_water,
        cfg.pending_capacity
    );

    // Invariant 3: per-node shed counters reconcile with the obs metrics.
    let metrics = sim.obs().metrics();
    assert_eq!(
        metrics.counter("mempool.shed"),
        mempool.shed,
        "rate {rate}: mempool.shed counter out of sync"
    );
    assert_eq!(
        metrics.counter("gov.pending.shed"),
        pending.shed,
        "rate {rate}: gov.pending.shed counter out of sync"
    );

    assert!(sim.chains_agree(), "rate {rate}: governors diverged");

    let lat = metrics.histogram("lat.submit_to_commit");
    let (p50, p99, p999) = lat
        .as_ref()
        .map(|h| (h.p50(), h.p99(), h.p999()))
        .unwrap_or_default();
    let total_ticks = (sim.rounds_run() * ticks).max(1);
    let ledger_hash_hex = prb_crypto::hex::encode(sim.governor(0).chain().latest().hash().as_ref());
    Leg {
        rate,
        injected: sim.injected(),
        committed: counts.committed,
        dropped: counts.dropped,
        shed_mempool: mempool.shed,
        shed_pending: pending.shed,
        retry_dropped: retry.shed,
        mempool_high_water: mempool.high_water,
        pending_high_water: pending.high_water,
        drain_rounds,
        lat_p50: p50,
        lat_p99: p99,
        lat_p999: p999,
        sim_tx_per_sec: counts.committed as f64 / (total_ticks as f64 / 1e6),
        wall_ns,
        ledger_hash_hex,
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".into()
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let no_wall = args.flag("no-wall");
    let (cfg, pool) = scale_config(&args, quick);
    let rounds: u32 = args.get_or("rounds", if quick { 5 } else { 20 });
    let invalid_rate: f64 = args.get_or("invalid-rate", 0.0);
    let rates: Vec<f64> = args
        .get("rates")
        .map(|s| {
            s.split(',')
                .map(|r| r.trim().parse().expect("numeric rate"))
                .collect()
        })
        .unwrap_or_else(|| {
            if quick {
                vec![8.0, 24.0, 48.0]
            } else {
                vec![4.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0]
            }
        });
    let ticks = cfg.round_ticks();

    println!(
        "# E15 — open-loop scale: l = {} providers over {} collectors / {} governors",
        cfg.providers, cfg.collectors, cfg.governors
    );
    println!(
        "round = {ticks} ticks, b_limit = {}, mempool = {}/collector, {} signing identities\n",
        cfg.b_limit, cfg.mempool_capacity, pool
    );

    // Same-seed determinism: the cheapest leg twice, ledgers compared by
    // their head hash and the accounting by value.
    {
        let probe_rate = rates.first().copied().unwrap_or(4.0);
        let a = run_leg(&cfg, pool, probe_rate, rounds.min(3), invalid_rate);
        let b = run_leg(&cfg, pool, probe_rate, rounds.min(3), invalid_rate);
        assert_eq!(
            a.ledger_hash_hex, b.ledger_hash_hex,
            "same-seed runs produced different ledgers"
        );
        assert_eq!(
            (a.injected, a.committed, a.dropped),
            (b.injected, b.committed, b.dropped)
        );
        println!(
            "determinism probe @ rate {probe_rate}: two runs, one ledger ({}…)\n",
            &a.ledger_hash_hex[..16]
        );
    }

    let legs: Vec<Leg> = rates
        .iter()
        .map(|&rate| {
            let leg = run_leg(&cfg, pool, rate, rounds, invalid_rate);
            println!(
                "rate {:>5.1} tx/tick: injected {:>7}  committed {:>7}  shed {:>6}  \
                 p50/p99/p999 = {}/{}/{} ticks  sustained {:.0} tx/s(sim)",
                leg.rate,
                leg.injected,
                leg.committed,
                leg.shed_mempool + leg.shed_pending,
                leg.lat_p50,
                leg.lat_p99,
                leg.lat_p999,
                leg.sim_tx_per_sec,
            );
            leg
        })
        .collect();

    // The knee: the highest swept rate that lost nothing — no shed, no
    // dropped traces — i.e. open-loop arrival the deployment fully
    // absorbed. (Block packing bounds it near b_limit / round_ticks.)
    let knee = legs
        .iter()
        .filter(|l| l.shed_mempool + l.shed_pending == 0 && l.dropped == 0)
        .map(|l| l.rate)
        .fold(0.0f64, f64::max);
    let sustained = legs.iter().map(|l| l.sim_tx_per_sec).fold(0.0f64, f64::max);
    println!(
        "\nknee: {knee} tx/tick fully absorbed (block capacity {:.1} tx/tick); \
         peak sustained {sustained:.0} tx/s in sim time",
        cfg.b_limit as f64 / ticks as f64
    );

    // BENCH_scale.json — deterministic core first, wall-clock section
    // last and omissible (--no-wall) for byte-identity diffs.
    let path = args
        .get("bench-out")
        .unwrap_or("BENCH_scale.json")
        .to_owned();
    let mut out = String::from("{\n  \"bench\": \"scale\",\n");
    out.push_str("  \"schema\": \"prb-bench/scale-v1\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"providers\": {},\n", cfg.providers));
    out.push_str(&format!("  \"collectors\": {},\n", cfg.collectors));
    out.push_str(&format!("  \"governors\": {},\n", cfg.governors));
    out.push_str(&format!("  \"replication\": {},\n", cfg.replication));
    out.push_str(&format!("  \"signer_pool\": {pool},\n"));
    out.push_str(&format!("  \"b_limit\": {},\n", cfg.b_limit));
    out.push_str(&format!(
        "  \"mempool_capacity\": {},\n",
        cfg.mempool_capacity
    ));
    out.push_str(&format!(
        "  \"pending_capacity\": {},\n",
        cfg.pending_capacity
    ));
    out.push_str(&format!("  \"round_ticks\": {ticks},\n"));
    out.push_str(&format!("  \"rounds_per_leg\": {rounds},\n"));
    out.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    out.push_str(&format!(
        "  \"invalid_rate\": {},\n",
        json_f64(invalid_rate)
    ));
    out.push_str("  \"units\": {\"rate\": \"tx/tick\", \"latency\": \"sim ticks\", \"throughput\": \"tx/s at 1 tick = 1 us\"},\n");
    out.push_str("  \"legs\": [\n");
    for (i, l) in legs.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"rate\": {}, ", json_f64(l.rate)));
        out.push_str(&format!("\"injected\": {}, ", l.injected));
        out.push_str(&format!("\"committed\": {}, ", l.committed));
        out.push_str(&format!("\"dropped\": {}, ", l.dropped));
        out.push_str(&format!("\"shed_mempool\": {}, ", l.shed_mempool));
        out.push_str(&format!("\"shed_pending\": {}, ", l.shed_pending));
        out.push_str(&format!("\"retry_dropped\": {}, ", l.retry_dropped));
        out.push_str(&format!(
            "\"mempool_high_water\": {}, ",
            l.mempool_high_water
        ));
        out.push_str(&format!(
            "\"pending_high_water\": {}, ",
            l.pending_high_water
        ));
        out.push_str(&format!("\"drain_rounds\": {}, ", l.drain_rounds));
        out.push_str(&format!("\"commit_latency_p50\": {}, ", l.lat_p50));
        out.push_str(&format!("\"commit_latency_p99\": {}, ", l.lat_p99));
        out.push_str(&format!("\"commit_latency_p999\": {}, ", l.lat_p999));
        out.push_str(&format!(
            "\"sim_tx_per_sec\": {}, ",
            json_f64(l.sim_tx_per_sec)
        ));
        out.push_str(&format!("\"ledger_head\": \"{}\"", l.ledger_hash_hex));
        out.push_str(if i + 1 == legs.len() { "}\n" } else { "},\n" });
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"knee_rate\": {},\n", json_f64(knee)));
    out.push_str(&format!(
        "  \"block_capacity_rate\": {},\n",
        json_f64(cfg.b_limit as f64 / ticks as f64)
    ));
    out.push_str(&format!(
        "  \"peak_sim_tx_per_sec\": {},\n",
        json_f64(sustained)
    ));
    out.push_str("  \"hot_path_notes\": [\n");
    out.push_str("    \"provider_slot: O(s) linear scan per report replaced by binary search over the sorted slot list\",\n");
    out.push_str("    \"fan-out clones: provider broadcast, collector upload and governor broadcast now move the last copy instead of cloning every envelope (r-1 / m-2 clones per tx instead of r / m-1)\",\n");
    out.push_str("    \"hashing: governor pending/history/sig-memo, chain tx index and obs lifecycle tracker moved from SipHash/BTreeMap to a seeded deterministic Fx hasher (hash_seed_never_changes_the_ledger holds the consensus line)\",\n");
    out.push_str("    \"admission: bounded collector mempools + governor pending pool + retry queue shed oldest-first with tx.dropped{shed} accounting instead of growing without bound\"\n");
    out.push_str("  ]");
    if no_wall {
        out.push_str("\n}\n");
    } else {
        // Non-deterministic tail: everything below this key varies
        // run-to-run; strip it (or pass --no-wall) before diffing.
        out.push_str(",\n  \"wall_clock\": {\n");
        let total_wall_ns: u64 = legs.iter().map(|l| l.wall_ns).sum();
        out.push_str(&format!("    \"total_ns\": {total_wall_ns},\n"));
        out.push_str("    \"legs\": [\n");
        for (i, l) in legs.iter().enumerate() {
            // ns per sim tick over the leg converts sim-time latency to
            // wall-clock; committed over wall seconds is the honest
            // host-side throughput.
            let leg_ticks = ((rounds as u64 + u64::from(l.drain_rounds)) * ticks).max(1);
            let ns_per_tick = l.wall_ns as f64 / leg_ticks as f64;
            out.push_str("      {");
            out.push_str(&format!("\"rate\": {}, ", json_f64(l.rate)));
            out.push_str(&format!(
                "\"wall_ms\": {}, ",
                json_f64(l.wall_ns as f64 / 1e6)
            ));
            out.push_str(&format!(
                "\"wall_tx_per_sec\": {}, ",
                json_f64(l.committed as f64 / (l.wall_ns as f64 / 1e9).max(1e-9))
            ));
            out.push_str(&format!("\"ns_per_tick\": {}, ", json_f64(ns_per_tick)));
            out.push_str(&format!(
                "\"commit_latency_p50_ms\": {}, ",
                json_f64(l.lat_p50 as f64 * ns_per_tick / 1e6)
            ));
            out.push_str(&format!(
                "\"commit_latency_p99_ms\": {}, ",
                json_f64(l.lat_p99 as f64 * ns_per_tick / 1e6)
            ));
            out.push_str(&format!(
                "\"commit_latency_p999_ms\": {}",
                json_f64(l.lat_p999 as f64 * ns_per_tick / 1e6)
            ));
            out.push_str(if i + 1 == legs.len() { "}\n" } else { "},\n" });
        }
        out.push_str("    ]\n  }\n}\n");
    }
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("written to {path}");
}
