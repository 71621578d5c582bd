//! **E13 — per-transaction lifecycle tracing, latency attribution, and
//! tracing overhead.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_latency [--quick] \
//!     [--rounds N] [--drain N] [--seed S] [--out BENCH_latency.json] \
//!     [--trace-out FILE] [--overhead-reps N] [--overhead-rounds N]
//! ```
//!
//! One traced run of the standard deployment, then **hard asserts**:
//!
//! 1. **Coverage** — every submitted transaction reaches a terminal
//!    lifecycle state (no trace is left open after the drain rounds),
//!    the replayed stream passes the shared state-machine validator,
//!    and no lifecycle event is orphaned.
//! 2. **Reconciliation** — per-stage event counts line up with
//!    independent ground truth: kernel `MessageStats` for the transport
//!    (`tx.submitted` × replication = `tx-broadcast` sends; every
//!    traced message kind matches the kernel's counters), governor
//!    protocol metrics for screening, and the committed ledgers for
//!    commits.
//! 3. **Determinism** — a second same-seed run produces a
//!    byte-identical `BENCH_latency.json`.
//! 4. **Overhead** — full tracing costs ≤ 5% wall-clock versus
//!    `Obs::off()` on a crypto-bearing deployment (fastest-of-N reps on
//!    both legs; the secure parameter set makes the round cost real).
//!
//! On any assert failure the flight recorder dumps the last events to
//! stderr before the process dies.

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use prb_bench::trace::{analyze, lifecycle_events, parse_trace, render_report, to_json};
use prb_bench::{print_reconciliation, with_flight_dump, Args, Table, FLIGHT_RING_CAPACITY};
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;
use prb_crypto::signer::CryptoScheme;
use prb_obs::lifecycle::{validate, Checks};
use prb_obs::{JsonlRecorder, Obs, Recorder, RingRecorder, TeeRecorder};

/// An in-memory trace sink the harness can read back after the run.
#[derive(Clone, Debug, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the standard traced deployment, returning the finished sim, the
/// JSONL trace text, and the flight-recorder ring.
fn traced_run(seed: u64, rounds: u32, drain: u32) -> (Simulation, String, Rc<RingRecorder>) {
    let buf = SharedBuf::default();
    let jsonl: Rc<dyn Recorder> = Rc::new(JsonlRecorder::new(buf.clone()));
    let ring = Rc::new(RingRecorder::new(FLIGHT_RING_CAPACITY));
    let tee = TeeRecorder::new(jsonl, Rc::clone(&ring) as Rc<dyn Recorder>);
    let obs = Obs::with_sink(Rc::new(tee));
    let mut sim = prb_bench::traced_default_sim(seed);
    sim.set_obs(Rc::clone(&obs));
    with_flight_dump(&ring, || {
        sim.run(rounds);
        sim.run_drain_rounds(drain);
    });
    obs.flush();
    let text = String::from_utf8(buf.0.borrow().clone()).expect("trace is UTF-8");
    (sim, text, ring)
}

/// Raw occurrence count of one event kind in the trace.
fn kind_count(events: &[prb_bench::trace::TraceEvent], kind: &str) -> u64 {
    events.iter().filter(|e| e.kind == kind).count() as u64
}

/// The overhead-leg deployment: the secure RFC 3526 parameter set makes
/// every round's crypto real wall-clock work, so the tracing share is
/// measured against an honest denominator.
fn overhead_sim(seed: u64) -> Simulation {
    let cfg = ProtocolConfig {
        providers: 4,
        collectors: 4,
        governors: 3,
        replication: 2,
        tx_per_provider: 2,
        crypto: CryptoScheme::schnorr_2048(),
        seed,
        ..Default::default()
    };
    Simulation::new(cfg).expect("valid config")
}

/// Fastest-of-`reps` wall-clock for `rounds` rounds, with tracing on or
/// off. The traced leg runs the full pipeline (JSONL into memory + the
/// flight ring) — exactly what `--trace-out` costs.
fn measure_leg(traced: bool, reps: u32, rounds: u32) -> std::time::Duration {
    (0..reps)
        .map(|_| {
            let mut sim = overhead_sim(424242);
            if traced {
                let jsonl: Rc<dyn Recorder> = Rc::new(JsonlRecorder::new(SharedBuf::default()));
                let ring: Rc<dyn Recorder> = Rc::new(RingRecorder::new(FLIGHT_RING_CAPACITY));
                sim.set_obs(Obs::with_sink(Rc::new(TeeRecorder::new(jsonl, ring))));
            }
            let start = std::time::Instant::now();
            sim.run(rounds);
            start.elapsed()
        })
        .min()
        .expect("reps >= 1")
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let rounds = args.get_or("rounds", if quick { 6 } else { 20u32 });
    let drain = args.get_or("drain", 3u32);
    let seed = args.get_or("seed", 100u64);
    let out_path = args.get("out").unwrap_or("BENCH_latency.json").to_owned();

    println!("# E13 — transaction lifecycle latency attribution\n");
    let (sim, text, ring) = traced_run(seed, rounds, drain);
    println!("{}", sim.obs_summary());

    if let Some(path) = args.get("trace-out") {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("trace written to {path} ({} lines)", text.lines().count());
    }

    // Every hard assert runs under the flight recorder: a failure dumps
    // the last events to stderr before the process dies.
    let json = with_flight_dump(&ring, || {
        // 1a. Transport reconciliation: every traced message kind matches
        // the kernel's own counters.
        assert!(
            print_reconciliation(&sim),
            "trace ↔ kernel message reconciliation failed"
        );

        // 1b. Full lifecycle coverage: nothing submitted is still open.
        let open = sim.obs().open_traces();
        assert!(
            open.is_empty(),
            "{} transactions never reached a terminal state: {:?}",
            open.len(),
            &open[..open.len().min(8)]
        );

        // 1c. The replayed stream obeys the lifecycle state machine.
        let events = parse_trace(&text)
            .unwrap_or_else(|(line, e)| panic!("trace line {line} failed to parse: {e}"));
        let typed = lifecycle_events(&events);
        if let Err(violations) = validate(&typed, Checks::default()) {
            panic!(
                "{} lifecycle violations; first: {}",
                violations.len(),
                violations[0]
            );
        }

        let report = analyze(&events);
        println!("{}", render_report(&report));
        assert_eq!(report.orphans, 0, "lifecycle events without a submission");

        // 2. Per-stage counts against independent ground truth.
        let counts = sim.obs().lifecycle_counts();
        assert_eq!(
            report.submitted, counts.submitted,
            "analyzer vs hub: submitted"
        );
        assert_eq!(
            report.committed, counts.committed,
            "analyzer vs hub: committed"
        );
        assert_eq!(counts.open, 0, "hub still tracks open transactions");

        let submitted_events = kind_count(&events, "tx.submitted");
        let cfg = sim.config();
        let broadcast_sent = sim.net_stats().kind("tx-broadcast").sent;
        assert_eq!(
            submitted_events * cfg.replication as u64,
            broadcast_sent,
            "each submission broadcasts to exactly `replication` collectors"
        );

        let screened_events = kind_count(&events, "gov.screened");
        let screened_metrics: u64 = (0..cfg.governors).map(|g| sim.metrics(g).screened).sum();
        assert_eq!(
            screened_events, screened_metrics,
            "gov.screened events vs governor metrics"
        );

        let committed_events = kind_count(&events, "tx.committed");
        let ledger_entries: u64 = (0..cfg.governors)
            .map(|g| {
                let chain = sim.governor(g).chain();
                (1..=chain.height())
                    .map(|s| chain.retrieve(s).expect("no gaps").entries.len() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(
            committed_events, ledger_entries,
            "tx.committed events vs total committed ledger entries"
        );

        let mut table = Table::new(
            "per-stage reconciliation (trace events vs ground truth)",
            &["stage", "trace", "ground truth", "source"],
        );
        table.row(vec![
            "submitted".into(),
            submitted_events.to_string(),
            (broadcast_sent / cfg.replication as u64).to_string(),
            "MessageStats tx-broadcast / replication".into(),
        ]);
        table.row(vec![
            "screened".into(),
            screened_events.to_string(),
            screened_metrics.to_string(),
            "Σ governor metrics.screened".into(),
        ]);
        table.row(vec![
            "committed".into(),
            committed_events.to_string(),
            ledger_entries.to_string(),
            "Σ ledger entries".into(),
        ]);
        table.print();

        // 3. Determinism: a second same-seed run yields byte-identical
        // trace and artifact.
        let (_sim2, text2, _ring2) = traced_run(seed, rounds, drain);
        assert_eq!(text, text2, "same seed, same trace bytes");
        let json = to_json(&report);
        let json2 = to_json(&analyze(&parse_trace(&text2).expect("second trace parses")));
        assert_eq!(json, json2, "same seed, same BENCH_latency.json bytes");
        json
    });

    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("machine-readable artifact written to {out_path}");

    // 4. Tracing overhead ≤ 5% of round wall-clock.
    let reps = args
        .get_or("overhead-reps", if quick { 2 } else { 3u32 })
        .max(1);
    let orounds = args.get_or("overhead-rounds", 2u32).max(1);
    let off = measure_leg(false, reps, orounds);
    let traced = measure_leg(true, reps, orounds);
    let overhead = traced.as_secs_f64() / off.as_secs_f64().max(1e-9) - 1.0;
    println!(
        "tracing overhead: off {:.2?}, traced {:.2?} over {orounds} rounds \
         (fastest of {reps}) → {:+.2}%",
        off,
        traced,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.05,
        "tracing overhead {:.2}% exceeds the 5% budget",
        overhead * 100.0
    );
    println!("\nall hard asserts passed: coverage, reconciliation, determinism, overhead");
}
