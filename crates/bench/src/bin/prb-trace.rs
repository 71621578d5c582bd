//! **`prb-trace` — replay and analyze a `--trace-out` JSONL trace.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin prb-trace -- --in trace.jsonl \
//!     [--out BENCH_latency.json] [--timelines N] [--check] [--no-strict-propose]
//! ```
//!
//! Reads the trace any experiment wrote via the shared `--trace-out`
//! flag and prints the per-transaction lifecycle report: coverage,
//! per-stage and end-to-end latency percentiles (p50/p99/p999 in sim
//! ticks and rounds), phase attribution, and the critical path of a
//! committed transaction. `--out` additionally writes the deterministic
//! machine-readable `BENCH_latency.json`. `--timelines N` prints the
//! first N per-transaction timelines. `--check` replays the stream
//! through the shared lifecycle state-machine validator
//! (`prb_obs::lifecycle`); pass `--no-strict-propose` for traces from
//! byzantine (equivocating) runs, where a committed twin block's
//! proposal event names the other twin.

#![forbid(unsafe_code)]

use prb_bench::trace::{analyze, lifecycle_events, parse_trace, render_report, to_json};
use prb_bench::Args;
use prb_obs::lifecycle::{validate, Checks};

fn fmt_stage(at: Option<(u64, u64)>) -> String {
    match at {
        Some((t, r)) => format!("t={t} r={r}"),
        None => "-".into(),
    }
}

fn main() {
    let args = Args::parse();
    let Some(path) = args.get("in") else {
        eprintln!(
            "usage: prb-trace --in TRACE.jsonl [--out BENCH_latency.json] \
             [--timelines N] [--check] [--no-strict-propose]"
        );
        std::process::exit(2);
    };
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
    let events = parse_trace(&text).unwrap_or_else(|(line, e)| panic!("{path}:{line}: {e}"));
    println!(
        "# prb-trace: {path} ({} events, {} lines)\n",
        events.len(),
        text.lines().count()
    );

    if args.flag("check") {
        let checks = Checks {
            strict_propose: !args.flag("no-strict-propose"),
        };
        match validate(&lifecycle_events(&events), checks) {
            Ok(()) => println!("lifecycle state machine: OK\n"),
            Err(violations) => {
                eprintln!("lifecycle state machine: {} violations", violations.len());
                for v in violations.iter().take(20) {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
        }
    }

    let report = analyze(&events);
    println!("{}", render_report(&report));

    let n = args.get_or("timelines", 0usize);
    if n > 0 {
        println!("## first {n} transaction timelines");
        println!(
            "{:<20} {:>9} {:>14} {:>14} {:>14} {:>14} {:>14} dropped",
            "trace", "terminal", "submitted", "admitted", "screened", "proposed", "committed"
        );
        for tl in report.timelines.values().take(n) {
            println!(
                "{:<20} {:>9} {:>14} {:>14} {:>14} {:>14} {:>14} {}",
                format!("{:016x}", tl.trace),
                tl.terminal(),
                fmt_stage(tl.submitted),
                fmt_stage(tl.admitted),
                fmt_stage(tl.screened),
                fmt_stage(tl.proposed),
                fmt_stage(tl.committed),
                tl.dropped
                    .as_ref()
                    .map_or("-".into(), |(t, r)| format!("t={t} ({r})")),
            );
        }
        println!();
    }

    if let Some(out) = args.get("out") {
        std::fs::write(out, to_json(&report)).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("machine-readable artifact written to {out}");
    }
}
