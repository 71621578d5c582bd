//! # prb-bench
//!
//! Shared machinery for the experiment binaries (`exp_*`): markdown table
//! rendering, summary statistics over seeds, a tiny CLI flag parser, and a
//! parallel multi-seed runner.
//!
//! Each experiment in DESIGN.md maps to one binary:
//!
//! | Experiment | Binary |
//! |---|---|
//! | E1 regret `O(√T)` + A1/A2 ablations | `exp_regret` |
//! | E2 unchecked fraction ≤ f | `exp_unchecked` |
//! | E3 Hoeffding tail | `exp_tail` |
//! | E4 end-to-end loss + A3 (U sweep) | `exp_loss` |
//! | E5 validation cost / throughput | `exp_throughput` |
//! | E6 message complexity + A4 | `exp_messages` |
//! | E7 incentives | `exp_incentives` |
//! | E8 election fairness | `exp_election` |
//! | E9 applications | `exp_apps` |
//! | E10 safety/liveness properties | `exp_properties` |
//! | E11 robustness under faults | `exp_faults` |
//! | everything | `exp_all` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod claims;
pub mod crypto_bench;
pub mod election;
pub mod properties;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use prb_core::behavior::{CollectorProfile, ProviderProfile};
use prb_core::config::{ProtocolConfig, RevealPolicy};
use prb_core::sim::Simulation;
use prb_obs::{JsonlRecorder, Obs, RingRecorder, TeeRecorder};

/// A markdown table under construction.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table as markdown. `|` inside headers or cells is
    /// escaped so it cannot break the column structure.
    pub fn to_markdown(&self) -> String {
        let esc = |cells: &[String]| {
            cells
                .iter()
                .map(|c| c.replace('|', "\\|"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", esc(&self.headers));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", esc(row));
        }
        out
    }

    /// Prints the markdown to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n−1 denominator; 0 for n < 2).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Formats `mean ± std` compactly.
pub fn pm(xs: &[f64]) -> String {
    format!("{:.2} ± {:.2}", mean(xs), std_dev(xs))
}

/// Runs `f(seed)` for every seed, in parallel across threads, preserving
/// seed order in the output.
pub fn run_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(seeds.len().max(1));
    let mut results: Vec<Option<T>> = (0..seeds.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let chunks = seeds.len().div_ceil(threads);
        for (chunk_idx, (seed_chunk, out_chunk)) in seeds
            .chunks(chunks)
            .zip(results.chunks_mut(chunks))
            .enumerate()
        {
            let f = &f;
            let _ = chunk_idx;
            scope.spawn(move || {
                for (seed, slot) in seed_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(*seed));
                }
                // The scope's join may return before this thread's
                // thread-locals are destroyed.
                prb_crypto::stats::fold();
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// Minimal `--key value` / `--flag` argument parser for the experiment
/// binaries.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    out.values.insert(name.to_owned(), value);
                }
                _ => out.flags.push(name.to_owned()),
            }
        }
        out
    }

    /// Whether `--name` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Parses `--name value` as `T`, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

/// Applies the shared dynamic-membership flags — `--join-rate`,
/// `--leave-rate`, `--bootstrap-rep`, `--decay-halflife` — onto `cfg`
/// (E17). Absent or malformed values leave the config's own defaults in
/// place, so a plain invocation keeps the static committee.
pub fn apply_churn_args(args: &Args, cfg: &mut ProtocolConfig) {
    cfg.join_rate = args.get_or("join-rate", cfg.join_rate);
    cfg.leave_rate = args.get_or("leave-rate", cfg.leave_rate);
    cfg.bootstrap_rep = args.get_or("bootstrap-rep", cfg.bootstrap_rep);
    cfg.decay_halflife = args.get_or("decay-halflife", cfg.decay_halflife);
}

/// The crypto scheme chosen by `--crypto` (default `sim`).
///
/// # Panics
///
/// Panics on an unknown scheme name.
pub fn crypto_from_args(args: &Args) -> prb_crypto::signer::CryptoScheme {
    let name = args.get("crypto").unwrap_or("sim");
    prb_crypto::signer::CryptoScheme::parse(name).unwrap_or_else(|| {
        panic!(
            "unknown crypto scheme {name}; use \
             sim|schnorr-256|schnorr-512|schnorr-2048|schnorr-3072|schnorr-4096"
        )
    })
}

/// Standard seed list for multi-seed experiments: `base..base+count`.
pub fn seed_list(base: u64, count: u64) -> Vec<u64> {
    (base..base + count).collect()
}

/// The standard small traced deployment: the default config with active
/// providers and one strong misreporter among the collectors, revealing
/// one round after commitment — every event kind has a chance to fire.
pub fn traced_default_sim(seed: u64) -> Simulation {
    let cfg = ProtocolConfig {
        seed,
        reveal: RevealPolicy::AfterRounds(1),
        ..Default::default()
    };
    let mut collectors = vec![CollectorProfile::honest(); cfg.collectors as usize];
    collectors[0] = CollectorProfile::misreporter(0.8);
    let providers = vec![ProviderProfile::honest_active(); cfg.providers as usize];
    Simulation::builder(cfg)
        .collector_profiles(collectors)
        .provider_profiles(providers)
        .build()
        .expect("default config is valid")
}

/// Runs `build()`'s deployment under a JSONL trace when the shared
/// `--trace-out FILE` flag was passed: `rounds` live rounds plus `drain`
/// drain rounds, then the event/phase summary and the trace ↔ kernel
/// reconciliation table. Returns `true` when a traced run happened (the
/// caller then typically skips its sweeps), `false` without the flag.
///
/// # Panics
///
/// Panics if the trace file cannot be created.
pub fn run_traced<F>(args: &Args, rounds: u32, drain: u32, build: F) -> bool
where
    F: FnOnce() -> Simulation,
{
    let Some(path) = args.get("trace-out") else {
        return false;
    };
    let recorder = JsonlRecorder::create(path)
        .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
    // Tee into a flight recorder so a hard-assert panic anywhere in the
    // run can still dump the last events for post-mortem.
    let ring = Rc::new(RingRecorder::new(FLIGHT_RING_CAPACITY));
    let tee = TeeRecorder::new(
        Rc::new(recorder),
        Rc::clone(&ring) as Rc<dyn prb_obs::Recorder>,
    );
    let obs = Obs::with_sink(Rc::new(tee));
    let mut sim = build();
    sim.set_obs(Rc::clone(&obs));
    with_flight_dump(&ring, || {
        sim.run(rounds);
        sim.run_drain_rounds(drain);
    });
    println!("{}", sim.obs_summary());
    let ok = print_reconciliation(&sim);
    println!(
        "trace written to {path}; reconciliation: {}",
        if ok { "OK" } else { "MISMATCH" }
    );
    true
}

/// Events the flight recorder keeps for a post-mortem dump.
pub const FLIGHT_RING_CAPACITY: usize = 512;

/// Runs `f`; when it panics (a failed `assert!` in an experiment's hard
/// checks, say), dumps the flight recorder's tail to stderr as JSONL
/// before resuming the unwind — the last events before death are the
/// first thing in the post-mortem.
pub fn with_flight_dump<R>(ring: &Rc<RingRecorder>, f: impl FnOnce() -> R) -> R {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    match result {
        Ok(r) => r,
        Err(payload) => {
            eprintln!(
                "\n=== flight recorder: last {} events before the failure ===",
                ring.len()
            );
            let mut err = std::io::stderr().lock();
            if let Err(e) = ring.dump_jsonl(&mut err) {
                eprintln!("(flight dump failed: {e})");
            }
            eprintln!("=== end flight recorder ===");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Prints the per-message-kind reconciliation of trace events against the
/// kernel's own `MessageStats`; `OK` on every row is the proof that the
/// trace misses nothing. Returns whether everything matched.
pub fn print_reconciliation(sim: &Simulation) -> bool {
    let mut table = Table::new(
        "trace ↔ kernel reconciliation (trace events / MessageStats)",
        &["msg kind", "sent", "delivered", "dropped", "status"],
    );
    let counts = sim.obs().msg_counts();
    let mut ok = true;
    for (kind, c) in &counts {
        let k = sim.net_stats().kind(kind);
        let row_ok = c.sent == k.sent && c.delivered == k.delivered && c.dropped == k.dropped;
        ok &= row_ok;
        table.row(vec![
            (*kind).to_owned(),
            format!("{}/{}", c.sent, k.sent),
            format!("{}/{}", c.delivered, k.delivered),
            format!("{}/{}", c.dropped, k.dropped),
            if row_ok { "OK" } else { "MISMATCH" }.to_owned(),
        ]);
    }
    table.print();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_wrong_arity() {
        Table::new("t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn table_escapes_pipes() {
        let mut t = Table::new("t", &["a|b", "c"]);
        t.row(vec!["x|y".into(), "z".into()]);
        let md = t.to_markdown();
        assert!(md.contains("| a\\|b | c |"), "{md}");
        assert!(md.contains("| x\\|y | z |"), "{md}");
        // The separator row is structural and stays unescaped.
        assert!(md.contains("|---|---|"), "{md}");
    }

    #[test]
    fn stats() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!(pm(&[1.0, 3.0]).contains("2.00"));
    }

    #[test]
    fn run_seeds_preserves_order() {
        let seeds = seed_list(10, 17);
        let out = run_seeds(&seeds, |s| s * 2);
        assert_eq!(out, seeds.iter().map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn args_parse_values_and_flags() {
        let args = Args::from_args(
            ["--rounds", "20", "--verbose", "--f", "0.5"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(args.get_or("rounds", 0u32), 20);
        assert_eq!(args.get_or::<f64>("f", 0.0), 0.5);
        assert!(args.flag("verbose"));
        assert!(!args.flag("quiet"));
        assert_eq!(args.get_or("missing", 7u32), 7);
    }

    #[test]
    fn stats_edge_cases() {
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(mean(&[4.5]), 4.5);
        let one = pm(&[4.5]);
        assert!(one.contains("4.50") && one.contains("0.00"), "{one}");
        assert_eq!(pm(&[]), "0.00 \u{b1} 0.00");
    }

    #[test]
    fn args_unknown_flag_and_missing_value() {
        let args = Args::from_args(["--rounds", "20"].into_iter().map(String::from));
        assert!(!args.flag("nope"));
        assert_eq!(args.get("nope"), None);
        // A trailing `--key` with no value parses as a bare flag, not a
        // value, and `get` does not see it.
        let args = Args::from_args(["--quick", "--seeds"].into_iter().map(String::from));
        assert!(args.flag("quick"));
        assert!(args.flag("seeds"));
        assert_eq!(args.get("seeds"), None);
        // Tokens without a `--` prefix (and not a value) are skipped.
        let args = Args::from_args(["stray", "--f", "0.5"].into_iter().map(String::from));
        assert_eq!(args.get_or::<f64>("f", 0.0), 0.5);
    }

    #[test]
    fn trace_out_passes_through_the_shared_parser() {
        let args = Args::from_args(
            ["--trace-out", "/tmp/t.jsonl", "--seeds", "3"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(args.get("trace-out"), Some("/tmp/t.jsonl"));
        assert_eq!(args.get_or("seeds", 0u32), 3);
        // Without the flag, run_traced declines immediately.
        let untraced = Args::from_args(["--seeds", "3"].into_iter().map(String::from));
        assert!(!run_traced(&untraced, 1, 0, || unreachable!(
            "must not build"
        )));
    }

    #[test]
    fn churn_flags_wire_into_the_config() {
        let args = Args::from_args(
            [
                "--join-rate",
                "0.1",
                "--leave-rate",
                "0.05",
                "--bootstrap-rep",
                "0.6",
                "--decay-halflife",
                "4",
            ]
            .into_iter()
            .map(String::from),
        );
        let mut cfg = ProtocolConfig::default();
        assert!(!cfg.churn_enabled());
        apply_churn_args(&args, &mut cfg);
        assert_eq!(cfg.join_rate, 0.1);
        assert_eq!(cfg.leave_rate, 0.05);
        assert_eq!(cfg.bootstrap_rep, 0.6);
        assert_eq!(cfg.decay_halflife, 4);
        assert!(cfg.churn_enabled());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn churn_flags_default_to_the_static_committee() {
        let args = Args::from_args(["--rounds", "5"].into_iter().map(String::from));
        let mut cfg = ProtocolConfig::default();
        apply_churn_args(&args, &mut cfg);
        assert!(!cfg.churn_enabled());
        assert_eq!(cfg.bootstrap_rep, 1.0);
        // A malformed value falls back to the config default instead of
        // silently enabling churn.
        let bad = Args::from_args(["--join-rate", "lots"].into_iter().map(String::from));
        apply_churn_args(&bad, &mut cfg);
        assert_eq!(cfg.join_rate, 0.0);
        assert!(!cfg.churn_enabled());
    }

    #[test]
    fn crypto_parsing() {
        let args = Args::from_args(["--crypto", "schnorr-256"].into_iter().map(String::from));
        assert_eq!(crypto_from_args(&args).name(), "test-256");
        let default = Args::default();
        assert_eq!(crypto_from_args(&default).name(), "sim");
    }
}
