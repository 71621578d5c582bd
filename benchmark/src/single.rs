//! One workload, one repetition: the form `BENCHMARK.json`'s command runs.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the same seed untraced and then traced, and measures
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use prb_crypto::bigint::BigUint;
use prb_obs::{Obs, ObsHandle};

use crate::cli::{parse_flags, parsed};
use crate::layers::{self, Values};
use crate::spans::Spans;
use crate::workload::{self, Deployment, Kind, Ledger, ScratchDir, Timed};
use crate::{json, pace, spec, stats};

/// Set-ups (build + warm-up) timed for `setup_s`: at least
/// [`SETUP_REPS_MIN`], and more while they are cheap (until
/// [`SETUP_BUDGET_S`] is spent or [`SETUP_REPS_MAX`] are done). The median
/// is reported and the last one is the deployment the window runs on.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 31;
const SETUP_BUDGET_S: f64 = 1.5;

/// Builds the deployment and warms it up: everything before the window.
/// A traced pass hands in its hub, which goes on before the warm-up so
/// that the lifecycle accounting covers every submission.
fn set_up(
    kind: Kind,
    seed: u64,
    rounds: u32,
    dir: &Path,
    obs: Option<&ObsHandle>,
    spans: &mut Spans,
) -> (Deployment, f64) {
    spans.scope("setup", |spans| {
        let mut dep = Deployment::build(kind, seed, rounds, Some(dir));
        if let Some(obs) = obs {
            dep.set_obs(Rc::clone(obs));
        }
        workload::warm_up(&mut dep, spans);
        dep
    })
}

/// Genuinely valid submissions that are not on governor 0's ledger.
fn failed(dep: &Deployment, ledger: &Ledger) -> u64 {
    dep.valid_submitted().saturating_sub(ledger.valid)
}

/// One workload, one repetition: the form the driver runs.
pub fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["workload", "seed", "seconds", "trace"])?;
    let name: String = parsed(&flags, "workload", String::new())?;
    let kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = parsed(&flags, "seed", 11)?;
    let seconds: u64 = parsed(&flags, "seconds", spec::RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let traced = match parsed::<u8>(&flags, "trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let rounds = kind.rounds_for(seconds);
    println!(
        "# workload {} seed {seed} seconds {seconds} rounds {rounds} trace {}",
        kind.name(),
        u8::from(traced)
    );
    let pace = pace::wait_for_quiet(&workload::out_dir(), seconds);
    println!(
        "# pace {:.4} ms per unit, typically {}, waited {:.1} s for a quiet host",
        pace.reading_ms,
        pace.typical_ms
            .map_or("unknown".to_owned(), |t| format!("{t:.4}")),
        pace.waited_s
    );
    println!("# calib_ms {:.3}", calib_ms());
    let mut scratch = ScratchDir::create(kind.name()).map_err(|e| format!("scratch dir: {e}"))?;
    println!(
        "# scratch {} on {}",
        scratch.path().display(),
        workload::filesystem_of(scratch.path())
    );
    let result = if traced {
        traced_run(kind, seed, rounds, &scratch)
    } else {
        untraced_run(kind, seed, rounds, &scratch)
    };
    if !result.failures.is_empty() {
        // Leave the stores behind for inspection.
        scratch.keep();
    }
    for f in &result.failures {
        println!("# FAILED {f}");
    }
    println!("# head {}", result.head);
    println!("{}", result.to_json());
    if result.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} output checks failed", result.failures.len()))
    }
}

/// What one invocation reports.
struct SingleResult {
    head: String,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static spec::MetricDef, f64)>,
}

impl SingleResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(*v),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A fixed SHA-256 + modpow loop, printed with every run so host drift is
/// visible beside the numbers. It normalises nothing.
fn calib_ms() -> f64 {
    let t = Instant::now();
    let buf = [0x5au8; 4096];
    let mut acc = 0u8;
    for _ in 0..2000 {
        acc ^= prb_crypto::sha256(std::hint::black_box(&buf)).as_bytes()[0];
    }
    let modulus = BigUint::from_bytes_be(&[0xf1; 128]);
    let mut x = BigUint::from_u64(0x1234_5678_9abc_def1);
    let e = BigUint::from_bytes_be(&[0xa7; 32]);
    for _ in 0..40 {
        x = x.pow_mod(&e, &modulus);
    }
    std::hint::black_box((acc, x));
    t.elapsed().as_secs_f64() * 1e3
}

fn untraced_run(kind: Kind, seed: u64, rounds: u32, scratch: &ScratchDir) -> SingleResult {
    let mut spans = Spans::new(false);
    let mut setup_s = Vec::new();
    let mut dep = None;
    for i in 0..SETUP_REPS_MAX {
        if i >= SETUP_REPS_MIN && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
        // One deployment alive at a time, so set-up repetitions do not
        // raise the peak the window is charged with.
        drop(dep.take());
        let dir = scratch.path().join(format!("setup-{i}"));
        let (built, t) = set_up(kind, seed, rounds, &dir, None, &mut spans);
        setup_s.push(t);
        dep = Some(built);
    }
    let mut dep = dep.expect("at least one build");
    let timed = workload::run_window(kind, &mut dep, rounds, &mut spans, |_| {});
    let ledger = workload::read_ledger(&dep);
    let mut failures = workload::check_outputs(kind, &dep, &ledger, None);
    let (attempted, failed) = (dep.submitted(), failed(&dep, &ledger));
    let recovery_s = match workload::recover(kind, dep, seed, rounds, &mut spans) {
        Ok(s) => s,
        Err(e) => {
            failures.push(e);
            f64::NAN
        }
    };
    let round_ms = stats::median(&timed.round_s) * 1e3;
    // Sim ticks become wall-clock at the typical round's rate.
    let ms_per_tick = round_ms * timed.round_s.len() as f64 / timed.ticks as f64;
    let values: BTreeMap<&str, f64> = [
        ("setup_s", stats::median(&setup_s)),
        ("wall_tx_per_s", timed.tx_per_s()),
        ("round_wall_ms_p50", round_ms),
        (
            "commit_wall_ms_p50",
            stats::median(&ledger.commit_ticks) * ms_per_tick,
        ),
        ("peak_rss_mb", timed.peak_rss_mb),
        ("recovery_s", recovery_s),
    ]
    .into();
    SingleResult {
        head: ledger.head,
        attempted,
        failed,
        failures,
        metrics: spec::END_TO_END
            .iter()
            .map(|m| (m, values[m.name]))
            .collect(),
    }
}

fn traced_run(kind: Kind, seed: u64, rounds: u32, scratch: &ScratchDir) -> SingleResult {
    // The same seed untraced first: its head must equal the traced one,
    // and the wall-time difference is the tracing overhead.
    let untraced = {
        let mut spans = Spans::new(false);
        let dir = scratch.path().join("untraced");
        let (mut dep, _) = set_up(kind, seed, rounds, &dir, None, &mut spans);
        let timed = workload::run_window(kind, &mut dep, rounds, &mut spans, |_| {});
        (workload::read_ledger(&dep).head, timed.wall_s())
    };

    let mut spans = Spans::new(true);
    let (result, _) = spans.scope("workload", |spans| {
        let obs = Obs::counting();
        let dir = scratch.path().join("traced");
        let (mut dep, _) = set_up(kind, seed, rounds, &dir, Some(&obs), spans);
        // The window's own counts are the difference between its two ends.
        let opened = layers::Counts::read(&dep, &obs);
        let mut closed = None;
        let timed = workload::run_window(kind, &mut dep, rounds, spans, |dep| {
            closed = Some(layers::Counts::read(dep, &obs));
        });
        let counts = closed
            .expect("run_window calls back when the window closes")
            .since(&opened);
        let ledger = workload::read_ledger(&dep);
        let (mut failures, _) = spans.scope("verify", |_| {
            workload::check_outputs(kind, &dep, &ledger, Some(&obs))
        });
        if ledger.head != untraced.0 {
            failures.push(format!(
                "traced head {} differs from untraced head {}",
                ledger.head, untraced.0
            ));
        }
        let failed = failed(&dep, &ledger);
        let values = layers::measure(
            &layers::Traced {
                dep: &dep,
                counts: &counts,
                timed: &timed,
                ledger: &ledger,
                failed,
                untraced_wall_s: untraced.1,
                scratch: scratch.path(),
            },
            spans,
        );
        print_traced(&timed, &ledger, &values);
        SingleResult {
            attempted: dep.submitted(),
            failed,
            head: ledger.head,
            failures,
            metrics: spec::PER_LAYER
                .iter()
                .map(|m| (m, values[m.name]))
                .collect(),
        }
    });
    let path = workload::out_dir().join(format!("{}.spans.jsonl", kind.name()));
    let run_id = format!("{}-{seed}", kind.name());
    match std::fs::write(&path, spans.to_jsonl(&run_id)) {
        Ok(()) => println!("# spans {} ({} spans)", path.display(), spans.spans().len()),
        Err(e) => eprintln!("prb-benchmark: writing {}: {e}", path.display()),
    }
    result
}

/// The human-readable part of a traced run: the tail that was reported
/// and the per-layer budget.
fn print_traced(timed: &Timed, ledger: &Ledger, values: &Values) {
    if let Some(t) = stats::tail(&ledger.commit_ticks) {
        println!(
            "# commit_ticks_tail {} ticks is p{:.2} of {} samples, {} beyond it",
            t.value, t.percentile, t.count, t.beyond
        );
    }
    println!(
        "# budget of the traced window: {:.3} s wall, {} entries committed in it ({} after {} drain rounds)",
        timed.wall_s(),
        timed.committed,
        ledger.entries,
        timed.drain_rounds
    );
    for line in layers::budget_table(values).lines() {
        println!("#{line}");
    }
}
