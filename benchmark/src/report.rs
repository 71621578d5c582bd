//! `run`: every workload, in child processes, repeated and interleaved.
//!
//! Each workload runs in its own child (so `peak_rss_mb` is per workload)
//! through the same one-workload form the driver uses. Three untraced
//! repetitions are interleaved round-robin across the workloads
//! (A B C D A B C D …) and the median is reported: on a shared host
//! single runs of identical code drift by 10–15% within an hour, medians
//! of interleaved repetitions do not. One traced repetition per workload
//! then gives the per-layer numbers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{self, Value};
use crate::spec;
use crate::stats::{median, quartiles};
use crate::workload::{out_dir, Kind};

/// Untraced repetitions per workload.
const REPS: usize = 3;
/// Seeds `run` uses when none is given: the one used while the benchmark
/// was written, and one that was not.
const DEFAULT_SEEDS: [u64; 2] = [11, 29];
/// `--seconds` under `--quick`: about ten times fewer rounds, same paths.
const QUICK_SECONDS: u64 = 1;

/// What one child printed.
struct Child {
    head: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    stdout: String,
}

fn spawn(kind: Kind, seed: u64, seconds: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let child = parse_child(&stdout)
        .map_err(|e| format!("{} (seed {seed}): {e}\n{stdout}", kind.name()))?;
    if !out.status.success() || !child.correct {
        return Err(format!(
            "{} (seed {seed}) failed its output checks:\n{stdout}",
            kind.name()
        ));
    }
    Ok(child)
}

fn parse_child(stdout: &str) -> Result<Child, String> {
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = json::parse(last)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result lacks {k:?}"));
    let metrics = field("metrics")?
        .as_object()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    let head = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# head "))
        .ok_or("child printed no head")?
        .to_owned();
    Ok(Child {
        head,
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        stdout: stdout.to_owned(),
    })
}

/// One workload's part of a report.
#[derive(Debug, Default, PartialEq)]
pub struct WorkloadReport {
    /// Governor 0's ledger head, the same on every repetition.
    pub head: String,
    /// Transactions submitted.
    pub attempted: u64,
    /// Valid transactions missing from the ledger after the drain.
    pub failed: u64,
    /// End-to-end metric → one value per untraced repetition.
    pub reps: BTreeMap<String, Vec<f64>>,
    /// Per-layer metric → the traced repetition's value.
    pub layers: BTreeMap<String, f64>,
}

/// What `run` found for one seed; what it writes and `compare` reads.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    /// The workload seed.
    pub seed: u64,
    /// `--seconds` of every repetition.
    pub seconds: u64,
    /// Workload name → its results.
    pub workloads: BTreeMap<String, WorkloadReport>,
}

/// `run [--seed n]... [--seconds s] [--quick] [--out dir]`.
pub fn run(args: &[String]) -> Result<(), String> {
    let quick = args.iter().any(|a| a == "--quick");
    let rest: Vec<String> = args.iter().filter(|a| *a != "--quick").cloned().collect();
    let flags = crate::cli::parse_flags(&rest, &["seed", "seconds", "out"])?;
    let mut seeds = Vec::new();
    let mut seconds = if quick {
        QUICK_SECONDS
    } else {
        spec::RUN_SECONDS
    };
    let mut out = out_dir();
    for (name, value) in &flags {
        let bad = || format!("--{name}: bad value {value:?}");
        match name.as_str() {
            "seed" => seeds.push(value.parse::<u64>().map_err(|_| bad())?),
            "seconds" => seconds = value.parse().map_err(|_| bad())?,
            _ => out = PathBuf::from(value),
        }
    }
    if seeds.is_empty() {
        seeds.extend(DEFAULT_SEEDS);
    }
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "host parallelism {} (every workload is one process, one driver thread)",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for seed in seeds {
        let report = run_seed(seed, seconds)?;
        print!("{}", report.render());
        let path = out.join(format!("run-seed{seed}.json"));
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("written to {}\n", path.display());
    }
    Ok(())
}

fn run_seed(seed: u64, seconds: u64) -> Result<Report, String> {
    let mut report = Report {
        seed,
        seconds,
        workloads: BTreeMap::new(),
    };
    // Records a child under its workload; every repetition, traced or not,
    // must end on the same ledger head.
    let mut record = |kind: Kind, traced: bool| -> Result<(), String> {
        let child = spawn(kind, seed, seconds, traced)?;
        let w = report.workloads.entry(kind.name().to_owned()).or_default();
        if w.head.is_empty() {
            w.head = child.head.clone();
        }
        if w.head != child.head {
            return Err(format!(
                "{} seed {seed}: ledger head {} differs from an earlier repetition's {}",
                kind.name(),
                child.head,
                w.head
            ));
        }
        if traced {
            // The traced child's own notes carry the budget table.
            for line in child.stdout.lines().filter(|l| l.starts_with('#')) {
                println!("[{}] {line}", kind.name());
            }
            w.layers = child.metrics.into_iter().collect();
        } else {
            (w.attempted, w.failed) = (child.attempted, child.failed);
            for (name, v) in child.metrics {
                w.reps.entry(name).or_default().push(v);
            }
        }
        Ok(())
    };
    for rep in 0..REPS {
        for kind in Kind::ALL {
            eprintln!("seed {seed}: {} untraced {}/{REPS}", kind.name(), rep + 1);
            record(kind, false)?;
        }
    }
    for kind in Kind::ALL {
        eprintln!("seed {seed}: {} traced", kind.name());
        record(kind, true)?;
    }
    Ok(report)
}

impl Report {
    /// Workloads and their results, in the order they are reported.
    fn in_order(&self) -> impl Iterator<Item = (Kind, &WorkloadReport)> {
        Kind::ALL
            .into_iter()
            .filter_map(|k| Some((k, self.workloads.get(k.name())?)))
    }

    /// Every metric by name, with its unit: medians and quartiles of the
    /// untraced repetitions, then the traced repetition's layer values.
    fn render(&self) -> String {
        let mut out = String::new();
        for (kind, w) in self.in_order() {
            writeln!(
                out,
                "\n## {} — seed {}, {} s, head {}…, attempted {}, failed {}",
                kind.name(),
                self.seed,
                self.seconds,
                &w.head[..16.min(w.head.len())],
                w.attempted,
                w.failed
            )
            .expect("String write");
            writeln!(
                out,
                "{:<22} {:>14} {:>14} {:>14}  {:<6} bound",
                "end to end", "median", "q1", "q3", "unit"
            )
            .expect("String write");
            for m in spec::END_TO_END {
                let Some(reps) = w.reps.get(m.name) else {
                    continue;
                };
                let (q1, q3) = quartiles(reps).unwrap_or((reps[0], reps[0]));
                writeln!(
                    out,
                    "{:<22} {:>14.4} {:>14.4} {:>14.4}  {:<6} {:.0}%",
                    m.name,
                    median(reps),
                    q1,
                    q3,
                    m.unit,
                    100.0 * m.bound.expect("end-to-end bound")
                )
                .expect("String write");
            }
            writeln!(out, "{:<38} {:>14}  unit", "per layer (traced)", "value")
                .expect("String write");
            for m in spec::PER_LAYER {
                if let Some(v) = w.layers.get(m.name) {
                    writeln!(out, "{:<38} {v:>14.4}  {}", m.name, m.unit).expect("String write");
                }
            }
        }
        out
    }

    /// The report as JSON ([`load`] reads it back).
    fn to_json(&self) -> String {
        let workloads: Vec<String> = self
            .in_order()
            .map(|(kind, w)| {
                let reps: Vec<String> = w
                    .reps
                    .iter()
                    .map(|(name, vals)| {
                        let vals: Vec<String> = vals.iter().map(|v| json::number(*v)).collect();
                        format!("        {}: [{}]", json::quote(name), vals.join(", "))
                    })
                    .collect();
                let layers: Vec<String> = w
                    .layers
                    .iter()
                    .map(|(n, v)| format!("        {}: {}", json::quote(n), json::number(*v)))
                    .collect();
                format!(
                    "    {}: {{\n      \"head\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \
                     \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
                    json::quote(kind.name()),
                    json::quote(&w.head),
                    w.attempted,
                    w.failed,
                    reps.join(",\n"),
                    layers.join(",\n"),
                )
            })
            .collect();
        format!(
            "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            self.seed,
            self.seconds,
            workloads.join(",\n")
        )
    }
}

/// Reads a report `run` wrote.
pub fn load(path: &Path) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let malformed = || format!("{}: not a run report", path.display());
    let number = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).ok_or_else(malformed);
    let object = |v: &'_ Value, key: &str| -> Result<Vec<(String, Value)>, String> {
        v.get(key)
            .and_then(Value::as_object)
            .map(<[_]>::to_vec)
            .ok_or_else(malformed)
    };
    let mut report = Report {
        seed: number(&doc, "seed")? as u64,
        seconds: number(&doc, "seconds")? as u64,
        workloads: BTreeMap::new(),
    };
    for (name, w) in object(&doc, "workloads")? {
        let mut out = WorkloadReport {
            head: w
                .get("head")
                .and_then(Value::as_str)
                .ok_or_else(malformed)?
                .to_owned(),
            attempted: number(&w, "attempted")? as u64,
            failed: number(&w, "failed")? as u64,
            ..WorkloadReport::default()
        };
        for (metric, vals) in object(&w, "end_to_end")? {
            let vals: Option<Vec<f64>> = vals
                .as_array()
                .ok_or_else(malformed)?
                .iter()
                .map(Value::as_f64)
                .collect();
            out.reps.insert(metric, vals.ok_or_else(malformed)?);
        }
        for (metric, v) in object(&w, "per_layer")? {
            out.layers.insert(metric, v.as_f64().ok_or_else(malformed)?);
        }
        report.workloads.insert(name, out);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_parses_and_reports_round_trip() {
        let stdout = "# workload open-steady seed 11\n# head abcdef0123456789ff\n\
            {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
            {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"wall_tx_per_s\": {\"value\": 9000.5, \"unit\": \"tx/s\"}}}";
        let child = parse_child(stdout).unwrap();
        assert!(child.correct);
        assert_eq!((child.attempted, child.failed), (10, 0));
        assert_eq!(child.head, "abcdef0123456789ff");
        assert_eq!(child.metrics[1], ("wall_tx_per_s".to_owned(), 9000.5));
        assert!(parse_child("no json here").is_err());

        let mut report = Report {
            seed: 11,
            seconds: 10,
            workloads: BTreeMap::new(),
        };
        for kind in Kind::ALL {
            let w = report.workloads.entry(kind.name().to_owned()).or_default();
            w.head = child.head.clone();
            w.attempted = 10;
            for m in spec::END_TO_END {
                w.reps.insert(m.name.to_owned(), vec![1.5, 2.5, 2.0]);
            }
            w.layers.insert("net.msgs_per_tx".to_owned(), 12.25);
        }
        let dir = out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("test-report-{}.json", std::process::id()));
        std::fs::write(&path, report.to_json()).unwrap();
        let loaded = load(&path);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            loaded.as_ref(),
            Ok(&report),
            "a report survives the round trip"
        );
        let text = report.render();
        assert!(text.contains("closed-durable") && text.contains("net.msgs_per_tx"));
    }
}
