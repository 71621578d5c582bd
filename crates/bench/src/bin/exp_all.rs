//! **Runs the entire experiment suite** (E1–E10, E15 and E16 plus ablations)
//! and emits one markdown report — the source of EXPERIMENTS.md.
//!
//! ```text
//! cargo build --release -p prb-bench
//! cargo run --release -p prb-bench --bin exp_all [--quick]
//! ```
//!
//! Each experiment binary is invoked as a sibling executable; `--quick`
//! shrinks seeds/rounds for a fast smoke pass. Per-experiment status and
//! timing are recorded in a `prb-obs` metrics registry and rendered as a
//! suite-summary table on stderr at the end (the report itself goes to
//! stdout untouched).

#![forbid(unsafe_code)]

use std::process::Command;
use std::time::Instant;

use prb_bench::{Args, Table};
use prb_obs::Metrics;

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("exe has a parent dir")
        .to_path_buf();

    let experiments: Vec<(&str, Vec<&str>)> = vec![
        (
            "exp_regret",
            if quick {
                vec![
                    "--seeds",
                    "8",
                    "--proto-seeds",
                    "3",
                    "--ablate-beta",
                    "--ablate-gamma",
                ]
            } else {
                vec![
                    "--seeds",
                    "30",
                    "--proto-seeds",
                    "8",
                    "--ablate-beta",
                    "--ablate-gamma",
                ]
            },
        ),
        (
            "exp_unchecked",
            if quick {
                vec!["--seeds", "4", "--rounds", "6"]
            } else {
                vec!["--seeds", "10", "--rounds", "12"]
            },
        ),
        (
            "exp_tail",
            if quick {
                vec!["--trials", "1000"]
            } else {
                vec!["--trials", "4000"]
            },
        ),
        (
            "exp_loss",
            if quick {
                vec!["--seeds", "4", "--rounds", "12"]
            } else {
                vec!["--seeds", "8", "--rounds", "25"]
            },
        ),
        (
            "exp_loss#u",
            if quick {
                vec!["--sweep-u", "--seeds", "4", "--rounds", "10"]
            } else {
                vec!["--sweep-u", "--seeds", "8", "--rounds", "20"]
            },
        ),
        (
            "exp_throughput",
            if quick {
                vec!["--seeds", "3", "--rounds", "10"]
            } else {
                vec!["--seeds", "6", "--rounds", "20"]
            },
        ),
        ("exp_messages", vec!["--ablate-election"]),
        (
            "exp_incentives",
            if quick {
                vec![
                    "--seeds",
                    "3",
                    "--rounds",
                    "15",
                    "--ablate-floor",
                    "--floor-rounds",
                    "25",
                ]
            } else {
                vec![
                    "--seeds",
                    "6",
                    "--rounds",
                    "25",
                    "--ablate-floor",
                    "--floor-rounds",
                    "40",
                ]
            },
        ),
        (
            "exp_election",
            if quick {
                vec!["--rounds", "4000"]
            } else {
                vec!["--rounds", "20000"]
            },
        ),
        (
            "exp_apps",
            if quick {
                vec!["--seeds", "3", "--rounds", "10"]
            } else {
                vec!["--seeds", "6", "--rounds", "20"]
            },
        ),
        ("exp_properties", vec!["--rounds", "12"]),
        (
            "exp_scale",
            if quick {
                vec!["--quick", "--bench-out", "/tmp/BENCH_scale.json"]
            } else {
                vec!["--bench-out", "BENCH_scale.json"]
            },
        ),
        (
            "exp_persist",
            if quick {
                vec!["--quick", "--bench-out", "/tmp/BENCH_persist.json"]
            } else {
                vec!["--bench-out", "BENCH_persist.json"]
            },
        ),
        (
            "exp_churn",
            if quick {
                vec!["--quick", "--bench-out", "/tmp/BENCH_churn.json"]
            } else {
                vec!["--bench-out", "BENCH_churn.json"]
            },
        ),
    ];

    println!("# prb experiment suite — full run\n");
    println!("(regenerate with `cargo run --release -p prb-bench --bin exp_all`)\n");
    let metrics = Metrics::new();
    let mut summary = Table::new(
        "suite summary",
        &["experiment", "status", "seconds", "report KiB"],
    );
    for (name, exp_args) in experiments {
        let bin = name.split('#').next().expect("non-empty name");
        let path = exe_dir.join(bin);
        let started = Instant::now();
        let output = Command::new(&path)
            .args(&exp_args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {path:?}: {e}; build with `cargo build --release -p prb-bench` first"));
        let secs = started.elapsed().as_secs_f64();
        metrics.observe("exp.millis", (secs * 1000.0) as u64);
        if !output.status.success() {
            metrics.inc("exp.failed");
            summary.row(vec![
                format!(
                    "{name} — {}",
                    String::from_utf8_lossy(&output.stderr)
                        .lines()
                        .last()
                        .unwrap_or("no stderr")
                ),
                "FAILED".to_owned(),
                format!("{secs:.1}"),
                "0".to_owned(),
            ]);
            continue;
        }
        metrics.inc("exp.ok");
        metrics.add("exp.report_bytes", output.stdout.len() as u64);
        summary.row(vec![
            name.to_owned(),
            "ok".to_owned(),
            format!("{secs:.1}"),
            (output.stdout.len() / 1024).to_string(),
        ]);
        println!("{}", String::from_utf8_lossy(&output.stdout));
        println!("\n---\n");
    }
    // The summary goes to stderr so stdout stays a clean report.
    eprint!("{}", summary.to_markdown());
    let (ok, failed) = (metrics.counter("exp.ok"), metrics.counter("exp.failed"));
    if let Some(h) = metrics.histogram("exp.millis") {
        eprintln!(
            "{ok} ok, {failed} failed; per-experiment millis p50={} p95={} max={}; report {} KiB total",
            h.p50(),
            h.p95(),
            h.max(),
            metrics.counter("exp.report_bytes") / 1024,
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
