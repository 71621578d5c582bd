//! The binary driven from outside, as the driver and a developer drive it.

use std::path::{Path, PathBuf};
use std::process::Command;

use prb_benchmark::json::{self, Value};
use prb_benchmark::report::{self, Report};
use prb_benchmark::spec::{self, MetricDef};

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_prb-benchmark"))
}

/// Runs the one-workload form and returns the parsed last line.
fn one(workload: &str, trace: &str) -> Value {
    let out = bench()
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

/// The result line has exactly the contract's keys and exactly `defs`
/// as its metrics, each with a finite value and its declared unit.
fn assert_result(doc: &Value, defs: &[MetricDef], nonzero: bool) {
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
    let attempted = doc.get("attempted").unwrap().as_f64().unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = doc.get("metrics").unwrap().as_object().unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for ((name, m), def) in metrics.iter().zip(defs) {
        let keys: Vec<&str> = m
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
        let value = m.get("value").unwrap().as_f64().unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{name} = {value}");
        assert!(!nonzero || value > 0.0, "{name} is {value}");
        assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit), "{name}");
    }
}

#[test]
fn one_workload_form_prints_the_contract_json() {
    // The workload with a store, checkpoints and a restart; and the one
    // with faults, retries and resyncs.
    for workload in ["closed-durable", "closed-faulty"] {
        assert_result(&one(workload, "0"), spec::END_TO_END, true);
        assert_result(&one(workload, "1"), spec::PER_LAYER, false);
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "open-steady", "--trace", "2"],
        &["--workload", "open-steady", "--seconds", "0"],
        &["--workload", "open-steady", "--sede", "1"],
        &["compare", "only-one.json"],
        &["run", "--bogus", "1"],
    ] {
        let out = bench().args(args).output().expect("spawn the benchmark");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn run_quick(dir: &Path) -> Report {
    let out = bench()
        .args(["run", "--quick", "--seed", "11", "--out"])
        .arg(dir)
        .output()
        .expect("spawn the benchmark");
    assert!(
        out.status.success(),
        "run --quick failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    report::load(&dir.join("run-seed11.json")).expect("the report loads")
}

#[test]
fn run_quick_twice_gives_identical_counts_and_ledger_heads() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-quick-{}", std::process::id()));
    let (a, b) = (run_quick(&root.join("a")), run_quick(&root.join("b")));
    assert_eq!(a.workloads.len(), 4);
    for (name, wa) in &a.workloads {
        let wb = &b.workloads[name];
        assert_eq!(wa.head, wb.head, "{name}: ledger heads differ");
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            assert_eq!(
                wa.layers[m.name], wb.layers[m.name],
                "{name}: {} differs",
                m.name
            );
        }
        for m in spec::END_TO_END {
            assert_eq!(
                wa.reps[m.name].len(),
                3,
                "{name}: three repetitions of {}",
                m.name
            );
        }
    }
    // `compare` agrees: every count row identical, nothing differs.
    let out = bench()
        .arg("compare")
        .arg(root.join("a/run-seed11.json"))
        .arg(root.join("b/run-seed11.json"))
        .output()
        .expect("spawn the benchmark");
    let table = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(
        table.matches("counts and ledger head identical").count(),
        4,
        "{table}"
    );
    assert!(!table.contains("DIFFER"), "{table}");
    std::fs::remove_dir_all(&root).expect("remove the test's reports");
}
