//! `prb-benchmark` — see `README.md` beside this crate.
//!
//! ```text
//! prb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! prb-benchmark run [--seed <n>]... [--seconds <s>] [--quick] [--out <dir>]
//! prb-benchmark compare <a.json> <b.json>
//! prb-benchmark manifest
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one repetition, one JSON object on the last line of standard output.
//! `run` repeats that form in child processes over every workload.

use std::process::ExitCode;

use prb_benchmark::{cli, compare, report, single, spec};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => report::run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(())
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{}", cli::usage());
            Ok(())
        }
        Some(_) => single::run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("prb-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}
