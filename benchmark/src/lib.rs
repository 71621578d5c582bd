//! `prb-benchmark` — the one benchmark every performance or simplicity
//! change to `prb` is measured with. See `README.md` beside this crate.
//!
//! The binary is a thin dispatcher over these modules; they are a library
//! so that the benchmark's own tests can drive them.

pub mod cli;
pub mod clock;
pub mod compare;
pub mod json;
pub mod layers;
pub mod pace;
pub mod report;
pub mod single;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workload;
