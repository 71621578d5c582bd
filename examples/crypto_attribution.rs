//! Where a `closed-crypto` round's crypto time goes, per primitive.
//!
//! ```text
//! cargo run --release --example crypto_attribution [-- --seed 11 --rounds 45 --verify-threads 1]
//! ```
//!
//! Builds the `closed-crypto` deployment of BENCHMARK.json (closed loop,
//! 2048-bit Schnorr, 4 providers / 4 collectors / 4 governors, r = 2,
//! 2 tx per provider, `verify_blocks`), runs the benchmark's four warm-up
//! rounds, then times `--rounds` rounds (45 is the benchmark's 10 s window)
//! with `prb_crypto::stats` wall-clock attribution on, and prints the
//! Montgomery and SHA-256 kernels this CPU runs, exponentiations and
//! Montgomery products per committed transaction, then calls, total
//! milliseconds, microseconds per call and share of the window per
//! primitive. Times are inclusive, so the rows overlap: a DLEQ verify holds
//! the Jacobi symbols and exponentiations inside it. `--verify-threads`
//! sets `ProtocolConfig::verify_threads` (1, as in the benchmark, by
//! default).

#![forbid(unsafe_code)]

use std::time::Instant;

use prb::core::config::ProtocolConfig;
use prb::core::sim::Simulation;
use prb::crypto::signer::CryptoScheme;
use prb::crypto::stats::{self, Primitive};
use prb::crypto::{bigint, sha256};

fn arg(name: &str, default: u64) -> Result<u64, String> {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{name} needs a number")),
    }
}

fn main() -> Result<(), String> {
    let seed = arg("--seed", 11)?;
    let rounds = u32::try_from(arg("--rounds", 45)?).map_err(|e| e.to_string())?;
    let verify_threads = usize::try_from(arg("--verify-threads", 1)?).map_err(|e| e.to_string())?;
    let cfg = ProtocolConfig {
        providers: 4,
        collectors: 4,
        governors: 4,
        replication: 2,
        tx_per_provider: 2,
        verify_blocks: true,
        verify_threads,
        crypto: CryptoScheme::schnorr_2048(),
        seed,
        ..ProtocolConfig::default()
    };
    let mut sim = Simulation::new(cfg)?;
    sim.run(4);

    let before = stats::snapshot();
    stats::set_timing(true);
    let t0 = Instant::now();
    let committed: usize = sim.run(rounds).iter().map(|r| r.txs_in_block).sum();
    let window_ns = t0.elapsed().as_nanos() as f64;
    stats::set_timing(false);
    let spent = stats::snapshot().delta_since(&before);

    println!(
        "closed-crypto, seed {seed}, {verify_threads} verify thread(s): {rounds} rounds, {committed} tx committed, {:.2} s ({:.1} tx/s)",
        window_ns / 1e9,
        committed as f64 / (window_ns / 1e9)
    );
    println!(
        "kernels: Montgomery {}, SHA-256 {}",
        bigint::kernel(),
        sha256::kernel()
    );
    let per_tx = |n: u64| n as f64 / committed.max(1) as f64;
    println!(
        "modexp {} + multi_pow {} + table_pow {} = {:.2} per tx; {} DLEQ proofs",
        spent.modexp_calls,
        spent.multi_pow_calls,
        spent.table_pows,
        per_tx(spent.modexp_calls + spent.multi_pow_calls + spent.table_pows),
        spent.dleq_proofs
    );
    println!(
        "Montgomery products {} = {:.1} per tx",
        spent.products,
        per_tx(spent.products)
    );
    println!(
        "\n{:<16} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "primitive", "calls", "ms", "us/call", "/round", "share"
    );
    for p in Primitive::ALL {
        let [calls, ns] = spent.wall[p as usize];
        println!(
            "{:<16} {:>8} {:>10.1} {:>10.1} {:>8.1} {:>7.1}%",
            p.name(),
            calls,
            ns as f64 / 1e6,
            ns as f64 / 1e3 / calls.max(1) as f64,
            calls as f64 / f64::from(rounds.max(1)),
            100.0 * ns as f64 / window_ns
        );
    }
    Ok(())
}
