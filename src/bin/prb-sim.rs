//! `prb-sim` — run a configurable protocol simulation from the command
//! line.
//!
//! ```text
//! cargo run --release --bin prb-sim -- \
//!     --providers 12 --collectors 6 --governors 4 --replication 3 \
//!     --rounds 20 --f 0.6 --workload carshare \
//!     --misreporter 1:0.7 --concealer 2:0.5 --forger 3:0.3 \
//!     --export-chain chain.bin
//! ```
//!
//! Prints the per-round commit log, the screening/loss summary, the
//! reputation table, and the revenue split; optionally exports governor
//! 0's chain in the canonical binary format (re-importable and
//! re-verifiable with `prb::ledger::chain::Chain::import`).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use prb::core::behavior::{CollectorProfile, ProviderProfile};
use prb::core::config::{GovernorMode, ProtocolConfig};
use prb::core::sim::Simulation;
use prb::crypto::signer::CryptoScheme;
use prb::workload::{CarShareWorkload, InsuranceWorkload};

struct Cli {
    values: BTreeMap<String, Vec<String>>,
}

impl Cli {
    fn parse() -> Self {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                eprintln!("ignoring stray argument {arg:?}");
                continue;
            };
            let value = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().expect("peeked"),
                _ => String::new(),
            };
            values.entry(name.to_owned()).or_default().push(value);
        }
        Cli { values }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn get_str(&self, name: &str, default: &str) -> String {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    fn all(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }
}

fn parse_idx_prob(spec: &str) -> Result<(u32, f64), String> {
    let (idx, prob) = spec
        .split_once(':')
        .ok_or_else(|| format!("expected index:probability, got {spec:?}"))?;
    Ok((
        idx.parse().map_err(|_| format!("bad index in {spec:?}"))?,
        prob.parse()
            .map_err(|_| format!("bad probability in {spec:?}"))?,
    ))
}

fn main() -> Result<(), String> {
    let cli = Cli::parse();
    if cli.has("help") {
        println!("prb-sim — run the permissioned reputation blockchain");
        println!("flags: --providers N --collectors N --governors N --replication N");
        println!("       --rounds N --tx-per-provider N --f F --beta B --seed S");
        println!("       --mode reputation|check-all|check-none");
        println!("       --workload uniform|carshare|insurance  --invalid-rate P");
        println!("       --crypto sim|schnorr-256|schnorr-512|schnorr-2048");
        println!("       --verify-threads N   (0 = host parallelism; ledger is identical)");
        println!("       --verify-inline-min N  (batch size below which the pool verifies");
        println!("                               inline; verdict-neutral tuning knob)");
        println!("       --misreporter i:p  --concealer i:p  --forger i:p  (repeatable)");
        println!("       --join-rate P --leave-rate P   (per-collector per-round churn");
        println!("                                       probabilities; 0 = static committee)");
        println!("       --bootstrap-rep R    (newcomer screening-weight prior, (0,1])");
        println!("       --decay-halflife N   (half-life in silent rounds; 0 = no decay)");
        println!("       --export-chain PATH");
        return Ok(());
    }

    let mut cfg = ProtocolConfig {
        providers: cli.get("providers", 8u32),
        collectors: cli.get("collectors", 8u32),
        governors: cli.get("governors", 4u32),
        replication: cli.get("replication", 4u32),
        tx_per_provider: cli.get("tx-per-provider", 4u32),
        seed: cli.get("seed", 42u64),
        ..Default::default()
    };
    cfg.reputation.f = cli.get("f", cfg.reputation.f);
    cfg.reputation.beta = cli.get("beta", cfg.reputation.beta);
    cfg.governor_mode = match cli.get_str("mode", "reputation").as_str() {
        "reputation" => GovernorMode::Reputation,
        "check-all" => GovernorMode::CheckAll,
        "check-none" => GovernorMode::CheckNone,
        other => return Err(format!("unknown mode {other:?}")),
    };
    cfg.crypto = CryptoScheme::parse(&cli.get_str("crypto", "sim"))
        .ok_or_else(|| "unknown crypto scheme".to_owned())?;
    cfg.verify_threads = cli.get("verify-threads", cfg.verify_threads);
    cfg.verify_inline_min = cli.get("verify-inline-min", cfg.verify_inline_min);
    cfg.join_rate = cli.get("join-rate", cfg.join_rate);
    cfg.leave_rate = cli.get("leave-rate", cfg.leave_rate);
    cfg.bootstrap_rep = cli.get("bootstrap-rep", cfg.bootstrap_rep);
    cfg.decay_halflife = cli.get("decay-halflife", cfg.decay_halflife);
    let rounds: u32 = cli.get("rounds", 10);
    let invalid_rate: f64 = cli.get("invalid-rate", 0.2);

    let n = cfg.collectors;
    let l = cfg.providers;
    let m = cfg.governors;
    let mut builder = Simulation::builder(cfg).provider_profiles(vec![
        ProviderProfile {
            invalid_rate,
            active: true,
        };
        l as usize
    ]);
    match cli.get_str("workload", "uniform").as_str() {
        "uniform" => {}
        "carshare" => builder = builder.workload(Box::new(CarShareWorkload::new(invalid_rate))),
        "insurance" => builder = builder.workload(Box::new(InsuranceWorkload::new(invalid_rate))),
        other => return Err(format!("unknown workload {other:?}")),
    }
    let mut roles = vec!["honest".to_owned(); n as usize];
    for spec in cli.all("misreporter") {
        let (i, p) = parse_idx_prob(spec)?;
        builder = builder.collector_profile(i, CollectorProfile::misreporter(p));
        roles[i as usize] = format!("misreporter {p}");
    }
    for spec in cli.all("concealer") {
        let (i, p) = parse_idx_prob(spec)?;
        builder = builder.collector_profile(i, CollectorProfile::concealer(p));
        roles[i as usize] = format!("concealer {p}");
    }
    for spec in cli.all("forger") {
        let (i, p) = parse_idx_prob(spec)?;
        builder = builder.collector_profile(i, CollectorProfile::forger(p));
        roles[i as usize] = format!("forger {p}");
    }

    let mut sim = builder.build()?;
    println!(
        "running {rounds} rounds: l={l} n={n} m={m} r={} f={} mode={} workload={} crypto={}",
        sim.config().replication,
        sim.config().reputation.f,
        sim.config().governor_mode,
        cli.get_str("workload", "uniform"),
        sim.config().crypto.name(),
    );
    for outcome in sim.run(rounds) {
        println!(
            "round {:>3}: leader g{}  block #{} ({} txs)",
            outcome.round,
            outcome.leader.map_or("?".into(), |g| g.to_string()),
            outcome.block_serial.unwrap_or(0),
            outcome.txs_in_block
        );
    }
    sim.run_drain_rounds(3);

    println!("\nagreement: {}", sim.chains_agree());
    if sim.config().churn_enabled() {
        let m0 = sim.metrics(0);
        println!(
            "membership: live collectors {:?} | certs {} | applied {} | evictions proposed {} | decay steps {}",
            sim.live_collectors(),
            m0.member_certs_formed,
            m0.member_applied,
            m0.evictions_proposed,
            m0.decay_events
        );
    }
    let metrics = sim.metrics(0);
    println!(
        "governor g0: screened {} | checked {} | unchecked {} ({:.1}%) | validations {}",
        metrics.screened,
        metrics.checked,
        metrics.unchecked,
        100.0 * metrics.unchecked_fraction(),
        metrics.validations
    );
    println!(
        "losses: realized {:.1}, expected {:.2} | argues: {} ok, {} late | forgeries detected: {}",
        metrics.realized_loss,
        metrics.expected_loss,
        metrics.argue_accepted,
        metrics.argue_rejected,
        metrics.forged_detected
    );

    println!("\nreputation (governor g0):");
    let table = sim.governor(0).reputation();
    let mut paid = vec![0.0f64; n as usize];
    for g in 0..m {
        for (c, share) in sim.metrics(g).revenue_paid.iter().enumerate() {
            paid[c] += share;
        }
    }
    for c in 0..n as usize {
        println!(
            "  c{c}: {}  revenue {:>8.2}  [{}]",
            table.collector(c),
            paid[c],
            roles[c]
        );
    }

    if let Some(path) = cli.values.get("export-chain").and_then(|v| v.first()) {
        let bytes = sim.governor(0).chain().export();
        std::fs::write(path, &bytes).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\nexported chain ({} bytes) to {path}", bytes.len());
    }
    Ok(())
}
