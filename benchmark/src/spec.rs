//! The benchmark's record of itself: every workload and metric by name,
//! with unit, direction and bound. `BENCHMARK.json` is this table
//! rendered (`prb-benchmark manifest`); a test keeps the two equal.

use crate::workload::Kind;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit, direction and meaning.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The name printed and compared.
    pub name: &'static str,
    /// The unit printed beside every value.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression; `None` for layer metrics.
    pub bound: Option<f64>,
    /// Whether the value is a count of the seeded simulation, which must
    /// repeat exactly for a seed, rather than a time.
    pub exact: bool,
    /// What is measured, for `--help` and the README glossary.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
        what,
    }
}

/// A layer's unit cost or share of wall time: a measured time.
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
        what,
    }
}

/// A layer's count, read through accessors: exact per seed.
const fn count(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better, what)
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off, on the
/// benchmark's clock (`crate::clock`): wall time the driver thread was given.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "build the deployment (keygen, topology, store open) and run its 4 warm-up rounds; median of 3 to 31 set-ups"),
    e2e("wall_tx_per_s", "tx/s", Higher, 0.25,
        "entries that reach governor 0's ledger per second of the timed rounds: median of the window's 9 segments"),
    e2e("round_wall_ms_p50", "ms", Lower, 0.25,
        "median time of one run_round call"),
    e2e("commit_wall_ms_p50", "ms", Lower, 0.25,
        "commit_ticks_p50 x (round_wall_ms_p50 / ticks per round): wall-clock submit to commit"),
    e2e("peak_rss_mb", "MB", Lower, 0.10,
        "VmHWM of the workload's process right after the drain"),
    e2e("recovery_s", "s", Lower, 0.25,
        "rebuild every governor's ledger after a restart, byte-identical: from store_dir on closed-durable, \
         from a peer's exported chain elsewhere"),
];

/// Single layers, measured from outside on a traced run. No bounds.
pub const PER_LAYER: &[MetricDef] = &[
    // Sim-time and accounting results of the run: exact per seed.
    count("commit_ticks_p50", "ticks", Lower,
        "median of block proposal tick - submit tick over governor 0's ledger (open loop: from the tick the arrival was due)"),
    count("commit_ticks_tail", "ticks", Lower,
        "highest percentile of the same with >= 10 samples beyond it, capped at p99"),
    count("failed_share", "ratio", Lower,
        "valid transactions submitted but not on governor 0's ledger after drain / submitted"),
    layer("commit_wall_ms_tail", "ms", Lower,
        "commit_ticks_tail x (median round ms / ticks per round) of the traced window"),
    // prb-crypto
    layer("crypto.sign_us", "us", Lower, "KeyPair::sign of one transaction's signing bytes, workload's scheme"),
    layer("crypto.verify_us", "us", Lower, "PublicKey::verify of the same"),
    layer("crypto.batch_verify_us_per_sig", "us", Lower, "signer::verify_batch at the observed mean batch size, per signature"),
    layer("crypto.vrf_eval_us", "us", Lower, "KeyPair::vrf_evaluate of one election message"),
    layer("crypto.vrf_verify_us", "us", Lower, "PublicKey::vrf_verify of the same"),
    layer("crypto.sha256_mb_per_s", "MB/s", Higher, "sha256 over a 1 MiB buffer"),
    layer("crypto.merkle_us_per_leaf", "us", Lower, "MerkleTree::from_leaves over the median block's entries, per leaf"),
    count("crypto.verifies_per_tx", "1/tx", Lower, "provider-signature checks that ran the verifier on any governor (sig_memo_misses) / committed"),
    count("crypto.modexp_per_tx", "1/tx", Lower, "prb_crypto::stats modexp + multi_pow + table_pows over the timed window / committed"),
    count("crypto.batch_items_mean", "count", Higher, "mean of the crypto.batch.size histogram (verify-pool batch sizes)"),
    count("crypto.sig_memo_hit_share", "ratio", Higher, "sig_memo_hits / (hits + misses) over all governors"),
    layer("crypto.wall_share", "ratio", Lower, "in-program wall.crypto_ns / timed wall of the traced window"),
    // prb-net
    count("net.msgs_per_tx", "1/tx", Lower, "messages sent / committed"),
    count("net.bytes_per_tx", "bytes", Lower, "declared bytes sent / committed"),
    count("net.timers_per_tx", "1/tx", Lower, "timers fired / committed"),
    layer("net.ns_per_event", "ns", Lower, "echo Actor on Network at the workload's node count and delay range: wall / events processed"),
    count("net.dropped_share", "ratio", Lower, "messages dropped by faults / sent"),
    count("net.retry_sends_per_tx", "1/tx", Lower, "net.retry.resent / committed"),
    count("net.retry_exhausted", "count", Lower, "tracked sends abandoned after the retry budget"),
    // prb-ledger
    layer("ledger.tx_create_ns", "ns", Lower, "SignedTx::create with a 32-byte payload (includes the signature)"),
    layer("ledger.tx_id_ns", "ns", Lower, "SignedTx::id over committed transactions"),
    layer("ledger.block_build_us_per_tx", "us", Lower, "Block::build (Merkle commitment) at the median block size, per entry"),
    layer("ledger.append_us_per_block", "us", Lower, "Chain::append of the run's blocks onto a fresh chain"),
    layer("ledger.encode_ns_per_tx", "ns", Lower, "Chain::export of governor 0's chain, per entry"),
    layer("ledger.decode_ns_per_tx", "ns", Lower, "Chain::import of the same bytes, per entry"),
    count("ledger.bytes_per_tx", "bytes", Lower, "exported bytes / entries"),
    // prb-reputation
    layer("reputation.screen_ns_per_tx", "ns", Lower, "screening::screen at r reports"),
    layer("reputation.update_ns_per_reveal", "ns", Lower, "ReputationTable::record_revealed at r reports"),
    count("reputation.unchecked_share", "ratio", Higher, "unchecked / screened over all governors; Lemma 2 keeps it <= f"),
    count("reputation.validations_per_tx", "1/tx", Lower, "validate(tx) calls over all governors / committed"),
    count("reputation.weight_min", "ratio", Higher, "smallest screening weight in governor 0's table"),
    // prb-consensus
    layer("consensus.election_us_per_round", "us", Lower, "ElectionClaim::compute over the stake units + elect over all claims, x governors"),
    layer("consensus.verify_pool_us_per_batch", "us", Lower, "VerifyPool::verify_sigs at the observed mean batch size"),
    layer("consensus.checkpoint_cert_us", "us", Lower, "CheckpointCert::verify of a quorum certificate over the deployment's state shape"),
    count("consensus.txs_per_block", "count", Higher, "entries / blocks on governor 0's ledger"),
    count("consensus.blocks_per_round", "ratio", Higher, "blocks / rounds run"),
    count("consensus.head_rollbacks", "count", Lower, "head blocks rolled back in fork resolution, all governors"),
    count("consensus.proposals_withheld", "count", Lower, "led rounds skipped behind an unconfirmed self-proposal, all governors"),
    // prb-store (0 on workloads without a store)
    layer("store.append_us_p50", "us", Lower, "BlockStore::append of the run's blocks into a fresh store, median"),
    layer("store.append_us_p90", "us", Lower, "the same, 90th percentile"),
    count("store.fsyncs_per_block", "ratio", Lower, "StoreStats fsyncs / appends of that replay"),
    count("store.bytes_per_block", "bytes", Lower, "StoreStats append_bytes / appends"),
    layer("store.cert_save_us", "us", Lower, "BlockStore::save_cert of governor 0's latest certificate"),
    layer("store.open_replay_ms", "ms", Lower, "BlockStore::open over the replayed store"),
    layer("store.read_us_per_block", "us", Lower, "BlockStore::read of every serial"),
    // prb-obs
    layer("obs.emit_ns_off", "ns", Lower, "Obs::emit on a disabled hub"),
    layer("obs.emit_ns_counting", "ns", Lower, "Obs::emit on a counting hub"),
    count("obs.events_per_tx", "1/tx", Lower, "events emitted in the traced window / committed"),
    layer("obs.trace_overhead_share", "ratio", Lower, "(traced wall - untraced wall) / untraced wall, same seed, same process"),
    // prb-core: the budget
    layer("core.round_us_per_tx", "us", Lower, "1e6 / wall_tx_per_s of the traced window: what one committed entry costs"),
    layer("core.attributed_share", "ratio", Higher, "sum of budget.* / core.round_us_per_tx"),
    layer("core.unattributed_us_per_tx", "us", Lower, "core.round_us_per_tx - sum of budget.*: wall time no public counter assigns to a layer"),
    layer("core.round_wall_ms_p90", "ms", Lower, "90th percentile wall time of one run_round call"),
    count("core.pending_high_water", "count", Lower, "highest governor pending-pool occupancy"),
    count("core.mempool_high_water", "count", Lower, "highest collector mempool occupancy"),
    count("core.drain_rounds", "count", Lower, "arrival-free rounds after the timed rounds"),
    count("core.sync_pages_per_recovery", "ratio", Lower, "sync requests served / recoveries completed"),
    count("core.recovery_ticks_max", "ticks", Lower, "longest gap-detected to caught-up recovery"),
    layer("budget.net_us_per_tx", "us", Lower, "(delivered + dropped + timers) x net.ns_per_event / committed"),
    layer("budget.crypto_us_per_tx", "us", Lower, "crypto.verifies_per_tx x crypto.batch_verify_us_per_sig"),
    layer("budget.ledger_us_per_tx", "us", Lower, "(blocks appended on all governors x append + entries x block build) / committed"),
    layer("budget.reputation_us_per_tx", "us", Lower, "(screened x screen + revealed x update over all governors) / committed"),
    layer("budget.consensus_us_per_tx", "us", Lower, "(rounds x election + certificates formed x cert verify) / committed"),
    layer("budget.store_us_per_tx", "us", Lower, "(blocks appended x store append p50 + certificates x cert save) / committed; 0 without a store"),
    layer("budget.obs_us_per_tx", "us", Lower, "obs.events_per_tx x obs.emit_ns_counting"),
    layer("budget.workload_us_per_tx", "us", Lower, "submitted x workload.gen_us_per_tx / committed where the driver generates inside run_round; 0 in open loop"),
    // prb-workload
    layer("workload.gen_us_per_tx", "us", Lower, "ScaleWorkload::window (open loop) or UniformWorkload::next_tx (closed loop), per transaction"),
];

/// Why each workload is in the set, in one line (`BENCHMARK.json`'s `why`).
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::OpenSteady => "Open loop, 8 tx/tick under the 33.6 knee, sim signer, 10000/50/4, ~1000-tx blocks: crypto is ~1 us/op, so the per-tx non-crypto path (net kernel, codec+hashing, screening, maps) does the work.",
        Kind::ClosedCrypto => "Closed loop, Schnorr-2048, 4/4/4, 2 tx/provider, verify_blocks: signatures, VRF election and cert checks are over half the round. Crypto and verify-pool work shows here and must not move open-steady.",
        Kind::ClosedDurable => "Closed loop, sim signer, 32/8/4, store_dir, checkpoint every 8 blocks, then a restart over the store: small blocks put per-round fixed cost, append+fsync and replay on the path. No store elsewhere.",
        Kind::ClosedFaulty => "Closed loop, sim signer, 32/8/5, reliable delivery, 5% loss on the transaction links, governors 1 and 2 crashed in turn: the ack/retry and anti-entropy sync paths, with requests arriving on schedule.",
    }
}

/// Seconds of `--seconds` the driver passes: one run's timed window.
pub const RUN_SECONDS: u64 = 10;

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").expect("String write");
    out.push_str("  \"workloads\": [\n");
    for (i, k) in Kind::ALL.into_iter().enumerate() {
        let sep = if i + 1 == Kind::ALL.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            k.name(),
            why(k)
        )
        .expect("String write");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound")
        )
        .expect("String write");
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            m.better.as_str()
        )
        .expect("String write");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&Kind::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for k in Kind::ALL {
            assert!(well_formed(k.name(), 64), "{}", k.name());
            assert!(seen.insert(k.name()), "{} used twice", k.name());
            assert!(
                why(k).len() <= 200 && !why(k).contains('\n'),
                "{}",
                k.name()
            );
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    #[test]
    fn benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        let doc = crate::json::parse(&on_disk).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
