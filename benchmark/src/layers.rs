//! Per-layer numbers of a traced pass, measured from outside.
//!
//! Two sources, never the program's internals: (a) *counts* read through
//! public accessors after the window — `net_stats()`, `GovernorMetrics`,
//! `prb_crypto::stats`, `Obs::metrics()`; (b) *unit costs* found by
//! replaying the run's own artefacts (its committed blocks, transaction
//! sizes, batch sizes, node and message counts) through each layer's
//! public functions under the benchmark's timer. On one thread nothing
//! overlaps, so Σ(count × unit cost) over the layers plus an unattributed
//! residue equals the wall time of the window.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use prb_consensus::checkpoint::{
    quorum, CheckpointCert, CheckpointShare, CheckpointState, CollectorSnapshot,
};
use prb_consensus::election::{elect, ElectionClaim};
use prb_consensus::verify_pool::VerifyPool;
use prb_core::metrics::GovernorMetrics;
use prb_core::workload::{UniformWorkload, Workload};
use prb_core::ProviderProfile;
use prb_crypto::identity::NodeId;
use prb_crypto::merkle::MerkleTree;
use prb_crypto::signer::{verify_batch, KeyPair, PublicKey, Sig};
use prb_ledger::block::Block;
use prb_ledger::chain::Chain;
use prb_ledger::transaction::{SignedTx, TxPayload};
use prb_net::message::Envelope;
use prb_net::sim::{Actor, Context, NetConfig, Network};
use prb_obs::{EventKind, Obs};
use prb_reputation::screening::{screen, Report};
use prb_reputation::update::{ReputationTable, RevealedBehaviour, RevealedReport};
use prb_store::{BlockStore, FsyncPolicy, StoreOptions};

use crate::clock::Clock;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::workload::{Deployment, Ledger, Timed};

/// Metric name → value, for one pass.
pub type Values = BTreeMap<&'static str, f64>;

/// The chain tag every governor's chain and store is created with.
const CHAIN_TAG: &[u8] = b"prb-chain";
/// Wall time one unit-cost sample aims for.
const SAMPLE_TARGET_S: f64 = 0.02;
/// Samples per unit cost; the median is reported.
const SAMPLES: usize = 5;
/// Most messages the echo network replays.
const ECHO_EVENT_CAP: u64 = 300_000;

/// Nanoseconds per call of `f`: one call sizes the sample, then the
/// median of [`SAMPLES`] samples of about [`SAMPLE_TARGET_S`] each.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let n = ((SAMPLE_TARGET_S / once) as usize).clamp(1, 200_000);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let ((), s) = given(|| {
                for _ in 0..n {
                    f();
                }
            });
            s * 1e9 / n as f64
        })
        .collect();
    median(&samples)
}

thread_local! {
    /// The replay's clock (see [`crate::clock`]): steal and run-queue
    /// delay are taken out of every unit cost, as they are out of the
    /// window the costs are compared with.
    static CLOCK: Clock = Clock::new();
}

/// Runs `f` and returns the seconds the thread was given for it.
fn given<T>(f: impl FnOnce() -> T) -> (T, f64) {
    CLOCK.with(|clock| clock.time(f))
}

/// What the public accessors say at one instant: every cumulative counter
/// the benchmark attributes time with. The window's own counts are the
/// difference of two readings ([`Counts::since`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Counts {
    /// Modular exponentiations of any kind (`prb_crypto::stats`).
    modexp: f64,
    sent: f64,
    bytes_sent: f64,
    dropped: f64,
    timers: f64,
    /// Kernel events: deliveries + drops + timers.
    net_events: f64,
    obs_events: f64,
    crypto_wall_ns: f64,
    retry_resent: f64,
    retry_exhausted: f64,
    /// Verify-pool batches, and the items they held.
    batches: f64,
    batch_items: f64,
    blocks_appended: f64,
    screened: f64,
    unchecked: f64,
    validations: f64,
    revealed: f64,
    certs_formed: f64,
    sig_hits: f64,
    sig_misses: f64,
    submitted: f64,
}

impl Counts {
    /// Reads the counters of `dep`, its hub and the process.
    pub fn read(dep: &Deployment, obs: &Obs) -> Counts {
        let sum = |f: &dyn Fn(&GovernorMetrics) -> u64| -> f64 {
            dep.governors().map(|g| f(g.metrics())).sum::<u64>() as f64
        };
        let net = dep.net_stats();
        let metrics = obs.metrics();
        let crypto = prb_crypto::stats::snapshot();
        let batch = metrics.histogram("crypto.batch.size");
        Counts {
            modexp: (crypto.modexp_calls + crypto.multi_pow_calls + crypto.table_pows) as f64,
            sent: net.total_sent() as f64,
            bytes_sent: net.total_bytes_sent() as f64,
            dropped: net.total_dropped() as f64,
            timers: net.timers_fired() as f64,
            net_events: (net.total_delivered() + net.total_dropped() + net.timers_fired()) as f64,
            obs_events: obs.kind_counts().iter().map(|(_, n)| *n).sum::<u64>() as f64,
            crypto_wall_ns: metrics.counter("wall.crypto_ns") as f64,
            retry_resent: metrics.counter("net.retry.resent") as f64,
            retry_exhausted: metrics.counter("net.retry.exhausted") as f64,
            batches: batch.as_ref().map_or(0.0, |h| h.count() as f64),
            batch_items: batch.as_ref().map_or(0.0, |h| h.sum() as f64),
            blocks_appended: sum(&|m| m.blocks_appended),
            screened: sum(&|m| m.screened),
            unchecked: sum(&|m| m.unchecked),
            validations: sum(&|m| m.validations),
            revealed: sum(&|m| m.revealed),
            certs_formed: sum(&|m| m.checkpoint_certs_formed),
            sig_hits: sum(&|m| m.sig_memo_hits),
            sig_misses: sum(&|m| m.sig_memo_misses),
            submitted: dep.submitted() as f64,
        }
    }

    /// What moved between `earlier` and this reading.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            modexp: self.modexp - earlier.modexp,
            sent: self.sent - earlier.sent,
            bytes_sent: self.bytes_sent - earlier.bytes_sent,
            dropped: self.dropped - earlier.dropped,
            timers: self.timers - earlier.timers,
            net_events: self.net_events - earlier.net_events,
            obs_events: self.obs_events - earlier.obs_events,
            crypto_wall_ns: self.crypto_wall_ns - earlier.crypto_wall_ns,
            retry_resent: self.retry_resent - earlier.retry_resent,
            retry_exhausted: self.retry_exhausted - earlier.retry_exhausted,
            batches: self.batches - earlier.batches,
            batch_items: self.batch_items - earlier.batch_items,
            blocks_appended: self.blocks_appended - earlier.blocks_appended,
            screened: self.screened - earlier.screened,
            unchecked: self.unchecked - earlier.unchecked,
            validations: self.validations - earlier.validations,
            revealed: self.revealed - earlier.revealed,
            certs_formed: self.certs_formed - earlier.certs_formed,
            sig_hits: self.sig_hits - earlier.sig_hits,
            sig_misses: self.sig_misses - earlier.sig_misses,
            submitted: self.submitted - earlier.submitted,
        }
    }
}

/// Everything a traced pass hands to the layer measurements.
pub struct Traced<'a> {
    /// The deployment after its window and drain.
    pub dep: &'a Deployment,
    /// What the window moved: its closing reading minus its opening one.
    pub counts: &'a Counts,
    /// The window's timings.
    pub timed: &'a Timed,
    /// Governor 0's ledger after the drain.
    pub ledger: &'a Ledger,
    /// Valid transactions submitted but not committed after the drain.
    pub failed: u64,
    /// Timed wall of the untraced pass with the same seed.
    pub untraced_wall_s: f64,
    /// A directory for the store replay.
    pub scratch: &'a std::path::Path,
}

/// Measures every per-layer metric of `t`; replays run as `replay.<layer>`
/// spans. Per-transaction figures divide the window's counters by the
/// entries committed in the window.
pub fn measure(t: &Traced<'_>, spans: &mut Spans) -> Values {
    let mut v = Values::new();
    let (dep, c) = (t.dep, t.counts);
    let cfg = dep.cfg();
    let chain = dep.governor(0).chain();
    let blocks: Vec<&Block> = chain.iter().filter(|b| b.serial > 0).collect();
    let committed = t.timed.committed as f64;
    let rounds = t.timed.round_s.len() as f64;
    let wall_us = t.timed.wall_s() * 1e6;
    let per_tx = |count: f64| count / committed;
    let sum = |f: &dyn Fn(&GovernorMetrics) -> u64| -> f64 {
        dep.governors().map(|g| f(g.metrics())).sum::<u64>() as f64
    };
    let batch_mean = c.batch_items / c.batches.max(1.0);
    let mean_batch = (batch_mean.round() as usize).clamp(1, 256);
    // The block whose size is the median: the replay's "typical block".
    let mut sizes = t.ledger.block_sizes.clone();
    sizes.sort_unstable();
    let median_block = sizes[sizes.len() / 2];
    let typical = blocks
        .iter()
        .filter(|b| !b.entries.is_empty())
        .min_by_key(|b| b.entries.len().abs_diff(median_block))
        .expect("the ledger holds a non-empty block");
    let sample_tx = &typical.entries[0].tx;
    let key = cfg.crypto.keypair_from_seed(b"prb-benchmark/replay");

    // Sim-time and accounting results of the whole run.
    v.insert("commit_ticks_p50", median(&t.ledger.commit_ticks));
    let tail_ticks = crate::stats::tail(&t.ledger.commit_ticks).map_or(0.0, |t| t.value);
    v.insert("commit_ticks_tail", tail_ticks);
    let round_ticks = t.timed.ticks as f64 / rounds;
    v.insert(
        "commit_wall_ms_tail",
        tail_ticks * median(&t.timed.round_s) * 1e3 / round_ticks,
    );
    v.insert("failed_share", t.failed as f64 / dep.submitted() as f64);

    spans.scope("replay.crypto", |_| {
        crypto(&mut v, &key, sample_tx, typical, mean_batch)
    });
    v.insert("crypto.verifies_per_tx", per_tx(c.sig_misses));
    v.insert("crypto.modexp_per_tx", per_tx(c.modexp));
    v.insert("crypto.batch_items_mean", batch_mean);
    v.insert(
        "crypto.sig_memo_hit_share",
        c.sig_hits / (c.sig_hits + c.sig_misses).max(1.0),
    );
    v.insert("crypto.wall_share", c.crypto_wall_ns / 1e3 / wall_us);

    v.insert("net.msgs_per_tx", per_tx(c.sent));
    v.insert("net.bytes_per_tx", per_tx(c.bytes_sent));
    v.insert("net.timers_per_tx", per_tx(c.timers));
    v.insert("net.dropped_share", c.dropped / c.sent.max(1.0));
    v.insert("net.retry_sends_per_tx", per_tx(c.retry_resent));
    v.insert("net.retry_exhausted", c.retry_exhausted);
    spans.scope("replay.net", |_| {
        let events = (c.net_events as u64).min(ECHO_EVENT_CAP);
        v.insert(
            "net.ns_per_event",
            echo_ns_per_event(dep.node_count(), cfg.min_delay, cfg.max_delay, events),
        );
    });

    spans.scope("replay.ledger", |_| {
        ledger(&mut v, chain, &blocks, typical, &key, cfg.b_limit)
    });

    spans.scope("replay.reputation", |_| reputation(&mut v, cfg));
    v.insert(
        "reputation.unchecked_share",
        c.unchecked / c.screened.max(1.0),
    );
    v.insert("reputation.validations_per_tx", per_tx(c.validations));
    let table = dep.governor(0).reputation();
    let weight_min = (0..table.collector_count())
        .flat_map(|i| table.collector(i).weights().iter().copied())
        .fold(f64::INFINITY, f64::min);
    v.insert("reputation.weight_min", weight_min);

    let (cert, _) = spans.scope("replay.consensus", |_| consensus(&mut v, cfg, mean_batch));
    v.insert(
        "consensus.txs_per_block",
        t.ledger.entries as f64 / t.ledger.blocks as f64,
    );
    v.insert(
        "consensus.blocks_per_round",
        t.ledger.blocks as f64 / (rounds + f64::from(t.timed.drain_rounds)),
    );
    v.insert("consensus.head_rollbacks", sum(&|m| m.head_rollbacks));
    v.insert(
        "consensus.proposals_withheld",
        sum(&|m| m.proposals_withheld),
    );

    spans.scope("replay.store", |_| {
        if cfg.store_dir.is_some() {
            store(&mut v, dep, &blocks, &cert, t.scratch);
        } else {
            // The layer is not on this workload's path.
            for name in STORE_METRICS {
                v.insert(name, 0.0);
            }
        }
    });

    spans.scope("replay.obs", |_| obs_costs(&mut v));
    v.insert("obs.events_per_tx", per_tx(c.obs_events));
    v.insert(
        "obs.trace_overhead_share",
        (t.timed.wall_s() - t.untraced_wall_s) / t.untraced_wall_s,
    );

    // Transactions generated *inside* the timed rounds, by the driver.
    let (generated_in_window, _) = spans.scope("replay.workload", |_| match dep {
        Deployment::Open { .. } => {
            v.insert(
                "workload.gen_us_per_tx",
                t.timed.generate_s * 1e6 / c.submitted,
            );
            0.0
        }
        Deployment::Closed { .. } => {
            let rate = ProviderProfile::default().invalid_rate;
            let mut wl = UniformWorkload::new(cfg.providers, rate);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let ns = ns_per_call(|| {
                black_box(wl.next_tx(0, 1, &mut rng));
            });
            v.insert("workload.gen_us_per_tx", ns / 1e3);
            c.submitted
        }
    });

    v.insert(
        "core.round_wall_ms_p90",
        percentile(&t.timed.round_s, 0.9) * 1e3,
    );
    v.insert(
        "core.pending_high_water",
        dep.governors()
            .map(|g| g.pending_stats().1)
            .max()
            .unwrap_or(0) as f64,
    );
    v.insert(
        "core.mempool_high_water",
        dep.collectors()
            .map(|c| c.mempool_stats().1)
            .max()
            .unwrap_or(0) as f64,
    );
    v.insert("core.drain_rounds", f64::from(t.timed.drain_rounds));
    let recovered = sum(&|m| m.sync_recovered);
    v.insert(
        "core.sync_pages_per_recovery",
        if recovered > 0.0 {
            sum(&|m| m.sync_served) / recovered
        } else {
            0.0
        },
    );
    v.insert(
        "core.recovery_ticks_max",
        dep.governors()
            .flat_map(|g| g.metrics().recovery_ticks.iter().copied())
            .max()
            .unwrap_or(0) as f64,
    );

    // The budget: Σ count × unit cost per layer, in µs, over the window.
    let us = |name: &str| v[name];
    let budget: [(&'static str, f64); 8] = [
        (
            "budget.net_us_per_tx",
            c.net_events * us("net.ns_per_event") / 1e3,
        ),
        (
            "budget.crypto_us_per_tx",
            c.sig_misses * us("crypto.batch_verify_us_per_sig"),
        ),
        (
            "budget.ledger_us_per_tx",
            c.blocks_appended * us("ledger.append_us_per_block")
                + committed * us("ledger.block_build_us_per_tx"),
        ),
        (
            "budget.reputation_us_per_tx",
            (c.screened * us("reputation.screen_ns_per_tx")
                + c.revealed * us("reputation.update_ns_per_reveal"))
                / 1e3,
        ),
        (
            "budget.consensus_us_per_tx",
            rounds * us("consensus.election_us_per_round")
                + c.certs_formed * us("consensus.checkpoint_cert_us"),
        ),
        (
            "budget.store_us_per_tx",
            c.blocks_appended * us("store.append_us_p50")
                + c.certs_formed * us("store.cert_save_us"),
        ),
        (
            "budget.obs_us_per_tx",
            c.obs_events * us("obs.emit_ns_counting") / 1e3,
        ),
        (
            "budget.workload_us_per_tx",
            generated_in_window * us("workload.gen_us_per_tx"),
        ),
    ];
    let round_us_per_tx = 1e6 / t.timed.tx_per_s();
    let mut attributed = 0.0;
    for (name, total_us) in budget {
        v.insert(name, total_us / committed);
        attributed += total_us / committed;
    }
    v.insert("core.round_us_per_tx", round_us_per_tx);
    v.insert("core.attributed_share", attributed / round_us_per_tx);
    v.insert("core.unattributed_us_per_tx", round_us_per_tx - attributed);
    v
}

/// prb-crypto unit costs at the workload's scheme and observed sizes.
fn crypto(v: &mut Values, key: &KeyPair, tx: &SignedTx, typical: &Block, batch: usize) {
    let pk = key.public_key();
    let msg = tx.signing_bytes();
    v.insert(
        "crypto.sign_us",
        ns_per_call(|| {
            black_box(key.sign(black_box(&msg)));
        }) / 1e3,
    );
    let sig = key.sign(&msg);
    v.insert(
        "crypto.verify_us",
        ns_per_call(|| assert!(pk.verify(black_box(&msg), &sig))) / 1e3,
    );
    v.insert(
        "crypto.batch_verify_us_per_sig",
        batch_verify_ns(key, batch, |items| {
            assert!(verify_batch(items).iter().all(|ok| *ok));
        }) / 1e3
            / batch as f64,
    );
    let election_msg = prb_consensus::election::election_message(CHAIN_TAG, 1, 0, 0);
    v.insert(
        "crypto.vrf_eval_us",
        ns_per_call(|| {
            black_box(key.vrf_evaluate(black_box(&election_msg)));
        }) / 1e3,
    );
    let eval = key.vrf_evaluate(&election_msg);
    v.insert(
        "crypto.vrf_verify_us",
        ns_per_call(|| assert!(pk.vrf_verify(black_box(&election_msg), &eval).is_some())) / 1e3,
    );
    let buf = vec![0xa5u8; 1 << 20];
    let ns = ns_per_call(|| {
        black_box(prb_crypto::sha256(black_box(&buf)));
    });
    v.insert("crypto.sha256_mb_per_s", 1e9 / ns);
    let leaves: Vec<Vec<u8>> = typical.entries.iter().map(|e| e.leaf_bytes()).collect();
    v.insert(
        "crypto.merkle_us_per_leaf",
        ns_per_call(|| {
            black_box(MerkleTree::from_leaves(black_box(&leaves)).root());
        }) / 1e3
            / leaves.len() as f64,
    );
}

/// Nanoseconds `verify` takes over `batch` distinct signed messages.
fn batch_verify_ns(
    key: &KeyPair,
    batch: usize,
    verify: impl Fn(&[(&[u8], &Sig, &PublicKey)]),
) -> f64 {
    let pk = key.public_key();
    let signed: Vec<(Vec<u8>, Sig)> = (0..batch)
        .map(|i| {
            let msg = format!("prb-benchmark/batch/{i}").into_bytes();
            let sig = key.sign(&msg);
            (msg, sig)
        })
        .collect();
    let items: Vec<(&[u8], &Sig, &PublicKey)> =
        signed.iter().map(|(m, s)| (&m[..], s, &pk)).collect();
    ns_per_call(|| verify(black_box(&items)))
}

/// An actor that forwards each message to the next node while a shared
/// budget lasts: the kernel's cost per event with no protocol on top.
struct Echo {
    nodes: usize,
    budget: Rc<Cell<u64>>,
}

impl Actor for Echo {
    type Msg = u64;

    fn on_message(&mut self, env: Envelope<u64>, ctx: &mut Context<'_, u64>) {
        let left = self.budget.get();
        if left > 0 {
            self.budget.set(left - 1);
            ctx.send((ctx.self_idx() + 1) % self.nodes, "echo", env.payload + 1);
        }
    }
}

fn echo_ns_per_event(nodes: usize, min_delay: u64, max_delay: u64, events: u64) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let budget = Rc::new(Cell::new(events));
            let mut net = Network::new(NetConfig::uniform(min_delay, max_delay), 7);
            for _ in 0..nodes {
                net.add_node(Echo {
                    nodes,
                    budget: Rc::clone(&budget),
                });
            }
            for n in 0..nodes {
                net.send_external(n, "echo", 0, prb_net::time::SimTime::ZERO);
            }
            let (processed, s) = given(|| net.run_until_idle(u64::MAX));
            s * 1e9 / processed.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// prb-ledger unit costs over the run's own chain.
fn ledger(
    v: &mut Values,
    chain: &Chain,
    blocks: &[&Block],
    typical: &Block,
    key: &KeyPair,
    b_limit: usize,
) {
    let mut nonce = 0u64;
    v.insert(
        "ledger.tx_create_ns",
        ns_per_call(|| {
            nonce += 1;
            black_box(SignedTx::create(
                TxPayload {
                    provider: NodeId::provider(0),
                    nonce,
                    data: vec![0xa5; 32],
                },
                nonce,
                key,
            ));
        }),
    );
    let txs: Vec<&SignedTx> = typical.entries.iter().map(|e| &e.tx).collect();
    v.insert(
        "ledger.tx_id_ns",
        ns_per_call(|| {
            for tx in &txs {
                black_box(tx.id());
            }
        }) / txs.len() as f64,
    );
    // Block::build is the Merkle commitment plus moving the fields in.
    v.insert(
        "ledger.block_build_us_per_tx",
        ns_per_call(|| {
            black_box(Block::compute_merkle_root(black_box(&typical.entries)));
        }) / 1e3
            / typical.entries.len() as f64,
    );
    let append: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let owned: Vec<Block> = blocks.iter().map(|b| (*b).clone()).collect();
            let mut fresh = Chain::new(CHAIN_TAG, b_limit);
            let ((), s) = given(|| {
                for b in owned {
                    fresh.append(b).expect("the run's own blocks re-append");
                }
            });
            s * 1e6 / blocks.len() as f64
        })
        .collect();
    v.insert("ledger.append_us_per_block", median(&append));
    let entries: usize = blocks.iter().map(|b| b.entries.len()).sum();
    let bytes = chain.export();
    v.insert(
        "ledger.encode_ns_per_tx",
        ns_per_call(|| {
            black_box(chain.export());
        }) / entries as f64,
    );
    v.insert(
        "ledger.decode_ns_per_tx",
        ns_per_call(|| {
            black_box(Chain::import(black_box(&bytes)).expect("own export imports"));
        }) / entries as f64,
    );
    v.insert("ledger.bytes_per_tx", bytes.len() as f64 / entries as f64);
}

/// prb-reputation unit costs at `r` reports per transaction.
fn reputation(v: &mut Values, cfg: &prb_core::ProtocolConfig) {
    let r = cfg.replication as usize;
    let reports: Vec<Report> = (0..r)
        .map(|i| Report {
            collector: i as u32,
            labeled_valid: i % 2 == 0,
            weight: 1.0,
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let f = cfg.reputation.f;
    v.insert(
        "reputation.screen_ns_per_tx",
        ns_per_call(|| {
            black_box(screen(black_box(&reports), f, &mut rng));
        }),
    );
    let mut table = ReputationTable::new(cfg.collectors as usize, cfg.s() as usize, cfg.reputation);
    let revealed: Vec<RevealedReport> = (0..r)
        .map(|i| RevealedReport {
            collector: i,
            provider_slot: 0,
            behaviour: if i % 2 == 0 {
                RevealedBehaviour::Correct
            } else {
                RevealedBehaviour::Wrong
            },
        })
        .collect();
    v.insert(
        "reputation.update_ns_per_reveal",
        ns_per_call(|| {
            black_box(table.record_revealed(black_box(&revealed)));
        }),
    );
}

/// prb-consensus unit costs at the deployment's committee and scheme.
/// Returns the quorum certificate it verified, for the store replay.
fn consensus(v: &mut Values, cfg: &prb_core::ProtocolConfig, batch: usize) -> CheckpointCert {
    let m = cfg.governors;
    let keys: Vec<KeyPair> = (0..m)
        .map(|g| {
            cfg.crypto
                .keypair_from_seed(format!("prb-benchmark/governor/{g}").as_bytes())
        })
        .collect();
    let pks: Vec<PublicKey> = keys.iter().map(KeyPair::public_key).collect();
    let stakes = vec![cfg.stake_per_governor; m as usize];
    let claim = |g: u32| {
        ElectionClaim::compute(CHAIN_TAG, 1, g, cfg.stake_per_governor, &keys[g as usize])
            .expect("positive stake yields a claim")
    };
    let claims: Vec<ElectionClaim> = (0..m).map(claim).collect();
    // Every governor computes its own claim and tallies everyone's.
    let one = ns_per_call(|| {
        black_box(claim(0));
        black_box(elect(CHAIN_TAG, 1, &claims, &stakes, &pks));
    });
    v.insert("consensus.election_us_per_round", one / 1e3 * f64::from(m));

    let pool = VerifyPool::with_inline_min(cfg.verify_threads, cfg.verify_inline_min);
    v.insert(
        "consensus.verify_pool_us_per_batch",
        batch_verify_ns(&keys[0], batch, |items| {
            assert!(pool.verify_sigs(items).iter().all(|ok| *ok));
        }) / 1e3,
    );

    let state = CheckpointState {
        serial: cfg.checkpoint_interval.max(1),
        block_hash: prb_crypto::sha256(b"prb-benchmark/checkpoint"),
        stakes: stakes.clone(),
        stake_nonces: vec![0; m as usize],
        reputation: (0..cfg.collectors)
            .map(|_| CollectorSnapshot {
                weights: vec![1.0; cfg.s() as usize],
                misreport: 0,
                forge: 0,
            })
            .collect(),
    };
    let digest = state.digest();
    let sigs = (0..quorum(m as usize) as u32)
        .map(|g| {
            let share = CheckpointShare::create(state.serial, digest, g, &keys[g as usize]);
            (g, share.sig)
        })
        .collect();
    let cert = CheckpointCert { state, sigs };
    v.insert(
        "consensus.checkpoint_cert_us",
        ns_per_call(|| {
            cert.verify(black_box(&pks), &[])
                .expect("quorum certificate verifies")
        }) / 1e3,
    );
    cert
}

const STORE_METRICS: [&str; 7] = [
    "store.append_us_p50",
    "store.append_us_p90",
    "store.fsyncs_per_block",
    "store.bytes_per_block",
    "store.cert_save_us",
    "store.open_replay_ms",
    "store.read_us_per_block",
];

/// prb-store unit costs: the run's blocks appended to, reopened from and
/// read back out of a fresh store with the deployment's options. Single
/// appends are 0.3 ms of mostly fsync wait, finer than the steal counter's
/// 10 ms tick, so these are plain wall times; their medians shrug off
/// what interference there is.
fn store(
    v: &mut Values,
    dep: &Deployment,
    blocks: &[&Block],
    synthetic_cert: &CheckpointCert,
    scratch: &std::path::Path,
) {
    let cfg = dep.cfg();
    let opts = || StoreOptions {
        chain_tag: CHAIN_TAG.to_vec(),
        b_limit: cfg.b_limit,
        segment_bytes: cfg.store_segment_bytes,
        fsync: FsyncPolicy::Always,
    };
    let dir = scratch.join("replay-store");
    let (mut st, _) = BlockStore::open(&dir, opts()).expect("fresh store opens");
    let append_us: Vec<f64> = blocks
        .iter()
        .map(|b| {
            let t = Instant::now();
            st.append(b).expect("append to the replay store");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    v.insert("store.append_us_p50", median(&append_us));
    v.insert("store.append_us_p90", percentile(&append_us, 0.9));
    let stats = st.stats();
    v.insert(
        "store.fsyncs_per_block",
        stats.fsyncs as f64 / stats.appends as f64,
    );
    v.insert(
        "store.bytes_per_block",
        stats.append_bytes as f64 / stats.appends as f64,
    );
    // Governor 0's own certificate when the run formed one (governors'
    // screening coins differ, so in reputation mode their state digests
    // rarely reach a quorum); else one of the same shape.
    let cert = dep.governor(0).latest_cert().unwrap_or(synthetic_cert);
    let cert_us: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            st.save_cert(cert).expect("save the certificate");
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    v.insert("store.cert_save_us", median(&cert_us));
    drop(st);
    // The synthetic certificate's signers are not this deployment's
    // governors: the reopen below must not try to trust it.
    let _ = std::fs::remove_file(dir.join(prb_store::certfile::CERT_FILE));
    let open_ms: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            let reopened = BlockStore::open(&dir, opts()).expect("replayed store reopens");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(reopened.1.chain.height(), blocks.len() as u64);
            ms
        })
        .collect();
    v.insert("store.open_replay_ms", median(&open_ms));
    let (mut st, _) = BlockStore::open(&dir, opts()).expect("replayed store reopens");
    let t = Instant::now();
    for b in blocks {
        let read = st.read(b.serial).expect("read back");
        assert!(read.is_some_and(|r| r.hash() == b.hash()));
    }
    v.insert(
        "store.read_us_per_block",
        t.elapsed().as_nanos() as f64 / 1e3 / blocks.len() as f64,
    );
}

/// prb-obs unit costs: one emit on a disabled and on a counting hub.
fn obs_costs(v: &mut Values) {
    let event = || EventKind::MsgSent {
        msg: "echo",
        to: 1,
        bytes: 64,
    };
    let off = Obs::off();
    v.insert(
        "obs.emit_ns_off",
        ns_per_call(|| off.emit(black_box(1), 0, event())),
    );
    let counting = Obs::counting();
    v.insert(
        "obs.emit_ns_counting",
        ns_per_call(|| counting.emit(black_box(1), 0, event())),
    );
}

/// The budget as a table: layer, µs per committed transaction, share.
pub fn budget_table(v: &Values) -> String {
    use std::fmt::Write as _;
    let total = v["core.round_us_per_tx"];
    let mut out = String::new();
    let mut row = |label: &str, us: f64| {
        writeln!(
            out,
            "  {label:<28} {us:>12.3} us/tx {:>7.2}%",
            100.0 * us / total
        )
        .expect("String write");
    };
    for (name, us) in v.iter().filter(|(n, _)| n.starts_with("budget.")) {
        row(name, *us);
    }
    row(
        "core.unattributed_us_per_tx",
        v["core.unattributed_us_per_tx"],
    );
    row("= core.round_us_per_tx", total);
    out
}
