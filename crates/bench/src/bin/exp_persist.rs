//! **E16 — durability: crash-safe persistence, signed checkpoints, and
//! O(delta) state-sync.**
//!
//! ```text
//! cargo run --release -p prb-bench --bin exp_persist [--quick]
//!     [--bench-out BENCH_persist.json]
//! ```
//!
//! Three phases, all assertion-gated:
//!
//! - **kill-at-any-byte matrix**: a reference chain is mirrored into a
//!   durable store with small segments (forcing rolls), then the
//!   on-disk byte stream is cut at every offset `k` and reopened. Each
//!   recovery must land exactly on the last durable block boundary
//!   (computed independently from the record layout), export
//!   byte-identical to the reference prefix at that height, and accept
//!   the remaining suffix back to the reference head.
//! - **checkpoint state-sync**: a governor crashed across several
//!   checkpoint intervals recovers by adopting a quorum-signed
//!   checkpoint certificate from the anti-entropy sync path and then
//!   fetches only the `delta = head − serial` suffix: the page count
//!   after adoption is asserted `≤ delta / sync_page + 1`.
//! - **restart**: a deployment with `store_dir` set is torn down and
//!   rebuilt over the same directories; every governor must reopen
//!   byte-identical to its pre-crash chain (same master seed — the
//!   committee identities derive from it — with a fresh `driver_seed`
//!   decorrelating the resumed workload) and keep committing. A second
//!   restart with one governor's segment tail physically truncated must
//!   recover the surviving prefix and resync the lost blocks from its
//!   peers.
//!
//! The machine-readable summary goes to `BENCH_persist.json` (override
//! with `--bench-out`). Every field is deterministic — no wall-clock,
//! no filesystem paths — so two runs of the same mode produce
//! byte-identical files; `--quick` strides the kill matrix and shrinks
//! the runs for CI smoke.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use prb_bench::{Args, Table};
use prb_core::config::{GovernorMode, ProtocolConfig};
use prb_core::sim::Simulation;
use prb_crypto::identity::NodeId;
use prb_crypto::signer::CryptoScheme;
use prb_ledger::block::{Block, BlockEntry, Verdict};
use prb_ledger::chain::Chain;
use prb_ledger::transaction::{Label, SignedTx, TxPayload};
use prb_net::fault::FaultPlan;
use prb_net::time::SimTime;
use prb_store::{BlockStore, FsyncPolicy, StoreOptions};

/// Root scratch directory for this run (removed before exit).
fn scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("prb-exp-persist-{}", std::process::id()))
}

fn store_opts(segment_bytes: u64) -> StoreOptions {
    StoreOptions {
        chain_tag: b"persist-exp".to_vec(),
        b_limit: 64,
        segment_bytes,
        fsync: FsyncPolicy::Always,
    }
}

fn entry(nonce: u64) -> BlockEntry {
    let key = CryptoScheme::sim().keypair_from_seed(b"persist-p0");
    BlockEntry {
        tx: SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce,
                data: vec![nonce as u8; 24],
            },
            nonce,
            &key,
        ),
        verdict: Verdict::CheckedValid,
        reported_labels: vec![(NodeId::collector(0), Label::Valid)],
    }
}

fn extend(chain: &Chain, entries: Vec<BlockEntry>) -> Block {
    Block::build(
        chain.next_serial(),
        entries,
        chain.head_hash(),
        NodeId::governor(0),
        chain.next_serial(),
    )
}

/// Sorted segment files of a store directory.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-"))
        })
        .collect();
    files.sort();
    files
}

/// What the kill-at-any-byte matrix reports.
struct KillMatrix {
    cuts: u64,
    total_bytes: u64,
    segments: usize,
    max_truncated_bytes: u64,
    torn_header_cuts: u64,
}

/// Builds a reference store, then cuts the concatenated segment byte
/// stream at every offset (striding in quick mode) and proves each
/// recovery byte-identical and forward-completable.
fn kill_matrix(root: &Path, blocks: u64, segment_bytes: u64, stride: usize) -> KillMatrix {
    let golden = root.join("golden");
    let (_store, chain, snapshots) = {
        let (mut store, recovered) =
            BlockStore::open(&golden, store_opts(segment_bytes)).expect("golden store");
        let mut chain = recovered.chain;
        let mut snapshots = vec![chain.export()];
        for i in 0..blocks {
            let block = extend(&chain, vec![entry(i * 2), entry(i * 2 + 1)]);
            chain.append(block.clone()).expect("reference append");
            store.append(&block).expect("golden append");
            snapshots.push(chain.export());
        }
        (store, chain, snapshots)
    };

    // Independent ground truth from the on-disk layout: the global end
    // offset of every record, walking the segment format directly
    // (16-byte segment header, then `len | checksum32 | payload`
    // records). `expected(k)` = records wholly durable within `k` bytes.
    let files = segment_files(&golden);
    let mut record_ends = Vec::new();
    let mut global = 0u64;
    let mut file_bytes = Vec::new();
    for path in &files {
        let bytes = fs::read(path).expect("segment bytes");
        let mut pos = 16u64;
        while (pos as usize) < bytes.len() {
            let len = u32::from_be_bytes(
                bytes[pos as usize..pos as usize + 4]
                    .try_into()
                    .expect("len header"),
            ) as u64;
            pos += 36 + len;
            record_ends.push(global + pos);
        }
        global += bytes.len() as u64;
        file_bytes.push(bytes);
    }
    let total: u64 = global;
    assert_eq!(record_ends.len() as u64, blocks, "one record per block");

    let scratch = root.join("cut");
    let mut cuts = 0u64;
    let mut max_truncated = 0u64;
    let mut torn_header_cuts = 0u64;
    let mut prev_height = 0u64;
    let mut heights_seen = vec![false; blocks as usize + 1];
    for k in (0..=total as usize).step_by(stride) {
        let k = k as u64;
        let _ = fs::remove_dir_all(&scratch);
        fs::create_dir_all(&scratch).expect("scratch dir");
        // Materialize exactly the first `k` bytes of the stream: files
        // wholly before the cut copy verbatim, the straddling file is
        // cut short, later files never existed.
        let mut off = 0u64;
        for (path, bytes) in files.iter().zip(&file_bytes) {
            let end = off + bytes.len() as u64;
            if k > off {
                let take = (k - off).min(bytes.len() as u64) as usize;
                fs::write(
                    scratch.join(path.file_name().expect("segment name")),
                    &bytes[..take],
                )
                .expect("write cut segment");
            }
            off = end;
        }
        let (mut store, recovered) =
            BlockStore::open(&scratch, store_opts(segment_bytes)).expect("reopen after cut");
        let height = recovered.chain.height();
        let expected = record_ends.iter().filter(|&&e| e <= k).count() as u64;
        assert_eq!(
            height, expected,
            "cut at byte {k}: recovered height {height}, layout says {expected}"
        );
        assert_eq!(
            recovered.chain.export(),
            snapshots[height as usize],
            "cut at byte {k}: recovered prefix is not byte-identical"
        );
        assert!(height >= prev_height, "recovery regressed at byte {k}");
        prev_height = height;
        heights_seen[height as usize] = true;
        max_truncated = max_truncated.max(recovered.truncated_bytes);
        if recovered.dropped_segments > 0 {
            torn_header_cuts += 1;
        }
        // Forward completion: the survivor accepts the lost suffix and
        // ends at the reference head, byte-identical.
        let mut cut_chain = recovered.chain;
        for s in height + 1..=blocks {
            let block = chain.retrieve(s).expect("reference block").clone();
            cut_chain.append(block.clone()).expect("suffix re-append");
            store.append(&block).expect("suffix re-append to store");
        }
        assert_eq!(
            cut_chain.export(),
            snapshots[blocks as usize],
            "cut at byte {k}: suffix replay diverged from the reference head"
        );
        cuts += 1;
    }
    if stride == 1 {
        // Every cut offset visited: every intermediate height must have
        // been recovered at least once.
        assert!(
            heights_seen.iter().all(|&s| s),
            "some durable height was never produced by any cut"
        );
    }
    KillMatrix {
        cuts,
        total_bytes: total,
        segments: files.len(),
        max_truncated_bytes: max_truncated,
        torn_header_cuts,
    }
}

/// What the checkpoint state-sync phase reports.
struct CheckpointSync {
    head: u64,
    adopted_serial: u64,
    delta: u64,
    pages_after_adopt: u64,
    page_bound: u64,
    certs_formed: u64,
    shares_sent: u64,
    base_after_adopt: u64,
}

/// A governor crashed across several checkpoint intervals recovers via
/// a quorum-signed checkpoint plus an O(delta) suffix fetch.
fn checkpoint_sync(rounds: u32) -> CheckpointSync {
    let cfg = ProtocolConfig {
        governor_mode: GovernorMode::CheckAll,
        checkpoint_interval: 2,
        sync_page: 4,
        seed: 31,
        ..Default::default()
    };
    let rt = cfg.round_ticks();
    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    let mut faults = FaultPlan::none();
    faults.crash_window(sim.governor_net_index(3), SimTime(rt), SimTime(10 * rt));
    sim.set_faults(faults);
    sim.run(rounds);
    sim.run_drain_rounds(2);

    let m3 = sim.metrics(3);
    assert!(m3.checkpoints_adopted >= 1, "governor 3 never adopted");
    let head = sim.governor(0).chain().height();
    let adopted = m3.adopted_serial;
    let delta = head - adopted;
    let bound = delta / cfg.sync_page as u64 + 1;
    assert!(
        m3.pages_after_adopt <= bound,
        "O(delta) violated: {} pages for delta {delta}",
        m3.pages_after_adopt
    );
    let chain3 = sim.governor(3).chain();
    assert!(chain3.is_anchored(), "adopter should be anchored");
    assert!(sim.chains_agree(), "suffix disagrees after adoption");
    let (mut certs, mut shares) = (0, 0);
    for g in 0..cfg.governors {
        certs += sim.metrics(g).checkpoint_certs_formed;
        shares += sim.metrics(g).checkpoint_shares_sent;
    }
    CheckpointSync {
        head,
        adopted_serial: adopted,
        delta,
        pages_after_adopt: m3.pages_after_adopt,
        page_bound: bound,
        certs_formed: certs,
        shares_sent: shares,
        base_after_adopt: chain3.base(),
    }
}

/// What the restart phase reports.
struct Restart {
    first_height: u64,
    resumed_height: u64,
    cert_recovered_height: u64,
    torn_first_height: u64,
    torn_recovered_height: u64,
    final_height: u64,
}

/// Tear down a deployment with durable stores, rebuild it over the same
/// directories, and prove byte-identical recovery plus continued
/// progress — then repeat with one governor's tail physically truncated.
fn restart(root: &Path, rounds: u32) -> Restart {
    let dir = root.join("deployment");
    let cfg = ProtocolConfig {
        governor_mode: GovernorMode::CheckAll,
        checkpoint_interval: 2,
        store_dir: Some(dir.clone()),
        seed: 101,
        ..Default::default()
    };

    let mut sim = Simulation::new(cfg.clone()).expect("valid config");
    sim.run(rounds);
    sim.run_drain_rounds(1);
    let first_height = sim.governor(0).chain().height();
    let exports: Vec<Vec<u8>> = (0..cfg.governors)
        .map(|g| sim.governor(g).chain().export())
        .collect();
    assert!(first_height >= u64::from(rounds) - 1, "first run stalled");
    drop(sim);

    // Restart 1: clean recovery. Same master seed (same committee, so
    // persisted certs verify), fresh driver seed (fresh workload).
    let mut sim = Simulation::new(ProtocolConfig {
        driver_seed: Some(7),
        ..cfg.clone()
    })
    .expect("valid config");
    for g in 0..cfg.governors {
        assert_eq!(
            sim.governor(g).chain().export(),
            exports[g as usize],
            "governor {g} did not reopen byte-identically"
        );
    }
    sim.run(rounds);
    sim.run_drain_rounds(1);
    let resumed_height = sim.governor(0).chain().height();
    assert!(
        resumed_height > first_height,
        "restarted run never progressed"
    );
    assert!(sim.chains_agree(), "restarted committee diverged");
    drop(sim);

    // Restart 2: governor 3's newest segment loses its tail — a crash
    // mid-append. The lost blocks are *covered by its persisted
    // checkpoint certificate*, so recovery heals through the cert: the
    // store re-anchors at the certified head and loses nothing.
    truncate_tail(&dir.join("g3"), 40);
    let sim = Simulation::new(ProtocolConfig {
        driver_seed: Some(8),
        ..cfg.clone()
    })
    .expect("valid config");
    let cert_recovered_height = sim.governor(3).chain().height();
    // The cert certifies the newest interval boundary; truncation costs
    // one block, so recovery lands at full height (cert ahead of the
    // torn prefix — re-anchored) or one short (boundary was the torn
    // block itself — plain prefix recovery). Either way the durable
    // prefix survives.
    assert!(
        cert_recovered_height >= resumed_height.saturating_sub(1),
        "the torn tail cost more than its unsynced record \
         (recovered {cert_recovered_height}, pre-crash {resumed_height})"
    );
    if cert_recovered_height == resumed_height {
        assert!(
            sim.governor(3).chain().is_anchored(),
            "full-height recovery after a torn tail is only reachable \
             through the persisted cert, which re-anchors"
        );
    }
    drop(sim);

    // Restart 3: the same torn tail with checkpointing disabled — no
    // cert can mask the loss, so governor 3 must reopen on the
    // surviving prefix and resync the lost blocks from its peers.
    let torn_dir = root.join("deployment-torn");
    let torn_cfg = ProtocolConfig {
        governor_mode: GovernorMode::CheckAll,
        checkpoint_interval: 0,
        store_dir: Some(torn_dir.clone()),
        seed: 103,
        ..Default::default()
    };
    let mut sim = Simulation::new(torn_cfg.clone()).expect("valid config");
    sim.run(rounds);
    sim.run_drain_rounds(1);
    let torn_first_height = sim.governor(0).chain().height();
    drop(sim);

    truncate_tail(&torn_dir.join("g3"), 40);
    let mut sim = Simulation::new(ProtocolConfig {
        driver_seed: Some(9),
        ..torn_cfg.clone()
    })
    .expect("valid config");
    let torn_recovered_height = sim.governor(3).chain().height();
    assert!(
        torn_recovered_height < torn_first_height,
        "truncation should have cost governor 3 at least its head block"
    );
    sim.run(rounds);
    sim.run_drain_rounds(2);
    let final_height = sim.governor(0).chain().height();
    for g in 0..torn_cfg.governors {
        assert_eq!(
            sim.governor(g).chain().height(),
            final_height,
            "governor {g} did not rejoin the live head"
        );
    }
    assert!(
        sim.chains_prefix_agree(&(0..torn_cfg.governors).collect::<Vec<_>>()),
        "prefixes diverged after torn-tail resync"
    );
    Restart {
        first_height,
        resumed_height,
        cert_recovered_height,
        torn_first_height,
        torn_recovered_height,
        final_height,
    }
}

/// Chops `bytes` off a store directory's newest segment — a crash
/// mid-append.
fn truncate_tail(store_dir: &Path, bytes: u64) {
    let segs = segment_files(store_dir);
    let tail = segs.last().expect("store has segments");
    let len = fs::metadata(tail).expect("tail metadata").len();
    fs::OpenOptions::new()
        .write(true)
        .open(tail)
        .expect("open tail segment")
        .set_len(len.saturating_sub(bytes))
        .expect("truncate tail segment");
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let out_path = args.get("bench-out").unwrap_or("BENCH_persist.json");
    let root = scratch_root();
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("scratch root");

    let blocks = if quick { 6 } else { 12 };
    let stride = if quick { 13 } else { 1 };
    let rounds = if quick { 5 } else { 8 };
    let sync_rounds = if quick { 14 } else { 16 };

    println!("# E16 — durable store, signed checkpoints, O(delta) state-sync\n");

    let km = kill_matrix(&root, blocks, 512, stride);
    let mut table = Table::new(
        "kill-at-any-byte matrix (every recovery byte-identical and forward-completable)",
        &[
            "cuts",
            "stream bytes",
            "segments",
            "max torn bytes",
            "torn-header cuts",
        ],
    );
    table.row(vec![
        km.cuts.to_string(),
        km.total_bytes.to_string(),
        km.segments.to_string(),
        km.max_truncated_bytes.to_string(),
        km.torn_header_cuts.to_string(),
    ]);
    table.print();

    let cs = checkpoint_sync(sync_rounds);
    let mut table = Table::new(
        "checkpoint state-sync (governor 3 crashed across checkpoint intervals)",
        &[
            "head",
            "adopted serial",
            "delta",
            "pages after adopt",
            "bound",
            "certs formed",
            "shares sent",
        ],
    );
    table.row(vec![
        cs.head.to_string(),
        cs.adopted_serial.to_string(),
        cs.delta.to_string(),
        cs.pages_after_adopt.to_string(),
        cs.page_bound.to_string(),
        cs.certs_formed.to_string(),
        cs.shares_sent.to_string(),
    ]);
    table.print();

    let rs = restart(&root, rounds);
    let mut table = Table::new(
        "restart over durable stores (byte-identical reopen, cert heal, torn-tail resync)",
        &[
            "first height",
            "resumed height",
            "cert-heal height",
            "torn-run height",
            "torn recovery height",
            "final height",
        ],
    );
    table.row(vec![
        rs.first_height.to_string(),
        rs.resumed_height.to_string(),
        rs.cert_recovered_height.to_string(),
        rs.torn_first_height.to_string(),
        rs.torn_recovered_height.to_string(),
        rs.final_height.to_string(),
    ]);
    table.print();

    println!("Interpretation: the store's recovery invariant holds at every byte");
    println!("offset — a crash can only cost the unsynced tail, never a durable");
    println!("prefix, and the survivor always re-accepts the lost suffix. A node");
    println!("that slept through checkpoint intervals rejoins via one signed");
    println!("checkpoint plus an O(delta) page fetch instead of replaying the");
    println!("chain, and a restarted deployment picks up exactly where its");
    println!("stores left off.");

    // --- BENCH_persist.json (deterministic: no wall-clock, no paths) ----
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"persist\",");
    let _ = writeln!(
        out,
        "  \"config\": {{\"blocks\": {blocks}, \"segment_bytes\": 512, \
         \"stride\": {stride}, \"rounds\": {rounds}, \
         \"sync_rounds\": {sync_rounds}, \"checkpoint_interval\": 2, \
         \"sync_page\": 4}},"
    );
    let _ = writeln!(
        out,
        "  \"kill_matrix\": {{\"cuts\": {}, \"stream_bytes\": {}, \
         \"segments\": {}, \"max_truncated_bytes\": {}, \
         \"torn_header_cuts\": {}, \"byte_identical\": true}},",
        km.cuts, km.total_bytes, km.segments, km.max_truncated_bytes, km.torn_header_cuts
    );
    let _ = writeln!(
        out,
        "  \"checkpoint_sync\": {{\"head\": {}, \"adopted_serial\": {}, \
         \"delta\": {}, \"pages_after_adopt\": {}, \"page_bound\": {}, \
         \"anchored_base\": {}, \"certs_formed\": {}, \"shares_sent\": {}}},",
        cs.head,
        cs.adopted_serial,
        cs.delta,
        cs.pages_after_adopt,
        cs.page_bound,
        cs.base_after_adopt,
        cs.certs_formed,
        cs.shares_sent
    );
    let _ = writeln!(
        out,
        "  \"restart\": {{\"first_height\": {}, \"resumed_height\": {}, \
         \"cert_recovered_height\": {}, \"torn_first_height\": {}, \
         \"torn_recovered_height\": {}, \"final_height\": {}, \
         \"byte_identical_reopen\": true, \"torn_tail_resynced\": true}},",
        rs.first_height,
        rs.resumed_height,
        rs.cert_recovered_height,
        rs.torn_first_height,
        rs.torn_recovered_height,
        rs.final_height
    );
    // The asserts above panic on violation; reaching this point means
    // every invariant held.
    let _ = writeln!(
        out,
        "  \"asserts\": {{\"kill_matrix_byte_identical\": \"pass\", \
         \"kill_matrix_exact_boundary\": \"pass\", \
         \"suffix_replay_completes\": \"pass\", \
         \"pages_within_delta_bound\": \"pass\", \
         \"restart_byte_identical\": \"pass\", \
         \"torn_tail_resynced\": \"pass\"}}"
    );
    out.push_str("}\n");
    fs::remove_dir_all(&root).expect("scratch cleanup");
    std::fs::write(out_path, &out).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("\nwritten to {out_path}");
}
