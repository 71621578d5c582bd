//! Kernel events per committed transaction, pinned exactly.
//!
//! The kernel's RNG is shared by every actor — link delays and the
//! screening draw come out of one stream — so the *sequence* of events is
//! part of what makes a ledger head reproducible. These counts are exact
//! per seed; a change that moves one has changed the schedule, and has to
//! do so knowingly. They were the same before and after the event queue
//! and the governor's transaction table were rewritten (PR 24), and were
//! re-recorded on purpose when a collector's uploads became one batch per
//! dispatch and a governor's Δ windows one timer per due tick (PR 26).
//! That moves fewer link-delay draws out of the stream; the open-loop
//! ledger head here and on `open-steady` stayed byte-identical (every
//! arrival valid and labeled so, so each draw checks, and blocks sort
//! their entries), the closed-loop one did not. The closed-loop tuple was
//! re-recorded once more when closed-loop collectors began holding their
//! labels until the collection phase closes; the open-loop one did not
//! move.
//!
//! Each test also pins every message kind's sent count and declared
//! bytes, the figures §4.1's message complexity and the benchmark's
//! `net.*` layer are read from.
//!
//! Its own file, like `tests/hash_budget.rs`, so nothing else runs in the
//! process.

use prb::core::config::{ProtocolConfig, RevealPolicy};
use prb::core::scale::ScaleSim;
use prb::core::sim::Simulation;
use prb::net::stats::MessageStats;
use prb::workload::ScaleWorkload;

/// `(kind, sent, bytes sent)` for every message kind, in kind order: the
/// labels and declared sizes that §4.1's complexity counts and the
/// benchmark's `net.*` layer are read from.
fn sent_and_bytes_per_kind(stats: &MessageStats) -> Vec<(&'static str, u64, u64)> {
    stats
        .iter()
        .map(|(kind, k)| (kind, k.sent, k.bytes_sent))
        .collect()
}

#[test]
fn events_timers_and_messages_per_committed_tx_are_unchanged() {
    // A scaled-down `open-steady` (BENCHMARK.json): open loop, sim signer,
    // r = 2, 4 governors, all arrivals valid.
    let cfg = ProtocolConfig {
        providers: 2_000,
        collectors: 10,
        governors: 4,
        replication: 2,
        tx_per_provider: 0,
        open_loop: true,
        reveal: RevealPolicy::ArgueOnly,
        seed: 11,
        ..Default::default()
    };
    let mut sim = ScaleSim::new(cfg, 16).unwrap();
    let mut wl = ScaleWorkload::for_sim(&sim, 0.0);
    let ticks = sim.round_ticks();
    for _ in 0..6 {
        let arrivals = wl.window(sim.next_round_start(), ticks, 2.0);
        sim.run_round(arrivals);
    }
    sim.drain(4);
    assert!(sim.chains_agree());
    assert_eq!(sim.committed(), wl.generated(), "every arrival commits");

    let stats = sim.net_stats();
    let counts = (
        sim.committed(),
        sim.events_processed(),
        stats.timers_fired(),
        stats.total_sent(),
        stats.kind("tx-upload").delivered,
    );
    // Per transaction: 2 broadcasts in. Everything else is per round:
    // one upload batch per collector per governor, one Δ timer per
    // governor per tick on which windows fall due, round starts, election
    // claims, proposals. 2.44 events, 0.07 timers and 2.38 sends per
    // committed transaction here; before batching (PR 26), 2 × 4 uploads
    // and 4 timers per transaction made it 14.20, 4 and 10.20.
    assert_eq!(counts, EXPECTED);
    assert_eq!(sent_and_bytes_per_kind(stats), EXPECTED_KINDS);
    assert_eq!(stats.total_dropped(), 0);
    assert_eq!(
        sim.events_processed(),
        stats.total_delivered() + stats.timers_fired(),
        "with no faults every event is a delivery or a timer"
    );
}

/// `(committed, events processed, timers fired, messages sent, uploads
/// delivered)` for the run above. At the parent of PR 24 and until PR 26:
/// `(1_464, 20_790, 5_856, 14_934, 11_712)`, one upload and one timer per
/// copy.
const EXPECTED: (u64, u64, u64, u64, u64) = (1_464, 3_577, 99, 3_478, 256);

/// `(kind, sent, bytes sent)` for the run above. Driver commands
/// (`propose-block`, `start-round`, and `tx-broadcast`, which the open
/// loop injects from outside) declare no bytes.
const EXPECTED_KINDS: &[(&str, u64, u64)] = &[
    ("block-proposal", 21, 426_504),
    ("election-claim", 84, 8_064),
    ("header-echo", 63, 4_536),
    ("propose-block", 28, 0),
    ("start-round", 98, 0),
    ("tx-broadcast", 2_928, 0),
    ("tx-upload", 256, 1_401_728),
];

#[test]
fn closed_loop_event_sequence_is_unchanged() {
    // The closed-loop side of the one round step: provider actors, reliable
    // delivery (acks and retry timers), reveals one round after the block,
    // and every entry point that runs a round — `run`, `run_drain_rounds`
    // — plus `settle`.
    let cfg = ProtocolConfig {
        providers: 8,
        collectors: 4,
        governors: 4,
        replication: 2,
        tx_per_provider: 3,
        reliable_delivery: true,
        reveal: RevealPolicy::AfterRounds(1),
        seed: 25,
        ..Default::default()
    };
    let round_ticks = cfg.round_ticks();
    let mut sim = Simulation::new(cfg).unwrap();
    sim.run(4);
    sim.run_drain_rounds(2);
    sim.settle(2 * round_ticks);
    assert!(sim.chains_agree());

    let committed: u64 = sim
        .governor(0)
        .chain()
        .iter()
        .map(|b| b.entries.len() as u64)
        .sum();
    let stats = sim.net_stats();
    let counts = (
        committed,
        stats.total_sent(),
        stats.timers_fired(),
        stats.total_delivered(),
        stats.kind("block-notify").delivered,
        stats.kind("reveal").delivered,
        stats.kind("tx-upload").delivered,
    );
    assert_eq!(counts, EXPECTED_CLOSED);
    assert_eq!(sent_and_bytes_per_kind(stats), EXPECTED_CLOSED_KINDS);
}

/// `(committed entries, messages sent, timers fired, messages delivered,
/// block-notify, reveal and tx-upload deliveries)` for the closed-loop run
/// above. At the parent of PR 25 and until PR 26: `(87, 2_388, 1_488,
/// 2_388, 48, 36, 768)`. Batching moved it: a delivery that releases two
/// provider transactions is now one upload per governor, and windows due
/// on one tick share a timer — so fewer delay draws, and the screening
/// draws fall differently: 32 unchecked entries revealed, not 36, and 86
/// entries committed, not 87. Until the closed-loop collection phase
/// (collectors hold their labels until the driver's `EndCollect`):
/// `(86, 1_808, 949, 1_808, 48, 32, 480)`. Now each collector uploads once
/// per collect round, 4 collectors × 4 governors × 4 rounds = 64 uploads
/// with nothing retransmitted, and the sends, acks and retry timers that
/// went with the other 416 went too; the fewer delay draws moved the
/// screening draws again (20 entries revealed, 83 committed): `(83, 988,
/// 429, 988, 48, 20, 64)` until the election drew one VRF per governor per
/// round. That moved every election outcome, and with the leaders the
/// screening draws: 32 entries revealed, 86 committed, and 12 more sends.
const EXPECTED_CLOSED: (u64, u64, u64, u64, u64, u64, u64) = (86, 1_000, 429, 1_000, 48, 32, 64);

/// `(kind, sent, bytes sent)` for the closed-loop run above. Reliable
/// delivery is on: every `tx-broadcast`, `tx-upload`, `election-claim`,
/// `block-proposal` and `header-echo` travels in the retry envelope and
/// declares 8 bytes more, and each delivered copy is acked (8 bytes).
/// Driver commands declare no bytes.
const EXPECTED_CLOSED_KINDS: &[(&str, u64, u64)] = &[
    ("ack", 400, 3_200),
    ("block-notify", 48, 0),
    ("block-proposal", 18, 29_088),
    ("election-claim", 72, 7_488),
    ("end-collect", 24, 0),
    ("header-echo", 54, 4_320),
    ("propose-block", 24, 0),
    ("reveal", 32, 0),
    ("start-collect", 32, 0),
    ("start-round", 40, 0),
    ("tx-broadcast", 192, 24_000),
    ("tx-upload", 64, 96_064),
];
