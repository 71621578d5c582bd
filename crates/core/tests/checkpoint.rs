//! Checkpoint formation, O(delta) state-sync adoption, byzantine offer
//! rejection, and durable-store restart — the core-level coverage for
//! the E16 durability subsystem.
//!
//! Quorum certificates require the governors' full certified state
//! (chain head, stakes, reputation) to agree digest-for-digest. In
//! `CheckAll` mode every governor validates every transaction, so the
//! reputation updates are bit-identical and certs form at every
//! interval boundary; in `Reputation` mode the per-governor screening
//! coins legitimately diverge the tables, which surfaces as counted
//! digest mismatches — never as a safety violation.

use std::cell::RefCell;
use std::rc::Rc;

use prb_consensus::checkpoint::{CheckpointCert, CheckpointShare, CheckpointState};
use prb_core::config::{GovernorMode, ProtocolConfig};
use prb_core::governor::GovernorNode;
use prb_core::msg::ProtocolMsg;
use prb_core::node::NodeActor;
use prb_core::sim::Simulation;
use prb_crypto::sha256::sha256;
use prb_crypto::signer::{CryptoScheme, KeyPair, PublicKey};
use prb_ledger::oracle::ValidityOracle;
use prb_net::fault::FaultPlan;
use prb_net::sim::{NetConfig, Network};
use prb_net::time::SimTime;
use prb_net::topology::Topology;

fn ckpt_config(interval: u64) -> ProtocolConfig {
    ProtocolConfig {
        governor_mode: GovernorMode::CheckAll,
        checkpoint_interval: interval,
        seed: 31,
        ..Default::default()
    }
}

#[test]
fn checkpoint_certs_form_in_checkall_runs() {
    let mut sim = Simulation::new(ckpt_config(2)).unwrap();
    sim.run(8);
    let reference = sim
        .governor(0)
        .latest_cert()
        .expect("governor 0 assembled a certificate")
        .state
        .clone();
    assert!(reference.serial >= 4, "cert serial {}", reference.serial);
    assert_eq!(reference.serial % 2, 0, "certs land on interval boundaries");
    for g in 0..4 {
        let m = sim.metrics(g);
        assert!(m.checkpoint_shares_sent > 0, "governor {g} sent no shares");
        assert!(m.checkpoint_certs_formed > 0, "governor {g} formed no cert");
        assert_eq!(
            m.checkpoint_digest_mismatches, 0,
            "CheckAll state is deterministic; governor {g} disagreed"
        );
        let cert = sim
            .governor(g)
            .latest_cert()
            .expect("every governor certifies");
        assert_eq!(
            cert.state, reference,
            "governor {g} certified a different state"
        );
    }
    assert!(sim.chains_agree());
}

#[test]
fn reputation_mode_divergence_is_counted_not_fatal() {
    let mut sim = Simulation::new(ProtocolConfig {
        governor_mode: GovernorMode::Reputation,
        ..ckpt_config(2)
    })
    .unwrap();
    sim.run(6);
    assert!(sim.chains_agree(), "checkpointing must never break safety");
    for g in 0..4 {
        let m = sim.metrics(g);
        assert!(m.checkpoint_shares_sent > 0, "governor {g} sent no shares");
        // Per-governor screening coins diverge the reputation tables, so
        // either a cert still formed (the tables happened to agree) or
        // the divergence was observed and counted — never silent.
        assert!(
            m.checkpoint_certs_formed > 0 || m.checkpoint_digest_mismatches > 0,
            "governor {g}: no cert and no counted mismatch"
        );
    }
}

#[test]
fn behind_governor_adopts_checkpoint_and_syncs_o_delta() {
    let cfg = ProtocolConfig {
        sync_page: 4,
        ..ckpt_config(2)
    };
    let round_ticks = cfg.round_ticks();
    let mut sim = Simulation::new(cfg).unwrap();
    // Governor 3 is dead for rounds 2–10: it misses far more blocks than
    // one sync page, so a full-chain resync would need many pages.
    let mut faults = FaultPlan::none();
    faults.crash_window(
        sim.governor_net_index(3),
        SimTime(round_ticks),
        SimTime(10 * round_ticks),
    );
    sim.set_faults(faults);
    sim.run(14);
    sim.run_drain_rounds(2);

    let m3 = sim.metrics(3);
    assert!(m3.checkpoints_adopted >= 1, "governor 3 never adopted");
    let adopted = m3.adopted_serial;
    assert!(
        adopted >= 2 && adopted.is_multiple_of(2),
        "adopted serial {adopted}"
    );
    // O(delta): the pages fetched after adoption are bounded by the
    // suffix length, not the chain height. The final height only grew
    // after adoption, so this bound is conservative.
    let height = sim.governor(0).chain().height();
    let delta = height - adopted;
    assert!(
        m3.pages_after_adopt <= delta / 4 + 1,
        "pages {} exceed delta bound (delta {delta})",
        m3.pages_after_adopt
    );
    // The adopter is anchored: pre-checkpoint blocks are certified, not
    // re-fetched.
    let chain3 = sim.governor(3).chain();
    assert!(chain3.is_anchored());
    assert_eq!(chain3.base(), adopted + 1);
    assert_eq!(
        chain3.retrieve(adopted),
        None,
        "block below anchor refetched"
    );
    assert!(
        sim.chains_agree(),
        "anchored suffix agrees with the committee"
    );
    assert!(sim.chains_prefix_agree(&[0, 1, 2, 3]));
}

/// Regression: a governor that adopts a checkpoint mid-run must not
/// re-record what the certified prefix already holds. Governor 3 crashes
/// a third into round 4 with screened transactions buffered and Δ windows
/// still open, adopts the cert at serial 6 on its return, and later leads.
/// Once its chain is anchored, the ledger can no longer tell it those
/// transactions were committed below the anchor, so it proposed them again
/// and every chain held them twice: the buffered entries (12 duplicates
/// if the adoption keeps them; 27 when the cert was serial 8's, before
/// collectors uploaded at the close of the collection phase), and the
/// windows open across the crash, screened at its first round start after
/// the adoption (15 duplicates if the adoption keeps them). The distinct
/// ids committed stay what they were.
#[test]
fn checkpoint_adoption_never_records_a_transaction_twice() {
    use std::collections::HashSet;

    use prb_ledger::block::Verdict;

    let cfg = ProtocolConfig {
        sync_page: 4,
        ..ckpt_config(2)
    };
    let rt = cfg.round_ticks();
    let mut sim = Simulation::new(cfg).unwrap();
    let mut faults = FaultPlan::none();
    faults.crash_window(
        sim.governor_net_index(3),
        SimTime(3 * rt + rt / 3),
        SimTime(9 * rt + rt / 2),
    );
    sim.set_faults(faults);
    sim.run(24);
    sim.run_drain_rounds(2);

    assert_eq!(sim.metrics(3).adopted_serial, 10, "the scenario adopts");
    assert!(sim.chains_agree());
    for g in 0..4 {
        let mut seen = HashSet::new();
        let twice: Vec<_> = sim
            .governor(g)
            .chain()
            .iter()
            .flat_map(|b| &b.entries)
            .filter(|e| e.verdict != Verdict::ArguedValid)
            .map(|e| e.tx.id())
            .filter(|id| !seen.insert(*id))
            .collect();
        assert!(
            twice.is_empty(),
            "governor {g} records {} transactions twice",
            twice.len()
        );
    }
    let committed: HashSet<_> = sim
        .governor(0)
        .chain()
        .iter()
        .flat_map(|b| &b.entries)
        .map(|e| e.tx.id())
        .collect();
    assert_eq!(committed.len(), 604, "distinct committed transactions");
}

/// Governor 0's chain is the one the driver reports rounds from. When
/// governor 0 adopts a checkpoint, the blocks below the anchor are not on
/// its chain: the round step used to panic with "no skipping" reading
/// them, and then skipped them, so providers never heard of their
/// entries. They are read from a chain that holds them instead.
#[test]
fn the_driver_reports_the_blocks_below_a_checkpoint_governor_0_adopts() {
    let cfg = ProtocolConfig {
        sync_page: 4,
        ..ckpt_config(2)
    };
    let rt = cfg.round_ticks();
    let mut sim = Simulation::new(cfg).unwrap();
    let mut faults = FaultPlan::none();
    faults.crash_window(sim.governor_net_index(0), SimTime(rt), SimTime(9 * rt));
    sim.set_faults(faults);
    sim.run(14);
    sim.run_drain_rounds(2);
    let adopted = sim.metrics(0).adopted_serial;
    assert!(adopted > 0, "the scenario adopts");
    assert_eq!(sim.governor(0).chain().base(), adopted + 1);
    assert!(sim.chains_agree());
    // Every serial of the agreed chain reached every provider once.
    let height = sim.governor(1).chain().height();
    let providers = u64::from(sim.config().providers);
    let notified = sim.net_stats().kind("block-notify").sent;
    assert_eq!(notified, providers * height);
}

/// One governor alone on the network, with the full committee's keys
/// held by the test: we can mint both genuine and forged certificates
/// and offer them via crafted `SyncResponse` envelopes.
struct CertRig {
    net: Network<NodeActor>,
    keys: Vec<KeyPair>,
}

impl CertRig {
    fn new() -> Self {
        let cfg = ProtocolConfig {
            providers: 2,
            collectors: 2,
            governors: 4,
            replication: 2,
            tx_per_provider: 1,
            seed: 17,
            ..Default::default()
        };
        let scheme = CryptoScheme::sim();
        let keys: Vec<KeyPair> = (0..4)
            .map(|g| scheme.keypair_from_seed(format!("cert-g{g}").as_bytes()))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let mut net = Network::new(NetConfig::uniform(1, 2), 4);
        let governor = GovernorNode::new(
            0,
            keys[0].clone(),
            cfg,
            topology,
            oracle,
            0,
            Vec::new(),
            Vec::new(),
            pks,
        );
        net.add_node(NodeActor::governor(governor));
        CertRig { net, keys }
    }

    fn governor(&self) -> &GovernorNode {
        self.net.node(0).as_governor().unwrap()
    }

    /// A fabricated certified state at `serial` with `signers` real
    /// committee signatures.
    fn cert(&self, serial: u64, signers: &[u32]) -> CheckpointCert {
        let state = CheckpointState {
            serial,
            block_hash: sha256(format!("fab-{serial}").as_bytes()),
            stakes: vec![4; 4],
            stake_nonces: vec![0; 4],
            reputation: Vec::new(),
        };
        let digest = state.digest();
        let sigs = signers
            .iter()
            .map(|&g| {
                let share = CheckpointShare::create(serial, digest, g, &self.keys[g as usize]);
                (g, share.sig)
            })
            .collect();
        CheckpointCert { state, sigs }
    }

    fn offer(&mut self, cert: CheckpointCert, at: u64) {
        self.net.send_external(
            0,
            "sync-response",
            ProtocolMsg::SyncResponse {
                blocks: Vec::new(),
                head: cert.state.serial,
                cert: Some(Box::new(cert)),
            },
            SimTime(at),
        );
        self.net.run_until_idle(10_000);
    }
}

#[test]
fn quorum_cert_offer_is_adopted_and_stale_or_forged_offers_never_roll_back() {
    let mut rig = CertRig::new();
    assert_eq!(rig.governor().chain().height(), 0);

    // A genuine quorum (3 of 4) certificate ahead of the head: adopted.
    let good = rig.cert(6, &[0, 1, 2]);
    rig.offer(good.clone(), 10);
    {
        let gov = rig.governor();
        assert_eq!(gov.metrics().checkpoints_adopted, 1);
        assert_eq!(gov.metrics().adopted_serial, 6);
        assert_eq!(gov.chain().height(), 6);
        assert!(gov.chain().is_anchored());
        assert_eq!(gov.latest_cert().unwrap().state.serial, 6);
    }

    // The same cert again is now stale (serial == height): rejected, no
    // rollback, head untouched.
    rig.offer(good, 20);
    assert_eq!(rig.governor().metrics().checkpoints_rejected, 1);
    assert_eq!(rig.governor().chain().height(), 6);

    // A *lower* certified serial — the byzantine rollback attempt — is
    // stale by the same rule.
    let rollback = rig.cert(4, &[0, 1, 2, 3]);
    rig.offer(rollback, 30);
    assert_eq!(rig.governor().metrics().checkpoints_rejected, 2);
    assert_eq!(rig.governor().chain().height(), 6);

    // Ahead but under-quorum (2 of 4 signatures): rejected.
    let thin = rig.cert(10, &[0, 1]);
    rig.offer(thin, 40);
    assert_eq!(rig.governor().metrics().checkpoints_rejected, 3);
    assert_eq!(rig.governor().chain().height(), 6);

    // Ahead with forged signatures: governor 3's signature minted with
    // governor 1's key fails verification.
    let mut forged = rig.cert(10, &[0, 1]);
    let digest = forged.state.digest();
    let bogus = CheckpointShare::create(10, digest, 1, &rig.keys[1]);
    forged.sigs.push((3, bogus.sig));
    rig.offer(forged, 50);
    assert_eq!(rig.governor().metrics().checkpoints_rejected, 4);
    assert_eq!(rig.governor().chain().height(), 6);
    assert_eq!(
        rig.governor().metrics().adopted_serial,
        6,
        "head never moved"
    );
}

/// Regression for checkpoint quorum sizing under dynamic membership:
/// the quorum must be read from the membership epoch at the cert's
/// *serial*, not from the current committee size. A governor that knows
/// g3 left at round 4 must still adopt a cert from serial 2 carrying
/// g3's signature (the committee of that day), must accept a
/// post-departure cert signed by the surviving three alone, and must
/// reject a post-departure cert that leans on the departed signature.
#[test]
fn cert_quorum_is_sized_by_the_epoch_at_its_serial() {
    use prb_consensus::membership::{
        MemberRole, MembershipAction, MembershipCert, MembershipRequest, MembershipShare,
    };

    let mut rig = CertRig::new();
    // Certify governor 3's voluntary departure, effective round 4, and
    // install it the way a real run would see it after a restart: through
    // the persisted membership log that `set_store` replays.
    let req = MembershipRequest::create(
        MemberRole::Governor,
        3,
        MembershipAction::Leave,
        0,
        4,
        &rig.keys[3],
    );
    let sigs = (0..3)
        .map(|g| {
            let share = MembershipShare::sign(&req, g, &rig.keys[g as usize]);
            (g, share.sig)
        })
        .collect();
    let leave = MembershipCert { state: req, sigs };

    let cfg = ProtocolConfig::default();
    let dir = std::env::temp_dir().join(format!("prb-core-epoch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = prb_store::StoreOptions {
        chain_tag: b"prb-chain".to_vec(),
        b_limit: cfg.b_limit,
        segment_bytes: cfg.store_segment_bytes,
        fsync: prb_store::FsyncPolicy::Always,
    };
    let (mut store, recovered) = prb_store::BlockStore::open(&dir, opts).unwrap();
    store.save_members(&[leave], &[]).unwrap();
    if let NodeActor::Governor(g) = rig.net.node_mut(0) {
        g.set_store(store, recovered);
        assert_eq!(g.committee().epochs().departed_at(u64::MAX), &[3]);
    }

    // A cert from serial 2 — before the departure epoch — signed by
    // governors 1, 2 and 3: the committee of that day was all four, so
    // g3's signature counts and quorum(4) = 3 is met. Sizing the quorum
    // by the current three-member committee would skip g3 and reject
    // this genuine certificate as under-quorum.
    let old_epoch = rig.cert(2, &[1, 2, 3]);
    rig.offer(old_epoch, 10);
    {
        let gov = rig.governor();
        assert_eq!(
            gov.metrics().checkpoints_rejected,
            0,
            "pre-departure cert rejected against the shrunken committee"
        );
        assert_eq!(gov.metrics().checkpoints_adopted, 1);
        assert_eq!(gov.chain().height(), 2);
    }

    // After the departure epoch the quorum shrinks with the committee:
    // the surviving three certify alone (quorum(3) = 3).
    let survivors = rig.cert(6, &[0, 1, 2]);
    rig.offer(survivors, 20);
    assert_eq!(rig.governor().metrics().checkpoints_adopted, 2);
    assert_eq!(rig.governor().chain().height(), 6);

    // ...but a post-departure cert leaning on the departed signature is
    // under-quorum: g3 no longer counts past its epoch boundary.
    let leaning = rig.cert(8, &[1, 2, 3]);
    rig.offer(leaning, 30);
    assert_eq!(rig.governor().metrics().checkpoints_rejected, 1);
    assert_eq!(
        rig.governor().chain().height(),
        6,
        "rejected offer never moved the head"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a reopened membership log is audited, not trusted. The
/// log holds governor 3's certified leave and an eviction of governor 2
/// whose share from governor 1 was signed with another key, saved (so
/// re-checksummed) as a store would write it. Reopening replays the leave
/// and refuses, and counts, the forged eviction.
#[test]
fn a_reopened_membership_log_loses_a_cert_with_a_forged_share() {
    use prb_consensus::membership::{
        MemberRole, MembershipAction, MembershipCert, MembershipRequest, MembershipShare,
    };

    let mut rig = CertRig::new();
    let certify = |req: MembershipRequest, signers: &[(u32, usize)]| {
        let sigs = signers
            .iter()
            .map(|&(g, k)| (g, MembershipShare::sign(&req, g, &rig.keys[k]).sig))
            .collect();
        MembershipCert { state: req, sigs }
    };
    let leave = MembershipRequest::create(
        MemberRole::Governor,
        3,
        MembershipAction::Leave,
        0,
        4,
        &rig.keys[3],
    );
    let leave = certify(leave, &[(0, 0), (1, 1), (2, 2)]);
    let evict = MembershipRequest::evict(MemberRole::Governor, 2, 6);
    let forged = certify(evict, &[(0, 0), (1, 3), (2, 2)]);

    let cfg = ProtocolConfig::default();
    let dir = std::env::temp_dir().join(format!("prb-core-forged-log-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = prb_store::StoreOptions {
        chain_tag: b"prb-chain".to_vec(),
        b_limit: cfg.b_limit,
        segment_bytes: cfg.store_segment_bytes,
        fsync: prb_store::FsyncPolicy::Always,
    };
    let (mut store, recovered) = prb_store::BlockStore::open(&dir, opts).unwrap();
    store.save_members(&[leave.clone(), forged], &[]).unwrap();
    assert_eq!(store.load_members().0.len(), 2, "the checksum holds");
    if let NodeActor::Governor(g) = rig.net.node_mut(0) {
        g.set_store(store, recovered);
    }
    let gov = rig.governor();
    assert_eq!(
        gov.committee().epochs().departed_at(u64::MAX),
        &[3],
        "only the genuine leave applied"
    );
    assert_eq!(gov.committee().certs(), &[leave]);
    assert_eq!(gov.metrics().member_certs_refused, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a governor convicted of equivocation no longer counts
/// toward a checkpoint quorum from the conviction's round on — the round
/// it signed for, 1, plus the two-round lead. The rig's governor expels
/// governor 1 on evidence; an offer at serial 6 resting on governor 1's
/// signature is then under quorum (two of the three it needs), and one
/// signed by three others is adopted. Below the conviction's round, at
/// serial 3, governor 1's signature still counts.
#[test]
fn an_expelled_signature_never_completes_a_cert_quorum() {
    use prb_consensus::evidence::{EquivocationEvidence, SignedHeader};

    let mut rig = CertRig::new();
    let first = SignedHeader::create(1, 1, 1, sha256(b"twin-a"), &rig.keys[1]);
    let second = SignedHeader::create(1, 1, 1, sha256(b"twin-b"), &rig.keys[1]);
    rig.net.send_external(
        0,
        "evidence",
        ProtocolMsg::Evidence {
            evidence: Box::new(EquivocationEvidence::new(first, second)),
        },
        SimTime(5),
    );
    rig.net.run_until_idle(10_000);
    assert_eq!(rig.governor().expelled(), &[1]);

    rig.offer(rig.cert(6, &[0, 1, 2]), 10);
    {
        let gov = rig.governor();
        assert_eq!(gov.metrics().checkpoints_rejected, 1, "under quorum");
        assert_eq!(gov.metrics().checkpoints_adopted, 0);
        assert_eq!(gov.chain().height(), 0);
        assert!(gov.latest_cert().is_none());
    }
    rig.offer(rig.cert(6, &[0, 2, 3]), 20);
    let gov = rig.governor();
    assert_eq!(gov.metrics().checkpoints_adopted, 1);
    assert_eq!(gov.chain().height(), 6);

    let mut rig = CertRig::new();
    let first = SignedHeader::create(1, 1, 1, sha256(b"twin-a"), &rig.keys[1]);
    let second = SignedHeader::create(1, 1, 1, sha256(b"twin-b"), &rig.keys[1]);
    let evidence = Box::new(EquivocationEvidence::new(first, second));
    rig.net.send_external(
        0,
        "evidence",
        ProtocolMsg::Evidence { evidence },
        SimTime(5),
    );
    rig.net.run_until_idle(10_000);
    assert_eq!(rig.governor().expelled(), &[1]);
    rig.offer(rig.cert(3, &[0, 1, 2]), 10);
    let gov = rig.governor();
    assert_eq!(gov.metrics().checkpoints_rejected, 0);
    assert_eq!(gov.metrics().checkpoints_adopted, 1);
    assert_eq!(gov.chain().height(), 3);
}

#[test]
fn sim_restart_recovers_from_durable_store() {
    let dir = std::env::temp_dir().join(format!("prb-core-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ProtocolConfig {
        store_dir: Some(dir.clone()),
        ..ckpt_config(2)
    };
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.run(5);
    sim.run_drain_rounds(1);
    let height = sim.governor(0).chain().height();
    let exports: Vec<Vec<u8>> = (0..4).map(|g| sim.governor(g).chain().export()).collect();
    assert!(height >= 5);
    for g in 0..4 {
        assert!(
            sim.governor(g).latest_cert().is_some(),
            "governor {g} formed no cert in the first run"
        );
    }
    drop(sim);

    // A fresh process over the same store directory: every governor
    // reopens to a chain byte-identical to what it held at "crash", and
    // the run continues from there. The master seed stays the same —
    // identities derive from it, and the recovered certs must verify
    // against the same committee — while the driver seed decorrelates
    // the restarted workload from the first run's transactions.
    let mut sim = Simulation::new(ProtocolConfig {
        driver_seed: Some(77),
        ..cfg
    })
    .unwrap();
    for g in 0..4 {
        assert_eq!(
            sim.governor(g).chain().export(),
            exports[g as usize],
            "governor {g} did not replay byte-identically"
        );
        assert!(
            sim.governor(g).latest_cert().is_some(),
            "governor {g} lost its persisted cert"
        );
    }
    sim.run(3);
    assert!(sim.chains_agree());
    assert!(
        sim.governor(0).chain().height() > height,
        "restarted run never progressed"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
