//! Focused governor tests: a single governor actor driven directly with
//! crafted envelopes, covering edge paths the full simulation rarely
//! exercises (duplicate uploads, late reports after screening, argues and
//! reveals for unknown transactions, unlinked uploads).

use std::cell::RefCell;
use std::rc::Rc;

use prb_consensus::election::ElectionClaim;
use prb_consensus::evidence::SignedHeader;
use prb_core::config::{GovernorMode, ProtocolConfig};
use prb_core::governor::GovernorNode;
use prb_core::msg::ProtocolMsg;
use prb_core::node::NodeActor;
use prb_crypto::identity::NodeId;
use prb_crypto::signer::{CryptoScheme, KeyPair, PublicKey, Sig};
use prb_ledger::block::Block;
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::{Label, LabeledTx, SignedTx, TxId, TxPayload};
use prb_net::sim::{NetConfig, Network};
use prb_net::time::SimTime;
use prb_net::topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One governor alone in a network; we feed it crafted envelopes.
struct Rig {
    net: Network<NodeActor>,
    oracle: Rc<RefCell<ValidityOracle>>,
    provider_keys: Vec<KeyPair>,
    collector_keys: Vec<KeyPair>,
    cfg: ProtocolConfig,
}

impl Rig {
    fn new(mode: GovernorMode, f: f64) -> Self {
        let mut cfg = ProtocolConfig {
            providers: 2,
            collectors: 2,
            governors: 1,
            replication: 2,
            tx_per_provider: 1,
            governor_mode: mode,
            seed: 9,
            ..Default::default()
        };
        cfg.reputation.f = f;
        let scheme = CryptoScheme::sim();
        let provider_keys: Vec<KeyPair> = (0..2)
            .map(|p| scheme.keypair_from_seed(format!("rig-p{p}").as_bytes()))
            .collect();
        let collector_keys: Vec<KeyPair> = (0..2)
            .map(|c| scheme.keypair_from_seed(format!("rig-c{c}").as_bytes()))
            .collect();
        let governor_key = scheme.keypair_from_seed(b"rig-g0");
        let provider_pks: Vec<PublicKey> = provider_keys.iter().map(|k| k.public_key()).collect();
        let collector_pks: Vec<PublicKey> = collector_keys.iter().map(|k| k.public_key()).collect();
        let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let mut net = Network::new(NetConfig::uniform(1, 2), 4);
        let governor = GovernorNode::new(
            0,
            governor_key.clone(),
            cfg.clone(),
            topology,
            Rc::clone(&oracle),
            0,
            collector_pks,
            provider_pks,
            vec![governor_key.public_key()],
        );
        net.add_node(NodeActor::governor(governor));
        Rig {
            net,
            oracle,
            provider_keys,
            collector_keys,
            cfg,
        }
    }

    fn governor(&self) -> &GovernorNode {
        self.net.node(0).as_governor().unwrap()
    }

    fn make_tx(&self, provider: u32, nonce: u64, valid: bool) -> SignedTx {
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(provider),
                nonce,
                data: vec![1],
            },
            5,
            &self.provider_keys[provider as usize],
        );
        self.oracle.borrow_mut().register(tx.id(), valid);
        tx
    }

    fn upload(&mut self, collector: u32, seq: u64, tx: SignedTx, label: Label, at: u64) {
        let ltx = LabeledTx::create(
            tx,
            label,
            NodeId::collector(collector),
            &self.collector_keys[collector as usize],
        );
        self.net
            .send_external(0, "up", ProtocolMsg::TxUpload { seq, ltx }, SimTime(at));
    }

    fn run(&mut self) {
        self.net.run_until_idle(1_000);
    }
}

#[test]
fn duplicate_uploads_from_same_collector_are_deduped() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, true);
    // Collector 0 spams the same transaction twice under different seqs.
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    rig.upload(0, 1, tx.clone(), Label::Valid, 1);
    rig.upload(1, 0, tx, Label::Valid, 2);
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.screened, 1);
    // Case-2 update applied once per collector: misreport counters are +1.
    let table = rig.governor().reputation();
    assert_eq!(table.collector(0).misreport(), 1);
    assert_eq!(table.collector(1).misreport(), 1);
}

#[test]
fn late_report_after_screening_still_updates_reputation() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let window = rig.cfg.aggregation_window();
    let tx = rig.make_tx(0, 0, true);
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    // Collector 1's report arrives long after the Δ window closed.
    rig.upload(1, 0, tx, Label::Invalid, window + 50);
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.screened, 1, "screened once, at the Δ timer");
    let table = rig.governor().reputation();
    assert_eq!(table.collector(0).misreport(), 1, "on-time correct label");
    assert_eq!(
        table.collector(1).misreport(),
        -1,
        "late wrong label still punished"
    );
}

#[test]
fn unlinked_provider_upload_counts_as_forgery() {
    // Topology: cyclic l=2, n=2, r=2 links every provider with every
    // collector, so craft a tx from a *nonexistent* provider index instead.
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let ghost_key = CryptoScheme::sim().keypair_from_seed(b"ghost");
    let tx = SignedTx::create(
        TxPayload {
            provider: NodeId::provider(7),
            nonce: 0,
            data: vec![2],
        },
        5,
        &ghost_key,
    );
    let ltx = LabeledTx::create(
        tx,
        Label::Valid,
        NodeId::collector(0),
        &rig.collector_keys[0],
    );
    rig.net
        .send_external(0, "up", ProtocolMsg::TxUpload { seq: 0, ltx }, SimTime(0));
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.forged_detected, 1);
    assert_eq!(m.screened, 0);
    assert_eq!(rig.governor().reputation().collector(0).forge(), -1);
}

#[test]
fn upload_with_wrong_collector_signature_is_dropped_silently() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, true);
    // Collector 1's key signs, but the message claims collector 0.
    let ltx = LabeledTx::create(
        tx,
        Label::Valid,
        NodeId::collector(0),
        &rig.collector_keys[1],
    );
    rig.net
        .send_external(0, "up", ProtocolMsg::TxUpload { seq: 0, ltx }, SimTime(0));
    rig.run();
    let m = rig.governor().metrics();
    // Cannot attribute: no forgery charged, nothing screened.
    assert_eq!(m.forged_detected, 0);
    assert_eq!(m.screened, 0);
    assert_eq!(rig.governor().reputation().collector(0).forge(), 0);
}

#[test]
fn argue_and_reveal_for_unknown_tx_are_ignored() {
    let mut rig = Rig::new(GovernorMode::Reputation, 0.5);
    let ghost = TxId(prb_crypto::sha256::sha256(b"never-screened"));
    rig.net.send_external(
        0,
        "argue",
        ProtocolMsg::Argue {
            tx: ghost,
            serial: 1,
        },
        SimTime(0),
    );
    rig.net.send_external(
        0,
        "reveal",
        ProtocolMsg::Reveal {
            tx: ghost,
            valid: true,
        },
        SimTime(1),
    );
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.argue_accepted, 0);
    assert_eq!(m.argue_rejected, 0);
    assert_eq!(m.revealed, 0);
}

#[test]
fn argue_for_checked_tx_is_ignored() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, true);
    let id = tx.id();
    rig.upload(0, 0, tx, Label::Valid, 0);
    rig.run();
    assert_eq!(rig.governor().metrics().checked, 1);
    rig.net.send_external(
        0,
        "argue",
        ProtocolMsg::Argue { tx: id, serial: 1 },
        SimTime(500),
    );
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.argue_accepted, 0, "checked txs cannot be argued");
}

#[test]
fn reveal_for_checked_tx_is_a_no_op() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, false);
    let id = tx.id();
    rig.upload(0, 0, tx, Label::Invalid, 0);
    rig.run();
    rig.net.send_external(
        0,
        "reveal",
        ProtocolMsg::Reveal {
            tx: id,
            valid: false,
        },
        SimTime(500),
    );
    rig.run();
    assert_eq!(rig.governor().metrics().revealed, 0);
}

#[test]
fn double_reveal_processes_once() {
    let mut rig = Rig::new(GovernorMode::CheckNone, 0.9);
    let tx = rig.make_tx(0, 0, true);
    let id = tx.id();
    rig.upload(0, 0, tx, Label::Invalid, 0);
    rig.run();
    assert_eq!(rig.governor().metrics().unchecked, 1);
    for at in [500, 600] {
        rig.net.send_external(
            0,
            "reveal",
            ProtocolMsg::Reveal {
                tx: id,
                valid: true,
            },
            SimTime(at),
        );
    }
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.revealed, 1);
    assert_eq!(m.realized_loss, 2.0, "recorded invalid but truly valid");
}

#[test]
fn forged_provider_signature_on_linked_provider_is_case_one() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let mut rng = StdRng::seed_from_u64(1);
    let scheme = CryptoScheme::sim();
    let fake_tx = SignedTx::from_parts(
        TxPayload {
            provider: NodeId::provider(0),
            nonce: 99,
            data: b"fabricated".to_vec(),
        },
        5,
        Sig::forged(&scheme, &mut rng),
    );
    let ltx = LabeledTx::create(
        fake_tx,
        Label::Valid,
        NodeId::collector(1),
        &rig.collector_keys[1],
    );
    rig.net
        .send_external(0, "up", ProtocolMsg::TxUpload { seq: 0, ltx }, SimTime(0));
    rig.run();
    assert_eq!(rig.governor().metrics().forged_detected, 1);
    assert_eq!(rig.governor().reputation().collector(1).forge(), -1);
}

#[test]
fn paranoid_mode_rejects_blocks_with_fabricated_entries() {
    use prb_ledger::block::{Block, BlockEntry, Verdict};

    for (verify_blocks, expect_failure) in [(true, true), (false, false)] {
        let mut cfg = ProtocolConfig {
            providers: 2,
            collectors: 2,
            governors: 2,
            replication: 2,
            tx_per_provider: 1,
            verify_blocks,
            seed: 9,
            ..Default::default()
        };
        cfg.reputation.f = 0.5;
        let scheme = CryptoScheme::sim();
        let provider_pks: Vec<PublicKey> = (0..2)
            .map(|p| {
                scheme
                    .keypair_from_seed(format!("pv-{p}").as_bytes())
                    .public_key()
            })
            .collect();
        let collector_pks: Vec<PublicKey> = (0..2)
            .map(|c| {
                scheme
                    .keypair_from_seed(format!("cv-{c}").as_bytes())
                    .public_key()
            })
            .collect();
        let g0_key = scheme.keypair_from_seed(b"gv-0");
        let g1_key = scheme.keypair_from_seed(b"gv-1");
        let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let mut net = Network::new(NetConfig::uniform(1, 2), 4);
        let governor = GovernorNode::new(
            0,
            g0_key.clone(),
            cfg.clone(),
            topology,
            Rc::clone(&oracle),
            0,
            collector_pks,
            provider_pks,
            vec![g0_key.public_key(), g1_key.public_key()],
        );
        net.add_node(NodeActor::governor(governor));

        // A Byzantine leader (g1) fabricates an entry with a garbage
        // provider signature and builds an otherwise well-formed block.
        let mut rng = StdRng::seed_from_u64(3);
        let fake_tx = SignedTx::from_parts(
            TxPayload {
                provider: NodeId::provider(0),
                nonce: 5,
                data: b"invented by the leader".to_vec(),
            },
            9,
            Sig::forged(&scheme, &mut rng),
        );
        let genesis_hash = net.node(0).as_governor().unwrap().chain().latest().hash();
        let block = Block::build(
            1,
            vec![BlockEntry {
                tx: fake_tx,
                verdict: Verdict::CheckedValid,
                reported_labels: vec![(NodeId::collector(0), Label::Valid)],
            }],
            genesis_hash,
            NodeId::governor(1),
            50,
        );
        net.send_external(
            0,
            "block",
            ProtocolMsg::BlockProposal {
                block,
                claim: None,
                header: None,
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let gov = net.node(0).as_governor().unwrap();
        if expect_failure {
            assert_eq!(
                gov.chain().height(),
                0,
                "paranoid governor appended a fabricated block"
            );
            assert_eq!(gov.metrics().append_failures, 1);
        } else {
            assert_eq!(
                gov.chain().height(),
                1,
                "default mode trusts the leader per the paper's assumption"
            );
        }
    }
}

/// Governor 0 of three on a quiet network, fed crafted block proposals in
/// the names of its peers (round 0, the round a fresh governor is in).
struct ProposalRig {
    net: Network<NodeActor>,
    governor_keys: Vec<KeyPair>,
    provider_key: KeyPair,
}

impl ProposalRig {
    fn new() -> Self {
        Self::with_verify_blocks(false)
    }

    fn with_verify_blocks(verify_blocks: bool) -> Self {
        let cfg = ProtocolConfig {
            providers: 1,
            collectors: 2,
            governors: 3,
            replication: 2,
            tx_per_provider: 1,
            seed: 9,
            verify_blocks,
            ..Default::default()
        };
        let scheme = CryptoScheme::sim();
        let provider_key = scheme.keypair_from_seed(b"pr-p0");
        let collector_pks: Vec<PublicKey> = (0..2)
            .map(|c| {
                scheme
                    .keypair_from_seed(format!("pr-c{c}").as_bytes())
                    .public_key()
            })
            .collect();
        let governor_keys: Vec<KeyPair> = (0..3)
            .map(|g| scheme.keypair_from_seed(format!("pr-g{g}").as_bytes()))
            .collect();
        let governor_pks: Vec<PublicKey> = governor_keys.iter().map(|k| k.public_key()).collect();
        let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let mut net = Network::new(NetConfig::uniform(1, 2), 4);
        // The peers exist only so header echoes have somewhere to land.
        for (g, key) in governor_keys.iter().enumerate() {
            net.add_node(NodeActor::governor(GovernorNode::new(
                g as u32,
                key.clone(),
                cfg.clone(),
                Rc::clone(&topology),
                Rc::clone(&oracle),
                0,
                collector_pks.clone(),
                vec![provider_key.public_key()],
                governor_pks.clone(),
            )));
        }
        ProposalRig {
            net,
            governor_keys,
            provider_key,
        }
    }

    fn governor(&self) -> &GovernorNode {
        self.net.node(0).as_governor().unwrap()
    }

    fn entry(&self, nonce: u64) -> prb_ledger::block::BlockEntry {
        prb_ledger::block::BlockEntry {
            tx: SignedTx::create(
                TxPayload {
                    provider: NodeId::provider(0),
                    nonce,
                    data: vec![7],
                },
                5,
                &self.provider_key,
            ),
            verdict: prb_ledger::block::Verdict::CheckedValid,
            reported_labels: vec![(NodeId::collector(0), Label::Valid)],
        }
    }

    /// The peers' genuine round-0 election claims, `(larger key, smaller
    /// key)` by the actual VRF ordering.
    fn ranked_claims(&self) -> (ElectionClaim, ElectionClaim) {
        let claim = |g: u32| {
            let stake = self.governor().stake_table().stake(g).unwrap();
            let key = &self.governor_keys[g as usize];
            ElectionClaim::compute(b"prb-chain", 0, g, stake, key).unwrap()
        };
        let (c1, c2) = (claim(1), claim(2));
        if (c1.evaluation.output(), 1) < (c2.evaluation.output(), 2) {
            (c2, c1)
        } else {
            (c1, c2)
        }
    }

    /// The leader's signed round-0 header over `block`'s hash.
    fn header(&self, block: &Block) -> SignedHeader {
        let leader = block.leader.index;
        SignedHeader::create(
            leader,
            0,
            block.serial,
            block.hash(),
            &self.governor_keys[leader as usize],
        )
    }

    /// Delivers `block` to governor 0 as a direct proposal by its leader,
    /// with or without the leader's signed header over its hash.
    fn propose(&mut self, block: &Block, claim: Option<ElectionClaim>, with_header: bool) {
        let header = with_header.then(|| self.header(block));
        let at = self.net.now();
        self.net.send_external(
            0,
            "block",
            ProtocolMsg::BlockProposal {
                block: block.clone(),
                claim,
                header,
            },
            at,
        );
        self.net.run_until_idle(1_000);
    }
}

/// `block` restated under a Merkle root that is not the root of its
/// entries — the only way to obtain such a block.
fn with_wrong_root(block: &Block) -> Block {
    let stale = Block::from_parts(
        block.serial,
        block.entries.clone(),
        block.prev_hash,
        prb_crypto::sha256::sha256(b"not the root"),
        block.leader,
        block.timestamp,
    );
    assert!(!stale.merkle_consistent());
    stale
}

#[test]
fn successor_with_a_stale_merkle_root_is_refused_before_any_rollback() {
    for with_header in [false, true] {
        let mut rig = ProposalRig::new();
        let genesis_hash = rig.governor().chain().head_hash();
        let honest = Block::build(1, vec![rig.entry(0)], genesis_hash, NodeId::governor(1), 50);
        rig.propose(&with_wrong_root(&honest), None, with_header);
        let gov = rig.governor();
        assert_eq!(gov.chain().height(), 0);
        assert_eq!(gov.chain().head_hash(), genesis_hash);
        assert_eq!(gov.metrics().append_failures, 1);
        assert_eq!(gov.metrics().invalid_blocks_rejected, 1);
        assert_eq!(gov.metrics().head_rollbacks, 0);
        assert!(gov.ready_tx_ids().is_empty());
        // Header or not, a stale root convicts nobody: the signed hash
        // covers the entries through the root alone, so the body proves
        // nothing about who put it together.
        assert!(gov.expelled().is_empty());
        // The next honest block still appends.
        let next = Block::build(1, vec![rig.entry(0)], genesis_hash, NodeId::governor(2), 51);
        rig.propose(&next, None, true);
        assert_eq!(rig.governor().chain().head_hash(), next.hash());
        assert_eq!(rig.governor().metrics().append_failures, 1);
    }
}

#[test]
fn rival_with_a_stale_merkle_root_cannot_make_the_head_be_shed() {
    for with_header in [false, true] {
        let mut rig = ProposalRig::new();
        // The head is proposed under the larger election key, the rival
        // under the smaller.
        let (big, small) = rig.ranked_claims();
        let genesis_hash = rig.governor().chain().head_hash();
        let head = Block::build(
            1,
            vec![rig.entry(0)],
            genesis_hash,
            NodeId::governor(big.governor),
            50,
        );
        rig.propose(&head, Some(big), true);
        assert_eq!(rig.governor().chain().head_hash(), head.hash());

        let rival = Block::build(
            1,
            vec![rig.entry(1)],
            genesis_hash,
            NodeId::governor(small.governor),
            50,
        );
        rig.propose(&with_wrong_root(&rival), Some(small.clone()), with_header);
        let gov = rig.governor();
        assert_eq!(gov.chain().head_hash(), head.hash(), "the head was shed");
        assert_eq!(gov.metrics().head_rollbacks, 0);
        assert_eq!(gov.metrics().append_failures, 1);
        assert!(gov.ready_tx_ids().is_empty(), "nothing was re-pooled");
        assert!(gov.expelled().is_empty());

        if with_header {
            // (A second, honest header from the same proposer at this
            // serial would be equivocation, so move on.) The head's own
            // successor lands.
            let next = Block::build(2, vec![rig.entry(2)], head.hash(), head.leader, 60);
            rig.propose(&next, None, true);
            assert_eq!(rig.governor().chain().head_hash(), next.hash());
        } else {
            // The same rival, honestly built, still wins the contest.
            rig.propose(&rival, Some(small), true);
            let gov = rig.governor();
            assert_eq!(gov.chain().head_hash(), rival.hash());
            assert_eq!(gov.metrics().head_rollbacks, 1);
            assert_eq!(gov.ready_tx_ids(), vec![head.entries[0].tx.id()]);
        }
        assert_eq!(rig.governor().metrics().append_failures, 1);
    }
}

/// Once the election batch has authenticated the round's claims, the
/// governor answers `claim_key` for those same claims from memory. A
/// head contest must come out as it does for a governor that verifies
/// every attached claim from its proof: a doctored claim refused, the
/// genuine smaller key winning.
#[test]
fn rival_contest_is_decided_the_same_once_the_election_verified_the_claims() {
    for elected_first in [false, true] {
        let mut rig = ProposalRig::new();
        if elected_first {
            // All three claims in: the governor runs the round-0 election.
            for g in 0..3u32 {
                let stake = rig.governor().stake_table().stake(g).unwrap();
                let claim = ElectionClaim::compute(
                    b"prb-chain",
                    0,
                    g,
                    stake,
                    &rig.governor_keys[g as usize],
                )
                .unwrap();
                let at = rig.net.now();
                rig.net
                    .send_external(0, "claim", ProtocolMsg::Election { round: 0, claim }, at);
            }
            rig.net.run_until_idle(1_000);
        }
        assert_eq!(rig.governor().current_leader().is_some(), elected_first);
        let (big, small) = rig.ranked_claims();
        let genesis_hash = rig.governor().chain().head_hash();
        let head = Block::build(
            1,
            vec![rig.entry(0)],
            genesis_hash,
            NodeId::governor(big.governor),
            50,
        );
        rig.propose(&head, Some(big), true);
        assert_eq!(rig.governor().chain().head_hash(), head.hash());
        let rival = Block::build(
            1,
            vec![rig.entry(1)],
            genesis_hash,
            NodeId::governor(small.governor),
            50,
        );
        // The smaller key's claim restated for another of its units: not
        // the claim the election saw, and not one that verifies.
        let stake = rig.governor().stake_table().stake(small.governor).unwrap();
        let doctored = ElectionClaim {
            unit: (small.unit + 1) % stake,
            ..small.clone()
        };
        rig.propose(&rival, Some(doctored), false);
        let gov = rig.governor();
        assert_eq!(gov.chain().head_hash(), head.hash(), "the head was shed");
        assert_eq!(gov.metrics().head_rollbacks, 0);
        rig.propose(&rival, Some(small), true);
        let gov = rig.governor();
        assert_eq!(gov.chain().head_hash(), rival.hash());
        assert_eq!(gov.metrics().head_rollbacks, 1);
        assert_eq!(gov.ready_tx_ids(), vec![head.entries[0].tx.id()]);
    }
}

#[test]
fn oversized_rival_is_refused_before_any_rollback() {
    for with_header in [false, true] {
        let mut rig = ProposalRig::new();
        let (big, small) = rig.ranked_claims();
        let genesis_hash = rig.governor().chain().head_hash();
        let head = Block::build(
            1,
            vec![rig.entry(0)],
            genesis_hash,
            NodeId::governor(big.governor),
            50,
        );
        rig.propose(&head, Some(big), true);
        let b_limit = rig.governor().chain().b_limit() as u64;
        let rival = Block::build(
            1,
            (0..=b_limit).map(|n| rig.entry(10 + n)).collect(),
            genesis_hash,
            NodeId::governor(small.governor),
            50,
        );
        rig.propose(&rival, Some(small.clone()), with_header);
        let gov = rig.governor();
        assert_eq!(gov.chain().head_hash(), head.hash(), "the head was shed");
        assert_eq!(gov.metrics().head_rollbacks, 0);
        assert_eq!(gov.metrics().append_failures, 1);
        assert!(gov.ready_tx_ids().is_empty());
        // The entry count is part of the signed hash, so a header over an
        // oversized block convicts whoever signed it.
        let expected: &[u32] = if with_header { &[small.governor] } else { &[] };
        assert_eq!(gov.expelled(), expected);
        // The head's own successor still lands.
        let next = Block::build(2, vec![rig.entry(2)], head.hash(), head.leader, 60);
        rig.propose(&next, None, true);
        assert_eq!(rig.governor().chain().head_hash(), next.hash());
        assert_eq!(rig.governor().metrics().append_failures, 1);
    }
}

/// A relay holding an honest leader's signed header puts other entries
/// under the same header fields — same block hash, so the header "covers"
/// the forgery — and forwards it in the leader's name. That must not
/// convict the leader, in either verification mode.
#[test]
fn relayed_header_over_a_swapped_body_cannot_frame_its_signer() {
    for verify_blocks in [false, true] {
        let mut rig = ProposalRig::with_verify_blocks(verify_blocks);
        let genesis_hash = rig.governor().chain().head_hash();
        let honest = Block::build(1, vec![rig.entry(0)], genesis_hash, NodeId::governor(1), 50);
        let mut fabricated = rig.entry(1);
        fabricated.tx = fabricated.tx.with_provider_sig(Sig::forged(
            &CryptoScheme::sim(),
            &mut StdRng::seed_from_u64(3),
        ));
        let swapped = Block::from_parts(
            honest.serial,
            vec![fabricated],
            honest.prev_hash,
            honest.merkle_root,
            honest.leader,
            honest.timestamp,
        );
        assert_eq!(swapped.hash(), honest.hash());
        let header = rig.header(&honest);
        let at = rig.net.now();
        rig.net.send_external(
            0,
            "block",
            ProtocolMsg::BlockProposal {
                block: swapped,
                claim: None,
                header: Some(header),
            },
            at,
        );
        rig.net.run_until_idle(1_000);
        let gov = rig.governor();
        assert_eq!(gov.chain().head_hash(), genesis_hash);
        assert_eq!(gov.metrics().invalid_blocks_rejected, 1);
        assert!(gov.expelled().is_empty(), "an honest leader was framed");
        // The leader's real block still appends.
        rig.propose(&honest, None, true);
        assert_eq!(rig.governor().chain().head_hash(), honest.hash());
        assert!(rig.governor().expelled().is_empty());
    }
}

#[test]
fn sig_memo_caches_verdicts_and_forged_probes_stay_false() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let mut rng = StdRng::seed_from_u64(7);
    let scheme = CryptoScheme::sim();
    let tx = rig.make_tx(0, 0, true);
    // A forged twin of the genuine transaction: identical signed fields
    // (hence the same tx id) but a garbage signature. The memo keys on
    // (provider, id, signature), so the twin gets its own entry.
    let forged_tx = SignedTx::from_parts(
        tx.payload.clone(),
        tx.timestamp,
        Sig::forged(&scheme, &mut rng),
    );
    // Genuine upload via both collectors: one real verification seeds the
    // memo, the second upload is answered from it.
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    rig.upload(1, 0, tx, Label::Valid, 1);
    // Forged probes with the same forged signature: the first memoizes
    // `false`, repeats keep failing from cache — a probe can never flip a
    // cached verdict.
    rig.upload(0, 1, forged_tx.clone(), Label::Valid, 2);
    rig.upload(1, 1, forged_tx, Label::Valid, 3);
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.forged_detected, 2, "cached false verdicts stay false");
    // One real check per distinct (id, sig): the genuine signature settles
    // in the Δ-window batch (both reporters' copies fold into it), the
    // forged probe is checked eagerly when first seen.
    assert_eq!(m.sig_memo_misses, 2);
    // The second forged probe is answered straight from the memo.
    assert_eq!(m.sig_memo_hits, 1);
}
