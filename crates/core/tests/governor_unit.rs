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
use prb_ledger::transaction::{Label, SignedTx, TxId, TxPayload, UploadBatch};
use prb_net::fault::FaultPlan;
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
        Self::with(mode, f, |_| {})
    }

    /// Like [`Rig::new`], with further configuration.
    fn with(mode: GovernorMode, f: f64, configure: impl FnOnce(&mut ProtocolConfig)) -> Self {
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
        configure(&mut cfg);
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

    /// Collector `collector`'s batch `seq` of the one copy `(tx, label)`.
    fn upload(&mut self, collector: u32, seq: u64, tx: SignedTx, label: Label, at: u64) {
        self.upload_batch(collector, seq, vec![(tx, label)], at);
    }

    /// Collector `collector`'s batch `seq`, genuinely signed.
    fn upload_batch(&mut self, collector: u32, seq: u64, entries: Vec<(SignedTx, Label)>, at: u64) {
        let batch = self.batch(collector, seq, entries);
        self.deliver(batch, at);
    }

    fn batch(&self, collector: u32, seq: u64, entries: Vec<(SignedTx, Label)>) -> UploadBatch {
        let key = &self.collector_keys[collector as usize];
        UploadBatch::create(NodeId::collector(collector), seq, entries, key)
    }

    /// Delivers `batch` under the sequence number it signs.
    fn deliver(&mut self, batch: UploadBatch, at: u64) {
        let seq = batch.seq;
        self.net
            .send_external(0, "up", ProtocolMsg::TxUpload { seq, batch }, SimTime(at));
    }

    fn run(&mut self) {
        self.net.run_until_idle(100_000);
    }

    /// The same signed content as `tx` — hence the same id — under a
    /// garbage provider signature drawn from `seed`.
    fn forged_twin(tx: &SignedTx, seed: u64) -> SignedTx {
        let mut rng = StdRng::seed_from_u64(seed);
        SignedTx::from_parts(
            tx.payload.clone(),
            tx.timestamp,
            Sig::forged(&CryptoScheme::sim(), &mut rng),
        )
    }

    fn send(&mut self, msg: ProtocolMsg, at: u64) {
        self.net.send_external(0, "cmd", msg, SimTime(at));
    }

    /// Runs one round at `at`: the lone governor elects itself and
    /// commits what it has screened. Returns the committed block.
    fn commit_round(&mut self, round: u64, at: u64) -> Block {
        self.send(ProtocolMsg::StartRound { round }, at);
        self.send(ProtocolMsg::ProposeBlock { round }, at + 1);
        self.run();
        self.governor().chain().latest().clone()
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
    rig.upload(0, 0, tx, Label::Valid, 0);
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
    // Collector 1's key signs, but the batch claims collector 0.
    let batch = UploadBatch::create(
        NodeId::collector(0),
        0,
        vec![(tx, Label::Valid)],
        &rig.collector_keys[1],
    );
    rig.deliver(batch, 0);
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
    rig.upload(1, 0, fake_tx, Label::Valid, 0);
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
/// the names of its peers (from round 0, the round a fresh governor is in).
struct ProposalRig {
    net: Network<NodeActor>,
    governor_keys: Vec<KeyPair>,
    provider_key: KeyPair,
    round: u64,
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
            round: 0,
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
    /// key)` by the actual ticket ordering.
    fn ranked_claims(&self) -> (ElectionClaim, ElectionClaim) {
        let claim = |g: u32| {
            let stake = self.governor().stake_table().stake(g).unwrap();
            let key = &self.governor_keys[g as usize];
            ElectionClaim::compute(b"prb-chain", 0, g, stake, key).unwrap()
        };
        let (c1, c2) = (claim(1), claim(2));
        let key = |c: &ElectionClaim| (c.claimed_ticket(b"prb-chain", 0), c.governor);
        if key(&c1) < key(&c2) {
            (c2, c1)
        } else {
            (c1, c2)
        }
    }

    /// Starts the next round at governor 0: a leader signs one header a
    /// round, so a second block from one leader needs a new round.
    fn next_round(&mut self) {
        self.round += 1;
        let (at, round) = (self.net.now(), self.round);
        self.net
            .send_external(0, "round", ProtocolMsg::StartRound { round }, at);
        self.net.run_until_idle(1_000);
    }

    /// The leader's header over `block`'s hash, signed for the rig's round.
    fn header(&self, block: &Block) -> SignedHeader {
        self.header_for(block, self.round)
    }

    /// The leader's header over `block`'s hash, signed for `round`.
    fn header_for(&self, block: &Block, round: u64) -> SignedHeader {
        let leader = block.leader.index;
        SignedHeader::create(
            leader,
            round,
            block.serial,
            block.hash(),
            &self.governor_keys[leader as usize],
        )
    }

    /// Delivers `block` to governor 0 as a direct proposal by its leader,
    /// with or without the leader's header over its hash, signed for the
    /// rig's round.
    fn propose(&mut self, block: &Block, claim: Option<ElectionClaim>, with_header: bool) {
        let round = with_header.then_some(self.round);
        self.propose_signed(block, claim, round);
    }

    /// [`Self::propose`] with the header, if any, signed for `round`.
    fn propose_signed(&mut self, block: &Block, claim: Option<ElectionClaim>, round: Option<u64>) {
        let header = round.map(|r| Box::new(self.header_for(block, r)));
        let at = self.net.now();
        self.net.send_external(
            0,
            "block",
            ProtocolMsg::BlockProposal {
                block: block.clone(),
                claim: claim.map(Box::new),
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
            // (A second header from the same proposer in this round
            // would be equivocation, so the round moves on.) The head's
            // own successor lands.
            rig.next_round();
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

/// Once the election has authenticated the round's winning claim, the
/// governor answers `claim_key` for that claim from memory and verifies
/// any other. A head contest must come out as it does for a governor that
/// verifies every attached claim from its proof: a doctored claim
/// refused, the genuine smaller key winning.
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
        // The head's own successor, in the next round, still lands.
        rig.next_round();
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
                header: Some(Box::new(header)),
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

/// An equivocating leader that signs its twin block for another round
/// splits the committee into halves whose headers never share a round, so
/// no pair of them convicts it. A proposal signed for a round other than
/// the one its claim ranks in, the governor's own, is refused instead; the
/// same twin signed for the leader's round still convicts next to the
/// original.
#[test]
fn a_proposal_signed_for_another_round_is_refused() {
    let mut rig = ProposalRig::new();
    let (_, claim) = rig.ranked_claims();
    let leader = claim.governor;
    let genesis_hash = rig.governor().chain().head_hash();
    let block = Block::build(
        1,
        vec![rig.entry(0)],
        genesis_hash,
        NodeId::governor(leader),
        50,
    );
    let twin = Block::build(
        1,
        vec![rig.entry(0)],
        genesis_hash,
        NodeId::governor(leader),
        51,
    );
    // The twin, signed for the next round while the governor is in round 0.
    rig.propose_signed(&twin, Some(claim.clone()), Some(1));
    assert_eq!(rig.governor().chain().head_hash(), genesis_hash);
    assert!(rig.governor().expelled().is_empty());
    // The original, signed for round 0, lands beside that header.
    rig.propose_signed(&block, Some(claim.clone()), Some(0));
    assert_eq!(rig.governor().chain().head_hash(), block.hash());
    assert!(rig.governor().expelled().is_empty());
    // The twin signed for round 0 is the conflict that convicts.
    rig.propose_signed(&twin, Some(claim), Some(0));
    assert_eq!(rig.governor().expelled(), &[leader]);
}

/// A twin backdated to an earlier round must come from a proposer that
/// could have led it. One whose claim lost that round's election here is
/// refused; the round's leader, which proposed then, convicts itself by
/// signing a second block for that round.
#[test]
fn a_proposal_backdated_to_a_round_its_proposer_did_not_lead_is_refused() {
    let mut rig = ProposalRig::new();
    // The governor elects round 0's leader from all three claims, then
    // moves to round 1.
    for g in 0..3u32 {
        let stake = rig.governor().stake_table().stake(g).unwrap();
        let key = &rig.governor_keys[g as usize];
        let claim = ElectionClaim::compute(b"prb-chain", 0, g, stake, key).unwrap();
        let at = rig.net.now();
        rig.net
            .send_external(0, "claim", ProtocolMsg::Election { round: 0, claim }, at);
    }
    rig.net.run_until_idle(1_000);
    let (lost, led) = rig.ranked_claims();
    assert_eq!(rig.governor().current_leader(), Some(led.governor));
    rig.next_round();
    let genesis_hash = rig.governor().chain().head_hash();
    let block = |rig: &ProposalRig, serial: u64, prev, leader: u32, at: u64| {
        Block::build(
            serial,
            vec![rig.entry(serial)],
            prev,
            NodeId::governor(leader),
            at,
        )
    };
    // The loser's block, signed for round 0 with its genuine round-0 claim.
    let backdated = block(&rig, 1, genesis_hash, lost.governor, 50);
    rig.propose_signed(&backdated, Some(lost), Some(0));
    assert_eq!(rig.governor().chain().head_hash(), genesis_hash);
    // The leader's round-0 block arrives late and is adopted.
    let late = block(&rig, 1, genesis_hash, led.governor, 50);
    rig.propose_signed(&late, Some(led.clone()), Some(0));
    assert_eq!(rig.governor().chain().head_hash(), late.hash());
    assert!(rig.governor().expelled().is_empty());
    // A second block signed for round 0, at the next serial, convicts.
    let leader = led.governor;
    let second = block(&rig, 2, late.hash(), leader, 60);
    rig.propose_signed(&second, Some(led), Some(0));
    assert_eq!(rig.governor().expelled(), &[leader]);
}

/// A block past a gap is parked before anything looks at its entries, and
/// adopted once sync closes the gap. In paranoid mode it must meet the
/// same entry check there as a block adopted on arrival: a fabricated
/// entry is refused, not slipped onto the chain through the parking lot.
/// The header did not stay with the parked block, so nobody is convicted.
#[test]
fn a_parked_block_meets_the_paranoid_entry_check_when_it_is_adopted() {
    let mut rig = ProposalRig::with_verify_blocks(true);
    let genesis_hash = rig.governor().chain().head_hash();
    let honest = Block::build(1, vec![rig.entry(0)], genesis_hash, NodeId::governor(1), 50);
    let mut fabricated = rig.entry(1);
    fabricated.tx = fabricated.tx.with_provider_sig(Sig::forged(
        &CryptoScheme::sim(),
        &mut StdRng::seed_from_u64(5),
    ));
    let forged = Block::build(2, vec![fabricated], honest.hash(), NodeId::governor(2), 60);
    rig.propose(&forged, None, true);
    assert_eq!(rig.governor().chain().height(), 0, "parked past the gap");
    assert!(rig.governor().is_recovering());
    let at = rig.net.now();
    rig.net.send_external(
        0,
        "sync-response",
        ProtocolMsg::SyncResponse {
            blocks: vec![honest.clone()],
            head: 2,
            cert: None,
        },
        at,
    );
    rig.net.run_until_idle(1_000);
    let gov = rig.governor();
    assert_eq!(gov.chain().height(), 1, "the forged block was adopted");
    assert_eq!(gov.chain().head_hash(), honest.hash());
    assert!(gov.chain().find_tx(forged.entries[0].tx.id()).is_none());
    assert_eq!(gov.metrics().append_failures, 1);
    assert_eq!(gov.metrics().invalid_blocks_rejected, 1);
    assert!(gov.expelled().is_empty());
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

// ---------------------------------------------------------------------
// The transaction table (screening + reveal state), driven through one
// governor on a quiet network: every way a copy, a timer, an argue or a
// reveal can meet a slot.
// ---------------------------------------------------------------------

#[test]
fn a_forged_probe_from_a_reporter_already_in_the_window_is_still_case_one() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, true);
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    // Same reporter, same id, garbage signature: no second report rides on
    // it, but the forgery is charged at once.
    rig.upload(0, 1, Rig::forged_twin(&tx, 1), Label::Invalid, 1);
    rig.net.run_until(SimTime(2));
    let gov = rig.governor();
    assert_eq!(gov.metrics().forged_detected, 1);
    assert_eq!(gov.reputation().collector(0).forge(), -1);
    assert_eq!(gov.pending_count(), 1, "the window is untouched");
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().screened, 1);
    assert_eq!(gov.metrics().forged_detected, 1, "not charged again");
    assert_eq!(
        gov.reputation().collector(0).misreport(),
        1,
        "the one report counted is the first copy's"
    );
}

#[test]
fn a_second_copy_under_another_signature_is_judged_on_its_own() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, true);
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    rig.upload(1, 0, Rig::forged_twin(&tx, 2), Label::Valid, 1);
    rig.run();
    let gov = rig.governor();
    let m = gov.metrics();
    assert_eq!(m.screened, 1);
    assert_eq!(m.forged_detected, 1);
    assert_eq!(m.sig_memo_misses, 2, "one batch, two distinct signatures");
    assert_eq!(gov.reputation().collector(1).forge(), -1);
    // Only the verified copy's report counts.
    assert_eq!(gov.reputation().collector(0).misreport(), 1);
    assert_eq!(gov.reputation().collector(1).misreport(), 0);
    let block = rig.commit_round(1, 100);
    assert_eq!(block.entries.len(), 1);
    assert_eq!(
        block.entries[0].reported_labels,
        [(NodeId::collector(0), Label::Valid)]
    );
}

#[test]
fn a_forged_first_copy_is_rehomed_onto_a_verified_signature() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let tx = rig.make_tx(0, 0, true);
    rig.upload(0, 0, Rig::forged_twin(&tx, 3), Label::Valid, 0);
    rig.upload(1, 0, tx.clone(), Label::Valid, 1);
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().screened, 1);
    assert_eq!(gov.metrics().forged_detected, 1);
    assert_eq!(gov.reputation().collector(0).forge(), -1);
    // The buffered entry was opened on the forged copy; what the block
    // records must carry the genuine signature.
    let block = rig.commit_round(1, 100);
    assert_eq!(block.entries.len(), 1);
    let recorded = &block.entries[0].tx;
    assert_eq!(recorded.id(), tx.id());
    assert_eq!(recorded.provider_sig, tx.provider_sig);
    assert!(recorded.verify(&rig.provider_keys[0].public_key()));
    assert_eq!(
        block.entries[0].reported_labels,
        [(NodeId::collector(1), Label::Valid)]
    );
}

/// Screens 60 transactions on which the two collectors disagree, one at
/// a time from tick 100 and sequence number `seq0`, and returns which of
/// them were left unchecked: a fingerprint of the kernel's random stream,
/// which the screening draw consumes.
fn screening_fingerprint(rig: &mut Rig, seq0: u64) -> Vec<bool> {
    let window = rig.cfg.aggregation_window();
    (0..60)
        .map(|i| {
            let tx = rig.make_tx(1, i, true);
            let at = 100 + i * (window + 5);
            rig.upload(0, seq0 + i, tx.clone(), Label::Valid, at);
            rig.upload(1, seq0 + i, tx, Label::Invalid, at + 1);
            let before = rig.governor().metrics().unchecked;
            rig.run();
            rig.governor().metrics().unchecked > before
        })
        .collect()
}

#[test]
fn a_window_of_forged_copies_screens_nothing_and_draws_nothing() {
    let mut plain = Rig::new(GovernorMode::Reputation, 0.9);
    let expected = screening_fingerprint(&mut plain, 0);
    assert!(expected.contains(&true) && expected.contains(&false));

    let mut rig = Rig::new(GovernorMode::Reputation, 0.9);
    let tx = rig.make_tx(0, 0, true);
    rig.upload(0, 0, Rig::forged_twin(&tx, 4), Label::Valid, 0);
    rig.upload(1, 0, Rig::forged_twin(&tx, 5), Label::Valid, 1);
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().forged_detected, 2);
    assert_eq!(gov.metrics().screened, 0);
    assert_eq!(gov.pending_stats(), (0, 1, 0), "closed, not shed");
    assert_eq!(gov.ready_len(), 0);
    // No randomness went into the forged window: what follows screens
    // exactly as it does on a governor that never saw it.
    assert_eq!(screening_fingerprint(&mut rig, 1), expected);
}

#[test]
fn a_late_report_on_an_unchecked_slot_is_counted_at_the_reveal() {
    let mut rig = Rig::new(GovernorMode::CheckNone, 0.9);
    let window = rig.cfg.aggregation_window();
    let tx = rig.make_tx(0, 0, true);
    let id = tx.id();
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    rig.upload(1, 0, tx, Label::Invalid, window + 50);
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().screened, 1);
    assert_eq!(gov.metrics().unchecked, 1);
    assert_eq!(
        gov.reputation().collector(1).misreport(),
        0,
        "nothing is known about an unchecked transaction yet"
    );
    rig.send(
        ProtocolMsg::Reveal {
            tx: id,
            valid: true,
        },
        window + 100,
    );
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!(m.revealed, 1);
    // Collector 1 reported, late and wrongly: loss 2, not the 1 of a
    // collector that never reported.
    assert_eq!(m.collector_loss[&(0, 1)], 2.0);
    assert_eq!(m.collector_loss[&(0, 0)], 0.0);
}

#[test]
fn the_oldest_window_is_shed_at_capacity_and_its_timer_fires_for_nothing() {
    let mut rig = Rig::with(GovernorMode::CheckAll, 0.5, |cfg| cfg.pending_capacity = 2);
    let [a, b, c] = [0, 1, 2].map(|nonce| rig.make_tx(0, nonce, true));
    rig.upload(0, 0, a.clone(), Label::Valid, 0);
    rig.upload(0, 1, b.clone(), Label::Valid, 1);
    rig.upload(0, 2, c.clone(), Label::Valid, 2);
    rig.net.run_until(SimTime(2));
    assert_eq!(rig.governor().pending_stats(), (2, 2, 1), "a was shed");
    // The other collector's copy of `a` opens a fresh window, which sheds
    // `b`, now the oldest.
    rig.upload(1, 0, a.clone(), Label::Valid, 3);
    rig.net.run_until(SimTime(3));
    assert_eq!(rig.governor().pending_stats(), (2, 2, 2));
    // The first window is still queued, due at its tick, and still names
    // `a`: it screens the new window early; `b`'s falls due for nothing;
    // then `c`; then `a`'s own, for nothing.
    let window = rig.cfg.aggregation_window();
    rig.net.run_until(SimTime(window));
    assert_eq!(rig.governor().metrics().screened, 1);
    assert_eq!(rig.governor().ready_tx_ids(), [a.id()]);
    rig.net.run_until(SimTime(window + 1));
    assert_eq!(rig.governor().metrics().screened, 1);
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().screened, 2);
    assert_eq!(gov.ready_tx_ids(), [a.id(), c.id()]);
    assert_eq!(gov.pending_stats(), (0, 2, 2));
    // Only collector 1's copy of `a` was in the window that got screened.
    assert_eq!(gov.reputation().collector(1).misreport(), 1);
    assert_eq!(gov.reputation().collector(0).misreport(), 1, "c's report");
}

#[test]
fn a_verdict_the_memo_dropped_is_settled_again_at_screening() {
    // The memo clears itself when it holds 8192 verdicts, and the verdicts
    // it holds are the forged ones (a genuine verdict lives in its
    // window). Give every transaction a forged second copy, enough of them
    // that the batch settling them all overflows the memo: the first
    // transactions' forged verdicts are memoized, then dropped by the
    // clear, and each is verified again, alone, when its turn to be
    // screened comes — and must come out forged the second time as well.
    const N: u64 = 8_200;
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    for nonce in 0..N {
        let tx = rig.make_tx(0, nonce, true);
        rig.upload(0, nonce, tx.clone(), Label::Valid, 0);
        rig.upload(1, nonce, Rig::forged_twin(&tx, nonce), Label::Valid, 0);
    }
    rig.run();
    let gov = rig.governor();
    let m = gov.metrics();
    assert_eq!(m.screened, N);
    assert_eq!(m.checked, N);
    assert_eq!(m.forged_detected, N);
    assert_eq!(gov.reputation().collector(1).forge(), -(N as i64));
    assert_eq!(gov.reputation().collector(0).forge(), 0);
    // Every signature went through the one batch; the second look at the
    // dropped ones is not a memo miss, it never asked the batch.
    assert_eq!(m.sig_memo_misses, 2 * N);
    assert_eq!(gov.ready_len() as u64, N);
    assert_eq!(gov.pending_count(), 0);
}

#[test]
fn an_argue_is_heard_within_u_unchecked_transactions_and_only_once() {
    let mut rig = Rig::with(GovernorMode::CheckNone, 0.9, |cfg| cfg.argue_limit_u = 2);
    let window = rig.cfg.aggregation_window();
    // Four valid transactions of provider 0, each recorded
    // unchecked-invalid on collector 0's word: indices 0..4 in the
    // provider's unchecked sequence.
    let txs: Vec<SignedTx> = (0..4).map(|nonce| rig.make_tx(0, nonce, true)).collect();
    for (i, tx) in txs.iter().enumerate() {
        rig.upload(0, i as u64, tx.clone(), Label::Invalid, i as u64);
    }
    rig.run();
    assert_eq!(rig.governor().metrics().unchecked, 4);
    let argue = |rig: &mut Rig, tx: &SignedTx, at: u64| {
        rig.send(
            ProtocolMsg::Argue {
                tx: tx.id(),
                serial: 1,
            },
            at,
        );
        rig.run();
    };
    // Index 0 lies under 4 − 0 = 4 > U later ones: permanently invalid.
    argue(&mut rig, &txs[0], window + 10);
    let m = rig.governor().metrics();
    assert_eq!((m.argue_accepted, m.argue_rejected), (0, 1));
    assert_eq!(m.lost_valid, 1);
    assert_eq!(m.revealed, 0);
    // Index 2 lies under 2 ≤ U: verified at once and re-recorded.
    argue(&mut rig, &txs[2], window + 20);
    let m = rig.governor().metrics();
    assert_eq!((m.argue_accepted, m.argue_rejected), (1, 1));
    assert_eq!(m.revealed, 1);
    let validations = m.validations;
    // Neither a second argue nor a reveal reopens it.
    argue(&mut rig, &txs[2], window + 30);
    rig.send(
        ProtocolMsg::Reveal {
            tx: txs[2].id(),
            valid: true,
        },
        window + 40,
    );
    rig.run();
    let m = rig.governor().metrics();
    assert_eq!((m.argue_accepted, m.argue_rejected), (1, 1));
    assert_eq!(m.revealed, 1);
    assert_eq!(m.validations, validations);
    // And an argue after a plain reveal is a duplicate too.
    rig.send(
        ProtocolMsg::Reveal {
            tx: txs[3].id(),
            valid: true,
        },
        window + 50,
    );
    rig.run();
    argue(&mut rig, &txs[3], window + 60);
    let m = rig.governor().metrics();
    assert_eq!(m.revealed, 2);
    assert_eq!(m.argue_accepted, 1);
    // The argued transaction is re-recorded in the next block.
    let block = rig.commit_round(1, window + 100);
    let argued: Vec<TxId> = block
        .entries
        .iter()
        .filter(|e| e.verdict == prb_ledger::block::Verdict::ArguedValid)
        .map(|e| e.tx.id())
        .collect();
    assert_eq!(argued, [txs[2].id()]);
}

#[test]
fn a_collector_absent_at_screening_owes_nothing_at_the_reveal_even_once_back() {
    use prb_consensus::membership::{MemberRole, MembershipAction, MembershipRequest};

    let mut rig = Rig::with(GovernorMode::CheckNone, 0.9, |cfg| cfg.leave_rate = 0.1);
    let window = rig.cfg.aggregation_window();
    let membership = |rig: &Rig, action, bond, round| {
        ProtocolMsg::Membership(Box::new(MembershipRequest::create(
            MemberRole::Collector,
            1,
            action,
            bond,
            round,
            &rig.collector_keys[1],
        )))
    };
    // Collector 1 leaves for round 1; a transaction is screened without
    // it; it rejoins for round 2; only then is the transaction revealed.
    let leave = membership(&rig, MembershipAction::Leave, 0, 1);
    rig.send(leave, 0);
    rig.send(ProtocolMsg::StartRound { round: 1 }, 1);
    let during = rig.make_tx(0, 0, true);
    rig.upload(0, 0, during.clone(), Label::Valid, 2);
    rig.run();
    assert!(!rig.governor().collector_is_active(1));
    assert_eq!(rig.governor().metrics().unchecked, 1);
    let join = membership(&rig, MembershipAction::Join, 1, 2);
    rig.send(join, window + 10);
    rig.send(ProtocolMsg::StartRound { round: 2 }, window + 11);
    rig.run();
    assert!(rig.governor().collector_is_active(1));
    let rejoined = rig.governor().reputation().collector(1).weights().to_vec();
    rig.send(
        ProtocolMsg::Reveal {
            tx: during.id(),
            valid: true,
        },
        window + 20,
    );
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().revealed, 1);
    assert!(!gov.metrics().collector_loss.contains_key(&(0, 1)));
    assert_eq!(gov.reputation().collector(1).weights(), rejoined);
    // A transaction screened after it is back is another matter: silent
    // then, it owes the Missed loss.
    let after = rig.make_tx(0, 1, true);
    rig.upload(0, 1, after.clone(), Label::Valid, window + 30);
    rig.run();
    rig.send(
        ProtocolMsg::Reveal {
            tx: after.id(),
            valid: true,
        },
        2 * window + 50,
    );
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().revealed, 2);
    assert_eq!(gov.metrics().collector_loss[&(0, 1)], 1.0);
    assert_ne!(gov.reputation().collector(1).weights(), rejoined);
}

// ---------------------------------------------------------------------
// Upload batches: one collector signature per dispatch, every entry filed
// as its own copy.
// ---------------------------------------------------------------------

/// One batch of n entries files exactly as n one-entry batches delivered
/// on the same tick in the same order: the same windows, reports,
/// screening draws, reputation moves and block.
#[test]
fn one_batch_of_n_entries_files_like_n_batches_of_one() {
    let run = |batched: bool| {
        let mut rig = Rig::new(GovernorMode::Reputation, 0.9);
        let txs: Vec<SignedTx> = (0..12u64)
            .map(|n| rig.make_tx((n % 2) as u32, n, n % 4 != 0))
            .collect();
        // Collector 0 labels truthfully; collector 1 flips every third
        // label, so the screening draw decides what goes unchecked.
        for (collector, at) in [(0u32, 3u64), (1, 5)] {
            let entries: Vec<(SignedTx, Label)> = txs
                .iter()
                .enumerate()
                .map(|(i, tx)| {
                    let truth = Label::from_validity(i % 4 != 0);
                    let flip = collector == 1 && i % 3 == 0;
                    (tx.clone(), if flip { truth.flipped() } else { truth })
                })
                .collect();
            if batched {
                rig.upload_batch(collector, 0, entries, at);
            } else {
                for (seq, entry) in entries.into_iter().enumerate() {
                    rig.upload_batch(collector, seq as u64, vec![entry], at);
                }
            }
        }
        rig.run();
        let block = rig.commit_round(1, 200);
        let gov = rig.governor();
        let m = gov.metrics();
        let weights: Vec<Vec<f64>> = (0..2)
            .map(|c| gov.reputation().collector(c).weights().to_vec())
            .collect();
        (
            (m.screened, m.checked, m.unchecked, m.forged_detected),
            (m.sig_memo_misses, m.sig_memo_hits),
            gov.pending_stats(),
            weights,
            block.hash(),
            block.entries.len(),
        )
    };
    let batched = run(true);
    assert_eq!(batched, run(false));
    let (screened, checked, unchecked, _) = batched.0;
    assert_eq!(screened, 12);
    assert!(
        checked > 0 && unchecked > 0,
        "{checked} checked, {unchecked} unchecked"
    );
}

/// Any change to what a batch's signature binds — a label, the order or
/// membership of the entries, the sequence number, the collector — is a
/// batch the governor drops whole: nothing filed, nobody charged.
#[test]
fn a_tampered_batch_is_dropped_whole_and_moves_no_reputation() {
    let rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let txs = [0, 1].map(|n| rig.make_tx(0, n, true));
    let entries = vec![
        (txs[0].clone(), Label::Valid),
        (txs[1].clone(), Label::Invalid),
    ];
    let genuine = rig.batch(0, 0, entries.clone());
    let restate = |batch: &UploadBatch, collector: u32, seq: u64, entries| {
        UploadBatch::from_parts(
            NodeId::collector(collector),
            seq,
            entries,
            batch.collector_sig.clone(),
        )
    };
    let flipped = vec![entries[0].clone(), (txs[1].clone(), Label::Valid)];
    let reordered = vec![entries[1].clone(), entries[0].clone()];
    let tampered = [
        restate(&genuine, 0, 0, flipped),
        restate(&genuine, 0, 0, reordered),
        restate(&genuine, 0, 0, entries[..1].to_vec()),
        // The collector's genuine batch 1, replayed as its batch 0.
        restate(&rig.batch(0, 1, entries.clone()), 0, 0, entries.clone()),
        // Collector 0's words in collector 1's name.
        restate(&genuine, 1, 0, entries.clone()),
    ];
    for batch in tampered {
        let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
        let fresh: Vec<Vec<f64>> = (0..2)
            .map(|c| rig.governor().reputation().collector(c).weights().to_vec())
            .collect();
        rig.deliver(batch, 0);
        rig.run();
        let gov = rig.governor();
        let m = gov.metrics();
        assert_eq!((m.screened, m.forged_detected), (0, 0));
        assert_eq!(gov.pending_stats(), (0, 0, 0));
        for (c, weights) in fresh.iter().enumerate() {
            let v = gov.reputation().collector(c);
            assert_eq!((v.misreport(), v.forge()), (0, 0));
            assert_eq!(v.weights(), weights);
        }
    }
    // A message whose sequence number is not the one its batch signs never
    // takes the channel's slot: the genuine batch 0 still files after it.
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let replay = rig.batch(0, 1, entries.clone());
    rig.net.send_external(
        0,
        "up",
        ProtocolMsg::TxUpload {
            seq: 0,
            batch: replay,
        },
        SimTime(0),
    );
    rig.deliver(genuine, 1);
    rig.run();
    assert_eq!(rig.governor().metrics().screened, 2);
}

/// The batch is the collector's word, each entry's provenance its own: a
/// forged provider signature among genuine entries is case 1 against the
/// collector that uploaded it, and the genuine entries are filed as usual.
#[test]
fn a_forged_provider_signature_inside_a_genuine_batch_is_case_one_and_the_rest_is_filed() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let [a, b, c] = [0, 1, 2].map(|n| rig.make_tx(0, n, true));
    let entries = vec![
        (a.clone(), Label::Valid),
        (Rig::forged_twin(&b, 8), Label::Valid),
        (c.clone(), Label::Valid),
    ];
    rig.upload_batch(1, 0, entries, 0);
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().forged_detected, 1);
    assert_eq!(gov.reputation().collector(1).forge(), -1);
    assert_eq!(gov.metrics().screened, 2);
    assert_eq!(gov.ready_tx_ids(), [a.id(), c.id()]);
    assert_eq!(
        gov.reputation().collector(1).misreport(),
        2,
        "both genuine reports counted"
    );
    assert_eq!(gov.pending_count(), 0);
}

/// ROADMAP item 4(c): a governor down when a window's Δ timer fell due
/// never hears it, and the window used to stay open for ever. The first
/// round start after the governor is back screens it, as the timer would
/// have, and the block records it.
#[test]
fn a_window_whose_timer_fell_due_while_the_governor_was_down_is_screened_on_its_first_round_back() {
    let mut rig = Rig::new(GovernorMode::CheckAll, 0.5);
    let window = rig.cfg.aggregation_window();
    let mut faults = FaultPlan::none();
    faults.crash_window(0, SimTime(5), SimTime(window + 5));
    rig.net.set_faults(faults);
    let tx = rig.make_tx(0, 0, true);
    rig.upload(0, 0, tx.clone(), Label::Valid, 0);
    rig.upload(1, 0, tx.clone(), Label::Valid, 1);
    rig.run();
    let gov = rig.governor();
    assert_eq!(gov.metrics().screened, 0, "the timer fell due in the crash");
    assert_eq!(gov.pending_count(), 1);
    let block = rig.commit_round(1, window + 10);
    let gov = rig.governor();
    assert_eq!(gov.metrics().screened, 1);
    assert_eq!(gov.pending_count(), 0, "no window left open");
    assert_eq!(block.entries.len(), 1);
    assert_eq!(block.entries[0].tx.id(), tx.id());
    assert_eq!(
        block.entries[0].reported_labels,
        [
            (NodeId::collector(0), Label::Valid),
            (NodeId::collector(1), Label::Valid)
        ]
    );
    assert_eq!(gov.reputation().collector(0).misreport(), 1);
    assert_eq!(gov.reputation().collector(1).misreport(), 1);
}
