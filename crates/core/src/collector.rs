//! The collector role (§3.3 — Uploading phase, Algorithm 1).
//!
//! An honest collector verifies each incoming transaction's provider
//! signature, validates it, attaches a ±1 label, and atomically broadcasts
//! the labeled transaction to every governor. Everything labeled in one
//! upload leaves as one [`UploadBatch`] under one collector signature, one
//! message per governor. In open loop an upload is a round's mempool
//! drain. In closed loop it is a round's collection phase: from
//! `StartRound` to the driver's `EndCollect`, each delivery is verified
//! and labeled on arrival but held; a delivery outside that phase (a
//! retransmission) uploads at once. Held labels never outlive their
//! round: a collector that missed `EndCollect` (crashed across it)
//! releases them at its next `StartRound` or `EndCollect`, and the driver
//! sends an `EndCollect` in drain rounds too. Adversarial profiles flip
//! labels, discard transactions, or fabricate forged ones (§4.2's three
//! misbehaviour classes).

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use prb_crypto::identity::NodeId;
use prb_crypto::signer::{CryptoScheme, KeyPair, PublicKey, Sig};
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::{Label, SignedTx, TxPayload, UploadBatch};
use prb_net::message::{Envelope, NodeIdx};
use prb_net::order::{ChannelId, OrderedInbox};
use prb_net::sim::Context;
use prb_obs::{EventKind as ObsEvent, Obs, ObsHandle};

use crate::behavior::CollectorProfile;
use crate::msg::ProtocolMsg;
use crate::node::Outbox;

/// Collector actor state.
#[derive(Debug)]
pub struct CollectorNode {
    index: u32,
    key: KeyPair,
    scheme: CryptoScheme,
    profile: CollectorProfile,
    round: u64,
    /// Providers this collector is linked with, and their public keys.
    provider_pks: HashMap<u32, PublicKey>,
    /// Interned signing identities for the E15 scale workload: simulated
    /// provider `p` signs with `pk_pool[p % len]`. Consulted only when
    /// `p` is absent from `provider_pks`, so enrolled providers are
    /// unaffected. Empty outside scale runs.
    pk_pool: Vec<PublicKey>,
    governor_nets: Vec<NodeIdx>,
    oracle: Rc<RefCell<ValidityOracle>>,
    inbox: OrderedInbox<SignedTx>,
    /// Open-loop admission queue: arrivals wait here until the next
    /// round start drains them through Algorithm 1. Bounded by
    /// `mempool_capacity`; `None` capacity = closed loop (process on
    /// arrival, the pre-E15 behaviour).
    mempool: VecDeque<SignedTx>,
    mempool_capacity: Option<usize>,
    mempool_high_water: usize,
    shed: u64,
    /// What the current upload labeled, sent as one batch when the
    /// dispatch ends, or at `EndCollect` while `collecting`.
    labeled: Vec<(SignedTx, Label)>,
    /// Closed loop, from `StartRound` to `EndCollect`: labels wait in
    /// `labeled` for the collection phase to close.
    collecting: bool,
    upload_seq: u64,
    forge_nonce: u64,
    uploaded: u64,
    discarded: u64,
    flipped: u64,
    forged: u64,
    obs: ObsHandle,
    /// This collector's kernel node index (set with the obs handle).
    net_idx: u64,
    /// Where uploads leave.
    pub(crate) outbox: Outbox,
    /// Committee standing under dynamic membership (E17): an inactive
    /// collector ignores provider traffic and uploads nothing until a
    /// certified rejoin reactivates it.
    active: bool,
}

impl CollectorNode {
    /// Creates collector `index` with its wiring and credentials.
    pub fn new(
        index: u32,
        key: KeyPair,
        scheme: CryptoScheme,
        profile: CollectorProfile,
        provider_pks: HashMap<u32, PublicKey>,
        governor_nets: Vec<NodeIdx>,
        oracle: Rc<RefCell<ValidityOracle>>,
    ) -> Self {
        CollectorNode {
            index,
            key,
            scheme,
            profile,
            round: 0,
            provider_pks,
            pk_pool: Vec::new(),
            governor_nets,
            oracle,
            inbox: OrderedInbox::new(),
            mempool: VecDeque::new(),
            mempool_capacity: None,
            mempool_high_water: 0,
            shed: 0,
            labeled: Vec::new(),
            collecting: false,
            upload_seq: 0,
            forge_nonce: 0,
            uploaded: 0,
            discarded: 0,
            flipped: 0,
            forged: 0,
            obs: Obs::off(),
            net_idx: 0,
            outbox: Outbox::default(),
            active: true,
        }
    }

    /// Whether the collector is an active committee member.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Sets the collector's committee standing (applied by the driver
    /// when a certified membership transition takes effect). Departing
    /// clears the mempool and purges the retransmission queue — no
    /// retry timer keeps chasing acks for a member that left. Returns
    /// the number of purged in-flight sends.
    pub fn set_active(&mut self, active: bool) -> usize {
        self.active = active;
        if active {
            return 0;
        }
        self.mempool.clear();
        let outbox = &mut self.outbox;
        self.governor_nets
            .iter()
            .map(|&g| outbox.purge_peer(g))
            .sum()
    }

    /// Installs an observability hub and this node's kernel index
    /// (defaults to [`Obs::off`]); adversarial actions then emit
    /// `col.adversary` events.
    pub fn set_obs(&mut self, obs: ObsHandle, net_idx: u64) {
        self.obs = obs;
        self.net_idx = net_idx;
    }

    /// Installs the interned signing-identity pool for scale workloads:
    /// provider `p` verifies against `pool[p % pool.len()]` when not
    /// individually enrolled.
    pub fn set_pk_pool(&mut self, pool: Vec<PublicKey>) {
        self.pk_pool = pool;
    }

    /// Switches the collector to open-loop ingestion with a bounded
    /// mempool of `capacity` transactions, drained at each round start.
    pub fn set_open_loop(&mut self, capacity: usize) {
        self.mempool_capacity = Some(capacity.max(1));
    }

    /// Open-loop mempool accounting: `(queued, high_water, shed)`.
    pub fn mempool_stats(&self) -> (usize, usize, u64) {
        (self.mempool.len(), self.mempool_high_water, self.shed)
    }

    /// Retransmission-queue accounting: `(in_flight, high_water, dropped)`.
    /// All zeros with reliable delivery off.
    pub fn retry_queue_stats(&self) -> (usize, usize, u64) {
        self.outbox.queue_stats()
    }

    /// The collector's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Counters: `(uploaded, discarded, flipped, forged)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.uploaded, self.discarded, self.flipped, self.forged)
    }

    /// The behaviour profile (exposed for experiment scoring).
    pub fn profile(&self) -> &CollectorProfile {
        &self.profile
    }

    /// Handles a delivered message.
    pub fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
        match env.payload {
            ProtocolMsg::StartRound { round } => {
                self.round = round;
                self.drain_mempool(ctx);
                // Open loop: the drain. Closed loop: whatever a missed
                // `EndCollect` left held, before this round's phase opens.
                self.upload(ctx);
                self.collecting = self.mempool_capacity.is_none();
            }
            ProtocolMsg::EndCollect { .. } => {
                self.collecting = false;
                self.upload(ctx);
            }
            ProtocolMsg::TxBroadcast { seq, tx } => {
                if !self.active {
                    return; // departed: out of the committee entirely
                }
                let provider_index = tx.payload.provider.index;
                // The released transactions borrow the inbox; the handlers
                // need the whole node.
                let mut inbox = std::mem::take(&mut self.inbox);
                for tx in inbox.push(ChannelId(u64::from(provider_index)), seq, tx) {
                    if self.mempool_capacity.is_some() {
                        self.admit(tx, ctx);
                    } else {
                        self.process_tx(tx, ctx);
                    }
                }
                self.inbox = inbox;
                if !self.collecting {
                    self.upload(ctx);
                }
            }
            _ => {}
        }
    }

    /// Open-loop admission: queue the arrival, shedding the *oldest*
    /// queued transaction when the bounded mempool is full. Oldest-first
    /// is deterministic (the queue is FIFO in arrival order) and favours
    /// fresh traffic — a stale transaction the chain has not ordered for
    /// a full congestion window is the right one to sacrifice.
    fn admit(&mut self, tx: SignedTx, ctx: &mut Context<'_, ProtocolMsg>) {
        let cap = self.mempool_capacity.expect("admit only in open loop");
        self.mempool.push_back(tx);
        while self.mempool.len() > cap {
            let victim = self.mempool.pop_front().expect("len > cap >= 1");
            self.shed += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("mempool.shed");
            }
            self.obs.emit(
                ctx.now().ticks(),
                self.net_idx,
                ObsEvent::TxDropped {
                    trace: victim.id().trace(),
                    reason: "shed",
                },
            );
        }
        self.mempool_high_water = self.mempool_high_water.max(self.mempool.len());
    }

    /// Drains every admitted transaction through Algorithm 1 (verify,
    /// label). Called at round start in open-loop mode.
    fn drain_mempool(&mut self, ctx: &mut Context<'_, ProtocolMsg>) {
        while let Some(tx) = self.mempool.pop_front() {
            self.process_tx(tx, ctx);
        }
    }

    fn process_tx(&mut self, tx: SignedTx, ctx: &mut Context<'_, ProtocolMsg>) {
        let provider_index = tx.payload.provider.index;
        // verify(p_k, tx): signature by a provider this collector is linked
        // with (Algorithm 1 line 3). Scale runs resolve interned provider
        // ids through the shared identity pool instead of per-provider
        // enrollment.
        let pk = match self.provider_pks.get(&provider_index) {
            Some(pk) => pk,
            None if !self.pk_pool.is_empty() => {
                &self.pk_pool[provider_index as usize % self.pk_pool.len()]
            }
            None => return, // not linked: ignore entirely
        };
        if !tx.verify(pk) {
            return; // bad provider signature: discard
        }
        // Adversarial forging happens alongside normal processing.
        if self.profile.decide_forge(self.round, ctx.rng()) {
            self.upload_forged(provider_index, ctx);
        }
        let Some(flip) = self.profile.decide_label(self.round, ctx.rng()) else {
            self.discarded += 1;
            self.obs.emit(
                ctx.now().ticks(),
                self.net_idx,
                ObsEvent::CollectorAction { action: "drop" },
            );
            // Lifecycle: this copy dies here. Terminal only if every
            // replica of the tx is concealed; a commit elsewhere wins.
            self.obs.emit(
                ctx.now().ticks(),
                self.net_idx,
                ObsEvent::TxDropped {
                    trace: tx.id().trace(),
                    reason: "concealed",
                },
            );
            return;
        };
        // l ← validate(tx): the collector does the validation work itself;
        // ground truth comes from the oracle without charging the
        // governor-side validation counter.
        let truth = self.oracle.borrow().peek(tx.id()).unwrap_or(false);
        let honest_label = Label::from_validity(truth);
        let label = if flip {
            self.flipped += 1;
            self.obs.emit(
                ctx.now().ticks(),
                self.net_idx,
                ObsEvent::CollectorAction { action: "flip" },
            );
            honest_label.flipped()
        } else {
            honest_label
        };
        self.labeled.push((tx, label));
    }

    /// Signs what was labeled since the last upload as the channel's next
    /// batch and sends it to every governor; nothing when nothing was.
    fn upload(&mut self, ctx: &mut Context<'_, ProtocolMsg>) {
        if self.labeled.is_empty() {
            return;
        }
        let seq = self.upload_seq;
        self.upload_seq += 1;
        self.uploaded += self.labeled.len() as u64;
        // An exact-size copy: the batch is sealed at its final size, and
        // `labeled` keeps its buffer for the next dispatch.
        let entries: Vec<_> = self.labeled.drain(..).collect();
        let batch = UploadBatch::create(NodeId::collector(self.index), seq, entries, &self.key);
        let governors = self.governor_nets.iter().copied();
        self.outbox.fan_out(ctx, governors, batch, |g, batch| {
            (g, ProtocolMsg::TxUpload { seq, batch })
        });
    }

    /// Fabricates a transaction "from" a linked provider with a forged
    /// signature. Detection probability is overwhelming (§4.2): the
    /// governor's `verify` will fail.
    fn upload_forged(&mut self, provider_index: u32, ctx: &mut Context<'_, ProtocolMsg>) {
        self.forged += 1;
        self.obs.emit(
            ctx.now().ticks(),
            self.net_idx,
            ObsEvent::CollectorAction { action: "forge" },
        );
        let payload = TxPayload {
            provider: NodeId::provider(provider_index),
            // High nonces keep forged ids from colliding with real ones.
            nonce: u64::MAX - self.forge_nonce,
            data: b"forged".to_vec(),
        };
        self.forge_nonce += 1;
        let fake_tx = SignedTx::from_parts(
            payload,
            ctx.now().ticks(),
            Sig::forged(&self.scheme, ctx.rng()),
        );
        self.labeled.push((fake_tx, Label::Valid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_net::sim::{Actor, NetConfig, Network};
    use prb_net::time::SimTime;

    #[allow(clippy::large_enum_variant)]
    enum Harness {
        Collector(CollectorNode),
        Sink(Vec<(usize, ProtocolMsg)>),
    }

    impl Actor for Harness {
        type Msg = ProtocolMsg;
        fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
            match self {
                Harness::Collector(c) => c.on_message(env, ctx),
                Harness::Sink(seen) => seen.push((env.from, env.payload)),
            }
        }
    }

    fn provider_key(i: u32) -> KeyPair {
        CryptoScheme::sim().keypair_from_seed(format!("prov-{i}").as_bytes())
    }

    fn build(profile: CollectorProfile) -> (Network<Harness>, Rc<RefCell<ValidityOracle>>) {
        build_wide(profile, 1)
    }

    /// Node 0 = collector; nodes `1..=governors` = governor sinks.
    fn build_wide(
        profile: CollectorProfile,
        governors: usize,
    ) -> (Network<Harness>, Rc<RefCell<ValidityOracle>>) {
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let mut net = Network::new(NetConfig::uniform(1, 3), 9);
        let mut provider_pks = HashMap::new();
        provider_pks.insert(0, provider_key(0).public_key());
        let collector = CollectorNode::new(
            0,
            CryptoScheme::sim().keypair_from_seed(b"c0"),
            CryptoScheme::sim(),
            profile,
            provider_pks,
            (1..=governors).collect(),
            Rc::clone(&oracle),
        );
        net.add_node(Harness::Collector(collector));
        for _ in 0..governors {
            net.add_node(Harness::Sink(Vec::new()));
        }
        (net, oracle)
    }

    fn make_tx(
        provider: u32,
        nonce: u64,
        oracle: &Rc<RefCell<ValidityOracle>>,
        valid: bool,
    ) -> SignedTx {
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(provider),
                nonce,
                data: vec![1],
            },
            5,
            &provider_key(provider),
        );
        oracle.borrow_mut().register(tx.id(), valid);
        tx
    }

    /// The batches the governor sink received, in arrival order.
    fn batches(net: &Network<Harness>) -> Vec<UploadBatch> {
        let Harness::Sink(seen) = net.node(1) else {
            panic!()
        };
        seen.iter()
            .filter_map(|(_, m)| match m {
                ProtocolMsg::TxUpload { seq, batch } => {
                    assert_eq!(*seq, batch.seq, "the message names the signed seq");
                    Some(batch.clone())
                }
                _ => None,
            })
            .collect()
    }

    /// Every `(tx, label)` uploaded, batch by batch.
    fn uploads(net: &Network<Harness>) -> Vec<(SignedTx, Label)> {
        batches(net)
            .iter()
            .flat_map(|b| b.entries.iter().cloned())
            .collect()
    }

    #[test]
    fn honest_collector_labels_truthfully_and_signs() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let valid_tx = make_tx(0, 0, &oracle, true);
        let invalid_tx = make_tx(0, 1, &oracle, false);
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 0,
                tx: valid_tx.clone(),
            },
            SimTime(0),
        );
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 1,
                tx: invalid_tx.clone(),
            },
            SimTime(1),
        );
        net.run_until_idle(100);
        // Two deliveries, two dispatches: two batches of one, numbered in
        // order on the collector's channel.
        let sent = batches(&net);
        let seqs: Vec<u64> = sent.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, [0, 1]);
        let collector_pk = CryptoScheme::sim().keypair_from_seed(b"c0").public_key();
        for batch in &sent {
            assert_eq!(batch.entries.len(), 1);
            assert_eq!(batch.collector, NodeId::collector(0));
            assert!(batch.verify(&collector_pk));
        }
        let by_id: HashMap<_, _> = uploads(&net)
            .iter()
            .map(|(tx, label)| (tx.id(), *label))
            .collect();
        assert_eq!(by_id[&valid_tx.id()], Label::Valid);
        assert_eq!(by_id[&invalid_tx.id()], Label::Invalid);
    }

    #[test]
    fn unlinked_provider_is_ignored() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let tx = {
            let tx = SignedTx::create(
                TxPayload {
                    provider: NodeId::provider(7), // not linked
                    nonce: 0,
                    data: vec![1],
                },
                5,
                &provider_key(7),
            );
            oracle.borrow_mut().register(tx.id(), true);
            tx
        };
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(0));
        net.run_until_idle(100);
        assert!(uploads(&net).is_empty());
    }

    #[test]
    fn bad_provider_signature_discarded() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let signed = make_tx(0, 0, &oracle, true);
        // Different data under the old signature: breaks it.
        let payload = TxPayload {
            data: vec![9, 9],
            ..signed.payload.clone()
        };
        let tx = SignedTx::from_parts(payload, signed.timestamp, signed.provider_sig.clone());
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(0));
        net.run_until_idle(100);
        assert!(uploads(&net).is_empty());
    }

    #[test]
    fn always_flipping_collector_inverts_labels() {
        let (mut net, oracle) = build(CollectorProfile::misreporter(1.0));
        let tx = make_tx(0, 0, &oracle, true);
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 0,
                tx: tx.clone(),
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let got = uploads(&net);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, Label::Invalid);
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.counters().2, 1); // flipped
    }

    #[test]
    fn concealer_uploads_nothing() {
        let (mut net, oracle) = build(CollectorProfile::concealer(1.0));
        let tx = make_tx(0, 0, &oracle, true);
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(0));
        net.run_until_idle(100);
        assert!(uploads(&net).is_empty());
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.counters().1, 1); // discarded
    }

    #[test]
    fn forger_uploads_extra_fabricated_tx_with_bad_provider_sig() {
        let (mut net, oracle) = build(CollectorProfile::forger(1.0));
        let tx = make_tx(0, 0, &oracle, true);
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(0));
        net.run_until_idle(100);
        // Real + forged, in one batch: the fabrication rides under the
        // same legitimate collector signature (the collector cannot hide
        // who uploaded it).
        let sent = batches(&net);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].entries.len(), 2);
        let provider_pk = provider_key(0).public_key();
        let collector_pk = CryptoScheme::sim().keypair_from_seed(b"c0").public_key();
        assert!(sent[0].verify(&collector_pk));
        let forged = sent[0]
            .entries
            .iter()
            .filter(|(tx, _)| !tx.verify(&provider_pk))
            .count();
        assert_eq!(forged, 1);
    }

    #[test]
    fn out_of_order_delivery_is_reordered() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let tx0 = make_tx(0, 0, &oracle, true);
        let tx1 = make_tx(0, 1, &oracle, true);
        // Deliver seq 1 first.
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 1,
                tx: tx1.clone(),
            },
            SimTime(0),
        );
        net.run_until_idle(10);
        assert!(uploads(&net).is_empty(), "gap must hold delivery");
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 0,
                tx: tx0.clone(),
            },
            SimTime(10),
        );
        net.run_until_idle(100);
        // The delivery that filled the gap released both: one dispatch,
        // one batch, in provider sequence order.
        assert_eq!(batches(&net).len(), 1);
        let got = uploads(&net);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0.id(), tx0.id());
        assert_eq!(got[1].0.id(), tx1.id());
    }

    #[test]
    fn open_loop_mempool_queues_until_round_start() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let Harness::Collector(c) = net.node_mut(0) else {
            panic!()
        };
        c.set_open_loop(8);
        let tx = make_tx(0, 0, &oracle, true);
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(0));
        net.run_until_idle(100);
        assert!(uploads(&net).is_empty(), "queued, not processed");
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.mempool_stats(), (1, 1, 0));
        net.send_external(
            0,
            "round",
            ProtocolMsg::StartRound { round: 1 },
            SimTime(200),
        );
        net.run_until_idle(100);
        assert_eq!(uploads(&net).len(), 1, "drained at round start");
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.mempool_stats().0, 0);
    }

    #[test]
    fn full_mempool_sheds_oldest_first_and_caps_high_water() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let Harness::Collector(c) = net.node_mut(0) else {
            panic!()
        };
        c.set_open_loop(3);
        let txs: Vec<_> = (0..5).map(|i| make_tx(0, i, &oracle, true)).collect();
        for (i, tx) in txs.iter().cloned().enumerate() {
            net.send_external(
                0,
                "tx",
                ProtocolMsg::TxBroadcast { seq: i as u64, tx },
                SimTime(i as u64),
            );
        }
        net.run_until_idle(100);
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        // 5 arrivals into capacity 3: the 2 oldest shed; high water never
        // exceeds the configured bound.
        assert_eq!(c.mempool_stats(), (3, 3, 2));
        net.send_external(
            0,
            "round",
            ProtocolMsg::StartRound { round: 1 },
            SimTime(200),
        );
        net.run_until_idle(100);
        // The survivors are exactly the newest three arrivals, in drain
        // order: the drain is one dispatch, so one batch.
        assert_eq!(batches(&net).len(), 1);
        let ids: Vec<_> = uploads(&net).iter().map(|(tx, _)| tx.id()).collect();
        let want: Vec<_> = txs[2..].iter().map(|t| t.id()).collect();
        assert_eq!(ids, want, "oldest-first shedding keeps the tail");
    }

    #[test]
    fn shed_then_resubmit_is_admitted_and_uploaded() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let Harness::Collector(c) = net.node_mut(0) else {
            panic!()
        };
        c.set_open_loop(1);
        let first = make_tx(0, 0, &oracle, true);
        let second = make_tx(0, 1, &oracle, true);
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 0,
                tx: first.clone(),
            },
            SimTime(0),
        );
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast { seq: 1, tx: second },
            SimTime(1),
        );
        net.run_until_idle(50);
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.mempool_stats().2, 1, "first arrival shed");
        // The provider resubmits the shed transaction on a fresh seq; it
        // must be admitted and (after the drain) uploaded like any other.
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 2,
                tx: first.clone(),
            },
            SimTime(60),
        );
        net.send_external(
            0,
            "round",
            ProtocolMsg::StartRound { round: 1 },
            SimTime(200),
        );
        net.run_until_idle(100);
        let got = uploads(&net);
        assert!(
            got.iter().any(|(tx, _)| tx.id() == first.id()),
            "resubmitted tx reached upload"
        );
    }

    #[test]
    fn pk_pool_resolves_interned_providers() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        let Harness::Collector(c) = net.node_mut(0) else {
            panic!()
        };
        // Pool of 2 identities; provider 7 is not enrolled in
        // provider_pks, so it resolves to pool slot 7 % 2 = 1.
        c.set_pk_pool(vec![
            provider_key(100).public_key(),
            provider_key(101).public_key(),
        ]);
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(7),
                nonce: 0,
                data: vec![1],
            },
            5,
            &provider_key(101),
        );
        oracle.borrow_mut().register(tx.id(), true);
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(0));
        // A second unenrolled provider signing with the *wrong* pool
        // identity must still be rejected.
        let bad = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(8), // slot 0
                nonce: 0,
                data: vec![1],
            },
            5,
            &provider_key(101), // but signed by slot 1's key
        );
        oracle.borrow_mut().register(bad.id(), true);
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast { seq: 0, tx: bad },
            SimTime(1),
        );
        net.run_until_idle(100);
        assert_eq!(uploads(&net).len(), 1, "pool-verified tx only");
    }

    #[test]
    fn sleeper_behaves_honestly_before_activation_round() {
        let (mut net, oracle) = build(CollectorProfile::misreporter(1.0).sleeper(5));
        let tx = make_tx(0, 0, &oracle, true);
        net.send_external(0, "round", ProtocolMsg::StartRound { round: 1 }, SimTime(0));
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast {
                seq: 0,
                tx: tx.clone(),
            },
            SimTime(1),
        );
        net.send_external(0, "end", ProtocolMsg::EndCollect { round: 1 }, SimTime(2));
        net.run_until_idle(100);
        assert_eq!(uploads(&net)[0].1, Label::Valid);
        // After activation the same profile flips.
        let tx2 = make_tx(0, 1, &oracle, true);
        net.send_external(
            0,
            "round",
            ProtocolMsg::StartRound { round: 5 },
            SimTime(200),
        );
        net.send_external(
            0,
            "tx",
            ProtocolMsg::TxBroadcast { seq: 1, tx: tx2 },
            SimTime(201),
        );
        net.send_external(0, "end", ProtocolMsg::EndCollect { round: 5 }, SimTime(202));
        net.run_until_idle(100);
        assert_eq!(uploads(&net)[1].1, Label::Invalid);
    }

    /// `(seq, entries)` of every batch governor sink `g` received.
    fn batches_at(net: &Network<Harness>, g: usize) -> Vec<(u64, usize)> {
        let Harness::Sink(seen) = net.node(g) else {
            panic!()
        };
        seen.iter()
            .filter_map(|(_, m)| match m {
                ProtocolMsg::TxUpload { seq, batch } => Some((*seq, batch.entries.len())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn closed_loop_holds_labels_until_end_collect_then_uploads_at_once() {
        const GOVERNORS: usize = 3;
        let (mut net, oracle) = build_wide(CollectorProfile::honest(), GOVERNORS);
        let broadcast = |net: &mut Network<Harness>, seq: u64, tx: SignedTx, at: u64| {
            net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq, tx }, SimTime(at));
        };
        net.send_external(0, "round", ProtocolMsg::StartRound { round: 1 }, SimTime(0));
        for nonce in 0..3 {
            broadcast(&mut net, nonce, make_tx(0, nonce, &oracle, true), 1 + nonce);
        }
        net.run_until(SimTime(50));
        // Before the close: three deliveries labeled, nothing sent.
        for g in 1..=GOVERNORS {
            assert!(batches_at(&net, g).is_empty(), "governor sink {g}");
        }
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.counters().0, 0, "nothing uploaded yet");

        // At the close: one batch of all three per governor.
        net.send_external(0, "end", ProtocolMsg::EndCollect { round: 1 }, SimTime(50));
        net.run_until(SimTime(100));
        for g in 1..=GOVERNORS {
            assert_eq!(batches_at(&net, g), [(0, 3)], "governor sink {g}");
        }

        // After it (a retransmission): the delivery uploads at once.
        broadcast(&mut net, 3, make_tx(0, 3, &oracle, true), 100);
        net.run_until(SimTime(150));
        for g in 1..=GOVERNORS {
            assert_eq!(batches_at(&net, g), [(0, 3), (1, 1)], "governor sink {g}");
        }
        let Harness::Collector(c) = net.node(0) else {
            panic!()
        };
        assert_eq!(c.counters().0, 4);
    }

    #[test]
    fn a_missed_end_collect_releases_at_the_next_round_start() {
        let (mut net, oracle) = build(CollectorProfile::honest());
        net.send_external(0, "round", ProtocolMsg::StartRound { round: 1 }, SimTime(0));
        let tx = make_tx(0, 0, &oracle, true);
        net.send_external(0, "tx", ProtocolMsg::TxBroadcast { seq: 0, tx }, SimTime(1));
        net.run_until(SimTime(100));
        assert!(batches(&net).is_empty(), "held: no EndCollect came");
        net.send_external(
            0,
            "round",
            ProtocolMsg::StartRound { round: 2 },
            SimTime(100),
        );
        net.run_until(SimTime(150));
        assert_eq!(batches(&net).len(), 1, "released as round 2 opens");
    }
}
