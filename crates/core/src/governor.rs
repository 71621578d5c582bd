//! The governor role (§3.4 — Processing phase).
//!
//! Implements, per governor:
//!
//! - **Transaction screening** (Algorithm 2): a Δ aggregation window per
//!   transaction (one timer per tick on which windows fall due), the
//!   weighted source draw, the `1 − f·Pr` validation coin, recording of
//!   checked-valid / unchecked transactions;
//! - **Reputation updating** (Algorithm 3): forgery (case 1), checked
//!   (case 2) and revealed-unchecked (case 3) updates on its local
//!   [`ReputationTable`];
//! - **Argue handling** with the `U` latency bound (§3.1/§4.2);
//! - **PoS-VRF leader election** message exchange and **block
//!   proposal/adoption** with chain-integrity checks;
//! - **Revenue distribution** to collectors when leading (§3.4.3);
//! - Loss accounting for the regret experiments (Theorems 1 and 4).
//!
//! What it remembers per transaction — the Δ window, the screening outcome,
//! the reveal status — lives in `crate::txtable`, one slot per transaction;
//! this file decides, the table keeps. Which block the head follows is
//! decided in `crate::forkchoice`; this file acts on it, and every block
//! enters the chain through one function, `GovernorNode::adopt`. Which peer
//! a governor that fell behind asks for pages, and when it rotates or gives
//! up, is decided in `crate::sync` (`Recovery`); what its own and its
//! peers' checkpoint shares, a cert offer and a reopened cert amount to, in
//! [`prb_consensus::checkpoint::Certifier`]; who sits on the committee and
//! what a membership request, share or cert does to it, in
//! [`prb_consensus::membership::CommitteeView`]. This file sends, arms
//! timers, counts, builds the checkpoint state and re-anchors the chain.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use prb_consensus::checkpoint::{
    Certifier, CheckpointCert, CheckpointShare, CheckpointState, CollectorSnapshot, OfferRejected,
    ShareStep,
};
use prb_consensus::election::{elect_excluding, ElectionClaim};
use prb_consensus::evidence::{EquivocationEvidence, SignedHeader};
use prb_consensus::membership::{CommitteeView, MemberRole, MembershipRequest, Transition};
use prb_consensus::quorum::CertError;
use prb_consensus::stake::{StakeTable, StakeTransfer};
use prb_consensus::verify_pool::VerifyPool;
use prb_crypto::fxhash::{fx_map_seeded, FxMap, FxSet};
use prb_crypto::identity::NodeId;
use prb_crypto::sha256::Digest;
use prb_crypto::signer::{KeyPair, PublicKey, Sig};
use prb_ledger::block::{Block, BlockEntry, Verdict};
use prb_ledger::chain::{Chain, ChainError};
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::{Label, SignedTx, TxId, TxPayload, UploadBatch};
use prb_net::health::PeerHealth;
use prb_net::message::{Envelope, NodeIdx, TimerId};
use prb_net::order::{ChannelId, OrderedInbox};
use prb_net::retry::{ReliableSender, RetryConfig};
use prb_net::sim::Context;
use prb_net::time::{SimDuration, SimTime};
use prb_net::topology::Topology;
use prb_obs::{phases, EventKind as ObsEvent, Obs, ObsHandle, Span};
use prb_reputation::screening::{screen, Report};
use prb_reputation::update::{RevealedBehaviour, RevealedReport};
use prb_reputation::{revenue, ReputationTable, ReputationVector, TransitiveView};
use prb_store::{BlockStore, Recovered};

use crate::behavior::{ByzantineMode, GovernorProfile};
use crate::config::{GovernorMode, ProtocolConfig};
use crate::forkchoice::{malformed, Adoption, Arrival, Electorate, ForkChoice, Paged};
use crate::metrics::GovernorMetrics;
use crate::msg::ProtocolMsg;
use crate::sync::{serve, Recovery, Step};
use crate::txtable::{Outcome, QueuedSig, TxSlot, TxTable, Upload, Window, NO_WINDOW};

/// Mean-weight level at which a silence-decayed collector is proposed
/// for eviction (the configured `weight_floor` when it is higher).
const EVICTION_FLOOR: f64 = 1e-3;

/// Governor actor state.
pub struct GovernorNode {
    index: u32,
    key: KeyPair,
    cfg: ProtocolConfig,
    topology: Rc<Topology>,
    oracle: Rc<RefCell<ValidityOracle>>,
    /// Network index of governor 0 (governors are contiguous).
    governor_base: NodeIdx,
    provider_pks: Vec<PublicKey>,
    /// Scale-mode signer pool: when `provider_pks` does not cover a
    /// provider index (interned providers carry no per-provider keypair),
    /// provider `p` resolves to `pk_pool[p % pool.len()]`. Empty outside
    /// the open-loop scale harness.
    pk_pool: Vec<PublicKey>,
    stake_table: StakeTable,
    reputation: ReputationTable,
    chain: Chain,
    inbox: OrderedInbox<UploadBatch>,
    /// Every transaction this governor has seen: its Δ window, screening
    /// outcome and reveal status, the Δ timers, the provider signatures
    /// queued for the next batched drain, and the verdicts on them.
    txs: TxTable,
    unchecked_counter: FxMap<u32, u64>,
    /// Screened entries awaiting inclusion in a block.
    ready_entries: Vec<BlockEntry>,
    /// Accepted argues awaiting re-recording.
    argued_entries: Vec<BlockEntry>,
    round: u64,
    claims: Vec<ElectionClaim>,
    leader: Option<u32>,
    /// VRF fork choice: the head's rank, provisional self-proposals, this
    /// round's claims, and the blocks parked past a gap.
    fork: ForkChoice,
    metrics: GovernorMetrics,
    obs: ObsHandle,
    /// Drains accumulated verifications as RLC batches, optionally across
    /// worker threads (`ProtocolConfig::verify_threads`).
    verify_pool: VerifyPool,
    /// Scratch for the screening draw's input, reused across transactions.
    screen_reports: Vec<Report>,
    election_span: Option<Span>,
    proposal_span: Option<Span>,
    commit_span: Option<Span>,
    /// Ack-based retransmission for block dissemination (None = off).
    retry: Option<ReliableSender<ProtocolMsg>>,
    /// Anti-entropy sync: which peer to ask, rotation and its timers.
    recovery: Recovery,
    /// This governor's (mis)behaviour profile — honest by default,
    /// byzantine modes are injected via `ProtocolConfig::governor_profiles`.
    profile: GovernorProfile,
    /// First signed proposal header seen per `(proposer, round)`, with the
    /// tick it arrived — the baseline for detection-latency spans.
    seen_headers: HashMap<(u32, u64), (SignedHeader, u64)>,
    /// `(proposer, serial, block hash)` triples already echoed, so each
    /// distinct header is re-gossiped exactly once.
    echoed: HashSet<(u32, u64, Digest)>,
    /// Durable block store mirroring every chain mutation (`None` keeps
    /// the ledger purely in memory, the pre-E16 behaviour).
    store: Option<BlockStore>,
    /// Checkpoint snapshots, buffered shares, the announce queue and the
    /// latest cert — assembled, adopted from a sync peer, or reopened.
    certifier: Certifier,
    /// Every member's key and standing, the membership certs and the
    /// equivocation convictions. Uploads from collectors that left are
    /// dropped, they owe no reports at reveal, and they leave the
    /// screening draw entirely.
    committee: CommitteeView,
    /// Advisory EigenTrust-style gossip blend of peer opinions about
    /// collector quality (never feeds consensus state).
    transitive: TransitiveView,
    /// Last-seen tracker over active collectors, driving silence decay
    /// and eviction proposals (keyed by collector index).
    health: PeerHealth,
    /// Tick of the most recent verified collector upload, any channel.
    /// A round in which *nobody* spoke (drain, settle) is not evidence
    /// of individual silence, so decay skips it.
    last_upload_at: u64,
}

impl std::fmt::Debug for GovernorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GovernorNode")
            .field("index", &self.index)
            .field("round", &self.round)
            .field("height", &self.chain.height())
            .finish_non_exhaustive()
    }
}

impl GovernorNode {
    /// Creates governor `index`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: u32,
        key: KeyPair,
        cfg: ProtocolConfig,
        topology: Rc<Topology>,
        oracle: Rc<RefCell<ValidityOracle>>,
        governor_base: NodeIdx,
        collector_pks: Vec<PublicKey>,
        provider_pks: Vec<PublicKey>,
        governor_pks: Vec<PublicKey>,
    ) -> Self {
        let n = cfg.collectors as usize;
        let s = cfg.s() as usize;
        let stake_table = StakeTable::uniform(cfg.governors as usize, cfg.stake_per_governor);
        let verify_pool = VerifyPool::with_inline_min(cfg.verify_threads, cfg.verify_inline_min);
        let profile = cfg.governor_profile(index);
        let mut health = PeerHealth::new();
        for c in 0..n {
            health.watch(c, SimTime(0));
        }
        // Per-governor hash seed: the configured run seed, decorrelated
        // per node so no two governors share bucket layouts. Iteration
        // order of these maps must never reach consensus state — the
        // `hash_seed_never_changes_the_ledger` regression test holds the
        // line.
        let hs = cfg
            .resolved_hash_seed()
            .wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        GovernorNode {
            index,
            key,
            reputation: ReputationTable::new(n, s, cfg.reputation),
            chain: Chain::new(b"prb-chain", cfg.b_limit),
            metrics: GovernorMetrics::new(n),
            committee: CommitteeView::new(governor_pks, collector_pks, n),
            recovery: Recovery::new(index, cfg.governors),
            // Advisory-only view: neutral 0.5 prior, moderate blend rate.
            transitive: TransitiveView::new(n, 0.5, 0.3),
            cfg,
            topology,
            oracle,
            governor_base,
            provider_pks,
            pk_pool: Vec::new(),
            stake_table,
            inbox: OrderedInbox::new(),
            txs: TxTable::new(hs),
            unchecked_counter: fx_map_seeded(hs),
            ready_entries: Vec::new(),
            argued_entries: Vec::new(),
            round: 0,
            claims: Vec::new(),
            leader: None,
            fork: ForkChoice::new(index),
            obs: Obs::off(),
            verify_pool,
            screen_reports: Vec::new(),
            election_span: None,
            proposal_span: None,
            commit_span: None,
            retry: None,
            profile,
            seen_headers: HashMap::new(),
            echoed: HashSet::new(),
            store: None,
            certifier: Certifier::default(),
            health,
            last_upload_at: 0,
        }
    }

    /// Installs an observability hub (defaults to [`Obs::off`]); the
    /// governor then emits `gov.*` events and election / proposal /
    /// screening / commit / reveal / argue / recovery phase spans.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if let Some(r) = &mut self.retry {
            r.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// Enables reliable delivery for block dissemination.
    pub fn set_reliable(&mut self, cfg: RetryConfig) {
        self.retry = Some(ReliableSender::new(cfg));
    }

    /// Installs the scale-mode signer pool: provider indices beyond
    /// `provider_pks` resolve to `pool[p % pool.len()]`, so 10⁵–10⁶
    /// interned providers share a handful of real verification keys
    /// instead of carrying one each.
    pub fn set_pk_pool(&mut self, pool: Vec<PublicKey>) {
        self.pk_pool = pool;
    }

    /// Installs a durable block store and adopts whatever it recovered:
    /// the replayed chain replaces the fresh genesis chain, and a valid
    /// persisted checkpoint certificate restores the certified stake and
    /// reputation state (a restart then resumes from the durable prefix
    /// instead of genesis — anti-entropy sync fetches only the suffix).
    pub fn set_store(&mut self, store: BlockStore, recovered: Recovered) {
        if recovered.chain.height() > 0 || recovered.chain.is_anchored() {
            self.chain = recovered.chain;
        }
        // Replay the persisted membership log first: the checkpoint cert is
        // quorum-sized against the epochs it restores. The certified
        // reputation state adopted below supersedes any bootstrap it does.
        let (applied, refused) = self.committee.replay(store.load_members());
        for t in applied {
            self.on_transition(t, 0);
        }
        self.metrics.member_certs_refused += refused;
        if refused > 0 {
            self.obs.add_counter("member.refused_on_reopen", refused);
        }
        if let Some(cert) = recovered.cert {
            // Checked as an offer to an empty chain: no cert is at serial 0.
            let c = self.committee.checkpoint();
            if let Ok(cert) = self.certifier.offer(cert, 0, &c) {
                adopt_cert_state(cert, &mut self.stake_table, &mut self.reputation);
            }
        }
        self.store = Some(store);
    }

    /// The latest checkpoint certificate this governor holds, if any.
    pub fn latest_cert(&self) -> Option<&CheckpointCert> {
        self.certifier.latest()
    }

    /// Mirrors a freshly appended chain head into the durable store.
    /// Store I/O failure is fatal: a silently diverged store would defeat
    /// the crash-safety guarantee it exists to provide.
    fn store_append_head(&mut self) {
        if let Some(store) = &mut self.store {
            store
                .append(self.chain.latest())
                .expect("durable store append must mirror the chain");
        }
    }

    /// Block `serial` (a checkpoint-interval boundary) just committed:
    /// snapshot the full certified state — head hash, stake vector and
    /// nonces, reputation vectors — for the certifier, counting the early
    /// peer shares that disagree with it.
    fn capture_checkpoint(&mut self, serial: u64) {
        let Some(block_hash) = self.chain.retrieve(serial).map(Block::hash) else {
            return;
        };
        let reputation = (0..self.reputation.collector_count())
            .map(|i| {
                let v = self.reputation.collector(i);
                CollectorSnapshot {
                    weights: v.weights().to_vec(),
                    misreport: v.misreport(),
                    forge: v.forge(),
                }
            })
            .collect();
        let dropped = self.certifier.capture(CheckpointState {
            serial,
            block_hash,
            stakes: self.stake_table.stakes().to_vec(),
            stake_nonces: self.stake_table.nonces().to_vec(),
            reputation,
        });
        if dropped > 0 {
            self.metrics.checkpoint_digest_mismatches += dropped;
            self.obs.add_counter("checkpoint.digest_mismatch", dropped);
        }
    }

    /// Signs and broadcasts the shares the certifier queued during this
    /// dispatch.
    fn flush_checkpoint_shares(&mut self, ctx: &mut Context<'_, ProtocolMsg>) {
        loop {
            let c = self.committee.checkpoint();
            let Some((share, step)) = self.certifier.announce(self.index, &self.key, &c) else {
                return;
            };
            self.metrics.checkpoint_shares_sent += 1;
            self.obs.add_counter("checkpoint.shares_sent", 1);
            let msg = ProtocolMsg::CheckpointShare(Box::new(share));
            self.broadcast_governors(ctx, "checkpoint-share", 112, msg);
            self.checkpoint_step(step);
        }
    }

    /// A peer's checkpoint share arrived.
    fn on_checkpoint_share(&mut self, share: CheckpointShare) {
        if self.cfg.checkpoint_interval > 0 {
            let step = self.certifier.on_share(share, &self.committee.checkpoint());
            self.checkpoint_step(step);
        }
    }

    /// Counts what a share did; a cert it formed is saved to the store.
    fn checkpoint_step(&mut self, step: ShareStep) {
        match step {
            ShareStep::Mismatch => {
                self.metrics.checkpoint_digest_mismatches += 1;
                self.obs.add_counter("checkpoint.digest_mismatch", 1);
            }
            ShareStep::Formed => {
                self.metrics.checkpoint_certs_formed += 1;
                self.obs.add_counter("checkpoint.cert_formed", 1);
                if let (Some(store), Some(cert)) = (&mut self.store, self.certifier.latest()) {
                    store
                        .save_cert(cert)
                        .expect("durable store must persist the checkpoint cert");
                }
            }
            ShareStep::Ignored | ShareStep::Buffered => {}
        }
    }

    /// A sync peer offered a checkpoint certificate. Adopting one the
    /// certifier holds re-anchors the chain at the certified head, restores
    /// the certified stake/reputation state, resets the durable store, and
    /// drops the screened entries waiting for a block and the Δ windows
    /// still open: the anchored chain can no longer tell which of their
    /// transactions the certified prefix holds, and the rest of the
    /// committee screened the same uploads.
    fn maybe_adopt_checkpoint(&mut self, cert: CheckpointCert) {
        let c = self.committee.checkpoint();
        let cert = match self.certifier.offer(cert, self.chain.height(), &c) {
            Ok(cert) => cert,
            Err(rejected) => {
                use {CertError as E, OfferRejected::*};
                let key = match rejected {
                    Stale => "checkpoint.rejected.stale",
                    Invalid(E::UnderQuorum { .. }) => "checkpoint.rejected.under_quorum",
                    Invalid(E::BadSignature { .. }) => "checkpoint.rejected.bad_signature",
                    Invalid(_) => "checkpoint.rejected.malformed_state",
                };
                self.metrics.checkpoints_rejected += 1;
                return self.obs.add_counter(key, 1);
            }
        };
        let serial = cert.state.serial;
        self.chain = Chain::from_checkpoint(serial, cert.state.block_hash, self.cfg.b_limit);
        adopt_cert_state(cert, &mut self.stake_table, &mut self.reputation);
        self.fork.anchored(serial);
        if let Some(store) = &mut self.store {
            store
                .reset_to_checkpoint(cert)
                .expect("durable store must follow a checkpoint adoption");
        }
        self.ready_entries.clear();
        self.argued_entries.clear();
        self.txs.drop_windows();
        self.metrics.checkpoints_adopted += 1;
        self.metrics.adopted_serial = serial;
        self.metrics.pages_after_adopt = 0;
        self.obs.add_counter("checkpoint.adopted", 1);
        self.obs.observe("checkpoint.adopted_serial", serial);
    }

    // ── Dynamic membership (E17) ─────────────────────────────────────

    /// This governor's committee view: keys, standing, membership certs
    /// and convictions.
    pub fn committee(&self) -> &CommitteeView {
        &self.committee
    }

    /// A membership request arrived (peer relay, driver-injected, or this
    /// governor's own eviction proposal): the committee view endorses it,
    /// and a new share is broadcast so the committee can assemble a cert.
    fn on_membership(&mut self, req: MembershipRequest, ctx: &mut Context<'_, ProtocolMsg>) {
        if !self.cfg.churn_enabled() {
            return;
        }
        let (share, formed) = self
            .committee
            .on_request(req, self.round, self.index, &self.key);
        if let Some(share) = share {
            self.obs.add_counter("member.share_signed", 1);
            let msg = ProtocolMsg::MemberShare(Box::new(share));
            self.broadcast_governors(ctx, "member-share", 112, msg);
        }
        self.member_step(formed);
    }

    /// Counts a membership cert that a request or share formed, and
    /// persists the log.
    fn member_step(&mut self, formed: bool) {
        if !formed {
            return;
        }
        self.metrics.member_certs_formed += 1;
        self.obs.add_counter("member.cert_formed", 1);
        if let Some(store) = &mut self.store {
            store
                .save_members(self.committee.certs())
                .expect("durable store must persist the membership log");
        }
    }

    /// Acts on one transition the committee view applied, at tick `now`
    /// (`0` when replaying the persisted log on reopening).
    fn on_transition(&mut self, t: Transition, now: u64) {
        let peer = match t {
            Transition::Joined(MemberRole::Collector, c) => {
                // Newcomers start from the configured prior, not any
                // stale pre-departure score.
                self.reputation
                    .bootstrap_collector(c as usize, self.cfg.bootstrap_rep);
                self.health.watch(c as usize, SimTime(now));
                None
            }
            Transition::Left(MemberRole::Collector, c) => {
                self.health.unwatch(c as usize);
                Some(self.topology.params().providers as usize + c as usize)
            }
            Transition::Left(MemberRole::Governor, g) => {
                self.claims.retain(|c| c.governor != g);
                self.transitive.purge_reporter(g);
                Some(self.governor_base + g as usize)
            }
            Transition::Joined(MemberRole::Governor, _) | Transition::Unchanged => None,
        };
        if let (Some(peer), Some(r)) = (peer, &mut self.retry) {
            r.purge_peer(peer);
        }
        self.metrics.member_applied += 1;
        self.obs.add_counter("member.applied", 1);
    }

    /// First-hand opinion of each collector: the mean of its screening
    /// weights, clamped to `[0, 1]`.
    fn first_hand_opinions(&self) -> Vec<f64> {
        (0..self.reputation.collector_count())
            .map(|c| {
                let w = self.reputation.collector(c).weights();
                let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
                mean.clamp(0.0, 1.0)
            })
            .collect()
    }

    /// Folds a peer's advisory reputation gossip into the transitive
    /// view, weighted by that reporter's earned trust (EigenTrust-style;
    /// never touches consensus state).
    fn on_rep_gossip(&mut self, reporter: u32, scores: Vec<u64>) {
        if !self.cfg.churn_enabled()
            || reporter == self.index
            || reporter as usize >= self.cfg.governors as usize
            || self.committee.is_excluded(reporter)
        {
            return;
        }
        let claim: Vec<f64> = scores.iter().map(|b| f64::from_bits(*b)).collect();
        let local = self.first_hand_opinions();
        let merged = self.transitive.merge_claim(reporter, &claim, &local);
        let key = if merged {
            "member.gossip_merged"
        } else {
            "member.gossip_rejected"
        };
        self.obs.add_counter(key, 1);
    }

    /// Round-boundary churn maintenance, the local half: decays the
    /// screening weights of collectors silent for at least a full round
    /// and returns those sunk to the eviction floor. Runs on every
    /// profile (silent byzantine governors included) so the honest
    /// committee's reputation tables stay in lockstep.
    fn churn_decay(&mut self, now: u64) -> Vec<u32> {
        let Some(factor) = self.cfg.decay_factor() else {
            return Vec::new();
        };
        let threshold = SimDuration(self.cfg.round_ticks());
        // A peer watched since genesis has had no chance to speak before
        // the first round boundary — the first meaningful silence check
        // is at the start of round 2, after one full round of uploads.
        if threshold.0 == 0 || now < 2 * threshold.0 {
            return Vec::new();
        }
        if now.saturating_sub(self.last_upload_at) >= threshold.0 {
            // The whole committee went quiet for the window (drain or
            // settle rounds): no discriminating silence signal.
            return Vec::new();
        }
        let mut candidates = Vec::new();
        for c in self.health.suspects(SimTime(now), threshold) {
            if !self.committee.is_collector_active(c as u32) {
                continue;
            }
            self.reputation.decay_collector(c, factor);
            self.metrics.decay_events += 1;
            self.obs.add_counter("member.decay", 1);
            let w = self.reputation.collector(c).weights();
            let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
            let floor = self.cfg.reputation.weight_floor.max(EVICTION_FLOOR);
            if mean <= floor && !self.committee.eviction_proposed(c as u32) {
                candidates.push(c as u32);
            }
        }
        candidates
    }

    /// The speaking half of churn maintenance: gossip this governor's
    /// first-hand view and propose evicting collectors that decayed to
    /// the floor. Silent and departed governors never reach this.
    fn churn_speak(
        &mut self,
        candidates: Vec<u32>,
        round: u64,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        if !self.cfg.churn_enabled() {
            return;
        }
        let scores: Vec<u64> = self
            .first_hand_opinions()
            .iter()
            .map(|w| w.to_bits())
            .collect();
        let size = 16 + 8 * scores.len();
        self.broadcast_governors(
            ctx,
            "rep-gossip",
            size,
            ProtocolMsg::RepGossip {
                reporter: self.index,
                scores,
            },
        );
        for member in candidates {
            let req = self.committee.propose_eviction(member, round + 2);
            self.metrics.evictions_proposed += 1;
            self.obs.add_counter("member.evict_proposed", 1);
            let msg = ProtocolMsg::Membership(Box::new(req.clone()));
            self.broadcast_governors(ctx, "membership", 64, msg);
            self.on_membership(req, ctx);
        }
    }

    /// The advisory transitive-reputation view.
    pub fn transitive_view(&self) -> &TransitiveView {
        &self.transitive
    }

    /// The verification key for provider `p` ([`resolve_pk`]).
    fn provider_pk(&self, p: u32) -> Option<&PublicKey> {
        resolve_pk(&self.provider_pks, &self.pk_pool, &self.topology, p)
    }

    /// The per-transaction table, for tests that look inside its slots.
    #[cfg(test)]
    pub(crate) fn tx_table(&self) -> &TxTable {
        &self.txs
    }

    /// `(pending now, pending high-water, shed count)` for the pending
    /// pool — the E15 bounded-memory and reconciliation asserts.
    pub fn pending_stats(&self) -> (usize, usize, u64) {
        self.txs.window_stats()
    }

    /// `(in-flight now, high-water, dropped)` for the block-dissemination
    /// retry queue (zeros when reliable delivery is off).
    pub fn retry_queue_stats(&self) -> (usize, usize, u64) {
        match &self.retry {
            Some(r) => (r.in_flight(), r.high_water(), r.stats().dropped),
            None => (0, 0, 0),
        }
    }

    /// Routes an ack for a tracked send.
    pub fn on_ack(&mut self, token: u64) {
        if let Some(r) = &mut self.retry {
            r.on_ack(token);
        }
    }

    /// Whether the governor is mid-recovery (diagnostics).
    pub fn is_recovering(&self) -> bool {
        self.recovery.is_recovering()
    }

    fn net_idx(&self) -> u64 {
        (self.governor_base + self.index as usize) as u64
    }

    /// The governor's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The governor's local copy of the ledger.
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The governor's reputation table.
    pub fn reputation(&self) -> &ReputationTable {
        &self.reputation
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &GovernorMetrics {
        &self.metrics
    }

    /// The leader this governor elected for the current round.
    pub fn current_leader(&self) -> Option<u32> {
        self.leader
    }

    /// The governor's view of the stake distribution.
    pub fn stake_table(&self) -> &StakeTable {
        &self.stake_table
    }

    /// Governors this node has expelled, sorted by index.
    pub fn expelled(&self) -> &[u32] {
        self.committee.convicted()
    }

    /// Transaction ids currently buffered for inclusion (diagnostics).
    pub fn ready_tx_ids(&self) -> Vec<TxId> {
        self.ready_entries.iter().map(|e| e.tx.id()).collect()
    }

    /// Number of screened transactions buffered for inclusion.
    pub fn ready_len(&self) -> usize {
        self.ready_entries.len()
    }

    /// Number of transactions still inside their Δ window (diagnostics).
    pub fn pending_count(&self) -> usize {
        self.txs.open_windows()
    }

    /// Broadcasts `msg` to every peer governor — through the retry
    /// envelope when reliable delivery is on. Election claims and block
    /// proposals are both critical hops: a lost claim makes the round's
    /// election run under-informed (risking a head fork), and a lost
    /// proposal forks the peer until it syncs.
    fn broadcast_governors(
        &mut self,
        ctx: &mut Context<'_, ProtocolMsg>,
        kind: &'static str,
        size: usize,
        msg: ProtocolMsg,
    ) {
        // Move the original into the last real send instead of cloning
        // for every peer and dropping the original — one clone saved per
        // broadcast, which at scale is one per election claim / proposal.
        let m = self.cfg.governors as usize;
        let last = (0..m)
            .rev()
            .find(|g| self.governor_base + g != ctx.self_idx());
        let mut msg = Some(msg);
        for g in 0..m {
            if self.governor_base + g == ctx.self_idx() {
                continue;
            }
            let payload = if Some(g) == last {
                msg.take().expect("taken only on the last peer")
            } else {
                msg.as_ref().expect("present until the last peer").clone()
            };
            self.send_governor(ctx, g, kind, size, payload);
        }
    }

    /// Sends `msg` to governor `g` alone (no-op for this node itself) —
    /// through the retry envelope when reliable delivery is on. The
    /// equivocating byzantine path needs per-peer sends: it feeds each
    /// committee half a different block.
    fn send_governor(
        &mut self,
        ctx: &mut Context<'_, ProtocolMsg>,
        g: usize,
        kind: &'static str,
        size: usize,
        msg: ProtocolMsg,
    ) {
        let peer = self.governor_base + g;
        if peer == ctx.self_idx() {
            return;
        }
        match &mut self.retry {
            Some(r) => {
                r.send_with(ctx, peer, kind, size + 8, |token| ProtocolMsg::Reliable {
                    token,
                    inner: Box::new(msg),
                });
            }
            None => ctx.send_sized(peer, kind, size, msg),
        }
    }

    /// Handles a delivered message.
    pub fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
        match env.payload {
            ProtocolMsg::StartRound { round } => self.on_start_round(round, ctx),
            ProtocolMsg::Election { round, claim }
                if round == self.round
                // Claims travel through the retry envelope, so a slow ack
                // can deliver the same claim twice — dedupe by claimant
                // before counting toward the full-set threshold. Expelled
                // governors are out of the committee entirely.
                && !self.committee.is_excluded(claim.governor)
                && !self.claims.iter().any(|c| c.governor == claim.governor) =>
            {
                self.claims.push(claim);
                let live = self.cfg.governors as usize - self.committee.excluded().len();
                if self.claims.len() == live {
                    self.run_election(ctx.now().ticks());
                }
            }
            // A batch is sequenced under the number it signs; one that
            // claims another could only replay or reorder the channel.
            ProtocolMsg::TxUpload { seq, batch } if seq == batch.seq => {
                let channel = ChannelId(batch.collector.index as u64);
                // The released batches borrow the inbox; the handler needs
                // the whole node.
                let mut inbox = std::mem::take(&mut self.inbox);
                for batch in inbox.push(channel, seq, batch) {
                    self.on_batch(&batch, ctx);
                }
                self.inbox = inbox;
            }
            ProtocolMsg::ProposeBlock { round } => self.on_propose(round, ctx),
            ProtocolMsg::BlockProposal {
                block,
                claim,
                header,
            } => {
                if let Some(header) = &header {
                    self.note_header((**header).clone(), ctx);
                }
                // Equivocation is convicted per round, so the signed round
                // must be one the proposer can have led: a twin signed for
                // another round would otherwise split the committee with no
                // conflict to convict.
                let e = Electorate(&self.stake_table, self.committee.governor_pks());
                let admitted = header
                    .as_ref()
                    .is_none_or(|h| self.fork.admits(h, claim.as_deref(), &e));
                if !admitted {
                    self.obs.add_counter("byzantine.off_round_proposals", 1);
                } else {
                    self.on_block(block, claim.as_deref(), header.as_deref(), ctx);
                }
            }
            ProtocolMsg::HeaderEcho { header } => self.note_header(*header, ctx),
            ProtocolMsg::Evidence { evidence } => self.on_evidence(*evidence, ctx),
            ProtocolMsg::SyncRequest { have } => self.on_sync_request(have, env.from, ctx),
            ProtocolMsg::SyncResponse { blocks, head, cert } => {
                self.on_sync_response(blocks, head, cert, env.from, ctx);
            }
            ProtocolMsg::CheckpointShare(share) => self.on_checkpoint_share(*share),
            ProtocolMsg::Membership(req) => self.on_membership(*req, ctx),
            ProtocolMsg::MemberShare(share) if self.cfg.churn_enabled() => {
                let formed = self.committee.on_share(*share);
                self.member_step(formed);
            }
            ProtocolMsg::RepGossip { reporter, scores } => self.on_rep_gossip(reporter, scores),
            ProtocolMsg::Argue { tx, .. } => self.on_argue(tx, ctx),
            ProtocolMsg::StakeTransfer(transfer) => self.on_stake_transfer(transfer, ctx),
            ProtocolMsg::Reveal { tx, valid } => self.on_reveal(tx, valid, ctx.now().ticks()),
            _ => {}
        }
        // Any dispatch may have committed a checkpoint-interval boundary
        // (own proposal, adopted proposal, or a sync page crossing one);
        // announce the queued shares exactly once, after the handler.
        self.flush_checkpoint_shares(ctx);
    }

    /// Handles a timer: retransmission, sync rotation, or Δ aggregation.
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, ProtocolMsg>) {
        if let Some(r) = &mut self.retry {
            if r.on_timer(timer, ctx) {
                return;
            }
        }
        if let Some(step) = self.recovery.on_timer(timer, self.chain.height()) {
            return self.sync_step(step, ctx);
        }
        if self.txs.take_timer(timer) {
            self.screen_due(ctx.now().ticks(), ctx);
        }
    }

    /// Screens every window due at or before `tick`, in the order they
    /// opened.
    fn screen_due(&mut self, tick: u64, ctx: &mut Context<'_, ProtocolMsg>) {
        while let Some((seq, window)) = self.txs.pop_due(tick) {
            self.screen_tx(seq, window, ctx);
        }
    }

    fn on_start_round(&mut self, round: u64, ctx: &mut Context<'_, ProtocolMsg>) {
        // A window whose Δ timer fell due while this node was down never
        // heard it: screen it now, as the timer would have (ROADMAP item
        // 4(c)). Windows due on this very tick wait for their timer.
        self.screen_due(ctx.now().ticks().saturating_sub(1), ctx);
        // A round-number gap is crash evidence: StartRound commands
        // arrive every round, so skipping one means this node was deaf
        // for at least a full round and may have missed blocks.
        if round > self.round + 1 {
            self.start_recovery(None, ctx);
        }
        self.round = round;
        self.claims.clear();
        self.fork.start_round(round);
        self.leader = None;
        let now = ctx.now().ticks();
        for t in self.committee.apply_due(round) {
            self.on_transition(t, now);
        }
        if self.committee.epochs().is_departed_now(self.index) {
            // This governor's own certified departure took effect: stay
            // dark — no claim, no gossip — while still following
            // committed blocks so a readmission resumes from a warm
            // chain.
            return;
        }
        let evict_candidates = self.churn_decay(now);
        if self.obs.is_enabled() {
            self.obs
                .observe("depth.gov_pending", self.txs.open_windows() as u64);
            self.obs
                .observe("depth.gov_ready", self.ready_entries.len() as u64);
            self.obs
                .observe("depth.gov_argued", self.argued_entries.len() as u64);
            self.obs
                .set_gauge("depth.gov_pending", self.txs.open_windows() as f64);
            self.obs
                .set_gauge("depth.gov_ready", self.ready_entries.len() as f64);
            self.obs
                .set_gauge("depth.gov_argued", self.argued_entries.len() as f64);
        }
        self.election_span = Some(Span::begin(phases::ELECTION, now));
        self.proposal_span = Some(Span::begin(phases::PROPOSAL, now));
        self.commit_span = Some(Span::begin(phases::COMMIT, now));
        if self.profile.mode_in(round) == ByzantineMode::Silent {
            // A silent governor makes no claim and will never propose; to
            // its peers the round looks exactly like a crash.
            self.metrics.silent_rounds += 1;
            return;
        }
        self.churn_speak(evict_candidates, round, ctx);
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let claim = ElectionClaim::compute(
            b"prb-chain",
            round,
            self.index,
            self.stake_table.stake(self.index).unwrap_or(0),
            &self.key,
        );
        if let Some(t0) = t0 {
            self.obs
                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
        }
        self.fork.my_claim = claim.clone();
        if let Some(claim) = claim {
            self.claims.push(claim.clone());
            self.broadcast_governors(
                ctx,
                "election-claim",
                96,
                ProtocolMsg::Election { round, claim },
            );
        }
    }

    fn run_election(&mut self, now: u64) {
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let tally = elect_excluding(
            b"prb-chain",
            self.round,
            &self.claims,
            self.stake_table.stakes(),
            self.committee.governor_pks(),
            self.committee.excluded(),
            self.fork.my_claim.as_ref(),
        );
        let winner = tally.winner.map(|(i, output)| (&self.claims[i], output));
        self.fork.remember_election(winner);
        if let Some(t0) = t0 {
            self.obs
                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
        }
        self.leader = winner.map(|(claim, _)| claim.governor);
        if let Some(leader) = self.leader {
            self.obs.emit(
                now,
                self.net_idx(),
                ObsEvent::ElectionDecided {
                    leader: leader as u64,
                    claims: self.claims.len() as u64,
                },
            );
        }
        if let Some(span) = self.election_span.take() {
            self.obs.end_span(span, now, self.net_idx());
        }
    }

    /// One collector batch, released in channel order: the collector's
    /// part is checked once for the whole batch, then every entry is filed
    /// as its own copy.
    fn on_batch(&mut self, batch: &UploadBatch, ctx: &mut Context<'_, ProtocolMsg>) {
        let collector = batch.collector.index;
        // Unknown collector identity: drop silently (cannot attribute).
        let Some(collector_pk) = self.committee.collector_pks().get(collector as usize) else {
            return;
        };
        if !batch.verify(collector_pk) {
            return; // not actually from that collector
        }
        if !self.committee.is_collector_active(collector) {
            return; // certified departure: out of the screening set
        }
        let now = ctx.now().ticks();
        self.health.record_seen(collector as usize, ctx.now());
        self.last_upload_at = now;
        if self.obs.is_enabled() {
            let metrics = self.obs.metrics();
            metrics.inc("gov.upload.batches");
            metrics.observe("gov.upload.batch_size", batch.entries.len() as u64);
        }
        for entry in &batch.entries {
            self.file_copy(collector, entry, now, ctx);
        }
    }

    /// Files one `(tx, label)` of a verified batch from `collector`.
    fn file_copy(
        &mut self,
        collector: u32,
        entry: &(SignedTx, Label),
        now: u64,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        let (tx, label) = entry;
        // The paper's verify(c, Tx): the provider must be linked with the
        // collector, and the inner provider signature must be genuine. The
        // structural half is checked here; the signature check is deferred
        // to the Δ-window drain so a round's copies verify as one batch —
        // unless the memo already knows this copy's verdict.
        let provider = tx.payload.provider.index;
        let structural_ok = tx.payload.provider.role == prb_crypto::identity::Role::Provider
            && self.provider_pk(provider).is_some()
            && self.topology.linked(provider, collector);
        if !structural_ok {
            // Case 1: a mis-attributed transaction.
            self.record_forgery(collector, now);
            return;
        }
        let id = tx.id();
        let delta = self.cfg.aggregation_window();
        let (step, verdict) = self.txs.upload(collector, entry, now, now + delta);
        if verdict.is_some() {
            self.count_sig_answered();
        }
        match step {
            Upload::Forged => {
                // Case 1: a known-forged provider signature.
                self.record_forgery(collector, now);
            }
            Upload::Joined | Upload::Known => {}
            Upload::Repeat => {
                // Duplicate copy from a reporter already in the window: no
                // report rides on it, so nothing joins the batch — but a
                // forged-signature probe is still case 1, checked eagerly.
                if verdict.is_none() && !self.verify_provider_sig(provider, tx) {
                    self.record_forgery(collector, now);
                }
            }
            Upload::Late => {
                // Late report (after screening): no batch is pending for
                // it, so resolve the signature now (the slot almost always
                // answers — screening verified this signature already).
                if verdict.is_none() && !self.verify_provider_sig(provider, tx) {
                    self.record_forgery(collector, now);
                    return;
                }
                match self.txs.late_report(&id, collector, *label) {
                    Outcome::Checked { valid } => {
                        let correct = label.is_valid() == valid;
                        self.reputation
                            .record_checked(&[(collector as usize, correct)]);
                    }
                    Outcome::Unchecked { .. } => {} // counted at reveal
                }
            }
            Upload::Opened => {
                // First copy: the Δ window is open (starttime(tx, Δ)).
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::TxAdmitted { trace: id.trace() },
                );
                self.txs
                    .arm(now + delta, || ctx.set_timer(SimDuration(delta)));
                // Bounded pool: past capacity, shed the oldest still-open
                // window deterministically. It later falls due as a no-op
                // (`pop_due` skips a window that is no longer open).
                while let Some(oldest) = self.txs.shed_oldest(self.cfg.pending_capacity) {
                    if self.obs.is_enabled() {
                        self.obs.metrics().inc("gov.pending.shed");
                    }
                    self.obs.emit(
                        now,
                        self.net_idx(),
                        ObsEvent::TxDropped {
                            trace: oldest.trace(),
                            reason: "shed",
                        },
                    );
                }
            }
        }
    }

    /// Records a case-1 forgery against `collector`.
    fn record_forgery(&mut self, collector: u32, now: u64) {
        self.reputation.record_forgery(collector as usize);
        self.metrics.forged_detected += 1;
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::ForgeryDetected {
                collector: collector as u64,
            },
        );
    }

    /// Counts a provider-signature check answered without verifying.
    fn count_sig_answered(&mut self) {
        self.metrics.sig_memo_hits += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("gov.sig_memo_hit");
        }
    }

    /// Drains the queued provider signatures through the pool as one
    /// batch, delivering the verdicts to their windows — `held` is the
    /// one being screened, with its number, already out of the Δ queue.
    fn drain_verify_queue(&mut self, held: (u64, &mut Window)) {
        let mut queue = std::mem::take(self.txs.batch());
        self.verify_batch(&mut queue, Some(held));
        // Hand the drained buffer back, capacity and all.
        *self.txs.batch() = queue;
    }

    /// Verifies `sigs` as one pooled batch and drains the verdicts: a
    /// genuine one to the window it was queued for (`held`, or one still
    /// in the Δ queue), the others — forged, or with no window left — to
    /// the signature memo. Every provider key must resolve.
    fn verify_batch(&mut self, sigs: &mut Vec<QueuedSig>, mut held: Option<(u64, &mut Window)>) {
        if sigs.is_empty() {
            return;
        }
        let n = sigs.len() as u64;
        self.metrics.sig_memo_misses += n;
        self.obs.observe("crypto.batch.size", n);
        self.obs.add_counter("gov.sig_memo_miss", n);
        let items: Vec<(&[u8], &Sig, &PublicKey)> = sigs
            .iter()
            .map(|(p, _, sig, msg, _)| {
                let pk = self.provider_pk(*p).expect("resolved before queueing");
                (&msg[..], sig, pk)
            })
            .collect();
        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
        let verdicts = self.verify_pool.verify_sigs(&items);
        if let Some(t0) = t0 {
            self.obs
                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
        }
        for ((p, id, sig, _, seq), ok) in sigs.drain(..).zip(verdicts) {
            let held = held.as_mut().map(|(n, window)| (*n, &mut **window));
            self.txs.record(seq, (p, id, sig), ok, held);
        }
    }

    fn screen_tx(&mut self, seq: u64, mut window: Window, ctx: &mut Context<'_, ProtocolMsg>) {
        // Settle every provider signature queued during the Δ window in
        // one pooled batch, then attribute forgeries per reporting copy.
        self.drain_verify_queue((seq, &mut window));
        let (now, me, id, at) = (ctx.now().ticks(), self.net_idx(), window.id, window.slot);
        let provider = self.txs.slot_at(at).provider();
        let pk = resolve_pk(&self.provider_pks, &self.pk_pool, &self.topology, provider);
        let (opened_at, forged) = self.txs.settle(window, pk);
        // Case 1, attributed at screen time: these reporters' copies
        // carried a forged provider signature.
        for collector in forged {
            self.record_forgery(collector, now);
        }
        let slot = self.txs.slot_at_mut(at);
        if slot.report_count() == 0 {
            // Every copy was forged: nothing to screen (and no screening
            // randomness is consumed, matching the eager-verification
            // behaviour where such a window never opened).
            self.txs.remove(at);
            self.obs.emit(
                now,
                me,
                ObsEvent::TxDropped {
                    trace: id.trace(),
                    reason: "forged",
                },
            );
            return;
        }
        self.screen_reports.clear();
        self.screen_reports.extend(slot.reports().map(|(c, label)| {
            let at = self
                .topology
                .provider_slot(c, provider)
                .expect("reporter is linked");
            Report {
                collector: c,
                labeled_valid: label.is_valid(),
                weight: self.reputation.weight(c as usize, at),
            }
        }));
        let outcome = screen(&self.screen_reports, self.cfg.reputation.f, ctx.rng())
            .expect("at least one report exists");
        let check = match self.cfg.governor_mode {
            GovernorMode::Reputation => outcome.check,
            GovernorMode::CheckAll => true,
            GovernorMode::CheckNone => false,
        };
        let drawn = self.screen_reports[outcome.drawn];
        let drawn_label = if drawn.labeled_valid {
            Label::Valid
        } else {
            Label::Invalid
        };
        self.metrics.screened += 1;
        self.obs.emit(
            now,
            me,
            ObsEvent::TxScreened {
                trace: id.trace(),
                drawn: drawn.collector as u64,
                checked: check,
                label_valid: drawn_label.is_valid(),
            },
        );
        self.obs
            .end_span(Span::begin(phases::SCREENING, opened_at), now, me);
        let absent: Vec<u32> = self
            .topology
            .collectors_of(provider)
            .iter()
            .copied()
            .filter(|&c| !self.committee.is_collector_active(c))
            .collect();

        let outcome = if check {
            let valid = self.oracle.borrow().validate(id);
            self.metrics.validations += 1;
            self.metrics.checked += 1;
            self.obs.emit(
                now,
                me,
                ObsEvent::TxValidated {
                    trace: id.trace(),
                    valid,
                },
            );
            if !valid {
                self.obs.emit(
                    now,
                    me,
                    ObsEvent::TxDropped {
                        trace: id.trace(),
                        reason: "invalid",
                    },
                );
            }
            // Case 2: every reporter's misreport counter moves.
            for (c, label) in slot.reports() {
                self.reputation
                    .record_checked(&[(c as usize, label.is_valid() == valid)]);
            }
            if valid {
                self.ready_entries.push(BlockEntry {
                    tx: slot.tx.clone(),
                    verdict: Verdict::CheckedValid,
                    reported_labels: label_pairs(slot),
                });
            }
            Outcome::Checked { valid }
        } else {
            let counter = self.unchecked_counter.entry(provider).or_insert(0);
            let index = *counter;
            *counter += 1;
            self.metrics.unchecked += 1;
            let verdict = if drawn_label.is_valid() {
                Verdict::UncheckedValid
            } else {
                Verdict::UncheckedInvalid
            };
            self.ready_entries.push(BlockEntry {
                tx: slot.tx.clone(),
                verdict,
                reported_labels: label_pairs(slot),
            });
            Outcome::Unchecked {
                recorded: drawn_label,
                index,
                revealed: false,
            }
        };
        slot.screen(outcome, now, absent);
    }

    fn on_propose(&mut self, round: u64, ctx: &mut Context<'_, ProtocolMsg>) {
        let (now, me) = (ctx.now().ticks(), self.net_idx());
        // A leader already chosen means the election ran over the full
        // claim set; electing from a partial set below may miss the true
        // winner, so a block proposed that way stays provisional.
        let informed = self.leader.is_some();
        if self.leader.is_none() {
            // Missing claims (crashed governors): elect from what arrived.
            self.run_election(now);
        }
        if self.leader != Some(self.index) {
            return;
        }
        if self.fork.withholds() {
            self.metrics.proposals_withheld += 1;
            return;
        }
        let mode = self.profile.mode_in(round);
        // Argued re-records first, then fresh screenings, capped by b_limit.
        // Never re-record something already in the ledger (argue re-records
        // enter via argued_entries only).
        let b_limit = self.cfg.b_limit;
        let argued = self.argued_entries.len().min(b_limit);
        let mut entries: Vec<BlockEntry> = self.argued_entries.drain(..argued).collect();
        let mut ready = std::mem::take(&mut self.ready_entries);
        ready.sort_by_key(|e| e.tx.id());
        ready.retain(|e| self.chain.find_tx(e.tx.id()).is_none());
        entries.extend(ready.drain(..(b_limit - entries.len()).min(ready.len())));
        self.ready_entries = ready;

        if mode == ByzantineMode::Censor {
            // Drop every second entry of the deterministic assembly order:
            // selective censorship with plausible deniability — the block
            // stays well-formed, so this is tolerated, not detected.
            let mut nth = 0usize;
            let mut censored: Vec<u64> = Vec::new();
            entries.retain(|e| {
                nth += 1;
                let keep = nth % 2 == 1;
                if !keep {
                    censored.push(e.tx.id().trace());
                }
                keep
            });
            self.metrics.censored_txs += censored.len() as u64;
            self.obs
                .add_counter("byzantine.censored_txs", censored.len() as u64);
            for trace in censored {
                let reason = "censored";
                self.obs
                    .emit(now, me, ObsEvent::TxDropped { trace, reason });
            }
        }
        if mode == ByzantineMode::InvalidProposal {
            // A structurally plausible block entry whose "provider"
            // signature was actually made with the governor's own key,
            // mislabeled CheckedValid. Paranoid receivers reject the whole
            // block and attribute it to the proposer.
            let payload = TxPayload {
                provider: NodeId::provider(0),
                nonce: u64::MAX - round,
                data: vec![0xBD],
            };
            entries.push(BlockEntry {
                tx: SignedTx::create(payload, now, &self.key),
                verdict: Verdict::CheckedValid,
                reported_labels: Vec::new(),
            });
            self.metrics.invalid_proposals_sent += 1;
            self.obs.add_counter("byzantine.invalid_proposals_sent", 1);
        }

        let (serial, head) = (self.chain.next_serial(), self.chain.head_hash());
        let block = Block::build(serial, entries, head, NodeId::governor(self.index), now);
        let entries = block.entries.len() as u64;
        self.obs
            .emit(now, me, ObsEvent::BlockProposed { serial, entries });
        if self.obs.is_enabled() {
            for e in &block.entries {
                let trace = e.tx.id().trace();
                self.obs
                    .emit(now, me, ObsEvent::TxProposed { trace, serial });
            }
        }
        if let Some(span) = self.proposal_span.take() {
            self.obs.end_span(span, now, me);
        }
        self.pay_collectors(&block);
        self.adopt(block.clone(), Adoption::Own { informed }, None, now);
        self.metrics.rounds_led += 1;
        let claim = self.fork.my_claim.clone().map(Box::new);
        let size = 64 + 96 * block.tx_count() + claim.as_ref().map_or(0, |_| 96) + 72;
        let header = SignedHeader::create(self.index, round, serial, block.hash(), &self.key);
        let proposal = |block: &Block, header: &SignedHeader| ProtocolMsg::BlockProposal {
            block: block.clone(),
            claim: claim.clone(),
            header: Some(Box::new(header.clone())),
        };
        if mode == ByzantineMode::Equivocate {
            // Double-sign a twin block differing only by timestamp and
            // split the committee: even-indexed peers get the original,
            // odd-indexed the twin. Neither half sees both blocks
            // directly — only the header echoes expose the conflict.
            let twin = Block::build(
                serial,
                block.entries.clone(),
                block.prev_hash,
                block.leader,
                block.timestamp + 1,
            );
            let twin_header =
                SignedHeader::create(self.index, round, serial, twin.hash(), &self.key);
            self.metrics.equivocations_sent += 1;
            self.metrics.first_equivocation_round.get_or_insert(round);
            self.obs.add_counter("byzantine.equivocations_sent", 1);
            let (index, governors) = (self.index, self.cfg.governors);
            for g in (0..governors).filter(|&g| g != index) {
                let msg = if g % 2 == 0 {
                    proposal(&block, &header)
                } else {
                    proposal(&twin, &twin_header)
                };
                self.send_governor(ctx, g as usize, "block-proposal", size, msg);
            }
        } else {
            self.broadcast_governors(ctx, "block-proposal", size, proposal(&block, &header));
        }
    }

    fn pay_collectors(&mut self, block: &Block) {
        let valid = block
            .entries
            .iter()
            .filter(|e| e.verdict.counts_as_valid())
            .count();
        if valid == 0 {
            return;
        }
        let profit = valid as f64 * self.cfg.profit_per_tx;
        let logs = self.reputation.log_revenue_weights();
        for (c, share) in revenue::distribute(profit, &logs).into_iter().enumerate() {
            self.metrics.revenue_paid[c] += share;
        }
    }

    fn on_block(
        &mut self,
        block: Block,
        claim: Option<&ElectionClaim>,
        header: Option<&SignedHeader>,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        if block.leader == NodeId::governor(self.index) {
            return; // own proposal echoed back (should not happen)
        }
        if self.committee.is_convicted(block.leader.index) {
            // Blocks from a convicted governor are ignored outright; any
            // settled prefix it contributed before conviction stands.
            self.obs.add_counter("byzantine.blocks_ignored", 1);
            return;
        }
        let now = ctx.now().ticks();
        let e = Electorate(&self.stake_table, self.committee.governor_pks());
        match self.fork.classify(&self.chain, &block, claim, &e) {
            Arrival::Duplicate { shed } => {
                self.shed(shed);
                self.metrics.duplicate_blocks += 1;
            }
            Arrival::Refuse(fault) => {
                self.refuse(&block, &Adoption::Proposal(claim), header, Some(fault), now);
            }
            Arrival::Contest(key) => self.adopt(block, Adoption::Contest(key), header, now),
            Arrival::Extend => self.adopt(block, Adoption::Proposal(claim), header, now),
            Arrival::Park { shed } => {
                // We missed blocks (e.g. while crashed): recover them,
                // starting from the proposer.
                self.shed(shed);
                let proposer = block.leader.index;
                self.fork.park(block);
                self.start_recovery(Some(proposer), ctx);
            }
        }
    }

    /// Adopts `block` as the new head: the one way into the chain.
    ///
    /// A block from anywhere but this governor first passes the checks
    /// `append` makes on the block alone and, in paranoid mode, the entry
    /// check; a refusal is booked by where the block came from. A contest
    /// winner then displaces the head it beat. The commit is mirrored into
    /// metrics, trace, store and checkpoint, drops the local buffers the
    /// block covers, and fork choice ranks the new head.
    fn adopt(&mut self, block: Block, how: Adoption<'_>, header: Option<&SignedHeader>, now: u64) {
        if !matches!(how, Adoption::Own { .. }) {
            let fault = malformed(&self.chain, &block);
            if fault.is_some() || (self.cfg.verify_blocks && !self.entries_authentic(&block)) {
                return self.refuse(&block, &how, header, fault, now);
            }
        }
        if let Adoption::Contest(_) = how {
            self.pop_head_repool();
        }
        let serial = block.serial;
        if let Err(e) = self.chain.append(block) {
            self.metrics.append_failures += 1;
            if let Adoption::Page = how {
                self.count_sync_rejected(&e);
            }
            return;
        }
        self.metrics.blocks_appended += 1;
        let (me, head) = (self.net_idx(), self.chain.latest());
        let entries = head.entries.len() as u64;
        self.obs
            .emit(now, me, ObsEvent::BlockCommitted { serial, entries });
        if self.obs.is_enabled() {
            for e in &head.entries {
                let trace = e.tx.id().trace();
                self.obs
                    .emit(now, me, ObsEvent::TxCommitted { trace, serial });
            }
        }
        if let Some(span) = self.commit_span.take() {
            self.obs.end_span(span, now, me);
        }
        self.store_append_head();
        if self.cfg.checkpoint_interval > 0 && serial.is_multiple_of(self.cfg.checkpoint_interval) {
            self.capture_checkpoint(serial);
        }
        let head = self.chain.latest();
        if !self.ready_entries.is_empty() || !self.argued_entries.is_empty() {
            let included: FxSet<TxId> = head.entries.iter().map(|e| e.tx.id()).collect();
            self.ready_entries
                .retain(|e| !included.contains(&e.tx.id()));
            self.argued_entries
                .retain(|e| !included.contains(&e.tx.id()));
        }
        if let Adoption::Page = how {
            self.metrics.sync_applied += 1;
            self.obs.add_counter("sync.applied", 1);
        }
        let e = Electorate(&self.stake_table, self.committee.governor_pks());
        self.fork.adopted(head, how, &e);
    }

    /// Books a block [`Self::adopt`] refused for the structural `fault` or,
    /// when `None`, for forged entries. A sync page convicts nobody: any peer
    /// could have fabricated its leader field. A direct proposal's signed
    /// `header` convicts the proposer when it covers the fault, which a
    /// stale root it does not (see [`malformed`]).
    fn refuse(
        &mut self,
        block: &Block,
        how: &Adoption<'_>,
        header: Option<&SignedHeader>,
        fault: Option<ChainError>,
        now: u64,
    ) {
        self.metrics.append_failures += 1;
        if let Adoption::Page = how {
            if let Some(e) = &fault {
                self.count_sync_rejected(e);
            }
            return;
        }
        self.metrics.invalid_blocks_rejected += 1;
        self.obs.add_counter("byzantine.invalid_blocks_rejected", 1);
        let stale_root = matches!(fault, Some(ChainError::MerkleMismatch { .. }));
        if let Some(h) = header.filter(|_| !stale_root) {
            if h.proposer == block.leader.index
                && h.serial == block.serial
                && h.block_hash == block.hash()
                && h.verify(self.committee.governor_pks())
            {
                self.expel(h.proposer, now);
            }
        }
    }

    /// Surfaces which integrity check refused a sync-page block: a corrupt
    /// or byzantine page is visible in the metrics, never silently dropped.
    fn count_sync_rejected(&mut self, e: &ChainError) {
        *self.metrics.sync_rejected.entry(e.kind()).or_default() += 1;
        self.obs.add_counter("sync.rejected", 1);
    }

    /// Records a signed proposal header, echoes first sightings, and
    /// convicts on conflict. The header's own signature is the sole
    /// authority — echoes relayed by untrusted peers carry the proposer's
    /// signature verbatim, so relaying cannot frame anyone.
    fn note_header(&mut self, header: SignedHeader, ctx: &mut Context<'_, ProtocolMsg>) {
        let key = (header.proposer, header.round);
        // A header over the hash already recorded for its round was echoed
        // when that one was recorded, so it changes nothing: no need to
        // verify it.
        let first = self.seen_headers.get(&key).cloned();
        if first
            .as_ref()
            .is_some_and(|(first, _)| first.block_hash == header.block_hash)
            || header.proposer == self.index
            || self.committee.is_convicted(header.proposer)
            || !header.verify(self.committee.governor_pks())
        {
            return;
        }
        let now = ctx.now().ticks();
        // Re-gossip each distinct (proposer, serial, hash) exactly once,
        // so a split-sent conflicting pair reaches every honest governor
        // within one further delivery delay.
        if self
            .echoed
            .insert((header.proposer, header.serial, header.block_hash))
        {
            self.broadcast_governors(
                ctx,
                "header-echo",
                72,
                ProtocolMsg::HeaderEcho {
                    header: Box::new(header.clone()),
                },
            );
        }
        match first {
            None => {
                self.seen_headers.insert(key, (header, now));
            }
            Some((first, seen_at)) => {
                // Two conflicting signed commitments in one round:
                // assemble the self-verifying proof, tell everyone,
                // and expel locally.
                let serial = header.serial;
                let evidence = EquivocationEvidence::new(first, header);
                let Ok(culprit) = evidence.verify(self.committee.governor_pks()) else {
                    return; // defensive; both halves verified above
                };
                self.metrics.evidence_broadcast += 1;
                if self.obs.is_enabled() {
                    self.obs.metrics().inc("byzantine.equivocations_detected");
                    self.obs.metrics().inc("byzantine.evidence_broadcast");
                }
                self.broadcast_governors(
                    ctx,
                    "evidence",
                    160,
                    ProtocolMsg::Evidence {
                        evidence: Box::new(evidence),
                    },
                );
                self.obs.emit(
                    now,
                    self.net_idx(),
                    ObsEvent::EquivocationDetected {
                        culprit: culprit as u64,
                        serial,
                    },
                );
                self.obs
                    .end_span(Span::begin(phases::DETECTION, seen_at), now, self.net_idx());
                self.expel(culprit, now);
            }
        }
    }

    /// A peer forwarded equivocation evidence: verify both signatures
    /// (the accuser is not trusted) and expel the convicted governor.
    fn on_evidence(&mut self, evidence: EquivocationEvidence, ctx: &mut Context<'_, ProtocolMsg>) {
        let Ok(culprit) = evidence.verify(self.committee.governor_pks()) else {
            return;
        };
        self.metrics.evidence_received += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("byzantine.evidence_received");
        }
        self.expel(culprit, ctx.now().ticks());
    }

    /// Expels `culprit` from this node's committee view: slashes its
    /// stake (so it can never mint another election claim), discards its
    /// live claim, and shrinks the full-claim-set threshold. Idempotent —
    /// concurrent detectors all broadcast evidence, and a culprit
    /// receiving proof against itself expels itself the same way,
    /// keeping every stake table in agreement.
    fn expel(&mut self, culprit: u32, now: u64) {
        if !self.committee.convict(culprit) {
            return;
        }
        self.stake_table.slash(culprit);
        self.fork.stakes_moved();
        self.claims.retain(|c| c.governor != culprit);
        self.metrics.expulsions += 1;
        self.metrics.expulsion_round.insert(culprit, self.round);
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::GovernorExpelled {
                culprit: culprit as u64,
                round: self.round,
            },
        );
        if self.obs.is_enabled() {
            self.obs.metrics().inc("byzantine.expulsions");
        }
        // Drop the culprit's blocks still sitting at the contestable head:
        // with the proposer convicted of double-signing, neither twin can
        // be trusted, and an equivocation in the final round would
        // otherwise leave the committee split with no successor to force
        // the usual prev-mismatch rollback. Every honest node applies the
        // same rule on the same evidence, so the shed serial is re-proposed
        // by an honest leader and the prefixes reconverge. Settled blocks
        // (those with a successor) are never popped.
        let culprit_id = NodeId::governor(culprit);
        while self
            .chain
            .latest_opt()
            .is_some_and(|b| b.serial > 0 && b.leader == culprit_id)
        {
            self.pop_head_repool();
        }
    }

    /// Pops the head block, returning its displaced entries to the ready
    /// pool so a later led round re-records whatever the winning chain
    /// does not already cover (`on_propose` dedups against the ledger).
    fn pop_head_repool(&mut self) {
        let Some(block) = self.chain.pop() else {
            return;
        };
        if let Some(store) = &mut self.store {
            store
                .pop()
                .expect("durable store pop must mirror the chain");
        }
        self.metrics.head_rollbacks += 1;
        self.obs.add_counter("sync.rollback", 1);
        self.fork.popped(self.chain.height());
        for e in &block.entries {
            if self.chain.find_tx(e.tx.id()).is_none()
                && !self.ready_entries.iter().any(|r| r.tx.id() == e.tx.id())
            {
                self.ready_entries.push(e.clone());
            }
        }
    }

    /// Pops `depth` head blocks — a depth fork choice reported — re-pooling
    /// their entries.
    fn shed(&mut self, depth: u64) {
        for _ in 0..depth {
            self.pop_head_repool();
        }
    }

    /// Paranoid mode: every entry must carry a genuine provider signature
    /// from a provider linked with at least one reporting collector whose
    /// own signature is also genuine... the provider signature alone
    /// suffices for Almost No Creation, so that is what is checked (the
    /// reported labels are the leader's claim and feed only revenue).
    ///
    /// Signatures neither the table nor the memo already knows are
    /// verified as one pooled batch instead of entry by entry.
    fn entries_authentic(&mut self, block: &Block) -> bool {
        // Structural half first: every entry must name a provider
        // identity whose key resolves.
        let well_formed = block.entries.iter().all(|e| {
            e.tx.payload.provider.role == prb_crypto::identity::Role::Provider
                && self.provider_pk(e.tx.payload.provider.index).is_some()
        });
        if !well_formed {
            return false;
        }
        // Batch every signature the table and the memo cannot answer.
        let mut fresh: Vec<QueuedSig> = Vec::new();
        let mut seen: HashSet<(u32, TxId, Sig)> = HashSet::new();
        for e in &block.entries {
            let (p, id, sig) = (e.tx.payload.provider.index, e.tx.id(), &e.tx.provider_sig);
            if self.txs.knows(&e.tx).is_none() && seen.insert((p, id, sig.clone())) {
                fresh.push((p, id, sig.clone(), *e.tx.signing_digest(), NO_WINDOW));
            }
        }
        self.verify_batch(&mut fresh, None);
        block.entries.iter().all(|e| {
            let p = e.tx.payload.provider.index;
            self.verify_provider_sig(p, &e.tx)
        })
    }

    /// Remembered provider-signature verification.
    ///
    /// The same signed transaction is verified at upload and then again,
    /// in paranoid mode, for every governor that re-checks the committed
    /// block carrying it. The verdict is a pure function of the provider's
    /// key and `(tx id, signature)` — the id hashes every signed field
    /// (provider, nonce, timestamp, data) — so it is remembered, turning
    /// the re-checks into lookups: the transaction's slot answers for the
    /// signature it was screened on, its open window for the ones it was
    /// told are genuine, and the memo for the rest. A forged signature is
    /// memoized as `false` and stays `false`: probes cannot flip a cached
    /// verdict.
    fn verify_provider_sig(&mut self, provider: u32, tx: &SignedTx) -> bool {
        if let Some(ok) = self.txs.knows(tx) {
            self.count_sig_answered();
            return ok;
        }
        let ok = self.provider_pk(provider).is_some_and(|pk| tx.verify(pk));
        self.metrics.sig_memo_misses += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("gov.sig_memo_miss");
        }
        self.txs.record_checked(tx, ok);
        ok
    }

    /// A gap was seen: starts a recovery (unless one runs or there is no
    /// peer) and asks for the first page. `preferred` names the peer to try
    /// first — the proposer of the block that exposed the gap, when known.
    fn start_recovery(&mut self, preferred: Option<u32>, ctx: &mut Context<'_, ProtocolMsg>) {
        let Some(peer) = self.recovery.start(preferred, ctx.now().ticks()) else {
            return;
        };
        // A provisional head would shadow the peer's settled block at the
        // same serial (incoming pages skip serials we "already have") —
        // roll it back first; recovery refetches the agreed truth.
        self.shed(self.fork.provisional_depth(&self.chain));
        self.metrics.sync_requested += 1;
        self.obs.add_counter("sync.requested", 1);
        self.sync_step(Step::Ask(peer), ctx);
    }

    /// Acts on what recovery decided.
    fn sync_step(&mut self, step: Step, ctx: &mut Context<'_, ProtocolMsg>) {
        let now = ctx.now().ticks();
        match step {
            Step::Idle => {}
            Step::Ask(peer) => {
                let (to, have) = (self.governor_base + peer as usize, self.chain.height());
                ctx.send_sized(to, "sync-request", 16, ProtocolMsg::SyncRequest { have });
                // Deadline for the page: a request/response round trip plus
                // slack. No response (crashed peer, lost message) rotates.
                let timer = ctx.set_timer(SimDuration(4 * self.cfg.max_delay + 4));
                self.recovery.armed(timer, have);
            }
            Step::Abandon => {
                self.metrics.sync_abandoned += 1;
                self.obs.add_counter("sync.abandoned", 1);
            }
            Step::Done { since } => {
                let ticks = now.saturating_sub(since);
                self.metrics.sync_recovered += 1;
                self.metrics.recovery_ticks.push(ticks);
                self.obs.add_counter("sync.recovered", 1);
                self.obs.observe("sync.recovery_ticks", ticks);
                let span = Span::begin(phases::RECOVERY, since);
                self.obs.end_span(span, now, self.net_idx());
                // Parked blocks past a *new* gap (committed while we paged):
                // chase that gap immediately.
                if let Some(next_gap) = self.fork.first_parked() {
                    let proposer = next_gap.leader.index;
                    self.start_recovery(Some(proposer), ctx);
                }
            }
        }
    }

    /// A peer asked for the page after `have`.
    fn on_sync_request(
        &mut self,
        have: u64,
        requester: NodeIdx,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        let cert = self.certifier.latest();
        let (msg, size) = serve(&self.chain, cert, have, self.cfg.sync_page);
        ctx.send_sized(requester, "sync-response", size, msg);
        self.metrics.sync_served += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("sync.served");
        }
    }

    fn on_sync_response(
        &mut self,
        blocks: Vec<Block>,
        head: u64,
        cert: Option<Box<CheckpointCert>>,
        from: NodeIdx,
        ctx: &mut Context<'_, ProtocolMsg>,
    ) {
        let now = ctx.now().ticks();
        let before = self.chain.height();
        // A certificate offer is handled first: adopting it re-anchors
        // the chain past every page the peer would otherwise have to
        // serve. A stale or invalid offer is rejected (counted) and the
        // plain block path below proceeds unaffected.
        if let Some(cert) = cert {
            self.maybe_adopt_checkpoint(*cert);
        }
        let before_page = self.chain.height();
        for block in blocks {
            match self.fork.classify_page(&self.chain, &block) {
                Paged::Skip { shed } => self.shed(shed),
                Paged::Adopt => self.adopt(block, Adoption::Page, None, now),
            }
        }
        if self.metrics.adopted_serial > 0 && self.chain.height() > before_page {
            // O(delta) accounting: pages that contributed blocks after
            // the most recent checkpoint adoption.
            self.metrics.pages_after_adopt += 1;
        }
        while let Some(block) = self.fork.unpark(&self.chain) {
            self.adopt(block, Adoption::Parked, None, now);
        }
        let responder = from
            .checked_sub(self.governor_base)
            .and_then(|g| u32::try_from(g).ok());
        let height = self.chain.height();
        let step = self.recovery.on_page(before, height, head, responder);
        self.sync_step(step, ctx);
    }

    /// Applies a signed stake transfer broadcast during the round.
    ///
    /// Every governor receives the same transfer set (atomic broadcast)
    /// and applies the same validation deterministically, so the stake
    /// tables stay in agreement; the 3-step signed stake-block protocol
    /// that certifies the resulting state is exercised separately in
    /// `prb-consensus` (this path keeps the election weights live).
    fn on_stake_transfer(&mut self, transfer: StakeTransfer, _ctx: &mut Context<'_, ProtocolMsg>) {
        if self.committee.is_convicted(transfer.from) || self.committee.is_convicted(transfer.to) {
            return; // expelled governors are out of the stake economy
        }
        let Some(sender_pk) = self.committee.governor_pks().get(transfer.from as usize) else {
            return;
        };
        if !transfer.verify(sender_pk) {
            return;
        }
        if self.stake_table.apply(&transfer).is_ok() {
            self.fork.stakes_moved();
        }
    }

    /// Stamps an `ArgueRejected` event (`provider` is `None` for a
    /// transaction never screened here).
    fn emit_argue_rejected(&self, now: u64, provider: Option<u32>, reason: &'static str) {
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::ArgueRejected {
                provider: provider.map_or(u64::MAX, u64::from),
                reason,
            },
        );
    }

    fn on_argue(&mut self, id: TxId, ctx: &mut Context<'_, ProtocolMsg>) {
        let now = ctx.now().ticks();
        let Some((provider, (outcome, screened_at))) = self
            .txs
            .slot(&id)
            .and_then(|slot| Some((slot.provider(), slot.screened()?)))
        else {
            self.emit_argue_rejected(now, None, "unknown-tx");
            return; // never screened here
        };
        if let Outcome::Unchecked { revealed: true, .. } = outcome {
            self.emit_argue_rejected(now, Some(provider), "duplicate");
            return;
        }
        let Outcome::Unchecked {
            recorded: Label::Invalid,
            index,
            ..
        } = outcome
        else {
            self.emit_argue_rejected(now, Some(provider), "not-unchecked");
            return; // only invalid-unchecked records can be argued
        };
        let current = self.unchecked_counter.get(&provider).copied().unwrap_or(0);
        if current.saturating_sub(index) > self.cfg.argue_limit_u {
            // Buried under more than U unchecked transactions: permanently
            // invalid (§3.1).
            self.metrics.argue_rejected += 1;
            self.emit_argue_rejected(now, Some(provider), "bound");
            if self.oracle.borrow().peek(id) == Some(true) {
                self.metrics.lost_valid += 1;
            }
            return;
        }
        // "Governors will immediately verify this transaction."
        let valid = self.oracle.borrow().validate(id);
        self.metrics.validations += 1;
        self.metrics.argue_accepted += 1;
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::ArgueAccepted {
                provider: provider as u64,
            },
        );
        self.obs
            .end_span(Span::begin(phases::ARGUE, screened_at), now, self.net_idx());
        if valid {
            let slot = self.txs.slot(&id).expect("found above");
            self.argued_entries.push(BlockEntry {
                tx: slot.tx.clone(),
                verdict: Verdict::ArguedValid,
                reported_labels: label_pairs(slot),
            });
        }
        self.reveal_internal(id, valid, now);
    }

    fn on_reveal(&mut self, id: TxId, valid: bool, now: u64) {
        // Unknown, still in its window, checked (already settled) or
        // revealed before: nothing to do.
        let awaited = self.txs.slot(&id).is_some_and(|slot| {
            matches!(
                slot.screened(),
                Some((
                    Outcome::Unchecked {
                        revealed: false,
                        ..
                    },
                    _
                ))
            )
        });
        if awaited {
            self.reveal_internal(id, valid, now);
        }
    }

    /// Case 3 plus loss accounting for a now-revealed unchecked tx.
    fn reveal_internal(&mut self, id: TxId, valid: bool, now: u64) {
        let me = self.net_idx();
        let slot = self.txs.slot_mut(&id).expect("caller saw the slot");
        slot.mark_revealed();
        let slot = &*slot;
        let Some((Outcome::Unchecked { recorded, .. }, screened_at)) = slot.screened() else {
            unreachable!("only unchecked transactions are revealed");
        };
        let provider = slot.provider();
        let linked = self.topology.collectors_of(provider);
        let mut revealed_reports = Vec::with_capacity(linked.len());
        let mut involvements = Vec::with_capacity(linked.len());
        for (c, label) in slot.reports() {
            let at = self
                .topology
                .provider_slot(c, provider)
                .expect("reporter is linked");
            let behaviour = if label.is_valid() == valid {
                RevealedBehaviour::Correct
            } else {
                RevealedBehaviour::Wrong
            };
            involvements.push((
                c,
                if behaviour == RevealedBehaviour::Wrong {
                    2.0
                } else {
                    0.0
                },
            ));
            revealed_reports.push(RevealedReport {
                collector: c as usize,
                provider_slot: at,
                behaviour,
            });
        }
        for &c in linked {
            if !self.committee.is_collector_active(c) || slot.absent().contains(&c) {
                // Departed collectors owe no report; neither does a
                // member that was absent when the tx was screened,
                // however long ago it rejoined.
                continue;
            }
            if !slot.reported_by(c) {
                let at = self
                    .topology
                    .provider_slot(c, provider)
                    .expect("linked by construction");
                involvements.push((c, 1.0));
                revealed_reports.push(RevealedReport {
                    collector: c as usize,
                    provider_slot: at,
                    behaviour: RevealedBehaviour::Missed,
                });
            }
        }
        let out = self.reputation.record_revealed(&revealed_reports);
        let recorded_wrong = recorded.is_valid() != valid;
        self.obs.emit(
            now,
            me,
            ObsEvent::Revealed {
                valid,
                verdict_correct: !recorded_wrong,
            },
        );
        self.obs
            .end_span(Span::begin(phases::REVEAL, screened_at), now, me);
        self.metrics
            .record_reveal(provider, out.l_tx, recorded_wrong, involvements);
    }
}

/// Resolves the verification key for provider `p`: the per-provider key
/// when one exists, else the scale-mode pool slot `p % len` (for in-range
/// interned providers), else `None` (out of range — the structural forgery
/// case).
fn resolve_pk<'a>(
    provider_pks: &'a [PublicKey],
    pk_pool: &'a [PublicKey],
    topology: &Topology,
    p: u32,
) -> Option<&'a PublicKey> {
    if let Some(pk) = provider_pks.get(p as usize) {
        return Some(pk);
    }
    if !pk_pool.is_empty() && p < topology.params().providers {
        return Some(&pk_pool[p as usize % pk_pool.len()]);
    }
    None
}

/// Restores the certified stake and reputation vectors of `cert`, which the
/// certifier has verified.
fn adopt_cert_state(
    cert: &CheckpointCert,
    stakes: &mut StakeTable,
    reputation: &mut ReputationTable,
) {
    let state = &cert.state;
    *stakes = StakeTable::from_parts(state.stakes.clone(), state.stake_nonces.clone());
    if !state.reputation.is_empty() {
        let vectors = state
            .reputation
            .iter()
            .map(|c| ReputationVector::from_parts(c.weights.clone(), c.misreport, c.forge))
            .collect();
        *reputation = ReputationTable::from_vectors(vectors, *reputation.params());
    }
}

/// A slot's reports as block-entry labels, allocated to their exact
/// count: the vector lives as long as the block.
fn label_pairs(slot: &TxSlot) -> Vec<(NodeId, Label)> {
    let mut pairs = Vec::with_capacity(slot.report_count());
    pairs.extend(slot.reports().map(|(c, l)| (NodeId::collector(c), l)));
    pairs
}

#[cfg(test)]
mod fork_tests {
    //! The governor's half of fork resolution: popping a head back into
    //! the ready pool, and expelling an equivocator. Fork choice itself is
    //! tested on a bare chain in `forkchoice.rs`.

    use super::*;
    use prb_crypto::signer::CryptoScheme;

    const TAG: &[u8] = b"prb-chain";

    fn rig(governors: u32) -> (Vec<KeyPair>, GovernorNode) {
        let cfg = ProtocolConfig {
            governors,
            seed: 7,
            ..Default::default()
        };
        let keys: Vec<KeyPair> = (0..governors)
            .map(|g| CryptoScheme::sim().keypair_from_seed(format!("fork-g{g}").as_bytes()))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let gov = GovernorNode::new(
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
        (keys, gov)
    }

    fn claim_for(gov: &GovernorNode, keys: &[KeyPair], g: u32, round: u64) -> ElectionClaim {
        let stake = gov.stake_table.stake(g).unwrap();
        ElectionClaim::compute(TAG, round, g, stake, &keys[g as usize]).unwrap()
    }

    #[test]
    fn pop_head_repool_returns_uncommitted_entries_to_the_pool() {
        let (keys, mut gov) = rig(2);
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce: 0,
                data: vec![1],
            },
            1,
            &keys[0],
        );
        let e = BlockEntry {
            tx,
            verdict: Verdict::CheckedValid,
            reported_labels: Vec::new(),
        };
        let parent = gov.chain.latest().hash();
        let block = Block::build(1, vec![e.clone()], parent, NodeId::governor(1), 5);
        let claim = claim_for(&gov, &keys, 1, 0);
        gov.adopt(block, Adoption::Proposal(Some(&claim)), None, 5);
        assert_eq!(gov.chain.height(), 1);
        assert!(gov.fork.head_priority().is_some(), "a ranked head");
        gov.pop_head_repool();
        assert_eq!(gov.chain.height(), 0);
        assert_eq!(gov.metrics.head_rollbacks, 1);
        assert!(gov.fork.head_priority().is_none());
        assert!(gov.ready_entries.iter().any(|r| r.tx.id() == e.tx.id()));
        // Popping again stops at genesis and counts nothing.
        gov.pop_head_repool();
        assert_eq!(gov.chain.height(), 0);
        assert_eq!(gov.metrics.head_rollbacks, 1);
    }

    #[test]
    fn expel_slashes_discards_claims_and_is_idempotent() {
        let (keys, mut gov) = rig(3);
        gov.round = 4;
        gov.claims.push(claim_for(&gov, &keys, 1, 4));
        gov.claims.push(claim_for(&gov, &keys, 2, 4));
        gov.expel(1, 100);
        assert_eq!(gov.expelled(), &[1]);
        assert_eq!(gov.stake_table.stake(1), Some(0));
        assert!(gov.claims.iter().all(|c| c.governor != 1));
        assert_eq!(gov.claims.len(), 1);
        assert_eq!(gov.metrics.expulsions, 1);
        assert_eq!(gov.metrics.expulsion_round[&1], 4);
        // A second conviction of the same governor changes nothing.
        gov.expel(1, 200);
        assert_eq!(gov.expelled(), &[1]);
        assert_eq!(gov.metrics.expulsions, 1);
        // A slashed governor can no longer mint election claims.
        assert!(
            ElectionClaim::compute(TAG, 5, 1, gov.stake_table.stake(1).unwrap(), &keys[1])
                .is_none()
        );
    }
}
