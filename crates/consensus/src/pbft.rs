//! A simplified PBFT replica — the message-complexity baseline (§2.2).
//!
//! The paper positions its leader-based scheme against classical BFT
//! protocols (PBFT in early Hyperledger Fabric, BFT-SMaRt, Tendermint).
//! For experiment E6/A4 we implement the normal-case three-phase exchange
//! of PBFT over the simulated network:
//!
//! - **pre-prepare**: the primary broadcasts the proposal,
//! - **prepare**: every replica broadcasts a prepare once it has the
//!   proposal; a replica is *prepared* after a quorum of matching
//!   prepares, its own counted,
//! - **commit**: prepared replicas broadcast a commit; a replica decides
//!   after a quorum of matching commits.
//!
//! A quorum is [`crate::quorum::threshold`]`(m)`, which is `2f + 1` only
//! when `m = 3f + 1`: two quorums share `f + 1` replicas at every `m`.
//!
//! This yields the classical `O(m²)` per decision, versus the reputation
//! protocol's `O(b_limit·m)` block dissemination. View changes are
//! triggered by a driver-set timeout when the primary is crashed: replicas
//! broadcast view-change votes and move to view `v+1` on a quorum of votes
//! (a simplification of the full PBFT view-change certificate, sufficient
//! for crash faults; Byzantine primaries are out of scope for the
//! baseline, which only serves as a message-count and latency yardstick).
//!
//! A replica that slept through one or more view changes (a healed crash
//! window) catches up via state transfer instead of stalling: the first
//! message it sees from a higher view triggers a [`PbftMsg::StateRequest`]
//! to the sender (rate-limited to one per observed view), and the
//! [`PbftMsg::StateResponse`] carries the responder's view and decided
//! log, which the requester merges (deduplicated by sequence number)
//! before adopting the view. Responses are accepted only from the replica
//! the request went to, while an answer is outstanding, and only when the
//! claimed view is not behind ours — unsolicited, stale or malformed
//! responses are forgeries and never overwrite local state.

use std::collections::{HashMap, HashSet};

use prb_crypto::sha256::Digest;
use prb_net::message::Envelope;
use prb_net::sim::{Actor, Context};
use prb_net::time::SimDuration;
use prb_net::TimerId;
use prb_obs::{phases, EventKind as ObsEvent, Obs, ObsHandle, Span};

/// PBFT protocol messages.
#[derive(Clone, Debug)]
pub enum PbftMsg {
    /// Driver command to the current primary: propose this value.
    ClientRequest(Digest),
    /// Primary's proposal for (view, seq).
    PrePrepare {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Proposed value.
        value: Digest,
    },
    /// Replica's prepare vote.
    Prepare {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Value being prepared.
        value: Digest,
    },
    /// Replica's commit vote.
    Commit {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// Value being committed.
        value: Digest,
    },
    /// View-change vote for `new_view`.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
    },
    /// A replica that observed traffic from a higher view (e.g. after a
    /// crash window) asking the sender for its current state.
    StateRequest,
    /// Reply to [`PbftMsg::StateRequest`]: the responder's view and its
    /// full decided log. The requester adopts the higher view and merges
    /// any decisions it missed (deduplicated by sequence number).
    StateResponse {
        /// The responder's current view.
        view: u64,
        /// Everything the responder has decided, as `(seq, value)` pairs.
        decided: Vec<(u64, Digest)>,
    },
}

/// One PBFT replica.
#[derive(Debug)]
pub struct PbftReplica {
    index: u32,
    m: u32,
    net_base: usize,
    view: u64,
    next_seq: u64,
    /// Outstanding client requests (primary only).
    backlog: Vec<Digest>,
    prepares: HashMap<(u64, u64, Digest), HashSet<u32>>,
    commits: HashMap<(u64, u64, Digest), HashSet<u32>>,
    prepared: HashSet<(u64, u64)>,
    committed_seqs: HashSet<(u64, u64)>,
    decided: Vec<(u64, Digest)>,
    /// Sequence numbers present in `decided` — guards against the same
    /// request being decided twice across a view change or a state
    /// transfer replaying history.
    decided_seqs: HashSet<u64>,
    /// Views we have already sent a [`PbftMsg::StateRequest`] for, so a
    /// burst of higher-view traffic triggers exactly one request.
    state_requested: HashSet<u64>,
    /// The replica we most recently asked for state, if an answer is
    /// still outstanding. Responses from anyone else — or arriving when
    /// nothing was asked — are forged or stale and must not overwrite
    /// local state.
    state_request_peer: Option<u32>,
    /// Byzantine test hook: when set and this replica is primary, it
    /// equivocates on proposals — pre-preparing `.0` toward even-indexed
    /// replicas and `.1` toward odd-indexed ones (processing `.0` on its
    /// own path). Honest replicas must never decide conflicting values;
    /// a clean split starves both quorums and the view change recovers.
    pub equivocate_values: Option<(Digest, Digest)>,
    view_votes: HashMap<u64, HashSet<u32>>,
    /// Pre-prepares for views we have not entered yet (buffered so a fast
    /// new primary does not outrun slower replicas' view changes).
    future_preprepares: Vec<(u64, u64, Digest)>,
    /// Pending request timer (for view change detection).
    request_timer: Option<TimerId>,
    timeout: SimDuration,
    obs: ObsHandle,
    /// Open vote spans: pre-prepare accepted → prepared.
    vote_spans: HashMap<(u64, u64), Span>,
    /// Open commit spans: prepared → committed.
    commit_spans: HashMap<(u64, u64), Span>,
}

impl PbftReplica {
    /// Creates replica `index` of `m`; replica `i` lives at network index
    /// `net_base + i`. `timeout` arms the view-change timer per request.
    pub fn new(index: u32, m: u32, net_base: usize, timeout: SimDuration) -> Self {
        PbftReplica {
            index,
            m,
            net_base,
            view: 0,
            next_seq: 0,
            backlog: Vec::new(),
            prepares: HashMap::new(),
            commits: HashMap::new(),
            prepared: HashSet::new(),
            committed_seqs: HashSet::new(),
            decided: Vec::new(),
            decided_seqs: HashSet::new(),
            state_requested: HashSet::new(),
            state_request_peer: None,
            equivocate_values: None,
            view_votes: HashMap::new(),
            future_preprepares: Vec::new(),
            request_timer: None,
            timeout,
            obs: Obs::off(),
            vote_spans: HashMap::new(),
            commit_spans: HashMap::new(),
        }
    }

    /// Installs an observability hub (defaults to [`Obs::off`]); the
    /// replica then emits `pbft.*` events and `vote`/`commit` phase
    /// spans.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    fn net_idx(&self) -> u64 {
        (self.net_base + self.index as usize) as u64
    }

    /// Values this replica has decided, in decision order.
    pub fn decided(&self) -> &[(u64, Digest)] {
        &self.decided
    }

    /// The replica's current view.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Maximum tolerated faults: `f = ⌊(m−1)/3⌋`.
    pub fn max_faults(&self) -> u32 {
        (self.m - 1) / 3
    }

    /// Matching votes a phase needs.
    fn quorum(&self) -> usize {
        crate::quorum::threshold(self.m as usize)
    }

    fn primary_of(&self, view: u64) -> u32 {
        (view % self.m as u64) as u32
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.index
    }

    fn broadcast(&self, ctx: &mut Context<'_, PbftMsg>, kind: &'static str, msg: &PbftMsg) {
        for g in 0..self.m as usize {
            let peer = self.net_base + g;
            if peer != ctx.self_idx() {
                ctx.send_sized(peer, kind, 48, msg.clone());
            }
        }
    }

    fn gov_of(&self, net_idx: usize) -> Option<u32> {
        let rel = net_idx.checked_sub(self.net_base)?;
        (rel < self.m as usize).then_some(rel as u32)
    }

    fn try_propose(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if !self.is_primary() {
            return;
        }
        while let Some(value) = self.backlog.pop() {
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some((a, b)) = self.equivocate_values {
                // Byzantine primary: split the committee between two
                // conflicting proposals for the same (view, seq).
                for g in 0..self.m as usize {
                    let peer = self.net_base + g;
                    if peer == ctx.self_idx() {
                        continue;
                    }
                    let split = if g % 2 == 0 { a } else { b };
                    let msg = PbftMsg::PrePrepare {
                        view: self.view,
                        seq,
                        value: split,
                    };
                    ctx.send_sized(peer, "pbft-preprepare", 48, msg);
                }
                self.on_preprepare(self.view, seq, a, ctx);
                continue;
            }
            let msg = PbftMsg::PrePrepare {
                view: self.view,
                seq,
                value,
            };
            self.broadcast(ctx, "pbft-preprepare", &msg);
            // The primary votes implicitly via its own prepare/commit path.
            self.on_preprepare(self.view, seq, value, ctx);
        }
    }

    fn on_preprepare(
        &mut self,
        view: u64,
        seq: u64,
        value: Digest,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        if view > self.view {
            // A fast new primary outran our view change; replay on entry.
            self.future_preprepares.push((view, seq, value));
            return;
        }
        if view < self.view {
            return;
        }
        let now = ctx.now().ticks();
        self.obs
            .emit(now, self.net_idx(), ObsEvent::PbftPrePrepare { view, seq });
        self.vote_spans
            .entry((view, seq))
            .or_insert_with(|| Span::begin(phases::VOTE, now));
        self.record_prepare(view, seq, value, self.index);
        self.broadcast(ctx, "pbft-prepare", &PbftMsg::Prepare { view, seq, value });
        self.check_prepared(view, seq, value, ctx);
    }

    fn record_prepare(&mut self, view: u64, seq: u64, value: Digest, from: u32) {
        self.prepares
            .entry((view, seq, value))
            .or_default()
            .insert(from);
    }

    fn check_prepared(
        &mut self,
        view: u64,
        seq: u64,
        value: Digest,
        ctx: &mut Context<'_, PbftMsg>,
    ) {
        let have = self
            .prepares
            .get(&(view, seq, value))
            .map(HashSet::len)
            .unwrap_or(0);
        // Prepared: pre-prepare + a quorum of prepares (own vote counted).
        if have >= self.quorum() && self.prepared.insert((view, seq)) {
            let now = ctx.now().ticks();
            self.obs
                .emit(now, self.net_idx(), ObsEvent::PbftPrepared { view, seq });
            if let Some(span) = self.vote_spans.remove(&(view, seq)) {
                self.obs.end_span(span, now, self.net_idx());
            }
            self.commit_spans
                .entry((view, seq))
                .or_insert_with(|| Span::begin(phases::COMMIT, now));
            // Stage occupancy: instances prepared but not yet committed —
            // >1 means consensus is genuinely pipelined across serials.
            self.obs
                .set_gauge("pbft.commit_stage_open", self.commit_spans.len() as f64);
            self.commits
                .entry((view, seq, value))
                .or_default()
                .insert(self.index);
            self.broadcast(ctx, "pbft-commit", &PbftMsg::Commit { view, seq, value });
            self.check_committed(view, seq, value, now);
        }
    }

    /// Asks `from` for its state the first time we observe traffic from
    /// `view > self.view` — the catch-up path for a replica that slept
    /// through one or more view changes (e.g. a healed crash window).
    /// Rate-limited to one request per observed view.
    fn maybe_request_state(&mut self, view: u64, from: usize, ctx: &mut Context<'_, PbftMsg>) {
        if view <= self.view || !self.state_requested.insert(view) {
            return;
        }
        self.obs.metrics().inc("pbft.state_requests");
        self.state_request_peer = self.gov_of(from);
        ctx.send_sized(from, "pbft-staterequest", 8, PbftMsg::StateRequest);
    }

    /// Validates a [`PbftMsg::StateResponse`] before letting it touch
    /// local state, and merges it when it passes. Returns whether the
    /// claimed view should be adopted (it exceeds ours).
    ///
    /// A response counts only if it is *solicited* — it comes from the
    /// exact replica we last sent a [`PbftMsg::StateRequest`] to while
    /// the answer is still outstanding — its claimed `view` is not behind
    /// ours (stale), and its decided log is well-formed (no duplicate
    /// sequence numbers). Anything else is dropped without side effects:
    /// an unsolicited "response" is indistinguishable from a forgery and
    /// previously allowed any replica to overwrite a peer's decided log
    /// and fast-forward its view.
    fn accept_state_response(&mut self, from: u32, view: u64, decided: &[(u64, Digest)]) -> bool {
        if self.state_request_peer != Some(from) || view < self.view {
            self.obs.metrics().inc("pbft.state_responses_rejected");
            return false;
        }
        let mut seqs: Vec<u64> = decided.iter().map(|&(seq, _)| seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        if seqs.len() != decided.len() {
            self.obs.metrics().inc("pbft.state_responses_rejected");
            return false;
        }
        self.state_request_peer = None;
        // Merge any decisions we slept through; dedupe by seq so
        // overlapping responses (or our own commit-quorum path) cannot
        // double-decide.
        let mut merged = false;
        for &(seq, value) in decided {
            if self.decided_seqs.insert(seq) {
                self.decided.push((seq, value));
                merged = true;
            }
        }
        if merged {
            // Restore global decision order after the merge.
            self.decided.sort_by_key(|&(seq, _)| seq);
            self.next_seq = self
                .next_seq
                .max(self.decided.last().map(|&(seq, _)| seq + 1).unwrap_or(0));
        }
        view > self.view
    }

    /// Enters `new_view` (which must be higher than the current view):
    /// replays buffered pre-prepares and, if this replica is the new
    /// primary, re-proposes its backlog.
    fn enter_view(&mut self, new_view: u64, ctx: &mut Context<'_, PbftMsg>) {
        self.view = new_view;
        self.obs.emit(
            ctx.now().ticks(),
            self.net_idx(),
            ObsEvent::PbftViewChange { view: new_view },
        );
        self.prepared.clear();
        // Replay pre-prepares buffered for this view.
        let ready: Vec<_> = self
            .future_preprepares
            .iter()
            .filter(|(v, _, _)| *v <= new_view)
            .copied()
            .collect();
        self.future_preprepares.retain(|(v, _, _)| *v > new_view);
        for (v, seq, value) in ready {
            self.on_preprepare(v, seq, value, ctx);
        }
        // The new primary re-proposes its backlog.
        self.try_propose(ctx);
    }

    fn check_committed(&mut self, view: u64, seq: u64, value: Digest, now: u64) {
        let have = self
            .commits
            .get(&(view, seq, value))
            .map(HashSet::len)
            .unwrap_or(0);
        if have >= self.quorum() && self.committed_seqs.insert((view, seq)) {
            if self.decided_seqs.insert(seq) {
                self.decided.push((seq, value));
            }
            self.request_timer = None;
            self.obs
                .emit(now, self.net_idx(), ObsEvent::PbftCommitted { view, seq });
            if let Some(span) = self.commit_spans.remove(&(view, seq)) {
                self.obs.end_span(span, now, self.net_idx());
            }
            self.obs
                .set_gauge("pbft.commit_stage_open", self.commit_spans.len() as f64);
        }
    }
}

impl Actor for PbftReplica {
    type Msg = PbftMsg;

    fn on_message(&mut self, env: Envelope<PbftMsg>, ctx: &mut Context<'_, PbftMsg>) {
        match env.payload {
            PbftMsg::ClientRequest(value) => {
                self.backlog.push(value);
                self.request_timer = Some(ctx.set_timer(self.timeout));
                self.try_propose(ctx);
            }
            PbftMsg::PrePrepare { view, seq, value } => {
                if self.gov_of(env.from) != Some(self.primary_of(view)) {
                    return; // only the view's primary may pre-prepare
                }
                self.maybe_request_state(view, env.from, ctx);
                self.on_preprepare(view, seq, value, ctx);
            }
            PbftMsg::Prepare { view, seq, value } => {
                let Some(from) = self.gov_of(env.from) else {
                    return;
                };
                if view < self.view {
                    return;
                }
                self.maybe_request_state(view, env.from, ctx);
                // Future-view prepares are recorded; the quorum check only
                // fires once we have pre-prepared in that view ourselves.
                self.record_prepare(view, seq, value, from);
                if view == self.view {
                    self.check_prepared(view, seq, value, ctx);
                }
            }
            PbftMsg::Commit { view, seq, value } => {
                let Some(from) = self.gov_of(env.from) else {
                    return;
                };
                if view < self.view {
                    return;
                }
                self.maybe_request_state(view, env.from, ctx);
                self.commits
                    .entry((view, seq, value))
                    .or_default()
                    .insert(from);
                self.check_committed(view, seq, value, ctx.now().ticks());
            }
            PbftMsg::StateRequest => {
                if self.gov_of(env.from).is_none() {
                    return;
                }
                let msg = PbftMsg::StateResponse {
                    view: self.view,
                    decided: self.decided.clone(),
                };
                let bytes = 8 + 40 * self.decided.len();
                ctx.send_sized(env.from, "pbft-stateresponse", bytes, msg);
            }
            PbftMsg::StateResponse { view, decided } => {
                let Some(from) = self.gov_of(env.from) else {
                    return;
                };
                if self.accept_state_response(from, view, &decided) {
                    self.enter_view(view, ctx);
                }
            }
            PbftMsg::ViewChange { new_view } => {
                let Some(from) = self.gov_of(env.from) else {
                    return;
                };
                if new_view <= self.view {
                    return;
                }
                let votes = self.view_votes.entry(new_view).or_default();
                votes.insert(from);
                if votes.len() >= self.quorum() {
                    self.enter_view(new_view, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, PbftMsg>) {
        if self.request_timer != Some(timer) {
            return; // stale timer
        }
        self.request_timer = None;
        // Suspect the primary: vote to move to the next view.
        let new_view = self.view + 1;
        let votes = self.view_votes.entry(new_view).or_default();
        votes.insert(self.index);
        let msg = PbftMsg::ViewChange { new_view };
        self.broadcast(ctx, "pbft-viewchange", &msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::sha256::sha256;
    use prb_net::fault::FaultPlan;
    use prb_net::sim::{NetConfig, Network};
    use prb_net::time::SimTime;

    fn build(m: u32) -> Network<PbftReplica> {
        let mut net = Network::new(NetConfig::uniform(1, 4), 21);
        for i in 0..m {
            net.add_node(PbftReplica::new(i, m, 0, SimDuration(500)));
        }
        net
    }

    #[test]
    fn normal_case_all_replicas_decide_same_value() {
        let m = 4;
        let mut net = build(m);
        let v = sha256(b"block-1");
        net.send_external(0, "client", PbftMsg::ClientRequest(v), SimTime(0));
        net.run_until(SimTime(400));
        for i in 0..m as usize {
            assert_eq!(net.node(i).decided(), &[(0, v)], "replica {i}");
            assert_eq!(net.node(i).view(), 0);
        }
    }

    #[test]
    fn sequential_requests_decide_in_order() {
        let m = 4;
        let mut net = build(m);
        let v1 = sha256(b"b1");
        let v2 = sha256(b"b2");
        net.send_external(0, "client", PbftMsg::ClientRequest(v1), SimTime(0));
        net.send_external(0, "client", PbftMsg::ClientRequest(v2), SimTime(100));
        net.run_until(SimTime(600));
        for i in 0..m as usize {
            assert_eq!(net.node(i).decided(), &[(0, v1), (1, v2)]);
        }
    }

    #[test]
    fn crashed_primary_triggers_view_change_and_recovery() {
        let m = 4;
        let mut net = build(m);
        let mut faults = FaultPlan::none();
        faults.crash(0, SimTime(0)); // primary of view 0 is dead
        net.set_faults(faults);
        let v = sha256(b"after-crash");
        // The request reaches every live replica (client broadcast).
        for i in 1..m as usize {
            net.send_external(i, "client", PbftMsg::ClientRequest(v), SimTime(0));
        }
        net.run_until(SimTime(3_000));
        for i in 1..m as usize {
            assert_eq!(net.node(i).view(), 1, "replica {i} should be in view 1");
            assert_eq!(net.node(i).decided(), &[(0, v)], "replica {i}");
        }
    }

    #[test]
    fn message_count_is_quadratic() {
        let count_for = |m: u32| {
            let mut net = build(m);
            let v = sha256(b"payload");
            net.send_external(0, "client", PbftMsg::ClientRequest(v), SimTime(0));
            net.run_until(SimTime(400));
            let s = net.stats();
            s.kind("pbft-preprepare").sent
                + s.kind("pbft-prepare").sent
                + s.kind("pbft-commit").sent
        };
        let c4 = count_for(4);
        let c8 = count_for(8);
        let c16 = count_for(16);
        let r1 = c8 as f64 / c4 as f64;
        let r2 = c16 as f64 / c8 as f64;
        assert!((3.0..5.0).contains(&r1), "c4={c4} c8={c8}");
        assert!((3.0..5.0).contains(&r2), "c8={c8} c16={c16}");
    }

    #[test]
    fn f_and_quorum_sizes() {
        let r = PbftReplica::new(0, 4, 0, SimDuration(10));
        assert_eq!(r.max_faults(), 1);
        assert_eq!(r.quorum(), 3);
        let r = PbftReplica::new(0, 10, 0, SimDuration(10));
        assert_eq!(r.max_faults(), 3);
        assert_eq!(r.quorum(), 7);
        // 2f + 1 = 5 of 8: two quorums would share 2 replicas, f = 2 faulty.
        let r = PbftReplica::new(0, 8, 0, SimDuration(10));
        assert_eq!(r.max_faults(), 2);
        assert_eq!(r.quorum(), 6);
    }

    #[test]
    fn healed_replica_catches_up_via_state_transfer() {
        let m = 7; // f = 2: tolerates the dead primary plus one sleeper
        let mut net = build(m);
        let mut faults = FaultPlan::none();
        faults.crash(0, SimTime(0)); // primary of view 0, permanently dead
        faults.crash_window(6, SimTime(0), SimTime(5_000));
        net.set_faults(faults);
        let v1 = sha256(b"while-6-slept");
        for i in 1..6 {
            net.send_external(i, "client", PbftMsg::ClientRequest(v1), SimTime(0));
        }
        // Replicas 1..=5 view-change to view 1 and decide v1 while 6 is
        // down; after healing, traffic for v2 carries the higher view and
        // triggers 6's state transfer.
        let v2 = sha256(b"after-heal");
        net.send_external(1, "client", PbftMsg::ClientRequest(v2), SimTime(6_000));
        net.run_until(SimTime(12_000));
        assert_eq!(net.node(6).view(), 1, "sleeper should adopt view 1");
        assert_eq!(
            net.node(6).decided(),
            &[(0, v1), (1, v2)],
            "sleeper should hold the missed decision and the live one, in seq order"
        );
        for i in 1..6 {
            assert_eq!(net.node(i).decided(), &[(0, v1), (1, v2)], "replica {i}");
        }
        assert!(net.stats().kind("pbft-staterequest").sent >= 1);
        assert!(net.stats().kind("pbft-stateresponse").sent >= 1);
    }

    #[test]
    fn no_state_requests_in_the_normal_case() {
        let m = 4;
        let mut net = build(m);
        let v = sha256(b"quiet");
        net.send_external(0, "client", PbftMsg::ClientRequest(v), SimTime(0));
        net.run_until(SimTime(400));
        assert_eq!(net.stats().kind("pbft-staterequest").sent, 0);
    }

    #[test]
    fn unsolicited_state_response_is_rejected() {
        // A forged response arriving when no request is outstanding must
        // not overwrite the decided log or fast-forward the view.
        let mut r = PbftReplica::new(3, 4, 0, SimDuration(500));
        let forged = vec![(0, sha256(b"planted")), (5, sha256(b"also planted"))];
        assert!(!r.accept_state_response(1, 7, &forged));
        assert!(r.decided().is_empty(), "forged log must not be adopted");
        assert_eq!(r.next_seq, 0);
    }

    #[test]
    fn state_response_from_wrong_peer_is_rejected() {
        let mut r = PbftReplica::new(3, 4, 0, SimDuration(500));
        r.state_request_peer = Some(2); // we asked replica 2...
        let forged = vec![(0, sha256(b"planted"))];
        assert!(!r.accept_state_response(1, 7, &forged)); // ...1 answers
        assert!(r.decided().is_empty());
        // The genuine answer still goes through afterwards.
        let real = vec![(0, sha256(b"real"))];
        assert!(r.accept_state_response(2, 7, &real));
        assert_eq!(r.decided(), &[(0, sha256(b"real"))]);
        assert_eq!(r.next_seq, 1);
    }

    #[test]
    fn stale_and_malformed_state_responses_are_rejected() {
        let mut r = PbftReplica::new(3, 4, 0, SimDuration(500));
        r.view = 5;
        r.state_request_peer = Some(1);
        // Stale: the responder's claimed view is behind ours.
        assert!(!r.accept_state_response(1, 4, &[(0, sha256(b"old"))]));
        assert!(r.decided().is_empty());
        // Malformed: duplicate sequence numbers in one response.
        let dup = vec![(0, sha256(b"a")), (0, sha256(b"b"))];
        assert!(!r.accept_state_response(1, 6, &dup));
        assert!(r.decided().is_empty());
        // Equal view is fine (nothing to adopt) and consumes the request.
        assert!(!r.accept_state_response(1, 5, &[(0, sha256(b"ok"))]));
        assert_eq!(r.decided(), &[(0, sha256(b"ok"))]);
        assert_eq!(r.state_request_peer, None);
    }

    #[test]
    fn equivocating_primary_never_splits_decisions() {
        // Primary 0 sends conflicting pre-prepares to the two halves of
        // the committee. Neither value can gather a quorum, so no
        // replica may decide either value at seq 0 — safety holds and the
        // view change eventually removes the primary.
        let m = 4;
        let mut net = build(m);
        net.node_mut(0).equivocate_values = Some((sha256(b"fork-a"), sha256(b"fork-b")));
        net.send_external(
            0,
            "client",
            PbftMsg::ClientRequest(sha256(b"ignored")),
            SimTime(0),
        );
        net.run_until(SimTime(3_000));
        for seq in 0..2u64 {
            let mut values: Vec<Digest> = (0..m as usize)
                .flat_map(|i| {
                    net.node(i)
                        .decided()
                        .iter()
                        .filter(|&&(s, _)| s == seq)
                        .map(|&(_, v)| v)
                        .collect::<Vec<_>>()
                })
                .collect();
            values.sort_unstable();
            values.dedup();
            assert!(
                values.len() <= 1,
                "seq {seq} decided conflicting values {values:?}"
            );
        }
        // The clean split specifically starves both quorums entirely.
        for i in 1..m as usize {
            assert!(net.node(i).decided().is_empty(), "replica {i}");
        }
    }

    #[test]
    fn non_primary_preprepare_is_ignored() {
        let m = 4;
        let mut net = build(m);
        // Replica 2 (not primary of view 0) tries to pre-prepare directly.
        // We simulate by injecting the message as if from node 2 via a
        // driver-triggered send: replica 1 must ignore it because the
        // sender is not the primary. External messages have from=EXTERNAL,
        // which maps to no governor, so they are ignored too.
        let v = sha256(b"rogue");
        net.send_external(
            1,
            "rogue",
            PbftMsg::PrePrepare {
                view: 0,
                seq: 0,
                value: v,
            },
            SimTime(0),
        );
        net.run_until(SimTime(300));
        assert!(net.node(1).decided().is_empty());
    }
}
