//! The 3-step stake-transform block protocol (§3.4.3), run over the
//! simulated network so its `O(m²)` message complexity is measurable.
//!
//! 1. The round leader combines the previous stake state with the signed
//!    transfers broadcast during the round into `NEW_STATE` and broadcasts
//!    it with its signature.
//! 2. Every non-leading governor recomputes `NEW_STATE` from the transfers
//!    *it* received; on a match it returns its signature to the leader, on
//!    a mismatch it broadcasts expulsion evidence (the leader's signed,
//!    provably wrong digest).
//! 3. The leader packs the digest and one signature per *active*
//!    governor into a stake-transform block and broadcasts it; followers
//!    verify the signature set and adopt the new state. Expelled
//!    governors drop out of the quorum on both sides, so the committee
//!    keeps committing after a conviction.
//!
//! Determinism note: the paper assumes atomic broadcast, under which every
//! governor holds the same transfer set in the same order. Our simulator
//! delivers with per-link jitter, so governors canonically sort the round's
//! transfers before applying them — same set ⇒ same state.

use std::collections::HashMap;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};
use prb_net::message::Envelope;
use prb_net::sim::{Actor, Context};
use prb_obs::{Obs, ObsHandle};

use crate::quorum::Tally;
use crate::stake::{StakeTable, StakeTransfer};
use crate::verify_pool::VerifyPool;

/// A committed stake-transform block.
#[derive(Clone, Debug, PartialEq)]
pub struct StakeBlock {
    /// The round this block closes.
    pub round: u64,
    /// Digest of `NEW_STATE`.
    pub state_digest: Digest,
    /// The governor that led the round.
    pub leader: u32,
    /// One signature per governor over `(round, digest)`.
    pub signatures: Vec<(u32, Sig)>,
}

/// Messages of the stake-block protocol.
#[derive(Clone, Debug)]
pub enum StakeMsg {
    /// Driver command: a governor should broadcast this transfer.
    SubmitTransfer(StakeTransfer),
    /// A transfer relayed to all governors.
    Transfer(StakeTransfer),
    /// Driver command: the round begins with the given leader.
    StartRound {
        /// Round number.
        round: u64,
        /// The elected leader for this round.
        leader: u32,
    },
    /// Step 1: the leader's signed `NEW_STATE` digest.
    NewState {
        /// Round number.
        round: u64,
        /// Digest of the leader's computed state.
        digest: Digest,
        /// Leader signature over `(round, digest)`.
        sig: Sig,
    },
    /// Step 2: a follower's signature back to the leader.
    Ack {
        /// Round number.
        round: u64,
        /// Follower signature over `(round, digest)`.
        sig: Sig,
    },
    /// Step 2 (failure path): evidence that the leader signed a digest
    /// inconsistent with the round's transfers.
    Expel {
        /// Round number.
        round: u64,
        /// The digest the leader signed.
        claimed: Digest,
        /// The leader's signature proving it claimed `claimed`.
        leader_sig: Sig,
    },
    /// Step 3: the committed block.
    Commit(StakeBlock),
}

fn state_sig_bytes(round: u64, digest: &Digest) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update_field(b"prb-stake-block");
    h.update(&round.to_be_bytes());
    h.update_field(digest.as_bytes());
    h.finalize().to_bytes().to_vec()
}

/// A governor participating in the stake-block protocol.
#[derive(Debug)]
pub struct StakeGovernor {
    index: u32,
    peers: Vec<usize>,
    key: KeyPair,
    pks: Vec<PublicKey>,
    table: StakeTable,
    pending: Vec<StakeTransfer>,
    round: u64,
    leader: u32,
    /// Leader-side: collected acks for the current round.
    acks: HashMap<u32, Sig>,
    /// Leader-side: digest it proposed this round.
    proposed: Option<Digest>,
    /// If set, propose this digest instead of the honest one (test hook for
    /// the expulsion path).
    pub equivocate_digest: Option<Digest>,
    committed: Vec<StakeBlock>,
    expelled: Vec<u32>,
    /// Drains the Commit certificate's `m` signatures as one batch.
    pool: VerifyPool,
    obs: ObsHandle,
}

impl StakeGovernor {
    /// Creates governor `index` of `m`, where governor `g`'s actor lives at
    /// network index `net_base + g`.
    pub fn new(
        index: u32,
        m: u32,
        net_base: usize,
        key: KeyPair,
        pks: Vec<PublicKey>,
        table: StakeTable,
    ) -> Self {
        let peers = (0..m as usize).map(|g| net_base + g).collect();
        StakeGovernor {
            index,
            peers,
            key,
            pks,
            table,
            pending: Vec::new(),
            round: 0,
            leader: 0,
            acks: HashMap::new(),
            proposed: None,
            equivocate_digest: None,
            committed: Vec::new(),
            expelled: Vec::new(),
            pool: VerifyPool::single_threaded(),
            obs: Obs::off(),
        }
    }

    /// Replaces the pool used for certificate verification (defaults to
    /// inline single-threaded batching). Verdicts are identical for every
    /// thread count; only wall-clock changes.
    pub fn with_verify_pool(mut self, pool: VerifyPool) -> Self {
        self.pool = pool;
        self
    }

    /// Installs an observability hub (defaults to [`Obs::off`]); the
    /// governor then reports certificate batch sizes and wall-clock crypto
    /// time (`crypto.batch.size` / `wall.crypto_ns`).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The current stake table.
    pub fn table(&self) -> &StakeTable {
        &self.table
    }

    /// Blocks committed so far.
    pub fn committed(&self) -> &[StakeBlock] {
        &self.committed
    }

    /// Governors this node has expelled.
    pub fn expelled(&self) -> &[u32] {
        &self.expelled
    }

    fn is_leader(&self) -> bool {
        self.index == self.leader
    }

    /// Computes `NEW_STATE` from the current table plus pending transfers
    /// in canonical order. Returns `(table, digest)`.
    fn compute_new_state(&self) -> (StakeTable, Digest) {
        let mut transfers = self.pending.clone();
        transfers.sort_by_key(|t| (t.from, t.nonce, t.to, t.amount));
        let mut table = self.table.clone();
        let pks = &self.pks;
        table.apply_all(&transfers, |g| pks.get(g as usize).cloned());
        let digest = table.digest();
        (table, digest)
    }

    fn broadcast(&self, ctx: &mut Context<'_, StakeMsg>, kind: &'static str, msg: &StakeMsg) {
        for &peer in &self.peers {
            if peer != ctx.self_idx() {
                ctx.send_sized(peer, kind, 64, msg.clone());
            }
        }
    }

    fn finish_round(&mut self, block: StakeBlock) {
        let (table, digest) = self.compute_new_state();
        // Only adopt when the committed digest matches our own computation;
        // a mismatch here means we missed transfers (outside the synchrony
        // budget) and must re-sync — recorded as a non-adoption.
        if digest == block.state_digest {
            self.table = table;
        }
        self.pending.clear();
        self.committed.push(block);
        self.acks.clear();
        self.proposed = None;
    }
}

impl Actor for StakeGovernor {
    type Msg = StakeMsg;

    fn on_message(&mut self, env: Envelope<StakeMsg>, ctx: &mut Context<'_, StakeMsg>) {
        match env.payload {
            StakeMsg::SubmitTransfer(t) => {
                self.broadcast(ctx, "stake-transfer", &StakeMsg::Transfer(t.clone()));
                self.pending.push(t);
            }
            StakeMsg::Transfer(t) => {
                self.pending.push(t);
            }
            StakeMsg::StartRound { round, leader } => {
                self.round = round;
                self.leader = leader;
                self.acks.clear();
                if self.is_leader() {
                    let (_, honest) = self.compute_new_state();
                    let digest = self.equivocate_digest.unwrap_or(honest);
                    let sig = self.key.sign(&state_sig_bytes(round, &digest));
                    self.proposed = Some(digest);
                    self.acks.insert(self.index, sig.clone());
                    self.broadcast(
                        ctx,
                        "stake-newstate",
                        &StakeMsg::NewState { round, digest, sig },
                    );
                    self.maybe_commit(ctx);
                }
            }
            StakeMsg::NewState { round, digest, sig } => {
                if round != self.round {
                    return;
                }
                let leader_pk = &self.pks[self.leader as usize];
                if !leader_pk.verify(&state_sig_bytes(round, &digest), &sig) {
                    return; // not really from the leader; ignore
                }
                let (_, own) = self.compute_new_state();
                if own == digest {
                    let ack_sig = self.key.sign(&state_sig_bytes(round, &digest));
                    let leader_net = self.peers[self.leader as usize];
                    ctx.send_sized(
                        leader_net,
                        "stake-ack",
                        64,
                        StakeMsg::Ack {
                            round,
                            sig: ack_sig,
                        },
                    );
                } else {
                    // Provable misbehaviour: the leader signed a digest that
                    // does not follow from the round's transfers.
                    let evidence = StakeMsg::Expel {
                        round,
                        claimed: digest,
                        leader_sig: sig,
                    };
                    self.broadcast(ctx, "stake-expel", &evidence);
                    if !self.expelled.contains(&self.leader) {
                        self.expelled.push(self.leader);
                    }
                }
            }
            StakeMsg::Ack { round, sig } => {
                if round != self.round || !self.is_leader() {
                    return;
                }
                let Some(digest) = self.proposed else { return };
                // Identify the signer by trying all governor keys (the wire
                // format carries no sender id beyond the envelope).
                let from_gov = self
                    .peers
                    .iter()
                    .position(|&p| p == env.from)
                    .map(|g| g as u32);
                if let Some(g) = from_gov {
                    // Expelled governors no longer count toward the quorum.
                    if !self.expelled.contains(&g)
                        && self.pks[g as usize].verify(&state_sig_bytes(round, &digest), &sig)
                    {
                        self.acks.insert(g, sig);
                    }
                }
                self.maybe_commit(ctx);
            }
            StakeMsg::Expel {
                round,
                claimed,
                leader_sig,
            } => {
                if round != self.round {
                    return;
                }
                let leader_pk = &self.pks[self.leader as usize];
                // Evidence checks: the leader really signed `claimed`, and
                // `claimed` differs from what the transfers imply.
                if leader_pk.verify(&state_sig_bytes(round, &claimed), &leader_sig) {
                    let (_, own) = self.compute_new_state();
                    if own != claimed && !self.expelled.contains(&self.leader) {
                        self.expelled.push(self.leader);
                    }
                }
            }
            StakeMsg::Commit(block) => {
                if block.round != self.round {
                    return;
                }
                // Every active governor, counted by `Tally::all`, signed
                // the same `(round, digest)`: one batch through the pool.
                let msg = state_sig_bytes(block.round, &block.state_digest);
                let tally = self.tally();
                let all_valid = match tally.counted(&block.signatures, self.pks.len()) {
                    Ok(signers) if signers.len() >= tally.need() => {
                        let items: Vec<(&[u8], &Sig, &PublicKey)> = signers
                            .iter()
                            .map(|&(g, sig)| (&msg[..], sig, &self.pks[g as usize]))
                            .collect();
                        self.obs.observe("crypto.batch.size", items.len() as u64);
                        let t0 = self.obs.is_enabled().then(std::time::Instant::now);
                        let ok = self.pool.verify_sigs(&items).iter().all(|&ok| ok);
                        if let Some(t0) = t0 {
                            self.obs
                                .add_counter("wall.crypto_ns", t0.elapsed().as_nanos() as u64);
                        }
                        ok
                    }
                    _ => false,
                };
                if all_valid {
                    self.finish_round(block);
                }
            }
        }
    }
}

impl StakeGovernor {
    /// Signatures required to commit: every governor still on the active
    /// committee (`Tally::all`). Expulsions shrink the quorum so a round
    /// can close without the culprit's cooperation.
    fn tally(&self) -> Tally<'_> {
        Tally::all(self.pks.len(), &self.expelled)
    }

    fn maybe_commit(&mut self, ctx: &mut Context<'_, StakeMsg>) {
        if !self.is_leader() || self.proposed.is_none() {
            return;
        }
        if self.acks.len() == self.tally().need() {
            let digest = self.proposed.expect("checked above");
            let mut signatures: Vec<(u32, Sig)> =
                self.acks.iter().map(|(g, s)| (*g, s.clone())).collect();
            signatures.sort_by_key(|(g, _)| *g);
            let block = StakeBlock {
                round: self.round,
                state_digest: digest,
                leader: self.index,
                signatures,
            };
            self.broadcast(ctx, "stake-commit", &StakeMsg::Commit(block.clone()));
            self.finish_round(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;
    use prb_net::sim::{NetConfig, Network};
    use prb_net::time::SimTime;

    fn build(m: u32, stake: u64) -> (Network<StakeGovernor>, Vec<KeyPair>) {
        let scheme = CryptoScheme::sim();
        let keys: Vec<KeyPair> = (0..m)
            .map(|g| scheme.keypair_from_seed(format!("sg{g}").as_bytes()))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let mut net = Network::new(NetConfig::uniform(1, 5), 11);
        for g in 0..m {
            net.add_node(StakeGovernor::new(
                g,
                m,
                0,
                keys[g as usize].clone(),
                pks.clone(),
                StakeTable::uniform(m as usize, stake),
            ));
        }
        (net, keys)
    }

    fn start_round(net: &mut Network<StakeGovernor>, m: u32, round: u64, leader: u32, at: u64) {
        for g in 0..m as usize {
            net.send_external(
                g,
                "start-round",
                StakeMsg::StartRound { round, leader },
                SimTime(at),
            );
        }
    }

    #[test]
    fn happy_path_commits_identical_state_everywhere() {
        let m = 4;
        let (mut net, keys) = build(m, 10);
        // Governor 0 moves 3 units to governor 2.
        let t = StakeTransfer::create(0, 2, 3, 0, &keys[0]);
        net.send_external(0, "submit", StakeMsg::SubmitTransfer(t), SimTime(0));
        // Leave Δ for the transfer to spread, then run the round.
        start_round(&mut net, m, 1, 1, 100);
        net.run_until_idle(10_000);
        let reference = net.node(0).table().clone();
        assert_eq!(reference.stake(0), Some(7));
        assert_eq!(reference.stake(2), Some(13));
        for g in 0..m as usize {
            assert_eq!(net.node(g).table(), &reference, "governor {g} state");
            assert_eq!(net.node(g).committed().len(), 1);
            assert!(net.node(g).expelled().is_empty());
            assert_eq!(net.node(g).committed()[0].signatures.len(), m as usize);
        }
    }

    #[test]
    fn multiple_rounds_apply_sequentially() {
        let m = 3;
        let (mut net, keys) = build(m, 10);
        let t0 = StakeTransfer::create(0, 1, 2, 0, &keys[0]);
        net.send_external(0, "submit", StakeMsg::SubmitTransfer(t0), SimTime(0));
        start_round(&mut net, m, 1, 0, 100);
        net.run_until_idle(10_000);
        let t1 = StakeTransfer::create(1, 2, 5, 0, &keys[1]);
        net.send_external(1, "submit", StakeMsg::SubmitTransfer(t1), SimTime(200));
        start_round(&mut net, m, 2, 2, 300);
        net.run_until_idle(10_000);
        for g in 0..m as usize {
            let table = net.node(g).table();
            assert_eq!(table.stake(0), Some(8));
            assert_eq!(table.stake(1), Some(7));
            assert_eq!(table.stake(2), Some(15));
            assert_eq!(net.node(g).committed().len(), 2);
        }
    }

    #[test]
    fn equivocating_leader_is_expelled_by_all() {
        let m = 4;
        let (mut net, keys) = build(m, 10);
        let t = StakeTransfer::create(0, 2, 3, 0, &keys[0]);
        net.send_external(0, "submit", StakeMsg::SubmitTransfer(t), SimTime(0));
        // Leader 1 proposes a bogus digest.
        net.node_mut(1).equivocate_digest = Some(prb_crypto::sha256::sha256(b"bogus"));
        start_round(&mut net, m, 1, 1, 100);
        net.run_until_idle(10_000);
        for g in 0..m as usize {
            if g == 1 {
                continue;
            }
            assert_eq!(net.node(g).expelled(), &[1], "governor {g}");
            assert!(net.node(g).committed().is_empty());
            // State unchanged: the round never committed.
            assert_eq!(net.node(g).table().stake(0), Some(10));
        }
    }

    #[test]
    fn quorum_recomputes_after_expulsion_and_rounds_continue() {
        let m = 4;
        let (mut net, keys) = build(m, 10);
        // Round 1: leader 1 equivocates and is expelled by every honest
        // governor (no commit).
        net.node_mut(1).equivocate_digest = Some(prb_crypto::sha256::sha256(b"bogus"));
        start_round(&mut net, m, 1, 1, 100);
        net.run_until_idle(10_000);
        for g in [0usize, 2, 3] {
            assert_eq!(net.node(g).expelled(), &[1]);
        }
        // Round 2: honest leader 0. The culprit still acks, but its
        // signature no longer counts; the round must commit with the
        // recomputed quorum of m − 1 signatures.
        let t = StakeTransfer::create(2, 3, 4, 0, &keys[2]);
        net.send_external(2, "submit", StakeMsg::SubmitTransfer(t), SimTime(20_000));
        start_round(&mut net, m, 2, 0, 20_100);
        net.run_until_idle(100_000);
        // Every governor commits — including the culprit, which expelled
        // itself when it verified the evidence against its own signature —
        // but the certificate carries only the m − 1 active signatures.
        for g in 0..m as usize {
            assert_eq!(net.node(g).committed().len(), 1, "governor {g}");
            let block = &net.node(g).committed()[0];
            assert_eq!(block.signatures.len(), m as usize - 1);
            assert!(
                block.signatures.iter().all(|(signer, _)| *signer != 1),
                "expelled governor must not appear in the certificate"
            );
            assert_eq!(net.node(g).table().stake(2), Some(6));
            assert_eq!(net.node(g).table().stake(3), Some(14));
        }
    }

    #[test]
    fn invalid_transfer_is_excluded_consistently() {
        let m = 3;
        let (mut net, keys) = build(m, 5);
        // Over-spend: amount 50 > balance 5.
        let bad = StakeTransfer::create(0, 1, 50, 0, &keys[0]);
        let good = StakeTransfer::create(2, 1, 2, 0, &keys[2]);
        net.send_external(0, "submit", StakeMsg::SubmitTransfer(bad), SimTime(0));
        net.send_external(2, "submit", StakeMsg::SubmitTransfer(good), SimTime(0));
        start_round(&mut net, m, 1, 0, 100);
        net.run_until_idle(10_000);
        for g in 0..m as usize {
            let table = net.node(g).table();
            assert_eq!(table.stake(0), Some(5), "bad transfer must not apply");
            assert_eq!(table.stake(1), Some(7));
            assert_eq!(table.stake(2), Some(3));
            assert_eq!(net.node(g).committed().len(), 1);
        }
    }

    #[test]
    fn message_complexity_is_quadratic_in_m() {
        // Each governor submits one transfer; total protocol messages
        // should scale ~m² (transfers m·(m−1) dominate).
        let count_for = |m: u32| {
            let (mut net, keys) = build(m, 10);
            for g in 0..m {
                let t = StakeTransfer::create(g, (g + 1) % m, 1, 0, &keys[g as usize]);
                net.send_external(
                    g as usize,
                    "submit",
                    StakeMsg::SubmitTransfer(t),
                    SimTime(0),
                );
            }
            start_round(&mut net, m, 1, 0, 100);
            net.run_until_idle(100_000);
            let s = net.stats();
            s.kind("stake-transfer").sent
                + s.kind("stake-newstate").sent
                + s.kind("stake-ack").sent
                + s.kind("stake-commit").sent
        };
        let c4 = count_for(4);
        let c8 = count_for(8);
        let c16 = count_for(16);
        // Quadratic growth: doubling m should roughly 4× the count.
        let r1 = c8 as f64 / c4 as f64;
        let r2 = c16 as f64 / c8 as f64;
        assert!((2.8..5.2).contains(&r1), "c4={c4} c8={c8} ratio {r1}");
        assert!((2.8..5.2).contains(&r2), "c8={c8} c16={c16} ratio {r2}");
    }
}
