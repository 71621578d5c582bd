//! A rotating-leader block replication protocol (Tendermint-flavoured
//! baseline, §2.2): the leader of round `h` is `h mod m`; it proposes a
//! block, replicas vote, and the block commits on a `> 2/3` vote
//! certificate. A round timer skips crashed leaders (the round advances
//! with an empty commit).
//!
//! This is the fully-executable counterpart of
//! [`crate::round_robin::leader_of_round`], used by ablation A4 to compare
//! the paper's VRF-PoS election against deterministic rotation under
//! identical network conditions — including leader-crash behaviour, where
//! rotation needs explicit skip logic while VRF-PoS simply elects among
//! the live claimants.

use std::collections::{HashMap, HashSet};

use prb_crypto::sha256::Digest;
use prb_net::message::Envelope;
use prb_net::sim::{Actor, Context};
use prb_net::time::SimDuration;
use prb_net::TimerId;
use prb_obs::{phases, EventKind as ObsEvent, Obs, ObsHandle, Span};

/// Messages of the rotation protocol.
#[derive(Clone, Debug)]
pub enum RotationMsg {
    /// Driver command: start height `h` (all replicas, same tick).
    StartHeight {
        /// The height to run.
        height: u64,
        /// Value the leader should propose (driver-supplied payload).
        value: Digest,
    },
    /// Leader's proposal for the height.
    Propose {
        /// Height being decided.
        height: u64,
        /// Proposed value.
        value: Digest,
    },
    /// A replica's vote.
    Vote {
        /// Height being decided.
        height: u64,
        /// Voted value.
        value: Digest,
    },
}

/// One rotation replica.
#[derive(Debug)]
pub struct RotationReplica {
    index: u32,
    m: u32,
    net_base: usize,
    height: u64,
    pending_value: Option<Digest>,
    votes: HashMap<(u64, Digest), HashSet<u32>>,
    decided: Vec<(u64, Option<Digest>)>,
    round_timer: Option<TimerId>,
    timeout: SimDuration,
    obs: ObsHandle,
    /// Open commit spans: height start → decision.
    height_spans: HashMap<u64, Span>,
}

impl RotationReplica {
    /// Creates replica `index` of `m` at network index `net_base + index`.
    pub fn new(index: u32, m: u32, net_base: usize, timeout: SimDuration) -> Self {
        RotationReplica {
            index,
            m,
            net_base,
            height: 0,
            pending_value: None,
            votes: HashMap::new(),
            decided: Vec::new(),
            round_timer: None,
            timeout,
            obs: Obs::off(),
            height_spans: HashMap::new(),
        }
    }

    /// Installs an observability hub (defaults to [`Obs::off`]); the
    /// replica then emits `rot.decided` events and `commit` phase spans.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    fn net_idx(&self) -> u64 {
        (self.net_base + self.index as usize) as u64
    }

    /// Heights decided so far; `None` marks a skipped (timed-out) leader.
    pub fn decided(&self) -> &[(u64, Option<Digest>)] {
        &self.decided
    }

    fn leader_of(&self, height: u64) -> u32 {
        (height % self.m as u64) as u32
    }

    fn broadcast(&self, ctx: &mut Context<'_, RotationMsg>, kind: &'static str, msg: &RotationMsg) {
        for g in 0..self.m as usize {
            let peer = self.net_base + g;
            if peer != ctx.self_idx() {
                ctx.send_sized(peer, kind, 40, msg.clone());
            }
        }
    }

    fn record_vote(&mut self, height: u64, value: Digest, from: u32) -> bool {
        let votes = self.votes.entry((height, value)).or_default();
        votes.insert(from);
        votes.len() >= crate::quorum::threshold(self.m as usize)
    }

    fn decide(&mut self, height: u64, value: Option<Digest>, now: u64) {
        if self.decided.iter().any(|(h, _)| *h == height) {
            return;
        }
        self.decided.push((height, value));
        self.round_timer = None;
        self.obs.emit(
            now,
            self.net_idx(),
            ObsEvent::RotationDecided {
                height,
                skipped: value.is_none(),
            },
        );
        if let Some(span) = self.height_spans.remove(&height) {
            self.obs.end_span(span, now, self.net_idx());
        }
    }
}

impl Actor for RotationReplica {
    type Msg = RotationMsg;

    fn on_message(&mut self, env: Envelope<RotationMsg>, ctx: &mut Context<'_, RotationMsg>) {
        match env.payload {
            RotationMsg::StartHeight { height, value } => {
                self.height = height;
                self.pending_value = Some(value);
                self.round_timer = Some(ctx.set_timer(self.timeout));
                self.height_spans
                    .entry(height)
                    .or_insert_with(|| Span::begin(phases::COMMIT, ctx.now().ticks()));
                if self.leader_of(height) == self.index {
                    let msg = RotationMsg::Propose { height, value };
                    self.broadcast(ctx, "rot-propose", &msg);
                    // Leader votes for its own proposal.
                    if self.record_vote(height, value, self.index) {
                        self.decide(height, Some(value), ctx.now().ticks());
                    }
                    self.broadcast(ctx, "rot-vote", &RotationMsg::Vote { height, value });
                }
            }
            RotationMsg::Propose { height, value } => {
                if height != self.height {
                    return;
                }
                let from = env.from.checked_sub(self.net_base).map(|g| g as u32);
                if from != Some(self.leader_of(height)) {
                    return; // only the height's leader may propose
                }
                if self.record_vote(height, value, self.index) {
                    self.decide(height, Some(value), ctx.now().ticks());
                }
                self.broadcast(ctx, "rot-vote", &RotationMsg::Vote { height, value });
            }
            RotationMsg::Vote { height, value } => {
                if height != self.height {
                    return;
                }
                let Some(from) = env.from.checked_sub(self.net_base).map(|g| g as u32) else {
                    return;
                };
                if self.record_vote(height, value, from) {
                    self.decide(height, Some(value), ctx.now().ticks());
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, RotationMsg>) {
        if self.round_timer != Some(timer) {
            return;
        }
        // Leader silent for a whole round: skip the height.
        let height = self.height;
        self.decide(height, None, ctx.now().ticks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::sha256::sha256;
    use prb_net::fault::FaultPlan;
    use prb_net::sim::{NetConfig, Network};
    use prb_net::time::SimTime;

    fn build(m: u32) -> Network<RotationReplica> {
        let mut net = Network::new(NetConfig::uniform(1, 4), 17);
        for i in 0..m {
            net.add_node(RotationReplica::new(i, m, 0, SimDuration(200)));
        }
        net
    }

    fn start_height(net: &mut Network<RotationReplica>, m: u32, height: u64, at: u64) -> Digest {
        let value = sha256(format!("block-{height}").as_bytes());
        for g in 0..m as usize {
            net.send_external(
                g,
                "start",
                RotationMsg::StartHeight { height, value },
                SimTime(at),
            );
        }
        value
    }

    #[test]
    fn leaders_rotate_and_all_decide() {
        let m = 4;
        let mut net = build(m);
        let mut values = Vec::new();
        for h in 0..6u64 {
            values.push(start_height(&mut net, m, h, h * 500));
        }
        net.run_until_idle(100_000);
        for g in 0..m as usize {
            let decided = net.node(g).decided();
            assert_eq!(decided.len(), 6, "replica {g}");
            for (h, v) in decided {
                assert_eq!(*v, Some(values[*h as usize]), "replica {g} height {h}");
            }
        }
    }

    #[test]
    fn crashed_leader_heights_are_skipped_not_stuck() {
        let m = 4;
        let mut net = build(m);
        let mut faults = FaultPlan::none();
        faults.crash(1, SimTime(0)); // leader of heights 1, 5, …
        net.set_faults(faults);
        for h in 0..4u64 {
            start_height(&mut net, m, h, h * 500);
        }
        net.run_until_idle(100_000);
        for g in [0usize, 2, 3] {
            let decided = net.node(g).decided();
            assert_eq!(decided.len(), 4, "replica {g}");
            let by_height: HashMap<u64, Option<Digest>> = decided.iter().cloned().collect();
            assert!(by_height[&0].is_some());
            assert_eq!(by_height[&1], None, "crashed leader's height skipped");
            assert!(by_height[&2].is_some());
            assert!(by_height[&3].is_some());
        }
    }

    #[test]
    fn non_leader_proposals_are_ignored() {
        let m = 4;
        let mut net = build(m);
        start_height(&mut net, m, 0, 0);
        // Replica 2 (not the leader of height 0) injects a rogue proposal
        // via an external message (from == EXTERNAL ⇒ rejected).
        let rogue = sha256(b"rogue");
        net.send_external(
            3,
            "rogue",
            RotationMsg::Propose {
                height: 0,
                value: rogue,
            },
            SimTime(1),
        );
        net.run_until_idle(100_000);
        for g in 0..m as usize {
            let decided = net.node(g).decided();
            assert_eq!(decided.len(), 1);
            assert_ne!(decided[0].1, Some(rogue));
        }
    }

    #[test]
    fn message_complexity_is_quadratic() {
        let count = |m: u32| {
            let mut net = build(m);
            start_height(&mut net, m, 0, 0);
            net.run_until_idle(1_000_000);
            net.stats().kind("rot-propose").sent + net.stats().kind("rot-vote").sent
        };
        let c4 = count(4);
        let c8 = count(8);
        let ratio = c8 as f64 / c4 as f64;
        assert!((3.0..5.0).contains(&ratio), "c4={c4} c8={c8}");
    }
}
