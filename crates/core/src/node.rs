//! The unified actor type: one enum wrapping the three roles, and the one
//! way a message leaves any of them.
//!
//! Every role sends through its [`Outbox`], which owns the node's
//! reliable-delivery state. [`Outbox::send`] goes through the retry
//! envelope when reliable delivery is on (transaction broadcasts and
//! uploads, every governor-to-governor send); [`Outbox::send_plain`] never
//! does (argues, acks, sync requests and responses). The message itself
//! names the kind label and the bytes the kernel counts
//! ([`ProtocolMsg::kind`], [`ProtocolMsg::wire_size`]). [`NodeActor`]
//! unwraps envelopes and acks them, routes acks to the outbox and offers
//! it every timer first, once for every role.

use prb_net::message::{Envelope, NodeIdx, TimerId};
use prb_net::retry::{ReliableSender, RetryConfig};
use prb_net::sim::{Actor, Context};
use prb_obs::ObsHandle;

use crate::collector::CollectorNode;
use crate::governor::GovernorNode;
use crate::msg::ProtocolMsg;
use crate::provider::ProviderNode;

/// How one node's messages leave it: straight to the kernel, or, with
/// reliable delivery on, through an ack-tracked retry envelope.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Ack-based retransmission (`None` = fire-and-forget).
    retry: Option<ReliableSender<ProtocolMsg>>,
}

impl Outbox {
    /// An outbox that sends through the retry envelope under `cfg`.
    pub fn reliable(cfg: RetryConfig) -> Self {
        Outbox {
            retry: Some(ReliableSender::new(cfg)),
        }
    }

    /// Installs an observability hub on the retry sender, which then
    /// keeps the `net.retry.*` counters.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        if let Some(r) = &mut self.retry {
            r.set_obs(obs);
        }
    }

    /// Sends `msg` to `to`, tracked until acked when reliable delivery is
    /// on.
    pub fn send(&mut self, ctx: &mut Context<'_, ProtocolMsg>, to: NodeIdx, msg: ProtocolMsg) {
        let Some(r) = &mut self.retry else {
            return self.send_plain(ctx, to, msg);
        };
        // The envelope counts as its message plus the token, whatever the
        // token is.
        let mut envelope = ProtocolMsg::Reliable {
            token: 0,
            inner: Box::new(msg),
        };
        let (kind, size) = (envelope.kind(), envelope.wire_size());
        r.send_with(ctx, to, kind, size, |t| {
            if let ProtocolMsg::Reliable { token, .. } = &mut envelope {
                *token = t;
            }
            envelope
        });
    }

    /// Sends `msg` to `to` once, untracked, whether or not reliable
    /// delivery is on.
    pub fn send_plain(
        &mut self,
        ctx: &mut Context<'_, ProtocolMsg>,
        to: NodeIdx,
        msg: ProtocolMsg,
    ) {
        ctx.send_sized(to, msg.kind(), msg.wire_size(), msg);
    }

    /// [`Outbox::send`]s one message per peer, in order: `build` turns a
    /// peer and a copy of `payload` into the destination and the message.
    /// Every peer but the last gets a clone; the last takes `payload`
    /// itself.
    pub fn fan_out<P, T: Clone>(
        &mut self,
        ctx: &mut Context<'_, ProtocolMsg>,
        peers: impl IntoIterator<Item = P>,
        payload: T,
        mut build: impl FnMut(P, T) -> (NodeIdx, ProtocolMsg),
    ) {
        let mut peers = peers.into_iter().peekable();
        while let Some(peer) = peers.next() {
            if peers.peek().is_none() {
                let (to, msg) = build(peer, payload);
                return self.send(ctx, to, msg);
            }
            let (to, msg) = build(peer, payload.clone());
            self.send(ctx, to, msg);
        }
    }

    /// Discards every tracked send to `peer` (it left the committee);
    /// returns how many.
    pub fn purge_peer(&mut self, peer: NodeIdx) -> usize {
        self.retry.as_mut().map_or(0, |r| r.purge_peer(peer))
    }

    /// Retry-queue accounting: `(in flight, high water, dropped)`, zeros
    /// with reliable delivery off.
    pub fn queue_stats(&self) -> (usize, usize, u64) {
        self.retry.as_ref().map_or((0, 0, 0), |r| {
            (r.in_flight(), r.high_water(), r.stats().dropped)
        })
    }

    /// Settles the tracked send for `token`.
    fn on_ack(&mut self, token: u64) {
        if let Some(r) = &mut self.retry {
            r.on_ack(token);
        }
    }

    /// Retransmits or gives up on the send behind `timer`; `false` when
    /// the timer is not the outbox's.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, ProtocolMsg>) -> bool {
        self.retry.as_mut().is_some_and(|r| r.on_timer(timer, ctx))
    }
}

/// A node of any role, as stored in the simulated network.
#[derive(Debug)]
pub enum NodeActor {
    /// A provider.
    Provider(ProviderNode),
    /// A collector.
    Collector(CollectorNode),
    /// A governor (boxed: its state dwarfs the other roles').
    Governor(Box<GovernorNode>),
}

impl NodeActor {
    /// The provider inside, if this is one.
    pub fn as_provider(&self) -> Option<&ProviderNode> {
        match self {
            NodeActor::Provider(p) => Some(p),
            _ => None,
        }
    }

    /// The collector inside, if this is one.
    pub fn as_collector(&self) -> Option<&CollectorNode> {
        match self {
            NodeActor::Collector(c) => Some(c),
            _ => None,
        }
    }

    /// The governor inside, if this is one.
    pub fn as_governor(&self) -> Option<&GovernorNode> {
        match self {
            NodeActor::Governor(g) => Some(g),
            _ => None,
        }
    }

    /// Wraps a governor (boxing it).
    pub fn governor(node: GovernorNode) -> Self {
        NodeActor::Governor(Box::new(node))
    }

    /// The outbox every message of this node leaves through.
    pub fn outbox_mut(&mut self) -> &mut Outbox {
        match self {
            NodeActor::Provider(p) => &mut p.outbox,
            NodeActor::Collector(c) => &mut c.outbox,
            NodeActor::Governor(g) => &mut g.outbox,
        }
    }
}

impl Actor for NodeActor {
    type Msg = ProtocolMsg;

    fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
        // Unwrap the reliable-delivery envelope here, once for every
        // role: ack first (so a retransmitted copy re-acks even when its
        // payload is a downstream duplicate), then dispatch the inner
        // message as if it had arrived bare.
        let env = match env.payload {
            ProtocolMsg::Reliable { token, inner } => {
                let ack = ProtocolMsg::Ack { token };
                self.outbox_mut().send_plain(ctx, env.from, ack);
                Envelope {
                    payload: *inner,
                    ..env
                }
            }
            ProtocolMsg::Ack { token } => return self.outbox_mut().on_ack(token),
            _ => env,
        };
        match self {
            NodeActor::Provider(p) => p.on_message(env, ctx),
            NodeActor::Collector(c) => c.on_message(env, ctx),
            NodeActor::Governor(g) => g.on_message(env, ctx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, ProtocolMsg>) {
        // Retransmission timers are the outbox's; the governor's own
        // (sync deadlines, Δ windows) are the only others.
        if self.outbox_mut().on_timer(timer, ctx) {
            return;
        }
        if let NodeActor::Governor(g) = self {
            g.on_timer(timer, ctx);
        }
    }
}
