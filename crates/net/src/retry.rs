//! Reliable delivery: an ack-based retry envelope for critical hops.
//!
//! The kernel's fault plan drops messages silently (loss, partitions,
//! crash windows). For the protocol's *critical* hops — provider →
//! collector submission, collector → governor TXList upload, and block
//! dissemination — a lost message must be retransmitted until the
//! receiver acknowledges it or the sender gives up. [`ReliableSender`]
//! implements that: each tracked send gets a token, an ack cancels the
//! retransmission, and an unacked send is retried with exponential
//! backoff plus *deterministic* jitter (a hash of the token and attempt
//! number, never the kernel RNG, so enabling retries does not shift any
//! other random draw and runs stay bit-reproducible).
//!
//! Duplicate suppression is the receiver's job and comes for free on the
//! hops this is used for: sequenced channels dedupe through
//! [`OrderedInbox`](crate::order::OrderedInbox), and block dissemination
//! dedupes on the block serial. Non-critical gossip stays fire-and-forget.

use std::collections::{BTreeMap, HashMap};

use prb_obs::{Obs, ObsHandle};

use crate::message::{NodeIdx, TimerId};
use crate::sim::Context;
use crate::time::SimDuration;

/// Retransmission policy for a [`ReliableSender`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryConfig {
    /// Delay before the first retransmission. Should exceed one ack
    /// round trip (2Δ plus processing), or every send retransmits once.
    pub base_delay: SimDuration,
    /// Cap on the backoff (the delay doubles per attempt up to this).
    pub max_delay: SimDuration,
    /// Total attempts (first send included). After this many the send is
    /// abandoned and counted in [`RetryStats::exhausted`].
    pub max_attempts: u32,
    /// Jitter modulus: each armed delay adds `hash(token, attempt) %
    /// jitter` ticks. Zero disables jitter.
    pub jitter: u64,
    /// Capacity of the pending (unacked) queue. When tracking a new
    /// send would exceed it, the *oldest* pending send (smallest token)
    /// is dropped and counted in [`RetryStats::dropped`] — under
    /// sustained overload the retransmission guarantee degrades
    /// deterministically instead of the queue growing without bound.
    pub max_pending: usize,
}

impl RetryConfig {
    /// A policy derived from the synchrony bound Δ: first retry after
    /// `3Δ + 2` (one ack round trip with slack), doubling to a cap of
    /// `24Δ`, five attempts, jitter up to Δ.
    pub fn for_delta(delta: SimDuration) -> Self {
        let d = delta.ticks().max(1);
        RetryConfig {
            base_delay: SimDuration(3 * d + 2),
            max_delay: SimDuration(24 * d),
            max_attempts: 5,
            jitter: d,
            max_pending: 65536,
        }
    }

    /// The same policy with an explicit pending-queue capacity.
    pub fn with_max_pending(self, max_pending: usize) -> Self {
        RetryConfig {
            max_pending: max_pending.max(1),
            ..self
        }
    }
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig::for_delta(SimDuration(10))
    }
}

/// Counters describing a sender's retransmission activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Tracked sends issued (first transmissions).
    pub sent: u64,
    /// Retransmissions issued.
    pub resent: u64,
    /// Sends settled by an ack.
    pub acked: u64,
    /// Sends abandoned after `max_attempts`.
    pub exhausted: u64,
    /// Acks for unknown/already-settled tokens (harmless duplicates).
    pub duplicate_acks: u64,
    /// Pending sends evicted oldest-first because the queue hit
    /// [`RetryConfig::max_pending`].
    pub dropped: u64,
    /// Pending sends discarded because the destination peer left or was
    /// evicted ([`ReliableSender::purge_peer`], E17).
    pub purged: u64,
}

#[derive(Clone, Debug)]
struct PendingSend<M> {
    to: NodeIdx,
    kind: &'static str,
    size: usize,
    msg: M,
    attempts: u32,
}

/// Per-node reliable-delivery state: pending (unacked) sends keyed by
/// token, plus the timers that drive retransmission.
///
/// Kernel timers cannot be cancelled, so an ack simply removes the
/// pending entry and the stale timer fire becomes a no-op. Pending sends
/// live in an ordered map keyed by the monotonically assigned token, so
/// iteration order — and therefore the event schedule — is deterministic.
/// `timers` is a hash map, but it is only probed by timer id and never
/// iterated, so its order cannot reach the schedule.
#[derive(Clone, Debug)]
pub struct ReliableSender<M> {
    cfg: RetryConfig,
    next_token: u64,
    pending: BTreeMap<u64, PendingSend<M>>,
    timers: HashMap<TimerId, u64>,
    stats: RetryStats,
    high_water: usize,
    obs: ObsHandle,
}

impl<M: Clone> ReliableSender<M> {
    /// A sender with the given policy and no pending sends.
    pub fn new(cfg: RetryConfig) -> Self {
        ReliableSender {
            cfg,
            next_token: 0,
            pending: BTreeMap::new(),
            timers: HashMap::new(),
            stats: RetryStats::default(),
            high_water: 0,
            obs: Obs::off(),
        }
    }

    /// Installs an observability hub; the sender then maintains the
    /// `net.retry.{sent,resent,acked,exhausted}` counters.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Retransmission counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Number of sends still awaiting an ack.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The largest the pending queue has ever been. Never exceeds
    /// [`RetryConfig::max_pending`] — the E15 bounded-memory assert.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Sends a tracked message to `to`. `make_msg` receives the assigned
    /// token and builds the wire message embedding it (so the receiver
    /// can ack); the built message is retained for retransmission.
    /// Returns the token.
    pub fn send_with(
        &mut self,
        ctx: &mut Context<'_, M>,
        to: NodeIdx,
        kind: &'static str,
        size: usize,
        make_msg: impl FnOnce(u64) -> M,
    ) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        let msg = make_msg(token);
        ctx.send_sized(to, kind, size, msg.clone());
        self.stats.sent += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("net.retry.sent");
        }
        self.pending.insert(
            token,
            PendingSend {
                to,
                kind,
                size,
                msg,
                attempts: 1,
            },
        );
        // Bounded queue: evict the oldest tracked send (smallest token —
        // tokens are assigned monotonically) before memory grows past the
        // cap. Its armed timer is left to fire as a no-op; the dangling
        // entry costs one map probe, not a retransmission.
        while self.pending.len() > self.cfg.max_pending.max(1) {
            let oldest = *self
                .pending
                .keys()
                .next()
                .expect("non-empty: len > cap >= 1");
            self.pending.remove(&oldest);
            self.stats.dropped += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("net.retry.dropped");
            }
        }
        self.high_water = self.high_water.max(self.pending.len());
        let timer = ctx.set_timer(self.delay_for(token, 1));
        self.timers.insert(timer, token);
        token
    }

    /// Settles the send for `token`. Returns whether it was still
    /// pending (a `false` is a duplicate ack, e.g. for a retransmission
    /// whose original also arrived).
    pub fn on_ack(&mut self, token: u64) -> bool {
        if self.pending.remove(&token).is_some() {
            self.stats.acked += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("net.retry.acked");
            }
            true
        } else {
            self.stats.duplicate_acks += 1;
            false
        }
    }

    /// Discards every pending send addressed to `peer` — called when a
    /// member leaves or is evicted, so retries to a gone node stop
    /// immediately instead of burning the full backoff budget and
    /// inflating `net.retry.{resent,exhausted}`. Armed timers are left
    /// to fire as no-ops (the established stale-timer pattern). Returns
    /// the number of sends purged.
    pub fn purge_peer(&mut self, peer: NodeIdx) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, p| p.to != peer);
        let purged = before - self.pending.len();
        self.stats.purged += purged as u64;
        if purged > 0 && self.obs.is_enabled() {
            self.obs.metrics().add("net.retry.purged", purged as u64);
        }
        purged
    }

    /// Handles a timer fire. Returns `true` when the timer belonged to
    /// this sender (the caller must then not treat it as its own); a
    /// consumed timer either retransmits, gives up, or no-ops for an
    /// already-acked token.
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, M>) -> bool {
        let Some(token) = self.timers.remove(&timer) else {
            return false;
        };
        let Some(p) = self.pending.get_mut(&token) else {
            return true; // acked before the timer fired
        };
        if p.attempts >= self.cfg.max_attempts {
            self.pending.remove(&token);
            self.stats.exhausted += 1;
            if self.obs.is_enabled() {
                self.obs.metrics().inc("net.retry.exhausted");
            }
            return true;
        }
        p.attempts += 1;
        let attempts = p.attempts;
        ctx.send_sized(p.to, p.kind, p.size, p.msg.clone());
        self.stats.resent += 1;
        if self.obs.is_enabled() {
            self.obs.metrics().inc("net.retry.resent");
        }
        let timer = ctx.set_timer(self.delay_for(token, attempts));
        self.timers.insert(timer, token);
        true
    }

    /// Backoff delay before attempt `attempt + 1`: `base · 2^(attempt−1)`
    /// capped at `max_delay`, plus deterministic jitter.
    fn delay_for(&self, token: u64, attempt: u32) -> SimDuration {
        let base = self.cfg.base_delay.ticks().max(1);
        let backoff = base
            .saturating_mul(1u64 << (attempt - 1).min(32))
            .min(self.cfg.max_delay.ticks().max(base));
        let jitter = if self.cfg.jitter == 0 {
            0
        } else {
            splitmix64((token << 8).wrapping_add(attempt as u64)) % self.cfg.jitter
        };
        SimDuration(backoff + jitter)
    }
}

/// SplitMix64 finalizer — a cheap, well-distributed hash used for the
/// deterministic retransmission jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::message::Envelope;
    use crate::sim::{Actor, NetConfig, Network};
    use crate::time::SimTime;

    /// Wire format for the test protocol: tracked payloads and acks.
    #[derive(Clone, Debug)]
    enum Msg {
        Data { token: u64, value: u64 },
        Ack { token: u64 },
    }

    /// Sender retries; receiver acks every copy but applies values once.
    enum Driver {
        Sender(ReliableSender<Msg>),
        Receiver(Vec<u64>),
    }

    impl Actor for Driver {
        type Msg = Msg;

        fn on_message(&mut self, env: Envelope<Msg>, ctx: &mut Context<'_, Msg>) {
            match self {
                Driver::Sender(r) => match env.payload {
                    // External command: send `value` reliably to node 1.
                    Msg::Data { value, .. } if env.from == crate::message::EXTERNAL => {
                        r.send_with(ctx, 1, "data", 8, |token| Msg::Data { token, value });
                    }
                    Msg::Ack { token } => {
                        r.on_ack(token);
                    }
                    _ => {}
                },
                Driver::Receiver(seen) => {
                    if let Msg::Data { token, value } = env.payload {
                        ctx.send(env.from, "ack", Msg::Ack { token });
                        if !seen.contains(&value) {
                            seen.push(value);
                        }
                    }
                }
            }
        }

        fn on_timer(&mut self, timer: TimerId, ctx: &mut Context<'_, Msg>) {
            if let Driver::Sender(r) = self {
                r.on_timer(timer, ctx);
            }
        }
    }

    fn build(seed: u64, cfg: RetryConfig) -> Network<Driver> {
        let mut net = Network::new(NetConfig::uniform(1, 4), seed);
        net.add_node(Driver::Sender(ReliableSender::new(cfg)));
        net.add_node(Driver::Receiver(Vec::new()));
        net
    }

    fn sender_stats(net: &Network<Driver>) -> RetryStats {
        match net.node(0) {
            Driver::Sender(r) => r.stats(),
            Driver::Receiver(_) => panic!("node 0 is the sender"),
        }
    }

    fn received(net: &Network<Driver>) -> Vec<u64> {
        match net.node(1) {
            Driver::Receiver(seen) => seen.clone(),
            Driver::Sender(_) => panic!("node 1 is the receiver"),
        }
    }

    #[test]
    fn clean_link_sends_once_and_settles() {
        let mut net = build(1, RetryConfig::for_delta(SimDuration(4)));
        net.send_external(0, "cmd", Msg::Data { token: 0, value: 7 }, SimTime(0));
        net.run_until(SimTime(2_000));
        let s = sender_stats(&net);
        assert_eq!(s.sent, 1);
        assert_eq!(s.resent, 0, "no loss: nothing to retransmit");
        assert_eq!(s.acked, 1);
        assert_eq!(s.exhausted, 0);
        assert_eq!(received(&net), vec![7]);
        match net.node(0) {
            Driver::Sender(r) => assert_eq!(r.in_flight(), 0),
            Driver::Receiver(_) => unreachable!(),
        }
    }

    #[test]
    fn lossy_link_is_survived_by_retries() {
        // Generous attempt budget: at 40% loss, 10 attempts leave ~1e-4
        // per-value failure probability, so the fixed seed passes by a
        // wide margin rather than by luck.
        let cfg = RetryConfig {
            max_attempts: 10,
            ..RetryConfig::for_delta(SimDuration(4))
        };
        let mut net = build(3, cfg);
        let mut faults = FaultPlan::none();
        faults.drop_all(0.4);
        net.set_faults(faults);
        for v in 0..20 {
            net.send_external(0, "cmd", Msg::Data { token: 0, value: v }, SimTime(v * 10));
        }
        net.run_until(SimTime(20_000));
        let s = sender_stats(&net);
        assert_eq!(s.sent, 20);
        assert!(s.resent > 0, "40% loss must force retransmissions");
        let mut got = received(&net);
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>(), "all values delivered");
    }

    #[test]
    fn attempts_are_capped_against_a_dead_receiver() {
        let cfg = RetryConfig {
            base_delay: SimDuration(10),
            max_delay: SimDuration(40),
            max_attempts: 3,
            jitter: 0,
            ..RetryConfig::default()
        };
        let mut net = build(5, cfg);
        let mut faults = FaultPlan::none();
        faults.crash(1, SimTime(0));
        net.set_faults(faults);
        net.send_external(0, "cmd", Msg::Data { token: 0, value: 1 }, SimTime(0));
        net.run_until(SimTime(10_000));
        let s = sender_stats(&net);
        assert_eq!(s.sent, 1);
        assert_eq!(s.resent, 2, "max_attempts=3 → 2 retransmissions");
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.acked, 0);
        // The kernel saw exactly 3 transmissions of the data message.
        assert_eq!(net.stats().kind("data").sent, 3);
    }

    #[test]
    fn duplicate_deliveries_ack_but_apply_once() {
        // A retransmission races its original: the receiver acks both
        // copies, applies one, and the sender counts one duplicate ack.
        let cfg = RetryConfig {
            base_delay: SimDuration(2), // below the RTT: guaranteed retransmit
            max_delay: SimDuration(2),
            max_attempts: 4,
            jitter: 0,
            ..RetryConfig::default()
        };
        let mut net = build(7, cfg);
        net.send_external(0, "cmd", Msg::Data { token: 0, value: 9 }, SimTime(0));
        net.run_until(SimTime(5_000));
        let s = sender_stats(&net);
        assert!(s.resent >= 1, "sub-RTT base delay forces a retransmit");
        assert_eq!(s.acked, 1);
        assert!(s.duplicate_acks >= 1);
        assert_eq!(received(&net), vec![9], "value applied exactly once");
    }

    #[test]
    fn backoff_and_jitter_are_deterministic() {
        let run = |seed| {
            let mut net = build(seed, RetryConfig::for_delta(SimDuration(4)));
            let mut faults = FaultPlan::none();
            faults.drop_all(0.5);
            net.set_faults(faults);
            for v in 0..10 {
                net.send_external(0, "cmd", Msg::Data { token: 0, value: v }, SimTime(v * 5));
            }
            net.run_until(SimTime(50_000));
            (sender_stats(&net), received(&net), net.stats().total_sent())
        };
        assert_eq!(run(11), run(11), "same seed → identical retry schedule");
    }

    #[test]
    fn pending_queue_is_bounded_and_sheds_oldest_first() {
        // A dead receiver never acks, so every tracked send stays
        // pending; the queue must plateau at `max_pending` by evicting
        // the smallest (oldest) tokens, never OOM.
        let cfg = RetryConfig {
            base_delay: SimDuration(10_000), // park retries out of the run
            max_delay: SimDuration(10_000),
            max_attempts: 2,
            jitter: 0,
            max_pending: 4,
        };
        let mut net = build(9, cfg);
        let mut faults = FaultPlan::none();
        faults.crash(1, SimTime(0));
        net.set_faults(faults);
        for v in 0..10 {
            net.send_external(0, "cmd", Msg::Data { token: 0, value: v }, SimTime(v));
        }
        net.run_until(SimTime(100));
        match net.node(0) {
            Driver::Sender(r) => {
                assert_eq!(r.in_flight(), 4, "queue capped at max_pending");
                assert!(r.high_water() <= 4, "high-water {}", r.high_water());
                assert_eq!(r.stats().dropped, 6, "10 sends − 4 capacity");
                // Oldest-first: the survivors are the newest tokens 6..10.
                assert_eq!(
                    r.pending.keys().copied().collect::<Vec<_>>(),
                    vec![6, 7, 8, 9]
                );
            }
            Driver::Receiver(_) => unreachable!(),
        }
        // The evicted sends' timers fire as no-ops, not retransmissions.
        net.run_until(SimTime(50_000));
        let s = sender_stats(&net);
        assert_eq!(s.resent, 4, "only surviving entries retransmit");
    }

    #[test]
    fn retries_to_departed_peer_are_purged_not_backed_off() {
        // A receiver that will never ack again (left/evicted). Without
        // the purge every tracked send burns the full max_attempts
        // backoff budget; with it, pending state drops to zero at the
        // membership change and not one retransmission is issued.
        let cfg = RetryConfig {
            base_delay: SimDuration(50),
            max_delay: SimDuration(50),
            max_attempts: 5,
            jitter: 0,
            ..RetryConfig::default()
        };
        let mut net = build(13, cfg);
        let mut faults = FaultPlan::none();
        faults.crash(1, SimTime(0));
        net.set_faults(faults);
        for v in 0..6 {
            net.send_external(0, "cmd", Msg::Data { token: 0, value: v }, SimTime(v));
        }
        // Let the sends go out but purge before the first retry at ~t=50.
        net.run_until(SimTime(20));
        match net.node_mut(0) {
            Driver::Sender(r) => {
                assert_eq!(r.in_flight(), 6);
                assert_eq!(r.purge_peer(1), 6);
                assert_eq!(r.in_flight(), 0);
                assert_eq!(r.stats().purged, 6);
                // Purging an already-clean peer is a no-op.
                assert_eq!(r.purge_peer(1), 0);
            }
            Driver::Receiver(_) => unreachable!(),
        }
        // The armed timers fire as no-ops: no retransmission, no
        // exhaustion, nothing new on the wire.
        net.run_until(SimTime(10_000));
        let s = sender_stats(&net);
        assert_eq!(s.sent, 6);
        assert_eq!(s.resent, 0, "purged sends must not retransmit");
        assert_eq!(s.exhausted, 0, "purged sends never exhaust");
        assert_eq!(net.stats().kind("data").sent, 6, "wire saw only originals");
    }

    #[test]
    fn delay_schedule_backs_off_and_caps() {
        let r: ReliableSender<Msg> = ReliableSender::new(RetryConfig {
            base_delay: SimDuration(10),
            max_delay: SimDuration(35),
            max_attempts: 8,
            jitter: 0,
            ..RetryConfig::default()
        });
        assert_eq!(r.delay_for(0, 1), SimDuration(10));
        assert_eq!(r.delay_for(0, 2), SimDuration(20));
        assert_eq!(r.delay_for(0, 3), SimDuration(35), "capped");
        assert_eq!(r.delay_for(0, 7), SimDuration(35), "stays capped");
        // Jitter varies by token but never exceeds the modulus.
        let j: ReliableSender<Msg> = ReliableSender::new(RetryConfig {
            base_delay: SimDuration(10),
            max_delay: SimDuration(80),
            max_attempts: 8,
            jitter: 6,
            ..RetryConfig::default()
        });
        for token in 0..20 {
            let d = j.delay_for(token, 1).ticks();
            assert!((10..16).contains(&d), "attempt 1 delay {d}");
        }
        // Identical inputs hash identically.
        assert_eq!(j.delay_for(3, 2), j.delay_for(3, 2));
    }
}
