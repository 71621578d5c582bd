//! Anti-entropy sync: which peer a governor that fell behind asks for the
//! blocks it missed, when it rotates, and when it gives up.
//!
//! A node cannot observe its own crash window, only the evidence of one: a
//! round-number gap or a block past the next serial. Either starts a
//! recovery. The governor asks one peer at a time for the page after its
//! head, rotating when a page does not come in time or brings nothing,
//! until it reaches a responder's head.
//!
//! ```text
//!   gap seen     ──start────▶ Some(p) to ask | None (recovering already, or alone)
//!   timer fires  ──on_timer─▶ None (not mine) | Idle | Ask(p) | Abandon
//!   page applied ──on_page──▶ Idle (unsolicited) | Ask(p) | Done { since } | Abandon
//! ```
//!
//! [`Recovery`] is pure over its inputs: this governor's index, the
//! committee size, the chain height, the page's head and the responder.
//! What a peer is served is decided here too ([`serve`]). This file
//! decides; the governor sends, arms timers and counts.

use std::collections::HashMap;

use prb_consensus::checkpoint::CheckpointCert;
use prb_ledger::block::Block;
use prb_ledger::chain::Chain;
use prb_net::message::TimerId;

use crate::msg::ProtocolMsg;

/// Peer rotations before a recovery is abandoned (the next observed gap
/// re-triggers it).
pub(crate) const MAX_SYNC_ATTEMPTS: u32 = 8;

/// What the governor does next for recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Nothing.
    Idle,
    /// Ask this peer for the page after the head, under a fresh deadline.
    Ask(u32),
    /// Caught up with the responder's head; the gap was seen at `since`.
    Done { since: u64 },
    /// Every rotation went unanswered.
    Abandon,
}

/// A recovery under way.
#[derive(Clone, Copy, Debug)]
struct Recovering {
    /// Peer-rotation counter, reset by page progress.
    attempt: u32,
    /// The peer being asked.
    peer: u32,
    /// Tick the gap was seen.
    since: u64,
}

/// One governor's anti-entropy recovery: crashed → recovering → synced.
#[derive(Debug)]
pub(crate) struct Recovery {
    me: u32,
    governors: u32,
    state: Option<Recovering>,
    /// Rotation timers, as `(attempt, height when armed)`.
    timers: HashMap<TimerId, (u32, u64)>,
}

impl Recovery {
    /// Governor `me`'s recovery in a committee of `governors`, synced.
    pub(crate) fn new(me: u32, governors: u32) -> Self {
        Recovery {
            me,
            governors,
            state: None,
            timers: HashMap::new(),
        }
    }

    /// Whether a recovery is under way.
    pub(crate) fn is_recovering(&self) -> bool {
        self.state.is_some()
    }

    /// A gap was seen at tick `now`: the peer to ask first — `preferred`
    /// (the proposer of the block that exposed the gap) when it is a peer,
    /// else the rotation's first — or `None` when recovering already or
    /// alone.
    pub(crate) fn start(&mut self, preferred: Option<u32>, now: u64) -> Option<u32> {
        if self.is_recovering() || self.governors < 2 {
            return None;
        }
        let peer = preferred
            .filter(|&p| p != self.me && p < self.governors)
            .unwrap_or_else(|| self.rotation(0));
        self.state = Some(Recovering {
            attempt: 0,
            peer,
            since: now,
        });
        Some(peer)
    }

    /// A page request went out at chain height `height`, its deadline
    /// under `timer`.
    pub(crate) fn armed(&mut self, timer: TimerId, height: u64) {
        if let Some(r) = self.state {
            self.timers.insert(timer, (r.attempt, height));
        }
    }

    /// `timer` fired with the chain `height` high; `None` when it is not a
    /// rotation timer. A fire whose attempt and height still match rotates,
    /// even if a newer timer is pending. One that does not means progress
    /// happened: a page always re-arms, but a block appended the normal way
    /// does not, so the current peer is asked again when no other rotation
    /// timer is pending, and the rotation never goes quiet.
    pub(crate) fn on_timer(&mut self, timer: TimerId, height: u64) -> Option<Step> {
        let (attempt, armed_at) = self.timers.remove(&timer)?;
        let Some(r) = self.state else {
            return Some(Step::Idle);
        };
        if r.attempt != attempt || height != armed_at {
            let idle = !self.timers.is_empty();
            return Some(if idle { Step::Idle } else { Step::Ask(r.peer) });
        }
        Some(self.advance(attempt + 1, None, r.since))
    }

    /// A sync page from `responder` (a governor index, when it is one) was
    /// applied, taking the chain from `before` to `height`, against the
    /// responder's `head`. Progress resets the rotation and keeps asking the
    /// responder; a page that brought nothing rotates.
    pub(crate) fn on_page(
        &mut self,
        before: u64,
        height: u64,
        head: u64,
        responder: Option<u32>,
    ) -> Step {
        let Some(r) = self.state else {
            return Step::Idle;
        };
        if height >= head {
            self.state = None;
            return Step::Done { since: r.since };
        }
        if height > before {
            self.advance(0, responder.filter(|&g| g < self.governors), r.since)
        } else {
            self.advance(r.attempt + 1, None, r.since)
        }
    }

    /// Moves to rotation `attempt`, asking `peer` or else the rotation's
    /// own; abandons once the rotations run out.
    fn advance(&mut self, attempt: u32, peer: Option<u32>, since: u64) -> Step {
        if attempt >= MAX_SYNC_ATTEMPTS {
            self.state = None;
            return Step::Abandon;
        }
        let peer = peer.unwrap_or_else(|| self.rotation(attempt));
        self.state = Some(Recovering {
            attempt,
            peer,
            since,
        });
        Step::Ask(peer)
    }

    /// The peer asked on rotation `attempt`: the other governors in turn,
    /// starting just past this one.
    fn rotation(&self, attempt: u32) -> u32 {
        let m = self.governors;
        let peer = (self.me + 1 + attempt) % m;
        if peer == self.me {
            (peer + 1) % m
        } else {
            peer
        }
    }
}

/// The answer to a peer at height `have`: up to `page` blocks past it, this
/// node's head, and `cert` when the peer is behind it — adopting the cert
/// lets the peer skip every page before it and fetch only the suffix. An
/// empty page still answers: the head lets the requester finish, or re-aim,
/// its recovery.
pub(crate) fn serve(
    chain: &Chain,
    cert: Option<&CheckpointCert>,
    have: u64,
    page: usize,
) -> ProtocolMsg {
    let head = chain.height();
    let blocks: Vec<Block> = ((have + 1)..=head)
        .take(page)
        .filter_map(|s| chain.retrieve(s).cloned())
        .collect();
    let cert = cert
        .filter(|c| c.state.serial > have)
        .map(|c| Box::new(c.clone()));
    ProtocolMsg::SyncResponse { blocks, head, cert }
}

#[cfg(test)]
mod tests {
    //! Recovery and serving on bare inputs: no governor, no network.

    use super::*;
    use crate::txtable::tests::timers;

    /// Governor 2 of 4, recovering since tick 100, asking `peer` first.
    fn recovering(peer: Option<u32>) -> Recovery {
        let mut r = Recovery::new(2, 4);
        r.start(peer, 100);
        r
    }

    #[test]
    fn start_asks_the_preferred_peer_else_the_rotation_and_only_once() {
        assert_eq!(Recovery::new(2, 4).start(Some(0), 5), Some(0));
        // Self or out of range falls back to the rotation's first peer.
        assert_eq!(Recovery::new(2, 4).start(Some(2), 5), Some(3));
        assert_eq!(Recovery::new(2, 4).start(Some(9), 5), Some(3));
        let mut r = Recovery::new(2, 4);
        assert_eq!(r.start(None, 5), Some(3));
        assert!(r.is_recovering());
        assert_eq!(r.start(Some(0), 6), None, "recovering already");
        assert_eq!(Recovery::new(0, 1).start(None, 5), None, "alone");
    }

    #[test]
    fn rotation_skips_self_and_wraps() {
        let r = Recovery::new(2, 4);
        let peers: Vec<u32> = (0..6).map(|a| r.rotation(a)).collect();
        assert_eq!(peers, [3, 0, 1, 3, 3, 0]);
        // Each unanswered timer moves to the next peer in that order.
        let mut r = recovering(None);
        for (id, peer) in timers(3).into_iter().zip([0, 1, 3]) {
            r.armed(id, 0);
            assert_eq!(r.on_timer(id, 0), Some(Step::Ask(peer)));
        }
    }

    #[test]
    fn progress_resets_the_attempt_and_keeps_the_responder() {
        let mut r = recovering(Some(1));
        // Two pages that brought nothing rotate twice...
        assert_eq!(r.on_page(4, 4, 10, Some(1)), Step::Ask(0));
        assert_eq!(r.on_page(4, 4, 10, Some(0)), Step::Ask(1));
        // ...and one that brought blocks keeps its responder at attempt 0,
        // so the next unanswered timer moves to rotation 1.
        assert_eq!(r.on_page(4, 6, 10, Some(1)), Step::Ask(1));
        let ids = timers(1);
        r.armed(ids[0], 6);
        assert_eq!(r.on_timer(ids[0], 6), Some(Step::Ask(0)));
        // A responder that is no governor is not kept: rotation 0 is asked.
        assert_eq!(r.on_page(6, 7, 10, Some(7)), Step::Ask(3));
        assert_eq!(r.on_page(7, 8, 10, None), Step::Ask(3));
    }

    #[test]
    fn reaching_the_responders_head_is_done() {
        let mut r = recovering(Some(0));
        assert_eq!(r.on_page(3, 9, 9, Some(0)), Step::Done { since: 100 });
        assert!(!r.is_recovering());
        assert_eq!(r.on_page(9, 9, 9, Some(0)), Step::Idle, "unsolicited");
    }

    #[test]
    fn recovery_is_abandoned_at_max_sync_attempts() {
        let mut r = recovering(None);
        for _ in 1..MAX_SYNC_ATTEMPTS {
            assert!(matches!(r.on_page(0, 0, 5, Some(0)), Step::Ask(_)));
        }
        assert_eq!(r.on_page(0, 0, 5, Some(0)), Step::Abandon);
        assert!(!r.is_recovering());
        // The same bound holds for unanswered timers.
        let mut r = recovering(None);
        let ids = timers(MAX_SYNC_ATTEMPTS as usize);
        let (last, rest) = ids.split_last().unwrap();
        for &id in rest {
            r.armed(id, 0);
            assert!(matches!(r.on_timer(id, 0), Some(Step::Ask(_))));
        }
        r.armed(*last, 0);
        assert_eq!(r.on_timer(*last, 0), Some(Step::Abandon));
        assert!(!r.is_recovering());
    }

    #[test]
    fn a_stale_timer_reprobes_only_when_no_other_rotation_timer_is_pending() {
        let mut r = recovering(Some(1));
        let ids = timers(4);
        // Armed at height 0, fired at height 2: progress, and with no other
        // timer pending the current peer is asked again.
        r.armed(ids[0], 0);
        assert_eq!(r.on_timer(ids[0], 2), Some(Step::Ask(1)));
        // With a newer timer pending, the stale fire does nothing...
        r.armed(ids[1], 0);
        r.armed(ids[2], 2);
        assert_eq!(r.on_timer(ids[1], 2), Some(Step::Idle));
        // ...while a fire that still matches rotates though one is pending.
        r.armed(ids[3], 2);
        assert_eq!(r.on_timer(ids[2], 2), Some(Step::Ask(0)));
        // After recovery ends, a late fire asks no one.
        assert_eq!(r.on_page(2, 9, 9, Some(0)), Step::Done { since: 100 });
        assert_eq!(r.on_timer(ids[3], 2), Some(Step::Idle));
    }

    #[test]
    fn a_page_is_capped_and_offers_the_cert_only_to_a_peer_behind_it() {
        use prb_consensus::checkpoint::CheckpointState;
        use prb_crypto::identity::NodeId;

        let mut chain = Chain::new(b"prb-chain", 8);
        for t in 0..5 {
            let (serial, prev) = (chain.next_serial(), chain.head_hash());
            let block = Block::build(serial, Vec::new(), prev, NodeId::governor(1), t);
            chain.append(block).unwrap();
        }
        let cert = CheckpointCert {
            state: CheckpointState {
                serial: 4,
                block_hash: chain.retrieve(4).unwrap().hash(),
                stakes: vec![4; 4],
                stake_nonces: vec![0; 4],
                reputation: Vec::new(),
            },
            sigs: Vec::new(),
        };
        let page = |have| match serve(&chain, Some(&cert), have, 2) {
            ProtocolMsg::SyncResponse { blocks, head, cert } => {
                let serials: Vec<u64> = blocks.iter().map(|b| b.serial).collect();
                (serials, head, cert.map(|c| c.state.serial))
            }
            _ => unreachable!("serve answers with a page"),
        };
        assert_eq!(page(0), (vec![1, 2], 5, Some(4)));
        assert_eq!(page(3), (vec![4, 5], 5, Some(4)));
        assert_eq!(page(4), (vec![5], 5, None), "not behind the cert");
        assert_eq!(page(5), (vec![], 5, None), "an empty page still answers");
        // The declared sizes: the page header, and the cert's state.
        assert_eq!(serve(&chain, None, 5, 2).wire_size(), 80);
        let offered = serve(&chain, Some(&cert), 0, 2).wire_size();
        assert_eq!(offered, 80 + 104 + 16 * 4);
    }

    #[test]
    fn a_foreign_timer_is_not_claimed() {
        let mut r = recovering(None);
        let ids = timers(2);
        r.armed(ids[0], 0);
        assert_eq!(r.on_timer(ids[1], 0), None);
        assert_eq!(r.on_timer(ids[0], 0), Some(Step::Ask(0)));
        assert_eq!(r.on_timer(ids[0], 0), None, "fires once");
    }
}
