//! Atomic (total-order) broadcast building blocks.
//!
//! §3.2/§3.3 of the paper require `broadcast_provider(·)` and
//! `broadcast_collector(·)` to implement an *atomic broadcast* (total-order
//! broadcast, [Cachin–Guerraoui–Rodrigues]) so that all recipients observe
//! the same transaction order. In a permissioned deployment this is
//! typically realized with a fixed sequencer; here the [`Sequencer`] stamps
//! each broadcast with a per-channel sequence number and each receiver runs
//! an [`OrderedInbox`] that releases messages in stamped order, buffering
//! gaps. Under the synchrony assumption every gap fills within Δ, so the
//! primitive is live.

use std::collections::BTreeMap;
use std::fmt;

/// Identifies one totally-ordered broadcast channel (e.g. "all uploads from
/// collector 3"). Each channel has independent sequence numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u64);

/// Sequence number within a channel, starting at 0.
pub type SeqNo = u64;

/// Assigns consecutive sequence numbers per channel.
///
/// One logical sequencer is owned by each broadcasting node for its own
/// channel (a node's own sends are trivially self-ordered), which matches
/// the "sender-sequenced FIFO atomic broadcast" construction valid when
/// each channel has a single writer.
#[derive(Clone, Debug, Default)]
pub struct Sequencer {
    next: BTreeMap<ChannelId, SeqNo>,
}

impl Sequencer {
    /// A sequencer with all channels at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next sequence number for `channel` and advances it.
    pub fn assign(&mut self, channel: ChannelId) -> SeqNo {
        let next = self.next.entry(channel).or_insert(0);
        let seq = *next;
        *next += 1;
        seq
    }

    /// The number that will be assigned next on `channel`.
    pub fn peek(&self, channel: ChannelId) -> SeqNo {
        self.next.get(&channel).copied().unwrap_or(0)
    }
}

/// Receiver-side reordering buffer: releases messages of one channel in
/// sequence order, buffering out-of-order arrivals.
///
/// # Examples
///
/// ```
/// use prb_net::order::{ChannelId, OrderedInbox};
///
/// let mut inbox = OrderedInbox::new();
/// let ch = ChannelId(0);
/// assert_eq!(inbox.push(ch, 1, "b").count(), 0); // gap: buffered
/// assert_eq!(inbox.push(ch, 0, "a").collect::<Vec<_>>(), ["a", "b"]);
/// ```
#[derive(Clone)]
pub struct OrderedInbox<M> {
    channels: BTreeMap<ChannelId, Channel<M>>,
}

/// One channel's receive state.
#[derive(Clone)]
struct Channel<M> {
    /// The next sequence number to release.
    expected: SeqNo,
    /// Arrivals ahead of `expected`.
    buffered: BTreeMap<SeqNo, M>,
}

impl<M> Default for Channel<M> {
    fn default() -> Self {
        Channel {
            expected: 0,
            buffered: BTreeMap::new(),
        }
    }
}

impl<M> fmt::Debug for OrderedInbox<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedInbox")
            .field("channels", &self.channels.len())
            .field("buffered", &self.pending())
            .finish()
    }
}

impl<M> Default for OrderedInbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> OrderedInbox<M> {
    /// An empty inbox.
    pub fn new() -> Self {
        OrderedInbox {
            channels: BTreeMap::new(),
        }
    }

    /// Ingests `(channel, seq, message)`; yields the messages that are now
    /// deliverable, in order (possibly none). An in-order arrival with
    /// nothing buffered behind it passes straight through.
    ///
    /// Duplicate or already-delivered sequence numbers are discarded.
    /// Messages the caller does not take from the iterator are released
    /// all the same, and dropped.
    pub fn push(&mut self, channel: ChannelId, seq: SeqNo, message: M) -> Released<'_, M> {
        let ch = self.channels.entry(channel).or_default();
        if seq == ch.expected {
            ch.expected += 1;
            return Released {
                first: Some(message),
                rest: (!ch.buffered.is_empty()).then_some(ch),
            };
        }
        if seq > ch.expected {
            ch.buffered.entry(seq).or_insert(message); // a duplicate keeps the first
        }
        Released {
            first: None,
            rest: None,
        }
    }

    /// Number of messages buffered waiting for a gap to fill.
    pub fn pending(&self) -> usize {
        self.channels.values().map(|ch| ch.buffered.len()).sum()
    }

    /// Next expected sequence number on `channel`.
    pub fn expected(&self, channel: ChannelId) -> SeqNo {
        self.channels.get(&channel).map_or(0, |ch| ch.expected)
    }
}

/// The messages one [`OrderedInbox::push`] released, in sequence order.
#[must_use = "released messages are dropped unless taken"]
pub struct Released<'a, M> {
    /// The arrival itself, when it was the one expected.
    first: Option<M>,
    /// The channel, while buffered messages may follow on from `first`.
    rest: Option<&'a mut Channel<M>>,
}

impl<M> fmt::Debug for Released<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Released").finish_non_exhaustive()
    }
}

impl<M> Iterator for Released<'_, M> {
    type Item = M;

    fn next(&mut self) -> Option<M> {
        if let Some(message) = self.first.take() {
            return Some(message);
        }
        let ch = self.rest.as_mut()?;
        let message = ch.buffered.remove(&ch.expected)?;
        ch.expected += 1;
        Some(message)
    }
}

impl<M> Drop for Released<'_, M> {
    fn drop(&mut self) {
        // The sequence has moved past `first`; what followed it in the
        // buffer is released with it whether or not anyone is looking.
        for _ in self.by_ref() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One push, with what it released.
    fn push<M>(inbox: &mut OrderedInbox<M>, ch: ChannelId, seq: SeqNo, message: M) -> Vec<M> {
        inbox.push(ch, seq, message).collect()
    }

    #[test]
    fn sequencer_is_per_channel() {
        let mut s = Sequencer::new();
        assert_eq!(s.assign(ChannelId(0)), 0);
        assert_eq!(s.assign(ChannelId(0)), 1);
        assert_eq!(s.assign(ChannelId(1)), 0);
        assert_eq!(s.peek(ChannelId(0)), 2);
        assert_eq!(s.peek(ChannelId(9)), 0);
    }

    #[test]
    fn in_order_passes_through() {
        let mut inbox = OrderedInbox::new();
        let ch = ChannelId(0);
        assert_eq!(push(&mut inbox, ch, 0, 'a'), ['a']);
        assert_eq!(push(&mut inbox, ch, 1, 'b'), ['b']);
        assert_eq!(inbox.pending(), 0);
    }

    #[test]
    fn out_of_order_is_buffered_then_released() {
        let mut inbox = OrderedInbox::new();
        let ch = ChannelId(0);
        assert!(push(&mut inbox, ch, 2, 'c').is_empty());
        assert!(push(&mut inbox, ch, 1, 'b').is_empty());
        assert_eq!(inbox.pending(), 2);
        assert_eq!(push(&mut inbox, ch, 0, 'a'), ['a', 'b', 'c']);
        assert_eq!(inbox.pending(), 0);
        assert_eq!(inbox.expected(ch), 3);
    }

    #[test]
    fn duplicates_are_dropped() {
        let mut inbox = OrderedInbox::new();
        let ch = ChannelId(0);
        assert_eq!(push(&mut inbox, ch, 0, 'a'), ['a']);
        assert!(push(&mut inbox, ch, 0, 'a').is_empty());
        // Duplicate of a buffered (not yet delivered) message.
        assert!(push(&mut inbox, ch, 2, 'c').is_empty());
        assert!(push(&mut inbox, ch, 2, 'x').is_empty());
        assert_eq!(push(&mut inbox, ch, 1, 'b'), ['b', 'c']);
    }

    #[test]
    fn an_untaken_release_still_advances_the_channel() {
        let mut inbox = OrderedInbox::new();
        let ch = ChannelId(0);
        assert!(push(&mut inbox, ch, 1, 'b').is_empty());
        assert!(push(&mut inbox, ch, 2, 'c').is_empty());
        // Take 'a' only: 'b' and 'c' were released by the same push and go
        // with the iterator, as they went with the returned `Vec` before.
        assert_eq!(inbox.push(ch, 0, 'a').next(), Some('a'));
        assert_eq!(inbox.pending(), 0);
        assert_eq!(inbox.expected(ch), 3);
        assert_eq!(push(&mut inbox, ch, 3, 'd'), ['d']);
    }

    #[test]
    fn channels_are_independent() {
        let mut inbox = OrderedInbox::new();
        assert!(push(&mut inbox, ChannelId(1), 1, 'x').is_empty());
        assert_eq!(push(&mut inbox, ChannelId(0), 0, 'a'), ['a']);
        assert_eq!(push(&mut inbox, ChannelId(1), 0, 'w'), ['w', 'x']);
    }

    #[test]
    fn total_order_property_random_arrival() {
        // Whatever the arrival permutation, delivery order is by seq.
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut order: Vec<u64> = (0..50).collect();
            order.shuffle(&mut rng);
            let mut inbox = OrderedInbox::new();
            let mut delivered = Vec::new();
            for seq in order {
                delivered.extend(inbox.push(ChannelId(0), seq, seq));
            }
            assert_eq!(delivered, (0..50).collect::<Vec<_>>());
        }
    }
}
