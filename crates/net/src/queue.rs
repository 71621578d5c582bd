//! The kernel's event queue: one FIFO per tick.
//!
//! The kernel orders events by `(at, seq)`, where `seq` grows with every
//! push. Inside one tick that order *is* arrival order, so a tick needs no
//! comparison at all — a plain FIFO per tick pops the same sequence a
//! binary heap over `(at, seq)` would, in O(1) and without sifting
//! event-sized values. `seq` is therefore never stored: it is the position
//! in the tick's bucket.
//!
//! Layout: a ring of [`HORIZON`] buckets covers the ticks
//! `[base, base + HORIZON)`, tick `t` living in slot `t % HORIZON`; events
//! further out wait in a `BTreeMap` keyed by tick and are moved into the
//! ring, bucket and all, the moment `base` advances far enough to cover
//! them. A tick beyond the horizon only ever receives pushes while it is
//! beyond the horizon, and only direct pushes afterwards, so every far push
//! precedes every direct push of the same tick and moving the far bucket
//! into the (still empty) slot keeps arrival order.
//!
//! What bounds the memory: a bucket's buffer is freed the moment its tick
//! has drained, so the buffers alive are those of the ticks that hold
//! events — never the ring's 256 slots at their high-water capacity — and
//! each is at most twice its tick's events. No drained buffer is kept for
//! reuse: a free-list of them (16 buffers of at most 512 events) measured
//! no faster on any benchmark workload and held 0.4 MB more at the peak of
//! `closed-faulty`, whose retry timers spread events over many sparse
//! ticks — the run a free-list that keeps high-water capacities hurts.

use std::collections::{BTreeMap, VecDeque};

use crate::time::SimTime;

/// Ticks covered by the ring. Link delays, Δ windows and first retries
/// all land inside it; later retries and driver commands go through the
/// far map.
const HORIZON: u64 = 256;

/// A time-ordered queue that pops in `(tick, push order)` order.
///
/// Pushes may not go backwards past the last popped tick.
///
/// # Examples
///
/// ```
/// use prb_net::queue::EventQueue;
/// use prb_net::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime(7), "late");
/// q.push(SimTime(3), "first");
/// q.push(SimTime(3), "second");
/// assert_eq!(q.next_tick(), Some(SimTime(3)));
/// assert_eq!(q.pop(), Some((SimTime(3), "first")));
/// assert_eq!(q.pop(), Some((SimTime(3), "second")));
/// assert_eq!(q.pop(), Some((SimTime(7), "late")));
/// assert!(q.is_empty());
/// ```
pub struct EventQueue<E> {
    /// Slot `t % HORIZON` holds tick `t` for `t` in `[base, base + HORIZON)`.
    ring: Box<[VecDeque<E>]>,
    /// The last popped tick: nothing earlier remains or may be pushed.
    base: u64,
    ring_len: usize,
    /// Ticks at or beyond `base + HORIZON`.
    far: BTreeMap<u64, VecDeque<E>>,
    far_len: usize,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("base", &self.base)
            .field("len", &self.len())
            .field("far", &self.far_len)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at tick 0.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..HORIZON).map(|_| VecDeque::new()).collect(),
            base: 0,
            ring_len: 0,
            far: BTreeMap::new(),
            far_len: 0,
        }
    }

    /// Events waiting.
    pub fn len(&self) -> usize {
        self.ring_len + self.far_len
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `event` to tick `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the last popped tick.
    pub fn push(&mut self, at: SimTime, event: E) {
        let at = at.ticks();
        assert!(at >= self.base, "cannot schedule in the past");
        if at - self.base >= HORIZON {
            self.far.entry(at).or_default().push_back(event);
            self.far_len += 1;
            return;
        }
        self.ring[(at % HORIZON) as usize].push_back(event);
        self.ring_len += 1;
    }

    /// The tick of the event [`pop`](Self::pop) would return.
    pub fn next_tick(&self) -> Option<SimTime> {
        if self.ring_len == 0 {
            return self.far.keys().next().map(|&at| SimTime(at));
        }
        // Some slot of the window holds an event, and far ticks lie beyond
        // every one of them.
        (self.base..)
            .find(|at| !self.ring[(at % HORIZON) as usize].is_empty())
            .map(SimTime)
    }

    /// Removes the earliest event — the first pushed among those of the
    /// earliest tick — and returns it with its tick.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.next_tick()?;
        self.advance(at.ticks());
        let slot = (at.ticks() % HORIZON) as usize;
        let event = self.ring[slot].pop_front().expect("next_tick found it");
        self.ring_len -= 1;
        if self.ring[slot].is_empty() {
            self.ring[slot] = VecDeque::new(); // frees the drained buffer
        }
        Some((at, event))
    }

    /// Moves the ring window to start at `to`, pulling in every far tick
    /// it now covers. Their slots are empty: a tick only takes direct
    /// pushes once the window covers it, which is now.
    fn advance(&mut self, to: u64) {
        if to == self.base {
            return;
        }
        self.base = to;
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() - to >= HORIZON {
                break;
            }
            let (tick, bucket) = entry.remove_entry();
            self.far_len -= bucket.len();
            self.ring_len += bucket.len();
            let slot = &mut self.ring[(tick % HORIZON) as usize];
            debug_assert!(slot.is_empty(), "a far tick's slot is untouched");
            *slot = bucket;
        }
    }
}
