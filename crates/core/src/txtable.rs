//! The governor's per-transaction state: screening and reveal as one
//! table of small state machines.
//!
//! Everything a governor remembers about a transaction lives in one
//! [`TxSlot`], found by one probe of one map. A slot is opened by the first
//! collector's copy and moves through
//!
//! ```text
//!   Window { opened_at, .. }  ──falls due──▶  Screened { outcome, screened_at, .. }
//!        │ shed, every copy forged, or a checkpoint adopted
//!        ▼
//!     (removed)
//! ```
//!
//! in place: later copies, the Δ timer, late reports, `Argue` and `Reveal`
//! all read and write the same slot. The table also keeps what is ordered
//! by *when a window opened* — the due ticks and the shedding order are
//! one deque, because every window is given the same delay — the Δ
//! timers, one per tick on which windows fall due, and the provider
//! signatures waiting for the next batched verification.
//!
//! A window is screened when its tick comes, whether or not a timer
//! fires then: a node that was down when the timer was due never sees
//! it, so the governor also asks for every window already past due at
//! the start of each round ([`TxTable::pop_due`]).
//!
//! The table decides nothing about reputation, validation or the ledger:
//! the governor asks it what a copy or a timer means for the slot and acts
//! on the answer.

use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};

use prb_crypto::fxhash::{fx_map_seeded, FxMap};
use prb_crypto::signer::{PublicKey, Sig};
use prb_ledger::transaction::{Label, SignedTx, TxId};
use prb_net::message::TimerId;

/// Entry cap for the provider-signature memo; the map is cleared when it
/// fills. 8192 entries (~100 bytes each) keep the governor's footprint
/// bounded however long the run.
const SIG_MEMO_MAX: usize = 8192;

/// How a screened transaction was resolved locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Validated by this governor; ground truth attached.
    Checked {
        /// The validation result.
        valid: bool,
    },
    /// Skipped validation; recorded under the drawn label.
    Unchecked {
        /// The label the block records.
        recorded: Label,
        /// Index in this provider's unchecked sequence (for the U bound).
        index: u64,
        /// Whether the real status has been revealed since (by `Reveal` or
        /// an accepted `Argue`); a second one is refused.
        revealed: bool,
    },
}

/// Memoized provider-signature verdicts, keyed by `(provider, tx id,
/// signature)`. Screening and block verification share it.
///
/// A verdict is a pure function of its key, so the only way one leaves is
/// a clear; [`generation`](Self::generation) moves with those, which lets
/// a reader that saw a verdict in generation `g` trust it without a second
/// probe for as long as the generation is still `g`.
#[derive(Debug)]
pub(crate) struct SigMemo {
    verdicts: FxMap<(u32, TxId, Sig), bool>,
    generation: u64,
}

impl SigMemo {
    pub(crate) fn new(hash_seed: u64) -> Self {
        SigMemo {
            verdicts: fx_map_seeded(hash_seed),
            generation: 1,
        }
    }

    /// The memoized verdict for `key`, if any.
    pub(crate) fn get(&self, key: &(u32, TxId, Sig)) -> Option<bool> {
        self.verdicts.get(key).copied()
    }

    /// One more than the times the memo has been cleared (never 0).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Memoizes a freshly verified verdict, clearing the memo first when
    /// it is full.
    pub(crate) fn insert(&mut self, key: (u32, TxId, Sig), ok: bool) {
        if self.verdicts.len() >= SIG_MEMO_MAX {
            self.verdicts.clear();
            self.generation += 1;
        }
        self.verdicts.insert(key, ok);
    }

    /// Puts back a verdict a clear dropped between the batch that settled
    /// it and the screening that needs it; never clears.
    fn restore(&mut self, key: (u32, TxId, Sig), ok: bool) {
        self.verdicts.insert(key, ok);
    }
}

/// A provider signature awaiting the next batched verification:
/// `(provider, tx id, signature, signing digest)`.
pub(crate) type QueuedSig = (u32, TxId, Sig, [u8; 32]);

/// Everything the governor remembers about one transaction.
#[derive(Debug)]
pub(crate) struct TxSlot {
    /// The transaction, as its first copy carried it (re-homed onto a
    /// verified signature at screening if that copy's was forged).
    pub(crate) tx: SignedTx,
    pub(crate) provider: u32,
    /// `(collector, label)` per reporting copy: in arrival order while the
    /// window is open, verified copies only and sorted by collector once
    /// screened, late reports appended after that.
    pub(crate) reports: Vec<(u32, Label)>,
    pub(crate) state: SlotState,
}

/// Where a transaction stands.
#[derive(Debug)]
pub(crate) enum SlotState {
    /// A transaction still inside its Δ aggregation window.
    Window(Window),
    /// Screened: checked, or recorded unchecked and awaiting its reveal.
    Screened {
        outcome: Outcome,
        /// Screening tick (reveal / argue spans).
        screened_at: u64,
        /// Linked collectors that were not active members when the tx was
        /// screened, if any. They owed no report, so a later reveal must
        /// not charge them a Missed loss — even if they have since
        /// (re)joined. Behind a thin pointer: there is a slot for every
        /// transaction ever seen and almost none has absentees.
        #[allow(clippy::box_collection)]
        absent: Option<Box<Vec<u32>>>,
    },
}

/// The open-window half of a slot: what is known so far about the
/// provider signatures its copies carried. Copies share the tx id (it
/// binds the signed payload) but a malicious relay can attach a different
/// signature, so verdicts are per copy.
#[derive(Debug)]
pub(crate) struct Window {
    /// Tick the first copy arrived (the screening span's start).
    opened_at: u64,
    /// The memo generation in which the memo last vouched for the slot
    /// transaction's own signature (0: it never has). A signature the
    /// memo knows to be forged never reaches a window.
    genuine_in: u64,
    /// The verification epoch in which that signature was last queued
    /// (0: never).
    queued_in: u64,
    /// Copies whose signature differs from the slot transaction's, as
    /// `(reporter, signature, epoch it was queued in or 0)`. Behind a
    /// thin pointer for the slot's size: only a misbehaving relay makes
    /// one.
    #[allow(clippy::box_collection)]
    alt_sigs: Option<Box<Vec<(u32, Sig, u64)>>>,
}

/// What a collector's copy means for the table ([`TxTable::upload`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Upload {
    /// First copy of the transaction: a Δ window was opened. The caller
    /// queues it with [`TxTable::arm`].
    Opened,
    /// One more report joined the open window.
    Joined,
    /// The reporter already has a copy in the open window; nothing joined.
    Repeat,
    /// Already screened, and this reporter is new: a late report, to be
    /// added with [`TxTable::late_report`] once its signature is settled.
    Late,
    /// Already screened and already reported by this collector.
    Known,
}

/// The per-transaction table of one governor.
#[derive(Debug)]
pub(crate) struct TxTable {
    slots: FxMap<TxId, TxSlot>,
    /// Every window opened and not yet due, as `(due tick, id)` in the
    /// order opened — which, all delays being equal, is the order they
    /// fall due in and the order windows are shed in.
    windows: VecDeque<(u64, TxId)>,
    /// The Δ timers set for them, as `(timer, due tick)`: one per tick on
    /// which windows fall due, in the order set.
    timers: VecDeque<(TimerId, u64)>,
    /// `windows[..shed_cursor]` have been considered for shedding.
    shed_cursor: usize,
    /// Slots in the `Window` state.
    open: usize,
    open_high_water: usize,
    shed: u64,
    /// Provider signatures queued since the last batch.
    queue: Vec<QueuedSig>,
    /// One more than the batches taken so far (never 0); stamps which
    /// batch a signature is queued for.
    epoch: u64,
    /// A window was shed since the last batch, so the queue may hold a key
    /// twice (once for the shed window, once for its successor).
    orphaned: bool,
}

impl TxTable {
    pub(crate) fn new(hash_seed: u64) -> Self {
        TxTable {
            slots: fx_map_seeded(hash_seed),
            windows: VecDeque::new(),
            timers: VecDeque::new(),
            shed_cursor: 0,
            open: 0,
            open_high_water: 0,
            shed: 0,
            queue: Vec::new(),
            epoch: 1,
            orphaned: false,
        }
    }

    /// `(open windows, their high-water mark, windows shed)`.
    pub(crate) fn window_stats(&self) -> (usize, usize, u64) {
        (self.open, self.open_high_water, self.shed)
    }

    /// Transactions still inside their Δ window.
    pub(crate) fn open_windows(&self) -> usize {
        self.open
    }

    pub(crate) fn slot(&self, id: &TxId) -> Option<&TxSlot> {
        self.slots.get(id)
    }

    pub(crate) fn slot_mut(&mut self, id: &TxId) -> Option<&mut TxSlot> {
        self.slots.get_mut(id)
    }

    /// Files `collector`'s copy `(tx, label)` under its transaction's
    /// slot, opening a window if there is none (sized for `copies`
    /// reports). `verdict` is what the signature memo said about this
    /// copy's provider signature (`None`: unknown), read in memo generation
    /// `generation`; an unknown signature that counts toward the window is
    /// queued for the next batch unless it already is.
    pub(crate) fn upload(
        &mut self,
        collector: u32,
        (tx, label): &(SignedTx, Label),
        verdict: Option<bool>,
        generation: u64,
        now: u64,
        copies: usize,
    ) -> Upload {
        let (id, provider, label) = (tx.id(), tx.payload.provider.index, *label);
        let queue_it = |queue: &mut Vec<QueuedSig>| {
            queue.push((provider, id, tx.provider_sig.clone(), *tx.signing_digest()));
        };
        let slot = match self.slots.entry(id) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(vacant) => {
                if verdict.is_none() {
                    queue_it(&mut self.queue);
                }
                let mut reports = Vec::with_capacity(copies);
                reports.push((collector, label));
                vacant.insert(TxSlot {
                    tx: tx.clone(),
                    provider,
                    reports,
                    state: SlotState::Window(Window {
                        opened_at: now,
                        genuine_in: if verdict.is_some() { generation } else { 0 },
                        queued_in: if verdict.is_none() { self.epoch } else { 0 },
                        alt_sigs: None,
                    }),
                });
                self.open += 1;
                return Upload::Opened;
            }
        };
        let known = slot.reports.iter().any(|(c, _)| *c == collector);
        let SlotState::Window(window) = &mut slot.state else {
            return if known { Upload::Known } else { Upload::Late };
        };
        if known {
            return Upload::Repeat;
        }
        let epoch = self.epoch;
        if tx.provider_sig == slot.tx.provider_sig {
            if verdict.is_some() {
                window.genuine_in = generation;
            } else if window.queued_in != epoch {
                window.queued_in = epoch;
                queue_it(&mut self.queue);
            }
        } else {
            let alt_sigs = window.alt_sigs.get_or_insert_with(Box::default);
            let queued = if verdict.is_none() { epoch } else { 0 };
            let already = alt_sigs
                .iter()
                .any(|(_, sig, at)| *at == epoch && *sig == tx.provider_sig);
            if queued != 0 && !already {
                queue_it(&mut self.queue);
            }
            alt_sigs.push((collector, tx.provider_sig.clone(), queued));
        }
        slot.reports.push((collector, label));
        Upload::Joined
    }

    /// Queues the window [`upload`](Self::upload) just opened for `id`,
    /// due at tick `due`. Windows due on the same tick share one Δ timer:
    /// the first of them sets it through `set_timer`.
    pub(crate) fn arm(&mut self, id: TxId, due: u64, set_timer: impl FnOnce() -> TimerId) {
        self.windows.push_back((due, id));
        if self.timers.back().is_none_or(|&(_, at)| at != due) {
            self.timers.push_back((set_timer(), due));
        }
    }

    /// While more than `capacity` windows are open, sheds the oldest one
    /// and returns its id; `None` once the pool fits, which is when the
    /// high-water mark is taken. The shed window later falls due for a slot
    /// that is gone (or was opened again).
    pub(crate) fn shed_oldest(&mut self, capacity: usize) -> Option<TxId> {
        while self.open > capacity {
            let Some(&(_, id)) = self.windows.get(self.shed_cursor) else {
                break;
            };
            self.shed_cursor += 1;
            if self.slots.get(&id).is_some_and(TxSlot::in_window) {
                self.slots.remove(&id);
                self.open -= 1;
                self.shed += 1;
                self.orphaned = true;
                return Some(id);
            }
        }
        self.open_high_water = self.open_high_water.max(self.open);
        None
    }

    /// Whether `timer` is a Δ timer of this table; forgets it if so.
    /// Timers fire in the order they were set unless the node was down
    /// when one was due; that one never fires, and is forgotten by the
    /// next [`pop_due`](Self::pop_due) past its tick.
    pub(crate) fn take_timer(&mut self, timer: TimerId) -> bool {
        let at = match self.timers.front() {
            Some((front, _)) if *front == timer => 0,
            _ => match self.timers.binary_search_by_key(&timer, |(t, _)| *t) {
                Ok(at) => at,
                Err(_) => return false,
            },
        };
        self.timers.remove(at);
        true
    }

    /// Takes the oldest window due at or before tick `tick`, if any; the
    /// caller screens it. Windows come out in the order they opened. The
    /// id may name a slot that was shed since (or opened again), so the
    /// caller re-checks [`in_window`](Self::in_window).
    pub(crate) fn pop_due(&mut self, tick: u64) -> Option<TxId> {
        while self.timers.front().is_some_and(|&(_, due)| due <= tick) {
            self.timers.pop_front(); // fired, or lost while the node was down
        }
        let &(due, id) = self.windows.front()?;
        if due > tick {
            return None;
        }
        self.windows.pop_front();
        self.shed_cursor = self.shed_cursor.saturating_sub(1);
        Some(id)
    }

    /// Forgets every open window and its Δ timer, as a checkpoint adoption
    /// must: a window's transaction may lie below the new anchor, where the
    /// chain can no longer tell that it was recorded. Screened slots stay.
    pub(crate) fn drop_windows(&mut self) {
        for (_, id) in self.windows.drain(..) {
            if self.slots.get(&id).is_some_and(TxSlot::in_window) {
                self.slots.remove(&id);
            }
        }
        debug_assert!(!self.slots.values().any(TxSlot::in_window));
        self.timers.clear();
        self.shed_cursor = 0;
        self.open = 0;
        // Their signatures may still be queued; one could come back.
        self.orphaned = true;
    }

    /// Whether `id` is inside its Δ window.
    pub(crate) fn in_window(&self, id: &TxId) -> bool {
        self.slots.get(id).is_some_and(TxSlot::in_window)
    }

    /// The open window of `id` is being screened: takes it out of the
    /// open count and returns the slot for the in-place transition (or
    /// [`remove`](Self::remove), if every copy turns out forged).
    ///
    /// # Panics
    ///
    /// Panics if `id` has no slot.
    pub(crate) fn close_window(&mut self, id: &TxId) -> &mut TxSlot {
        self.open -= 1;
        self.slots.get_mut(id).expect("caller saw the window")
    }

    /// Drops the slot of `id`.
    pub(crate) fn remove(&mut self, id: &TxId) {
        self.slots.remove(id);
    }

    /// Starts a batch: the signatures queued since the last one, each key
    /// once, in the order first queued. The caller verifies and drains
    /// them; whatever arrives afterwards queues for the next batch.
    pub(crate) fn batch(&mut self) -> &mut Vec<QueuedSig> {
        if !self.queue.is_empty() {
            self.epoch += 1;
        }
        if std::mem::take(&mut self.orphaned) {
            // A shed window's key is still queued; if the transaction came
            // back and opened a new window in the same epoch, the new slot
            // could not know and queued it again.
            let mut seen = HashSet::new();
            self.queue
                .retain(|(p, id, sig, _)| seen.insert((*p, *id, sig.clone())));
        }
        &mut self.queue
    }

    /// Appends a late report — one that arrived after screening — to the
    /// slot of `id` and returns how the transaction was resolved.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been screened.
    pub(crate) fn late_report(&mut self, id: &TxId, collector: u32, label: Label) -> Outcome {
        let slot = self.slots.get_mut(id).expect("caller saw the slot");
        let SlotState::Screened { outcome, .. } = slot.state else {
            panic!("late reports follow screening");
        };
        slot.reports.push((collector, label));
        outcome
    }
}

impl TxSlot {
    /// Whether the slot is still inside its Δ window.
    pub(crate) fn in_window(&self) -> bool {
        matches!(self.state, SlotState::Window(_))
    }

    /// Settles the provider signature of every copy the window gathered,
    /// after the batch holding them has been verified. Keeps the reports
    /// whose copy verified, sorted by collector; re-homes the transaction
    /// onto a verified signature if the first copy's was forged, so block
    /// entries never embed a bad one; returns the tick the window opened
    /// and the reporters whose copy was forged, in arrival order.
    ///
    /// A verdict the memo no longer holds (it filled and was cleared
    /// since the batch) is verified here against `pk` and put back.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in its window.
    pub(crate) fn settle(&mut self, memo: &mut SigMemo, pk: Option<&PublicKey>) -> (u64, Vec<u32>) {
        let SlotState::Window(window) = &mut self.state else {
            panic!("only an open window is settled");
        };
        let (provider, id, tx) = (self.provider, self.tx.id(), &self.tx);
        let mut own_ok = (window.genuine_in == memo.generation()).then_some(true);
        let mut resolve = |sig: &Sig| {
            let key = (provider, id, sig.clone());
            memo.get(&key).unwrap_or_else(|| {
                let ok = pk.is_some_and(|pk| pk.verify(tx.signing_digest(), sig));
                memo.restore(key, ok);
                ok
            })
        };
        let mut forged = Vec::new();
        let mut good_alt: Option<usize> = None;
        let alt_sigs = window.alt_sigs.as_deref().map_or(&[][..], Vec::as_slice);
        self.reports.retain(|(collector, _)| {
            let alt = alt_sigs.iter().position(|(c, _, _)| c == collector);
            let ok = match alt {
                Some(at) => resolve(&alt_sigs[at].1),
                None => *own_ok.get_or_insert_with(|| resolve(&tx.provider_sig)),
            };
            if ok {
                good_alt = good_alt.or(alt);
            } else {
                forged.push(*collector);
            }
            ok
        });
        if let (Some(false), Some(at), Some(alt_sigs)) = (own_ok, good_alt, &mut window.alt_sigs) {
            let good = alt_sigs.swap_remove(at).1;
            self.tx = self.tx.clone().with_provider_sig(good);
        }
        self.reports.sort_by_key(|(c, _)| *c);
        (window.opened_at, forged)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use prb_crypto::identity::NodeId;
    use prb_crypto::signer::CryptoScheme;
    use prb_ledger::transaction::TxPayload;
    use prb_net::sim::{Actor, Context, NetConfig, Network};
    use prb_net::time::{SimDuration, SimTime};
    use prb_net::Envelope;

    /// Hands out genuine kernel timer ids, in order.
    struct Clock(Vec<TimerId>);

    impl Actor for Clock {
        type Msg = ();
        fn on_message(&mut self, _: Envelope<()>, ctx: &mut Context<'_, ()>) {
            self.0.push(ctx.set_timer(SimDuration(1_000_000)));
        }
    }

    pub(crate) fn timers(n: usize) -> Vec<TimerId> {
        let mut net = Network::new(NetConfig::default(), 1);
        let clock = net.add_node(Clock(Vec::new()));
        for _ in 0..n {
            net.send_external(clock, "tick", (), SimTime(0));
        }
        net.run_until(SimTime(10));
        net.node(clock).0.clone()
    }

    fn tx(nonce: u64) -> SignedTx {
        let key = CryptoScheme::sim().keypair_from_seed(b"table-p0");
        SignedTx::create(
            TxPayload {
                provider: NodeId::provider(0),
                nonce,
                data: vec![1],
            },
            5,
            &key,
        )
    }

    /// Collector `collector`'s copy of `tx`, its signature unknown to the
    /// memo.
    fn upload(table: &mut TxTable, tx: &SignedTx, collector: u32) -> Upload {
        table.upload(collector, &(tx.clone(), Label::Valid), None, 1, 0, 2)
    }

    /// Opens a window for `tx` due at `due`, offering `timer` in case it is
    /// the first window due then.
    fn open(table: &mut TxTable, tx: &SignedTx, due: u64, timer: TimerId) {
        assert_eq!(upload(table, tx, 0), Upload::Opened);
        table.arm(tx.id(), due, || timer);
        assert_eq!(table.shed_oldest(usize::MAX), None);
    }

    #[test]
    fn a_slot_is_no_larger_than_the_history_record_it_replaced() {
        // One slot per transaction ever seen is what a governor's memory
        // grows by; the `TxRecord` of the old `history` map was 80 bytes.
        assert!(std::mem::size_of::<TxSlot>() <= 80);
    }

    #[test]
    fn timers_come_back_in_the_order_set_and_unknown_ones_are_not_ours() {
        let ids = timers(4);
        let txs: Vec<SignedTx> = (0..4).map(tx).collect();
        let mut table = TxTable::new(1);
        // Four windows due on three ticks: the two due at 10 share a timer.
        for ((tx, due), timer) in txs.iter().zip([10, 10, 11, 12]).zip(&ids) {
            open(&mut table, tx, due, *timer);
        }
        let set: Vec<_> = table.timers.iter().copied().collect();
        assert_eq!(set, [(ids[0], 10), (ids[2], 11), (ids[3], 12)]);
        assert!(!table.take_timer(ids[1]), "never set");
        assert!(table.take_timer(ids[0]));
        assert!(!table.take_timer(ids[0]), "fires once");
        // Everything due by the timer's tick comes out, in opening order.
        assert_eq!(table.pop_due(10), Some(txs[0].id()));
        assert_eq!(table.pop_due(10), Some(txs[1].id()));
        assert_eq!(table.pop_due(10), None);
        assert!(table.take_timer(ids[2]));
        assert_eq!(table.pop_due(11), Some(txs[2].id()));
        assert!(table.take_timer(ids[3]));
        assert_eq!(table.pop_due(12), Some(txs[3].id()));
        assert!(table.windows.is_empty() && table.timers.is_empty());
    }

    #[test]
    fn a_timer_lost_while_the_node_was_down_stays_queued_and_sheddable() {
        let ids = timers(3);
        let txs: Vec<SignedTx> = (0..3).map(tx).collect();
        let mut table = TxTable::new(1);
        for ((tx, due), timer) in txs.iter().zip([10, 11, 12]).zip(&ids) {
            open(&mut table, tx, due, *timer);
        }
        // Timer 0 never fires: the node was down at tick 10. Until someone
        // asks past tick 10 its window stays queued, open and sheddable.
        assert_eq!(table.open_windows(), 3);
        assert_eq!(table.shed_oldest(2), Some(txs[0].id()));
        assert_eq!(table.shed_oldest(2), None);
        // The next timer past tick 10 takes the shed window's entry (for
        // nothing) and forgets the lost timer, then takes its own window.
        assert!(table.take_timer(ids[1]));
        assert_eq!(table.pop_due(11), Some(txs[0].id()));
        assert!(!table.in_window(&txs[0].id()));
        assert_eq!(table.pop_due(11), Some(txs[1].id()));
        assert_eq!(table.pop_due(11), None);
        let left: Vec<_> = table.timers.iter().copied().collect();
        assert_eq!(left, [(ids[2], 12)], "the lost timer is forgotten");
        assert_eq!(table.window_stats(), (2, 3, 1));
    }

    #[test]
    fn a_window_past_due_comes_out_without_its_timer() {
        // ROADMAP item 4(c): down through tick 10, the node never sees the
        // timer of the window due then. A round start at tick 15 asks for
        // everything due before it and gets that window — and only it.
        let ids = timers(2);
        let txs: Vec<SignedTx> = (0..2).map(tx).collect();
        let mut table = TxTable::new(1);
        open(&mut table, &txs[0], 10, ids[0]);
        open(&mut table, &txs[1], 20, ids[1]);
        assert_eq!(table.pop_due(14), Some(txs[0].id()));
        assert_eq!(table.pop_due(14), None);
        let left: Vec<_> = table.timers.iter().copied().collect();
        assert_eq!(left, [(ids[1], 20)]);
        assert!(table.take_timer(ids[1]));
        assert_eq!(table.pop_due(20), Some(txs[1].id()));
    }

    #[test]
    fn shedding_skips_windows_that_closed_and_keeps_its_place() {
        let ids = timers(4);
        let txs: Vec<SignedTx> = (0..4).map(tx).collect();
        let mut table = TxTable::new(1);
        for ((tx, due), timer) in txs.iter().zip(10..).zip(&ids) {
            open(&mut table, tx, due, *timer);
        }
        assert_eq!(table.shed_oldest(3), Some(txs[0].id()));
        assert_eq!(table.shed_oldest(3), None);
        // The shed window falls due for nothing; the cursor follows the
        // deque as its front goes.
        assert!(table.take_timer(ids[0]));
        assert_eq!(table.pop_due(10), Some(txs[0].id()));
        assert!(!table.in_window(&txs[0].id()));
        assert_eq!(table.shed_oldest(1), Some(txs[1].id()));
        assert_eq!(table.shed_oldest(1), Some(txs[2].id()));
        assert_eq!(table.shed_oldest(1), None);
        assert_eq!(table.window_stats(), (1, 4, 3));
    }

    #[test]
    fn dropping_windows_forgets_them_and_their_timers_but_keeps_screened_slots() {
        let ids = timers(3);
        let txs: Vec<SignedTx> = (0..3).map(tx).collect();
        let mut table = TxTable::new(1);
        for ((tx, due), timer) in txs.iter().zip([10, 11, 12]).zip(&ids) {
            open(&mut table, tx, due, *timer);
        }
        assert!(table.take_timer(ids[0]));
        assert_eq!(table.pop_due(10), Some(txs[0].id()));
        table.close_window(&txs[0].id()).state = SlotState::Screened {
            outcome: Outcome::Checked { valid: true },
            screened_at: 10,
            absent: None,
        };
        table.drop_windows();
        assert_eq!(table.open_windows(), 0);
        assert!(table.slot(&txs[0].id()).is_some(), "screened stays");
        assert!(table.slot(&txs[1].id()).is_none() && table.slot(&txs[2].id()).is_none());
        assert!(!table.take_timer(ids[1]), "its timer is not ours any more");
        assert_eq!(table.pop_due(u64::MAX), None);
        // A copy that comes back opens a window afresh.
        open(&mut table, &txs[1], 20, ids[1]);
        assert_eq!(table.open_windows(), 1);
    }

    #[test]
    fn a_key_is_queued_once_per_batch_even_across_a_shed() {
        let ids = timers(2);
        let a = tx(0);
        let mut table = TxTable::new(1);
        open(&mut table, &a, 10, ids[0]);
        // Second reporter, same signature, same epoch: not queued again.
        assert_eq!(upload(&mut table, &a, 1), Upload::Joined);
        assert_eq!(table.queue.len(), 1);
        // Shed, then the transaction comes back before any batch ran.
        assert_eq!(table.shed_oldest(0), Some(a.id()));
        open(&mut table, &a, 11, ids[1]);
        assert_eq!(table.queue.len(), 2);
        assert_eq!(table.batch().drain(..).count(), 1);
        // After a batch the same key may be queued afresh.
        assert_eq!(upload(&mut table, &a, 1), Upload::Joined);
        assert_eq!(table.batch().drain(..).count(), 1);
    }
}
