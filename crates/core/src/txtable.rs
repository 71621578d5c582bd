//! The governor's per-transaction state: screening and reveal as one
//! table of small state machines.
//!
//! Everything a governor remembers about a transaction lives in one
//! [`TxSlot`], found by one probe of one map. A slot is opened by the first
//! collector's copy and moves through
//!
//! ```text
//!   Window { opened_at, .. }  ──Δ timer──▶  Screened { outcome, screened_at, .. }
//!        │ shed, or every copy forged
//!        ▼
//!     (removed)
//! ```
//!
//! in place: later copies, the Δ timer, late reports, `Argue` and `Reveal`
//! all read and write the same slot. The table also keeps what is ordered
//! by *when a window opened* — the Δ timers and the shedding order are one
//! deque, because every window is given the same delay — and the provider
//! signatures waiting for the next batched verification.
//!
//! The table decides nothing about reputation, validation or the ledger:
//! the governor asks it what a copy or a timer means for the slot and acts
//! on the answer.

use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};

use prb_crypto::fxhash::{fx_map_seeded, FxMap};
use prb_crypto::signer::{PublicKey, Sig};
use prb_ledger::transaction::{Label, LabeledTx, SignedTx, TxId};
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
    /// starts its timer and hands it to [`TxTable::arm`].
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
    /// The Δ timer of every window opened and not yet fired, in the order
    /// they were set — which, all delays being equal, is the order they
    /// fire in and the order windows are shed in.
    windows: VecDeque<(TimerId, TxId)>,
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

    /// Files a collector's copy under its transaction's slot, opening a
    /// window if there is none (sized for `copies` reports). `verdict` is
    /// what the signature memo said about this copy's provider signature
    /// (`None`: unknown), read in memo generation `generation`; an unknown
    /// signature that counts toward the window is queued for the next
    /// batch unless it already is.
    pub(crate) fn upload(
        &mut self,
        ltx: &LabeledTx,
        verdict: Option<bool>,
        generation: u64,
        now: u64,
        copies: usize,
    ) -> Upload {
        let (tx, collector, label) = (&ltx.tx, ltx.collector.index, ltx.label);
        let (id, provider) = (tx.id(), tx.payload.provider.index);
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

    /// Records the Δ timer of the window [`upload`](Self::upload) just
    /// opened for `id`.
    pub(crate) fn arm(&mut self, timer: TimerId, id: TxId) {
        self.windows.push_back((timer, id));
    }

    /// While more than `capacity` windows are open, sheds the oldest one
    /// and returns its id; `None` once the pool fits, which is when the
    /// high-water mark is taken. The shed window's Δ timer later fires for
    /// a slot that is gone (or was opened again).
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

    /// If `timer` is the Δ timer of a window, forgets it and returns the
    /// transaction it was set for. Timers fire in the order they were set
    /// unless the node was down when one was due; that one never fires and
    /// stays queued (its window stays open, and can still be shed).
    pub(crate) fn take_timer(&mut self, timer: TimerId) -> Option<TxId> {
        let at = match self.windows.front() {
            Some((front, _)) if *front == timer => 0,
            _ => self
                .windows
                .binary_search_by_key(&timer, |(t, _)| *t)
                .ok()?,
        };
        let (_, id) = self.windows.remove(at)?;
        if at < self.shed_cursor {
            self.shed_cursor -= 1;
        }
        Some(id)
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
mod tests {
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

    fn timers(n: usize) -> Vec<TimerId> {
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
        let key = CryptoScheme::sim().keypair_from_seed(b"table-c");
        let ltx = LabeledTx::create(tx.clone(), Label::Valid, NodeId::collector(collector), &key);
        table.upload(&ltx, None, 1, 0, 2)
    }

    fn open(table: &mut TxTable, tx: &SignedTx, timer: TimerId) {
        assert_eq!(upload(table, tx, 0), Upload::Opened);
        table.arm(timer, tx.id());
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
        let txs: Vec<SignedTx> = (0..3).map(tx).collect();
        let mut table = TxTable::new(1);
        for (tx, timer) in txs.iter().zip(&ids) {
            open(&mut table, tx, *timer);
        }
        assert_eq!(table.take_timer(ids[3]), None, "never armed");
        assert_eq!(table.take_timer(ids[0]), Some(txs[0].id()));
        assert_eq!(table.take_timer(ids[0]), None, "fires once");
        assert_eq!(table.take_timer(ids[1]), Some(txs[1].id()));
        assert_eq!(table.take_timer(ids[2]), Some(txs[2].id()));
        assert!(table.windows.is_empty());
    }

    #[test]
    fn a_timer_lost_while_the_node_was_down_stays_queued_and_sheddable() {
        let ids = timers(3);
        let txs: Vec<SignedTx> = (0..3).map(tx).collect();
        let mut table = TxTable::new(1);
        for (tx, timer) in txs.iter().zip(&ids) {
            open(&mut table, tx, *timer);
        }
        // Timer 0 never fires (crash); 1 and 2 do, out of the front.
        assert_eq!(table.take_timer(ids[1]), Some(txs[1].id()));
        table.close_window(&txs[1].id());
        table.remove(&txs[1].id());
        assert_eq!(table.take_timer(ids[2]), Some(txs[2].id()));
        table.close_window(&txs[2].id());
        table.remove(&txs[2].id());
        // The orphan is still an open window, and the oldest.
        assert_eq!(table.open_windows(), 1);
        assert_eq!(table.shed_oldest(0), Some(txs[0].id()));
        assert_eq!(table.shed_oldest(0), None);
        assert_eq!(table.window_stats(), (0, 3, 1));
    }

    #[test]
    fn shedding_skips_windows_that_closed_and_keeps_its_place() {
        let ids = timers(4);
        let txs: Vec<SignedTx> = (0..4).map(tx).collect();
        let mut table = TxTable::new(1);
        for (tx, timer) in txs.iter().zip(&ids) {
            open(&mut table, tx, *timer);
        }
        assert_eq!(table.shed_oldest(3), Some(txs[0].id()));
        assert_eq!(table.shed_oldest(3), None);
        // The shed window's timer fires for nothing; the cursor follows
        // the deque as its front goes.
        assert_eq!(table.take_timer(ids[0]), Some(txs[0].id()));
        assert!(!table.in_window(&txs[0].id()));
        assert_eq!(table.shed_oldest(1), Some(txs[1].id()));
        assert_eq!(table.shed_oldest(1), Some(txs[2].id()));
        assert_eq!(table.shed_oldest(1), None);
        assert_eq!(table.window_stats(), (1, 4, 3));
    }

    #[test]
    fn a_key_is_queued_once_per_batch_even_across_a_shed() {
        let ids = timers(2);
        let a = tx(0);
        let mut table = TxTable::new(1);
        open(&mut table, &a, ids[0]);
        // Second reporter, same signature, same epoch: not queued again.
        assert_eq!(upload(&mut table, &a, 1), Upload::Joined);
        assert_eq!(table.queue.len(), 1);
        // Shed, then the transaction comes back before any batch ran.
        assert_eq!(table.shed_oldest(0), Some(a.id()));
        open(&mut table, &a, ids[1]);
        assert_eq!(table.queue.len(), 2);
        assert_eq!(table.batch().drain(..).count(), 1);
        // After a batch the same key may be queued afresh.
        assert_eq!(upload(&mut table, &a, 1), Upload::Joined);
        assert_eq!(table.batch().drain(..).count(), 1);
    }
}
