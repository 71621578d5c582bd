//! The table as it stood before slots shrank to 40 bytes: one map of
//! 80-byte slots, each holding its reports in a vector and its open-window
//! data in place. Kept as the reference the model test drives in lockstep
//! with [`super::TxTable`]; nothing outside the tests uses it.

// Kept as it was; the model test does not call every method.
#![allow(dead_code)]

use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};

use prb_crypto::fxhash::{fx_map_seeded, FxMap};
use prb_crypto::signer::{PublicKey, Sig};
use prb_ledger::transaction::{Label, SignedTx, TxId};
use prb_net::message::TimerId;

use super::{Outcome, QueuedSig, SigMemo, Upload};

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
mod tests {
    //! The 40-byte table against this one, in lockstep, over seeded random
    //! operation sequences: every answer and every slot must agree after
    //! every step.

    use super::super::tests::timers;
    use super::*;
    use prb_crypto::identity::NodeId;
    use prb_crypto::signer::{CryptoScheme, KeyPair};
    use prb_ledger::transaction::TxPayload;

    /// Ticks from a window's first copy to its screening.
    const DELTA: u64 = 3;

    /// SplitMix64: the test's own seeded stream.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// Both tables, each with its own signature memo, driven the way the
    /// governor drives them.
    struct Lockstep {
        new: super::super::TxTable,
        old: TxTable,
        new_memo: SigMemo,
        old_memo: SigMemo,
        pk: PublicKey,
        timer_ids: Vec<TimerId>,
        timers_set: usize,
        now: u64,
        unchecked: u64,
        /// Outcomes the tables returned, so a run can be seen to reach
        /// every path.
        seen: [usize; 6],
    }

    const OPENED: usize = 0;
    const LATE: usize = 1;
    const SPILLED: usize = 2;
    const FORGED: usize = 3;
    const REHOMED: usize = 4;
    const SHED_REOPENED: usize = 5;

    impl Lockstep {
        fn new(pk: PublicKey, timer_ids: Vec<TimerId>) -> Self {
            Lockstep {
                new: super::super::TxTable::new(7),
                old: TxTable::new(7),
                new_memo: SigMemo::new(7),
                old_memo: SigMemo::new(7),
                pk,
                timer_ids,
                timers_set: 0,
                now: 0,
                unchecked: 0,
                seen: [0; 6],
            }
        }

        /// One collector's copy, filed as `Governor::file_copy` files it.
        fn upload(
            &mut self,
            collector: u32,
            tx: &SignedTx,
            label: Label,
            r: usize,
            capacity: usize,
        ) {
            let key = (0, tx.id(), tx.provider_sig.clone());
            let verdict = self.new_memo.get(&key);
            assert_eq!(verdict, self.old_memo.get(&key));
            if verdict == Some(false) {
                return; // a known forgery never reaches the table
            }
            let entry = (tx.clone(), label);
            let (now, due) = (self.now, self.now + DELTA);
            let gen = self.new_memo.generation();
            assert_eq!(gen, self.old_memo.generation());
            let a = self.new.upload(collector, &entry, verdict, gen, now, due);
            let b = self.old.upload(collector, &entry, verdict, gen, now, r);
            assert_eq!(a, b, "upload");
            match a {
                Upload::Opened => {
                    self.seen[OPENED] += 1;
                    let offered = self.timer_ids[self.timers_set];
                    let (mut set_a, mut set_b) = (false, false);
                    self.new.arm(due, || {
                        set_a = true;
                        offered
                    });
                    self.old.arm(tx.id(), due, || {
                        set_b = true;
                        offered
                    });
                    assert_eq!(set_a, set_b, "one timer per due tick");
                    self.timers_set += usize::from(set_a);
                    loop {
                        let shed = self.new.shed_oldest(capacity);
                        assert_eq!(shed, self.old.shed_oldest(capacity), "shed order");
                        if shed.is_none() {
                            break;
                        }
                    }
                }
                Upload::Late => {
                    let ok = verdict
                        .unwrap_or_else(|| self.pk.verify(tx.signing_digest(), &tx.provider_sig));
                    if ok {
                        self.seen[LATE] += 1;
                        let a = self.new.late_report(&tx.id(), collector, label);
                        let b = self.old.late_report(&tx.id(), collector, label);
                        assert_eq!(a, b, "late report outcome");
                    }
                }
                Upload::Joined | Upload::Repeat | Upload::Known => {}
            }
        }

        /// Screens every window due by now, as `Governor::screen_due` does:
        /// one verified batch, then settle and screen.
        fn screen_due(&mut self, rng: &mut Mix) {
            loop {
                let old_id = loop {
                    match self.old.pop_due(self.now) {
                        Some(id) if self.old.in_window(&id) => break Some(id),
                        Some(_) => {}
                        None => break None,
                    }
                };
                let window = self.new.pop_due(self.now);
                assert_eq!(window.as_ref().map(|w| w.id), old_id, "pop_due order");
                let (Some(id), Some(window)) = (old_id, window) else {
                    return;
                };
                if self.new.windows.iter().any(|w| w.id == id) {
                    self.seen[SHED_REOPENED] += 1;
                }
                let a: Vec<QueuedSig> = self.new.batch().drain(..).collect();
                let b: Vec<QueuedSig> = self.old.batch().drain(..).collect();
                assert_eq!(a, b, "batched signatures");
                for (p, id, sig, digest) in a {
                    let ok = self.pk.verify(&digest, &sig);
                    self.new_memo.insert((p, id, sig.clone()), ok);
                    self.old_memo.insert((p, id, sig), ok);
                }
                let own = self.old.slot(&id).expect("open").tx.provider_sig.clone();
                let old = self.old.close_window(&id);
                let b = old.settle(&mut self.old_memo, Some(&self.pk));
                let new = self.new.slot_mut(&id).expect("open");
                let a = new.settle(window, &mut self.new_memo, Some(&self.pk));
                assert_eq!(a, b, "settle");
                self.seen[FORGED] += usize::from(!a.1.is_empty());
                self.seen[REHOMED] += usize::from(new.tx.provider_sig != own);
                if old.reports.is_empty() {
                    self.old.remove(&id);
                    self.new.remove(&id);
                    continue;
                }
                let outcome = if rng.chance(50) {
                    Outcome::Checked {
                        valid: rng.chance(50),
                    }
                } else {
                    self.unchecked += 1;
                    Outcome::Unchecked {
                        recorded: Label::from_validity(rng.chance(50)),
                        index: self.unchecked,
                        revealed: false,
                    }
                };
                let absent: Vec<u32> = if rng.chance(10) {
                    vec![5, 6]
                } else {
                    Vec::new()
                };
                let old = self.old.slot_mut(&id).expect("screened");
                old.state = SlotState::Screened {
                    outcome,
                    screened_at: self.now,
                    absent: (!absent.is_empty()).then(|| Box::new(absent.clone())),
                };
                self.new
                    .slot_mut(&id)
                    .expect("screened")
                    .screen(outcome, self.now, absent);
            }
        }

        /// A reveal, or an accepted argue, of `id`: both mark it revealed.
        fn reveal(&mut self, id: &TxId) {
            let Some(old) = self.old.slot_mut(id) else {
                return;
            };
            let SlotState::Screened {
                outcome: Outcome::Unchecked { revealed, .. },
                ..
            } = &mut old.state
            else {
                return;
            };
            *revealed = true;
            self.new.slot_mut(id).expect("same slots").mark_revealed();
        }

        /// Every slot, window, timer and queued signature agrees.
        fn assert_agree(&self) {
            let (new, old) = (&self.new, &self.old);
            assert_eq!(new.window_stats(), old.window_stats());
            assert_eq!(new.slots.len(), old.slots.len(), "same slots");
            assert_eq!(new.queue, old.queue, "queued signatures");
            assert_eq!(new.epoch, old.epoch);
            assert_eq!(new.timers, old.timers, "Δ timers");
            let dues: Vec<(u64, TxId)> = new.windows.iter().map(|w| (w.due, w.id)).collect();
            let want: Vec<(u64, TxId)> = old.windows.iter().copied().collect();
            assert_eq!(dues, want, "the Δ queue");
            for (id, b) in &old.slots {
                let a = new.slot(id).expect("same slots");
                assert_eq!(a.tx.id(), b.tx.id());
                assert_eq!(a.tx.provider_sig, b.tx.provider_sig, "re-homed alike");
                assert_eq!(a.provider(), b.provider);
                assert_eq!(a.reports().collect::<Vec<_>>(), b.reports, "reports");
                assert_eq!(a.report_count(), b.reports.len());
                match &b.state {
                    SlotState::Window(w) => {
                        let super::super::Stage::Window { seq } = a.stage else {
                            panic!("in its window in the reference");
                        };
                        let live = &new.windows[(seq - new.first_seq) as usize];
                        assert_eq!(live.id, *id);
                        assert_eq!(
                            (live.opened_at, live.genuine_in, live.queued_in),
                            (w.opened_at, w.genuine_in, w.queued_in)
                        );
                        let alt = w.alt_sigs.as_deref().map_or(&[][..], Vec::as_slice);
                        assert_eq!(live.alt_sigs, alt, "alternative signatures");
                    }
                    SlotState::Screened {
                        outcome,
                        screened_at,
                        absent,
                    } => {
                        assert_eq!(a.screened(), Some((*outcome, *screened_at)));
                        let absent = absent.as_deref().map_or(&[][..], Vec::as_slice);
                        assert_eq!(a.absent(), absent);
                    }
                }
            }
        }
    }

    /// `n` transactions of provider 0, each with a forged twin: the same
    /// payload under another key's signature.
    fn pool(key: &KeyPair, n: u64) -> Vec<(SignedTx, SignedTx)> {
        let forger = CryptoScheme::sim().keypair_from_seed(b"model-forger");
        (0..n)
            .map(|nonce| {
                let payload = TxPayload {
                    provider: NodeId::provider(0),
                    nonce,
                    data: vec![2],
                };
                let tx = SignedTx::create(payload, 1, key);
                let forged = tx
                    .clone()
                    .with_provider_sig(forger.sign(tx.signing_digest()));
                (tx, forged)
            })
            .collect()
    }

    fn run(seed: u64, r: u32, steps: usize, timer_ids: &[TimerId]) -> [usize; 6] {
        let key = CryptoScheme::sim().keypair_from_seed(b"model-p0");
        let txs = pool(&key, 10);
        let mut rng = Mix(seed);
        let mut t = Lockstep::new(key.public_key(), timer_ids.to_vec());
        let capacity = 4;
        for _ in 0..steps {
            match rng.below(100) {
                // A copy from one of the r linked collectors, now and then
                // from a straggler, sometimes under a forged signature.
                0..=59 => {
                    let (tx, forged) = &txs[rng.below(txs.len() as u64) as usize];
                    let collector = if rng.chance(10) {
                        r + rng.below(2) as u32
                    } else {
                        rng.below(u64::from(r)) as u32
                    };
                    let tx = if rng.chance(25) { forged } else { tx };
                    let label = Label::from_validity(rng.chance(80));
                    t.upload(collector, tx, label, r as usize, capacity);
                }
                60..=84 => {
                    t.now += rng.below(3);
                    t.screen_due(&mut rng);
                }
                85..=94 => {
                    let (tx, _) = &txs[rng.below(txs.len() as u64) as usize];
                    t.reveal(&tx.id());
                }
                _ if rng.chance(20) => {
                    t.new.drop_windows();
                    t.old.drop_windows();
                }
                _ => {
                    // A Δ timer fires: both tables must know it.
                    let front = t.old.timers.front().copied();
                    if let Some((timer, due)) = front {
                        t.now = t.now.max(due);
                        assert!(t.new.take_timer(timer) && t.old.take_timer(timer));
                        t.screen_due(&mut rng);
                    }
                }
            }
            t.assert_agree();
        }
        let spilled = t.new.slots.values().filter(|s| s.spill.is_some()).count();
        t.seen[SPILLED] = spilled;
        t.seen
    }

    #[test]
    fn the_compact_table_agrees_with_the_reference_step_by_step() {
        let timer_ids = timers(1_200);
        for r in [2, 3] {
            let mut seen = [0; 6];
            for seed in 0..24 {
                let run = run(seed * 2 + u64::from(r), r, 300, &timer_ids);
                for (total, n) in seen.iter_mut().zip(run) {
                    *total += n;
                }
            }
            // Every path was walked: windows opened, late reports, forged
            // copies named, a forged first copy re-homed, a shed window's
            // entry screening the reopened one — and slots spilled at r = 3
            // (third reports), at r = 2 only through absentees.
            assert!(seen.iter().all(|&n| n > 0), "r = {r}: {seen:?}");
        }
    }
}
