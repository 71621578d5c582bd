//! The governor's per-transaction state: screening and reveal as one
//! table of small state machines.
//!
//! Everything a governor remembers about a transaction lives in one
//! 40-byte [`TxSlot`] in an arena, in the order the slots were opened. A
//! collector's copy finds its slot by one probe of a [`TxIndex`] from the
//! first four bytes of the tx id to arena position, an 8-byte bucket whose
//! hit is confirmed against the id of the slot it names; an open window
//! finds its slot by position, for the window carries it. A slot is opened
//! by the first collector's copy and moves through
//!
//! ```text
//!   Window { seq }  ──falls due──▶  Screened { at, outcome }
//!        │ shed, every copy forged, or a checkpoint adopted
//!        ▼
//!     (removed)
//! ```
//!
//! in place: later copies, the Δ timer, late reports, `Argue` and `Reveal`
//! all read and write the same slot. A slot holds its first two reports
//! inline and the screened outcome packed into one word; what few slots
//! need — a third report, absentees — sits behind one thin pointer. What
//! only an open window needs lives beside the Δ queue instead, in the
//! [`Window`] the slot's `seq` numbers: the due ticks and the shedding
//! order are one deque, because every window is given the same delay. The
//! table also keeps the Δ timers, one per tick on which windows fall due,
//! and the provider signatures waiting for the next batched verification.
//!
//! A queued signature carries its window's number, so the batch's verdict
//! on a genuine one is delivered to the window ([`TxTable::record`]) and
//! read from there when the window is screened; a screened slot vouches
//! for its own transaction's signature, for screening keeps only verified
//! reports. What [`SigMemo`] holds is the rest: forged verdicts, and
//! genuine ones whose window was gone — shed or dropped, taking what it
//! knew with it into the memo, or never there to receive them. So
//! screening a due window probes no map, and on an honest run the memo
//! stays empty.
//!
//! A window is screened when its tick comes, whether or not a timer
//! fires then: a node that was down when the timer was due never sees
//! it, so the governor also asks for every window already past due at
//! the start of each round ([`TxTable::pop_due`]).
//!
//! The table decides nothing about reputation, validation or the ledger:
//! the governor asks it what a copy or a timer means for the slot and acts
//! on the answer.

use std::collections::{HashSet, VecDeque};
use std::num::NonZeroU64;

use prb_crypto::signer::{PublicKey, Sig};
use prb_ledger::transaction::{Label, SignedTx, TxId};
use prb_ledger::txindex::TxIndex;
use prb_net::message::TimerId;
use prb_obs::fxhash::{fx_map, FxMap};

#[cfg(test)]
mod reference;

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

/// The key a provider signature is memoized and deduplicated under:
/// `(provider, tx id, signature)`.
pub(crate) fn sig_key(tx: &SignedTx) -> (u32, TxId, Sig) {
    (tx.payload.provider.index, tx.id(), tx.provider_sig.clone())
}

/// Memoized provider-signature verdicts, keyed by `(provider, tx id,
/// signature)`, for the verdicts no slot or window holds: forged ones, and
/// genuine ones whose window was shed, dropped or screened before they
/// came. Screening and block verification share it.
#[derive(Debug)]
struct SigMemo {
    verdicts: FxMap<(u32, TxId, Sig), bool>,
}

impl SigMemo {
    fn new() -> Self {
        SigMemo { verdicts: fx_map() }
    }

    /// The memoized verdict on `provider`'s signature `sig` over `id`, if
    /// any; an empty memo answers without building a key.
    fn get(&self, provider: u32, id: TxId, sig: &Sig) -> Option<bool> {
        if self.verdicts.is_empty() {
            return None;
        }
        self.verdicts.get(&(provider, id, sig.clone())).copied()
    }

    /// Memoizes a freshly verified verdict, clearing the memo first when
    /// it is full.
    fn insert(&mut self, key: (u32, TxId, Sig), ok: bool) {
        if self.verdicts.len() >= SIG_MEMO_MAX {
            self.verdicts.clear();
        }
        self.verdicts.insert(key, ok);
    }

    /// Verdicts held.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.verdicts.len()
    }
}

/// A provider signature awaiting the next batched verification: the copy
/// that carried it (its handle holds the provider, id, signature and
/// signing digest) and the number of the window it was queued for
/// ([`NO_WINDOW`]: none).
pub(crate) type QueuedSig = (SignedTx, u64);

/// The window number of a signature queued for no window.
pub(crate) const NO_WINDOW: u64 = u64::MAX;

/// One report, `collector << 1 | valid`: the collector's index and its
/// label bit.
type Report = u32;

/// An empty inline report place.
const NO_REPORT: Report = u32::MAX;

fn pack_report(collector: u32, label: Label) -> Report {
    assert!(collector < NO_REPORT >> 1, "a collector index fits 31 bits");
    collector << 1 | Report::from(label.is_valid())
}

fn unpack_report(report: Report) -> (u32, Label) {
    (report >> 1, Label::from_validity(report & 1 == 1))
}

/// An [`Outcome`] in one word: bit 0 is always set (so the slot's stage
/// has a niche to tag itself in), bit 1 marks an unchecked transaction,
/// bit 2 holds `valid` or the recorded label, bit 3 `revealed`, and the
/// bits above them the unchecked index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct PackedOutcome(NonZeroU64);

const UNCHECKED: u64 = 0b10;
const VALID: u64 = 0b100;
const REVEALED: u64 = 0b1000;
const INDEX_SHIFT: u32 = 4;

impl PackedOutcome {
    fn pack(outcome: Outcome) -> Self {
        let flag = |on: bool, bit: u64| if on { bit } else { 0 };
        let word = match outcome {
            Outcome::Checked { valid } => 1 | flag(valid, VALID),
            Outcome::Unchecked {
                recorded,
                index,
                revealed,
            } => {
                assert!(index < 1 << (64 - INDEX_SHIFT), "unchecked index overflow");
                1 | UNCHECKED
                    | flag(recorded.is_valid(), VALID)
                    | flag(revealed, REVEALED)
                    | (index << INDEX_SHIFT)
            }
        };
        PackedOutcome(NonZeroU64::new(word).expect("bit 0 is set"))
    }

    fn unpack(self) -> Outcome {
        let word = self.0.get();
        if word & UNCHECKED == 0 {
            Outcome::Checked {
                valid: word & VALID != 0,
            }
        } else {
            Outcome::Unchecked {
                recorded: Label::from_validity(word & VALID != 0),
                index: word >> INDEX_SHIFT,
                revealed: word & REVEALED != 0,
            }
        }
    }
}

/// Where a transaction stands.
#[derive(Clone, Copy, Debug)]
enum Stage {
    /// Inside its Δ window, whose data is entry `seq` of the table's
    /// window queue.
    Window { seq: u64 },
    /// Screened at tick `at`: checked, or recorded unchecked and awaiting
    /// its reveal.
    Screened { at: u64, outcome: PackedOutcome },
}

/// What few slots need, behind one thin pointer.
#[derive(Debug, Default)]
struct Spill {
    /// Reports past the two held inline, in order.
    reports: Vec<Report>,
    /// Linked collectors that were not active members when the tx was
    /// screened, if any. They owed no report, so a later reveal must not
    /// charge them a Missed loss — even if they have since (re)joined.
    absent: Vec<u32>,
}

/// Everything the governor remembers about one transaction.
///
/// Reports are `(collector, label)` per reporting copy: in arrival order
/// while the window is open, verified copies only and sorted by collector
/// once screened, late reports appended after that. The first two are
/// held inline; a third or later one, like the absentees, lives in the
/// spill.
#[derive(Debug)]
pub(crate) struct TxSlot {
    /// The transaction, as its first copy carried it (re-homed onto a
    /// verified signature at screening if that copy's was forged).
    pub(crate) tx: SignedTx,
    /// Filled from the front; [`NO_REPORT`] marks an empty place.
    reports: [Report; 2],
    spill: Option<Box<Spill>>,
    stage: Stage,
}

/// An open window's data, kept beside the Δ queue rather than in its slot:
/// where its slot is, and what is known so far about the provider
/// signatures its copies carried. Copies share the tx id (it binds the
/// signed payload) but a malicious relay can attach a different signature,
/// so verdicts are per copy: the window holds the verdict on its slot
/// transaction's own signature once that is known to be genuine, the memo
/// every other.
#[derive(Debug)]
pub(crate) struct Window {
    /// Tick the window falls due.
    due: u64,
    pub(crate) id: TxId,
    /// Tick the first copy arrived (the screening span's start).
    pub(crate) opened_at: u64,
    /// The verification epoch in which the slot transaction's own
    /// signature was last queued (0: never).
    queued_in: u64,
    /// The slot's position in the arena.
    pub(crate) slot: u32,
    /// Whether that signature is known to be genuine.
    own_ok: bool,
    /// Copies whose signature differs from the slot transaction's, as
    /// `(reporter, signature, epoch it was queued in or 0)`. Only a
    /// misbehaving relay makes one.
    alt_sigs: Vec<(u32, Sig, u64)>,
}

/// What a collector's copy means for the table ([`TxTable::upload`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Upload {
    /// The memo knows the copy's signature to be forged; nothing was
    /// filed.
    Forged,
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
    /// Where each transaction's slot is in `slots`. Never iterated, so it
    /// needs no hash seed.
    index: TxIndex<u32>,
    /// Every slot, in the order opened; `None` where one was removed (a
    /// shed or dropped window, or one whose every copy was forged). Slots
    /// fall due in the order they were opened, so screening walks it
    /// front to back.
    slots: Vec<Option<TxSlot>>,
    /// Every window opened and not yet due, in the order opened — which,
    /// all delays being equal, is the order they fall due in and the order
    /// windows are shed in. Only the front is ever taken out, so entry
    /// `seq` stays at `windows[seq - first_seq]`; a shed window's entry
    /// stays until it falls due, for nothing.
    windows: VecDeque<Window>,
    /// The number of `windows[0]`.
    first_seq: u64,
    /// The Δ timers set for them, as `(timer, due tick)`: one per tick on
    /// which windows fall due, in the order set.
    timers: VecDeque<(TimerId, u64)>,
    /// `windows[..shed_cursor]` have been considered for shedding.
    shed_cursor: usize,
    /// Slots in the `Window` stage.
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
    /// The verdicts no slot or window holds.
    memo: SigMemo,
}

/// The id of the transaction in `slots[at]`, a slot the index names.
fn indexed_id(slots: &[Option<TxSlot>], at: u32) -> TxId {
    slots[at as usize]
        .as_ref()
        .expect("an indexed slot")
        .tx
        .id()
}

/// Whether `slots[at]` is the slot of open window number `seq`. A window
/// whose slot was removed, or screened under another window's number,
/// names a slot that is not.
fn live(slots: &[Option<TxSlot>], at: u32, seq: u64) -> bool {
    matches!(
        slots[at as usize],
        Some(TxSlot { stage: Stage::Window { seq: open }, .. }) if open == seq
    )
}

impl TxTable {
    pub(crate) fn new() -> Self {
        TxTable {
            index: TxIndex::new(),
            slots: Vec::new(),
            windows: VecDeque::new(),
            first_seq: 0,
            timers: VecDeque::new(),
            shed_cursor: 0,
            open: 0,
            open_high_water: 0,
            shed: 0,
            queue: Vec::new(),
            epoch: 1,
            orphaned: false,
            memo: SigMemo::new(),
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

    /// Slots that needed their spill: more than two reports, or
    /// absentees.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.spill.is_some())
            .count()
    }

    /// Verdicts in the signature memo.
    #[cfg(test)]
    pub(crate) fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Where the slot of `id` is in the arena, if it has one.
    pub(crate) fn position(&self, id: &TxId) -> Option<u32> {
        self.index.get(id, |at| indexed_id(&self.slots, at))
    }

    pub(crate) fn slot(&self, id: &TxId) -> Option<&TxSlot> {
        self.position(id).map(|at| self.slot_at(at))
    }

    pub(crate) fn slot_mut(&mut self, id: &TxId) -> Option<&mut TxSlot> {
        let at = self.position(id)?;
        Some(self.slot_at_mut(at))
    }

    /// The slot at arena position `at`, as a [`Window`] names it.
    ///
    /// # Panics
    ///
    /// Panics if that slot was removed.
    pub(crate) fn slot_at(&self, at: u32) -> &TxSlot {
        self.slots[at as usize].as_ref().expect("a live slot")
    }

    /// [`slot_at`](Self::slot_at), mutably.
    pub(crate) fn slot_at_mut(&mut self, at: u32) -> &mut TxSlot {
        self.slots[at as usize].as_mut().expect("a live slot")
    }

    /// Where open window number `seq` is in the Δ queue, if it may be
    /// there.
    fn queue_at(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.first_seq)?).ok()
    }

    /// Files `collector`'s copy `(tx, label)` under its transaction's
    /// slot, opening a window due at tick `due` if there is none. Returns
    /// what the copy meant and what is known of its provider signature
    /// ([`knows`](Self::knows)), which costs no probe beyond the slot's
    /// own while the memo is empty. A signature still unknown that counts
    /// toward the window is queued for the next batch unless it already
    /// is.
    pub(crate) fn upload(
        &mut self,
        collector: u32,
        (tx, label): &(SignedTx, Label),
        now: u64,
        due: u64,
    ) -> (Upload, Option<bool>) {
        let (id, provider) = (tx.id(), tx.payload.provider.index);
        let verdict = self.memo.get(provider, id, &tx.provider_sig);
        if verdict == Some(false) {
            return (Upload::Forged, verdict);
        }
        let report = pack_report(collector, *label);
        let queue_it = |queue: &mut Vec<QueuedSig>, seq: u64| {
            queue.push((tx.clone(), seq));
        };
        let next = u32::try_from(self.slots.len()).expect("fewer than 2^32 slots");
        let slots = &self.slots;
        let (at, opened) = self
            .index
            .get_or_insert(id, next, |at| indexed_id(slots, at));
        if opened {
            let seq = self.first_seq + self.windows.len() as u64;
            if verdict.is_none() {
                queue_it(&mut self.queue, seq);
            }
            self.windows.push_back(Window {
                due,
                id,
                opened_at: now,
                queued_in: if verdict.is_none() { self.epoch } else { 0 },
                slot: at,
                own_ok: verdict.is_some(),
                alt_sigs: Vec::new(),
            });
            self.slots.push(Some(TxSlot {
                tx: tx.clone(),
                reports: [report, NO_REPORT],
                spill: None,
                stage: Stage::Window { seq },
            }));
            self.open += 1;
            return (Upload::Opened, verdict);
        }
        let slot = self.slots[at as usize].as_mut().expect("indexed");
        let known = slot.reported_by(collector);
        let own = tx.provider_sig == slot.tx.provider_sig;
        let Stage::Window { seq } = slot.stage else {
            let verdict = verdict.or(own.then_some(true));
            return (if known { Upload::Known } else { Upload::Late }, verdict);
        };
        let window = &mut self.windows[(seq - self.first_seq) as usize];
        debug_assert_eq!(window.id, id);
        let verdict = verdict.or((own && window.own_ok).then_some(true));
        if known {
            return (Upload::Repeat, verdict);
        }
        let epoch = self.epoch;
        if own {
            if verdict.is_some() {
                window.own_ok = true;
            } else if window.queued_in != epoch {
                window.queued_in = epoch;
                queue_it(&mut self.queue, seq);
            }
        } else {
            let queued = if verdict.is_none() { epoch } else { 0 };
            let already = window
                .alt_sigs
                .iter()
                .any(|(_, sig, at)| *at == epoch && *sig == tx.provider_sig);
            if queued != 0 && !already {
                queue_it(&mut self.queue, seq);
            }
            window
                .alt_sigs
                .push((collector, tx.provider_sig.clone(), queued));
        }
        slot.push_report(report);
        (Upload::Joined, verdict)
    }

    /// Files a batch's verdict on the signature `tx` carries, queued for open
    /// window number `seq`: a genuine verdict on the window's own
    /// signature goes to that window — `held`, if that is the one (out of
    /// the Δ queue for screening), else the one in the queue; the rest to
    /// the memo: forged verdicts, other copies' signatures, and verdicts
    /// whose window is gone (shed, dropped or screened).
    pub(crate) fn record(
        &mut self,
        seq: u64,
        tx: &SignedTx,
        ok: bool,
        held: Option<(u64, &mut Window)>,
    ) {
        if !(ok && self.vouch(seq, &tx.provider_sig, held)) {
            self.memo.insert(sig_key(tx), ok);
        }
    }

    /// Files the verdict on `tx`'s provider signature, checked on its own:
    /// as [`record`](Self::record) does, for the open window of `tx`, if
    /// any.
    pub(crate) fn record_checked(&mut self, tx: &SignedTx, ok: bool) {
        let seq = match self.slot(&tx.id()).map(|slot| slot.stage) {
            Some(Stage::Window { seq }) => seq,
            _ => NO_WINDOW,
        };
        self.record(seq, tx, ok, None);
    }

    /// Tells open window number `seq` (`held`, or one in the Δ queue) that
    /// its own signature is genuine, if `sig` is that signature; `false` if
    /// it is not or the window is gone.
    fn vouch(&mut self, seq: u64, sig: &Sig, held: Option<(u64, &mut Window)>) -> bool {
        let window = match held {
            Some((held_seq, window)) if held_seq == seq => window,
            _ => match self.queue_at(seq).and_then(|at| self.windows.get_mut(at)) {
                Some(window) if live(&self.slots, window.slot, seq) => window,
                _ => return false,
            },
        };
        let slot = self.slots[window.slot as usize].as_ref().expect("live");
        let own = *sig == slot.tx.provider_sig;
        window.own_ok |= own;
        own
    }

    /// What is known of `tx`'s provider signature: genuine if it is its
    /// slot's own and the slot is screened (screening keeps only verified
    /// reports, and re-homes the slot onto a verified signature) or its
    /// open window was told so; otherwise whatever the memo says.
    pub(crate) fn knows(&self, tx: &SignedTx) -> Option<bool> {
        let (id, sig) = (tx.id(), &tx.provider_sig);
        let genuine = self.slot(&id).is_some_and(|slot| {
            *sig == slot.tx.provider_sig
                && match slot.stage {
                    Stage::Screened { .. } => true,
                    Stage::Window { seq } => self
                        .queue_at(seq)
                        .and_then(|at| self.windows.get(at))
                        .is_some_and(|w| w.own_ok),
                }
        });
        if genuine {
            return Some(true);
        }
        self.memo.get(tx.payload.provider.index, id, sig)
    }

    /// Arms the Δ timer for the window [`upload`](Self::upload) just
    /// opened, due at tick `due`. Windows due on the same tick share one
    /// timer: the first of them sets it through `set_timer`.
    pub(crate) fn arm(&mut self, due: u64, set_timer: impl FnOnce() -> TimerId) {
        debug_assert_eq!(self.windows.back().map(|w| w.due), Some(due));
        if self.timers.back().is_none_or(|&(_, at)| at != due) {
            self.timers.push_back((set_timer(), due));
        }
    }

    /// Drops the slot of the open window `windows[at]`, handing the
    /// window's verdict, if it has one, to the memo.
    fn forget_window(&mut self, at: usize) {
        let window = &self.windows[at];
        let slot = self.slots[window.slot as usize]
            .take()
            .expect("a live slot");
        if window.own_ok {
            self.memo.insert(sig_key(&slot.tx), true);
        }
        let removed = self.index.remove(&window.id, window.slot);
        debug_assert!(removed, "a live window's slot is indexed");
    }

    /// While more than `capacity` windows are open, sheds the oldest one
    /// and returns its id; `None` once the pool fits, which is when the
    /// high-water mark is taken. The shed window later falls due for a slot
    /// that is gone (or was opened again).
    pub(crate) fn shed_oldest(&mut self, capacity: usize) -> Option<TxId> {
        while self.open > capacity {
            let (at, seq) = (self.shed_cursor, self.first_seq + self.shed_cursor as u64);
            let Some(&Window { id, slot, .. }) = self.windows.get(at) else {
                break;
            };
            self.shed_cursor += 1;
            if live(&self.slots, slot, seq) {
                self.forget_window(at);
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

    /// Takes the windows due at or before tick `tick` in the order they
    /// opened, and returns the first that still names an open window, with
    /// its number, if any: the caller settles it ([`settle`](Self::settle))
    /// and screens its slot. An entry whose slot was shed since (or screened
    /// early) falls due for nothing; one whose slot was shed and opened
    /// again stands for the new window, which is screened now. Only such a
    /// stale entry costs a probe of the index.
    pub(crate) fn pop_due(&mut self, tick: u64) -> Option<(u64, Window)> {
        while self.timers.front().is_some_and(|&(_, due)| due <= tick) {
            self.timers.pop_front(); // fired, or lost while the node was down
        }
        while self.windows.front()?.due <= tick {
            let popped = self.windows.pop_front().expect("front seen");
            let seq = self.first_seq;
            self.first_seq += 1;
            self.shed_cursor = self.shed_cursor.saturating_sub(1);
            if live(&self.slots, popped.slot, seq) {
                self.open -= 1;
                return Some((seq, popped));
            }
            let Some(at) = self.position(&popped.id) else {
                continue;
            };
            let Stage::Window { seq: open } = self.slot_at(at).stage else {
                continue;
            };
            self.open -= 1;
            let live = &mut self.windows[(open - self.first_seq) as usize];
            let alt_sigs = std::mem::take(&mut live.alt_sigs);
            return Some((open, Window { alt_sigs, ..*live }));
        }
        None
    }

    /// Forgets every open window and its Δ timer, as a checkpoint adoption
    /// must: a window's transaction may lie below the new anchor, where the
    /// chain can no longer tell that it was recorded. Screened slots stay.
    pub(crate) fn drop_windows(&mut self) {
        for (at, seq) in (0..self.windows.len()).zip(self.first_seq..) {
            if live(&self.slots, self.windows[at].slot, seq) {
                self.forget_window(at);
            }
        }
        self.first_seq += self.windows.len() as u64;
        self.windows.clear();
        debug_assert!(!self.slots.iter().flatten().any(TxSlot::in_window));
        self.timers.clear();
        self.shed_cursor = 0;
        self.open = 0;
        // Their signatures may still be queued; one could come back.
        self.orphaned = true;
    }

    /// Whether `id` is inside its Δ window.
    #[cfg(test)]
    pub(crate) fn in_window(&self, id: &TxId) -> bool {
        self.slot(id).is_some_and(TxSlot::in_window)
    }

    /// Drops the slot at `at`, a window whose every copy was forged.
    pub(crate) fn remove(&mut self, at: u32) {
        let slot = self.slots[at as usize].take().expect("a live slot");
        self.index.remove(&slot.tx.id(), at);
    }

    /// Settles window `window` (see [`TxSlot::settle`]), with the memo's
    /// verdicts.
    pub(crate) fn settle(&mut self, window: Window, pk: Option<&PublicKey>) -> (u64, Vec<u32>) {
        let slot = self.slots[window.slot as usize]
            .as_mut()
            .expect("a due window's slot");
        slot.settle(window, &self.memo, pk)
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
            // could not know and queued it again. The first is kept, and
            // its verdict, finding its window gone, goes to the memo.
            let mut seen = HashSet::new();
            self.queue.retain(|(tx, _)| seen.insert(sig_key(tx)));
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
        let slot = self.slot_mut(id).expect("caller saw the slot");
        let (outcome, _) = slot.screened().expect("late reports follow screening");
        slot.push_report(pack_report(collector, label));
        outcome
    }
}

impl TxSlot {
    /// The transaction's provider.
    pub(crate) fn provider(&self) -> u32 {
        self.tx.payload.provider.index
    }

    /// Whether the slot is still inside its Δ window.
    pub(crate) fn in_window(&self) -> bool {
        matches!(self.stage, Stage::Window { .. })
    }

    /// How the transaction was resolved and the tick it was screened at;
    /// `None` while it is in its window.
    pub(crate) fn screened(&self) -> Option<(Outcome, u64)> {
        match self.stage {
            Stage::Window { .. } => None,
            Stage::Screened { at, outcome } => Some((outcome.unpack(), at)),
        }
    }

    /// Screens the slot: records how it was resolved, at tick `at`, and
    /// the linked collectors that were not active members then.
    pub(crate) fn screen(&mut self, outcome: Outcome, at: u64, absent: Vec<u32>) {
        debug_assert!(self.in_window(), "a slot is screened once");
        let outcome = PackedOutcome::pack(outcome);
        self.stage = Stage::Screened { at, outcome };
        if !absent.is_empty() {
            self.spill.get_or_insert_with(Box::default).absent = absent;
        }
    }

    /// Marks an unchecked transaction's real status revealed.
    ///
    /// # Panics
    ///
    /// Panics unless the slot was screened unchecked.
    pub(crate) fn mark_revealed(&mut self) {
        let Stage::Screened { outcome, .. } = &mut self.stage else {
            panic!("only a screened transaction is revealed");
        };
        let word = outcome.0.get();
        assert!(
            word & UNCHECKED != 0,
            "only unchecked transactions are revealed"
        );
        outcome.0 |= REVEALED;
    }

    /// Collectors that were absent when the transaction was screened.
    pub(crate) fn absent(&self) -> &[u32] {
        self.spill.as_ref().map_or(&[], |s| &s.absent)
    }

    /// The `(collector, label)` reports, in order.
    pub(crate) fn reports(&self) -> impl Iterator<Item = (u32, Label)> + '_ {
        let spilled = self.spill.as_ref().map_or(&[][..], |s| &s.reports[..]);
        self.reports
            .iter()
            .take_while(|&&r| r != NO_REPORT)
            .chain(spilled)
            .map(|&r| unpack_report(r))
    }

    /// How many reports the slot holds.
    pub(crate) fn report_count(&self) -> usize {
        let inline = self.reports.iter().take_while(|&&r| r != NO_REPORT).count();
        inline + self.spill.as_ref().map_or(0, |s| s.reports.len())
    }

    /// Whether `collector` has a report here.
    pub(crate) fn reported_by(&self, collector: u32) -> bool {
        self.reports().any(|(c, _)| c == collector)
    }

    fn report_at(&self, at: usize) -> Report {
        match self.reports.get(at) {
            Some(&r) => r,
            None => self.spill.as_ref().expect("spilled").reports[at - 2],
        }
    }

    fn set_report_at(&mut self, at: usize, report: Report) {
        match self.reports.get_mut(at) {
            Some(r) => *r = report,
            None => self.spill.as_mut().expect("spilled").reports[at - 2] = report,
        }
    }

    fn push_report(&mut self, report: Report) {
        match self.reports.iter_mut().find(|r| **r == NO_REPORT) {
            Some(r) => *r = report,
            None => self
                .spill
                .get_or_insert_with(Box::default)
                .reports
                .push(report),
        }
    }

    /// Keeps the first `n` reports, dropping the spill if nothing is left
    /// in it.
    fn truncate_reports(&mut self, n: usize) {
        for r in self.reports.iter_mut().skip(n) {
            *r = NO_REPORT;
        }
        if let Some(spill) = &mut self.spill {
            spill.reports.truncate(n.saturating_sub(2));
            if spill.reports.is_empty() && spill.absent.is_empty() {
                self.spill = None;
            }
        }
    }

    /// Settles the provider signature of every copy `window` gathered,
    /// after the batch holding them has been verified. Keeps the reports
    /// whose copy verified, sorted by collector; re-homes the transaction
    /// onto a verified signature if the first copy's was forged, so block
    /// entries never embed a bad one; returns the tick the window opened
    /// and the reporters whose copy was forged, in arrival order.
    ///
    /// The window knows whether its own signature is genuine; the memo
    /// holds every other verdict, and the own one when the batch named a
    /// window shed before this one opened. A verdict neither holds (the
    /// memo filled and was cleared since the batch) is verified here
    /// against `pk`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not in its window.
    fn settle(
        &mut self,
        mut window: Window,
        memo: &SigMemo,
        pk: Option<&PublicKey>,
    ) -> (u64, Vec<u32>) {
        assert!(self.in_window(), "only an open window is settled");
        let (provider, id, tx) = (self.provider(), self.tx.id(), &self.tx);
        let resolve = |sig: &Sig| {
            memo.get(provider, id, sig)
                .unwrap_or_else(|| pk.is_some_and(|pk| pk.verify(tx.signing_digest(), sig)))
        };
        let mut own_ok = window.own_ok.then_some(true);
        let mut forged = Vec::new();
        let mut good_alt: Option<usize> = None;
        for (collector, _) in self.reports() {
            let alt = window.alt_sigs.iter().position(|(c, _, _)| *c == collector);
            let ok = match alt {
                Some(at) => resolve(&window.alt_sigs[at].1),
                None => *own_ok.get_or_insert_with(|| resolve(&tx.provider_sig)),
            };
            if ok {
                good_alt = good_alt.or(alt);
            } else {
                forged.push(collector);
            }
        }
        if let (Some(false), Some(at)) = (own_ok, good_alt) {
            let good = window.alt_sigs.swap_remove(at).1;
            self.tx = self.tx.clone().with_provider_sig(good);
        }
        self.keep_verified(&forged);
        (window.opened_at, forged)
    }

    /// Keeps the reports whose collector is not in `forged`, then sorts
    /// them by collector in place (collectors are distinct, and a slot
    /// holds a handful).
    fn keep_verified(&mut self, forged: &[u32]) {
        let mut kept = 0;
        for at in 0..self.report_count() {
            let report = self.report_at(at);
            if !forged.contains(&(report >> 1)) {
                self.set_report_at(kept, report);
                kept += 1;
            }
        }
        self.truncate_reports(kept);
        for at in 1..kept {
            let mut hole = at;
            let report = self.report_at(at);
            while hole > 0 && self.report_at(hole - 1) > report {
                self.set_report_at(hole, self.report_at(hole - 1));
                hole -= 1;
            }
            self.set_report_at(hole, report);
        }
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
    /// memo; a window it opens is due at tick `due`.
    fn upload_due(table: &mut TxTable, tx: &SignedTx, collector: u32, due: u64) -> Upload {
        table
            .upload(collector, &(tx.clone(), Label::Valid), 0, due)
            .0
    }

    fn upload(table: &mut TxTable, tx: &SignedTx, collector: u32) -> Upload {
        upload_due(table, tx, collector, 2)
    }

    /// Opens a window for `tx` due at `due`, offering `timer` in case it is
    /// the first window due then.
    fn open(table: &mut TxTable, tx: &SignedTx, due: u64, timer: TimerId) {
        assert_eq!(upload_due(table, tx, 0, due), Upload::Opened);
        table.arm(due, || timer);
        assert_eq!(table.shed_oldest(usize::MAX), None);
    }

    /// The id of the next window due by `tick` that is still open.
    fn pop_due(table: &mut TxTable, tick: u64) -> Option<TxId> {
        table.pop_due(tick).map(|(_, w)| w.id)
    }

    #[test]
    fn a_slot_is_no_larger_than_the_history_record_it_replaced() {
        // One slot per transaction ever seen is what a governor's memory
        // grows by; the `TxRecord` of the old `history` map was 80 bytes,
        // and so was the slot before its reports went inline and its
        // open-window data moved beside the Δ queue.
        assert!(std::mem::size_of::<TxSlot>() <= 40);
    }

    #[test]
    fn an_index_entry_is_at_most_8_bytes() {
        // A transaction's bucket in the index, one per transaction ever
        // seen: four bytes of its id and its slot's arena position.
        assert!(std::mem::size_of::<(u32, u32)>() <= 8);
    }

    #[test]
    fn layout_is_reported() {
        use prb_ledger::block::BlockEntry;
        use prb_ledger::transaction::TxBody;
        println!(
            "per-transaction layout: TxSlot {} B, index entry {} B, chain index entry {} B, \
             Window {} B, Event<ProtocolMsg> {} B, BlockEntry {} B, TxBody {} B",
            std::mem::size_of::<TxSlot>(),
            std::mem::size_of::<(u32, u32)>(),
            prb_ledger::chain::Chain::INDEX_BUCKET_BYTES,
            std::mem::size_of::<Window>(),
            prb_net::sim::event_size::<crate::msg::ProtocolMsg>(),
            std::mem::size_of::<BlockEntry>(),
            std::mem::size_of::<TxBody>(),
        );
    }

    #[test]
    fn an_outcome_survives_packing() {
        let outcomes = [
            Outcome::Checked { valid: true },
            Outcome::Checked { valid: false },
            Outcome::Unchecked {
                recorded: Label::Invalid,
                index: 0,
                revealed: false,
            },
            Outcome::Unchecked {
                recorded: Label::Valid,
                index: (1 << 60) - 1,
                revealed: true,
            },
        ];
        for outcome in outcomes {
            assert_eq!(PackedOutcome::pack(outcome).unpack(), outcome);
        }
    }

    #[test]
    #[should_panic(expected = "unchecked index overflow")]
    fn an_unchecked_index_past_60_bits_is_refused() {
        PackedOutcome::pack(Outcome::Unchecked {
            recorded: Label::Valid,
            index: 1 << 60,
            revealed: false,
        });
    }

    #[test]
    fn timers_come_back_in_the_order_set_and_unknown_ones_are_not_ours() {
        let ids = timers(4);
        let txs: Vec<SignedTx> = (0..4).map(tx).collect();
        let mut table = TxTable::new();
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
        assert_eq!(pop_due(&mut table, 10), Some(txs[0].id()));
        assert_eq!(pop_due(&mut table, 10), Some(txs[1].id()));
        assert_eq!(pop_due(&mut table, 10), None);
        assert!(table.take_timer(ids[2]));
        assert_eq!(pop_due(&mut table, 11), Some(txs[2].id()));
        assert!(table.take_timer(ids[3]));
        assert_eq!(pop_due(&mut table, 12), Some(txs[3].id()));
        assert!(table.windows.is_empty() && table.timers.is_empty());
        assert_eq!(table.first_seq, 4, "numbering runs on past the front");
    }

    #[test]
    fn a_timer_lost_while_the_node_was_down_stays_queued_and_sheddable() {
        let ids = timers(3);
        let txs: Vec<SignedTx> = (0..3).map(tx).collect();
        let mut table = TxTable::new();
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
        assert_eq!(pop_due(&mut table, 11), Some(txs[1].id()));
        assert!(!table.in_window(&txs[0].id()));
        assert_eq!(pop_due(&mut table, 11), None);
        let left: Vec<_> = table.timers.iter().copied().collect();
        assert_eq!(left, [(ids[2], 12)], "the lost timer is forgotten");
        assert_eq!(table.window_stats(), (1, 3, 1));
    }

    #[test]
    fn a_window_past_due_comes_out_without_its_timer() {
        // ROADMAP item 4(c): down through tick 10, the node never sees the
        // timer of the window due then. A round start at tick 15 asks for
        // everything due before it and gets that window — and only it.
        let ids = timers(2);
        let txs: Vec<SignedTx> = (0..2).map(tx).collect();
        let mut table = TxTable::new();
        open(&mut table, &txs[0], 10, ids[0]);
        open(&mut table, &txs[1], 20, ids[1]);
        assert_eq!(pop_due(&mut table, 14), Some(txs[0].id()));
        assert_eq!(pop_due(&mut table, 14), None);
        let left: Vec<_> = table.timers.iter().copied().collect();
        assert_eq!(left, [(ids[1], 20)]);
        assert!(table.take_timer(ids[1]));
        assert_eq!(pop_due(&mut table, 20), Some(txs[1].id()));
    }

    #[test]
    fn shedding_skips_windows_that_closed_and_keeps_its_place() {
        let ids = timers(4);
        let txs: Vec<SignedTx> = (0..4).map(tx).collect();
        let mut table = TxTable::new();
        for ((tx, due), timer) in txs.iter().zip(10..).zip(&ids) {
            open(&mut table, tx, due, *timer);
        }
        assert_eq!(table.shed_oldest(3), Some(txs[0].id()));
        assert_eq!(table.shed_oldest(3), None);
        // The shed window falls due for nothing; the cursor follows the
        // deque as its front goes.
        assert!(table.take_timer(ids[0]));
        assert_eq!(pop_due(&mut table, 10), None);
        assert!(!table.in_window(&txs[0].id()));
        assert_eq!(table.shed_oldest(1), Some(txs[1].id()));
        assert_eq!(table.shed_oldest(1), Some(txs[2].id()));
        assert_eq!(table.shed_oldest(1), None);
        assert_eq!(table.window_stats(), (1, 4, 3));
    }

    #[test]
    fn a_shed_window_falling_due_screens_the_reopened_one() {
        let ids = timers(2);
        let a = tx(0);
        let mut table = TxTable::new();
        open(&mut table, &a, 10, ids[0]);
        assert_eq!(table.shed_oldest(0), Some(a.id()));
        // The transaction comes back; its new window is due at 11, but
        // the shed window's entry, due at 10, stands for it.
        open(&mut table, &a, 11, ids[1]);
        let (seq, window) = table.pop_due(10).expect("the reopened window");
        assert_eq!((seq, window.id, window.due), (1, a.id(), 11));
        // Its own entry then falls due for nothing.
        table.slot_mut(&a.id()).expect("open").screen(
            Outcome::Checked { valid: true },
            10,
            Vec::new(),
        );
        assert_eq!(pop_due(&mut table, 11), None);
        assert!(table.windows.is_empty());
    }

    #[test]
    fn reports_past_two_and_absentees_spill_and_settle_sorted() {
        let a = tx(0);
        let mut table = TxTable::new();
        for collector in [4, 1, 3] {
            upload_due(&mut table, &a, collector, 10);
        }
        assert_eq!(table.spilled(), 1, "a third report spills");
        let (_, window) = table.pop_due(10).expect("due");
        let at = window.slot;
        let pk = CryptoScheme::sim()
            .keypair_from_seed(b"table-p0")
            .public_key();
        assert_eq!(table.settle(window, Some(&pk)), (0, Vec::new()));
        let slot = table.slot_at_mut(at);
        let sorted: Vec<u32> = slot.reports().map(|(c, _)| c).collect();
        assert_eq!(sorted, [1, 3, 4]);
        slot.screen(Outcome::Checked { valid: true }, 10, vec![7]);
        assert_eq!(slot.absent(), [7]);
        assert_eq!(
            table.late_report(&a.id(), 9, Label::Invalid),
            Outcome::Checked { valid: true }
        );
        let slot = table.slot(&a.id()).expect("screened");
        assert_eq!(slot.reports().last(), Some((9, Label::Invalid)));
        assert_eq!(slot.report_count(), 4);
    }

    #[test]
    fn dropping_windows_forgets_them_and_their_timers_but_keeps_screened_slots() {
        let ids = timers(3);
        let txs: Vec<SignedTx> = (0..3).map(tx).collect();
        let mut table = TxTable::new();
        for ((tx, due), timer) in txs.iter().zip([10, 11, 12]).zip(&ids) {
            open(&mut table, tx, due, *timer);
        }
        assert!(table.take_timer(ids[0]));
        assert_eq!(pop_due(&mut table, 10), Some(txs[0].id()));
        table.slot_mut(&txs[0].id()).expect("open").screen(
            Outcome::Checked { valid: true },
            10,
            Vec::new(),
        );
        table.drop_windows();
        assert_eq!(table.open_windows(), 0);
        assert!(table.slot(&txs[0].id()).is_some(), "screened stays");
        assert!(table.slot(&txs[1].id()).is_none() && table.slot(&txs[2].id()).is_none());
        assert!(!table.take_timer(ids[1]), "its timer is not ours any more");
        assert_eq!(pop_due(&mut table, u64::MAX), None);
        // A copy that comes back opens a window afresh.
        open(&mut table, &txs[1], 20, ids[1]);
        assert_eq!(table.open_windows(), 1);
    }

    #[test]
    fn a_key_is_queued_once_per_batch_even_across_a_shed() {
        let ids = timers(2);
        let a = tx(0);
        let mut table = TxTable::new();
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
