//! The table as it stood before slots moved into an arena: one map from
//! tx id to [`TxSlot`], and every provider-signature verdict in a memo that
//! an open window consults by memo generation. Kept as the reference the
//! model test drives in lockstep with [`super::TxTable`]; nothing outside
//! the tests uses it.

use std::collections::hash_map::Entry;
use std::collections::{HashSet, VecDeque};

use prb_crypto::signer::{PublicKey, Sig};
use prb_ledger::transaction::{Label, SignedTx, TxId};
use prb_net::message::TimerId;
use prb_obs::fxhash::{fx_map, FxMap};

use super::{pack_report, Outcome, Stage, TxSlot, Upload, NO_REPORT, SIG_MEMO_MAX};

/// Every provider-signature verdict, keyed by `(provider, tx id,
/// signature)`; [`generation`](Self::generation) moves with each clear.
#[derive(Debug)]
pub(crate) struct Memo {
    verdicts: FxMap<(u32, TxId, Sig), bool>,
    generation: u64,
}

impl Memo {
    pub(crate) fn new() -> Self {
        Memo {
            verdicts: fx_map(),
            generation: 1,
        }
    }

    pub(crate) fn get(&self, key: &(u32, TxId, Sig)) -> Option<bool> {
        self.verdicts.get(key).copied()
    }

    /// One more than the times the memo has been cleared (never 0).
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Memoizes a verdict, clearing the memo first when it is full.
    pub(crate) fn insert(&mut self, key: (u32, TxId, Sig), ok: bool) {
        if self.verdicts.len() >= SIG_MEMO_MAX {
            self.verdicts.clear();
            self.generation += 1;
        }
        self.verdicts.insert(key, ok);
    }

    /// Puts back a verdict a clear dropped; never clears.
    fn restore(&mut self, key: (u32, TxId, Sig), ok: bool) {
        self.verdicts.insert(key, ok);
    }
}

/// A provider signature awaiting the next batch: `(provider, tx id,
/// signature, signing digest)`.
pub(crate) type QueuedSig = (u32, TxId, Sig, [u8; 32]);

/// An open window's data, beside the Δ queue.
#[derive(Debug)]
pub(crate) struct Window {
    pub(crate) due: u64,
    pub(crate) id: TxId,
    pub(crate) opened_at: u64,
    /// The memo generation in which the memo last vouched for the slot
    /// transaction's own signature (0: it never has).
    pub(crate) genuine_in: u64,
    /// The epoch in which that signature was last queued (0: never).
    pub(crate) queued_in: u64,
    /// `(reporter, signature, epoch it was queued in or 0)` per copy whose
    /// signature differs from the slot transaction's.
    pub(crate) alt_sigs: Vec<(u32, Sig, u64)>,
}

/// The per-transaction table of one governor.
#[derive(Debug)]
pub(crate) struct TxTable {
    pub(crate) slots: FxMap<TxId, TxSlot>,
    pub(crate) windows: VecDeque<Window>,
    pub(crate) first_seq: u64,
    pub(crate) timers: VecDeque<(TimerId, u64)>,
    shed_cursor: usize,
    open: usize,
    open_high_water: usize,
    shed: u64,
    pub(crate) queue: Vec<QueuedSig>,
    pub(crate) epoch: u64,
    orphaned: bool,
}

impl TxTable {
    pub(crate) fn new() -> Self {
        TxTable {
            slots: fx_map(),
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
        }
    }

    pub(crate) fn window_stats(&self) -> (usize, usize, u64) {
        (self.open, self.open_high_water, self.shed)
    }

    /// Files a copy; `verdict` is the memo's, read in `generation`.
    pub(crate) fn upload(
        &mut self,
        collector: u32,
        (tx, label): &(SignedTx, Label),
        verdict: Option<bool>,
        generation: u64,
        now: u64,
        due: u64,
    ) -> Upload {
        let (id, provider) = (tx.id(), tx.payload.provider.index);
        let report = pack_report(collector, *label);
        let queue_it = |queue: &mut Vec<QueuedSig>| {
            queue.push((provider, id, tx.provider_sig.clone(), *tx.signing_digest()));
        };
        let slot = match self.slots.entry(id) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(vacant) => {
                if verdict.is_none() {
                    queue_it(&mut self.queue);
                }
                let seq = self.first_seq + self.windows.len() as u64;
                self.windows.push_back(Window {
                    due,
                    id,
                    opened_at: now,
                    genuine_in: if verdict.is_some() { generation } else { 0 },
                    queued_in: if verdict.is_none() { self.epoch } else { 0 },
                    alt_sigs: Vec::new(),
                });
                vacant.insert(TxSlot {
                    tx: tx.clone(),
                    reports: [report, NO_REPORT],
                    spill: None,
                    stage: Stage::Window { seq },
                });
                self.open += 1;
                return Upload::Opened;
            }
        };
        let known = slot.reported_by(collector);
        let Stage::Window { seq } = slot.stage else {
            return if known { Upload::Known } else { Upload::Late };
        };
        if known {
            return Upload::Repeat;
        }
        let window = &mut self.windows[(seq - self.first_seq) as usize];
        let epoch = self.epoch;
        if tx.provider_sig == slot.tx.provider_sig {
            if verdict.is_some() {
                window.genuine_in = generation;
            } else if window.queued_in != epoch {
                window.queued_in = epoch;
                queue_it(&mut self.queue);
            }
        } else {
            let queued = if verdict.is_none() { epoch } else { 0 };
            let already = window
                .alt_sigs
                .iter()
                .any(|(_, sig, at)| *at == epoch && *sig == tx.provider_sig);
            if queued != 0 && !already {
                queue_it(&mut self.queue);
            }
            window
                .alt_sigs
                .push((collector, tx.provider_sig.clone(), queued));
        }
        slot.push_report(report);
        Upload::Joined
    }

    pub(crate) fn arm(&mut self, due: u64, set_timer: impl FnOnce() -> TimerId) {
        if self.timers.back().is_none_or(|&(_, at)| at != due) {
            self.timers.push_back((set_timer(), due));
        }
    }

    pub(crate) fn shed_oldest(&mut self, capacity: usize) -> Option<TxId> {
        while self.open > capacity {
            let Some(&Window { id, .. }) = self.windows.get(self.shed_cursor) else {
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

    pub(crate) fn take_timer(&mut self, timer: TimerId) -> bool {
        match self.timers.iter().position(|(t, _)| *t == timer) {
            Some(at) => {
                self.timers.remove(at);
                true
            }
            None => false,
        }
    }

    /// The next due window that still names an open one, by id.
    pub(crate) fn pop_due(&mut self, tick: u64) -> Option<Window> {
        while self.timers.front().is_some_and(|&(_, due)| due <= tick) {
            self.timers.pop_front();
        }
        while self.windows.front()?.due <= tick {
            let popped = self.windows.pop_front().expect("front seen");
            let seq = self.first_seq;
            self.first_seq += 1;
            self.shed_cursor = self.shed_cursor.saturating_sub(1);
            let Some(slot) = self.slots.get(&popped.id) else {
                continue;
            };
            let Stage::Window { seq: open } = slot.stage else {
                continue;
            };
            self.open -= 1;
            if open == seq {
                return Some(popped);
            }
            let live = &mut self.windows[(open - self.first_seq) as usize];
            return Some(Window {
                alt_sigs: std::mem::take(&mut live.alt_sigs),
                ..*live
            });
        }
        None
    }

    pub(crate) fn drop_windows(&mut self) {
        self.first_seq += self.windows.len() as u64;
        for window in self.windows.drain(..) {
            if self.slots.get(&window.id).is_some_and(TxSlot::in_window) {
                self.slots.remove(&window.id);
            }
        }
        self.timers.clear();
        self.shed_cursor = 0;
        self.open = 0;
        self.orphaned = true;
    }

    pub(crate) fn batch(&mut self) -> &mut Vec<QueuedSig> {
        if !self.queue.is_empty() {
            self.epoch += 1;
        }
        if std::mem::take(&mut self.orphaned) {
            let mut seen = HashSet::new();
            self.queue
                .retain(|(p, id, sig, _)| seen.insert((*p, *id, sig.clone())));
        }
        &mut self.queue
    }

    pub(crate) fn late_report(&mut self, id: &TxId, collector: u32, label: Label) -> Outcome {
        let slot = self.slots.get_mut(id).expect("caller saw the slot");
        let (outcome, _) = slot.screened().expect("late reports follow screening");
        slot.push_report(pack_report(collector, label));
        outcome
    }
}

/// Settles `window` on `slot` with the memo's verdicts, re-verifying (and
/// putting back) any a clear dropped.
pub(crate) fn settle(
    slot: &mut TxSlot,
    mut window: Window,
    memo: &mut Memo,
    pk: Option<&PublicKey>,
) -> (u64, Vec<u32>) {
    let (provider, id, tx) = (slot.provider(), slot.tx.id(), &slot.tx);
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
    for (collector, _) in slot.reports() {
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
        slot.tx = slot.tx.clone().with_provider_sig(good);
    }
    slot.keep_verified(&forged);
    (window.opened_at, forged)
}

#[cfg(test)]
mod tests {
    //! The arena table, its verdicts carried in the windows, against this
    //! one, in lockstep, over seeded random operation sequences: every
    //! answer, every slot and what each side knows of every signature must
    //! agree after every step.

    use super::super::tests::timers;
    use super::*;
    use prb_crypto::identity::NodeId;
    use prb_crypto::signer::{CryptoScheme, KeyPair};
    use prb_ledger::transaction::TxPayload;

    /// Ticks from a window's first copy to its screening.
    const DELTA: u64 = 3;

    /// The arena table's queued signature as this one queues it: the four
    /// fields, read through the handle, without the window number.
    fn fields((tx, _): &super::super::QueuedSig) -> QueuedSig {
        let (p, id, sig) = super::super::sig_key(tx);
        (p, id, sig, *tx.signing_digest())
    }

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

    /// Paths a run must reach, so that a run can be seen to walk them.
    #[derive(Clone, Copy)]
    enum Path {
        Opened,
        Late,
        Spilled,
        /// A copy named forged at settling.
        Forged,
        /// A forged first copy re-homed onto a verified signature.
        Rehomed,
        /// A copy the memo knew to be forged.
        KnownForged,
        /// A shed window's entry screening the reopened one.
        ShedReopened,
        /// A genuine batch verdict whose window was gone, kept in the memo.
        Orphan,
        /// A due entry whose slot was removed.
        Stale,
        /// A window dropped and its transaction uploaded again.
        DroppedReopened,
    }

    const PATHS: usize = 10;

    /// Both tables, driven the way the governor drives them.
    struct Lockstep {
        new: super::super::TxTable,
        old: TxTable,
        old_memo: Memo,
        pk: PublicKey,
        timer_ids: Vec<TimerId>,
        timers_set: usize,
        now: u64,
        unchecked: u64,
        dropped: HashSet<TxId>,
        /// `(answered, verified)` signature checks on the new side and
        /// the old one.
        checks: [(u64, u64); 2],
        seen: [usize; PATHS],
    }

    impl Lockstep {
        fn new(pk: PublicKey, timer_ids: Vec<TimerId>) -> Self {
            Lockstep {
                new: super::super::TxTable::new(),
                old: TxTable::new(),
                old_memo: Memo::new(),
                pk,
                timer_ids,
                timers_set: 0,
                now: 0,
                unchecked: 0,
                dropped: HashSet::new(),
                checks: [(0, 0); 2],
                seen: [0; PATHS],
            }
        }

        fn saw(&mut self, path: Path) {
            self.seen[path as usize] += 1;
        }

        fn key(tx: &SignedTx) -> (u32, TxId, Sig) {
            (0, tx.id(), tx.provider_sig.clone())
        }

        /// A signature checked on its own, as `verify_provider_sig` does
        /// after the table could not answer.
        fn check(&mut self, tx: &SignedTx) -> bool {
            let ok = self.pk.verify(tx.signing_digest(), &tx.provider_sig);
            self.new.record_checked(tx, ok);
            self.old_memo.insert(Self::key(tx), ok);
            self.checks[0].1 += 1;
            self.checks[1].1 += 1;
            ok
        }

        /// One collector's copy, filed as `Governor::file_copy` files it.
        fn upload(&mut self, collector: u32, tx: &SignedTx, label: Label, capacity: usize) {
            let entry = (tx.clone(), label);
            let (now, due) = (self.now, self.now + DELTA);
            let (a, verdict) = self.new.upload(collector, &entry, now, due);
            let old_verdict = self.old_memo.get(&Self::key(tx));
            let b = match old_verdict {
                Some(false) => Upload::Forged,
                _ => {
                    let gen = self.old_memo.generation();
                    self.old
                        .upload(collector, &entry, old_verdict, gen, now, due)
                }
            };
            assert_eq!(a, b, "upload");
            assert_eq!(verdict, old_verdict, "what is known of the signature");
            self.checks[0].0 += u64::from(verdict.is_some());
            self.checks[1].0 += u64::from(old_verdict.is_some());
            match a {
                Upload::Forged => self.saw(Path::KnownForged),
                Upload::Opened => {
                    self.saw(Path::Opened);
                    if self.dropped.contains(&tx.id()) {
                        self.saw(Path::DroppedReopened);
                    }
                    let offered = self.timer_ids[self.timers_set];
                    let (mut set_a, mut set_b) = (false, false);
                    self.new.arm(due, || {
                        set_a = true;
                        offered
                    });
                    self.old.arm(due, || {
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
                Upload::Repeat => {
                    if verdict.is_none() {
                        self.check(tx);
                    }
                }
                Upload::Late => {
                    if verdict.unwrap_or_else(|| self.check(tx)) {
                        self.saw(Path::Late);
                        let a = self.new.late_report(&tx.id(), collector, label);
                        let b = self.old.late_report(&tx.id(), collector, label);
                        assert_eq!(a, b, "late report outcome");
                    }
                }
                Upload::Joined | Upload::Known => {}
            }
        }

        /// Screens every window due by now, as `Governor::screen_due` does:
        /// one verified batch, then settle and screen.
        fn screen_due(&mut self, rng: &mut Mix) {
            loop {
                let front = self.new.windows.front().map(|w| (w.due, w.slot));
                if front.is_some_and(|(due, at)| {
                    due <= self.now && self.new.slots[at as usize].is_none()
                }) {
                    self.saw(Path::Stale);
                }
                let old_window = self.old.pop_due(self.now);
                let due = self.new.pop_due(self.now);
                assert_eq!(
                    due.as_ref().map(|(_, w)| w.id),
                    old_window.as_ref().map(|w| w.id),
                    "pop_due order"
                );
                let (Some((seq, mut window)), Some(old_window)) = (due, old_window) else {
                    return;
                };
                if seq >= self.new.first_seq {
                    self.saw(Path::ShedReopened);
                }
                let a: Vec<super::super::QueuedSig> = self.new.batch().drain(..).collect();
                let b: Vec<QueuedSig> = self.old.batch().drain(..).collect();
                let stripped: Vec<QueuedSig> = a.iter().map(fields).collect();
                assert_eq!(stripped, b, "batched signatures");
                self.checks[0].1 += a.len() as u64;
                self.checks[1].1 += b.len() as u64;
                for (tx, queued_for) in a {
                    let ok = self.pk.verify(tx.signing_digest(), &tx.provider_sig);
                    let before = self.new.memo_len();
                    let held = Some((seq, &mut window));
                    self.new.record(queued_for, &tx, ok, held);
                    if ok && self.new.memo_len() > before {
                        self.saw(Path::Orphan);
                    }
                    self.old_memo.insert(super::super::sig_key(&tx), ok);
                }
                let (id, at) = (window.id, window.slot);
                let own = self.new.slot_at(at).tx.provider_sig.clone();
                let old = self.old.slots.get_mut(&id).expect("open");
                let b = settle(old, old_window, &mut self.old_memo, Some(&self.pk));
                let a = self.new.settle(window, Some(&self.pk));
                assert_eq!(a, b, "settle");
                if !a.1.is_empty() {
                    self.saw(Path::Forged);
                }
                if self.new.slot_at(at).tx.provider_sig != own {
                    self.saw(Path::Rehomed);
                }
                if self.new.slot_at(at).report_count() == 0 {
                    self.old.slots.remove(&id);
                    self.new.remove(at);
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
                let old = self.old.slots.get_mut(&id).expect("settled");
                old.screen(outcome, self.now, absent.clone());
                self.new.slot_at_mut(at).screen(outcome, self.now, absent);
            }
        }

        /// A reveal, or an accepted argue, of `id`: both mark it revealed.
        fn reveal(&mut self, id: &TxId) {
            let awaited = self.old.slots.get(id).is_some_and(|slot| {
                matches!(
                    slot.screened(),
                    Some((
                        Outcome::Unchecked {
                            revealed: false,
                            ..
                        },
                        _
                    ))
                )
            });
            if awaited {
                self.old.slots.get_mut(id).expect("seen").mark_revealed();
                self.new.slot_mut(id).expect("same slots").mark_revealed();
            }
        }

        /// Every slot, window, timer and queued signature agrees, and so
        /// does what each side knows of every signature in `pool`.
        fn assert_agree(&self, pool: &[(SignedTx, SignedTx)]) {
            let (new, old) = (&self.new, &self.old);
            assert_eq!(new.window_stats(), old.window_stats());
            assert_eq!(new.index.len(), old.slots.len(), "same slots");
            let queued: Vec<QueuedSig> = new.queue.iter().map(fields).collect();
            assert_eq!(queued, old.queue, "queued signatures");
            assert_eq!(new.epoch, old.epoch);
            assert_eq!(new.timers, old.timers, "Δ timers");
            assert_eq!(new.first_seq, old.first_seq, "window numbers");
            let dues: Vec<(u64, TxId)> = new.windows.iter().map(|w| (w.due, w.id)).collect();
            let want: Vec<(u64, TxId)> = old.windows.iter().map(|w| (w.due, w.id)).collect();
            assert_eq!(dues, want, "the Δ queue");
            for (id, b) in &old.slots {
                let at = new.position(id).expect("same slots");
                let a = new.slot_at(at);
                assert_eq!(a.tx.id(), b.tx.id());
                assert_eq!(a.tx.provider_sig, b.tx.provider_sig, "re-homed alike");
                let reports: Vec<_> = a.reports().collect();
                assert_eq!(reports, b.reports().collect::<Vec<_>>(), "reports");
                assert_eq!(a.screened(), b.screened());
                assert_eq!(a.absent(), b.absent());
                if let (Stage::Window { seq }, Stage::Window { seq: want }) = (a.stage, b.stage) {
                    assert_eq!(seq, want, "window number");
                    let w = &new.windows[(seq - new.first_seq) as usize];
                    let v = &old.windows[(seq - old.first_seq) as usize];
                    assert_eq!(w.slot, at, "the window names its slot");
                    assert_eq!((w.opened_at, w.queued_in), (v.opened_at, v.queued_in));
                    assert_eq!(w.alt_sigs, v.alt_sigs, "alternative signatures");
                } else {
                    assert_eq!(a.in_window(), b.in_window());
                }
            }
            for tx in pool.iter().flat_map(|(tx, forged)| [tx, forged]) {
                let key = Self::key(tx);
                assert_eq!(new.knows(tx), self.old_memo.get(&key), "verdict on {key:?}");
            }
            assert_eq!(
                self.checks[0], self.checks[1],
                "(answered, verified) checks"
            );
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

    fn run(seed: u64, r: u32, steps: usize, timer_ids: &[TimerId]) -> [usize; PATHS] {
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
                    t.upload(collector, tx, label, capacity);
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
                    let open = t.old.slots.iter().filter(|(_, s)| s.in_window());
                    let ids: Vec<TxId> = open.map(|(id, _)| *id).collect();
                    t.dropped.extend(ids);
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
            t.assert_agree(&txs);
        }
        t.seen[Path::Spilled as usize] = t.new.spilled();
        t.seen
    }

    #[test]
    fn the_compact_table_agrees_with_the_reference_step_by_step() {
        let timer_ids = timers(1_200);
        for r in [2, 3] {
            let mut seen = [0; PATHS];
            for seed in 0..24 {
                let run = run(seed * 2 + u64::from(r), r, 300, &timer_ids);
                for (total, n) in seen.iter_mut().zip(run) {
                    *total += n;
                }
            }
            // Every path was walked: windows opened, late reports, forged
            // copies named and known, a forged first copy re-homed, a shed
            // window's entry screening the reopened one, a verdict finding
            // its window gone, a stale entry falling due, a dropped window's
            // transaction coming back — and slots spilled at r = 3 (third
            // reports), at r = 2 only through absentees.
            assert!(seen.iter().all(|&n| n > 0), "r = {r}: {seen:?}");
        }
    }
}
