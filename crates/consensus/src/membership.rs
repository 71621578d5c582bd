//! Dynamic membership: quorum-certified join/leave/evict protocols and
//! the epoch log that makes committee size a function of time.
//!
//! A node enters or leaves the deployment through a [`MembershipRequest`]
//! — subject-signed for voluntary moves (a join posts a stake bond, a
//! leave renounces participation), unsigned for an eviction (the quorum
//! of governor shares *is* the authorization, exactly like an expulsion
//! conviction). Each governor that accepts a request signs a
//! [`MembershipShare`]; a [`crate::quorum`] of them forms a
//! [`MembershipCert`]. Certs and equivocation proofs persist across
//! restarts via `prb-store`, so membership epochs survive a crash.
//!
//! The [`EpochLog`] is the one record of who counts: every certified
//! transition, and every conviction as a departure never undone. Every
//! cert skips the governors departed at its round — a membership cert's
//! effective round, a checkpoint's serial — and needs a threshold of the
//! rest. A governor's [`CommitteeView`] holds its certs, convictions and
//! epoch log, decides which requests and shares count, and applies each
//! transition at its round.

use std::collections::HashSet;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};

use crate::checkpoint::Committee;
use crate::evidence::{Conviction, EquivocationEvidence};
use crate::quorum::{Cert, CertError, Share, ShareBuffer, Subject, Tally};

/// Rounds between the round a transition is decided in and the round it
/// takes effect at: a membership request's effective round, and a
/// conviction's, past the round the culprit signed for.
pub const LEAD: u64 = 2;

/// Domain tag for membership signatures.
const MEMBERSHIP_TAG: &[u8] = b"prb-membership";

/// Which tier the subject of a membership action belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemberRole {
    /// A collector (screened reporter).
    Collector,
    /// A governor (committee member).
    Governor,
}

impl MemberRole {
    /// The role's byte in digests and on disk.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The role a [`tag`](Self::tag) names.
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::Collector, Self::Governor].get(tag as usize).copied()
    }
}

/// What the request does to the subject's membership.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MembershipAction {
    /// Stake-backed admission (or readmission after a leave).
    Join,
    /// Voluntary departure; the subject renounces participation.
    Leave,
    /// Committee-initiated removal (reputation or responsiveness fell
    /// below threshold). Carries no subject signature — the quorum of
    /// governor shares authorizes it.
    Evict,
}

impl MembershipAction {
    /// The action's byte in digests and on disk.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The action a [`tag`](Self::tag) names.
    pub fn from_tag(tag: u8) -> Option<Self> {
        [Self::Join, Self::Leave, Self::Evict]
            .get(tag as usize)
            .copied()
    }
}

/// A membership state transition offered to the committee.
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipRequest {
    /// Tier of the subject.
    pub role: MemberRole,
    /// The subject's index within its tier.
    pub member: u32,
    /// What happens to the subject.
    pub action: MembershipAction,
    /// Stake units bonded with a join (0 for leave/evict). Admission is
    /// stake-backed: governors refuse to sign a bondless join.
    pub bond: u64,
    /// The round the transition takes effect at. Every governor applies
    /// certified transitions at the start of this round, so the whole
    /// committee switches epochs on the same boundary.
    pub effective_round: u64,
    /// The subject's signature over [`MembershipRequest::digest`] for
    /// `Join`/`Leave`; `None` for `Evict`.
    pub sig: Option<Sig>,
}

impl MembershipRequest {
    /// The canonical digest governors sign shares over. Deliberately
    /// excludes the subject signature so that every governor's share —
    /// however the request reached it — counts toward the same cert.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update_field(MEMBERSHIP_TAG);
        h.update(&[self.role.tag(), self.action.tag()]);
        h.update(&self.member.to_be_bytes());
        h.update(&self.bond.to_be_bytes());
        h.update(&self.effective_round.to_be_bytes());
        h.finalize()
    }

    /// Creates a subject-signed `Join`/`Leave` request.
    pub fn create(
        role: MemberRole,
        member: u32,
        action: MembershipAction,
        bond: u64,
        effective_round: u64,
        key: &KeyPair,
    ) -> Self {
        let mut req = MembershipRequest {
            role,
            member,
            action,
            bond,
            effective_round,
            sig: None,
        };
        req.sig = Some(key.sign(req.digest().as_bytes()));
        req
    }

    /// An unsigned eviction proposal (quorum-authorized, no subject
    /// signature).
    pub fn evict(role: MemberRole, member: u32, effective_round: u64) -> Self {
        MembershipRequest {
            role,
            member,
            action: MembershipAction::Evict,
            bond: 0,
            effective_round,
            sig: None,
        }
    }

    /// Whether the request is acceptably authorized: `Join`/`Leave` carry
    /// a valid subject signature under `subject_pk`; `Evict` carries none
    /// (its authorization is the share quorum itself).
    pub fn authorized(&self, subject_pk: &PublicKey) -> bool {
        match self.action {
            MembershipAction::Evict => self.sig.is_none(),
            MembershipAction::Join | MembershipAction::Leave => self
                .sig
                .as_ref()
                .is_some_and(|s| subject_pk.verify(self.digest().as_bytes(), s)),
        }
    }
}

impl Subject for MembershipRequest {
    const TAG: &'static [u8] = MEMBERSHIP_TAG;
    type Scope = ();

    fn scope(&self) {}

    fn hash_scope((): (), _: &mut Sha256) {}

    fn digest(&self) -> Digest {
        MembershipRequest::digest(self)
    }
}

/// One governor's endorsement of a membership request.
pub type MembershipShare = Share<MembershipRequest>;

/// A quorum-certified membership transition; `state` is the request.
pub type MembershipCert = Cert<MembershipRequest>;

impl MembershipCert {
    /// Audits the cert: the subject authorization holds under `subject_pk`
    /// and the signers reach [`Tally::bft`] at its effective round, the
    /// governors [`EpochLog::departed_at`] it skipped.
    ///
    /// # Errors
    ///
    /// Returns the first [`CertError`] encountered.
    pub fn audit(
        &self,
        subject_pk: &PublicKey,
        governor_pks: &[PublicKey],
        epochs: &EpochLog,
    ) -> Result<(), CertError> {
        if !self.state.authorized(subject_pk) {
            return Err(CertError::BadSubject);
        }
        self.verify(
            governor_pks,
            &epochs.departed_at(self.state.effective_round),
        )
    }
}

/// What an epoch event did to the member's committee standing. In one
/// round a readmission applies before a departure, as the due order puts
/// a join before a leave.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochKind {
    /// The member rejoined the active committee.
    Readmission,
    /// The member left the active committee (leave or evict).
    Departure,
    /// The member was convicted: a departure never undone.
    Expulsion,
}

impl EpochKind {
    /// What a certified `action` records.
    fn of(action: MembershipAction) -> Self {
        match action {
            MembershipAction::Join => Self::Readmission,
            MembershipAction::Leave | MembershipAction::Evict => Self::Departure,
        }
    }
}

/// One committee transition, anchored to the round it took effect at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochEvent {
    /// The certified request's `effective_round`.
    pub round: u64,
    /// The member's committee index.
    pub member: u32,
    /// What it did to the member's standing.
    pub kind: EpochKind,
}

/// The committee's membership history by round: who counted at any point.
///
/// A governor records each certified transition at the request's
/// `effective_round` when its cert enters the log — formed or replayed —
/// and each conviction at once, at the round the culprit signed for plus
/// [`LEAD`]. Events are kept in round order, whatever order their certs
/// formed in, so a replayed log is the live one. The log is queried with
/// rounds (a membership cert at its effective round) and, through
/// [`crate::checkpoint::Committee::excluded_at`], with checkpoint serials,
/// which stand in for rounds only while every round commits one block
/// (ROADMAP item 20).
///
/// `departed_at(r)` reconstructs who was out of the committee at `r`: an
/// event at `e` affects queries strictly greater than `e`, so a
/// certificate at the very round a departure was recorded still counts
/// the departing member — its share was signed before the departure took
/// effect. An expulsion holds from its round on, whatever follows it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochLog {
    /// Sorted by `(round, kind, member)`.
    events: Vec<EpochEvent>,
}

impl EpochLog {
    /// All recorded events, by round.
    pub fn events(&self) -> &[EpochEvent] {
        &self.events
    }

    /// Records `kind` for `member` at `round`. Every transition is kept:
    /// a redundant one changes no answer. Of two expulsions of one member
    /// the earlier stands, so logs that saw the same records in any order
    /// agree. Returns whether the log changed.
    pub fn record(&mut self, member: u32, round: u64, kind: EpochKind) -> bool {
        if kind == EpochKind::Expulsion {
            match self.expelled_from(member) {
                Some(from) if from <= round => return false,
                Some(_) => self.events.retain(|e| e.member != member || e.kind != kind),
                None => {}
            }
        }
        let event = EpochEvent {
            round,
            member,
            kind,
        };
        let key = |e: &EpochEvent| (e.round, e.kind, e.member);
        let at = (self.events).partition_point(|e| key(e) <= key(&event));
        self.events.insert(at, event);
        true
    }

    /// The round `member`'s expulsion holds from, if it was convicted.
    pub fn expelled_from(&self, member: u32) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.member == member && e.kind == EpochKind::Expulsion)
            .map(|e| e.round)
    }

    /// Whether the last of `member`'s transitions ordered before `at` was
    /// a departure. A conviction does not enter this.
    fn left_before(&self, member: u32, at: (u64, EpochKind)) -> bool {
        let last = (self.events.iter().rev()).find(|e| {
            e.member == member && e.kind != EpochKind::Expulsion && (e.round, e.kind) < at
        });
        last.is_some_and(|e| e.kind == EpochKind::Departure)
    }

    /// Whether `member` left by a transition below `round` (a leave or an
    /// eviction) and was not readmitted below it.
    pub fn has_left_at(&self, member: u32, round: u64) -> bool {
        self.left_before(member, (round, EpochKind::Readmission))
    }

    /// Whether `member` is out of the committee at `round`: it left by a
    /// transition below `round`, or was expelled below it.
    pub fn is_departed_at(&self, member: u32, round: u64) -> bool {
        self.expelled_from(member).is_some_and(|e| e < round) || self.has_left_at(member, round)
    }

    /// Members out of the committee at `round`, sorted: the one answer
    /// every cert's count reads ([`Tally::bft`] skips them).
    pub fn departed_at(&self, round: u64) -> Vec<u32> {
        self.members(|m| self.is_departed_at(m, round))
    }

    /// The members with an event that `pred` holds for, sorted.
    fn members(&self, pred: impl Fn(u32) -> bool) -> Vec<u32> {
        let mut out: Vec<u32> = self.events.iter().map(|e| e.member).collect();
        out.sort_unstable();
        out.dedup();
        out.retain(|&m| pred(m));
        out
    }
}

/// The one order certified transitions apply in: by `(effective_round,
/// role, member, action)`, ties in log order.
fn due_key(r: &MembershipRequest) -> (u64, MemberRole, u32, MembershipAction) {
    (r.effective_round, r.role, r.member, r.action)
}

/// Distinct membership requests whose shares may buffer at once (a bound
/// against request spam).
const MEMBER_SHARE_BUFFERS: usize = 64;

/// A certified transition as a [`CommitteeView`] applied it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// The member entered the active committee.
    Joined(MemberRole, u32),
    /// The member left it (leave or eviction).
    Left(MemberRole, u32),
    /// The member already stood where the cert puts it.
    Unchanged,
}

/// One governor's view of the committee: every member's key and
/// standing, the membership certs, and the convictions. It decides; the
/// governor sends, stores and acts on what it returns.
///
/// ```text
///   request    ──on_request──▶ (own share to broadcast?, cert formed?)
///   peer share ──on_share────▶ cert formed?
///   round r    ──apply_due───▶ the transitions due at r, in one order
///   reopen     ──replay──────▶ (transitions applied, certs refused)
///   evidence   ──convict─────▶ log changed?
/// ```
///
/// A cert's governor transition enters the epoch log when the cert does,
/// so assembly, the audit and the replay read one log; it is *in effect*
/// once the view's now (the latest round applied) reaches its round. A
/// governor that has left now or is convicted is *excluded*: its shares,
/// claims and gossip do not count. A conviction enters the epoch log as
/// an expulsion, which counts in certs from its round on.
#[derive(Debug)]
pub struct CommitteeView {
    governor_pks: Vec<PublicKey>,
    collector_pks: Vec<PublicKey>,
    collector_active: Vec<bool>,
    epochs: EpochLog,
    /// The equivocation proofs behind the log's expulsions, one per
    /// culprit, persisted with the certs.
    evidence: Vec<EquivocationEvidence>,
    /// The latest round a transition was applied at: the view's now.
    round: u64,
    /// The governors convicted or [`has_left`](Self::has_left), sorted,
    /// kept for the per-claim checks.
    excluded: Vec<u32>,
    shares: ShareBuffer<Digest, MembershipRequest, MEMBER_SHARE_BUFFERS>,
    /// Oldest first.
    certs: Vec<MembershipCert>,
    /// `certs[i].state.digest()`, kept beside the log so that an arriving
    /// request or share is checked against it without hashing the log.
    certified: Vec<Digest>,
    /// Indices into `certs` not yet applied, in the order they apply in.
    pending: Vec<usize>,
    eviction_proposed: HashSet<u32>,
}

impl CommitteeView {
    /// The genesis committee: every governor and `collectors` collectors.
    pub fn new(
        governor_pks: Vec<PublicKey>,
        collector_pks: Vec<PublicKey>,
        collectors: usize,
    ) -> Self {
        CommitteeView {
            epochs: EpochLog::default(),
            governor_pks,
            collector_pks,
            collector_active: vec![true; collectors],
            evidence: Vec::new(),
            round: 0,
            excluded: Vec::new(),
            shares: ShareBuffer::default(),
            certs: Vec::new(),
            certified: Vec::new(),
            pending: Vec::new(),
            eviction_proposed: HashSet::new(),
        }
    }

    /// Every governor's key, by index.
    pub fn governor_pks(&self) -> &[PublicKey] {
        &self.governor_pks
    }

    /// Every collector's key, by index.
    pub fn collector_pks(&self) -> &[PublicKey] {
        &self.collector_pks
    }

    /// The committee checkpoint certs are counted against.
    pub fn checkpoint(&self) -> Committee<'_> {
        Committee(&self.governor_pks, &self.epochs)
    }

    /// The excluded governors, sorted.
    pub fn excluded(&self) -> &[u32] {
        &self.excluded
    }

    /// Whether governor `g` is excluded.
    pub fn is_excluded(&self, g: u32) -> bool {
        self.excluded.binary_search(&g).is_ok()
    }

    /// The convicted governors, in index order: the log's expulsions.
    pub fn convicted(&self) -> impl Iterator<Item = u32> + '_ {
        (self.excluded.iter().copied()).filter(|&g| self.epochs.expelled_from(g).is_some())
    }

    /// Whether governor `g` is convicted.
    pub fn is_convicted(&self, g: u32) -> bool {
        self.is_excluded(g) && self.epochs.expelled_from(g).is_some()
    }

    /// Whether governor `g` has left by a certified transition in effect
    /// now. A conviction does not enter this.
    pub fn has_left(&self, g: u32) -> bool {
        (self.epochs).has_left_at(g, self.round.saturating_add(1))
    }

    /// The equivocation proofs behind the convictions, one per culprit:
    /// the rest of the log a store persists.
    pub fn evidence(&self) -> &[EquivocationEvidence] {
        &self.evidence
    }

    /// Whether collector `c` is an active member.
    pub fn is_collector_active(&self, c: u32) -> bool {
        self.collector_active.get(c as usize) == Some(&true)
    }

    /// The certified transitions, oldest first: the log a store persists.
    pub fn certs(&self) -> &[MembershipCert] {
        &self.certs
    }

    /// The governor epoch log.
    pub fn epochs(&self) -> &EpochLog {
        &self.epochs
    }

    /// The certified transitions due at `round` and not yet applied, in
    /// the order [`apply_due`](Self::apply_due) applies them in.
    pub fn due(&self, round: u64) -> impl Iterator<Item = &MembershipRequest> {
        self.pending[..self.due_len(round)]
            .iter()
            .map(|&i| &self.certs[i].state)
    }

    fn due_len(&self, round: u64) -> usize {
        self.pending
            .partition_point(|&i| self.certs[i].state.effective_round <= round)
    }

    fn subject_pk(&self, req: &MembershipRequest) -> Option<&PublicKey> {
        match req.role {
            MemberRole::Collector => self.collector_pks.get(req.member as usize),
            MemberRole::Governor => self.governor_pks.get(req.member as usize),
        }
    }

    /// Whether a governor at `round` endorses `req`: an in-range subject,
    /// properly authorized, effective in the future, stake-backed when
    /// joining, and standing where the action needs it. A convicted
    /// governor is never readmitted: its stake was slashed.
    fn acceptable(&self, req: &MembershipRequest, round: u64) -> bool {
        let Some(pk) = self.subject_pk(req) else {
            return false;
        };
        if !req.authorized(pk) || req.effective_round <= round {
            return false;
        }
        let active = match req.role {
            MemberRole::Collector => self.is_collector_active(req.member),
            MemberRole::Governor if self.is_convicted(req.member) => return false,
            MemberRole::Governor => !self.has_left(req.member),
        };
        match req.action {
            MembershipAction::Join => req.bond >= 1 && !active,
            MembershipAction::Leave | MembershipAction::Evict => req.bond == 0 && active,
        }
    }

    fn certified(&self, digest: Digest) -> bool {
        self.certified.contains(&digest)
    }

    /// A request reached governor `me` at `round`: an acceptable one, not
    /// yet certified and with room in the buffer, is endorsed once with
    /// `me`'s share. Returns that share when newly signed, and whether a
    /// cert formed.
    pub fn on_request(
        &mut self,
        req: MembershipRequest,
        round: u64,
        me: u32,
        key: &KeyPair,
    ) -> (Option<MembershipShare>, bool) {
        if !self.acceptable(&req, round) {
            return (None, false);
        }
        let digest = req.digest();
        if self.certified(digest) || !self.shares.admits(digest) {
            return (None, false);
        }
        let share = (!self.shares.has(digest, me)).then(|| {
            let share = MembershipShare::sign(&req, me, key);
            self.shares.insert(digest, share.clone());
            share
        });
        if self.shares.subject(digest).is_none() {
            self.shares.set_subject(digest, req);
        }
        (share, self.assemble(digest))
    }

    /// A peer's share arrived: buffered, one per governor per digest,
    /// unless its signer is excluded, its signature fails, its request is
    /// certified or the buffer is full. Returns whether a cert formed.
    pub fn on_share(&mut self, share: MembershipShare) -> bool {
        let digest = share.digest;
        if self.is_excluded(share.governor)
            || !share.verify(&self.governor_pks)
            || self.certified(digest)
            || !self.shares.admits(digest)
        {
            return false;
        }
        self.shares.insert(digest, share);
        self.assemble(digest)
    }

    /// Forms and queues the cert at `digest` once its shares reach
    /// [`Tally::bft`] at its effective round: the governors departed then
    /// skipped.
    fn assemble(&mut self, digest: Digest) -> bool {
        let Some(effective) = self.shares.subject(digest).map(|(r, _)| r.effective_round) else {
            return false;
        };
        let departed = self.epochs.departed_at(effective);
        let tally = Tally::bft(self.governor_pks.len(), &departed);
        let Some(cert) = self.shares.assemble(digest, tally) else {
            return false;
        };
        self.shares.remove(digest);
        self.queue(cert, digest);
        true
    }

    /// Appends `cert`, whose request digests to `digest`, to the log,
    /// records a governor transition in the epoch log and queues the cert
    /// in the one order transitions apply in.
    fn queue(&mut self, cert: MembershipCert, digest: Digest) {
        let at = (self.pending)
            .partition_point(|&i| due_key(&self.certs[i].state) <= due_key(&cert.state));
        self.pending.insert(at, self.certs.len());
        self.certs.push(cert);
        self.certified.push(digest);
        self.record(self.certs.len() - 1);
    }

    /// Records cert `i`'s transition in the epoch log if its subject is a
    /// governor.
    fn record(&mut self, i: usize) {
        let req = &self.certs[i].state;
        if req.role == MemberRole::Governor {
            let kind = EpochKind::of(req.action);
            self.epochs.record(req.member, req.effective_round, kind);
            self.refresh_excluded();
        }
    }

    /// Applies the transitions due at `round`, in [`due`](Self::due) order.
    pub fn apply_due(&mut self, round: u64) -> Vec<Transition> {
        let due: Vec<usize> = self.pending.drain(..self.due_len(round)).collect();
        let applied = due.into_iter().map(|i| self.apply(i)).collect();
        self.round = self.round.max(round);
        self.refresh_excluded();
        applied
    }

    /// Replays a persisted log on reopening: every equivocation proof that
    /// checks out first, then every cert at once, in the order live ones
    /// apply in, each audited first ([`MembershipCert::audit`] against the
    /// log so far). A cert that fails is refused and leaves the log.
    /// Returns the transitions applied and the number refused.
    pub fn replay(
        &mut self,
        certs: Vec<MembershipCert>,
        evidence: Vec<EquivocationEvidence>,
    ) -> (Vec<Transition>, u64) {
        for e in evidence {
            if e.verify(&self.governor_pks).is_ok() {
                self.convict(Conviction::Equivocation(e), u64::MAX);
            }
        }
        let first = self.certs.len();
        let mut order: Vec<usize> = (first..first + certs.len()).collect();
        for cert in certs {
            self.certified.push(cert.state.digest());
            self.certs.push(cert);
        }
        order.sort_by_key(|&i| due_key(&self.certs[i].state));
        let mut kept = vec![true; self.certs.len()];
        let mut applied = Vec::new();
        for i in order {
            let cert = &self.certs[i];
            let pk = self.subject_pk(&cert.state);
            if pk.is_none_or(|pk| cert.audit(pk, &self.governor_pks, &self.epochs).is_err()) {
                kept[i] = false;
            } else {
                self.record(i);
                applied.push(self.apply(i));
            }
        }
        self.refresh_excluded();
        let refused = kept.iter().filter(|&&k| !k).count() as u64;
        let mut keep = kept.iter();
        self.certs.retain(|_| keep.next() == Some(&true));
        let mut keep = kept.iter();
        self.certified.retain(|_| keep.next() == Some(&true));
        (applied, refused)
    }

    /// Applies cert `i`, whose transition the epoch log already holds, and
    /// moves the view's now up to its round. A governor's standing changes
    /// if the transitions ordered before it left it where the action does
    /// not.
    fn apply(&mut self, i: usize) -> Transition {
        let req = &self.certs[i].state;
        let (role, member, round) = (req.role, req.member, req.effective_round);
        let join = req.action == MembershipAction::Join;
        self.round = self.round.max(round);
        let changed = match role {
            MemberRole::Collector => match self.collector_active.get_mut(member as usize) {
                Some(active) if *active != join => {
                    *active = join;
                    if join {
                        self.eviction_proposed.remove(&member);
                    }
                    true
                }
                _ => false,
            },
            MemberRole::Governor => {
                let at = (round, EpochKind::of(req.action));
                self.epochs.left_before(member, at) == join
            }
        };
        match (changed, join) {
            (false, _) => Transition::Unchanged,
            (true, true) => Transition::Joined(role, member),
            (true, false) => Transition::Left(role, member),
        }
    }

    /// Records the conviction of `record`'s culprit at a governor in
    /// `round`: an expulsion from the round the culprit signed for plus
    /// [`LEAD`], or from an earlier one an earlier record named. A record
    /// signed for a round past `round + LEAD` is refused: the culprit
    /// would pick when its signatures stop counting. An equivocation proof
    /// is kept to persist, the earliest per culprit. Returns whether the
    /// log or the proofs changed. Callers verify the record first.
    pub fn convict(&mut self, record: Conviction, round: u64) -> bool {
        let h = record.header();
        if h.round > round.saturating_add(LEAD) {
            return false;
        }
        let (culprit, signed) = (h.proposer, h.round);
        let mut changed =
            (self.epochs).record(culprit, signed.saturating_add(LEAD), EpochKind::Expulsion);
        if let Conviction::Equivocation(e) = record {
            let held = self.evidence.iter().find(|k| k.first.proposer == culprit);
            if held.is_none_or(|k| k.first.round > signed) {
                self.evidence.retain(|k| k.first.proposer != culprit);
                self.evidence.push(e);
                changed = true;
            }
        }
        if changed {
            self.refresh_excluded();
        }
        changed
    }

    fn refresh_excluded(&mut self) {
        let (log, now) = (&self.epochs, self.round.saturating_add(1));
        self.excluded = log.members(|g| log.expelled_from(g).is_some() || log.has_left_at(g, now));
    }

    /// Whether this governor proposed evicting collector `c` since it last
    /// joined.
    pub fn eviction_proposed(&self, c: u32) -> bool {
        self.eviction_proposed.contains(&c)
    }

    /// The eviction of collector `c` at `effective_round`, noted so that
    /// this governor proposes it once.
    pub fn propose_eviction(&mut self, c: u32, effective_round: u64) -> MembershipRequest {
        self.eviction_proposed.insert(c);
        MembershipRequest::evict(MemberRole::Collector, c, effective_round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;

    fn keys(m: usize) -> (Vec<KeyPair>, Vec<PublicKey>) {
        let scheme = CryptoScheme::sim();
        let keys: Vec<_> = (0..m)
            .map(|g| scheme.keypair_from_seed(format!("mem-g{g}").as_bytes()))
            .collect();
        let pks = keys.iter().map(|k| k.public_key()).collect();
        (keys, pks)
    }

    fn subject() -> (KeyPair, PublicKey) {
        let key = CryptoScheme::sim().keypair_from_seed(b"mem-subject");
        let pk = key.public_key();
        (key, pk)
    }

    fn cert(req: &MembershipRequest, signers: &[usize], keys: &[KeyPair]) -> MembershipCert {
        let sigs = signers
            .iter()
            .map(|&g| {
                let share = MembershipShare::sign(req, g as u32, &keys[g]);
                (g as u32, share.sig)
            })
            .collect();
        MembershipCert {
            state: req.clone(),
            sigs,
        }
    }

    #[test]
    fn digest_commits_to_every_field_but_the_signature() {
        let (key, _) = subject();
        let base =
            MembershipRequest::create(MemberRole::Collector, 3, MembershipAction::Join, 2, 7, &key);
        let mut variants = vec![base.clone(); 4];
        variants[0].role = MemberRole::Governor;
        variants[1].member = 4;
        variants[2].bond = 3;
        variants[3].effective_round = 8;
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.digest(), base.digest(), "variant {i} collided");
        }
        // The subject signature is excluded: a re-signed copy digests the
        // same, so shares from differently-relayed copies agree.
        let mut resigned = base.clone();
        resigned.sig = Some(key.sign(b"other"));
        assert_eq!(resigned.digest(), base.digest());
        let evict = MembershipRequest::evict(MemberRole::Collector, 3, 7);
        assert_ne!(evict.digest(), base.digest());
    }

    #[test]
    fn subject_authorization_rules() {
        let (key, pk) = subject();
        let (stranger, _) = subject_with(b"stranger");
        let join =
            MembershipRequest::create(MemberRole::Collector, 1, MembershipAction::Join, 1, 5, &key);
        assert!(join.authorized(&pk));
        // A request signed by someone else fails.
        let forged = MembershipRequest::create(
            MemberRole::Collector,
            1,
            MembershipAction::Join,
            1,
            5,
            &stranger,
        );
        assert!(!forged.authorized(&pk));
        // A stripped signature fails for Join/Leave.
        let mut stripped = join.clone();
        stripped.sig = None;
        assert!(!stripped.authorized(&pk));
        // Evictions must NOT carry a subject signature (a signed one is
        // malformed — it would masquerade as consent).
        let evict = MembershipRequest::evict(MemberRole::Governor, 2, 5);
        assert!(evict.authorized(&pk));
        let mut signed_evict = evict.clone();
        signed_evict.sig = Some(key.sign(b"x"));
        assert!(!signed_evict.authorized(&pk));
    }

    fn subject_with(seed: &[u8]) -> (KeyPair, PublicKey) {
        let key = CryptoScheme::sim().keypair_from_seed(seed);
        let pk = key.public_key();
        (key, pk)
    }

    #[test]
    fn share_roundtrip_and_forgery() {
        let (gkeys, pks) = keys(4);
        let req = MembershipRequest::evict(MemberRole::Collector, 0, 3);
        let share = MembershipShare::sign(&req, 2, &gkeys[2]);
        assert!(share.verify(&pks));
        let mut wrong = share.clone();
        wrong.governor = 1;
        assert!(!wrong.verify(&pks));
        let mut wrong = share;
        wrong.digest = prb_crypto::sha256::sha256(b"x");
        assert!(!wrong.verify(&pks));
    }

    #[test]
    fn cert_quorum_and_forgery() {
        let (gkeys, pks) = keys(4);
        let (key, pk) = subject();
        let req = MembershipRequest::create(
            MemberRole::Collector,
            5,
            MembershipAction::Leave,
            0,
            9,
            &key,
        );
        let (all, mut three) = (EpochLog::default(), EpochLog::default());
        three.record(3, 0, EpochKind::Departure);
        // 3 of 4 active: quorum.
        assert_eq!(
            cert(&req, &[0, 1, 2], &gkeys).audit(&pk, &pks, &all),
            Ok(())
        );
        // 2 of 4: under quorum; duplicates do not inflate.
        let mut thin = cert(&req, &[0, 1], &gkeys);
        assert_eq!(
            thin.audit(&pk, &pks, &all),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
        let extra = thin.sigs[0].clone();
        thin.sigs.push(extra);
        assert_eq!(
            thin.audit(&pk, &pks, &all),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
        // With a 3-member active committee the same 3 signatures carry it.
        assert_eq!(
            cert(&req, &[0, 1, 2], &gkeys).audit(&pk, &pks, &three),
            Ok(())
        );
        // Forged governor signature.
        let mut forged = cert(&req, &[0, 1, 2], &gkeys);
        forged.sigs[2] = (2, MembershipShare::sign(&req, 2, &gkeys[3]).sig);
        assert_eq!(
            forged.audit(&pk, &pks, &all),
            Err(CertError::BadSignature { governor: 2 })
        );
        // Out-of-committee signer index.
        let mut oob = cert(&req, &[0, 1, 2], &gkeys);
        oob.sigs[0].0 = 9;
        assert_eq!(
            oob.audit(&pk, &pks, &all),
            Err(CertError::BadSignature { governor: 9 })
        );
        // Bad subject authorization dominates.
        let mut stripped = cert(&req, &[0, 1, 2], &gkeys);
        stripped.state.sig = None;
        assert_eq!(stripped.audit(&pk, &pks, &all), Err(CertError::BadSubject));
    }

    #[test]
    fn assemble_waits_for_a_quorum_outside_the_excluded() {
        let (gkeys, pks) = keys(4);
        let req = MembershipRequest::evict(MemberRole::Collector, 2, 6);
        let share = |g: usize| MembershipShare::sign(&req, g as u32, &gkeys[g]);
        let assemble = |shares: &[MembershipShare], excluded: &[u32]| {
            MembershipCert::assemble(&req, &req.digest(), shares, Tally::bft(4, excluded))
        };
        let shares = vec![share(3), share(0), share(1)];
        let cert = assemble(&shares, &[]).unwrap();
        assert_eq!(
            cert.sigs.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            [0, 1, 3],
            "sorted by governor"
        );
        assert_eq!(cert.audit(&pks[0], &pks, &EpochLog::default()), Ok(()));
        // Governor 1 excluded: two of the three the other three need.
        assert!(assemble(&shares, &[1]).is_none());
        let shares = vec![share(3), share(0), share(2)];
        let cert = assemble(&shares, &[1]).unwrap();
        let mut log = EpochLog::default();
        log.record(1, 0, EpochKind::Departure);
        assert_eq!(cert.audit(&pks[0], &pks, &log), Ok(()));
    }

    #[test]
    fn error_display_and_kind() {
        let e = CertError::UnderQuorum { got: 1, need: 3 };
        assert!(e.to_string().contains("quorum is 3"));
        assert_eq!(e.kind(), "under_quorum");
        assert_eq!(
            CertError::BadSignature { governor: 2 }.kind(),
            "bad_signature"
        );
        assert_eq!(CertError::BadSubject.kind(), "bad_subject");
    }

    #[test]
    fn epoch_log_reconstructs_committee_at_serial() {
        let mut log = EpochLog::default();
        assert_eq!(log.departed_at(100), Vec::<u32>::new());
        log.record(1, 6, EpochKind::Departure);
        log.record(3, 10, EpochKind::Departure);
        log.record(1, 12, EpochKind::Readmission);
        // Strictly-below semantics: a cert at the departure serial still
        // counts the departing member as active.
        assert_eq!(log.departed_at(6), Vec::<u32>::new());
        assert_eq!(log.departed_at(7), vec![1]);
        assert_eq!(log.departed_at(11), vec![1, 3]);
        // Readmission restores membership for later serials.
        assert_eq!(log.departed_at(13), vec![3]);
        assert!(!log.is_departed_at(1, 13) && log.is_departed_at(3, 13));
    }

    #[test]
    fn an_expulsion_is_a_departure_never_undone() {
        let mut log = EpochLog::default();
        log.record(2, 3, EpochKind::Departure);
        // Recorded ahead of its round, whatever came before it.
        assert!(log.record(2, 8, EpochKind::Expulsion));
        assert!(!log.record(2, 9, EpochKind::Expulsion), "idempotent");
        log.record(2, 5, EpochKind::Readmission);
        assert_eq!(log.departed_at(4), [2]);
        assert_eq!(log.departed_at(8), Vec::<u32>::new(), "readmitted at 5");
        assert_eq!(log.departed_at(9), [2]);
        log.record(2, 10, EpochKind::Departure);
        log.record(2, 12, EpochKind::Readmission);
        assert_eq!(log.departed_at(u64::MAX), [2], "no readmission undoes it");
        assert_eq!(log.expelled_from(2), Some(8));
        assert!(
            !log.has_left_at(2, u64::MAX),
            "its certified standing is in"
        );
    }

    /// A redundant transition changes no answer, and transitions read in
    /// round order whatever order they were recorded in: a leave for
    /// round 9 recorded before one for round 3 still leaves from 3.
    #[test]
    fn epoch_log_idempotence() {
        let answers = |log: &EpochLog| (0..12).map(|r| log.departed_at(r)).collect::<Vec<_>>();
        let mut log = EpochLog::default();
        log.record(2, 5, EpochKind::Departure);
        log.record(2, 8, EpochKind::Readmission);
        let once = answers(&log);
        log.record(2, 6, EpochKind::Departure); // already departed
        log.record(0, 7, EpochKind::Readmission); // never departed
        log.record(2, 9, EpochKind::Readmission); // already back
        assert_eq!(answers(&log), once);
        assert!(!log.has_left_at(2, u64::MAX));
        let mut late = EpochLog::default();
        late.record(1, 9, EpochKind::Departure);
        late.record(1, 3, EpochKind::Departure);
        assert_eq!(
            (late.departed_at(3), late.departed_at(4)),
            (vec![], vec![1])
        );
        // One round, a readmission before a departure: out after it.
        late.record(1, 6, EpochKind::Departure);
        late.record(1, 6, EpochKind::Readmission);
        assert!(late.has_left_at(1, 7));
    }

    #[test]
    fn cert_formed_before_departure_still_verifies_after_it() {
        // The satellite-2 scenario at the membership layer: a checkpoint
        // cert whose quorum includes a later-departed governor is sized
        // by the epoch at its serial, not the current committee.
        let mut log = EpochLog::default();
        log.record(3, 8, EpochKind::Departure);
        // A cert at serial 6 (before the departure): all 4 were active,
        // so quorum is 3 and g3's signature counts.
        assert!(log.departed_at(6).is_empty());
        // A cert at serial 9 (after): 3 active, g3 excluded.
        assert_eq!(log.departed_at(9), [3]);
    }

    use MemberRole::{Collector, Governor};
    use MembershipAction::{Evict, Join, Leave};

    /// Proof of governor `g`'s equivocation in `round`, signed with
    /// `keys[g]`.
    fn proof(g: u32, round: u64, keys: &[KeyPair]) -> EquivocationEvidence {
        let header = |block: &[u8]| {
            let hash = prb_crypto::sha256::sha256(block);
            crate::evidence::SignedHeader::create(g, round, 1, hash, &keys[g as usize])
        };
        EquivocationEvidence::new(header(b"a"), header(b"b"))
    }

    fn equivocation(g: u32, round: u64, keys: &[KeyPair]) -> Conviction {
        Conviction::Equivocation(proof(g, round, keys))
    }

    /// A view of `m` governors and three collectors, with both tiers' keys.
    fn view(m: usize) -> (CommitteeView, Vec<KeyPair>, Vec<KeyPair>) {
        let (gkeys, gpks) = keys(m);
        let ckeys: Vec<KeyPair> = (0..3)
            .map(|c| subject_with(format!("mem-c{c}").as_bytes()).0)
            .collect();
        let cpks = ckeys.iter().map(KeyPair::public_key).collect();
        (CommitteeView::new(gpks, cpks, 3), gkeys, ckeys)
    }

    /// Certifies `req` at `round`: governor 0 endorses it, then governors
    /// 1, 2, … send shares until a cert forms.
    fn certify(v: &mut CommitteeView, req: &MembershipRequest, gkeys: &[KeyPair], round: u64) {
        let mut formed = v.on_request(req.clone(), round, 0, &gkeys[0]).1;
        for (g, key) in gkeys.iter().enumerate().skip(1) {
            if formed {
                return;
            }
            formed = v.on_share(MembershipShare::sign(req, g as u32, key));
        }
        assert!(formed, "{req:?} did not certify");
    }

    #[test]
    fn acceptability_by_role_action_standing_bond_and_conviction() {
        let (mut v, gkeys, ckeys) = view(5);
        // Collector 1 and governor 1 leave for round 1; governor 2 is
        // convicted.
        let c1 = MembershipRequest::create(Collector, 1, Leave, 0, 1, &ckeys[1]);
        let g1 = MembershipRequest::create(Governor, 1, Leave, 0, 1, &gkeys[1]);
        certify(&mut v, &c1, &gkeys, 0);
        certify(&mut v, &g1, &gkeys, 0);
        v.apply_due(1);
        assert!(v.convict(equivocation(2, 0, &gkeys), 1));
        let subjects = [
            (Collector, 0, &ckeys[0], true, false),
            (Collector, 1, &ckeys[1], false, false),
            (Governor, 0, &gkeys[0], true, false),
            (Governor, 1, &gkeys[1], false, false),
            (Governor, 2, &gkeys[2], true, true),
        ];
        for (role, member, key, active, convicted) in subjects {
            for action in [Join, Leave, Evict] {
                for bond in [0, 1] {
                    let req = match action {
                        Evict => MembershipRequest {
                            bond,
                            ..MembershipRequest::evict(role, member, 5)
                        },
                        _ => MembershipRequest::create(role, member, action, bond, 5, key),
                    };
                    let standing = match action {
                        Join => bond >= 1 && !active,
                        Leave | Evict => bond == 0 && active,
                    };
                    assert_eq!(
                        v.acceptable(&req, 1),
                        standing && !convicted,
                        "{role:?} {member} {action:?} bond {bond}"
                    );
                }
            }
        }
        let join = MembershipRequest::create(Collector, 1, Join, 1, 5, &ckeys[1]);
        assert!(v.acceptable(&join, 4));
        assert!(!v.acceptable(&join, 5), "effective at the current round");
        let forged = MembershipRequest::create(Collector, 1, Join, 1, 5, &ckeys[0]);
        assert!(!v.acceptable(&forged, 1), "signed by another subject");
        let unknown = MembershipRequest::evict(Collector, 3, 5);
        assert!(!v.acceptable(&unknown, 1), "no collector 3");
    }

    #[test]
    fn one_share_counts_per_governor_per_digest() {
        let (mut v, gkeys, _) = view(4);
        let req = MembershipRequest::evict(Collector, 0, 3);
        let share = |g: usize| MembershipShare::sign(&req, g as u32, &gkeys[g]);
        let (own, formed) = v.on_request(req.clone(), 0, 0, &gkeys[0]);
        assert_eq!(own, Some(share(0)));
        assert!(!formed);
        assert_eq!(v.on_request(req.clone(), 0, 0, &gkeys[0]), (None, false));
        assert!(!v.on_share(share(1)));
        assert!(!v.on_share(share(1)), "a repeated share counts once");
        assert!(!v.on_share(share(0)), "so does a relayed copy of our own");
        assert!(v.on_share(share(2)), "threshold(4) = 3 distinct governors");
        let signers: Vec<u32> = v.certs()[0].sigs.iter().map(|(g, _)| *g).collect();
        assert_eq!(signers, [0, 1, 2]);
        // A certified request neither signs nor buffers again.
        assert_eq!(v.on_request(req.clone(), 0, 0, &gkeys[0]), (None, false));
        assert!(!v.on_share(share(3)));
        assert_eq!(v.certs().len(), 1);
    }

    #[test]
    fn a_cert_forms_at_the_threshold_of_the_governors_not_excluded() {
        let req = MembershipRequest::evict(Collector, 0, 3);
        for convicted in [false, true] {
            let (mut v, gkeys, _) = view(5);
            let share = |g: usize| MembershipShare::sign(&req, g as u32, &gkeys[g]);
            if convicted {
                assert!(v.convict(equivocation(4, 0, &gkeys), 0));
                assert!(!v.convict(equivocation(4, 1, &gkeys), 0), "idempotent");
                assert_eq!(v.excluded(), [4]);
                assert!(!v.on_share(share(4)), "a convicted signer is skipped");
            }
            v.on_request(req.clone(), 0, 0, &gkeys[0]);
            assert!(!v.on_share(share(1)));
            // threshold(5) = 4; with governor 4 convicted, threshold(4) = 3.
            assert_eq!(v.on_share(share(2)), convicted);
            if !convicted {
                assert!(v.on_share(share(3)));
            }
            let signers = v.certs()[0].sigs.len();
            assert_eq!(signers, if convicted { 3 } else { 4 });
        }
    }

    /// Late evidence at m = 4: governor 0 assembles a cert effective at
    /// round 5 from the shares of 0, 1 and 3 before it learns that 3
    /// equivocated. Under the one rule the cert verifies if the conviction
    /// holds from round 5 or later (the culprit signed in round 3 or
    /// later), and is refused if it holds from before: 3 is skipped, and 0
    /// and 1 are two of the three the others need. The committee assumes
    /// evidence reaches every honest governor within [`LEAD`] rounds of
    /// the equivocation (DESIGN.md § Quorum certificates), so no honest
    /// assembler counts a share the log has already expelled.
    #[test]
    fn a_cert_assembled_before_late_evidence_is_counted_at_its_round() {
        let (mut v, gkeys, _) = view(4);
        let req = MembershipRequest::evict(Collector, 0, 5);
        v.on_request(req.clone(), 0, 0, &gkeys[0]);
        assert!(!v.on_share(MembershipShare::sign(&req, 1, &gkeys[1])));
        assert!(v.on_share(MembershipShare::sign(&req, 3, &gkeys[3])));
        let cert = v.certs()[0].clone();
        let pks = v.governor_pks().to_vec();
        for (signed_in, verdict) in [
            (3, Ok(())),
            (2, Err(CertError::UnderQuorum { got: 2, need: 3 })),
        ] {
            let (mut audited, _, _) = view(4);
            assert!(audited.convict(equivocation(3, signed_in, &gkeys), signed_in));
            assert_eq!(cert.audit(&pks[0], &pks, audited.epochs()), verdict);
            let refused = u64::from(verdict.is_err());
            assert_eq!(audited.replay(vec![cert.clone()], Vec::new()).1, refused);
            let (mut reopened, _, _) = view(4);
            let stored = vec![proof(3, signed_in, &gkeys)];
            assert_eq!(reopened.replay(vec![cert.clone()], stored).1, refused);
        }
    }

    /// The round an expulsion counts from comes from what the culprit
    /// signed, so a governor in round 5 refuses a proof signed past round
    /// 5 + [`LEAD`], `u64::MAX` among them, and a stored one replays
    /// without overflow. Of two proofs the earlier round stands, whichever
    /// arrived first, so two views that saw them in either order keep one
    /// log and persist one proof.
    #[test]
    fn a_conviction_is_bounded_by_the_round_and_the_earliest_stands() {
        let (mut v, gkeys, _) = view(4);
        assert!(!v.convict(equivocation(3, u64::MAX, &gkeys), 5));
        assert!(!v.convict(equivocation(3, 8, &gkeys), 5), "past 5 + LEAD");
        assert!(v.excluded().is_empty() && v.evidence().is_empty());
        let stored = vec![proof(3, u64::MAX, &gkeys)];
        assert_eq!(v.replay(Vec::new(), stored), (Vec::new(), 0));
        assert_eq!(v.epochs().expelled_from(3), Some(u64::MAX));

        let (mut a, _, _) = view(4);
        let (mut b, _, _) = view(4);
        assert!(a.convict(equivocation(3, 7, &gkeys), 5));
        assert!(a.convict(equivocation(3, 4, &gkeys), 5), "moved back");
        assert!(!a.convict(equivocation(3, 6, &gkeys), 5));
        assert!(b.convict(equivocation(3, 4, &gkeys), 5));
        assert!(!b.convict(equivocation(3, 7, &gkeys), 5));
        assert_eq!(a.epochs(), b.epochs());
        assert_eq!(a.epochs().expelled_from(3), Some(4 + LEAD));
        assert_eq!(a.evidence(), b.evidence());
        assert_eq!(a.evidence(), [proof(3, 4, &gkeys)]);
        assert_eq!(
            (a.excluded(), a.convicted().collect::<Vec<_>>()),
            (&[3][..], vec![3])
        );
    }

    /// Governor 3's leave for round 5 is certified but not yet applied
    /// when shares for an eviction effective at round 6 arrive. Assembly
    /// counts the leave ahead of time, as the audit after it applies will:
    /// governor 3's share is skipped and the cert waits for governor 2.
    #[test]
    fn assembly_counts_the_governor_transitions_due_before_its_round() {
        let (mut v, gkeys, _) = view(4);
        let g3 = MembershipRequest::create(Governor, 3, Leave, 0, 5, &gkeys[3]);
        certify(&mut v, &g3, &gkeys, 0);
        let evict = MembershipRequest::evict(Collector, 0, 6);
        let share = |g: usize| MembershipShare::sign(&evict, g as u32, &gkeys[g]);
        v.on_request(evict.clone(), 1, 0, &gkeys[0]);
        assert!(!v.on_share(share(1)));
        assert!(!v.on_share(share(3)), "governor 3 is out at round 6");
        assert!(v.on_share(share(2)));
        let log = v.certs().to_vec();
        v.apply_due(5);
        let cert = v.certs()[1].clone();
        let signers: Vec<u32> = cert.sigs.iter().map(|(g, _)| *g).collect();
        assert_eq!(signers, [0, 1, 2]);
        let pks = v.governor_pks().to_vec();
        assert_eq!(cert.audit(&pks[0], &pks, v.epochs()), Ok(()));
        let (mut reopened, _, _) = view(4);
        assert_eq!(reopened.replay(log, Vec::new()).1, 0);
    }

    #[test]
    fn the_share_buffer_refuses_a_65th_request() {
        let (mut v, gkeys, _) = view(4);
        let evict = |round| MembershipRequest::evict(Collector, 0, round);
        for round in 1..=MEMBER_SHARE_BUFFERS as u64 {
            assert!(v.on_request(evict(round), 0, 0, &gkeys[0]).0.is_some());
        }
        assert_eq!(v.on_request(evict(65), 0, 0, &gkeys[0]), (None, false));
        assert!(!v.on_share(MembershipShare::sign(&evict(65), 1, &gkeys[1])));
        // The 64 buffered requests still certify, which frees a slot.
        certify(&mut v, &evict(64), &gkeys, 0);
        assert!(v.on_request(evict(65), 0, 0, &gkeys[0]).0.is_some());
    }

    /// Certs formed out of their order, applied through round 9: collector
    /// 2 evicted for round 6, collector 0 leaving for round 9 and then for
    /// round 3, governor 3 and collector 1 leaving for round 5; then, once
    /// it is out, collector 0 rejoining for round 9.
    fn scripted_churn() -> (CommitteeView, Vec<Transition>) {
        let (mut v, gkeys, ckeys) = view(4);
        let leave = |c: usize, round| {
            MembershipRequest::create(Collector, c as u32, Leave, 0, round, &ckeys[c])
        };
        let due = |v: &CommitteeView, round| -> Vec<_> {
            v.due(round)
                .map(|r| (r.effective_round, r.role, r.member, r.action))
                .collect()
        };
        certify(
            &mut v,
            &MembershipRequest::evict(Collector, 2, 6),
            &gkeys,
            0,
        );
        certify(&mut v, &leave(0, 9), &gkeys, 0);
        let g3 = MembershipRequest::create(Governor, 3, Leave, 0, 5, &gkeys[3]);
        certify(&mut v, &g3, &gkeys, 0);
        certify(&mut v, &leave(1, 5), &gkeys, 0);
        certify(&mut v, &leave(0, 3), &gkeys, 0);
        assert_eq!(due(&v, 2), []);
        assert_eq!(
            due(&v, 5),
            [
                (3, Collector, 0, Leave),
                (5, Collector, 1, Leave),
                (5, Governor, 3, Leave)
            ]
        );
        let mut applied = v.apply_due(5);
        assert_eq!(
            applied,
            [
                Transition::Left(Collector, 0),
                Transition::Left(Collector, 1),
                Transition::Left(Governor, 3)
            ]
        );
        assert_eq!(v.excluded(), [3]);
        // Governor 3's share no longer counts: governors 0–2 certify.
        let rejoin = MembershipRequest::create(Collector, 0, Join, 1, 9, &ckeys[0]);
        certify(&mut v, &rejoin, &gkeys, 5);
        assert_eq!(v.certs().last().unwrap().sigs.len(), 3);
        // A join and a leave of one member for one round: the join first.
        assert_eq!(
            due(&v, 9),
            [
                (6, Collector, 2, Evict),
                (9, Collector, 0, Join),
                (9, Collector, 0, Leave)
            ]
        );
        let late = v.apply_due(9);
        assert_eq!(
            late,
            [
                Transition::Left(Collector, 2),
                Transition::Joined(Collector, 0),
                Transition::Left(Collector, 0)
            ]
        );
        assert_eq!(v.due(u64::MAX).count(), 0);
        applied.extend(late);
        (v, applied)
    }

    #[test]
    fn due_transitions_come_out_in_one_order() {
        let (v, _) = scripted_churn();
        assert!((0..3).all(|c| !v.is_collector_active(c)));
        assert!(v.has_left(3));
    }

    #[test]
    fn a_replayed_log_ends_where_live_application_did() {
        let (live, applied) = scripted_churn();
        let (gkeys, _) = keys(4);
        let mut log = live.certs().to_vec();
        // A cert whose governor 1 share is signed with governor 3's key.
        let mut forged = cert(
            &MembershipRequest::evict(Governor, 2, 7),
            &[0, 1, 2],
            &gkeys,
        );
        forged.sigs[1].1 = MembershipShare::sign(&forged.state, 1, &gkeys[3]).sig;
        log.push(forged);
        let (mut reopened, _, _) = view(4);
        // In log order collector 0 would leave for round 9 first and end
        // active; in the one order it ends out, as it did live.
        assert_eq!(reopened.replay(log, Vec::new()), (applied, 1));
        assert_eq!(reopened.certs(), live.certs());
        assert_eq!(reopened.epochs(), live.epochs());
        assert_eq!(reopened.excluded(), live.excluded());
        for c in 0..3 {
            assert_eq!(reopened.is_collector_active(c), live.is_collector_active(c));
        }
    }
}
