//! Dynamic membership: quorum-certified join/leave/evict protocols and
//! the epoch log that makes committee size a function of time.
//!
//! A node enters or leaves the deployment through a [`MembershipRequest`]
//! — subject-signed for voluntary moves (a join posts a stake bond, a
//! leave renounces participation), unsigned for an eviction (the quorum
//! of governor shares *is* the authorization, exactly like an expulsion
//! conviction). Each governor that accepts a request signs a
//! [`MembershipShare`]; a [`crate::quorum`] of them forms a
//! [`MembershipCert`]. Certs persist across restarts via `prb-store`, so
//! membership epochs survive a crash.
//!
//! The [`EpochLog`] records every committee departure and readmission, so
//! a quorum is sized by the committee as it stood when a cert's shares
//! were signed, not by today's headcount. A governor's [`CommitteeView`]
//! holds its certs, its epoch log and its convictions, decides which
//! requests and shares count, and applies each transition at its round.

use std::collections::HashSet;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};

use crate::checkpoint::Committee;
use crate::quorum::{Cert, CertError, Share, ShareBuffer, Subject, Tally};

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
    /// and the signers reach [`Tally::active`], with `active` the
    /// [`EpochLog::active_at`] its effective round.
    ///
    /// # Errors
    ///
    /// Returns the first [`CertError`] encountered.
    pub fn audit(
        &self,
        subject_pk: &PublicKey,
        governor_pks: &[PublicKey],
        active: usize,
    ) -> Result<(), CertError> {
        if !self.state.authorized(subject_pk) {
            return Err(CertError::BadSubject);
        }
        self.verify_with(governor_pks, Tally::active(active))
    }
}

/// What an epoch event did to the member's committee standing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochKind {
    /// The member left the active committee (leave, evict or expulsion).
    Departure,
    /// The member rejoined the active committee.
    Readmission,
}

/// One committee transition, anchored to the round it took effect at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochEvent {
    /// The certified request's `effective_round`.
    pub round: u64,
    /// The member's committee index.
    pub member: u32,
    /// Departure or readmission.
    pub kind: EpochKind,
}

/// The committee's membership history by round.
///
/// A governor records each event at the certified request's
/// `effective_round`. The log is queried with rounds (a membership cert's
/// audit, [`EpochLog::active_at`] its effective round) and, through
/// [`crate::checkpoint::Committee::excluded_at`], with checkpoint serials,
/// which stand in for rounds only while every round commits one block.
///
/// Events are appended in application order (monotone within one
/// governor's view). `departed_at(r)` reconstructs who was out of the
/// committee at `r`: an event at `e` affects queries strictly greater
/// than `e`, so a certificate formed at the very round a departure was
/// recorded still counts the departing member as active — its share was
/// signed before the departure took effect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochLog {
    /// Committee size at genesis.
    initial: usize,
    events: Vec<EpochEvent>,
}

impl EpochLog {
    /// A log for a committee of `initial` members, no events yet.
    pub fn new(initial: usize) -> Self {
        EpochLog {
            initial,
            events: Vec::new(),
        }
    }

    /// The genesis committee size.
    pub fn initial(&self) -> usize {
        self.initial
    }

    /// All recorded events, in application order.
    pub fn events(&self) -> &[EpochEvent] {
        &self.events
    }

    /// Records `member` leaving the committee at `round`.
    /// Idempotent: a member already departed is not re-recorded.
    pub fn record_departure(&mut self, member: u32, round: u64) {
        if self.is_departed_now(member) {
            return;
        }
        self.events.push(EpochEvent {
            round,
            member,
            kind: EpochKind::Departure,
        });
    }

    /// Records `member` rejoining at `round`. Idempotent:
    /// only a currently departed member is re-admitted.
    pub fn record_readmission(&mut self, member: u32, round: u64) {
        if !self.is_departed_now(member) {
            return;
        }
        self.events.push(EpochEvent {
            round,
            member,
            kind: EpochKind::Readmission,
        });
    }

    /// Whether `member` is departed in the latest epoch: its last event
    /// was a departure.
    pub fn is_departed_now(&self, member: u32) -> bool {
        let last = self.events.iter().rev().find(|e| e.member == member);
        last.is_some_and(|e| e.kind == EpochKind::Departure)
    }

    /// Members out of the committee at `round`: every member whose last
    /// event strictly below `round` was a departure. Sorted.
    pub fn departed_at(&self, round: u64) -> Vec<u32> {
        let mut departed = Vec::new();
        for e in self.events.iter().filter(|e| e.round < round) {
            match e.kind {
                EpochKind::Departure => {
                    if !departed.contains(&e.member) {
                        departed.push(e.member);
                    }
                }
                EpochKind::Readmission => departed.retain(|&m| m != e.member),
            }
        }
        departed.sort_unstable();
        departed
    }

    /// Active committee size at `round`.
    pub fn active_at(&self, round: u64) -> usize {
        self.initial - self.departed_at(round).len()
    }
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
/// standing, the membership certs, and the equivocation convictions. It
/// decides; the governor sends, stores and acts on what it returns.
///
/// ```text
///   request    ──on_request──▶ (own share to broadcast?, cert formed?)
///   peer share ──on_share────▶ cert formed?
///   round r    ──apply_due───▶ the transitions due at r, in one order
///   reopen     ──replay──────▶ (transitions applied, certs refused)
///   evidence   ──convict─────▶ newly convicted?
/// ```
///
/// A governor departed now or convicted is *excluded*: its shares, claims
/// and gossip do not count. Convictions are not certified transitions
/// and stay out of the epoch log.
#[derive(Debug)]
pub struct CommitteeView {
    governor_pks: Vec<PublicKey>,
    collector_pks: Vec<PublicKey>,
    collector_active: Vec<bool>,
    epochs: EpochLog,
    /// Sorted, as is `excluded`.
    convicted: Vec<u32>,
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
            epochs: EpochLog::new(governor_pks.len()),
            governor_pks,
            collector_pks,
            collector_active: vec![true; collectors],
            convicted: Vec::new(),
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
        Committee(&self.governor_pks, &self.epochs, &self.convicted)
    }

    /// The excluded governors, sorted.
    pub fn excluded(&self) -> &[u32] {
        &self.excluded
    }

    /// Whether governor `g` is excluded.
    pub fn is_excluded(&self, g: u32) -> bool {
        self.excluded.binary_search(&g).is_ok()
    }

    /// The convicted governors, sorted.
    pub fn convicted(&self) -> &[u32] {
        &self.convicted
    }

    /// Whether governor `g` is convicted.
    pub fn is_convicted(&self, g: u32) -> bool {
        self.convicted.binary_search(&g).is_ok()
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
            MemberRole::Governor => !self.epochs.is_departed_now(req.member),
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
    /// [`Tally::bft`] over the governors not excluded.
    fn assemble(&mut self, digest: Digest) -> bool {
        let tally = Tally::bft(self.governor_pks.len(), &self.excluded);
        let Some(cert) = self.shares.assemble(digest, tally) else {
            return false;
        };
        self.shares.remove(digest);
        self.queue(cert, digest);
        true
    }

    /// Appends `cert`, whose request digests to `digest`, to the log and
    /// queues it in the one order transitions apply in: by
    /// `(effective_round, role, member, action)`, ties in log order.
    fn queue(&mut self, cert: MembershipCert, digest: Digest) {
        let key = |r: &MembershipRequest| (r.effective_round, r.role, r.member, r.action);
        let at = self
            .pending
            .partition_point(|&i| key(&self.certs[i].state) <= key(&cert.state));
        self.pending.insert(at, self.certs.len());
        self.certs.push(cert);
        self.certified.push(digest);
    }

    /// Applies the transitions due at `round`, in [`due`](Self::due) order.
    pub fn apply_due(&mut self, round: u64) -> Vec<Transition> {
        let due: Vec<usize> = self.pending.drain(..self.due_len(round)).collect();
        due.into_iter().map(|i| self.apply(i)).collect()
    }

    /// Replays a persisted cert log on reopening: every cert applies at
    /// once, in the order live ones apply in, each audited first
    /// ([`MembershipCert::audit`] at its effective round's epoch in the
    /// replay so far). One that fails is refused and leaves the log.
    /// Returns the transitions applied and the number refused.
    pub fn replay(&mut self, certs: Vec<MembershipCert>) -> (Vec<Transition>, u64) {
        let first = self.certs.len();
        for cert in certs {
            let digest = cert.state.digest();
            self.queue(cert, digest);
        }
        let (order, live) = self.pending.iter().partition(|&&i| i >= first);
        self.pending = live;
        let mut kept = vec![true; self.certs.len()];
        let mut applied = Vec::new();
        for i in order {
            let cert = &self.certs[i];
            let active = self.epochs.active_at(cert.state.effective_round);
            let pk = self.subject_pk(&cert.state);
            if pk.is_none_or(|pk| cert.audit(pk, &self.governor_pks, active).is_err()) {
                kept[i] = false;
            } else {
                applied.push(self.apply(i));
            }
        }
        let refused = kept.iter().filter(|&&k| !k).count() as u64;
        let mut keep = kept.iter();
        self.certs.retain(|_| keep.next() == Some(&true));
        let mut keep = kept.iter();
        self.certified.retain(|_| keep.next() == Some(&true));
        (applied, refused)
    }

    fn apply(&mut self, i: usize) -> Transition {
        let req = &self.certs[i].state;
        let (role, member, round) = (req.role, req.member, req.effective_round);
        let join = req.action == MembershipAction::Join;
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
                let changed = self.epochs.is_departed_now(member) == join;
                if join {
                    self.epochs.record_readmission(member, round);
                } else {
                    self.epochs.record_departure(member, round);
                }
                self.refresh_excluded();
                changed
            }
        };
        match (changed, join) {
            (false, _) => Transition::Unchanged,
            (true, true) => Transition::Joined(role, member),
            (true, false) => Transition::Left(role, member),
        }
    }

    /// Records governor `g`'s conviction; `false` if it already stood.
    pub fn convict(&mut self, g: u32) -> bool {
        let Err(at) = self.convicted.binary_search(&g) else {
            return false;
        };
        self.convicted.insert(at, g);
        self.refresh_excluded();
        true
    }

    fn refresh_excluded(&mut self) {
        self.excluded = self.checkpoint().excluded_at(u64::MAX);
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
        // 3 of 4 active: quorum.
        assert_eq!(cert(&req, &[0, 1, 2], &gkeys).audit(&pk, &pks, 4), Ok(()));
        // 2 of 4: under quorum; duplicates do not inflate.
        let mut thin = cert(&req, &[0, 1], &gkeys);
        assert_eq!(
            thin.audit(&pk, &pks, 4),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
        let extra = thin.sigs[0].clone();
        thin.sigs.push(extra);
        assert_eq!(
            thin.audit(&pk, &pks, 4),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
        // With a 3-member active committee the same 3 signatures carry it.
        assert_eq!(cert(&req, &[0, 1, 2], &gkeys).audit(&pk, &pks, 3), Ok(()));
        // Forged governor signature.
        let mut forged = cert(&req, &[0, 1, 2], &gkeys);
        forged.sigs[2] = (2, MembershipShare::sign(&req, 2, &gkeys[3]).sig);
        assert_eq!(
            forged.audit(&pk, &pks, 4),
            Err(CertError::BadSignature { governor: 2 })
        );
        // Out-of-committee signer index.
        let mut oob = cert(&req, &[0, 1, 2], &gkeys);
        oob.sigs[0].0 = 9;
        assert_eq!(
            oob.audit(&pk, &pks, 4),
            Err(CertError::BadSignature { governor: 9 })
        );
        // Bad subject authorization dominates.
        let mut stripped = cert(&req, &[0, 1, 2], &gkeys);
        stripped.state.sig = None;
        assert_eq!(stripped.audit(&pk, &pks, 4), Err(CertError::BadSubject));
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
        assert_eq!(cert.audit(&pks[0], &pks, 4), Ok(()));
        // Governor 1 excluded: two of the three the other three need.
        assert!(assemble(&shares, &[1]).is_none());
        let shares = vec![share(3), share(0), share(2)];
        let cert = assemble(&shares, &[1]).unwrap();
        assert_eq!(cert.audit(&pks[0], &pks, 3), Ok(()));
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
        let mut log = EpochLog::new(4);
        assert_eq!(log.active_at(0), 4);
        assert_eq!(log.departed_at(100), Vec::<u32>::new());
        log.record_departure(1, 6);
        log.record_departure(3, 10);
        log.record_readmission(1, 12);
        // Strictly-below semantics: a cert at the departure serial still
        // counts the departing member as active.
        assert_eq!(log.departed_at(6), Vec::<u32>::new());
        assert_eq!(log.active_at(6), 4);
        assert_eq!(log.departed_at(7), vec![1]);
        assert_eq!(log.active_at(7), 3);
        assert_eq!(log.departed_at(11), vec![1, 3]);
        assert_eq!(log.active_at(11), 2);
        // Readmission restores membership for later serials.
        assert_eq!(log.departed_at(13), vec![3]);
        assert_eq!(log.active_at(13), 3);
    }

    #[test]
    fn epoch_log_idempotence() {
        let mut log = EpochLog::new(4);
        log.record_departure(2, 5);
        log.record_departure(2, 6); // already departed: ignored
        assert_eq!(log.events().len(), 1);
        log.record_readmission(0, 7); // never departed: ignored
        assert_eq!(log.events().len(), 1);
        log.record_readmission(2, 8);
        log.record_readmission(2, 9); // already back: ignored
        assert_eq!(log.events().len(), 2);
        assert!(!log.is_departed_now(2));
        assert_eq!(log.initial(), 4);
    }

    #[test]
    fn cert_formed_before_departure_still_verifies_after_it() {
        // The satellite-2 scenario at the membership layer: a checkpoint
        // cert whose quorum includes a later-departed governor is sized
        // by the epoch at its serial, not the current committee.
        let mut log = EpochLog::new(4);
        log.record_departure(3, 8);
        // A cert at serial 6 (before the departure): all 4 were active,
        // so quorum is 3 and g3's signature counts.
        assert_eq!(log.active_at(6), 4);
        assert!(!log.departed_at(6).contains(&3));
        // A cert at serial 9 (after): 3 active, g3 excluded.
        assert_eq!(log.active_at(9), 3);
        assert!(log.departed_at(9).contains(&3));
    }

    use MemberRole::{Collector, Governor};
    use MembershipAction::{Evict, Join, Leave};

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
        assert!(v.convict(2));
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
                assert!(v.convict(4));
                assert!(!v.convict(4), "idempotent");
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
        assert!(v.epochs().is_departed_now(3));
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
        assert_eq!(reopened.replay(log), (applied, 1));
        assert_eq!(reopened.certs(), live.certs());
        assert_eq!(reopened.epochs(), live.epochs());
        assert_eq!(reopened.excluded(), live.excluded());
        for c in 0..3 {
            assert_eq!(reopened.is_collector_active(c), live.is_collector_active(c));
        }
    }
}
