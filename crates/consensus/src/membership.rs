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
//! were signed, not by today's headcount.

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};

use crate::quorum::{Cert, CertError, Share, Subject, Tally};

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

/// One committee transition, anchored to the point on the log's axis it
/// took effect at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochEvent {
    /// The certified request's `effective_round`, not a chain height (see
    /// [`EpochLog`] on the axis).
    pub serial: u64,
    /// The member's committee index.
    pub member: u32,
    /// Departure or readmission.
    pub kind: EpochKind,
}

/// The committee's membership history along one axis, which the code
/// calls `serial`.
///
/// **The axis.** A governor records each event at the certified request's
/// `effective_round`, a round number. The log is queried with rounds (a
/// membership cert's audit, [`EpochLog::active_at`] its effective round)
/// and with chain serials (a checkpoint cert's quorum,
/// [`crate::checkpoint::Committee::excluded_at`] its serial). The two
/// agree only while every round commits exactly one block.
///
/// Events are appended in application order (monotone within one
/// governor's view). `departed_at(s)` reconstructs who was out of the
/// committee at `s`: an event at `e` affects queries strictly greater
/// than `e`, so a certificate formed at the very point a departure was
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

    /// Records `member` leaving the committee at `serial`.
    /// Idempotent: a member already departed is not re-recorded.
    pub fn record_departure(&mut self, member: u32, serial: u64) {
        if self.is_departed_now(member) {
            return;
        }
        self.events.push(EpochEvent {
            serial,
            member,
            kind: EpochKind::Departure,
        });
    }

    /// Records `member` rejoining at `serial`. Idempotent:
    /// only a currently departed member is re-admitted.
    pub fn record_readmission(&mut self, member: u32, serial: u64) {
        if !self.is_departed_now(member) {
            return;
        }
        self.events.push(EpochEvent {
            serial,
            member,
            kind: EpochKind::Readmission,
        });
    }

    /// Whether `member` is departed in the latest epoch.
    pub fn is_departed_now(&self, member: u32) -> bool {
        self.departed_at(u64::MAX).contains(&member)
    }

    /// Members out of the committee for certs at `serial`: every member
    /// whose last event strictly below `serial` was a departure. Sorted.
    pub fn departed_at(&self, serial: u64) -> Vec<u32> {
        let mut departed = Vec::new();
        for e in self.events.iter().filter(|e| e.serial < serial) {
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

    /// Active committee size for certs at `serial`.
    pub fn active_at(&self, serial: u64) -> usize {
        self.initial - self.departed_at(serial).len()
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
}
