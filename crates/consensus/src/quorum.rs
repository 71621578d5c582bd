//! One quorum certificate for everything the committee signs.
//!
//! Checkpoints and membership transitions are certified alike, and the
//! stake-transform block (§3.4.3) is the same primitive: each governor
//! signs a [`Share`] over a subject's digest under its kind's domain tag, a
//! [`ShareBuffer`] collects them, and a quorum over one digest forms a
//! [`Cert`] that anyone holding the committee's keys can check.
//! [`threshold`] sizes every quorum in the crate, PBFT's and the rotation
//! protocol's votes included.
//!
//! A [`Tally`] says whose signatures count and how many are needed. A
//! signer past the committee is refused, a repeated one counts once, and
//! one in `excluded` is skipped, not refused (evidence may spread after an
//! honest share). Every cert is counted by one rule, [`Tally::bft`]:
//! `excluded` is the governors [`crate::membership::EpochLog::departed_at`]
//! the cert's round (a membership cert's effective round, a checkpoint's
//! serial), and a threshold of the other members must sign. Assembly,
//! share checks, offers, the reopen audit and external audits all read it.
//! [`Tally::all`] (every member left) serves the stake block alone.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, Sig};

/// Signatures a quorum needs of `k` counted governors: `⌊2k/3⌋ + 1`. Two
/// quorums of `m` share `⌊(m − 1)/3⌋ + 1` members, and one forms with that
/// many silent.
pub fn threshold(k: usize) -> usize {
    2 * k / 3 + 1
}

/// A kind of subject the committee certifies.
pub trait Subject: Clone {
    /// Domain tag of the kind's share signatures.
    const TAG: &'static [u8];
    /// What the kind's shares name besides the digest: a checkpoint's
    /// serial; nothing, `()`, for a membership request.
    type Scope: Copy + Eq + fmt::Debug;
    /// This subject's scope.
    fn scope(&self) -> Self::Scope;
    /// Feeds `scope` into a share's signed message.
    fn hash_scope(scope: Self::Scope, h: &mut Sha256);
    /// The digest every share over this subject signs.
    fn digest(&self) -> Digest;
    /// Whether a cert over it can hold; else [`CertError::MalformedState`].
    fn well_formed(&self) -> bool {
        true
    }
}

/// One governor's signature over a subject's digest.
#[derive(Clone, Debug, PartialEq)]
pub struct Share<S: Subject> {
    /// The subject's scope.
    pub scope: S::Scope,
    /// The subject's digest.
    pub digest: Digest,
    /// The signing governor's index.
    pub governor: u32,
    /// Signature over `H(tag ‖ "share" ‖ governor ‖ scope ‖ digest)`.
    pub sig: Sig,
}

impl<S: Subject> Share<S> {
    fn message(governor: u32, scope: S::Scope, digest: &Digest) -> Digest {
        let mut h = Sha256::new();
        h.update_field(S::TAG);
        h.update(b"share");
        h.update(&governor.to_be_bytes());
        S::hash_scope(scope, &mut h);
        h.update_field(digest.as_bytes());
        h.finalize()
    }

    /// Governor `governor`'s share over a subject of this scope and digest.
    pub fn create(scope: S::Scope, digest: Digest, governor: u32, key: &KeyPair) -> Self {
        let sig = key.sign(Self::message(governor, scope, &digest).as_bytes());
        Share {
            scope,
            digest,
            governor,
            sig,
        }
    }

    /// Governor `governor`'s share over `subject`.
    pub fn sign(subject: &S, governor: u32, key: &KeyPair) -> Self {
        Self::create(subject.scope(), subject.digest(), governor, key)
    }

    /// Whether the signature verifies under the claimed governor's key.
    pub fn verify(&self, pks: &[PublicKey]) -> bool {
        let msg = Self::message(self.governor, self.scope, &self.digest);
        pks.get(self.governor as usize)
            .is_some_and(|pk| pk.verify(msg.as_bytes(), &self.sig))
    }
}

/// Why a certificate failed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CertError {
    /// Fewer valid, distinct, counted signers than the quorum.
    UnderQuorum {
        /// Valid signatures counted.
        got: usize,
        /// Signatures required.
        need: usize,
    },
    /// A signature names an out-of-committee governor or fails to verify.
    BadSignature {
        /// The offending signer index.
        governor: u32,
    },
    /// The subject is not [`Subject::well_formed`].
    MalformedState,
    /// A membership request's subject authorization fails.
    BadSubject,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::UnderQuorum { got, need } => {
                write!(f, "{got} valid signatures, quorum is {need}")
            }
            CertError::BadSignature { governor } => write!(f, "signature of g{governor} invalid"),
            CertError::MalformedState => write!(f, "inconsistent state vectors"),
            CertError::BadSubject => write!(f, "subject authorization invalid"),
        }
    }
}

impl std::error::Error for CertError {}

impl CertError {
    /// A short stable label for metric keys (`checkpoint.rejected.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            CertError::UnderQuorum { .. } => "under_quorum",
            CertError::BadSignature { .. } => "bad_signature",
            CertError::MalformedState => "malformed_state",
            CertError::BadSubject => "bad_subject",
        }
    }
}

/// Whose signatures count toward a quorum and how many it needs.
#[derive(Clone, Copy, Debug)]
pub struct Tally<'a> {
    excluded: &'a [u32],
    need: usize,
}

impl<'a> Tally<'a> {
    fn others(m: usize, excluded: &[u32]) -> usize {
        m - excluded.iter().filter(|&&g| (g as usize) < m).count()
    }

    /// `excluded` skipped, a [`threshold`] of the other of `m` members.
    pub fn bft(m: usize, excluded: &'a [u32]) -> Self {
        let need = threshold(Self::others(m, excluded));
        Tally { excluded, need }
    }

    /// `excluded` skipped, every other of `m` members.
    pub(crate) fn all(m: usize, excluded: &'a [u32]) -> Self {
        let need = Self::others(m, excluded);
        Tally { excluded, need }
    }

    /// Counted signatures needed.
    pub(crate) fn need(&self) -> usize {
        self.need
    }

    /// The signers of `sigs` that count in a committee of `m`, each once,
    /// in order; `Err` names the first index past the committee.
    pub(crate) fn counted<'s>(
        &self,
        sigs: &'s [(u32, Sig)],
        m: usize,
    ) -> Result<Vec<(u32, &'s Sig)>, u32> {
        let mut seen = vec![false; m];
        let mut out = Vec::with_capacity(sigs.len());
        for (g, sig) in sigs {
            let slot = seen.get_mut(*g as usize).ok_or(*g)?;
            if !*slot && !self.excluded.contains(g) {
                *slot = true;
                out.push((*g, sig));
            }
        }
        Ok(out)
    }
}

/// A quorum-certified subject.
#[derive(Clone, Debug, PartialEq)]
pub struct Cert<S> {
    /// The certified subject: a checkpoint's state, or a membership request.
    pub state: S,
    /// `(governor, signature)` pairs, sorted by governor index.
    pub sigs: Vec<(u32, Sig)>,
}

impl<S: Subject> Cert<S> {
    /// The cert over `state`, whose digest is `digest`, once the verified
    /// `shares` over it reach `tally`.
    pub(crate) fn assemble(
        state: &S,
        digest: &Digest,
        shares: &[Share<S>],
        tally: Tally<'_>,
    ) -> Option<Self> {
        let mut sigs: Vec<(u32, Sig)> = shares
            .iter()
            .filter(|s| s.digest == *digest && !tally.excluded.contains(&s.governor))
            .map(|s| (s.governor, s.sig.clone()))
            .collect();
        sigs.sort_by_key(|(g, _)| *g);
        sigs.dedup_by_key(|(g, _)| *g);
        (sigs.len() >= tally.need).then(|| Cert {
            state: state.clone(),
            sigs,
        })
    }

    /// Verifies the cert by the one rule, [`Tally::bft`] with `excluded`
    /// skipped: a well-formed subject, and counted signers whose
    /// signatures over it verify and reach the threshold of the rest.
    ///
    /// # Errors
    ///
    /// Returns the first [`CertError`] encountered.
    pub fn verify(&self, pks: &[PublicKey], excluded: &[u32]) -> Result<(), CertError> {
        let tally = Tally::bft(pks.len(), excluded);
        if !self.state.well_formed() {
            return Err(CertError::MalformedState);
        }
        let bad = |governor| CertError::BadSignature { governor };
        let signers = tally.counted(&self.sigs, pks.len()).map_err(bad)?;
        let (scope, digest) = (self.state.scope(), self.state.digest());
        for &(g, sig) in &signers {
            let msg = Share::<S>::message(g, scope, &digest);
            if !pks[g as usize].verify(msg.as_bytes(), sig) {
                return Err(bad(g));
            }
        }
        let (got, need) = (signers.len(), tally.need);
        if got < need {
            return Err(CertError::UnderQuorum { got, need });
        }
        Ok(())
    }
}

type Pending<S> = (Option<(S, Digest)>, Vec<Share<S>>);

/// Verified shares per key until they form a cert: one per governor per
/// key, the subject and its digest once known, and shares under at most
/// `CAP` keys (a bound against share spam).
#[derive(Debug)]
pub struct ShareBuffer<K, S: Subject, const CAP: usize> {
    keys: HashMap<K, Pending<S>>,
}

impl<K, S: Subject, const CAP: usize> Default for ShareBuffer<K, S, CAP> {
    fn default() -> Self {
        ShareBuffer {
            keys: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + Hash, S: Subject, const CAP: usize> ShareBuffer<K, S, CAP> {
    /// Whether shares at `key` may buffer: some do, or fewer than `CAP`
    /// keys hold any.
    pub fn admits(&self, key: K) -> bool {
        self.keys.len() < CAP || self.keys.contains_key(&key)
    }

    /// The subject known at `key`, with its digest.
    pub fn subject(&self, key: K) -> Option<&(S, Digest)> {
        self.keys.get(&key)?.0.as_ref()
    }

    /// Whether `governor` has a share at `key`.
    pub fn has(&self, key: K, governor: u32) -> bool {
        self.shares(key).iter().any(|s| s.governor == governor)
    }

    /// The shares buffered at `key`.
    pub fn shares(&self, key: K) -> &[Share<S>] {
        self.keys.get(&key).map_or(&[], |p| &p.1)
    }

    /// Sets the subject at `key`, past the cap (the local truth always has
    /// room), and drops the shares over another digest; returns how many.
    pub fn set_subject(&mut self, key: K, subject: S) -> u64 {
        let digest = subject.digest();
        let (known, shares) = self.keys.entry(key).or_default();
        let before = shares.len();
        shares.retain(|s| s.digest == digest);
        *known = Some((subject, digest));
        (before - shares.len()) as u64
    }

    /// Buffers `share` at `key` unless its governor has one there; callers
    /// ask [`admits`](Self::admits) first.
    pub fn insert(&mut self, key: K, share: Share<S>) {
        let shares = &mut self.keys.entry(key).or_default().1;
        if !shares.iter().any(|s| s.governor == share.governor) {
            shares.push(share);
        }
    }

    /// The cert at `key` once the shares over its subject reach `tally`.
    pub fn assemble(&self, key: K, tally: Tally<'_>) -> Option<Cert<S>> {
        let (subject, shares) = self.keys.get(&key)?;
        let (state, digest) = subject.as_ref()?;
        Cert::assemble(state, digest, shares, tally)
    }

    /// Drops everything at `key`.
    pub fn remove(&mut self, key: K) {
        self.keys.remove(&key);
    }

    /// Keeps only the keys `keep` holds true for.
    pub fn retain(&mut self, mut keep: impl FnMut(K) -> bool) {
        self.keys.retain(|&k, _| keep(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;

    #[derive(Clone, Debug, PartialEq)]
    struct Note(u64);

    impl Subject for Note {
        const TAG: &'static [u8] = b"prb-test-note";
        type Scope = u64;
        fn scope(&self) -> u64 {
            self.0
        }
        fn hash_scope(scope: u64, h: &mut Sha256) {
            h.update(&scope.to_be_bytes());
        }
        fn digest(&self) -> Digest {
            prb_crypto::sha256::sha256(&self.0.to_be_bytes())
        }
        fn well_formed(&self) -> bool {
            self.0 != 0
        }
    }

    fn keys(m: usize) -> (Vec<KeyPair>, Vec<PublicKey>) {
        let scheme = CryptoScheme::sim();
        let keys: Vec<_> = (0..m)
            .map(|g| scheme.keypair_from_seed(format!("quorum-g{g}").as_bytes()))
            .collect();
        let pks = keys.iter().map(|k| k.public_key()).collect();
        (keys, pks)
    }

    fn cert(note: u64, signers: &[u32], keys: &[KeyPair]) -> Cert<Note> {
        let sigs = signers
            .iter()
            .map(|&g| (g, Share::sign(&Note(note), g, &keys[g as usize]).sig))
            .collect();
        Cert {
            state: Note(note),
            sigs,
        }
    }

    #[test]
    fn threshold_intersects_in_an_honest_member_and_survives_f_silent() {
        for m in 1..=64usize {
            let (q, f) = (threshold(m), (m - 1) / 3);
            assert!(
                2 * q - m > f,
                "m {m}: two quorums of {q} share only {}",
                2 * q - m
            );
            assert!(q <= m - f, "m {m}: {f} silent starve a quorum of {q}");
        }
        let sizes: Vec<usize> = [4, 7, 8, 10, 16, 32].map(threshold).to_vec();
        assert_eq!(sizes, [3, 5, 6, 7, 11, 22]);
    }

    #[test]
    fn counted_signers_are_distinct_in_range_and_not_excluded() {
        let (keys, _) = keys(4);
        let sigs = cert(1, &[2, 0, 2, 1, 3], &keys).sigs;
        let signers = |t: Tally<'_>| {
            t.counted(&sigs, 4)
                .map(|v| v.iter().map(|(g, _)| *g).collect::<Vec<_>>())
        };
        assert_eq!(signers(Tally::bft(4, &[])), Ok(vec![2, 0, 1, 3]));
        assert_eq!(signers(Tally::bft(4, &[1])), Ok(vec![2, 0, 3]));
        assert_eq!(Tally::bft(4, &[1]).counted(&sigs, 3), Err(3));
        assert_eq!(
            Tally::bft(4, &[1, 9]).need(),
            3,
            "out-of-range exclusions shrink nothing"
        );
        assert_eq!(Tally::all(4, &[1]).need(), 3);
    }

    #[test]
    fn one_rule_skips_a_departed_signer() {
        // Signed at m = 4 by 0, 1 and 3; governor 3 is departed at the
        // cert's round: two of the three the other three need.
        let (keys, pks) = keys(4);
        let c = cert(7, &[0, 1, 3], &keys);
        assert_eq!(c.verify(&pks, &[]), Ok(()));
        let under = Err(CertError::UnderQuorum { got: 2, need: 3 });
        assert_eq!(c.verify(&pks, &[3]), under);
        assert_eq!(cert(7, &[0, 1, 2], &keys).verify(&pks, &[3]), Ok(()));
    }

    #[test]
    fn verify_refuses_forged_out_of_range_and_malformed() {
        let (keys, pks) = keys(4);
        let mut c = cert(5, &[0, 1, 2], &keys);
        c.sigs[1].1 = Share::sign(&Note(5), 1, &keys[3]).sig;
        assert_eq!(
            c.verify(&pks, &[]),
            Err(CertError::BadSignature { governor: 1 })
        );
        // An excluded signer's signature is skipped, not checked.
        assert_eq!(c.verify(&pks, &[1, 3]), Ok(()));
        let mut c = cert(5, &[0, 1, 2], &keys);
        c.sigs[2].0 = 4;
        assert_eq!(
            c.verify(&pks, &[]),
            Err(CertError::BadSignature { governor: 4 })
        );
        assert_eq!(
            cert(0, &[0, 1, 2], &keys).verify(&pks, &[]),
            Err(CertError::MalformedState)
        );
    }

    #[test]
    fn shares_bind_tag_governor_scope_and_digest() {
        let (keys, pks) = keys(4);
        let share = Share::sign(&Note(3), 2, &keys[2]);
        assert!(share.verify(&pks));
        let mut wrong = share.clone();
        wrong.governor = 1;
        assert!(!wrong.verify(&pks));
        let mut wrong = share.clone();
        wrong.scope = 4;
        assert!(!wrong.verify(&pks));
        let mut wrong = share.clone();
        wrong.digest = Note(4).digest();
        assert!(!wrong.verify(&pks));
        wrong.governor = 9;
        assert!(!wrong.verify(&pks));
    }

    #[test]
    fn the_buffer_keeps_one_share_per_governor_and_caps_keys() {
        let (keys, _) = keys(4);
        let mut buf: ShareBuffer<u64, Note, 2> = ShareBuffer::default();
        let share = |n: u64, g: u32| Share::sign(&Note(n), g, &keys[g as usize]);
        buf.insert(1, share(1, 0));
        buf.insert(1, share(1, 0));
        buf.insert(1, share(9, 1));
        assert_eq!(buf.shares(1).len(), 2);
        assert!(buf.has(1, 1) && !buf.has(1, 2));
        assert!(
            buf.assemble(1, Tally::bft(4, &[])).is_none(),
            "no subject yet"
        );
        assert_eq!(
            buf.set_subject(1, Note(1)),
            1,
            "governor 1 signed another digest"
        );
        buf.insert(1, share(1, 2));
        assert!(buf.assemble(1, Tally::bft(4, &[])).is_none());
        buf.insert(1, share(1, 3));
        let cert = buf.assemble(1, Tally::bft(4, &[])).unwrap();
        assert_eq!(
            cert.sigs.iter().map(|(g, _)| *g).collect::<Vec<_>>(),
            [0, 2, 3]
        );
        assert!(buf.admits(2));
        buf.insert(2, share(2, 0));
        assert!(!buf.admits(3) && buf.admits(2));
        buf.retain(|k| k > 1);
        assert!(buf.subject(1).is_none() && buf.shares(1).is_empty());
        assert!(buf.admits(3), "one key left");
        buf.remove(2);
        assert!(buf.shares(2).is_empty());
    }
}
