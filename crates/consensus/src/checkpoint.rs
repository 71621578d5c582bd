//! Quorum-signed checkpoints of the replicated state.
//!
//! Every `checkpoint_interval` blocks each governor snapshots its chain
//! head together with the stake vector (balances + transfer nonces) and
//! the full reputation table and gossips a [`CheckpointShare`] over the
//! snapshot's digest; a [`crate::quorum`] of matching shares forms a
//! [`CheckpointCert`]. A recovering or freshly joined governor that
//! verifies a cert adopts the state wholesale and fetches only the blocks
//! *after* it: O(delta) state-sync instead of an O(chain) replay, in the
//! spirit of reputation-snapshot (re)anchoring in RepChain
//! (arXiv:1901.05741). A cert at serial `s` counts everyone's signature but
//! the governors departed in `s`'s membership epoch, convictions included
//! ([`Committee::excluded_at`]); a governor's [`Certifier`] applies that
//! rule to its own and its peers' shares and to the certs offered by sync
//! peers or reopened from the store.

use std::collections::VecDeque;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey};

use crate::membership::EpochLog;
pub use crate::quorum::threshold as quorum;
use crate::quorum::{Cert, CertError, Share, ShareBuffer, Subject, Tally};

/// Serials that may buffer peer shares before this node has its own
/// snapshot for them (a bound against share spam).
const EARLY_SHARE_SERIALS: usize = 32;

/// Domain tag for checkpoint-share signatures.
const CHECKPOINT_TAG: &[u8] = b"prb-checkpoint";

/// One collector's reputation vector, flattened for snapshotting: the
/// multiplicative per-provider weights plus the two additive counters of
/// §3.4 (kept scheme-agnostic so `prb-consensus` does not depend on the
/// reputation crate).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectorSnapshot {
    /// Multiplicative screening weights, one per overseen provider slot.
    pub weights: Vec<f64>,
    /// The misreport counter (±1 per checked transaction).
    pub misreport: i64,
    /// The forge counter (≤ 0 in honest operation).
    pub forge: i64,
}

/// The full replicated state a checkpoint commits to.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointState {
    /// Serial of the chain head the snapshot was taken at.
    pub serial: u64,
    /// Hash of the block at `serial`.
    pub block_hash: Digest,
    /// Governor stake balances.
    pub stakes: Vec<u64>,
    /// Governor stake-transfer nonces (replay protection survives sync).
    pub stake_nonces: Vec<u64>,
    /// One reputation snapshot per collector.
    pub reputation: Vec<CollectorSnapshot>,
}

impl CheckpointState {
    /// The canonical digest every share signs. Weights are committed via
    /// their IEEE-754 bit patterns, so replicas agree iff their floats are
    /// bit-identical — the same determinism contract the simulation
    /// already relies on.
    pub fn digest(&self) -> Digest {
        let mut h = Sha256::new();
        h.update_field(CHECKPOINT_TAG);
        h.update(&self.serial.to_be_bytes());
        h.update_field(self.block_hash.as_bytes());
        h.update(&(self.stakes.len() as u64).to_be_bytes());
        for &s in &self.stakes {
            h.update(&s.to_be_bytes());
        }
        for &n in &self.stake_nonces {
            h.update(&n.to_be_bytes());
        }
        h.update(&(self.reputation.len() as u64).to_be_bytes());
        for c in &self.reputation {
            h.update(&(c.weights.len() as u64).to_be_bytes());
            for &w in &c.weights {
                h.update(&w.to_bits().to_be_bytes());
            }
            h.update(&c.misreport.to_be_bytes());
            h.update(&c.forge.to_be_bytes());
        }
        h.finalize()
    }
}

impl Subject for CheckpointState {
    const TAG: &'static [u8] = CHECKPOINT_TAG;
    type Scope = u64;

    fn scope(&self) -> u64 {
        self.serial
    }

    fn hash_scope(serial: u64, h: &mut Sha256) {
        h.update(&serial.to_be_bytes());
    }

    fn digest(&self) -> Digest {
        CheckpointState::digest(self)
    }

    fn well_formed(&self) -> bool {
        self.stake_nonces.len() == self.stakes.len()
    }
}

/// One governor's signature over a checkpoint state digest at a serial.
pub type CheckpointShare = Share<CheckpointState>;

/// A quorum-certified checkpoint, counted by [`crate::quorum::Tally::bft`].
pub type CheckpointCert = Cert<CheckpointState>;

/// The committee a governor counts checkpoint signatures against: every
/// governor's key by index, and the membership epoch log.
#[derive(Clone, Copy, Debug)]
pub struct Committee<'a>(pub &'a [PublicKey], pub &'a EpochLog);

impl Committee<'_> {
    /// Whose signatures do not count toward a cert at `serial`: the
    /// governors [`EpochLog::departed_at`] it. Sorted.
    ///
    /// The epoch log is kept by round, and this query reads `serial` as a
    /// round: the two agree only while every round commits exactly one
    /// block (ROADMAP item 20 fixes the axis before finality keys on it).
    pub fn excluded_at(&self, serial: u64) -> Vec<u32> {
        self.1.departed_at(serial)
    }
}

/// What a checkpoint share did to a [`Certifier`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShareStep {
    /// Excluded signer, serial already certified, bad signature, or past
    /// the early-share bound.
    Ignored,
    /// Over another digest than this node's own snapshot at its serial.
    Mismatch,
    /// Buffered toward a quorum.
    Buffered,
    /// Completed a quorum: [`Certifier::latest`] is the new cert.
    Formed,
}

/// Why a cert offer was refused; a refused offer never rolls back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfferRejected {
    /// Not ahead of the local chain head.
    Stale,
    /// It does not verify against the committee at its serial.
    Invalid(CertError),
}

/// One governor's checkpoint certification: its own snapshots awaiting a
/// quorum and the verified shares buffered for them (one per governor per
/// serial), the serials whose own share is still to announce, and the
/// latest cert it holds. It signs but never sends or stores.
///
/// ```text
///   block s commits ──capture───▶ snapshot kept, early mismatching shares dropped
///   dispatch ends   ──announce──▶ own share signed and buffered: Buffered | Formed
///   peer share      ──on_share──▶ Ignored | Mismatch | Buffered | Formed
///   sync offer      ──offer─────▶ Stale | Invalid(e) | adopted
/// ```
#[derive(Debug, Default)]
pub struct Certifier {
    latest: Option<CheckpointCert>,
    /// Own snapshots and shares by serial; the cap bounds serials that
    /// buffer peer shares before this node's own snapshot.
    buffer: ShareBuffer<u64, CheckpointState, EARLY_SHARE_SERIALS>,
    to_announce: VecDeque<u64>,
}

impl Certifier {
    /// The latest cert this node holds.
    pub fn latest(&self) -> Option<&CheckpointCert> {
        self.latest.as_ref()
    }

    fn certified(&self, serial: u64) -> bool {
        self.latest
            .as_ref()
            .is_some_and(|c| c.state.serial >= serial)
    }

    /// This node's snapshot as block `state.serial` commits: kept for
    /// assembly and queued for announcement. Peer shares that came early
    /// over another digest are dropped now that the local truth is known;
    /// returns how many.
    pub fn capture(&mut self, state: CheckpointState) -> u64 {
        self.to_announce.push_back(state.serial);
        self.buffer.set_subject(state.serial, state)
    }

    /// Signs governor `me`'s share for the next queued serial still
    /// awaiting a quorum and counts it, returning it for broadcast; `None`
    /// once the queue is empty.
    pub fn announce(
        &mut self,
        me: u32,
        key: &KeyPair,
        c: &Committee<'_>,
    ) -> Option<(CheckpointShare, ShareStep)> {
        while let Some(serial) = self.to_announce.pop_front() {
            let Some((_, digest)) = self.buffer.subject(serial) else {
                continue;
            };
            let share = CheckpointShare::create(serial, *digest, me, key);
            self.buffer.insert(serial, share.clone());
            return Some((share, self.assemble(serial, c)));
        }
        None
    }

    /// A peer's share arrived.
    pub fn on_share(&mut self, share: CheckpointShare, c: &Committee<'_>) -> ShareStep {
        let serial = share.scope;
        if c.1.is_departed_at(share.governor, serial)
            || self.certified(serial)
            || !share.verify(c.0)
        {
            return ShareStep::Ignored;
        }
        match self.buffer.subject(serial) {
            Some((_, digest)) if *digest != share.digest => return ShareStep::Mismatch,
            None if !self.buffer.admits(serial) => return ShareStep::Ignored,
            _ => {}
        }
        self.buffer.insert(serial, share);
        self.assemble(serial, c)
    }

    /// Forms the cert at `serial` once the counted shares over this node's
    /// own digest reach the quorum.
    fn assemble(&mut self, serial: u64, c: &Committee<'_>) -> ShareStep {
        if self.certified(serial) {
            return ShareStep::Buffered;
        }
        let excluded = c.excluded_at(serial);
        let Some(cert) = self
            .buffer
            .assemble(serial, Tally::bft(c.0.len(), &excluded))
        else {
            return ShareStep::Buffered;
        };
        self.hold(cert);
        ShareStep::Formed
    }

    /// `cert` was offered — by a sync peer, or by the store on reopening —
    /// to a node whose chain is `height` high: held only when strictly
    /// ahead and verified against the committee at its serial.
    ///
    /// # Errors
    ///
    /// [`OfferRejected`] says why the cert was refused.
    pub fn offer(
        &mut self,
        cert: CheckpointCert,
        height: u64,
        c: &Committee<'_>,
    ) -> Result<&CheckpointCert, OfferRejected> {
        if cert.state.serial <= height {
            return Err(OfferRejected::Stale);
        }
        let excluded = c.excluded_at(cert.state.serial);
        cert.verify(c.0, &excluded)
            .map_err(OfferRejected::Invalid)?;
        Ok(self.hold(cert))
    }

    /// Holds `cert` as the latest, dropping snapshots and shares at or
    /// below its serial.
    fn hold(&mut self, cert: CheckpointCert) -> &CheckpointCert {
        let serial = cert.state.serial;
        self.buffer.retain(|s| s > serial);
        self.latest.insert(cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::EpochKind;
    use prb_crypto::signer::CryptoScheme;

    fn keys(m: usize) -> (Vec<KeyPair>, Vec<PublicKey>) {
        let scheme = CryptoScheme::sim();
        let keys: Vec<_> = (0..m)
            .map(|g| scheme.keypair_from_seed(format!("ckpt-g{g}").as_bytes()))
            .collect();
        let pks = keys.iter().map(|k| k.public_key()).collect();
        (keys, pks)
    }

    fn state(serial: u64) -> CheckpointState {
        CheckpointState {
            serial,
            block_hash: prb_crypto::sha256::sha256(&serial.to_be_bytes()),
            stakes: vec![10, 20, 30, 40],
            stake_nonces: vec![0, 1, 0, 2],
            reputation: vec![
                CollectorSnapshot {
                    weights: vec![1.0, 0.5],
                    misreport: 3,
                    forge: 0,
                },
                CollectorSnapshot {
                    weights: vec![0.25, 1.0],
                    misreport: -1,
                    forge: -2,
                },
            ],
        }
    }

    fn cert(serial: u64, signers: &[usize], keys: &[KeyPair]) -> CheckpointCert {
        let st = state(serial);
        let digest = st.digest();
        let sigs = signers
            .iter()
            .map(|&g| {
                let share = CheckpointShare::create(serial, digest, g as u32, &keys[g]);
                (g as u32, share.sig)
            })
            .collect();
        CheckpointCert { state: st, sigs }
    }

    #[test]
    fn digest_commits_to_every_field() {
        let base = state(5);
        let mut variants = vec![base.clone(); 6];
        variants[0].serial = 6;
        variants[1].block_hash = prb_crypto::sha256::sha256(b"other");
        variants[2].stakes[1] = 21;
        variants[3].stake_nonces[0] = 9;
        variants[4].reputation[0].weights[1] = 0.75;
        variants[5].reputation[1].forge = 0;
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.digest(), base.digest(), "variant {i} collided");
        }
        assert_eq!(base.digest(), state(5).digest(), "digest is deterministic");
    }

    #[test]
    fn share_roundtrip_and_forgery() {
        let (keys, pks) = keys(4);
        let digest = state(3).digest();
        let share = CheckpointShare::create(3, digest, 2, &keys[2]);
        assert!(share.verify(&pks));
        // Wrong signer index, wrong serial, wrong digest: all rejected.
        let mut wrong = share.clone();
        wrong.governor = 1;
        assert!(!wrong.verify(&pks));
        let mut wrong = share.clone();
        wrong.scope = 4;
        assert!(!wrong.verify(&pks));
        let mut wrong = share;
        wrong.digest = prb_crypto::sha256::sha256(b"x");
        assert!(!wrong.verify(&pks));
    }

    #[test]
    fn quorum_formula() {
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 4);
        assert_eq!(quorum(6), 5);
        assert_eq!(quorum(7), 5);
    }

    #[test]
    fn full_quorum_cert_verifies() {
        let (keys, pks) = keys(4);
        let c = cert(5, &[0, 1, 2, 3], &keys);
        assert_eq!(c.verify(&pks, &[]), Ok(()));
        // Exactly at quorum (3 of 4) also verifies.
        let c = cert(5, &[0, 2, 3], &keys);
        assert_eq!(c.verify(&pks, &[]), Ok(()));
    }

    #[test]
    fn under_quorum_cert_rejected() {
        let (keys, pks) = keys(4);
        let c = cert(5, &[0, 1], &keys);
        assert_eq!(
            c.verify(&pks, &[]),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
        // Duplicate signatures do not inflate the count.
        let mut dup = cert(5, &[0, 1], &keys);
        let extra = dup.sigs[0].clone();
        dup.sigs.push(extra);
        assert_eq!(
            dup.verify(&pks, &[]),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let (keys, pks) = keys(4);
        let mut c = cert(5, &[0, 1, 2], &keys);
        // g2's slot actually signed by g3's key.
        let digest = c.state.digest();
        let forged = CheckpointShare::create(5, digest, 2, &keys[3]);
        c.sigs[2] = (2, forged.sig);
        assert_eq!(
            c.verify(&pks, &[]),
            Err(CertError::BadSignature { governor: 2 })
        );
        // A signature over a *different* state digest is also forged: the
        // cert's state no longer matches what was signed.
        let mut c = cert(5, &[0, 1, 2], &keys);
        c.state.stakes[0] += 1;
        assert!(matches!(
            c.verify(&pks, &[]),
            Err(CertError::BadSignature { .. })
        ));
        // Out-of-committee signer index.
        let mut c = cert(5, &[0, 1, 2], &keys);
        c.sigs[0].0 = 9;
        assert_eq!(
            c.verify(&pks, &[]),
            Err(CertError::BadSignature { governor: 9 })
        );
    }

    #[test]
    fn expelled_signers_excluded_from_quorum() {
        let (keys, pks) = keys(4);
        // All four signed, but g1 was expelled (equivocation evidence):
        // active committee is 3, quorum is 3, and g1's signature must not
        // count — the remaining 3 honest signatures carry the cert.
        let c = cert(5, &[0, 1, 2, 3], &keys);
        assert_eq!(c.verify(&pks, &[1]), Ok(()));
        // With g1 expelled AND g3 missing, only 2 of the needed 3 remain.
        let c = cert(5, &[0, 1, 2], &keys);
        assert_eq!(
            c.verify(&pks, &[1]),
            Err(CertError::UnderQuorum { got: 2, need: 3 })
        );
        // An expelled governor cannot manufacture a cert from its own
        // signature repeated under different slots.
        let digest = state(5).digest();
        let evil = CheckpointShare::create(5, digest, 1, &keys[1]);
        let c = CheckpointCert {
            state: state(5),
            sigs: vec![(1, evil.sig.clone()), (1, evil.sig.clone()), (1, evil.sig)],
        };
        assert!(matches!(
            c.verify(&pks, &[1]),
            Err(CertError::UnderQuorum { got: 0, .. })
        ));
    }

    #[test]
    fn malformed_state_rejected() {
        let (keys, pks) = keys(4);
        let mut c = cert(5, &[0, 1, 2], &keys);
        c.state.stake_nonces.pop();
        assert_eq!(c.verify(&pks, &[]), Err(CertError::MalformedState));
    }

    /// Governor `g`'s share over `state`.
    fn share(state: &CheckpointState, g: u32, keys: &[KeyPair]) -> CheckpointShare {
        CheckpointShare::create(state.serial, state.digest(), g, &keys[g as usize])
    }

    fn signers(cert: &CheckpointCert) -> Vec<u32> {
        cert.sigs.iter().map(|(g, _)| *g).collect()
    }

    #[test]
    fn capture_drops_and_counts_early_shares_over_another_digest() {
        let (keys, pks) = keys(4);
        let log = EpochLog::default();
        let c = Committee(&pks, &log);
        let mut cf = Certifier::default();
        let mine = state(4);
        let mut other = state(4);
        other.stakes[0] += 1;
        // Before the snapshot, any verified share buffers.
        assert_eq!(
            cf.on_share(share(&other, 1, &keys), &c),
            ShareStep::Buffered
        );
        assert_eq!(cf.on_share(share(&mine, 2, &keys), &c), ShareStep::Buffered);
        assert_eq!(cf.capture(mine.clone()), 1, "g1's share is dropped");
        // After it, a share over another digest is a mismatch.
        assert_eq!(
            cf.on_share(share(&other, 3, &keys), &c),
            ShareStep::Mismatch
        );
        let (own, step) = cf.announce(0, &keys[0], &c).unwrap();
        assert_eq!(own, share(&mine, 0, &keys));
        assert_eq!(step, ShareStep::Buffered, "g0 and g2 are two of three");
        assert!(cf.announce(0, &keys[0], &c).is_none(), "announced once");
        // g1's dropped share left room for its corrected one.
        assert_eq!(cf.on_share(share(&mine, 1, &keys), &c), ShareStep::Formed);
        assert_eq!(signers(cf.latest().unwrap()), [0, 1, 2]);
        assert_eq!(cf.latest().unwrap().state, mine);
    }

    #[test]
    fn one_share_counts_per_governor_per_serial() {
        let (keys, pks) = keys(4);
        let log = EpochLog::default();
        let c = Committee(&pks, &log);
        let mut cf = Certifier::default();
        let st = state(2);
        cf.capture(st.clone());
        for _ in 0..3 {
            assert_eq!(cf.on_share(share(&st, 1, &keys), &c), ShareStep::Buffered);
        }
        assert_eq!(cf.announce(0, &keys[0], &c).unwrap().1, ShareStep::Buffered);
        assert_eq!(cf.buffer.shares(2).len(), 2);
        // A badly signed share is ignored outright.
        let mut forged = share(&st, 3, &keys);
        forged.sig = share(&st, 2, &keys).sig;
        assert_eq!(cf.on_share(forged, &c), ShareStep::Ignored);
        assert_eq!(cf.on_share(share(&st, 3, &keys), &c), ShareStep::Formed);
        assert_eq!(signers(cf.latest().unwrap()), [0, 1, 3]);
    }

    #[test]
    fn early_shares_buffer_for_at_most_32_serials() {
        let (keys, pks) = keys(4);
        let log = EpochLog::default();
        let c = Committee(&pks, &log);
        let mut cf = Certifier::default();
        for serial in 1..=EARLY_SHARE_SERIALS as u64 {
            let step = cf.on_share(share(&state(serial), 1, &keys), &c);
            assert_eq!(step, ShareStep::Buffered, "serial {serial}");
        }
        let past = state(EARLY_SHARE_SERIALS as u64 + 1);
        assert_eq!(cf.on_share(share(&past, 1, &keys), &c), ShareStep::Ignored);
        // A serial already buffering still takes shares...
        assert_eq!(
            cf.on_share(share(&state(5), 2, &keys), &c),
            ShareStep::Buffered
        );
        // ...and so does one this node has its own snapshot for.
        cf.capture(past.clone());
        assert_eq!(cf.on_share(share(&past, 1, &keys), &c), ShareStep::Buffered);
    }

    #[test]
    fn quorum_is_sized_at_the_certs_epoch_less_the_convicted() {
        let (keys, pks) = keys(4);
        let mut log = EpochLog::default();
        log.record(3, 4, EpochKind::Departure);
        let mut convicted = log.clone();
        assert!(convicted.record(1, 0, EpochKind::Expulsion));
        let form = |serial: u64, expelled: &[u32], peers: &[u32]| {
            let log = if expelled.is_empty() {
                &log
            } else {
                &convicted
            };
            let c = Committee(&pks, log);
            let mut cf = Certifier::default();
            let st = state(serial);
            cf.capture(st.clone());
            cf.announce(0, &keys[0], &c);
            let steps: Vec<ShareStep> = peers
                .iter()
                .map(|&g| cf.on_share(share(&st, g, &keys), &c))
                .collect();
            (steps, cf.latest().map(signers))
        };
        use ShareStep::{Buffered, Formed, Ignored};
        // At serial 4 governor 3 still counts: three of four.
        assert_eq!(
            form(4, &[], &[3, 1]),
            (vec![Buffered, Formed], Some(vec![0, 1, 3]))
        );
        // Past its departure it does not: three of the other three.
        assert_eq!(
            form(6, &[], &[3, 1, 2]),
            (vec![Ignored, Buffered, Formed], Some(vec![0, 1, 2]))
        );
        // Governor 1 convicted as well: two of the remaining two.
        assert_eq!(
            form(6, &[1], &[1, 3, 2]),
            (vec![Ignored, Ignored, Formed], Some(vec![0, 2]))
        );
        // Convicted but not departed at serial 4: three of three.
        assert_eq!(form(4, &[1], &[1, 3]), (vec![Ignored, Buffered], None));
        let c = Committee(&pks, &convicted);
        assert_eq!(c.excluded_at(4), [1]);
        assert_eq!(c.excluded_at(6), [1, 3]);
        // Offers are counted by the same rule.
        let offer = |serial, signers: &[usize]| {
            let mut cf = Certifier::default();
            cf.offer(cert(serial, signers, &keys), 0, &c).map(|_| ())
        };
        let under = CertError::UnderQuorum { got: 2, need: 3 };
        assert_eq!(offer(4, &[0, 1, 2]), Err(OfferRejected::Invalid(under)));
        assert_eq!(offer(4, &[0, 2, 3]), Ok(()));
        assert_eq!(offer(6, &[0, 1, 2]), Ok(()));
    }

    #[test]
    fn a_formed_cert_prunes_everything_at_or_below_it() {
        let (keys, pks) = keys(4);
        let log = EpochLog::default();
        let c = Committee(&pks, &log);
        let mut cf = Certifier::default();
        cf.capture(state(2));
        cf.capture(state(4));
        for g in [1, 2] {
            assert_eq!(
                cf.on_share(share(&state(4), g, &keys), &c),
                ShareStep::Buffered
            );
        }
        assert_eq!(
            cf.on_share(share(&state(6), 1, &keys), &c),
            ShareStep::Buffered
        );
        assert_eq!(cf.announce(0, &keys[0], &c).unwrap().1, ShareStep::Buffered);
        assert_eq!(cf.announce(0, &keys[0], &c).unwrap().1, ShareStep::Formed);
        assert_eq!(cf.latest().unwrap().state.serial, 4);
        for serial in [2, 4] {
            assert!(cf.buffer.subject(serial).is_none() && cf.buffer.shares(serial).is_empty());
        }
        assert_eq!(cf.buffer.shares(6).len(), 1);
        // Shares at or below the cert are ignored from now on.
        assert_eq!(
            cf.on_share(share(&state(2), 1, &keys), &c),
            ShareStep::Ignored
        );
        // A cert adopted from a peer prunes the same way.
        assert!(cf.offer(cert(6, &[0, 1, 2], &keys), 4, &c).is_ok());
        assert!(cf.buffer.shares(6).is_empty());
    }

    #[test]
    fn stale_forged_and_under_quorum_offers_never_replace_the_latest() {
        let (keys, pks) = keys(4);
        let log = EpochLog::default();
        let c = Committee(&pks, &log);
        let mut cf = Certifier::default();
        let good = cert(6, &[0, 1, 2], &keys);
        assert_eq!(cf.offer(good.clone(), 0, &c), Ok(&good));
        let (height, stale) = (6, Err(OfferRejected::Stale));
        assert_eq!(cf.offer(good.clone(), height, &c), stale);
        assert_eq!(cf.offer(cert(4, &[0, 1, 2, 3], &keys), height, &c), stale);
        assert_eq!(
            cf.offer(cert(10, &[0, 1], &keys), height, &c),
            Err(OfferRejected::Invalid(CertError::UnderQuorum {
                got: 2,
                need: 3
            }))
        );
        let mut forged = cert(10, &[0, 1, 2], &keys);
        forged.sigs[2].1 = cert(10, &[3], &keys).sigs[0].1.clone();
        assert_eq!(
            cf.offer(forged, height, &c),
            Err(OfferRejected::Invalid(CertError::BadSignature {
                governor: 2
            }))
        );
        assert_eq!(cf.latest(), Some(&good));
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
        assert_eq!(CertError::MalformedState.kind(), "malformed_state");
    }
}
