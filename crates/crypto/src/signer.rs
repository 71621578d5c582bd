//! Scheme-agnostic signing and VRF interface.
//!
//! The protocol layers never name a concrete signature scheme; they work
//! with [`KeyPair`] / [`PublicKey`] / [`Sig`], which dispatch to either the
//! real Schnorr construction ([`crate::schnorr`]) or the fast simulation
//! scheme ([`crate::sim`]). Every experiment binary accepts a `--crypto
//! {sim,schnorr-256,schnorr-512,schnorr-2048,schnorr-3072,schnorr-4096}`
//! switch backed by [`CryptoScheme`].

use rand::Rng;

use crate::group::SchnorrGroup;
use crate::schnorr::{self, SigningKey, VerifyingKey};
use crate::sha256::{Digest, Sha256};
use crate::sim::{sim_vrf_output, SimKeyPair, SimPublicKey, SimSignature};
use crate::vrf::{self, VrfProof};

/// Selects the signature/VRF implementation for a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CryptoScheme {
    /// Hash-tag signatures; see [`crate::sim`] for the security model.
    Sim,
    /// Schnorr signatures + DLEQ VRF over the given group.
    Schnorr(SchnorrGroup),
}

impl CryptoScheme {
    /// The fast simulation scheme (default for high-volume experiments).
    pub fn sim() -> Self {
        CryptoScheme::Sim
    }

    /// Schnorr over the insecure 256-bit test group (fast-ish, real math).
    pub fn schnorr_test_256() -> Self {
        CryptoScheme::Schnorr(SchnorrGroup::test_256())
    }

    /// Schnorr over the insecure 512-bit test group.
    pub fn schnorr_test_512() -> Self {
        CryptoScheme::Schnorr(SchnorrGroup::test_512())
    }

    /// Schnorr over RFC 3526 group 14 (secure, slow).
    pub fn schnorr_2048() -> Self {
        CryptoScheme::Schnorr(SchnorrGroup::rfc3526_2048())
    }

    /// Schnorr over RFC 3526 group 15 (secure, slower).
    pub fn schnorr_3072() -> Self {
        CryptoScheme::Schnorr(SchnorrGroup::rfc3526_3072())
    }

    /// Schnorr over RFC 3526 group 16 (secure, slowest).
    pub fn schnorr_4096() -> Self {
        CryptoScheme::Schnorr(SchnorrGroup::rfc3526_4096())
    }

    /// Parses a command-line name.
    ///
    /// Accepts `sim`, `schnorr-256`, `schnorr-512`, `schnorr-2048`,
    /// `schnorr-3072`, `schnorr-4096`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "sim" => Some(Self::sim()),
            "schnorr-256" => Some(Self::schnorr_test_256()),
            "schnorr-512" => Some(Self::schnorr_test_512()),
            "schnorr-2048" => Some(Self::schnorr_2048()),
            "schnorr-3072" => Some(Self::schnorr_3072()),
            "schnorr-4096" => Some(Self::schnorr_4096()),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            CryptoScheme::Sim => "sim",
            CryptoScheme::Schnorr(g) => g.name(),
        }
    }

    /// Derives a key pair deterministically from a seed.
    pub fn keypair_from_seed(&self, seed: &[u8]) -> KeyPair {
        match self {
            CryptoScheme::Sim => KeyPair::Sim(SimKeyPair::from_seed(seed)),
            CryptoScheme::Schnorr(group) => {
                KeyPair::Schnorr(Box::new(SigningKey::from_seed(group, seed)))
            }
        }
    }

    /// Generates a random key pair.
    pub fn generate_keypair<R: Rng + ?Sized>(&self, rng: &mut R) -> KeyPair {
        match self {
            CryptoScheme::Sim => KeyPair::Sim(SimKeyPair::generate(rng)),
            CryptoScheme::Schnorr(group) => {
                KeyPair::Schnorr(Box::new(SigningKey::generate(group, rng)))
            }
        }
    }
}

/// A key pair under some [`CryptoScheme`].
#[derive(Clone, Debug)]
pub enum KeyPair {
    /// Simulation scheme key.
    Sim(SimKeyPair),
    /// Schnorr key (boxed: it carries group parameters).
    Schnorr(Box<SigningKey>),
}

/// A public key under some [`CryptoScheme`].
#[derive(Clone, Debug, PartialEq)]
pub enum PublicKey {
    /// Simulation scheme public key.
    Sim(SimPublicKey),
    /// Schnorr verification key.
    Schnorr(Box<VerifyingKey>),
}

/// A signature under some [`CryptoScheme`].
///
/// `Eq + Hash` so signatures can key verification memo caches (e.g. the
/// governor's screening memo).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Sig {
    /// Simulation tag.
    Sim(SimSignature),
    /// Schnorr signature.
    Schnorr(Box<schnorr::Signature>),
}

/// A VRF output together with its proof, scheme-dispatched.
#[derive(Clone, Debug, PartialEq)]
pub enum VrfEvaluation {
    /// Sim VRF: the output is self-certifying given the public key.
    Sim(Digest),
    /// Real VRF: output plus DLEQ proof.
    Schnorr {
        /// The authenticated output.
        output: Digest,
        /// Proof of correct evaluation.
        proof: Box<VrfProof>,
    },
}

impl KeyPair {
    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        match self {
            KeyPair::Sim(kp) => PublicKey::Sim(*kp.public_key()),
            KeyPair::Schnorr(sk) => PublicKey::Schnorr(Box::new(sk.verifying_key().clone())),
        }
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Sig {
        match self {
            KeyPair::Sim(kp) => Sig::Sim(kp.sign(message)),
            KeyPair::Schnorr(sk) => Sig::Schnorr(Box::new(sk.sign(message))),
        }
    }

    /// Evaluates the scheme's VRF on `message`.
    pub fn vrf_evaluate(&self, message: &[u8]) -> VrfEvaluation {
        self.vrf_output(message).prove()
    }

    /// The output half of [`vrf_evaluate`](Self::vrf_evaluate): the VRF
    /// output on `message` without its proof, for callers that compare
    /// several outputs and [`prove`](VrfOutput::prove) only the one they
    /// publish.
    pub fn vrf_output(&self, message: &[u8]) -> VrfOutput<'_> {
        match self {
            KeyPair::Sim(kp) => VrfOutput::Sim(sim_vrf_output(kp.public_key(), message)),
            KeyPair::Schnorr(sk) => VrfOutput::Schnorr(Box::new(vrf::output_with_key(sk, message))),
        }
    }
}

/// A VRF output awaiting its proof, scheme-dispatched; borrows the key
/// pair that computed it.
#[derive(Clone, Debug)]
pub enum VrfOutput<'k> {
    /// Sim VRF: the output is its own proof.
    Sim(Digest),
    /// Real VRF: `h`, `gamma` and the output, proof not yet built.
    Schnorr(Box<vrf::PreOutput<'k>>),
}

impl VrfOutput<'_> {
    /// The VRF output.
    pub fn output(&self) -> Digest {
        match self {
            VrfOutput::Sim(d) => *d,
            VrfOutput::Schnorr(pre) => pre.output(),
        }
    }

    /// Completes the evaluation; equal to what
    /// [`KeyPair::vrf_evaluate`] returns for the same message.
    pub fn prove(self) -> VrfEvaluation {
        match self {
            VrfOutput::Sim(d) => VrfEvaluation::Sim(d),
            VrfOutput::Schnorr(pre) => {
                let (output, proof) = pre.prove();
                VrfEvaluation::Schnorr {
                    output,
                    proof: Box::new(proof),
                }
            }
        }
    }
}

impl PublicKey {
    /// Verifies `sig` over `message`.
    ///
    /// A scheme mismatch (e.g. a sim tag presented to a Schnorr key) is a
    /// failed verification, not an error: it is what a forged message looks
    /// like on the wire.
    pub fn verify(&self, message: &[u8], sig: &Sig) -> bool {
        match (self, sig) {
            (PublicKey::Sim(pk), Sig::Sim(s)) => pk.verify(message, s),
            (PublicKey::Schnorr(pk), Sig::Schnorr(s)) => pk.verify(message, s),
            _ => false,
        }
    }

    /// Verifies a VRF evaluation, returning the authenticated output.
    pub fn vrf_verify(&self, message: &[u8], eval: &VrfEvaluation) -> Option<Digest> {
        match (self, eval) {
            (PublicKey::Sim(pk), VrfEvaluation::Sim(output)) => {
                (sim_vrf_output(pk, message) == *output).then_some(*output)
            }
            (PublicKey::Schnorr(pk), VrfEvaluation::Schnorr { output, proof }) => {
                let verified = proof.verify(pk, message)?;
                (verified == *output).then_some(verified)
            }
            _ => None,
        }
    }

    /// Canonical byte encoding (for hashing into node ids, certificates…).
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            PublicKey::Sim(pk) => pk.to_bytes().to_vec(),
            PublicKey::Schnorr(pk) => pk.to_bytes(),
        }
    }

    /// A short stable fingerprint of the key.
    pub fn fingerprint(&self) -> Digest {
        let mut h = Sha256::new();
        h.update_field(b"pk-fingerprint");
        h.update_field(&self.to_bytes());
        h.finalize()
    }
}

/// Verifies a batch of signatures across schemes, returning per-item
/// verdicts in order.
///
/// Schnorr items are routed through the randomized-linear-combination
/// batch ([`crate::batch::verify_batch`]) with failure bisection; sim
/// items and scheme mismatches are verified individually (they are cheap
/// hash checks or immediate rejections). Verdicts are identical to calling
/// [`PublicKey::verify`] per item.
pub fn verify_batch(items: &[(&[u8], &Sig, &PublicKey)]) -> Vec<bool> {
    let mut out = vec![false; items.len()];
    let mut schnorr_idx = Vec::new();
    let mut schnorr_items: Vec<(&[u8], &schnorr::Signature, &VerifyingKey)> = Vec::new();
    for (i, &(msg, sig, pk)) in items.iter().enumerate() {
        match (pk, sig) {
            (PublicKey::Schnorr(vk), Sig::Schnorr(s)) => {
                schnorr_idx.push(i);
                schnorr_items.push((msg, s, vk));
            }
            _ => out[i] = pk.verify(msg, sig),
        }
    }
    match crate::batch::verify_batch(&schnorr_items) {
        Ok(()) => {
            for &i in &schnorr_idx {
                out[i] = true;
            }
        }
        Err(bad) => {
            let mut good = vec![true; schnorr_idx.len()];
            for b in bad {
                good[b] = false;
            }
            for (&i, ok) in schnorr_idx.iter().zip(good) {
                out[i] = ok;
            }
        }
    }
    out
}

impl VrfEvaluation {
    /// The claimed output (unauthenticated until verified).
    pub fn output(&self) -> Digest {
        match self {
            VrfEvaluation::Sim(d) => *d,
            VrfEvaluation::Schnorr { output, .. } => *output,
        }
    }
}

impl Sig {
    /// A forgery attempt without the secret key: random bytes shaped like a
    /// signature of the given scheme. Fails verification (except with
    /// negligible probability), modeling the paper's forging collector.
    pub fn forged<R: Rng + ?Sized>(scheme: &CryptoScheme, rng: &mut R) -> Sig {
        match scheme {
            CryptoScheme::Sim => Sig::Sim(SimSignature::forged(rng)),
            CryptoScheme::Schnorr(group) => {
                let r = group.pow_g(&group.random_scalar(rng));
                let s = group.random_scalar(rng);
                Sig::Schnorr(Box::new(schnorr::Signature::from_parts(r, s)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schemes() -> Vec<CryptoScheme> {
        vec![CryptoScheme::sim(), CryptoScheme::schnorr_test_256()]
    }

    #[test]
    fn sign_verify_roundtrip_all_schemes() {
        for scheme in schemes() {
            let kp = scheme.keypair_from_seed(b"node");
            let sig = kp.sign(b"msg");
            let pk = kp.public_key();
            assert!(pk.verify(b"msg", &sig), "{}", scheme.name());
            assert!(!pk.verify(b"other", &sig), "{}", scheme.name());
        }
    }

    #[test]
    fn forged_signatures_fail_all_schemes() {
        let mut rng = StdRng::seed_from_u64(1);
        for scheme in schemes() {
            let kp = scheme.keypair_from_seed(b"victim");
            let pk = kp.public_key();
            for _ in 0..10 {
                let forged = Sig::forged(&scheme, &mut rng);
                assert!(!pk.verify(b"msg", &forged), "{}", scheme.name());
            }
        }
    }

    #[test]
    fn scheme_mismatch_fails_closed() {
        let sim_kp = CryptoScheme::sim().keypair_from_seed(b"a");
        let sch_kp = CryptoScheme::schnorr_test_256().keypair_from_seed(b"a");
        let sim_sig = sim_kp.sign(b"m");
        let sch_sig = sch_kp.sign(b"m");
        assert!(!sim_kp.public_key().verify(b"m", &sch_sig));
        assert!(!sch_kp.public_key().verify(b"m", &sim_sig));
    }

    #[test]
    fn vrf_roundtrip_all_schemes() {
        for scheme in schemes() {
            let kp = scheme.keypair_from_seed(b"gov");
            let eval = kp.vrf_evaluate(b"round-3");
            let pk = kp.public_key();
            assert_eq!(
                pk.vrf_verify(b"round-3", &eval),
                Some(eval.output()),
                "{}",
                scheme.name()
            );
            assert_eq!(pk.vrf_verify(b"round-4", &eval), None, "{}", scheme.name());
        }
    }

    #[test]
    fn vrf_wrong_key_rejected() {
        for scheme in schemes() {
            let kp1 = scheme.keypair_from_seed(b"g1");
            let kp2 = scheme.keypair_from_seed(b"g2");
            let eval = kp1.vrf_evaluate(b"r");
            assert_eq!(kp2.public_key().vrf_verify(b"r", &eval), None);
        }
    }

    #[test]
    fn vrf_output_deterministic() {
        for scheme in schemes() {
            let kp = scheme.keypair_from_seed(b"gov");
            assert_eq!(
                kp.vrf_evaluate(b"r").output(),
                kp.vrf_evaluate(b"r").output()
            );
        }
    }

    #[test]
    fn parse_names() {
        assert_eq!(CryptoScheme::parse("sim"), Some(CryptoScheme::sim()));
        assert_eq!(
            CryptoScheme::parse("schnorr-256"),
            Some(CryptoScheme::schnorr_test_256())
        );
        assert!(CryptoScheme::parse("schnorr-2048").is_some());
        assert!(CryptoScheme::parse("rsa").is_none());
    }

    #[test]
    fn scheme_level_batch_matches_per_item_verify() {
        let mut rng = StdRng::seed_from_u64(7);
        // A deliberately mixed batch: sim and Schnorr keys, valid sigs,
        // forged sigs, and a scheme mismatch.
        let sim_kp = CryptoScheme::sim().keypair_from_seed(b"sim");
        let sch_kp = CryptoScheme::schnorr_test_256().keypair_from_seed(b"sch");
        let sim_sig = sim_kp.sign(b"m0");
        let sch_sig = sch_kp.sign(b"m1");
        let forged = Sig::forged(&CryptoScheme::schnorr_test_256(), &mut rng);
        let sch_sig2 = sch_kp.sign(b"m3");
        let (sim_pk, sch_pk) = (sim_kp.public_key(), sch_kp.public_key());
        let items: Vec<(&[u8], &Sig, &PublicKey)> = vec![
            (b"m0", &sim_sig, &sim_pk),
            (b"m1", &sch_sig, &sch_pk),
            (b"m2", &forged, &sch_pk),
            (b"m3", &sch_sig2, &sch_pk),
            (b"m4", &sim_sig, &sch_pk), // scheme mismatch
        ];
        let batch = verify_batch(&items);
        let individual: Vec<bool> = items.iter().map(|(m, s, pk)| pk.verify(m, s)).collect();
        assert_eq!(batch, individual);
        assert_eq!(batch, vec![true, true, false, true, false]);
    }

    #[test]
    fn fingerprints_distinct() {
        let scheme = CryptoScheme::sim();
        let a = scheme.keypair_from_seed(b"a").public_key().fingerprint();
        let b = scheme.keypair_from_seed(b"b").public_key().fingerprint();
        assert_ne!(a, b);
    }
}
