//! A Verifiable Random Function (VRF) over a [`SchnorrGroup`].
//!
//! §3.4.3 of the paper elects the round leader with a VRF: each governor
//! computes `⟨hash, π⟩ ← VRF_g(r, j, u)` per stake unit and the least hash
//! wins. This module implements an ECVRF-style construction transplanted to
//! MODP groups:
//!
//! - keys: `x` secret, `y = g^x` public (shared with Schnorr keys),
//! - eval(m): `h = HashToGroup(m)`, `gamma = h^x`,
//!   `π = DLEQ(g, y; h, gamma)`, output `= H(gamma)`,
//! - verify(m, out, π): check the DLEQ proof and recompute the output.
//!
//! Evaluation comes in two halves: [`output_with_key`] computes `h`,
//! `gamma` and the output (one exponentiation), and [`PreOutput::prove`]
//! adds the DLEQ proof over the same `h` and `gamma` (two more). A caller
//! that compares several outputs and publishes one — the election's
//! least hash over the stake units — proves only that one; proving is
//! deterministic, so the proof is the one an eager evaluation would have
//! built.
//!
//! Uniqueness follows from `gamma` being determined by `(m, x)`;
//! pseudorandomness from the DDH assumption in the group (for the secure
//! parameter set).
//!
//! [`SchnorrGroup`]: crate::group::SchnorrGroup

use std::fmt;

use rand::Rng;

use crate::bigint::BigUint;
use crate::dleq::{DleqProof, DleqStatement};
use crate::group::SchnorrGroup;
use crate::schnorr::{SigningKey, VerifyingKey};
use crate::sha256::{Digest, Sha256};

/// Domain tag for hashing messages into the group.
const H2G_DOMAIN: &str = "vrf-hash-to-group";

/// A VRF key pair (wraps a Schnorr key pair; same secret scalar).
#[derive(Clone, Debug)]
pub struct VrfKeyPair {
    key: SigningKey,
}

/// A VRF output together with the proof that it was computed correctly.
#[derive(Clone, PartialEq, Eq)]
pub struct VrfProof {
    gamma: BigUint,
    dleq: DleqProof,
}

impl fmt::Debug for VrfProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VrfProof")
            .field("gamma", &self.gamma)
            .finish_non_exhaustive()
    }
}

impl VrfKeyPair {
    /// Generates a fresh VRF key pair.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        VrfKeyPair {
            key: SigningKey::generate(group, rng),
        }
    }

    /// Derives a VRF key pair deterministically from a seed.
    pub fn from_seed(group: &SchnorrGroup, seed: &[u8]) -> Self {
        VrfKeyPair {
            key: SigningKey::from_seed(group, seed),
        }
    }

    /// Wraps an existing Schnorr signing key (they share key material).
    pub fn from_signing_key(key: SigningKey) -> Self {
        VrfKeyPair { key }
    }

    /// The public key against which proofs verify.
    pub fn public_key(&self) -> &VerifyingKey {
        self.key.verifying_key()
    }

    /// Evaluates the VRF on `message`, returning `(output, proof)`.
    pub fn evaluate(&self, message: &[u8]) -> (Digest, VrfProof) {
        evaluate_with_key(&self.key, message)
    }
}

/// Evaluates the VRF directly with a borrowed Schnorr signing key.
///
/// Identical to [`VrfKeyPair::evaluate`], without requiring the caller to
/// move (or clone) the key into a `VrfKeyPair` wrapper first.
pub fn evaluate_with_key(key: &SigningKey, message: &[u8]) -> (Digest, VrfProof) {
    output_with_key(key, message).prove()
}

/// A VRF output that has not been proved yet: `h = HashToGroup(m)`,
/// `gamma = h^x` and `H(gamma)`, tied to the key that computed them.
#[derive(Clone, Debug)]
pub struct PreOutput<'k> {
    key: &'k SigningKey,
    h: BigUint,
    gamma: BigUint,
    output: Digest,
}

/// The output half of a VRF evaluation: everything except the proof.
pub fn output_with_key<'k>(key: &'k SigningKey, message: &[u8]) -> PreOutput<'k> {
    let group = key.group();
    let h = group.hash_to_group(H2G_DOMAIN, message);
    let gamma = group.pow(&h, key.secret_scalar());
    let output = output_from_gamma(group, &gamma);
    PreOutput {
        key,
        h,
        gamma,
        output,
    }
}

impl PreOutput<'_> {
    /// The VRF output `H(gamma)`.
    pub fn output(&self) -> Digest {
        self.output
    }

    /// The proof half: the DLEQ proof that `gamma` uses the key's secret.
    pub fn prove(self) -> (Digest, VrfProof) {
        let group = self.key.group();
        let statement = DleqStatement {
            group,
            g: group.g(),
            y: self.key.verifying_key().element(),
            h: &self.h,
            z: &self.gamma,
        };
        let dleq = DleqProof::prove(&statement, self.key.secret_scalar());
        (
            self.output,
            VrfProof {
                gamma: self.gamma,
                dleq,
            },
        )
    }
}

impl VrfProof {
    /// Verifies the proof for `message` under `public_key`; returns the
    /// authenticated VRF output on success.
    pub fn verify(&self, public_key: &VerifyingKey, message: &[u8]) -> Option<Digest> {
        let group = public_key.group();
        // Membership, not a range check, keeps the output unique: `−gamma`
        // passes the DLEQ check whenever the challenge is even, and would
        // hash to a second output for the same message and key.
        if !group.is_element(&self.gamma) {
            return None;
        }
        let h = group.hash_to_group(H2G_DOMAIN, message);
        let statement = DleqStatement {
            group,
            g: group.g(),
            y: public_key.element(),
            h: &h,
            z: &self.gamma,
        };
        if !self.dleq.verify(&statement) {
            return None;
        }
        Some(output_from_gamma(group, &self.gamma))
    }

    /// The group element `gamma = h^x` (the pre-output).
    pub fn gamma(&self) -> &BigUint {
        &self.gamma
    }
}

fn output_from_gamma(group: &SchnorrGroup, gamma: &BigUint) -> Digest {
    let mut h = Sha256::new();
    h.update_field(b"vrf-output");
    h.update_field(group.name().as_bytes());
    h.update_field(&group.element_to_bytes(gamma));
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> VrfKeyPair {
        VrfKeyPair::from_seed(&SchnorrGroup::test_256(), b"vrf-test")
    }

    #[test]
    fn evaluate_verify_roundtrip() {
        let kp = keypair();
        let (out, proof) = kp.evaluate(b"round-1");
        assert_eq!(proof.verify(kp.public_key(), b"round-1"), Some(out));
    }

    #[test]
    fn uniqueness_same_message_same_output() {
        let kp = keypair();
        let (out1, _) = kp.evaluate(b"round-7");
        let (out2, _) = kp.evaluate(b"round-7");
        assert_eq!(out1, out2);
    }

    #[test]
    fn different_messages_different_outputs() {
        let kp = keypair();
        let (out1, _) = kp.evaluate(b"round-1");
        let (out2, _) = kp.evaluate(b"round-2");
        assert_ne!(out1, out2);
    }

    #[test]
    fn different_keys_different_outputs() {
        let group = SchnorrGroup::test_256();
        let kp1 = VrfKeyPair::from_seed(&group, b"key-1");
        let kp2 = VrfKeyPair::from_seed(&group, b"key-2");
        let (out1, _) = kp1.evaluate(b"same-round");
        let (out2, _) = kp2.evaluate(b"same-round");
        assert_ne!(out1, out2);
    }

    #[test]
    fn proof_bound_to_message() {
        let kp = keypair();
        let (_, proof) = kp.evaluate(b"round-1");
        assert_eq!(proof.verify(kp.public_key(), b"round-2"), None);
    }

    #[test]
    fn proof_bound_to_key() {
        let group = SchnorrGroup::test_256();
        let kp1 = VrfKeyPair::from_seed(&group, b"key-1");
        let kp2 = VrfKeyPair::from_seed(&group, b"key-2");
        let (_, proof) = kp1.evaluate(b"round-1");
        assert_eq!(proof.verify(kp2.public_key(), b"round-1"), None);
    }

    #[test]
    fn forged_gamma_rejected() {
        let kp = keypair();
        let group = SchnorrGroup::test_256();
        let (_, proof) = kp.evaluate(b"round-1");
        // Replace gamma with another subgroup element; DLEQ must fail.
        let forged = VrfProof {
            gamma: group.pow_g(&BigUint::from_u64(5)),
            dleq: proof.dleq.clone(),
        };
        assert_eq!(forged.verify(kp.public_key(), b"round-1"), None);
        // Out-of-subgroup gamma rejected before the DLEQ check.
        let forged = VrfProof {
            gamma: group.p().sub(&BigUint::one()),
            dleq: proof.dleq,
        };
        assert_eq!(forged.verify(kp.public_key(), b"round-1"), None);
    }

    #[test]
    fn outputs_are_spread() {
        // Smoke-test pseudorandomness: outputs over 64 messages should not
        // collide and their leading u64s should span a wide range.
        let kp = keypair();
        let mut outs: Vec<u64> = (0..64u32)
            .map(|i| kp.evaluate(&i.to_be_bytes()).0.to_u64())
            .collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 64);
        let spread = outs.last().unwrap() - outs.first().unwrap();
        assert!(spread > u64::MAX / 4, "outputs clustered: spread {spread}");
    }

    #[test]
    fn from_signing_key_shares_public_key() {
        let group = SchnorrGroup::test_256();
        let sk = crate::schnorr::SigningKey::from_seed(&group, b"shared");
        let pk = sk.verifying_key().clone();
        let kp = VrfKeyPair::from_signing_key(sk);
        assert_eq!(kp.public_key(), &pk);
        let (out, proof) = kp.evaluate(b"m");
        assert_eq!(proof.verify(&pk, b"m"), Some(out));
    }
}
