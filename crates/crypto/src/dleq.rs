//! Chaum–Pedersen proofs of discrete-logarithm equality (DLEQ).
//!
//! A DLEQ proof convinces a verifier that `log_g(y) = log_h(z)` without
//! revealing the common exponent. It is the core of the [`crate::vrf`]
//! construction: the VRF proof is exactly a DLEQ proof that the output
//! `gamma = h^x` uses the same secret `x` as the public key `y = g^x`.
//!
//! Protocol (non-interactive via Fiat–Shamir): prover with witness `x` picks
//! nonce `k`, sends `a = g^k`, `b = h^k`, challenge
//! `c = H(g, h, y, z, a, b) mod q`, response `s = k + c·x mod q`. The
//! verifier checks `g^s = a·y^c` and `h^s = b·z^c`.

use std::fmt;

use crate::bigint::BigUint;
use crate::group::SchnorrGroup;
use crate::hmac::HmacSha256;
use crate::sha256::Sha256;

/// A non-interactive Chaum–Pedersen DLEQ proof.
#[derive(Clone, PartialEq, Eq)]
pub struct DleqProof {
    a: BigUint,
    b: BigUint,
    s: BigUint,
}

impl fmt::Debug for DleqProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DleqProof")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("s", &self.s)
            .finish()
    }
}

/// The statement being proved: `log_g(y) = log_h(z)` in `group`.
#[derive(Clone, Debug)]
pub struct DleqStatement<'a> {
    /// The group all four elements live in.
    pub group: &'a SchnorrGroup,
    /// First base (usually the group generator).
    pub g: &'a BigUint,
    /// `y = g^x`.
    pub y: &'a BigUint,
    /// Second base.
    pub h: &'a BigUint,
    /// `z = h^x`.
    pub z: &'a BigUint,
}

impl DleqProof {
    /// Proves `log_g(y) = log_h(z) = x`.
    ///
    /// The nonce is derived deterministically from the witness and the
    /// statement, so proofs are reproducible and never reuse a nonce across
    /// distinct statements.
    pub fn prove(statement: &DleqStatement<'_>, x: &BigUint) -> DleqProof {
        crate::stats::record_dleq_proof();
        let group = statement.group;
        let k = derive_nonce(statement, x);
        // `g` is almost always the group generator, so route through the
        // fixed-base table when one is trained.
        let a = group.pow_base(statement.g, &k);
        let b = group.pow(statement.h, &k);
        let c = challenge(statement, &a, &b);
        let s = group.scalar_add(&k, &group.scalar_mul(&c, x));
        DleqProof { a, b, s }
    }

    /// Verifies the proof against `statement`.
    ///
    /// The `g`-side check `g^s = a·y^c` uses the generator window table for
    /// `g^s` (when trained). The `h`-side check is folded into a single
    /// Straus multi-exponentiation `h^s · (z^{-1})^c == b` — `h` and `z`
    /// are statement-specific (fresh per VRF message), so per-base tables
    /// cannot amortize there and the shared squaring chain is the win.
    pub fn verify(&self, statement: &DleqStatement<'_>) -> bool {
        let group = statement.group;
        // All transmitted elements must be in the subgroup.
        if !group.is_element(&self.a) || !group.is_element(&self.b) || self.s >= *group.q() {
            return false;
        }
        let c = challenge(statement, &self.a, &self.b);
        let lhs_g = group.pow_base(statement.g, &self.s);
        let rhs_g = group.mul(&self.a, &group.pow(statement.y, &c));
        if lhs_g != rhs_g {
            return false;
        }
        let Some(z_inv) = statement.z.inv_mod(group.p()) else {
            // z ≡ 0 (mod p) is never a subgroup element.
            return false;
        };
        group.multi_pow(&[(statement.h, &self.s), (&z_inv, &c)]) == self.b
    }

    /// Commitment `a = g^k`.
    pub fn a(&self) -> &BigUint {
        &self.a
    }

    /// Commitment `b = h^k`.
    pub fn b(&self) -> &BigUint {
        &self.b
    }

    /// Response scalar `s`.
    pub fn s(&self) -> &BigUint {
        &self.s
    }

    /// Rebuilds a proof from raw parts (e.g. after deserialization).
    pub fn from_parts(a: BigUint, b: BigUint, s: BigUint) -> Self {
        DleqProof { a, b, s }
    }
}

fn derive_nonce(statement: &DleqStatement<'_>, x: &BigUint) -> BigUint {
    let group = statement.group;
    let mut counter = 0u32;
    loop {
        let mut mac = HmacSha256::new(&x.to_bytes_be());
        mac.update(b"dleq-nonce");
        mac.update(&counter.to_be_bytes());
        for el in [statement.g, statement.y, statement.h, statement.z] {
            mac.update(&group.element_to_bytes(el));
        }
        let d1 = mac.clone().finalize();
        mac.update(b"x");
        let d2 = mac.finalize();
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(d1.as_bytes());
        bytes.extend_from_slice(d2.as_bytes());
        let k = group.scalar_from_bytes(&bytes);
        if !k.is_zero() {
            return k;
        }
        counter += 1;
    }
}

/// Fiat–Shamir challenge; `pub(crate)` so the batch verifier
/// ([`crate::batch`]) can recompute it per proof.
pub(crate) fn challenge(statement: &DleqStatement<'_>, a: &BigUint, b: &BigUint) -> BigUint {
    let group = statement.group;
    let mut h = Sha256::new();
    h.update_field(b"dleq-challenge");
    h.update_field(group.name().as_bytes());
    for el in [statement.g, statement.y, statement.h, statement.z, a, b] {
        h.update_field(&group.element_to_bytes(el));
    }
    group.scalar_from_bytes(h.finalize().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SchnorrGroup, BigUint, BigUint, BigUint, BigUint) {
        let group = SchnorrGroup::test_256();
        let x = BigUint::from_u64(987654321);
        let h = group.hash_to_group("dleq-test", b"second base");
        let y = group.pow_g(&x);
        let z = group.pow(&h, &x);
        (group, x, h, y, z)
    }

    #[test]
    fn prove_verify_roundtrip() {
        let (group, x, h, y, z) = setup();
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        let proof = DleqProof::prove(&st, &x);
        assert!(proof.verify(&st));
    }

    #[test]
    fn unequal_logs_rejected() {
        let (group, x, h, y, _) = setup();
        // z uses a different exponent.
        let z_bad = group.pow(&h, &BigUint::from_u64(111));
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z_bad,
        };
        let proof = DleqProof::prove(&st, &x);
        assert!(!proof.verify(&st));
    }

    #[test]
    fn proof_bound_to_statement() {
        let (group, x, h, y, z) = setup();
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        let proof = DleqProof::prove(&st, &x);
        // Same proof presented for a different h must fail.
        let h2 = group.hash_to_group("dleq-test", b"another base");
        let z2 = group.pow(&h2, &x);
        let st2 = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h2,
            z: &z2,
        };
        assert!(!proof.verify(&st2));
    }

    #[test]
    fn tampered_proof_rejected() {
        let (group, x, h, y, z) = setup();
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        let proof = DleqProof::prove(&st, &x);
        let bad = DleqProof::from_parts(
            proof.a().clone(),
            proof.b().clone(),
            proof.s().add(&BigUint::one()).rem(group.q()),
        );
        assert!(!bad.verify(&st));
        let out_of_group = group.p().sub(&BigUint::one());
        let bad = DleqProof::from_parts(out_of_group, proof.b().clone(), proof.s().clone());
        assert!(!bad.verify(&st));
    }

    #[test]
    fn fast_verify_matches_two_sided_reference() {
        let (group, x, h, y, z) = setup();
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        let proof = DleqProof::prove(&st, &x);
        // Textbook verification with reference exponentiation.
        let c = challenge(&st, proof.a(), proof.b());
        let lhs_g = group.g().pow_mod_reference(proof.s(), group.p());
        let rhs_g = group.mul(proof.a(), &y.pow_mod_reference(&c, group.p()));
        let lhs_h = h.pow_mod_reference(proof.s(), group.p());
        let rhs_h = group.mul(proof.b(), &z.pow_mod_reference(&c, group.p()));
        assert_eq!(lhs_g, rhs_g);
        assert_eq!(lhs_h, rhs_h);
        assert!(proof.verify(&st));
    }

    #[test]
    fn zero_z_rejected() {
        let (group, x, h, y, z) = setup();
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        let proof = DleqProof::prove(&st, &x);
        let zero = BigUint::zero();
        let st_zero = DleqStatement { z: &zero, ..st };
        assert!(!proof.verify(&st_zero));
    }

    #[test]
    fn deterministic_proofs() {
        let (group, x, h, y, z) = setup();
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        assert_eq!(DleqProof::prove(&st, &x), DleqProof::prove(&st, &x));
    }
}
