//! Chaum–Pedersen proofs of discrete-logarithm equality (DLEQ).
//!
//! A DLEQ proof convinces a verifier that `log_g(y) = log_h(z)` without
//! revealing the common exponent. It is the core of the [`crate::vrf`]
//! construction: the VRF proof is exactly a DLEQ proof that the output
//! `gamma = h^x` uses the same secret `x` as the public key `y = g^x`.
//!
//! Protocol (non-interactive via Fiat–Shamir): prover with witness `x`
//! derives nonce `k = HMAC(x, g, y, h)`, sends `a = g^k`, `b = h^k`,
//! challenge `c = H(g, h, y, z, a, b) mod q`, response
//! `s = k + c·x mod q`. The verifier checks `g^s = a·y^c` and
//! `h^s = b·z^c`.

use std::fmt;

use crate::bigint::BigUint;
use crate::group::SchnorrGroup;
use crate::hmac::HmacSha256;
use crate::schnorr::VerifyingKey;
use crate::sha256::Sha256;
use crate::stats::{Counter, Primitive};

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
    /// Raises `h` to the witness `x` and proves `log_g(y) = log_h(h^x)`:
    /// returns `z = h^x` and the proof. `y` must be `g^x`.
    ///
    /// `z` and the commitment `b = h^k` come from one squaring chain
    /// ([`SchnorrGroup::pow_pair`]), so the nonce `k` is derived from
    /// `(x, g, y, h)`, not from `z`. It is still unique per statement:
    /// those inputs fix `z = h^x`, and `prove` computes `z` itself, so no
    /// caller can spend one nonce on two statements. Proofs are
    /// deterministic.
    pub fn prove(
        group: &SchnorrGroup,
        g: &BigUint,
        y: &BigUint,
        h: &BigUint,
        x: &BigUint,
    ) -> (BigUint, DleqProof) {
        crate::stats::add(Counter::DleqProofs, 1);
        crate::stats::timed(Primitive::DleqProve, || {
            let k = derive_nonce(group, [g, y, h], x);
            let (z, b) = group.pow_pair(h, x, &k);
            // `g` is almost always the group generator, so route through
            // the fixed-base table when one is trained.
            let a = group.pow_base(g, &k);
            let statement = DleqStatement {
                group,
                g,
                y,
                h,
                z: &z,
            };
            let proof = respond(&statement, x, &k, a, b);
            (z, proof)
        })
    }

    /// Verifies the proof against `statement`, raising `y` to the
    /// challenge with one plain exponentiation.
    pub fn verify(&self, statement: &DleqStatement<'_>) -> bool {
        let y = VerifyingKey::from_element(statement.group.clone(), statement.y.clone());
        self.verify_for_key(statement, &y)
    }

    /// [`verify`](Self::verify) for a statement whose `y` is `key`'s
    /// element: `y^c` comes from the key's comb table when its
    /// signature checks have trained one ([`VerifyingKey::pow_challenge`]).
    ///
    /// Both checks are inverse-free. The `g` side is `g^s = a·y^c`, with
    /// `g^s` from the generator's table when `g` is the generator. The `h`
    /// side is `h^s = b·z^c` with `z` reduced mod `p`, which for every
    /// `z ≢ 0 (mod p)` decides as `h^s · (z⁻¹)^c = b` does, because `p`
    /// is prime. `z ≡ 0` is rejected up front, as its missing inverse
    /// rejected it there: under `c = 0`, `z^c = 1` would let it pass.
    pub(crate) fn verify_for_key(&self, statement: &DleqStatement<'_>, key: &VerifyingKey) -> bool {
        debug_assert!(statement.y == key.element());
        crate::stats::timed(Primitive::DleqVerify, || {
            self.check(statement, key, &challenge(statement, &self.a, &self.b))
        })
    }

    /// Both verification equations under challenge `c`.
    fn check(&self, statement: &DleqStatement<'_>, key: &VerifyingKey, c: &BigUint) -> bool {
        let group = statement.group;
        // All transmitted elements must be in the subgroup.
        if !group.is_element(&self.a) || !group.is_element(&self.b) || self.s >= *group.q() {
            return false;
        }
        let z = statement.z.rem(group.p());
        if z.is_zero() {
            return false;
        }
        let lhs_g = group.pow_base(statement.g, &self.s);
        if lhs_g != group.mul(&self.a, &key.pow_challenge(c)) {
            return false;
        }
        group.pow(statement.h, &self.s) == group.mul(&self.b, &group.pow(&z, c))
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

/// The nonce `HMAC(x, g, y, h) mod q`, rejecting 0.
fn derive_nonce(group: &SchnorrGroup, bases: [&BigUint; 3], x: &BigUint) -> BigUint {
    let mut counter = 0u32;
    loop {
        let mut mac = HmacSha256::new(&x.to_bytes_be());
        mac.update(b"dleq-nonce");
        mac.update(&counter.to_be_bytes());
        for el in bases {
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

/// The proof with nonce `k` and commitments `a = g^k`, `b = h^k`:
/// challenge `c`, response `s = k + c·x mod q`.
fn respond(
    statement: &DleqStatement<'_>,
    x: &BigUint,
    k: &BigUint,
    a: BigUint,
    b: BigUint,
) -> DleqProof {
    let group = statement.group;
    let c = challenge(statement, &a, &b);
    let s = group.scalar_add(k, &group.scalar_mul(&c, x));
    DleqProof { a, b, s }
}

/// A proof for any statement, true or not, with `prove`'s nonce and each
/// commitment raised on its own: the tests' way to build proofs of false
/// statements, and `prove`'s oracle.
#[cfg(test)]
pub(crate) fn prove_statement(statement: &DleqStatement<'_>, x: &BigUint) -> DleqProof {
    let (group, h) = (statement.group, statement.h);
    let k = derive_nonce(group, [statement.g, statement.y, h], x);
    let a = group.pow_base(statement.g, &k);
    respond(statement, x, &k, a, group.pow(h, &k))
}

/// Fiat–Shamir challenge `c = H(g, h, y, z, a, b) mod q`.
fn challenge(statement: &DleqStatement<'_>, a: &BigUint, b: &BigUint) -> BigUint {
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
        let (proved_z, proof) = DleqProof::prove(&group, group.g(), &y, &h, &x);
        assert_eq!(proved_z, z);
        let st = DleqStatement {
            group: &group,
            g: group.g(),
            y: &y,
            h: &h,
            z: &z,
        };
        assert!(proof.verify(&st));
    }

    #[test]
    fn joint_chain_proof_equals_the_separately_raised_one() {
        for group in [SchnorrGroup::test_256(), SchnorrGroup::rfc3526_2048()] {
            let sk = crate::schnorr::SigningKey::from_seed(&group, b"dleq-joint");
            let (x, y) = (sk.secret_scalar(), sk.verifying_key().element());
            for i in 0u8..3 {
                let h = group.hash_to_group("dleq-joint", &[i]);
                let (z, proof) = DleqProof::prove(&group, group.g(), y, &h, x);
                assert_eq!(z, h.pow_mod_reference(x, group.p()), "{}", group.name());
                let st = DleqStatement {
                    group: &group,
                    g: group.g(),
                    y,
                    h: &h,
                    z: &z,
                };
                assert_eq!(proof, prove_statement(&st, x), "{}", group.name());
                assert!(proof.verify(&st));
            }
        }
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
        let proof = prove_statement(&st, &x);
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
        let proof = prove_statement(&st, &x);
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
        let proof = prove_statement(&st, &x);
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
        let proof = prove_statement(&st, &x);
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
        let proof = prove_statement(&st, &x);
        let zero = BigUint::zero();
        let st_zero = DleqStatement { z: &zero, ..st };
        assert!(!proof.verify(&st_zero));
    }

    /// The verifier before inversion came off the path, under challenge
    /// `c`: `g^s = a·y^c` and `h^s · (z⁻¹)^c = b`.
    fn check_with_inverse(proof: &DleqProof, st: &DleqStatement<'_>, c: &BigUint) -> bool {
        let group = st.group;
        if !group.is_element(proof.a()) || !group.is_element(proof.b()) || proof.s() >= group.q() {
            return false;
        }
        if group.pow_base(st.g, proof.s()) != group.mul(proof.a(), &group.pow(st.y, c)) {
            return false;
        }
        let Some(z_inv) = st.z.inv_mod(group.p()) else {
            return false;
        };
        group.multi_pow(&[(st.h, proof.s()), (&z_inv, c)]) == *proof.b()
    }

    /// A signing key whose verifying key has trained its comb table.
    fn trained_key(group: &SchnorrGroup) -> crate::schnorr::SigningKey {
        let sk = crate::schnorr::SigningKey::from_seed(group, b"dleq-trained");
        let sig = sk.sign(b"train");
        for _ in 0..crate::schnorr::KEY_TABLE_THRESHOLD {
            assert!(sk.verifying_key().verify(b"train", &sig));
        }
        sk
    }

    #[test]
    fn inverse_free_check_matches_the_inverting_reference() {
        for group in [SchnorrGroup::test_256(), SchnorrGroup::rfc3526_2048()] {
            let (p, q, one) = (group.p(), group.q(), BigUint::one());
            let sk = trained_key(&group);
            let (x, key) = (sk.secret_scalar(), sk.verifying_key());
            let cold = VerifyingKey::from_element(group.clone(), key.element().clone());
            let h = group.hash_to_group("dleq-test", group.name().as_bytes());
            let z = group.pow(&h, x);
            let st = DleqStatement {
                group: &group,
                g: group.g(),
                y: key.element(),
                h: &h,
                z: &z,
            };
            let proof = prove_statement(&st, x);
            let (a, b, s) = (proof.a(), proof.b(), proof.s());
            // Passes under c = 0 for every z ≢ 0: a = g^k, b = h^k, s = k.
            let k = BigUint::from_u64(0xd1e9);
            let zero_c = DleqProof::from_parts(group.pow_g(&k), group.pow(&h, &k), k);
            let nudge = |e: &BigUint| group.mul(e, group.g());
            let proofs = [
                proof.clone(),
                zero_c,
                DleqProof::from_parts(nudge(a), b.clone(), s.clone()),
                DleqProof::from_parts(p.sub(a), b.clone(), s.clone()),
                DleqProof::from_parts(a.clone(), nudge(b), s.clone()),
                DleqProof::from_parts(a.clone(), p.sub(b), s.clone()),
                DleqProof::from_parts(a.clone(), b.clone(), s.add(&one).rem(q)),
                DleqProof::from_parts(a.clone(), b.clone(), q.clone()),
                DleqProof::from_parts(a.clone(), b.clone(), s.add(q)),
            ];
            let non_member = p.sub(&group.hash_to_group("dleq-test", b"non-member"));
            let zs = [
                z.clone(),
                BigUint::zero(),
                p.clone(),
                p.shl(1),
                p.add(&one),
                one.clone(),
                p.sub(&z),
                non_member,
            ];
            let c = challenge(&st, a, b);
            let challenges = [
                c.clone(),
                BigUint::zero(),
                one.clone(),
                BigUint::from_u64(2),
            ];
            for (i, probe) in proofs.iter().enumerate() {
                for (j, z) in zs.iter().enumerate() {
                    let st = DleqStatement { z, ..st.clone() };
                    for c in &challenges {
                        let want = check_with_inverse(probe, &st, c);
                        let at = format!("{} proof {i} z {j} c {c}", group.name());
                        assert_eq!(probe.check(&st, &cold, c), want, "cold {at}");
                        assert_eq!(probe.check(&st, key, c), want, "trained {at}");
                        // z ≡ 0 for j in 1..=3; j = 6 is −z, valid
                        // under an even challenge.
                        let valid = match i {
                            0 => c == &challenges[0] && (j == 0 || j == 6 && c.is_even()),
                            1 => c.is_zero() && !(1..=3).contains(&j),
                            _ => false,
                        };
                        assert_eq!(want, valid, "reference {at}");
                    }
                }
            }
            // Through the hashed challenge, cold and trained alike.
            assert!(proof.verify(&st));
            assert!(proof.verify_for_key(&st, key));
            for probe in &proofs[1..] {
                assert!(!probe.verify(&st));
                assert!(!probe.verify_for_key(&st, key));
            }
        }
    }

    #[test]
    fn negated_z_decides_as_the_reference_under_even_and_odd_challenges() {
        // `−gamma` passes exactly when the challenge is even, before and
        // after: `(−z)^c = z^c` and `((−z)⁻¹)^c = (z⁻¹)^c` for even `c`.
        // The VRF rejects it by membership before any DLEQ check.
        let (group, x, _, y, _) = setup();
        let mut seen = [false; 2];
        for i in 0u32..256 {
            let h = group.hash_to_group("dleq-neg", &i.to_be_bytes());
            let neg_z = group.p().sub(&group.pow(&h, &x));
            let st = DleqStatement {
                group: &group,
                g: group.g(),
                y: &y,
                h: &h,
                z: &neg_z,
            };
            let proof = prove_statement(&st, &x);
            let c = challenge(&st, proof.a(), proof.b());
            assert_eq!(proof.verify(&st), check_with_inverse(&proof, &st, &c));
            assert_eq!(proof.verify(&st), c.is_even(), "i={i}");
            seen[c.is_even() as usize] = true;
            if seen == [true; 2] {
                break;
            }
        }
        // Bounded, so a broken kernel fails here instead of looping.
        assert_eq!(seen, [true; 2]);
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
        assert_eq!(prove_statement(&st, &x), prove_statement(&st, &x));
        assert_eq!(
            DleqProof::prove(&group, group.g(), &y, &h, &x),
            (z.clone(), prove_statement(&st, &x))
        );
    }
}
