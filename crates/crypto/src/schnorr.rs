//! Schnorr signatures over a [`SchnorrGroup`].
//!
//! This is the EUF-CMA signature scheme backing `sig_p(tx)`, `sig_c(tx, l)`
//! and governor signatures in the protocol. Signing is deterministic
//! (RFC 6979-style nonce derivation via HMAC) so that the whole simulation
//! is reproducible from a seed.
//!
//! Scheme (key `x`, public `y = g^x`):
//! - sign(m):   `k = H_nonce(x, m)`, `r = g^k`, `e = H(r, y, m) mod q`,
//!   `s = k + x·e mod q`; signature is `(r, s)`.
//! - verify(m): recompute `e` and check `g^s = r · y^e (mod p)`.
//!
//! # Verification hot path
//!
//! Every key checks `pow_g(s) == r · y^e`: no inverse, and no Straus
//! product. `pow_g` answers from the generator's comb table; `y^e` is
//! one plain exponentiation of the 256-bit challenge until
//! [`KEY_TABLE_THRESHOLD`] verifications have built a comb table for `y`
//! — sized to the challenge width, not the full group order. DLEQ
//! verification raises the same key to its challenge through the same
//! table. All paths are property-tested against the textbook
//! `g^s == r · y^e` reference.
//!
//! [`SchnorrGroup`]: crate::group::SchnorrGroup

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use rand::Rng;

use crate::bigint::{BigUint, CombTable};
use crate::group::SchnorrGroup;
use crate::hmac::HmacSha256;
use crate::sha256::Sha256;
use crate::stats::Primitive;

/// Number of verifications after which a per-key comb table for `y` is
/// built. One-shot verifiers raise `y` with a plain exponentiation; any
/// key verified repeatedly (governor screening, benchmark loops)
/// amortizes the build within a handful of calls.
pub const KEY_TABLE_THRESHOLD: u64 = 3;

/// Blocks of a per-key comb: 2 × 255 entries, 131 KB at 2048 bits, and
/// 47 products per 256-bit challenge.
const KEY_COMB_BLOCKS: usize = 2;

/// A key's comb part, `(bits, blocks)`: the challenge is 256 hash bits
/// reduced mod `q`, so the table needs only `min(256, |q|)` bits.
pub(crate) fn key_comb_parts(q: &BigUint) -> [(usize, usize); 1] {
    [(q.bit_len().min(256), KEY_COMB_BLOCKS)]
}

/// A Schnorr signing key (keep secret).
#[derive(Clone)]
pub struct SigningKey {
    x: BigUint,
    public: VerifyingKey,
}

/// A Schnorr verification (public) key.
///
/// Carries a lazily-populated verification cache (a comb table for `y`),
/// shared across clones. The cache never affects
/// results — equality and hashing consider only the group and `y`.
#[derive(Clone)]
pub struct VerifyingKey {
    group: SchnorrGroup,
    y: BigUint,
    cache: Arc<VkCache>,
}

/// Lazily-populated per-key verification accelerators.
#[derive(Debug, Default)]
struct VkCache {
    /// Verifications so far; triggers the table build at the threshold.
    uses: AtomicU64,
    /// Comb table for `y`, sized to the challenge width.
    table: OnceLock<CombTable>,
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &Self) -> bool {
        self.group == other.group && self.y == other.y
    }
}

impl Eq for VerifyingKey {}

/// A Schnorr signature `(r, s)`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    r: BigUint,
    s: BigUint,
}

impl fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret scalar.
        f.debug_struct("SigningKey")
            .field("group", self.group())
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VerifyingKey({}…)",
            &self.y.to_hex()[..8.min(self.y.to_hex().len())]
        )
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signature")
            .field("r", &self.r)
            .field("s", &self.s)
            .finish()
    }
}

impl SigningKey {
    /// Generates a fresh key pair.
    pub fn generate<R: Rng + ?Sized>(group: &SchnorrGroup, rng: &mut R) -> Self {
        let x = group.random_scalar(rng);
        Self::from_scalar(group, x)
    }

    /// Derives a key pair deterministically from a byte seed.
    ///
    /// Used by the identity manager to hand out reproducible credentials in
    /// seeded simulations.
    pub fn from_seed(group: &SchnorrGroup, seed: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update_field(b"schnorr-keygen");
        h.update_field(group.name().as_bytes());
        h.update_field(seed);
        // Two hash blocks give ≥ 512 bits, enough to smooth the mod-q bias
        // for groups up to 256 bits of order; for larger groups the bias is
        // irrelevant for simulation purposes.
        let d1 = h.clone().finalize();
        let mut h2 = h;
        h2.update(b"2");
        let d2 = h2.finalize();
        let mut bytes = Vec::with_capacity(64);
        bytes.extend_from_slice(d1.as_bytes());
        bytes.extend_from_slice(d2.as_bytes());
        let mut x = group.scalar_from_bytes(&bytes);
        if x.is_zero() {
            x = BigUint::one();
        }
        Self::from_scalar(group, x)
    }

    fn from_scalar(group: &SchnorrGroup, x: BigUint) -> Self {
        let y = group.pow_g(&x);
        SigningKey {
            public: VerifyingKey::from_element(group.clone(), y),
            x,
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> &VerifyingKey {
        &self.public
    }

    /// The group this key lives in.
    pub fn group(&self) -> &SchnorrGroup {
        &self.public.group
    }

    /// Exposes the secret scalar (used by the VRF, which shares key material).
    pub(crate) fn secret_scalar(&self) -> &BigUint {
        &self.x
    }

    /// Signs `message` deterministically.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let group = self.group();
        let k = self.derive_nonce(message);
        let r = group.pow_g(&k);
        let e = challenge(group, &r, &self.public.y, message);
        let xe = group.scalar_mul(&self.x, &e);
        let s = group.scalar_add(&k, &xe);
        Signature { r, s }
    }

    /// RFC 6979-flavoured deterministic nonce: `HMAC(x, m) mod q`, rejecting 0.
    fn derive_nonce(&self, message: &[u8]) -> BigUint {
        let key = self.x.to_bytes_be();
        let mut counter = 0u32;
        loop {
            let mut mac = HmacSha256::new(&key);
            mac.update(b"schnorr-nonce");
            mac.update(&counter.to_be_bytes());
            mac.update(message);
            let d1 = mac.clone().finalize();
            mac.update(b"x");
            let d2 = mac.finalize();
            let mut bytes = Vec::with_capacity(64);
            bytes.extend_from_slice(d1.as_bytes());
            bytes.extend_from_slice(d2.as_bytes());
            let k = self.group().scalar_from_bytes(&bytes);
            if !k.is_zero() {
                return k;
            }
            counter += 1;
        }
    }
}

impl VerifyingKey {
    /// Builds a key from its group element, with an empty verification
    /// cache.
    pub(crate) fn from_element(group: SchnorrGroup, y: BigUint) -> Self {
        VerifyingKey {
            group,
            y,
            cache: Arc::new(VkCache::default()),
        }
    }

    /// Verifies `signature` over `message`: `g^s == r · y^e`, with
    /// `pow_g(s)` from the generator's table and `y^e` from
    /// [`pow_challenge`](Self::pow_challenge); pinned to the textbook
    /// check by property tests.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        crate::stats::timed(Primitive::SchnorrVerify, || self.check(message, signature))
    }

    fn check(&self, message: &[u8], signature: &Signature) -> bool {
        // A range check on `r` suffices, with no membership test: `y`
        // comes from `pow_g`, so `g^s · y^{-e}` lies in the subgroup, and
        // the equation below holds only for an `r` equal to it.
        let r = &signature.r;
        if r.is_zero() || r >= self.group.p() || signature.s >= *self.group.q() {
            return false;
        }
        let e = challenge(&self.group, &signature.r, &self.y, message);
        self.train();
        self.group.pow_g(&signature.s) == self.group.mul(&signature.r, &self.pow_challenge(&e))
    }

    /// Counts a verification and builds the comb table for `y` at the
    /// [`KEY_TABLE_THRESHOLD`]th.
    fn train(&self) {
        if self.cache.table.get().is_none()
            && self.cache.uses.fetch_add(1, Relaxed) + 1 >= KEY_TABLE_THRESHOLD
        {
            self.cache.table.get_or_init(|| {
                CombTable::build(self.group.mont(), &self.y, &key_comb_parts(self.group.q()))
            });
        }
    }

    /// `y^e mod p` for a challenge `e`: from the key's comb table once
    /// [`verify`](Self::verify) has trained it, else one plain
    /// exponentiation. Schnorr and DLEQ verification both raise `y` here.
    pub(crate) fn pow_challenge(&self, e: &BigUint) -> BigUint {
        self.cache
            .table
            .get()
            .and_then(|t| t.pow(self.group.mont(), e))
            .unwrap_or_else(|| self.group.pow(&self.y, e))
    }

    /// The group element `y = g^x`.
    pub fn element(&self) -> &BigUint {
        &self.y
    }

    /// The group this key lives in.
    pub fn group(&self) -> &SchnorrGroup {
        &self.group
    }

    /// Canonical byte encoding (fixed width), e.g. for hashing into ids.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.group.element_to_bytes(&self.y)
    }
}

impl Signature {
    /// The commitment element `r`.
    pub fn r(&self) -> &BigUint {
        &self.r
    }

    /// The response scalar `s`.
    pub fn s(&self) -> &BigUint {
        &self.s
    }

    /// Builds a signature from raw parts (e.g. after deserialization).
    pub fn from_parts(r: BigUint, s: BigUint) -> Self {
        Signature { r, s }
    }

    /// Byte encoding: fixed-width `r` followed by fixed-width `s`.
    pub fn to_bytes(&self, group: &SchnorrGroup) -> Vec<u8> {
        let mut out = group.element_to_bytes(&self.r);
        out.extend_from_slice(&self.s.to_bytes_be_padded(group.element_len()));
        out
    }
}

/// Fiat–Shamir challenge `e = H(domain, r, y, m) mod q`.
///
/// `pub(crate)` so the batch verifier ([`crate::batch`]) can recompute the
/// same challenges when assembling its linear combination.
pub(crate) fn challenge(group: &SchnorrGroup, r: &BigUint, y: &BigUint, message: &[u8]) -> BigUint {
    let mut h = Sha256::new();
    h.update_field(b"schnorr-challenge");
    h.update_field(group.name().as_bytes());
    h.update_field(&group.element_to_bytes(r));
    h.update_field(&group.element_to_bytes(y));
    h.update_field(message);
    group.scalar_from_bytes(h.finalize().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SchnorrGroup, SigningKey) {
        let group = SchnorrGroup::test_256();
        let sk = SigningKey::from_seed(&group, b"unit-test-key");
        (group, sk)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (_, sk) = setup();
        let sig = sk.sign(b"hello governors");
        assert!(sk.verifying_key().verify(b"hello governors", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (_, sk) = setup();
        let sig = sk.sign(b"message A");
        assert!(!sk.verifying_key().verify(b"message B", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let group = SchnorrGroup::test_256();
        let sk1 = SigningKey::from_seed(&group, b"key-1");
        let sk2 = SigningKey::from_seed(&group, b"key-2");
        let sig = sk1.sign(b"msg");
        assert!(!sk2.verifying_key().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (group, sk) = setup();
        let sig = sk.sign(b"msg");
        let bumped_s =
            Signature::from_parts(sig.r().clone(), sig.s().add(&BigUint::one()).rem(group.q()));
        assert!(!sk.verifying_key().verify(b"msg", &bumped_s));
        // r replaced by an arbitrary subgroup element.
        let other_r = group.pow_g(&BigUint::from_u64(12345));
        let swapped_r = Signature::from_parts(other_r, sig.s().clone());
        assert!(!sk.verifying_key().verify(b"msg", &swapped_r));
    }

    #[test]
    fn out_of_group_r_rejected() {
        let (group, sk) = setup();
        let sig = sk.sign(b"msg");
        // p - 1 is not in the order-q subgroup.
        let bad_r = group.p().sub(&BigUint::one());
        let forged = Signature::from_parts(bad_r, sig.s().clone());
        assert!(!sk.verifying_key().verify(b"msg", &forged));
        // s out of range.
        let forged = Signature::from_parts(sig.r().clone(), group.q().clone());
        assert!(!sk.verifying_key().verify(b"msg", &forged));
    }

    #[test]
    fn deterministic_signing() {
        let (_, sk) = setup();
        assert_eq!(sk.sign(b"same message"), sk.sign(b"same message"));
        assert_ne!(sk.sign(b"message 1"), sk.sign(b"message 2"));
    }

    #[test]
    fn seed_derivation_deterministic_and_distinct() {
        let group = SchnorrGroup::test_256();
        let a = SigningKey::from_seed(&group, b"seed");
        let b = SigningKey::from_seed(&group, b"seed");
        let c = SigningKey::from_seed(&group, b"other");
        assert_eq!(a.verifying_key().element(), b.verifying_key().element());
        assert_ne!(a.verifying_key().element(), c.verifying_key().element());
    }

    #[test]
    fn generate_produces_valid_keys() {
        let group = SchnorrGroup::test_256();
        let mut rng = StdRng::seed_from_u64(9);
        let sk = SigningKey::generate(&group, &mut rng);
        assert!(group.is_element(sk.verifying_key().element()));
        let sig = sk.sign(b"generated");
        assert!(sk.verifying_key().verify(b"generated", &sig));
    }

    #[test]
    fn signature_byte_encoding() {
        let (group, sk) = setup();
        let sig = sk.sign(b"enc");
        let bytes = sig.to_bytes(&group);
        assert_eq!(bytes.len(), 2 * group.element_len());
    }

    #[test]
    fn works_on_512_bit_group() {
        let group = SchnorrGroup::test_512();
        let sk = SigningKey::from_seed(&group, b"512");
        let sig = sk.sign(b"bigger group");
        assert!(sk.verifying_key().verify(b"bigger group", &sig));
        assert!(!sk.verifying_key().verify(b"other", &sig));
    }

    #[test]
    fn debug_never_leaks_secret() {
        let (_, sk) = setup();
        let debug = format!("{sk:?}");
        assert!(!debug.contains(&sk.secret_scalar().to_hex()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The range check on `r` decides as the membership test does, for
        /// `r` anywhere in `[0, p]` — residues and non-residues alike, the
        /// negated commitment, the edges `0`, `p − 1` and `p` — and for
        /// the commitment written unreduced, `p + r`; on a cold key (a
        /// plain `y^e`) and a trained one (the window table).
        #[test]
        fn range_checked_r_agrees_with_the_membership_reference(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 40),
            pick in 0usize..7,
        ) {
            let (group, sk) = setup();
            let sig = sk.sign(b"range");
            let warm = sk.verifying_key();
            for _ in 0..KEY_TABLE_THRESHOLD {
                proptest::prop_assert!(warm.verify(b"range", &sig));
            }
            let cold = SigningKey::from_seed(&group, b"unit-test-key");
            let p = group.p();
            let r = match pick {
                0 => BigUint::from_bytes_be(&bytes).rem(&p.add(&BigUint::one())),
                1 => BigUint::zero(),
                2 => p.sub(&BigUint::one()),
                3 => p.clone(),
                4 => sig.r().clone(),
                5 => p.sub(sig.r()),
                _ => p.add(sig.r()),
            };
            let probe = Signature::from_parts(r, sig.s().clone());
            for vk in [cold.verifying_key(), warm] {
                proptest::prop_assert_eq!(
                    vk.verify(b"range", &probe),
                    verify_reference(vk, b"range", &probe)
                );
                proptest::prop_assert_eq!(vk.verify(b"range", &probe), pick == 4);
            }
        }
    }

    /// Textbook verification, used as the oracle for the fast paths.
    fn verify_reference(vk: &VerifyingKey, message: &[u8], sig: &Signature) -> bool {
        let group = vk.group();
        if !group.is_element(sig.r()) || sig.s() >= group.q() {
            return false;
        }
        let e = challenge(group, sig.r(), vk.element(), message);
        let lhs = group.g().pow_mod_reference(sig.s(), group.p());
        let ye = vk.element().pow_mod_reference(&e, group.p());
        lhs == group.mul(sig.r(), &ye)
    }

    #[test]
    fn cold_and_trained_keys_agree_with_reference() {
        let (group, sk) = setup();
        let trained = sk.verifying_key().clone();
        // Crossing KEY_TABLE_THRESHOLD moves `y^e` from a plain
        // exponentiation to the per-key window table; a fresh key for each
        // check never crosses it. Every call must agree with the textbook
        // check, for good and forged signatures alike.
        for i in 0..(2 * KEY_TABLE_THRESHOLD + 2) {
            let msg = format!("message-{i}");
            let sig = sk.sign(msg.as_bytes());
            let forged = [
                Signature::from_parts(sig.r().clone(), sig.s().add(&BigUint::one()).rem(group.q())),
                Signature::from_parts(group.mul(sig.r(), group.g()), sig.s().clone()),
                Signature::from_parts(group.p().sub(sig.r()), sig.s().clone()),
            ];
            let mut cases = vec![
                (msg.as_bytes(), &sig, true),
                (b"wrong message", &sig, false),
            ];
            cases.extend(forged.iter().map(|bad| (msg.as_bytes(), bad, false)));
            for (m, sig, want) in cases {
                let cold = SigningKey::from_seed(&group, b"unit-test-key")
                    .verifying_key()
                    .clone();
                assert_eq!(verify_reference(&cold, m, sig), want);
                assert_eq!(cold.verify(m, sig), want);
                assert!(cold.cache.table.get().is_none(), "a fresh key is cold");
                assert_eq!(trained.verify(m, sig), want);
            }
        }
        assert!(
            trained.cache.table.get().is_some(),
            "table should have trained"
        );
    }

    #[test]
    fn clones_share_the_verification_cache() {
        let (_, sk) = setup();
        let vk = sk.verifying_key().clone();
        let sig = sk.sign(b"shared-cache");
        for _ in 0..KEY_TABLE_THRESHOLD {
            assert!(vk.verify(b"shared-cache", &sig));
        }
        // The clone sees the table trained by the original.
        let clone = vk.clone();
        assert!(clone.cache.table.get().is_some());
        assert!(clone.verify(b"shared-cache", &sig));
    }

    #[test]
    fn equality_ignores_cache_state() {
        let group = SchnorrGroup::test_256();
        let sk = SigningKey::from_seed(&group, b"eq-key");
        // Same key derived twice: independent caches, equal keys.
        let cold = SigningKey::from_seed(&group, b"eq-key")
            .verifying_key()
            .clone();
        let warm = sk.verifying_key().clone();
        let sig = sk.sign(b"m");
        for _ in 0..KEY_TABLE_THRESHOLD + 1 {
            assert!(warm.verify(b"m", &sig));
        }
        assert_eq!(cold, warm);
    }
}
