//! Schnorr groups: prime-order subgroups of `Z_p^*` for a safe prime `p`.
//!
//! All discrete-log-based primitives in this crate (Schnorr signatures,
//! Chaum–Pedersen DLEQ proofs, and the VRF) operate over a [`SchnorrGroup`]:
//! the order-`q` subgroup of quadratic residues modulo a safe prime
//! `p = 2q + 1`. Five parameter sets are provided:
//!
//! - [`SchnorrGroup::rfc3526_2048`], [`SchnorrGroup::rfc3526_3072`],
//!   [`SchnorrGroup::rfc3526_4096`] — the MODP groups 14–16 from RFC 3526
//!   (2048-bit is the secure default),
//! - [`SchnorrGroup::test_512`] and [`SchnorrGroup::test_256`] — small groups
//!   for fast tests and simulations. **These are not secure** and exist only
//!   to keep test suites and high-volume experiments fast.
//!
//! # Exponentiation hot path
//!
//! Every group owns one [`Montgomery`] context (built once, reused by all
//! exponentiations) and lazily builds a [`CombTable`] for the generator
//! after [`G_TABLE_THRESHOLD`] `pow_g` calls, with one part per exponent
//! width the protocol uses, turning the hottest operation in
//! signing/key-gen/VRF evaluation into a short comb.
//! Subgroup membership tests use the Jacobi symbol instead of an
//! `x^q mod p` exponentiation (~50× cheaper at 2048 bits on the IFMA
//! kernel, more on the portable one); the
//! Euler-criterion original is retained as
//! [`SchnorrGroup::is_element_reference`] and pinned to the fast path by
//! property tests.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

use rand::Rng;

use crate::bigint::{jacobi, BigUint, CombTable, Montgomery};
use crate::sha256::Sha256;

/// Number of `pow_g` calls after which the generator comb table is
/// built. One-shot users (a single key-gen, a lone forged signature)
/// never pay the build; any steady caller amortizes it within a few
/// operations.
pub const G_TABLE_THRESHOLD: u64 = 2;

/// The widths the protocol raises the generator to, below the full-width
/// part: 512-bit keys and nonces (64 hash bytes), responses
/// `k + x·e < 2^769` (a 512-bit nonce plus a 512-bit key times a 256-bit
/// challenge), and RLC sums `Σ zᵢ·sᵢ` of 64-bit randomizers over up to
/// 128 responses. Any wider exponent takes the last part, `|q|` bits.
const G_COMB_BITS: [usize; 3] = [512, 769, 840];

/// Blocks per generator comb part: 4 × 255 entries, 261 KB a part at
/// 2048 bits.
const G_COMB_BLOCKS: usize = 4;

/// RFC 3526 group 14: 2048-bit MODP prime (a safe prime), generator 2.
const RFC3526_2048_P: &str = "\
FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// RFC 3526 group 15: 3072-bit MODP prime (a safe prime), generator 2.
const RFC3526_3072_P: &str = "\
FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33\
A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7\
ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864\
D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2\
08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A93AD2CAFFFFFFFFFFFFFFFF";

/// RFC 3526 group 16: 4096-bit MODP prime (a safe prime), generator 2.
const RFC3526_4096_P: &str = "\
FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AAAC42DAD33170D04507A33\
A85521ABDF1CBA64ECFB850458DBEF0A8AEA71575D060C7DB3970F85A6E1E4C7\
ABF5AE8CDB0933D71E8C94E04A25619DCEE3D2261AD2EE6BF12FFA06D98A0864\
D87602733EC86A64521F2B18177B200CBBE117577A615D6C770988C0BAD946E2\
08E24FA074E5AB3143DB5BFCE0FD108E4B82D120A92108011A723C12A787E6D7\
88719A10BDBA5B2699C327186AF4E23C1A946834B6150BDA2583E9CA2AD44CE8\
DBBBC2DB04DE8EF92E8EFC141FBECAA6287C59474E6BC05D99B2964FA090C3A2\
233BA186515BE7ED1F612970CEE2D7AFB81BDD762170481CD0069127D5B05AA9\
93B4EA988D8FDDC186FFB7DC90A6C08F4DF435C934063199FFFFFFFFFFFFFFFF";

/// 512-bit safe prime for tests (deterministically generated; INSECURE).
const TEST_512_P: &str = "\
ee2c50993f2bc0bb8dcaccb41f81d9cf35e3f7bbd0e8c2b90d143f2704683b67\
27016b2dedc50d6920f98dce68f096b9efa87e7cd76a2e3c89518c5642dd65cf";

/// 256-bit safe prime for tests (deterministically generated; INSECURE).
const TEST_256_P: &str = "d87d5bf5d41fe719288a7235e78adfc7713253fa5e3b8acac9f3184936331497";

/// The generator's comb parts, `(bits, blocks)`, for a `q_bits`-bit
/// order: the [`G_COMB_BITS`] below `q_bits`, then `q_bits`.
pub(crate) fn g_comb_parts(q_bits: usize) -> Vec<(usize, usize)> {
    G_COMB_BITS
        .into_iter()
        .filter(|&bits| bits < q_bits)
        .chain([q_bits])
        .map(|bits| (bits, G_COMB_BLOCKS))
        .collect()
}

/// A Schnorr group: the order-`q` subgroup of `Z_p^*` with `p = 2q + 1`.
///
/// Cheap to clone (parameters are behind an `Arc`).
///
/// # Examples
///
/// ```
/// use prb_crypto::group::SchnorrGroup;
///
/// let group = SchnorrGroup::test_256();
/// let x = group.random_scalar(&mut rand::thread_rng());
/// let y = group.pow_g(&x);
/// assert!(group.is_element(&y));
/// ```
#[derive(Clone)]
pub struct SchnorrGroup {
    inner: Arc<GroupParams>,
}

struct GroupParams {
    /// Safe prime modulus.
    p: BigUint,
    /// Subgroup order, `q = (p - 1) / 2`.
    q: BigUint,
    /// Generator of the order-`q` subgroup.
    g: BigUint,
    /// Byte length of `p` (for fixed-width serialization).
    element_len: usize,
    /// Human-readable parameter-set name.
    name: &'static str,
    /// Cached Montgomery context for `p`, shared by every exponentiation.
    mont: Montgomery,
    /// Lazily-built comb table for the generator.
    g_table: OnceLock<CombTable>,
    /// `pow_g` calls so far; triggers the table build at the threshold.
    pow_g_calls: AtomicU64,
}

impl fmt::Debug for SchnorrGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrGroup")
            .field("name", &self.inner.name)
            .field("bits", &self.inner.p.bit_len())
            .finish()
    }
}

impl PartialEq for SchnorrGroup {
    fn eq(&self, other: &Self) -> bool {
        self.inner.p == other.inner.p && self.inner.g == other.inner.g
    }
}

impl Eq for SchnorrGroup {}

impl SchnorrGroup {
    fn from_safe_prime_hex(p_hex: &str, g: u64, name: &'static str) -> Self {
        let p = BigUint::from_hex(p_hex).expect("valid hex constant");
        let q = p.shr(1); // (p - 1) / 2 for odd p
        let element_len = p.bit_len().div_ceil(8);
        let mont = Montgomery::new(&p);
        SchnorrGroup {
            inner: Arc::new(GroupParams {
                p,
                q,
                g: BigUint::from_u64(g),
                element_len,
                name,
                mont,
                g_table: OnceLock::new(),
                pow_g_calls: AtomicU64::new(0),
            }),
        }
    }

    /// The 2048-bit MODP group from RFC 3526 (group 14), generator 2.
    ///
    /// `2` generates the order-`q` subgroup because `p ≡ 7 (mod 8)` makes 2
    /// a quadratic residue.
    pub fn rfc3526_2048() -> Self {
        Self::from_safe_prime_hex(RFC3526_2048_P, 2, "rfc3526-2048")
    }

    /// The 3072-bit MODP group from RFC 3526 (group 15), generator 2.
    pub fn rfc3526_3072() -> Self {
        Self::from_safe_prime_hex(RFC3526_3072_P, 2, "rfc3526-3072")
    }

    /// The 4096-bit MODP group from RFC 3526 (group 16), generator 2.
    pub fn rfc3526_4096() -> Self {
        Self::from_safe_prime_hex(RFC3526_4096_P, 2, "rfc3526-4096")
    }

    /// A 512-bit test group. **Insecure**; for tests and simulations only.
    ///
    /// Generator 4 = 2² is always a quadratic residue, hence has order `q`.
    pub fn test_512() -> Self {
        Self::from_safe_prime_hex(TEST_512_P, 4, "test-512")
    }

    /// A 256-bit test group. **Insecure**; for tests and simulations only.
    pub fn test_256() -> Self {
        Self::from_safe_prime_hex(TEST_256_P, 4, "test-256")
    }

    /// The modulus `p`.
    pub fn p(&self) -> &BigUint {
        &self.inner.p
    }

    /// The subgroup order `q`.
    pub fn q(&self) -> &BigUint {
        &self.inner.q
    }

    /// The generator `g`.
    pub fn g(&self) -> &BigUint {
        &self.inner.g
    }

    /// Parameter-set name (e.g. `"rfc3526-2048"`).
    pub fn name(&self) -> &'static str {
        self.inner.name
    }

    /// Byte width used for fixed-length element serialization.
    pub fn element_len(&self) -> usize {
        self.inner.element_len
    }

    /// Uniformly samples a non-zero scalar in `[1, q)`.
    pub fn random_scalar<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let s = BigUint::random_below(rng, &self.inner.q);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// The group's cached Montgomery context (for callers that manage
    /// their own precomputation, e.g. per-key comb tables).
    pub fn mont(&self) -> &Montgomery {
        &self.inner.mont
    }

    /// `g^e mod p`.
    ///
    /// After [`G_TABLE_THRESHOLD`] calls a comb table for `g` is built
    /// (shared across clones through the `Arc` inner) and every subsequent
    /// call is answered from its narrowest part that covers `e`: in the
    /// 2048-bit group about 79 products for a 512-bit exponent, 121 for
    /// 769 bits, 131 for 840 and 318 for 2 047.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        let inner = &*self.inner;
        let table = match inner.g_table.get() {
            Some(t) => Some(t),
            None if inner.pow_g_calls.fetch_add(1, Relaxed) + 1 >= G_TABLE_THRESHOLD => {
                Some(inner.g_table.get_or_init(|| {
                    CombTable::build(&inner.mont, &inner.g, &g_comb_parts(inner.q.bit_len()))
                }))
            }
            None => None,
        };
        match table.and_then(|t| t.pow(&inner.mont, e)) {
            Some(out) => out,
            None => inner.mont.pow(&inner.g, e),
        }
    }

    /// `base^e mod p`, routed through the generator table when `base` is
    /// the generator (the common case in DLEQ statements).
    pub fn pow_base(&self, base: &BigUint, e: &BigUint) -> BigUint {
        if base == &self.inner.g {
            self.pow_g(e)
        } else {
            self.inner.mont.pow(base, e)
        }
    }

    /// `base^e mod p`.
    pub fn pow(&self, base: &BigUint, e: &BigUint) -> BigUint {
        self.inner.mont.pow(base, e)
    }

    /// `(base^e1 mod p, base^e2 mod p)` over one squaring chain (see
    /// [`Montgomery::pow_pair`]).
    pub fn pow_pair(&self, base: &BigUint, e1: &BigUint, e2: &BigUint) -> (BigUint, BigUint) {
        self.inner.mont.pow_pair(base, e1, e2)
    }

    /// Straus/Shamir simultaneous exponentiation `∏ baseᵢ^expᵢ mod p`
    /// with one shared squaring chain (see [`Montgomery::multi_pow`]).
    pub fn multi_pow(&self, pairs: &[(&BigUint, &BigUint)]) -> BigUint {
        self.inner.mont.multi_pow(pairs)
    }

    /// `a * b mod p`, as two Montgomery products (no division).
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.inner.mont.mul(a, b)
    }

    /// Scalar addition `a + b mod q` (inputs must be reduced).
    pub fn scalar_add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.add_mod(b, &self.inner.q)
    }

    /// Scalar multiplication `a * b mod q`.
    pub fn scalar_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul_mod(b, &self.inner.q)
    }

    /// Reduces arbitrary bytes to a scalar in `[0, q)`.
    pub fn scalar_from_bytes(&self, bytes: &[u8]) -> BigUint {
        BigUint::from_bytes_be(bytes).rem(&self.inner.q)
    }

    /// Whether `x` is a valid element of the order-`q` subgroup.
    ///
    /// For a safe prime `p = 2q + 1` the order-`q` subgroup is exactly the
    /// set of quadratic residues, so this checks `0 < x < p` and
    /// `(x/p) = 1` via the Jacobi symbol — no exponentiation. Equivalent
    /// to (and property-tested against)
    /// [`is_element_reference`](Self::is_element_reference).
    pub fn is_element(&self, x: &BigUint) -> bool {
        !x.is_zero() && x < &self.inner.p && jacobi(x, &self.inner.p) == 1
    }

    /// Euler-criterion subgroup test: `0 < x < p` and `x^q = 1 (mod p)`.
    ///
    /// The pre-optimization implementation, kept as the oracle for
    /// [`is_element`](Self::is_element) in property tests.
    pub fn is_element_reference(&self, x: &BigUint) -> bool {
        !x.is_zero()
            && x < &self.inner.p
            && x.pow_mod_reference(&self.inner.q, &self.inner.p) == BigUint::one()
    }

    /// Hashes a message into the order-`q` subgroup.
    ///
    /// Expands `domain || msg` with counter-mode SHA-256 until enough bytes
    /// are available, reduces mod `p`, and squares: any square is a quadratic
    /// residue, hence lies in the order-`q` subgroup of a safe-prime group.
    /// Re-hashes in the (cryptographically negligible, but possible for the
    /// tiny test groups) event the result is 0 or 1.
    pub fn hash_to_group(&self, domain: &str, msg: &[u8]) -> BigUint {
        let needed = self.inner.element_len + 16; // oversample to smooth the mod-p bias
        let mut counter = 0u32;
        loop {
            let mut bytes = Vec::with_capacity(needed);
            let mut block = 0u32;
            while bytes.len() < needed {
                let mut h = Sha256::new();
                h.update_field(domain.as_bytes());
                h.update_field(msg);
                h.update(&counter.to_be_bytes());
                h.update(&block.to_be_bytes());
                bytes.extend_from_slice(h.finalize().as_bytes());
                block += 1;
            }
            bytes.truncate(needed);
            let x = BigUint::from_bytes_be(&bytes).rem(&self.inner.p);
            let sq = self.inner.mont.mul(&x, &x);
            if !sq.is_zero() && sq != BigUint::one() {
                return sq;
            }
            counter += 1;
        }
    }

    /// Serializes a group element to `element_len` big-endian bytes.
    pub fn element_to_bytes(&self, x: &BigUint) -> Vec<u8> {
        x.to_bytes_be_padded(self.inner.element_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn test_groups_are_safe_prime_groups() {
        let mut rng = StdRng::seed_from_u64(1);
        for group in [SchnorrGroup::test_256(), SchnorrGroup::test_512()] {
            assert!(group.p().is_probable_prime(12, &mut rng), "{group:?} p");
            assert!(group.q().is_probable_prime(12, &mut rng), "{group:?} q");
            // p = 2q + 1
            assert_eq!(
                group.q().shl(1).add(&crate::bigint::BigUint::one()),
                *group.p()
            );
            // generator is in the subgroup and not the identity
            assert!(group.is_element(group.g()));
            assert_ne!(*group.g(), BigUint::one());
        }
    }

    #[test]
    fn rfc3526_is_safe_prime_group() {
        let mut rng = StdRng::seed_from_u64(2);
        let group = SchnorrGroup::rfc3526_2048();
        assert_eq!(group.p().bit_len(), 2048);
        assert!(group.p().is_probable_prime(4, &mut rng));
        assert!(group.q().is_probable_prime(4, &mut rng));
        assert!(group.is_element(group.g()));
    }

    #[test]
    fn rfc3526_constant_sanity() {
        let group = SchnorrGroup::rfc3526_2048();
        assert_eq!(group.p().bit_len(), 2048);
        assert_eq!(group.element_len(), 256);
        // p ≡ 7 (mod 8) makes 2 a quadratic residue.
        assert_eq!(group.p().low_u64() % 8, 7);
        assert_eq!(group.name(), "rfc3526-2048");
    }

    #[test]
    fn exponent_arithmetic_laws() {
        let group = SchnorrGroup::test_256();
        let mut rng = StdRng::seed_from_u64(3);
        let a = group.random_scalar(&mut rng);
        let b = group.random_scalar(&mut rng);
        // g^(a+b) == g^a * g^b
        let lhs = group.pow_g(&group.scalar_add(&a, &b));
        let rhs = group.mul(&group.pow_g(&a), &group.pow_g(&b));
        assert_eq!(lhs, rhs);
        // (g^a)^b == g^(ab)
        let lhs = group.pow(&group.pow_g(&a), &b);
        let rhs = group.pow_g(&group.scalar_mul(&a, &b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn group_elements_have_order_q() {
        let group = SchnorrGroup::test_256();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let x = group.random_scalar(&mut rng);
            let y = group.pow_g(&x);
            assert!(group.is_element(&y));
            assert_eq!(group.pow(&y, group.q()), BigUint::one());
        }
        // p - 1 has order 2, not q: must be rejected.
        let minus_one = group.p().sub(&BigUint::one());
        assert!(!group.is_element(&minus_one));
        assert!(!group.is_element(&BigUint::zero()));
        assert!(!group.is_element(group.p()));
    }

    #[test]
    fn hash_to_group_lands_in_subgroup_and_separates() {
        let group = SchnorrGroup::test_256();
        let h1 = group.hash_to_group("vrf", b"message-1");
        let h2 = group.hash_to_group("vrf", b"message-2");
        let h3 = group.hash_to_group("other", b"message-1");
        assert!(group.is_element(&h1));
        assert!(group.is_element(&h2));
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        // Deterministic.
        assert_eq!(group.hash_to_group("vrf", b"message-1"), h1);
    }

    #[test]
    fn hash_to_group_values_are_pinned() {
        // Computed when the squaring was still `x.mul_mod(&x, p)`; every
        // VRF output (hence every elected leader) depends on these bytes.
        let small = SchnorrGroup::test_256().hash_to_group("vrf", b"message-1");
        assert_eq!(
            small.to_hex(),
            "4032d4a18e008f12368f1c0d1ff60fe820321cedb33fa355f9cfbc4df18ef0a7"
        );
        let group = SchnorrGroup::rfc3526_2048();
        let big = group.hash_to_group("vrf", b"message-1");
        assert_eq!(
            crate::sha256::sha256(&group.element_to_bytes(&big)).to_hex(),
            "7725a4e44c0313e562552a63e7e9d840f6ce84fa4d4a6cb431db7938fd14828e"
        );
    }

    #[test]
    fn scalar_from_bytes_reduces() {
        let group = SchnorrGroup::test_256();
        let big = vec![0xffu8; 64];
        let s = group.scalar_from_bytes(&big);
        assert!(&s < group.q());
    }

    #[test]
    fn element_serialization_fixed_width() {
        let group = SchnorrGroup::test_256();
        let bytes = group.element_to_bytes(&BigUint::one());
        assert_eq!(bytes.len(), group.element_len());
        assert_eq!(BigUint::from_bytes_be(&bytes), BigUint::one());
    }

    #[test]
    fn groups_compare_by_parameters() {
        assert_eq!(SchnorrGroup::test_256(), SchnorrGroup::test_256());
        assert_ne!(SchnorrGroup::test_256(), SchnorrGroup::test_512());
    }

    #[test]
    fn pow_g_same_before_and_after_table_build() {
        let group = SchnorrGroup::test_256();
        let mut rng = StdRng::seed_from_u64(11);
        let exps: Vec<BigUint> = (0..6).map(|_| group.random_scalar(&mut rng)).collect();
        // First pass may answer some calls pre-table, second pass is all
        // table hits; results must be identical either way.
        let first: Vec<BigUint> = exps.iter().map(|e| group.pow_g(e)).collect();
        let second: Vec<BigUint> = exps.iter().map(|e| group.pow_g(e)).collect();
        assert_eq!(first, second);
        for (e, y) in exps.iter().zip(&first) {
            assert_eq!(y, &group.g().pow_mod_reference(e, group.p()));
        }
    }

    #[test]
    fn pow_base_routes_generator_and_others() {
        let group = SchnorrGroup::test_256();
        let e = BigUint::from_u64(123456789);
        assert_eq!(group.pow_base(group.g(), &e), group.pow_g(&e));
        let h = group.hash_to_group("t", b"base");
        assert_eq!(group.pow_base(&h, &e), group.pow(&h, &e));
    }

    #[test]
    fn multi_pow_matches_separate_exponentiations() {
        let group = SchnorrGroup::test_512();
        let mut rng = StdRng::seed_from_u64(12);
        let y = group.pow_g(&group.random_scalar(&mut rng));
        let s = group.random_scalar(&mut rng);
        let e = group.random_scalar(&mut rng);
        let got = group.multi_pow(&[(group.g(), &s), (&y, &e)]);
        let want = group.mul(&group.pow_g(&s), &group.pow(&y, &e));
        assert_eq!(got, want);
    }

    #[test]
    fn is_element_agrees_with_euler_reference() {
        let group = SchnorrGroup::test_256();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..20 {
            // Arbitrary values below p: roughly half are non-residues.
            let x = BigUint::random_below(&mut rng, group.p());
            assert_eq!(
                group.is_element(&x),
                group.is_element_reference(&x),
                "x={x}"
            );
        }
        assert!(!group.is_element(&BigUint::zero()));
        assert!(!group.is_element(group.p()));
        assert!(group.is_element(&BigUint::one()));
    }

    #[test]
    fn is_element_agrees_with_euler_reference_at_2048_bits() {
        // The width the benchmark's `closed-crypto` workload runs the
        // Jacobi path at, against a from-scratch `x^q mod p`.
        let group = SchnorrGroup::rfc3526_2048();
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..20 {
            let x = BigUint::random_below(&mut rng, group.p());
            assert_eq!(
                group.is_element(&x),
                group.is_element_reference(&x),
                "x={x}"
            );
        }
    }

    #[test]
    fn rfc3526_large_groups_constant_sanity() {
        // Bit lengths, p ≡ 7 (mod 8), and a Fermat canary: for random x,
        // x^(p-1) = (x^q)^2 must be 1 and x^q must be ±1. A corrupted
        // constant fails this with overwhelming probability.
        let mut rng = StdRng::seed_from_u64(14);
        for (group, bits) in [
            (SchnorrGroup::rfc3526_3072(), 3072),
            (SchnorrGroup::rfc3526_4096(), 4096),
        ] {
            assert_eq!(group.p().bit_len(), bits);
            assert_eq!(group.element_len(), bits / 8);
            assert_eq!(group.p().low_u64() % 8, 7);
            let x = BigUint::random_below(&mut rng, group.p());
            let xq = group.pow(&x, group.q());
            let minus_one = group.p().sub(&BigUint::one());
            assert!(xq == BigUint::one() || xq == minus_one, "{}", group.name());
            // Jacobi fast path agrees with the Euler criterion.
            assert_eq!(group.is_element(&x), xq == BigUint::one());
            assert!(group.is_element(group.g()));
        }
    }
}
