//! Property-based tests over the cryptographic substrate: algebraic
//! identities of the bignum arithmetic, signature/VRF soundness over
//! random inputs, and Merkle proof completeness.

use proptest::prelude::*;

use prb_crypto::bigint::BigUint;
use prb_crypto::group::SchnorrGroup;
use prb_crypto::merkle::{root_of_leaves, MerkleTree};
use prb_crypto::schnorr::SigningKey;
use prb_crypto::sha256::{kernel, sha256, sha256_on_kernel};
use prb_crypto::signer::{CryptoScheme, Sig};
use prb_crypto::sim::SimKeyPair;
use prb_crypto::vrf::VrfKeyPair;

fn biguint_strategy(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..=max_bytes).prop_map(|b| BigUint::from_bytes_be(&b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fundamental division identity: `u = q·v + r` with `r < v`.
    #[test]
    fn division_identity(u in biguint_strategy(40), v in biguint_strategy(24)) {
        prop_assume!(!v.is_zero());
        let (q, r) = u.div_rem(&v);
        prop_assert!(r < v);
        prop_assert_eq!(q.mul(&v).add(&r), u);
    }

    /// Addition/subtraction invert each other.
    #[test]
    fn add_sub_roundtrip(a in biguint_strategy(32), b in biguint_strategy(32)) {
        let sum = a.add(&b);
        prop_assert_eq!(sum.sub(&b), a.clone());
        prop_assert_eq!(sum.sub(&a), b);
    }

    /// Multiplication is commutative and distributes over addition.
    #[test]
    fn mul_laws(a in biguint_strategy(20), b in biguint_strategy(20), c in biguint_strategy(20)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    /// Shifts match multiplication/division by powers of two.
    #[test]
    fn shift_laws(a in biguint_strategy(24), bits in 0usize..100) {
        let shifted = a.shl(bits);
        prop_assert_eq!(shifted.shr(bits), a.clone());
        let pow2 = BigUint::one().shl(bits);
        prop_assert_eq!(shifted, a.mul(&pow2));
    }

    /// Byte round-trips preserve value.
    #[test]
    fn bytes_roundtrip(a in biguint_strategy(40)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        if let Some(parsed) = BigUint::from_hex(&a.to_hex()) {
            prop_assert_eq!(parsed, a);
        } else {
            prop_assert!(false, "hex failed to parse");
        }
    }

    /// Modular exponentiation matches iterated multiplication for small
    /// exponents.
    #[test]
    fn pow_mod_matches_naive(base in biguint_strategy(8), e in 0u64..24, m in biguint_strategy(8)) {
        prop_assume!(!m.is_zero());
        let fast = base.pow_mod(&BigUint::from_u64(e), &m);
        let mut slow = BigUint::one().rem(&m);
        for _ in 0..e {
            slow = slow.mul(&base).rem(&m);
        }
        prop_assert_eq!(fast, slow);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Schnorr signatures verify on the signed message and on no other.
    #[test]
    fn schnorr_soundness(seed in any::<[u8; 8]>(), msg in proptest::collection::vec(any::<u8>(), 0..64), other in proptest::collection::vec(any::<u8>(), 0..64)) {
        let group = SchnorrGroup::test_256();
        let sk = SigningKey::from_seed(&group, &seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig));
        if msg != other {
            prop_assert!(!sk.verifying_key().verify(&other, &sig));
        }
    }

    /// VRF outputs verify and are unique per (key, message).
    #[test]
    fn vrf_soundness(seed in any::<[u8; 8]>(), msg in proptest::collection::vec(any::<u8>(), 0..32)) {
        let group = SchnorrGroup::test_256();
        let kp = VrfKeyPair::from_seed(&group, &seed);
        let (out1, proof) = kp.evaluate(&msg);
        let (out2, _) = kp.evaluate(&msg);
        prop_assert_eq!(out1, out2);
        prop_assert_eq!(proof.verify(kp.public_key(), &msg), Some(out1));
    }

    /// Forged signatures of every scheme fail verification.
    #[test]
    fn forgeries_fail(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..32)) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let kp = scheme.keypair_from_seed(b"victim");
            let forged = Sig::forged(&scheme, &mut rng);
            prop_assert!(!kp.public_key().verify(&msg, &forged));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every leaf of every tree size has a verifying proof, and proofs do
    /// not transfer between positions.
    #[test]
    fn merkle_completeness(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 1..40)) {
        let tree = MerkleTree::from_leaves(&leaves);
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("leaf in range");
            prop_assert!(proof.verify(&root, leaf));
        }
        // A proof for position 0 never verifies a different leaf value.
        let proof0 = tree.prove(0).expect("non-empty");
        let tampered = sha256(b"not-a-leaf").to_bytes().to_vec();
        if leaves[0] != tampered {
            prop_assert!(!proof0.verify(&root, &tampered));
        }
    }

    /// The root-only fold is the tree's root, for every size and content.
    #[test]
    fn merkle_root_fold_matches_tree(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..70)) {
        prop_assert_eq!(root_of_leaves(&leaves), MerkleTree::from_leaves(&leaves).root());
    }

    /// Distinct leaf lists produce distinct roots (collision resistance at
    /// the structural level).
    #[test]
    fn merkle_injective_on_content(
        a in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 1..10),
        b in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..8), 1..10),
    ) {
        let ta = MerkleTree::from_leaves(&a);
        let tb = MerkleTree::from_leaves(&b);
        if a != b {
            prop_assert_ne!(ta.root(), tb.root());
        } else {
            prop_assert_eq!(ta.root(), tb.root());
        }
    }
}

// ---------------------------------------------------------------------------
// SHA-256: the compression kernels against each other, and digests pinned
// at the commit before there were two.

/// The kernels this host can run: the portable one always, SHA-NI where
/// the CPU has it (a note is printed where it does not, so a log shows
/// whether the differential checks compared two kernels or one).
fn sha256_kernels() -> Vec<&'static str> {
    let mut names = vec!["portable"];
    if kernel() == "sha-ni" {
        names.push("sha-ni");
    } else {
        println!("note: this CPU lacks SHA-NI; only the portable kernel is tested");
    }
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 1 MiB cut at random points and fed one `update` per piece gives, on
    /// every kernel, the digest of the same bytes in one `update` on the
    /// portable kernel.
    #[test]
    fn sha256_kernels_agree_on_random_splits(
        seed in any::<u8>(),
        cuts in proptest::collection::vec(0usize..(1 << 20), 0..24),
    ) {
        let data: Vec<u8> = (0..1usize << 20).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut parts: Vec<&[u8]> = Vec::new();
        let mut from = 0;
        for cut in cuts {
            parts.push(&data[from..cut]);
            from = cut;
        }
        parts.push(&data[from..]);
        let want = sha256_on_kernel("portable", &[&data]).expect("portable always runs");
        prop_assert_eq!(sha256(&data), want);
        for k in sha256_kernels() {
            prop_assert_eq!(sha256_on_kernel(k, &parts), Some(want), "kernel {}", k);
        }
    }
}

/// Values computed at the commit before the SHA-NI kernel existed: a sim
/// tag and a Merkle root are ledger bytes, whatever computes them.
#[test]
fn sim_tag_and_merkle_root_are_pinned() {
    let tag = SimKeyPair::from_seed(b"pin").sign(b"a labeled transaction upload");
    assert_eq!(
        tag.digest().to_hex(),
        "fb218e09dd33aabbfd14bbef88db3e82114bddb8d908f63c89eb755f7120c7cf"
    );
    let leaves = ["a".as_bytes(), b"b", b"c", b"d", b"e"];
    assert_eq!(
        MerkleTree::from_leaves(leaves).root().to_hex(),
        "fe14a5426fbd70c0fa73f52342afed0da0bd23c4838662ccf6b88a3070ead97b"
    );
    assert_eq!(
        root_of_leaves(leaves).to_hex(),
        "fe14a5426fbd70c0fa73f52342afed0da0bd23c4838662ccf6b88a3070ead97b"
    );
}

// ---------------------------------------------------------------------------
// Hot-path exponentiation vs the reference implementation.
//
// The Montgomery windowed pow, the Straus multi-exponentiation, the
// fixed-base comb tables, the paired exponentiation, and the Jacobi subgroup test are all pinned here to
// `pow_mod_reference` / the Euler criterion over random inputs.

use prb_crypto::bigint::{CombTable, Montgomery};

fn odd_modulus_strategy(max_bytes: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 1..=max_bytes).prop_map(|mut b| {
        *b.last_mut().expect("non-empty") |= 1; // force odd
        let m = BigUint::from_bytes_be(&b);
        if m == BigUint::one() {
            BigUint::from_u64(3)
        } else {
            m
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached-context exponentiation matches the reference for arbitrary
    /// bases, exponents (both window widths) and odd moduli.
    #[test]
    fn montgomery_pow_matches_reference(
        base in biguint_strategy(24),
        e in biguint_strategy(24),
        m in odd_modulus_strategy(16),
    ) {
        let ctx = Montgomery::new(&m);
        prop_assert_eq!(ctx.pow(&base, &e), base.pow_mod_reference(&e, &m));
    }

    /// Straus simultaneous exponentiation equals the sequential product of
    /// reference exponentiations.
    #[test]
    fn multi_pow_matches_sequential_reference(
        bases in proptest::collection::vec(biguint_strategy(16), 1..4),
        exps in proptest::collection::vec(biguint_strategy(16), 1..4),
        m in odd_modulus_strategy(12),
    ) {
        let ctx = Montgomery::new(&m);
        let n = bases.len().min(exps.len());
        let pairs: Vec<(&BigUint, &BigUint)> =
            bases[..n].iter().zip(&exps[..n]).collect();
        let got = ctx.multi_pow(&pairs);
        let mut want = BigUint::one().rem(&m);
        for (b, e) in &pairs {
            want = want.mul_mod(&b.pow_mod_reference(e, &m), &m);
        }
        prop_assert_eq!(got, want);
    }

    /// Fixed-base tables answer exactly like the reference for in-range
    /// exponents and decline wider ones.
    #[test]
    fn fixed_base_table_matches_reference_random(
        base in biguint_strategy(16),
        e in biguint_strategy(8),
        m in odd_modulus_strategy(12),
    ) {
        let ctx = Montgomery::new(&m);
        let table = CombTable::build(&ctx, &base, &[(64, 4), (24, 2)]);
        match table.pow(&ctx, &e) {
            Some(got) => prop_assert_eq!(got, base.pow_mod_reference(&e, &m)),
            None => prop_assert!(e.bit_len() > table.max_bits()),
        }
    }

    /// The Jacobi-symbol subgroup test agrees with the Euler criterion.
    #[test]
    fn is_element_matches_euler_reference(x in biguint_strategy(33)) {
        for group in [SchnorrGroup::test_256(), SchnorrGroup::test_512()] {
            let x = x.rem(group.p());
            prop_assert_eq!(group.is_element(&x), group.is_element_reference(&x));
        }
    }
}

/// The Montgomery kernels this CPU can run: the portable one always, IFMA
/// where detected — with a note, once, where it is not.
fn runnable_kernels() -> Vec<&'static str> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let mut names = vec!["portable"];
    if prb_crypto::bigint::kernel() == "ifma52" {
        names.push("ifma52");
    } else {
        NOTE.call_once(|| {
            println!("note: this CPU lacks AVX-512 IFMA; only the portable kernel is tested")
        });
    }
    names
}

/// Limb counts around the widths the groups use, plus the degenerate
/// small ones.
const KERNEL_WIDTHS: [usize; 8] = [1, 2, 3, 31, 32, 33, 48, 64];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three exponentiation routes and `mul` on every kernel this CPU
    /// can run against the from-scratch reference, for moduli of exactly
    /// `k` limbs at every width above and bases drawn from the edges: 0, 1,
    /// `n − 1`, all-ones limbs (≥ `n`), a single limb, `n + base` and a
    /// random residue.
    #[test]
    fn kernel_routes_match_reference_at_every_width(
        width in 0usize..KERNEL_WIDTHS.len(),
        m_bytes in proptest::collection::vec(any::<u8>(), 512..=512),
        base in biguint_strategy(512),
        edge in 0usize..7,
        e in biguint_strategy(20),
        e2 in biguint_strategy(6),
    ) {
        let k = KERNEL_WIDTHS[width];
        let mut m_bytes = m_bytes[..8 * k].to_vec();
        m_bytes[0] |= 0x80; // exactly k limbs
        m_bytes[8 * k - 1] |= 1; // odd
        let n = BigUint::from_bytes_be(&m_bytes);
        let one = BigUint::one();
        let base = match edge {
            0 => BigUint::zero(),
            1 => one.clone(),
            2 => n.sub(&one),
            3 => one.shl(64 * k).sub(&one),
            4 => BigUint::from_u64(base.low_u64()),
            5 => n.add(&base),
            _ => base.rem(&n),
        };
        let want = base.pow_mod_reference(&e, &n);
        let other = n.sub(&BigUint::from_u64(2));
        let want2 = want.mul_mod(&other.pow_mod_reference(&e2, &n), &n);
        for name in runnable_kernels() {
            let ctx = Montgomery::on_kernel(&n, name).expect("runnable");
            prop_assert_eq!(ctx.pow(&base, &e), want.clone(), "{}", name);
            let table = CombTable::build(&ctx, &base, &[(160, 4)]);
            prop_assert_eq!(table.pow(&ctx, &e), Some(want.clone()), "{}", name);
            let pair = (want.clone(), base.pow_mod_reference(&e2, &n));
            prop_assert_eq!(ctx.pow_pair(&base, &e, &e2), pair, "{}", name);
            prop_assert_eq!(ctx.multi_pow(&[(&base, &e), (&other, &e2)]), want2.clone());
            prop_assert_eq!(ctx.mul(&base, &other), base.mul_mod(&other, &n), "{}", name);
        }
    }

    /// The group's Montgomery product and `hash_to_group`'s squaring equal
    /// the schoolbook-and-divide `mul_mod` they replaced.
    #[test]
    fn group_mul_matches_mul_mod(a in biguint_strategy(70), b in biguint_strategy(64)) {
        for group in [SchnorrGroup::test_256(), SchnorrGroup::test_512()] {
            prop_assert_eq!(group.mul(&a, &b), a.mul_mod(&b, group.p()));
            prop_assert_eq!(group.mont().mul(&a, &a), a.mul_mod(&a, group.p()));
        }
    }
}

/// Every parameter set (the three RFC 3526 groups and both test groups):
/// generator-comb `pow_g` and a standalone comb must match the reference
/// at the edge exponents 0, 1 and `q − 1`, plus a mid-size scalar.
#[test]
fn fixed_base_tables_match_reference_all_groups_edge_exponents() {
    for group in [
        SchnorrGroup::test_256(),
        SchnorrGroup::test_512(),
        SchnorrGroup::rfc3526_2048(),
        SchnorrGroup::rfc3526_3072(),
        SchnorrGroup::rfc3526_4096(),
    ] {
        let q_minus_1 = group.q().sub(&BigUint::one());
        let parts = [(512, 4), (group.q().bit_len(), 4)];
        let table = CombTable::build(group.mont(), group.g(), &parts);
        for e in [
            BigUint::zero(),
            BigUint::one(),
            BigUint::from_u64(0xdead_beef_cafe),
            q_minus_1,
        ] {
            let want = group.g().pow_mod_reference(&e, group.p());
            // Direct table lookup…
            assert_eq!(
                table.pow(group.mont(), &e),
                Some(want.clone()),
                "{} table e={}",
                group.name(),
                e.bit_len()
            );
            // …and through the group's lazy pow_g path (twice: the second
            // call crosses G_TABLE_THRESHOLD and flips to the table).
            assert_eq!(group.pow_g(&e), want, "{} pow_g", group.name());
            assert_eq!(group.pow_g(&e), want, "{} pow_g (table)", group.name());
        }
    }
}
