//! Randomized linear-combination (RLC) batch verification for Schnorr
//! signatures.
//!
//! A governor screening a block verifies dozens of signatures against the
//! same handful of provider keys; a stake-block certificate carries one
//! signature per governor over the *same* message. Verifying each item
//! independently repeats the most expensive part — a full-width
//! exponentiation chain — `n` times. Batch verification instead checks one
//! random linear combination of all `n` statements:
//!
//! For Schnorr (`g^{s_i} == r_i · y_i^{e_i}`), sample small non-zero
//! randomizers `z_i` and check
//!
//! ```text
//! g^{Σ z_i·s_i mod q}  ==  Π r_i^{z_i} · y_i^{z_i·e_i}
//! ```
//!
//! with a single Straus multi-exponentiation on the right. If any single
//! statement is false, the combined check fails except with probability
//! `≤ 2^-64` per forged item (the randomizer width). The left side is one
//! fixed-base `pow_g`; the right side shares one squaring chain whose
//! length is the *randomized* exponent width (`64 + 256` bits), not the
//! group width — that asymmetry is where the batch win comes from, and why
//! `z_i·e_i` is deliberately **not** reduced mod `q` (reduction would
//! stretch every right-hand exponent back to full group width and cost
//! more than sequential verification).
//!
//! # Randomizer derivation
//!
//! The `z_i` are derived by hashing the entire batch (Fiat–Shamir style, as
//! in deterministic ed25519 batch verification): reproducible across runs
//! and threads, no RNG plumbing, and an adversary controlling batch items
//! cannot aim at the randomizers without inverting SHA-256.
//!
//! # Failure bisection contract
//!
//! On batch failure the batch is split in half and each half re-checked
//! recursively; single-item leaves fall back to the per-item verifier.
//! [`verify_batch`] therefore returns `Err(indices)` naming **exactly** the
//! items that fail individual verification — callers get per-item verdicts
//! (for the governor's memo cache and forgery attribution) at roughly
//! `O(k·log n)` extra combined checks for `k` bad items instead of `n`
//! sequential ones.

use crate::bigint::BigUint;
use crate::group::SchnorrGroup;
use crate::schnorr::{self, Signature, VerifyingKey};
use crate::sha256::Sha256;
use crate::stats::Counter;

/// Outcome of a batch check: `Ok(())` when every item verifies, otherwise
/// the sorted indices of the items that fail individual verification.
pub type BatchResult = Result<(), Vec<usize>>;

/// Randomizer width in bytes (64 bits). This keeps the combined right-hand
/// exponents short — the whole point of the batch — while bounding the
/// per-item cheat probability by `2^-64`, ample for a simulation and in
/// line with batch-verification practice.
const RANDOMIZER_BYTES: usize = 8;

type SchnorrItem<'a> = (usize, &'a [u8], &'a Signature, &'a VerifyingKey);

/// Verifies a batch of Schnorr signatures.
///
/// Equivalent to calling [`VerifyingKey::verify`] on every item (property
/// tests pin this), but sublinear in full-width exponentiations: one
/// `pow_g` plus one Straus multi-exponentiation over short randomized
/// exponents per group represented in the batch. Mixed-group batches are
/// partitioned and combined per group.
///
/// Returns `Err` with the sorted indices of the offending items, found by
/// bisection (see the module docs for the contract).
pub fn verify_batch(items: &[(&[u8], &Signature, &VerifyingKey)]) -> BatchResult {
    crate::stats::add(Counter::BatchCalls, 1);
    crate::stats::add(Counter::BatchItems, items.len() as u64);
    let mut parts: Vec<(&SchnorrGroup, Vec<SchnorrItem<'_>>)> = Vec::new();
    let mut invalid = Vec::new();
    for (idx, &(msg, sig, vk)) in items.iter().enumerate() {
        let group = vk.group();
        // Degenerate values (r outside the subgroup, s out of range) cannot
        // enter the linear combination; they fail outright. The single
        // verifier gets by with `0 < r < p`, but here `r` must be a member:
        // `−r` carries an order-2 factor that `(−r)^{z_i}` cancels whenever
        // the randomizer is even, so a signature whose `r` alone is wrong
        // would pass the combined check half the time.
        if !group.is_element(sig.r()) || sig.s() >= group.q() {
            invalid.push(idx);
            continue;
        }
        match parts.iter_mut().find(|(g, _)| *g == group) {
            Some((_, v)) => v.push((idx, msg, sig, vk)),
            None => parts.push((group, vec![(idx, msg, sig, vk)])),
        }
    }
    for (group, part) in &parts {
        schnorr_check_or_bisect(group, part, &mut invalid);
    }
    finish(invalid)
}

fn finish(mut invalid: Vec<usize>) -> BatchResult {
    if invalid.is_empty() {
        Ok(())
    } else {
        invalid.sort_unstable();
        Err(invalid)
    }
}

fn schnorr_check_or_bisect(
    group: &SchnorrGroup,
    items: &[SchnorrItem<'_>],
    invalid: &mut Vec<usize>,
) {
    match items {
        [] => {}
        // A single item gains nothing from the linear combination; the
        // per-key verifier (with its trained tables) is the cheapest check
        // and doubles as the bisection leaf.
        [(idx, msg, sig, vk)] => {
            crate::stats::add(Counter::BatchFallbackItems, 1);
            if !vk.verify(msg, sig) {
                invalid.push(*idx);
            }
        }
        _ => {
            if schnorr_rlc_holds(group, items) {
                return;
            }
            crate::stats::add(Counter::BatchBisectSteps, 1);
            let mid = items.len() / 2;
            schnorr_check_or_bisect(group, &items[..mid], invalid);
            schnorr_check_or_bisect(group, &items[mid..], invalid);
        }
    }
}

/// The combined Schnorr check
/// `g^{Σ z_i·s_i} == Π r_i^{z_i} · y_i^{z_i·e_i}` for pre-validated items.
fn schnorr_rlc_holds(group: &SchnorrGroup, items: &[SchnorrItem<'_>]) -> bool {
    let zs = derive_randomizers(b"schnorr-batch", group, items.len(), |h| {
        for (_, msg, sig, vk) in items {
            h.update_field(&group.element_to_bytes(sig.r()));
            h.update_field(&sig.s().to_bytes_be_padded(group.element_len()));
            h.update_field(&group.element_to_bytes(vk.element()));
            h.update_field(msg);
        }
    });
    // Generator exponent: reduced mod q so it stays within the generator
    // table's width (scalar arithmetic is cheap; the table is sized to |q|
    // bits). Right-hand exponents: z_i and the unreduced product z_i·e_i.
    let mut s_comb = BigUint::zero();
    let mut ze = Vec::with_capacity(items.len());
    for ((_, msg, sig, vk), z) in items.iter().zip(&zs) {
        let e = schnorr::challenge(group, sig.r(), vk.element(), msg);
        s_comb = group.scalar_add(&s_comb, &group.scalar_mul(z, sig.s()));
        ze.push(z.mul(&e));
    }
    let mut pairs = Vec::with_capacity(2 * items.len());
    for ((_, _, sig, vk), (z, ze)) in items.iter().zip(zs.iter().zip(&ze)) {
        pairs.push((sig.r(), z));
        pairs.push((vk.element(), ze));
    }
    group.pow_g(&s_comb) == group.multi_pow(&pairs)
}

/// Derives `count` non-zero 64-bit randomizers by hashing the whole batch
/// transcript (written by `absorb`) and expanding per index.
fn derive_randomizers(
    domain: &'static [u8],
    group: &SchnorrGroup,
    count: usize,
    absorb: impl FnOnce(&mut Sha256),
) -> Vec<BigUint> {
    let mut h = Sha256::new();
    h.update_field(b"batch-randomizer");
    h.update_field(domain);
    h.update_field(group.name().as_bytes());
    absorb(&mut h);
    let base = h.finalize();
    (0..count)
        .map(|i| {
            let mut hi = Sha256::new();
            hi.update_field(b"batch-z");
            hi.update_field(base.as_bytes());
            hi.update_field(&(i as u64).to_be_bytes());
            let d = hi.finalize();
            let z = u64::from_be_bytes(
                d.as_bytes()[..RANDOMIZER_BYTES]
                    .try_into()
                    .expect("8 bytes"),
            );
            // A zero randomizer would drop its item from the combination;
            // probability 2^-64, but cheap to exclude outright.
            BigUint::from_u64(z.max(1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schnorr::SigningKey;

    fn keys(group: &SchnorrGroup, n: usize) -> Vec<SigningKey> {
        (0..n)
            .map(|i| SigningKey::from_seed(group, format!("batch-key-{i}").as_bytes()))
            .collect()
    }

    /// Textbook per-item verification: the oracle every batch result is
    /// pinned to (same reference as `schnorr::tests::verify_reference`).
    fn sequential_verdicts(items: &[(&[u8], &Signature, &VerifyingKey)]) -> Vec<bool> {
        items
            .iter()
            .map(|(msg, sig, vk)| {
                let group = vk.group();
                if !group.is_element(sig.r()) || sig.s() >= group.q() {
                    return false;
                }
                let e = schnorr::challenge(group, sig.r(), vk.element(), msg);
                let lhs = group.g().pow_mod_reference(sig.s(), group.p());
                let ye = vk.element().pow_mod_reference(&e, group.p());
                lhs == group.mul(sig.r(), &ye)
            })
            .collect()
    }

    fn batch_verdicts(items: &[(&[u8], &Signature, &VerifyingKey)]) -> Vec<bool> {
        match verify_batch(items) {
            Ok(()) => vec![true; items.len()],
            Err(bad) => {
                let mut v = vec![true; items.len()];
                for i in bad {
                    v[i] = false;
                }
                v
            }
        }
    }

    /// A valid signature whose nonce, and so `s`, is full width: honest
    /// signers draw 512-bit nonces, so only a crafted signature reaches
    /// the generator comb's full-width part.
    fn full_width_signature(sk: &SigningKey, msg: &[u8], k: &BigUint) -> Signature {
        let group = sk.group();
        let r = group.pow_g(k);
        let e = schnorr::challenge(group, &r, sk.verifying_key().element(), msg);
        let s = group.scalar_add(k, &group.scalar_mul(sk.secret_scalar(), &e));
        Signature::from_parts(r, s)
    }

    #[test]
    fn full_width_responses_and_sums_past_the_short_combs_keep_the_reference_verdict() {
        let group = SchnorrGroup::rfc3526_2048();
        let sks = keys(&group, 4);
        let q = group.q();
        let msgs: Vec<Vec<u8>> = (0..8u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut sigs: Vec<Signature> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| match i % 2 {
                0 => sks[i % 4].sign(m),
                _ => full_width_signature(
                    &sks[i % 4],
                    m,
                    &q.shr(1).add(&BigUint::from_u64(i as u64)),
                ),
            })
            .collect();
        assert!(sigs[1].s().bit_len() > 2_000, "a full-width s");
        // A full-width s one too high.
        sigs[3] =
            Signature::from_parts(sigs[3].r().clone(), sigs[3].s().add(&BigUint::one()).rem(q));
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (&m[..], &sigs[i], sks[i % 4].verifying_key()))
            .collect();
        let want = sequential_verdicts(&items);
        assert_eq!(want, [true, true, true, false, true, true, true, true]);
        // Singles, cold and then on trained key combs.
        for _ in 0..crate::schnorr::KEY_TABLE_THRESHOLD + 1 {
            let singles: Vec<bool> = items.iter().map(|(m, s, vk)| vk.verify(m, s)).collect();
            assert_eq!(singles, want);
        }
        // Batches whose RLC sum is past the 840-bit part, and one of short
        // responses only, whose sum is not.
        assert_eq!(batch_verdicts(&items), want);
        assert_eq!(batch_verdicts(&items[..3]), want[..3]);
        let short: Vec<_> = items.iter().step_by(2).copied().collect();
        assert_eq!(verify_batch(&short), Ok(()));
    }

    #[test]
    fn all_valid_batch_accepts_across_groups() {
        for group in [SchnorrGroup::test_256(), SchnorrGroup::test_512()] {
            let sks = keys(&group, 3);
            let msgs: Vec<Vec<u8>> = (0..8u32).map(|i| i.to_be_bytes().to_vec()).collect();
            let sigs: Vec<Signature> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| sks[i % 3].sign(m))
                .collect();
            let items: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| (&m[..], &sigs[i], sks[i % 3].verifying_key()))
                .collect();
            assert_eq!(verify_batch(&items), Ok(()), "{}", group.name());
        }
    }

    #[test]
    fn bisection_names_exactly_the_forged_indices() {
        let group = SchnorrGroup::test_256();
        let sks = keys(&group, 2);
        let msgs: Vec<Vec<u8>> = (0..9u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut sigs: Vec<Signature> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| sks[i % 2].sign(m))
            .collect();
        // Forge items 2 and 7: swap in signatures over a different message.
        sigs[2] = sks[0].sign(b"not message 2");
        sigs[7] = sks[1].sign(b"not message 7");
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (&m[..], &sigs[i], sks[i % 2].verifying_key()))
            .collect();
        assert_eq!(verify_batch(&items), Err(vec![2, 7]));
        assert_eq!(batch_verdicts(&items), sequential_verdicts(&items));
    }

    #[test]
    fn degenerate_signatures_rejected_without_poisoning_batch() {
        let group = SchnorrGroup::test_256();
        let sks = keys(&group, 1);
        let good = sks[0].sign(b"good");
        // r outside the subgroup; s out of range.
        let bad_r = Signature::from_parts(group.p().sub(&BigUint::one()), good.s().clone());
        let bad_s = Signature::from_parts(good.r().clone(), group.q().clone());
        let vk = sks[0].verifying_key();
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = vec![
            (b"good", &good, vk),
            (b"good", &bad_r, vk),
            (b"good", &bad_s, vk),
        ];
        assert_eq!(verify_batch(&items), Err(vec![1, 2]));
    }

    #[test]
    fn mixed_group_batches_partition_correctly() {
        let g256 = SchnorrGroup::test_256();
        let g512 = SchnorrGroup::test_512();
        let sk256 = SigningKey::from_seed(&g256, b"mixed-256");
        let sk512 = SigningKey::from_seed(&g512, b"mixed-512");
        let s1 = sk256.sign(b"m1");
        let s2 = sk512.sign(b"m2");
        let forged = sk512.sign(b"elsewhere");
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = vec![
            (b"m1", &s1, sk256.verifying_key()),
            (b"m2", &s2, sk512.verifying_key()),
            (b"m3", &forged, sk512.verifying_key()),
        ];
        assert_eq!(verify_batch(&items), Err(vec![2]));
    }

    #[test]
    fn empty_and_singleton_batches() {
        assert_eq!(verify_batch(&[]), Ok(()));
        let group = SchnorrGroup::test_256();
        let sk = SigningKey::from_seed(&group, b"solo");
        let sig = sk.sign(b"m");
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> = vec![(b"m", &sig, sk.verifying_key())];
        assert_eq!(verify_batch(&items), Ok(()));
        let items: Vec<(&[u8], &Signature, &VerifyingKey)> =
            vec![(b"other", &sig, sk.verifying_key())];
        assert_eq!(verify_batch(&items), Err(vec![0]));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The anchor property: batch verdicts equal the textbook
        /// `pow_mod_reference` oracle item-for-item, for every mix of valid,
        /// forged, and cross-key signatures.
        #[test]
        fn batch_matches_sequential_oracle(
            n in 2usize..10,
            forged_mask in proptest::collection::vec(proptest::any::<bool>(), 10),
        ) {
            let group = SchnorrGroup::test_256();
            let sks = keys(&group, 3);
            let msgs: Vec<Vec<u8>> = (0..n as u32).map(|i| i.to_be_bytes().to_vec()).collect();
            let sigs: Vec<Signature> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if forged_mask[i] {
                        // Signature by the right key over the wrong message.
                        sks[i % 3].sign(b"forged")
                    } else {
                        sks[i % 3].sign(m)
                    }
                })
                .collect();
            let items: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| (&m[..], &sigs[i], sks[i % 3].verifying_key()))
                .collect();
            proptest::prop_assert_eq!(batch_verdicts(&items), sequential_verdicts(&items));
        }

        /// A batch with exactly one forged signature: the bisection must
        /// name it, wherever it sits.
        #[test]
        fn single_forgery_bisection_names_it(n in 2usize..12, pos_seed in 0usize..12) {
            let group = SchnorrGroup::test_256();
            let sks = keys(&group, 2);
            let pos = pos_seed % n;
            let msgs: Vec<Vec<u8>> = (0..n as u32).map(|i| i.to_be_bytes().to_vec()).collect();
            let sigs: Vec<Signature> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if i == pos {
                        sks[i % 2].sign(b"the forgery")
                    } else {
                        sks[i % 2].sign(m)
                    }
                })
                .collect();
            let items: Vec<(&[u8], &Signature, &VerifyingKey)> = msgs
                .iter()
                .enumerate()
                .map(|(i, m)| (&m[..], &sigs[i], sks[i % 2].verifying_key()))
                .collect();
            proptest::prop_assert_eq!(verify_batch(&items), Err(vec![pos]));
        }
    }
}
