//! PoS-VRF leader election (§3.4.3).
//!
//! Each round `r`, governor `g_j` with `y_j` stake units computes
//! `⟨hash_{j,u}, π_{j,u}⟩ ← VRF_{g_j}(r, j, u)` for every stake unit `u`,
//! broadcasts the evaluations, and the owner of the globally least hash
//! leads the round. Because the VRF output is pseudorandom, the winning
//! probability of each governor is proportional to its stake.

use std::fmt;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, VrfEvaluation, VrfOutput};

use crate::verify_pool::VerifyPool;

/// The VRF input for `(round, governor, unit)` — the paper's
/// `VRF_{g_j}(r, j, u)` with a chain tag for domain separation between
/// deployments.
pub fn election_message(chain_tag: &[u8], round: u64, governor: u32, unit: u64) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update_field(b"prb-election");
    h.update_field(chain_tag);
    h.update(&round.to_be_bytes());
    h.update(&governor.to_be_bytes());
    h.update(&unit.to_be_bytes());
    h.finalize().to_bytes().to_vec()
}

/// One governor's election claim for a round: its best (least) VRF output
/// over its stake units, with the proof for that unit.
#[derive(Clone, Debug, PartialEq)]
pub struct ElectionClaim {
    /// Claiming governor.
    pub governor: u32,
    /// The stake unit achieving the least hash.
    pub unit: u64,
    /// The VRF evaluation for that unit.
    pub evaluation: VrfEvaluation,
}

impl ElectionClaim {
    /// Computes a governor's claim: takes the VRF output of every stake
    /// unit, keeps the minimum (the first unit on a tie) and builds the
    /// proof for that unit alone — the proofs of the losing units would
    /// never leave the node.
    ///
    /// Returns `None` for zero stake (no units, no claim).
    pub fn compute(
        chain_tag: &[u8],
        round: u64,
        governor: u32,
        stake: u64,
        key: &KeyPair,
    ) -> Option<Self> {
        let outputs = (0..stake).map(|unit| {
            let msg = election_message(chain_tag, round, governor, unit);
            (unit, key.vrf_output(&msg))
        });
        least_output(outputs).map(|(unit, winner)| ElectionClaim {
            governor,
            unit,
            evaluation: winner.prove(),
        })
    }

    /// Verifies the claim's proof; returns the authenticated output.
    ///
    /// The verifier must separately ensure `unit < stake(governor)` — a
    /// governor could otherwise mint extra lottery tickets.
    pub fn verify(&self, chain_tag: &[u8], round: u64, pk: &PublicKey) -> Option<Digest> {
        let msg = election_message(chain_tag, round, self.governor, self.unit);
        pk.vrf_verify(&msg, &self.evaluation)
    }
}

/// The stake unit a governor publishes: the least output, and the lower
/// unit if two outputs are equal (`min_by_key` keeps the first minimum).
fn least_output<'k>(
    outputs: impl Iterator<Item = (u64, VrfOutput<'k>)>,
) -> Option<(u64, VrfOutput<'k>)> {
    outputs.min_by_key(|(_, candidate)| candidate.output())
}

/// Result of an election round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectionResult {
    /// The winning governor.
    pub leader: u32,
    /// The winning (least) VRF output.
    pub winning_hash: Digest,
}

/// Why a claim was rejected during tallying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimRejection {
    /// Proof failed to verify.
    BadProof,
    /// The claimed unit is at or beyond the governor's stake.
    UnitOutOfRange,
    /// The claiming governor index is unknown.
    UnknownGovernor,
    /// The claiming governor was expelled from the committee on
    /// equivocation evidence; its claims are ignored regardless of any
    /// residual stake.
    Expelled,
}

impl fmt::Display for ClaimRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClaimRejection::BadProof => "vrf proof invalid",
            ClaimRejection::UnitOutOfRange => "claimed stake unit out of range",
            ClaimRejection::UnknownGovernor => "unknown governor",
            ClaimRejection::Expelled => "governor expelled from committee",
        })
    }
}

/// Tallies verified claims and elects the least hash.
///
/// `stakes[g]` and `pks[g]` give each governor's stake and public key.
/// Invalid claims are skipped and reported; ties on the hash (which are
/// cryptographically negligible but possible in tests) break toward the
/// smaller governor index so every honest tallier agrees.
///
/// Returns `(result, rejections)`; `result` is `None` when no claim
/// survived.
pub fn elect(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
) -> (Option<ElectionResult>, Vec<(u32, ClaimRejection)>) {
    elect_with_pool(
        chain_tag,
        round,
        claims,
        stakes,
        pks,
        &VerifyPool::single_threaded(),
    )
}

/// [`elect`] with the claims' VRF proofs verified as one batch through a
/// [`VerifyPool`] — a round's `m` claim verifications share one randomized
/// linear combination (and, for large `m`, multiple worker threads) instead
/// of `m` independent exponentiation chains.
///
/// The result and the rejection list are identical to [`elect`]'s, entry
/// for entry, regardless of the pool's thread count.
pub fn elect_with_pool(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    pool: &VerifyPool,
) -> (Option<ElectionResult>, Vec<(u32, ClaimRejection)>) {
    elect_excluding(chain_tag, round, claims, stakes, pks, &[], pool)
}

/// [`elect_with_pool`] restricted to the *active* committee: claims from
/// governors listed in `expelled` are rejected with
/// [`ClaimRejection::Expelled`] before any proof work. Expulsion already
/// slashes the culprit's stake to zero (so its claims would fail
/// structurally anyway), but the explicit exclusion makes the tally's
/// reasoning auditable and keeps working even if the culprit somehow
/// regains stake through an in-flight transfer.
pub fn elect_excluding(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    expelled: &[u32],
    pool: &VerifyPool,
) -> (Option<ElectionResult>, Vec<(u32, ClaimRejection)>) {
    let verdicts = verify_claims(chain_tag, round, claims, stakes, pks, expelled, pool);
    tally(claims, &verdicts)
}

/// The verification half of [`elect_excluding`]: per claim, in order, the
/// authenticated VRF output or the reason the claim is rejected. A caller
/// that will meet the same claims again in the same round (the governor,
/// when the winner's claim comes back attached to its block) keeps the
/// outputs instead of verifying twice.
pub fn verify_claims(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    expelled: &[u32],
    pool: &VerifyPool,
) -> Vec<Result<Digest, ClaimRejection>> {
    // Pass 1: structural checks, recording which claims reach the proof
    // stage and the VRF message each one must verify against. Such a claim
    // stays `BadProof` until pass 2 authenticates its output.
    let mut verdicts = vec![Err(ClaimRejection::BadProof); claims.len()];
    let mut live = Vec::new();
    let mut msgs = Vec::new();
    for (i, claim) in claims.iter().enumerate() {
        let g = claim.governor as usize;
        if expelled.contains(&claim.governor) {
            verdicts[i] = Err(ClaimRejection::Expelled);
            continue;
        }
        if g >= stakes.len() || g >= pks.len() {
            verdicts[i] = Err(ClaimRejection::UnknownGovernor);
            continue;
        }
        if claim.unit >= stakes[g] {
            verdicts[i] = Err(ClaimRejection::UnitOutOfRange);
            continue;
        }
        live.push(i);
        msgs.push(election_message(
            chain_tag,
            round,
            claim.governor,
            claim.unit,
        ));
    }
    // Pass 2: one pooled batch over every surviving proof.
    let items: Vec<(&[u8], &VrfEvaluation, &PublicKey)> = live
        .iter()
        .zip(&msgs)
        .map(|(&i, msg)| {
            (
                &msg[..],
                &claims[i].evaluation,
                &pks[claims[i].governor as usize],
            )
        })
        .collect();
    for (&i, output) in live.iter().zip(pool.vrf_verify(&items)) {
        if let Some(output) = output {
            verdicts[i] = Ok(output);
        }
    }
    verdicts
}

/// The tallying half of [`elect_excluding`]: the least verified output
/// wins (ties toward the smaller governor index); rejections are listed in
/// claim order.
pub fn tally(
    claims: &[ElectionClaim],
    verdicts: &[Result<Digest, ClaimRejection>],
) -> (Option<ElectionResult>, Vec<(u32, ClaimRejection)>) {
    let mut rejections = Vec::new();
    let mut best: Option<(Digest, u32)> = None;
    for (claim, verdict) in claims.iter().zip(verdicts) {
        match *verdict {
            Err(why) => rejections.push((claim.governor, why)),
            Ok(output) => {
                let key = (output, claim.governor);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
    }
    (
        best.map(|(winning_hash, leader)| ElectionResult {
            leader,
            winning_hash,
        }),
        rejections,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;

    const TAG: &[u8] = b"election-test";

    fn keys(m: u32) -> Vec<KeyPair> {
        (0..m)
            .map(|i| CryptoScheme::sim().keypair_from_seed(format!("g{i}").as_bytes()))
            .collect()
    }

    fn run_round(round: u64, stakes: &[u64], keys: &[KeyPair]) -> Option<ElectionResult> {
        let claims: Vec<ElectionClaim> = keys
            .iter()
            .enumerate()
            .filter_map(|(g, k)| ElectionClaim::compute(TAG, round, g as u32, stakes[g], k))
            .collect();
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let (result, rejections) = elect(TAG, round, &claims, stakes, &pks);
        assert!(rejections.is_empty(), "{rejections:?}");
        result
    }

    /// `ElectionClaim::compute` as it was before proofs became lazy: a
    /// full evaluation, proof included, for every stake unit.
    fn compute_proving_every_unit(
        round: u64,
        governor: u32,
        stake: u64,
        key: &KeyPair,
    ) -> Option<ElectionClaim> {
        let mut best: Option<(Digest, u64, VrfEvaluation)> = None;
        for unit in 0..stake {
            let msg = election_message(TAG, round, governor, unit);
            let eval = key.vrf_evaluate(&msg);
            let out = eval.output();
            if best.as_ref().is_none_or(|(b, _, _)| out < *b) {
                best = Some((out, unit, eval));
            }
        }
        best.map(|(_, unit, evaluation)| ElectionClaim {
            governor,
            unit,
            evaluation,
        })
    }

    #[test]
    fn lazily_proved_claim_equals_the_claim_that_proved_every_unit() {
        for (scheme, rounds) in [
            (CryptoScheme::sim(), 50),
            (CryptoScheme::schnorr_test_256(), 50),
            (CryptoScheme::schnorr_2048(), 5),
        ] {
            let key = scheme.keypair_from_seed(b"lazy");
            let mut units_won = std::collections::BTreeSet::new();
            for round in 0..rounds {
                for stake in [1, 4, 7] {
                    let lazy = ElectionClaim::compute(TAG, round, 2, stake, &key);
                    let eager = compute_proving_every_unit(round, 2, stake, &key);
                    assert_eq!(lazy, eager, "{} round {round} stake {stake}", scheme.name());
                    units_won.insert(lazy.unwrap().unit);
                }
            }
            // Not vacuous: later units do win.
            assert!(units_won.len() > 1, "{}", scheme.name());
            assert_eq!(ElectionClaim::compute(TAG, 0, 2, 0, &key), None);
        }
    }

    #[test]
    fn equal_outputs_keep_the_lower_unit() {
        let digest = |b: u8| prb_crypto::sha256::sha256(&[b]);
        let (low, high) = {
            let (a, b) = (digest(1), digest(2));
            (a.min(b), a.max(b))
        };
        let outputs = [(0, high), (1, low), (2, low), (3, high)];
        let (unit, winner) = least_output(outputs.iter().map(|&(u, d)| (u, VrfOutput::Sim(d))))
            .expect("four candidates");
        assert_eq!((unit, winner.output()), (1, low));
        assert!(least_output(std::iter::empty()).is_none());
    }

    #[test]
    fn all_governors_agree_and_result_is_deterministic() {
        let keys = keys(4);
        let stakes = [3, 1, 2, 5];
        let a = run_round(7, &stakes, &keys);
        let b = run_round(7, &stakes, &keys);
        assert_eq!(a, b);
        assert!(a.is_some());
    }

    #[test]
    fn different_rounds_rotate_leaders() {
        let keys = keys(4);
        let stakes = [1, 1, 1, 1];
        let leaders: Vec<u32> = (0..32)
            .map(|r| run_round(r, &stakes, &keys).unwrap().leader)
            .collect();
        let mut distinct = leaders.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() >= 3, "leaders {leaders:?} too concentrated");
    }

    #[test]
    fn zero_stake_governor_never_claims_or_wins() {
        let keys = keys(3);
        let stakes = [0, 1, 1];
        for r in 0..50 {
            let result = run_round(r, &stakes, &keys).unwrap();
            assert_ne!(result.leader, 0);
        }
        assert!(ElectionClaim::compute(TAG, 0, 0, 0, &keys[0]).is_none());
    }

    #[test]
    fn stake_proportionality_statistical() {
        // Governor 0 holds 3/4 of the stake; over many rounds it should win
        // roughly 75% of elections.
        let keys = keys(2);
        let stakes = [30, 10];
        let rounds = 600;
        let wins0 = (0..rounds)
            .filter(|&r| run_round(r, &stakes, &keys).unwrap().leader == 0)
            .count();
        let rate = wins0 as f64 / rounds as f64;
        assert!((0.67..0.83).contains(&rate), "win rate {rate}");
    }

    #[test]
    fn forged_claim_rejected() {
        let keys = keys(2);
        let stakes = [2, 2];
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        // Governor 1 presents a claim computed with governor 0's key.
        let mut claim = ElectionClaim::compute(TAG, 3, 0, 2, &keys[0]).unwrap();
        claim.governor = 1;
        let (result, rejections) = elect(TAG, 3, std::slice::from_ref(&claim), &stakes, &pks);
        assert_eq!(result, None);
        assert_eq!(rejections, vec![(1, ClaimRejection::BadProof)]);
    }

    #[test]
    fn overclaimed_units_rejected() {
        let keys = keys(2);
        let stakes = [1, 1];
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        // Governor 0 evaluates unit 5 it does not own.
        let msg = election_message(TAG, 1, 0, 5);
        let claim = ElectionClaim {
            governor: 0,
            unit: 5,
            evaluation: keys[0].vrf_evaluate(&msg),
        };
        let (_, rejections) = elect(TAG, 1, &[claim], &stakes, &pks);
        assert_eq!(rejections, vec![(0, ClaimRejection::UnitOutOfRange)]);
    }

    #[test]
    fn unknown_governor_rejected() {
        let keys = keys(1);
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let claim = ElectionClaim::compute(TAG, 1, 7, 1, &keys[0]).unwrap();
        let (_, rejections) = elect(TAG, 1, &[claim], &[1], &pks);
        assert_eq!(rejections, vec![(7, ClaimRejection::UnknownGovernor)]);
    }

    #[test]
    fn expelled_governor_cannot_win_even_with_stake() {
        let keys = keys(3);
        let stakes = [5, 1, 1];
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let claims: Vec<ElectionClaim> = keys
            .iter()
            .enumerate()
            .filter_map(|(g, k)| ElectionClaim::compute(TAG, 2, g as u32, stakes[g], k))
            .collect();
        let pool = VerifyPool::single_threaded();
        let (full, _) = elect_excluding(TAG, 2, &claims, &stakes, &pks, &[], &pool);
        let (result, rejections) = elect_excluding(TAG, 2, &claims, &stakes, &pks, &[0], &pool);
        assert_eq!(rejections, vec![(0, ClaimRejection::Expelled)]);
        let result = result.unwrap();
        assert_ne!(result.leader, 0, "expelled claims never tally");
        // Exclusion only removes governor 0's claim from the race.
        let (without, _) = elect(TAG, 2, &claims[1..], &stakes, &pks);
        assert_eq!(Some(result), without);
        assert!(full.is_some());
        assert!(ClaimRejection::Expelled.to_string().contains("expelled"));
    }

    #[test]
    fn claim_verification_binds_round_and_tag() {
        let keys = keys(1);
        let pk = keys[0].public_key();
        let claim = ElectionClaim::compute(TAG, 5, 0, 1, &keys[0]).unwrap();
        assert!(claim.verify(TAG, 5, &pk).is_some());
        assert!(claim.verify(TAG, 6, &pk).is_none());
        assert!(claim.verify(b"other-chain", 5, &pk).is_none());
    }

    #[test]
    fn pooled_election_matches_sequential_including_rejections() {
        let scheme = CryptoScheme::schnorr_test_256();
        let keys: Vec<KeyPair> = (0..4)
            .map(|i| scheme.keypair_from_seed(format!("p{i}").as_bytes()))
            .collect();
        let stakes = [2, 2, 2, 2];
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let mut claims: Vec<ElectionClaim> = keys
            .iter()
            .enumerate()
            .filter_map(|(g, k)| ElectionClaim::compute(TAG, 9, g as u32, stakes[g], k))
            .collect();
        // Mix every rejection flavour into the batch.
        claims[1].governor = 2; // proof no longer matches the message -> BadProof
        claims.push(ElectionClaim {
            governor: 3,
            unit: 99,
            evaluation: keys[3].vrf_evaluate(b"whatever"),
        }); // UnitOutOfRange
        let mut unknown = claims[0].clone();
        unknown.governor = 42;
        claims.push(unknown); // UnknownGovernor
        let sequential = elect(TAG, 9, &claims, &stakes, &pks);
        for threads in [1, 2, 4] {
            let pooled = elect_with_pool(
                TAG,
                9,
                &claims,
                &stakes,
                &pks,
                &crate::verify_pool::VerifyPool::new(threads),
            );
            assert_eq!(pooled, sequential, "threads={threads}");
        }
        let (result, rejections) = sequential;
        assert!(result.is_some());
        assert_eq!(rejections.len(), 3);
        assert!(rejections.contains(&(2, ClaimRejection::BadProof)));
        assert!(rejections.contains(&(3, ClaimRejection::UnitOutOfRange)));
        assert!(rejections.contains(&(42, ClaimRejection::UnknownGovernor)));
    }

    #[test]
    fn works_with_real_schnorr_vrf() {
        let scheme = CryptoScheme::schnorr_test_256();
        let keys: Vec<KeyPair> = (0..2)
            .map(|i| scheme.keypair_from_seed(format!("s{i}").as_bytes()))
            .collect();
        let stakes = [2, 2];
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let claims: Vec<ElectionClaim> = keys
            .iter()
            .enumerate()
            .filter_map(|(g, k)| ElectionClaim::compute(TAG, 0, g as u32, stakes[g], k))
            .collect();
        let (result, rejections) = elect(TAG, 0, &claims, &stakes, &pks);
        assert!(rejections.is_empty());
        assert!(result.is_some());
    }
}
