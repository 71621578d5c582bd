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

/// What one tallier makes of a round's claims.
#[derive(Clone, Debug, PartialEq)]
pub struct Tally {
    /// The least valid claim — its index in the claim list and its
    /// authenticated output — if any claim is valid.
    pub winner: Option<(usize, Digest)>,
    /// `(governor, why)` in claim order for every claim that fails a
    /// structural check, and for every claim whose proof was checked and
    /// failed. Claims ranked above the winner are never checked, so a bad
    /// proof among them goes unreported: it could not have changed the
    /// outcome.
    pub rejections: Vec<(u32, ClaimRejection)>,
}

impl Tally {
    /// The winner as an [`ElectionResult`]; `claims` must be the list the
    /// tally was taken over.
    pub fn result(&self, claims: &[ElectionClaim]) -> Option<ElectionResult> {
        self.winner.map(|(i, winning_hash)| ElectionResult {
            leader: claims[i].governor,
            winning_hash,
        })
    }
}

/// Elects the least valid hash among `claims`.
///
/// `stakes[g]` and `pks[g]` give each governor's stake and public key.
/// Ties on the hash (cryptographically negligible but possible in tests)
/// break toward the smaller governor index so every honest tallier agrees.
///
/// Returns `(result, rejections)` as [`elect_excluding`] reports them;
/// `result` is `None` when no claim is valid.
pub fn elect(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
) -> (Option<ElectionResult>, Vec<(u32, ClaimRejection)>) {
    let tally = elect_excluding(chain_tag, round, claims, stakes, pks, &[], None);
    (tally.result(claims), tally.rejections)
}

/// [`elect`] restricted to the *active* committee, authenticating only the
/// winner.
///
/// Claims from governors listed in `expelled` are rejected with
/// [`ClaimRejection::Expelled`] before any proof work. Expulsion already
/// slashes the culprit's stake to zero (so its claims would fail
/// structurally anyway), but the explicit exclusion makes the tally's
/// reasoning auditable and keeps working even if the culprit somehow
/// regains stake through an in-flight transfer.
///
/// Only the least *valid* claim can change the outcome, so the claims that
/// pass the structural checks are taken in `(claimed output, governor)`
/// order and their proofs checked one at a time until one holds. `own` —
/// the tallier's own claim, which it computed itself — is accepted without
/// a proof check when a claim equals it in every field. The claimed output
/// is unauthenticated, so a forged low claim costs one proof check and then
/// loses: the work is one check per forged claim below the winner, plus
/// one. The winner is the one a tally that verified every claim would
/// elect.
pub fn elect_excluding(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    expelled: &[u32],
    own: Option<&ElectionClaim>,
) -> Tally {
    tally_by(claims, stakes, pks, expelled, own, |claim, pk| {
        claim.verify(chain_tag, round, pk)
    })
}

/// [`elect_excluding`] with the proof check supplied by the caller.
fn tally_by(
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    expelled: &[u32],
    own: Option<&ElectionClaim>,
    mut verify: impl FnMut(&ElectionClaim, &PublicKey) -> Option<Digest>,
) -> Tally {
    let mut rejections = Vec::new();
    let mut ranked = Vec::with_capacity(claims.len());
    for (i, claim) in claims.iter().enumerate() {
        let g = claim.governor as usize;
        if expelled.contains(&claim.governor) {
            rejections.push((i, ClaimRejection::Expelled));
        } else if g >= stakes.len() || g >= pks.len() {
            rejections.push((i, ClaimRejection::UnknownGovernor));
        } else if claim.unit >= stakes[g] {
            rejections.push((i, ClaimRejection::UnitOutOfRange));
        } else {
            ranked.push((claim.evaluation.output(), claim.governor, i));
        }
    }
    ranked.sort_unstable();
    let winner = ranked.into_iter().find_map(|(claimed, g, i)| {
        let claim = &claims[i];
        let output = if own == Some(claim) {
            Some(claimed)
        } else {
            verify(claim, &pks[g as usize])
        };
        if output.is_none() {
            rejections.push((i, ClaimRejection::BadProof));
        }
        Some(i).zip(output)
    });
    rejections.sort_unstable_by_key(|&(i, _)| i);
    Tally {
        winner,
        rejections: rejections
            .into_iter()
            .map(|(i, why)| (claims[i].governor, why))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        let full = elect_excluding(TAG, 2, &claims, &stakes, &pks, &[], None);
        let tally = elect_excluding(TAG, 2, &claims, &stakes, &pks, &[0], None);
        assert_eq!(tally.rejections, vec![(0, ClaimRejection::Expelled)]);
        let result = tally.result(&claims).unwrap();
        assert_ne!(result.leader, 0, "expelled claims never tally");
        // Exclusion only removes governor 0's claim from the race.
        let (without, _) = elect(TAG, 2, &claims[1..], &stakes, &pks);
        assert_eq!(Some(result), without);
        assert!(full.winner.is_some());
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

    /// The tally as it was before it stopped at the winner: every claim
    /// that passes the structural checks has its proof verified. Returns
    /// the per-claim verdicts and the least `(output, governor, index)` of
    /// a valid claim.
    #[allow(clippy::type_complexity)]
    fn verify_everything(
        round: u64,
        claims: &[ElectionClaim],
        stakes: &[u64],
        pks: &[PublicKey],
        expelled: &[u32],
    ) -> (
        Vec<Result<Digest, ClaimRejection>>,
        Option<(Digest, u32, usize)>,
    ) {
        let verdicts: Vec<_> = claims
            .iter()
            .map(|claim| {
                let g = claim.governor as usize;
                if expelled.contains(&claim.governor) {
                    Err(ClaimRejection::Expelled)
                } else if g >= stakes.len() || g >= pks.len() {
                    Err(ClaimRejection::UnknownGovernor)
                } else if claim.unit >= stakes[g] {
                    Err(ClaimRejection::UnitOutOfRange)
                } else {
                    claim
                        .verify(TAG, round, &pks[g])
                        .ok_or(ClaimRejection::BadProof)
                }
            })
            .collect();
        let best = verdicts
            .iter()
            .zip(claims)
            .enumerate()
            .filter_map(|(i, (v, c))| v.as_ref().ok().map(|&out| (out, c.governor, i)))
            .min();
        (verdicts, best)
    }

    /// What the winner-only tally must return, read off the oracle: the
    /// oracle's winner, its structural rejections, and a bad proof only
    /// where the claim ranks below the winner (every bad proof when no
    /// claim is valid).
    fn expected_tally(
        round: u64,
        claims: &[ElectionClaim],
        stakes: &[u64],
        pks: &[PublicKey],
        expelled: &[u32],
    ) -> Tally {
        let (verdicts, best) = verify_everything(round, claims, stakes, pks, expelled);
        let rejections = verdicts
            .iter()
            .zip(claims)
            .enumerate()
            .filter_map(|(i, (v, c))| match *v {
                Ok(_) => None,
                Err(ClaimRejection::BadProof)
                    if best.is_some_and(|b| (c.evaluation.output(), c.governor, i) > b) =>
                {
                    None
                }
                Err(why) => Some((c.governor, why)),
            })
            .collect();
        Tally {
            winner: best.map(|(out, _, i)| (i, out)),
            rejections,
        }
    }

    /// Claims in every shape the tally meets, drawn per governor: valid,
    /// forged under another governor's key, proved for another round, a
    /// unit past the stake, an unknown governor, a valid claim twice (equal
    /// outputs, same governor), and one restated under another governor
    /// (equal outputs, bad proof).
    fn mixed_claims(
        rng: &mut StdRng,
        round: u64,
        keys: &[KeyPair],
        stakes: &[u64],
    ) -> Vec<ElectionClaim> {
        let m = keys.len() as u32;
        let mut claims = Vec::new();
        for g in 0..m {
            let valid = |round| {
                ElectionClaim::compute(TAG, round, g, stakes[g as usize], &keys[g as usize])
                    .unwrap()
            };
            match rng.gen_range(0..7u32) {
                0 | 1 => claims.push(valid(round)),
                2 => {
                    let thief = &keys[((g + 1) % m) as usize];
                    claims.push(
                        ElectionClaim::compute(TAG, round, g, stakes[g as usize], thief).unwrap(),
                    );
                }
                3 => claims.push(valid(round + 1)),
                4 => claims.push(ElectionClaim {
                    unit: stakes[g as usize],
                    ..valid(round)
                }),
                5 => claims.push(ElectionClaim {
                    governor: m + 3,
                    ..valid(round)
                }),
                _ => {
                    let claim = valid(round);
                    claims.push(ElectionClaim {
                        governor: (g + 1) % m,
                        ..claim.clone()
                    });
                    claims.push(claim.clone());
                    claims.push(claim);
                }
            }
        }
        claims
    }

    #[test]
    fn winner_only_tally_matches_the_verify_everything_oracle() {
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let keys: Vec<KeyPair> = (0..4)
                .map(|i| scheme.keypair_from_seed(format!("d{i}").as_bytes()))
                .collect();
            let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
            let mut rng = StdRng::seed_from_u64(31);
            let (mut decided, mut forged_below) = (0, 0);
            let trials = if scheme == CryptoScheme::sim() {
                400
            } else {
                60
            };
            for round in 0..trials {
                let stakes: Vec<u64> = (0..4).map(|_| rng.gen_range(1..4u64)).collect();
                let claims = mixed_claims(&mut rng, round, &keys, &stakes);
                let expelled: Vec<u32> = (0..4).filter(|_| rng.gen_bool(0.15)).collect();
                // The tallier's own claim, when governor 0 made a valid one.
                let mine = ElectionClaim::compute(TAG, round, 0, stakes[0], &keys[0]);
                let own = mine.as_ref().filter(|_| rng.gen_bool(0.5));
                let tally = elect_excluding(TAG, round, &claims, &stakes, &pks, &expelled, own);
                let expected = expected_tally(round, &claims, &stakes, &pks, &expelled);
                assert_eq!(tally, expected, "{} round {round}", scheme.name());
                decided += usize::from(tally.winner.is_some());
                forged_below += tally
                    .rejections
                    .iter()
                    .filter(|(_, why)| *why == ClaimRejection::BadProof)
                    .count();
            }
            // Not vacuous: most rounds elect someone, and forged claims
            // below the winner are met and refused.
            assert!(decided > trials as usize / 2, "{}", scheme.name());
            assert!(forged_below > 0, "{}", scheme.name());
        }
    }

    /// The winner-only tally with the proof checks counted.
    fn counted_tally(
        round: u64,
        claims: &[ElectionClaim],
        stakes: &[u64],
        pks: &[PublicKey],
        own: Option<&ElectionClaim>,
    ) -> (Tally, usize) {
        let mut checks = 0;
        let tally = tally_by(claims, stakes, pks, &[], own, |claim, pk| {
            checks += 1;
            claim.verify(TAG, round, pk)
        });
        (tally, checks)
    }

    #[test]
    fn one_proof_is_checked_when_the_least_claim_is_valid_and_none_when_it_is_ones_own() {
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let keys: Vec<KeyPair> = (0..4)
                .map(|i| scheme.keypair_from_seed(format!("c{i}").as_bytes()))
                .collect();
            let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
            let stakes = [2, 3, 1, 2];
            for round in 0..8 {
                let claims: Vec<ElectionClaim> = keys
                    .iter()
                    .enumerate()
                    .filter_map(|(g, k)| ElectionClaim::compute(TAG, round, g as u32, stakes[g], k))
                    .collect();
                let (tally, checks) = counted_tally(round, &claims, &stakes, &pks, None);
                assert_eq!(checks, 1);
                assert!(tally.rejections.is_empty());
                let (w, _) = tally.winner.unwrap();
                // The winner's own tally checks nothing; anyone else's one.
                for (i, claim) in claims.iter().enumerate() {
                    let (mine, checks) = counted_tally(round, &claims, &stakes, &pks, Some(claim));
                    assert_eq!(mine, tally);
                    assert_eq!(
                        checks,
                        usize::from(i != w),
                        "{} round {round}",
                        scheme.name()
                    );
                }
            }
        }
    }

    #[test]
    fn a_forged_least_claim_is_a_bad_proof_and_the_next_claim_wins() {
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let keys: Vec<KeyPair> = (0..3)
                .map(|i| scheme.keypair_from_seed(format!("f{i}").as_bytes()))
                .collect();
            let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
            let stakes = [2, 2, 2];
            let mut claims: Vec<ElectionClaim> = keys
                .iter()
                .enumerate()
                .filter_map(|(g, k)| ElectionClaim::compute(TAG, 4, g as u32, stakes[g], k))
                .collect();
            // Governor 1 claims the least output there is, unproved.
            let least = Digest::default();
            claims[1].evaluation = match claims[1].evaluation.clone() {
                VrfEvaluation::Sim(_) => VrfEvaluation::Sim(least),
                VrfEvaluation::Schnorr { proof, .. } => VrfEvaluation::Schnorr {
                    output: least,
                    proof,
                },
            };
            let (tally, checks) = counted_tally(4, &claims, &stakes, &pks, None);
            assert_eq!(tally.rejections, vec![(1, ClaimRejection::BadProof)]);
            assert_eq!(checks, 2, "the forgery, then the next claim");
            let winner = tally.result(&claims).unwrap();
            assert_ne!(winner.leader, 1);
            let others: Vec<ElectionClaim> =
                claims.iter().filter(|c| c.governor != 1).cloned().collect();
            assert_eq!(Some(winner), elect(TAG, 4, &others, &stakes, &pks).0);
        }
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
        // Mix every rejection flavour in.
        claims[1].governor = 2; // proof no longer matches the message -> BadProof
        claims.push(ElectionClaim {
            governor: 3,
            unit: 99,
            evaluation: keys[3].vrf_evaluate(b"whatever"),
        }); // UnitOutOfRange
        let mut unknown = claims[0].clone();
        unknown.governor = 42;
        claims.push(unknown); // UnknownGovernor
        let (result, rejections) = elect(TAG, 9, &claims, &stakes, &pks);
        let expected = expected_tally(9, &claims, &stakes, &pks, &[]);
        assert_eq!(result, expected.result(&claims));
        assert_eq!(rejections, expected.rejections);
        assert!(result.is_some());
        assert!(rejections.contains(&(3, ClaimRejection::UnitOutOfRange)));
        assert!(rejections.contains(&(42, ClaimRejection::UnknownGovernor)));
        // The restated claim is checked, and refused, only if it ranks
        // below the winner; above it, its proof is never looked at.
        let below = (claims[1].evaluation.output(), 2)
            < (result.unwrap().winning_hash, result.unwrap().leader);
        assert_eq!(rejections.contains(&(2, ClaimRejection::BadProof)), below);
        assert_eq!(rejections.len(), 2 + usize::from(below));
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
