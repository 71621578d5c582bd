//! PoS-VRF leader election (§3.4.3), with one VRF evaluation per governor
//! per round.
//!
//! Each round `r`, governor `g_j` with `y_j` stake units computes
//! `⟨β_j, π_j⟩ ← VRF_{g_j}(r, j)` once and gives stake unit `u` the ticket
//! `H("prb-unit", β_j, election_message(r, j, u))`. It claims its least
//! ticket, with that unit and the one proof, and the owner of the globally
//! least ticket leads the round. Tickets are uniform under the
//! random-oracle assumption the paper's per-unit rule already needs, so
//! each governor still wins with probability proportional to its stake.
//!
//! This deviates from §3.4.3, which evaluates `VRF_{g_j}(r, j, u)` once per
//! stake unit: the election costs one exponentiation plus `stake` hashes
//! per governor where it cost `stake` exponentiations. `β` is unique (the
//! VRF's `gamma` must be a group member), and a verifier accepts only the
//! claim naming the least-ticket unit, the lower unit on a tie, so each
//! `(round, governor)` has exactly one valid claim.

use std::fmt;

use prb_crypto::sha256::{Digest, Sha256};
use prb_crypto::signer::{KeyPair, PublicKey, VrfEvaluation};

/// The VRF input for `(round, governor)` — `VRF_{g_j}(r, j)` with a chain
/// tag for domain separation between deployments.
pub fn round_message(chain_tag: &[u8], round: u64, governor: u32) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update_field(b"prb-election-round");
    h.update_field(chain_tag);
    h.update(&round.to_be_bytes());
    h.update(&governor.to_be_bytes());
    h.finalize().to_bytes().to_vec()
}

/// Stake unit `unit`'s ticket preimage for `(round, governor)`: what the
/// governor's round output `β` is hashed with to give the unit its ticket.
pub fn election_message(chain_tag: &[u8], round: u64, governor: u32, unit: u64) -> Vec<u8> {
    let mut h = Sha256::new();
    h.update_field(b"prb-election");
    h.update_field(chain_tag);
    h.update(&round.to_be_bytes());
    h.update(&governor.to_be_bytes());
    h.update(&unit.to_be_bytes());
    h.finalize().to_bytes().to_vec()
}

/// Stake unit `unit`'s ticket under the round output `beta`:
/// `H("prb-unit", β, election_message(..))`.
fn ticket(chain_tag: &[u8], round: u64, governor: u32, unit: u64, beta: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update_field(b"prb-unit");
    h.update_field(beta.as_bytes());
    h.update_field(&election_message(chain_tag, round, governor, unit));
    h.finalize()
}

/// The unit holding the least ticket among `0..stake`, with its ticket;
/// `None` for zero stake.
fn least_ticket(
    chain_tag: &[u8],
    round: u64,
    governor: u32,
    stake: u64,
    beta: &Digest,
) -> Option<(u64, Digest)> {
    least((0..stake).map(|unit| (unit, ticket(chain_tag, round, governor, unit, beta))))
}

/// The least `(unit, ticket)` by ticket, the lower unit if two tickets are
/// equal (`min_by_key` keeps the first minimum).
fn least(tickets: impl Iterator<Item = (u64, Digest)>) -> Option<(u64, Digest)> {
    tickets.min_by_key(|&(_, t)| t)
}

/// One governor's election claim for a round: the stake unit holding its
/// least ticket and the proof of the round's VRF output.
#[derive(Clone, Debug, PartialEq)]
pub struct ElectionClaim {
    /// Claiming governor.
    pub governor: u32,
    /// The stake unit holding the least ticket.
    pub unit: u64,
    /// The governor's VRF evaluation for the round, `β` with its proof.
    pub evaluation: VrfEvaluation,
}

impl ElectionClaim {
    /// Computes a governor's claim: one VRF evaluation for the round, the
    /// ticket of every stake unit, and the least (the lower unit on a tie).
    ///
    /// Returns `None` for zero stake (no units, no claim).
    pub fn compute(
        chain_tag: &[u8],
        round: u64,
        governor: u32,
        stake: u64,
        key: &KeyPair,
    ) -> Option<Self> {
        if stake == 0 {
            return None;
        }
        let evaluation = key.vrf_evaluate(&round_message(chain_tag, round, governor));
        let (unit, _) = least_ticket(chain_tag, round, governor, stake, &evaluation.output())?;
        Some(ElectionClaim {
            governor,
            unit,
            evaluation,
        })
    }

    /// The ticket the claim states, from its unauthenticated output: the
    /// tally's ranking key until [`verify`](Self::verify) authenticates it.
    pub fn claimed_ticket(&self, chain_tag: &[u8], round: u64) -> Digest {
        let beta = self.evaluation.output();
        ticket(chain_tag, round, self.governor, self.unit, &beta)
    }

    /// Verifies the claim against a governor holding `stake` units:
    /// checks the proof, recomputes every unit's ticket and accepts only
    /// the claim naming the least-ticket unit. Returns the authenticated
    /// ticket.
    ///
    /// # Errors
    ///
    /// Returns why the claim fails; a claim that errors must not rank.
    pub fn verify(
        &self,
        chain_tag: &[u8],
        round: u64,
        stake: u64,
        pk: &PublicKey,
    ) -> Result<Digest, ClaimRejection> {
        if self.unit >= stake {
            return Err(ClaimRejection::UnitOutOfRange);
        }
        let msg = round_message(chain_tag, round, self.governor);
        let beta = pk
            .vrf_verify(&msg, &self.evaluation)
            .ok_or(ClaimRejection::BadProof)?;
        match least_ticket(chain_tag, round, self.governor, stake, &beta) {
            Some((unit, t)) if unit == self.unit => Ok(t),
            _ => Err(ClaimRejection::NotLeastUnit),
        }
    }
}

/// Result of an election round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElectionResult {
    /// The winning governor.
    pub leader: u32,
    /// The winning (least) ticket.
    pub winning_hash: Digest,
}

/// Why a claim was rejected during tallying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimRejection {
    /// Proof failed to verify.
    BadProof,
    /// The claimed unit does not hold the governor's least ticket: the
    /// claim is not the one valid claim for the round.
    NotLeastUnit,
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
            ClaimRejection::NotLeastUnit => "claimed stake unit does not hold the least ticket",
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
    /// authenticated ticket — if any claim is valid.
    pub winner: Option<(usize, Digest)>,
    /// `(governor, why)` in claim order for every claim that fails a
    /// structural check, and for every claim that was checked and failed.
    /// Claims ranked above the winner are never checked, so a bad proof
    /// among them goes unreported: it could not have changed the outcome.
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

/// Elects the least valid ticket among `claims`.
///
/// `stakes[g]` and `pks[g]` give each governor's stake and public key.
/// Ties on the ticket (cryptographically negligible but possible in tests)
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
/// pass the structural checks are taken in `(claimed ticket, governor)`
/// order and checked one at a time until one holds. `own` — the tallier's
/// own claim, which it computed itself — is accepted without a check when
/// a claim equals it in every field. The claimed ticket is unauthenticated,
/// so a forged low claim costs one check and then loses: the work is one
/// check per forged claim below the winner, plus one. The winner is the
/// one a tally that verified every claim would elect.
pub fn elect_excluding(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    expelled: &[u32],
    own: Option<&ElectionClaim>,
) -> Tally {
    tally_by(
        chain_tag,
        round,
        claims,
        stakes,
        pks,
        expelled,
        own,
        |claim, stake, pk| claim.verify(chain_tag, round, stake, pk),
    )
}

/// [`elect_excluding`] with the claim check supplied by the caller.
#[allow(clippy::too_many_arguments)]
fn tally_by(
    chain_tag: &[u8],
    round: u64,
    claims: &[ElectionClaim],
    stakes: &[u64],
    pks: &[PublicKey],
    expelled: &[u32],
    own: Option<&ElectionClaim>,
    mut check: impl FnMut(&ElectionClaim, u64, &PublicKey) -> Result<Digest, ClaimRejection>,
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
            ranked.push((claim.claimed_ticket(chain_tag, round), claim.governor, i));
        }
    }
    ranked.sort_unstable();
    let winner = ranked.into_iter().find_map(|(claimed, g, i)| {
        let claim = &claims[i];
        if own == Some(claim) {
            return Some((i, claimed));
        }
        match check(claim, stakes[g as usize], &pks[g as usize]) {
            Ok(ticket) => Some((i, ticket)),
            Err(why) => {
                rejections.push((i, why));
                None
            }
        }
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

    fn claims_of(round: u64, stakes: &[u64], keys: &[KeyPair]) -> Vec<ElectionClaim> {
        keys.iter()
            .enumerate()
            .filter_map(|(g, k)| ElectionClaim::compute(TAG, round, g as u32, stakes[g], k))
            .collect()
    }

    fn run_round(round: u64, stakes: &[u64], keys: &[KeyPair]) -> Option<ElectionResult> {
        let claims = claims_of(round, stakes, keys);
        let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
        let (result, rejections) = elect(TAG, round, &claims, stakes, &pks);
        assert!(rejections.is_empty(), "{rejections:?}");
        result
    }

    /// §3.4.3 as written, kept as the oracle of the one-VRF rule: a full
    /// evaluation, proof included, of `VRF_{g_j}(r, j, u)` for every
    /// stake unit, the least output winning. Its claims do not verify
    /// under the one-VRF rule; `per_unit_winner` tallies them.
    fn compute_proving_every_unit(
        round: u64,
        governor: u32,
        stake: u64,
        key: &KeyPair,
    ) -> Option<(Digest, VrfEvaluation)> {
        let mut best: Option<(Digest, VrfEvaluation)> = None;
        for unit in 0..stake {
            let msg = election_message(TAG, round, governor, unit);
            let eval = key.vrf_evaluate(&msg);
            let out = eval.output();
            if best.as_ref().is_none_or(|(b, _)| out < *b) {
                best = Some((out, eval));
            }
        }
        best
    }

    /// The per-unit rule's leader: the least output over every governor's
    /// units, the lower governor on a tie.
    fn per_unit_winner(round: u64, stakes: &[u64], keys: &[KeyPair]) -> u32 {
        (0..keys.len())
            .filter_map(|g| {
                compute_proving_every_unit(round, g as u32, stakes[g], &keys[g])
                    .map(|(out, _)| (out, g as u32))
            })
            .min()
            .expect("some governor holds stake")
            .1
    }

    /// The one-VRF claim built eagerly: the evaluation with its proof
    /// first, then every unit's ticket, the least winning.
    fn compute_eagerly(
        round: u64,
        governor: u32,
        stake: u64,
        key: &KeyPair,
    ) -> Option<ElectionClaim> {
        let evaluation = key.vrf_evaluate(&round_message(TAG, round, governor));
        let beta = evaluation.output();
        let mut best: Option<(Digest, u64)> = None;
        for unit in 0..stake {
            let t = ticket(TAG, round, governor, unit, &beta);
            if best.is_none_or(|(b, _)| t < b) {
                best = Some((t, unit));
            }
        }
        best.map(|(_, unit)| ElectionClaim {
            governor,
            unit,
            evaluation,
        })
    }

    #[test]
    fn claim_equals_the_eagerly_proved_least_ticket_oracle() {
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
                    let eager = compute_eagerly(round, 2, stake, &key);
                    assert_eq!(lazy, eager, "{} round {round} stake {stake}", scheme.name());
                    let claim = lazy.unwrap();
                    assert_eq!(
                        claim.verify(TAG, round, stake, &key.public_key()),
                        Ok(claim.claimed_ticket(TAG, round))
                    );
                    units_won.insert(claim.unit);
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
        let tickets = [(0, high), (1, low), (2, low), (3, high)];
        assert_eq!(least(tickets.into_iter()), Some((1, low)));
        assert!(least(std::iter::empty()).is_none());
    }

    /// Two-sample χ² over the winners of the per-unit rule and of the
    /// one-VRF rule, at uneven stakes on the sim signer: the two rules
    /// draw leaders from the same distribution, and each matches the
    /// stake shares.
    #[test]
    fn one_vrf_and_per_unit_rules_elect_from_the_same_distribution() {
        let keys = keys(5);
        let stakes = [1, 2, 3, 5, 9];
        let rounds = 4000;
        let (mut per_unit, mut one_vrf) = ([0u64; 5], [0u64; 5]);
        for round in 0..rounds {
            per_unit[per_unit_winner(round, &stakes, &keys) as usize] += 1;
            one_vrf[run_round(round, &stakes, &keys).unwrap().leader as usize] += 1;
        }
        // Equal sample sizes: Σ (a − b)² / (a + b), 4 degrees of freedom.
        let two_sample: f64 = per_unit
            .iter()
            .zip(&one_vrf)
            .map(|(&a, &b)| (a as f64 - b as f64).powi(2) / (a + b) as f64)
            .sum();
        // χ²₀.₉₉ at 4 degrees of freedom.
        let critical = 13.28;
        assert!(
            two_sample < critical,
            "χ² {two_sample:.2}: per-unit {per_unit:?}, one-VRF {one_vrf:?}"
        );
        let total: u64 = stakes.iter().sum();
        for wins in [per_unit, one_vrf] {
            let chi2: f64 = wins
                .iter()
                .zip(stakes)
                .map(|(&w, s)| {
                    let expected = (s * rounds) as f64 / total as f64;
                    (w as f64 - expected).powi(2) / expected
                })
                .sum();
            assert!(
                chi2 < critical,
                "χ² {chi2:.2} against stake shares: {wins:?}"
            );
        }
    }

    #[test]
    fn a_claim_naming_any_other_unit_is_rejected() {
        for scheme in [CryptoScheme::sim(), CryptoScheme::schnorr_test_256()] {
            let key = scheme.keypair_from_seed(b"canonical");
            let pk = key.public_key();
            let stake = 6;
            let mut least_above_zero = 0;
            for round in 0..12 {
                let claim = ElectionClaim::compute(TAG, round, 1, stake, &key).unwrap();
                least_above_zero += usize::from(claim.unit > 0);
                for unit in (0..stake).filter(|&u| u != claim.unit) {
                    let other = ElectionClaim {
                        unit,
                        ..claim.clone()
                    };
                    assert_eq!(
                        other.verify(TAG, round, stake, &pk),
                        Err(ClaimRejection::NotLeastUnit),
                        "{} round {round} unit {unit}",
                        scheme.name()
                    );
                    // The tally refuses it too, and names why.
                    let (result, rejections) = elect(
                        TAG,
                        round,
                        std::slice::from_ref(&other),
                        &[0, stake],
                        &[pk.clone(), pk.clone()],
                    );
                    assert_eq!(result, None);
                    assert_eq!(rejections, vec![(1, ClaimRejection::NotLeastUnit)]);
                }
                // Checked against a smaller stake, the least unit may lie
                // past it, or another unit may hold the least ticket.
                if claim.unit > 0 {
                    assert!(claim.verify(TAG, round, claim.unit, &pk).is_err());
                }
            }
            // Not vacuous: the `unit = 0` variant of a higher least unit
            // was met, the one a check over only `0..=unit` would accept.
            assert!(least_above_zero > 0, "{}", scheme.name());
        }
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
        // Governor 0 claims unit 5, which it does not own.
        let claim = ElectionClaim {
            governor: 0,
            unit: 5,
            evaluation: keys[0].vrf_evaluate(&round_message(TAG, 1, 0)),
        };
        assert_eq!(
            claim.verify(TAG, 1, 1, &pks[0]),
            Err(ClaimRejection::UnitOutOfRange)
        );
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
        let claims = claims_of(2, &stakes, &keys);
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
        assert!(ClaimRejection::NotLeastUnit.to_string().contains("least"));
    }

    #[test]
    fn claim_verification_binds_round_and_tag() {
        let keys = keys(1);
        let pk = keys[0].public_key();
        let claim = ElectionClaim::compute(TAG, 5, 0, 1, &keys[0]).unwrap();
        assert!(claim.verify(TAG, 5, 1, &pk).is_ok());
        assert_eq!(claim.verify(TAG, 6, 1, &pk), Err(ClaimRejection::BadProof));
        assert_eq!(
            claim.verify(b"other-chain", 5, 1, &pk),
            Err(ClaimRejection::BadProof)
        );
    }

    /// The tally as it was before it stopped at the winner: every claim
    /// that passes the structural checks is checked. Returns the per-claim
    /// verdicts and the least `(ticket, governor, index)` of a valid claim.
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
                } else {
                    claim.verify(TAG, round, stakes[g], &pks[g])
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
    /// oracle's winner, its structural rejections, and a failed check only
    /// where the claim ranks below the winner (every failed check when no
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
                Err(ClaimRejection::BadProof | ClaimRejection::NotLeastUnit)
                    if best.is_some_and(|b| (c.claimed_ticket(TAG, round), c.governor, i) > b) =>
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
    /// unit past the stake, a unit that does not hold the least ticket, an
    /// unknown governor, a valid claim twice (equal tickets, same
    /// governor), and one restated under another governor (bad proof).
    fn mixed_claims(
        rng: &mut StdRng,
        round: u64,
        keys: &[KeyPair],
        stakes: &[u64],
    ) -> Vec<ElectionClaim> {
        let m = keys.len() as u32;
        let mut claims = Vec::new();
        for g in 0..m {
            let stake = stakes[g as usize];
            let valid =
                |round| ElectionClaim::compute(TAG, round, g, stake, &keys[g as usize]).unwrap();
            match rng.gen_range(0..8u32) {
                0 | 1 => claims.push(valid(round)),
                2 => {
                    let thief = &keys[((g + 1) % m) as usize];
                    claims.push(ElectionClaim::compute(TAG, round, g, stake, thief).unwrap());
                }
                3 => claims.push(valid(round + 1)),
                4 => claims.push(ElectionClaim {
                    unit: stake,
                    ..valid(round)
                }),
                5 => claims.push(ElectionClaim {
                    governor: m + 3,
                    ..valid(round)
                }),
                6 => {
                    let claim = valid(round);
                    claims.push(ElectionClaim {
                        unit: (claim.unit + 1) % stake,
                        ..claim
                    });
                }
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
            let (mut decided, mut forged_below, mut not_least_below) = (0, 0, 0);
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
                let count = |want| {
                    tally
                        .rejections
                        .iter()
                        .filter(|(_, why)| *why == want)
                        .count()
                };
                forged_below += count(ClaimRejection::BadProof);
                not_least_below += count(ClaimRejection::NotLeastUnit);
            }
            // Not vacuous: most rounds elect someone, and forged and
            // non-canonical claims below the winner are met and refused.
            assert!(decided > trials as usize / 2, "{}", scheme.name());
            assert!(forged_below > 0, "{}", scheme.name());
            assert!(not_least_below > 0, "{}", scheme.name());
        }
    }

    /// The winner-only tally with the claim checks counted.
    fn counted_tally(
        round: u64,
        claims: &[ElectionClaim],
        stakes: &[u64],
        pks: &[PublicKey],
        own: Option<&ElectionClaim>,
    ) -> (Tally, usize) {
        let mut checks = 0;
        let tally = tally_by(
            TAG,
            round,
            claims,
            stakes,
            pks,
            &[],
            own,
            |claim, stake, pk| {
                checks += 1;
                claim.verify(TAG, round, stake, pk)
            },
        );
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
                let claims = claims_of(round, &stakes, &keys);
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
            let mut claims = claims_of(4, &stakes, &keys);
            // Governor 1 claims, unproved, an output whose ticket is the
            // least of the round.
            let honest_least = claims
                .iter()
                .map(|c| c.claimed_ticket(TAG, 4))
                .min()
                .unwrap();
            let forged = (0u8..)
                .map(|b| prb_crypto::sha256::sha256(&[b]))
                .find(|beta| ticket(TAG, 4, 1, claims[1].unit, beta) < honest_least)
                .unwrap();
            claims[1].evaluation = match claims[1].evaluation.clone() {
                VrfEvaluation::Sim(_) => VrfEvaluation::Sim(forged),
                VrfEvaluation::Schnorr { proof, .. } => VrfEvaluation::Schnorr {
                    output: forged,
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
        let mut claims = claims_of(9, &stakes, &keys);
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
        let below = (claims[1].claimed_ticket(TAG, 9), 2)
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
        let claims = claims_of(0, &stakes, &keys);
        let (result, rejections) = elect(TAG, 0, &claims, &stakes, &pks);
        assert!(rejections.is_empty());
        assert!(result.is_some());
    }
}
