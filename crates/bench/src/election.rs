//! E8's election tally: wins per governor over many rounds and the χ²
//! statistic against the stake-proportional null, shared by
//! `exp_election` and the paper-claims gate.

use prb_consensus::election::{elect, ElectionClaim};
use prb_crypto::signer::{CryptoScheme, KeyPair, PublicKey};

/// E8's committee: ten governors holding stakes 1..=10.
pub fn e8_stakes() -> Vec<u64> {
    (1..=10).collect()
}

/// Elections won by each governor over rounds `0..rounds`, each governor
/// `g` holding `stakes[g]` units under a key drawn from `scheme`.
pub fn election_wins(scheme: &CryptoScheme, stakes: &[u64], rounds: u64) -> Vec<u64> {
    let keys: Vec<KeyPair> = (0..stakes.len())
        .map(|g| scheme.keypair_from_seed(format!("election-{g}").as_bytes()))
        .collect();
    let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
    let mut wins = vec![0u64; stakes.len()];
    for round in 0..rounds {
        let claims: Vec<ElectionClaim> = keys
            .iter()
            .enumerate()
            .filter_map(|(g, k)| {
                ElectionClaim::compute(b"exp-election", round, g as u32, stakes[g], k)
            })
            .collect();
        let (result, rejections) = elect(b"exp-election", round, &claims, stakes, &pks);
        assert!(rejections.is_empty());
        wins[result.expect("someone wins").leader as usize] += 1;
    }
    wins
}

/// Pearson's χ² of `wins` against win shares proportional to `stakes`
/// (`stakes.len() − 1` degrees of freedom).
pub fn stake_chi2(wins: &[u64], stakes: &[u64]) -> f64 {
    let total: u64 = stakes.iter().sum();
    let rounds: u64 = wins.iter().sum();
    wins.iter()
        .zip(stakes)
        .map(|(&w, &s)| {
            let expected = s as f64 / total as f64 * rounds as f64;
            (w as f64 - expected).powi(2) / expected
        })
        .sum()
}

/// χ²₀.₉₉ at 9 degrees of freedom: E8's acceptance threshold.
pub const CHI2_99_DOF9: f64 = 21.67;
