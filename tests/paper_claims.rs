//! The paper's claims as tier-1 checks. Each [`Claim`] names its
//! experiment and the part of the paper it tests, and carries a quick form
//! of the experiment with its hard assert, on the sim signer. Claims join
//! the list as their experiments get quick forms; one that fails is
//! recorded in `tests/known_bugs.rs` instead.

use prb::crypto::signer::CryptoScheme;
use prb_bench::election::{e8_stakes, election_wins, stake_chi2, CHI2_99_DOF9};

/// One claim of the paper and its quick check.
struct Claim {
    /// The experiment (EXPERIMENTS.md).
    id: &'static str,
    /// Where the paper makes the claim.
    paper_ref: &'static str,
    /// The experiment's quick form: `Err` says what failed.
    quick: fn() -> Result<(), String>,
}

const CLAIMS: &[Claim] = &[Claim {
    id: "E8",
    paper_ref: "§3.4.3: a governor leads in proportion to its stake",
    quick: e8_election_is_stake_proportional,
}];

/// `exp_election --rounds 4000`: ten governors with stakes 1..=10, and
/// Pearson's χ² of their wins against the stake shares below χ²₀.₉₉.
fn e8_election_is_stake_proportional() -> Result<(), String> {
    let stakes = e8_stakes();
    let wins = election_wins(&CryptoScheme::sim(), &stakes, 4_000);
    let chi2 = stake_chi2(&wins, &stakes);
    if chi2 < CHI2_99_DOF9 {
        Ok(())
    } else {
        Err(format!("χ² {chi2:.2} ≥ {CHI2_99_DOF9}, wins {wins:?}"))
    }
}

#[test]
fn every_paper_claim_holds_in_its_quick_form() {
    let failed: Vec<String> = CLAIMS
        .iter()
        .filter_map(|c| {
            let why = (c.quick)().err()?;
            Some(format!("{} ({}): {why}", c.id, c.paper_ref))
        })
        .collect();
    assert!(failed.is_empty(), "{failed:#?}");
}
