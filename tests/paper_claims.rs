//! The paper's claims as tier-1 checks. Each [`Claim`] names its
//! experiment and the part of the paper it tests, and carries a quick form
//! of the experiment with its hard assert, on the sim signer. Claims join
//! the list as their experiments get quick forms; one that fails is
//! recorded in `tests/known_bugs.rs` instead.

use prb::crypto::signer::CryptoScheme;
use prb::reputation::params::ReputationParams;
use prb::reputation::rwm::GammaMode;
use prb::reputation::screening::prob_unchecked;
use prb_bench::claims::{
    e2_profiles, empirical_tail, honesty_ordered, incentive_run, isolated_rate, loss_run,
    ordinary_block, pbft_messages, protocol_unchecked, stake_block_messages, theory_regret,
    REGRET_COLLECTORS,
};
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

const CLAIMS: &[Claim] = &[
    Claim {
        id: "E1",
        paper_ref: "Theorem 1: governor regret L_T − S_T^min = O(√T)",
        quick: e1_regret_stays_under_the_theorem_bound,
    },
    Claim {
        id: "E2",
        paper_ref: "Lemma 2: a transaction goes unchecked with probability ≤ f",
        quick: e2_unchecked_rate_is_at_most_f,
    },
    Claim {
        id: "E3",
        paper_ref: "Theorem 3: P[#unchecked > (f+δ)N] ≤ e^(−2δ²N)",
        quick: e3_unchecked_tail_is_under_hoeffding,
    },
    Claim {
        id: "E4",
        paper_ref: "Theorem 4: L ≤ S + O(√((f+δ)N)) end to end",
        quick: e4_loss_gap_is_within_theorem_4,
    },
    Claim {
        id: "E6",
        paper_ref: "§4.1: ordinary block O(b·m) messages, stake block O(m²)",
        quick: e6_ordinary_blocks_grow_linearly_and_stake_blocks_quadratically,
    },
    Claim {
        id: "E7",
        paper_ref: "§4.2: dishonest collectors earn less",
        quick: e7_revenue_falls_with_dishonesty,
    },
    Claim {
        id: "E8",
        paper_ref: "§3.4.3: a governor leads in proportion to its stake",
        quick: e8_election_is_stake_proportional,
    },
];

/// `exp_regret`'s Theorem 1 sweeps at three horizons and ten seeds,
/// with a perfect collector and on the hard instance: the regret never
/// exceeds the theorem's closed-form bound.
fn e1_regret_stays_under_the_theorem_bound() -> Result<(), String> {
    for best_err in [0.0, 0.45] {
        for t in [300, 1_200, 4_800] {
            let beta = ReputationParams::theorem_beta(REGRET_COLLECTORS, t);
            for seed in 100..110 {
                let (regret, _, bound) =
                    theory_regret(t, seed, beta, GammaMode::PaperMax, best_err);
                if regret > bound {
                    return Err(format!(
                        "best_err {best_err}, T {t}, seed {seed}: regret {regret:.1} > bound {bound:.1}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `exp_unchecked`: every screening profile at f ∈ {0.2, 0.5, 0.8} skips
/// at most `f` (+ 0.01 sampling slack, as the experiment allows) and
/// within 0.01 of the analytic `Σ f·w²/W²`; in the full protocol at
/// f ∈ {0.1, 0.5, 0.9} (three seeds, 12 rounds) no governor's unchecked
/// fraction exceeds f.
fn e2_unchecked_rate_is_at_most_f() -> Result<(), String> {
    for (name, reports) in e2_profiles() {
        for f in [0.2, 0.5, 0.8] {
            let measured = isolated_rate(&reports, f, 20_000, 42);
            let analytic = prob_unchecked(&reports, f);
            if measured > f + 0.01 || (measured - analytic).abs() > 0.01 {
                return Err(format!(
                    "{name}, f {f}: measured {measured:.4}, analytic {analytic:.4}"
                ));
            }
        }
    }
    for f in [0.1, 0.5, 0.9] {
        for seed in 7..10 {
            let (_, max) = protocol_unchecked(seed, f, 12);
            if max > f {
                return Err(format!(
                    "full protocol, f {f}, seed {seed}: {max:.3} unchecked"
                ));
            }
        }
    }
    Ok(())
}

/// `exp_tail` at f = 0.5, N ∈ {100, 500, 1 000}, δ ∈ {0.05, 0.1, 0.2},
/// 1 000 trials: the empirical tail stays under `e^(−2δ²N)` (+ one
/// trial's worth, as the experiment allows).
fn e3_unchecked_tail_is_under_hoeffding() -> Result<(), String> {
    let trials = 1_000;
    for n in [100u32, 500, 1_000] {
        for delta in [0.05, 0.1, 0.2] {
            let emp = empirical_tail(n, 0.5, delta, trials, 9_000 + u64::from(n));
            let bound = (-2.0 * delta * delta * f64::from(n)).exp();
            if emp > bound + 1.0 / f64::from(trials) {
                return Err(format!(
                    "N {n}, δ {delta}: tail {emp:.4} > bound {bound:.4}"
                ));
            }
        }
    }
    Ok(())
}

/// `exp_loss`'s f sweep at its 25 rounds over two seeds: the governor's
/// loss stays within `S + 16·√((f + δ)·N)`, δ = 0.05.
fn e4_loss_gap_is_within_theorem_4() -> Result<(), String> {
    for f in [0.1, 0.3, 0.5, 0.7, 0.9] {
        for seed in 40..42 {
            let run = loss_run(seed, f, 25);
            if !run.within_theorem_4(f, 0.05) {
                return Err(format!("f {f}, seed {seed}: {run:?}"));
            }
        }
    }
    Ok(())
}

/// `exp_messages` at m = 4, 8, 16: per doubling of m, ordinary-block
/// messages grow about ×2 (below ×3) and stake-block and PBFT messages
/// about ×4 (above ×3).
fn e6_ordinary_blocks_grow_linearly_and_stake_blocks_quadratically() -> Result<(), String> {
    for m in [4, 8] {
        let growth = |f: &dyn Fn(u32) -> u64| f(2 * m) as f64 / f(m).max(1) as f64;
        let ordinary = growth(&|m| ordinary_block(m, 4).0);
        let stake = growth(&stake_block_messages);
        let pbft = growth(&pbft_messages);
        if ordinary >= 3.0 || stake <= 3.0 || pbft <= 3.0 {
            return Err(format!(
                "m {m} → {}: ordinary ×{ordinary:.1}, stake ×{stake:.1}, PBFT ×{pbft:.1}",
                2 * m
            ));
        }
    }
    Ok(())
}

/// `exp_incentives` at its own size (six seeds, 25 rounds) and its
/// ordering check on the mean revenue shares: honest collectors out-earn
/// every misreporting grade, the concealer, the forger and the sleeper,
/// and revenue falls with the misreport rate.
fn e7_revenue_falls_with_dishonesty() -> Result<(), String> {
    let runs: Vec<_> = (200..206).map(|seed| incentive_run(seed, 25)).collect();
    let shares: Vec<f64> = (0..8)
        .map(|c| runs.iter().map(|run| run[c].3).sum::<f64>() / runs.len() as f64)
        .collect();
    if honesty_ordered(&shares) {
        Ok(())
    } else {
        Err(format!("revenue shares {shares:.4?}"))
    }
}

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
