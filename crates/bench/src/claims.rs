//! The measurements behind E1–E4, E6 and E7, shared by their `exp_*`
//! binaries and the paper-claims gate (`tests/paper_claims.rs`), which
//! runs each at a quick size with the experiment's check.

use prb_consensus::pbft::{PbftMsg, PbftReplica};
use prb_consensus::stake::{StakeTable, StakeTransfer};
use prb_consensus::stake_block::{StakeGovernor, StakeMsg};
use prb_core::behavior::{CollectorProfile, ProviderProfile};
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;
use prb_crypto::signer::{CryptoScheme, KeyPair, PublicKey};
use prb_net::sim::{NetConfig, Network};
use prb_net::time::{SimDuration, SimTime};
use prb_reputation::rwm::{Advice, GammaMode, Rwm};
use prb_reputation::screening::{screen, Report};
use prb_workload::adversary::AdversaryMix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// E1's collector count `r`.
pub const REGRET_COLLECTORS: usize = 8;

/// E1: Theorem 1's process run directly for `t` rounds — one collector
/// erring at `best_err`, the rest at graded rates (all at 0.5 on the hard
/// instance, `best_err ≥ 0.4`). Returns the regret `L_T − S^min_T`, the
/// best collector's loss `S^min_T` and the theorem's closed-form bound.
pub fn theory_regret(
    t: u64,
    seed: u64,
    beta: f64,
    gamma_mode: GammaMode,
    best_err: f64,
) -> (f64, f64, f64) {
    const R: usize = REGRET_COLLECTORS;
    let mut rwm = Rwm::new(R, beta);
    rwm.set_gamma_mode(gamma_mode);
    let mut pick_rng = StdRng::seed_from_u64(seed);
    let mut advice_rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    for _ in 0..t {
        let advice: Vec<Advice> = (0..R)
            .map(|i| {
                if i == 0 {
                    if best_err > 0.0 && advice_rng.gen::<f64>() < best_err {
                        Advice::Wrong
                    } else {
                        Advice::Correct
                    }
                } else {
                    // Hard instances set best_err near 0.5 so the noisy
                    // experts are only marginally worse.
                    let p = if best_err >= 0.4 {
                        0.5
                    } else {
                        0.2 + 0.6 * i as f64 / R as f64
                    };
                    if advice_rng.gen::<f64>() < p {
                        Advice::Wrong
                    } else {
                        Advice::Correct
                    }
                }
            })
            .collect();
        rwm.round(&advice, &mut pick_rng);
    }
    (rwm.regret(), rwm.best_expert_loss(), rwm.theorem_bound(t))
}

/// E2's screening profiles: who reports, with which label and weight.
pub fn e2_profiles() -> Vec<(&'static str, Vec<Report>)> {
    let report = |collector, labeled_valid, weight| Report {
        collector,
        labeled_valid,
        weight,
    };
    vec![
        ("1 reporter, -1 (worst case)", vec![report(0, false, 1.0)]),
        (
            "4 equal reporters, all -1",
            (0..4).map(|c| report(c, false, 1.0)).collect(),
        ),
        (
            "4 equal reporters, 2 of each label",
            (0..4).map(|c| report(c, c < 2, 1.0)).collect(),
        ),
        (
            "skewed weights 8:1:1:1, heavy says -1",
            vec![
                report(0, false, 8.0),
                report(1, true, 1.0),
                report(2, true, 1.0),
                report(3, true, 1.0),
            ],
        ),
    ]
}

/// E2: the share of `samples` screenings of `reports` that skip the check.
pub fn isolated_rate(reports: &[Report], f: f64, samples: u32, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut skipped = 0u32;
    for _ in 0..samples {
        if !screen(reports, f, &mut rng).expect("non-empty").check {
            skipped += 1;
        }
    }
    skipped as f64 / samples as f64
}

/// E2 in the full protocol: honest collectors, a 90 % invalid workload,
/// `rounds` rounds; the mean and the largest unchecked fraction over the
/// four governors.
pub fn protocol_unchecked(seed: u64, f: f64, rounds: u32) -> (f64, f64) {
    let mut cfg = ProtocolConfig {
        seed,
        ..Default::default()
    };
    cfg.reputation.f = f;
    let mut sim = Simulation::builder(cfg)
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.9,
                active: false
            };
            8
        ])
        .build()
        .expect("valid config");
    sim.run(rounds);
    let fractions: Vec<f64> = (0..4)
        .map(|g| sim.metrics(g).unchecked_fraction())
        .collect();
    (
        crate::mean(&fractions),
        fractions.iter().cloned().fold(0.0, f64::max),
    )
}

/// E3: the share of `trials` runs of `n` transactions, each unchecked
/// with probability `f` (Lemma 2's worst case), in which more than
/// `(f + δ)·n` went unchecked.
pub fn empirical_tail(n: u32, f: f64, delta: f64, trials: u32, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let threshold = (f + delta) * n as f64;
    let mut exceed = 0u32;
    for _ in 0..trials {
        let mut unchecked = 0u32;
        for _ in 0..n {
            if rng.gen::<f64>() < f {
                unchecked += 1;
            }
        }
        if unchecked as f64 > threshold {
            exceed += 1;
        }
    }
    exceed as f64 / trials as f64
}

/// E4's outcome of one run, from governor 0's metrics.
#[derive(Clone, Debug)]
pub struct LossOutcome {
    /// The governor's expected loss `L`.
    pub expected_loss: f64,
    /// The best collector's loss `S`, summed over providers.
    pub best_loss: f64,
    /// Transactions left unchecked.
    pub unchecked: f64,
    /// Transactions screened, `N`.
    pub total_txs: f64,
}

impl LossOutcome {
    /// Theorem 4's check with E4's constant: `L ≤ S + 16·√((f + δ)·N)`.
    pub fn within_theorem_4(&self, f: f64, delta: f64) -> bool {
        self.expected_loss <= self.best_loss + 16.0 * ((f + delta) * self.total_txs).sqrt()
    }
}

/// E4: the full protocol with one honest collector per provider group and
/// the rest noisy, 8/8/4 with `r = 8`, `rounds` rounds and 3 to drain.
pub fn loss_run(seed: u64, f: f64, rounds: u32) -> LossOutcome {
    let mut cfg = ProtocolConfig {
        providers: 8,
        collectors: 8,
        replication: 8,
        governors: 4,
        tx_per_provider: 6,
        seed,
        ..Default::default()
    };
    cfg.reputation.f = f;
    let mut sim = Simulation::builder(cfg)
        .collector_profiles(AdversaryMix::OneHonestRestNoisy.profiles(8))
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.5,
                active: false
            };
            8
        ])
        .build()
        .expect("valid config");
    sim.run(rounds);
    sim.run_drain_rounds(3);
    let m = sim.metrics(0);
    let mut best = 0.0;
    for p in 0..8 {
        let collectors = sim.topology().collectors_of(p).to_vec();
        best += m.best_collector_loss(p, &collectors);
    }
    LossOutcome {
        expected_loss: m.expected_loss,
        best_loss: best,
        unchecked: m.unchecked as f64,
        total_txs: m.screened as f64,
    }
}

/// E6: ordinary-block dissemination messages and bytes per round in the
/// full protocol, for `m` governors and a per-round block size set by
/// `tx_per_provider`.
pub fn ordinary_block(m: u32, tx_per_provider: u32) -> (u64, u64) {
    let cfg = ProtocolConfig {
        governors: m,
        tx_per_provider,
        b_limit: 16_384,
        seed: 5,
        ..Default::default()
    };
    let mut sim = Simulation::builder(cfg)
        .provider_profiles(vec![ProviderProfile::honest_active(); 8])
        .build()
        .expect("valid config");
    sim.run(4);
    let stats = sim.net_stats();
    let proposals = stats.kind("block-proposal");
    (proposals.sent / 4, proposals.bytes_sent / 4)
}

/// E6: messages to commit one stake-transform block among `m` governors.
pub fn stake_block_messages(m: u32) -> u64 {
    let scheme = CryptoScheme::sim();
    let keys: Vec<KeyPair> = (0..m)
        .map(|g| scheme.keypair_from_seed(format!("sg{g}").as_bytes()))
        .collect();
    let pks: Vec<PublicKey> = keys.iter().map(|k| k.public_key()).collect();
    let mut net = Network::new(NetConfig::uniform(1, 5), 31);
    for g in 0..m {
        net.add_node(StakeGovernor::new(
            g,
            m,
            0,
            keys[g as usize].clone(),
            pks.clone(),
            StakeTable::uniform(m as usize, 16),
        ));
    }
    for g in 0..m {
        let t = StakeTransfer::create(g, (g + 1) % m, 1, 0, &keys[g as usize]);
        net.send_external(
            g as usize,
            "submit",
            StakeMsg::SubmitTransfer(t),
            SimTime(0),
        );
    }
    for g in 0..m as usize {
        net.send_external(
            g,
            "start-round",
            StakeMsg::StartRound {
                round: 1,
                leader: 0,
            },
            SimTime(100),
        );
    }
    net.run_until_idle(1_000_000);
    let s = net.stats();
    s.kind("stake-transfer").sent
        + s.kind("stake-newstate").sent
        + s.kind("stake-ack").sent
        + s.kind("stake-commit").sent
}

/// E6's baseline: messages for one PBFT decision among `m` replicas.
pub fn pbft_messages(m: u32) -> u64 {
    let mut net = Network::new(NetConfig::uniform(1, 4), 77);
    for i in 0..m {
        net.add_node(PbftReplica::new(i, m, 0, SimDuration(10_000)));
    }
    let v = prb_crypto::sha256::sha256(b"block");
    net.send_external(0, "client", PbftMsg::ClientRequest(v), SimTime(0));
    net.run_until(SimTime(5_000));
    let s = net.stats();
    s.kind("pbft-preprepare").sent + s.kind("pbft-prepare").sent + s.kind("pbft-commit").sent
}

/// E7's eight collectors, one behaviour each.
pub fn e7_profiles() -> Vec<(&'static str, CollectorProfile)> {
    vec![
        ("honest", CollectorProfile::honest()),
        ("honest (control)", CollectorProfile::honest()),
        ("misreport 20%", CollectorProfile::misreporter(0.2)),
        ("misreport 50%", CollectorProfile::misreporter(0.5)),
        ("misreport 80%", CollectorProfile::misreporter(0.8)),
        ("conceal 50%", CollectorProfile::concealer(0.5)),
        ("forge 30%", CollectorProfile::forger(0.3)),
        (
            "sleeper (hostile from round 12)",
            CollectorProfile::misreporter(0.8).sleeper(12),
        ),
    ]
}

/// E7: one run of the eight [`e7_profiles`] collectors for `rounds` rounds
/// and 3 to drain. Per collector, from governor 0's table: mean weight,
/// misreport counter, forge counter, and its share of the revenue every
/// governor paid.
pub fn incentive_run(seed: u64, rounds: u32) -> Vec<(f64, f64, f64, f64)> {
    let mut cfg = ProtocolConfig {
        tx_per_provider: 6,
        seed,
        ..Default::default()
    };
    cfg.reputation.f = 0.6;
    let mut sim = Simulation::builder(cfg)
        .collector_profiles(e7_profiles().iter().map(|(_, p)| *p).collect())
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: 0.4,
                active: true
            };
            8
        ])
        .build()
        .expect("valid config");
    sim.run(rounds);
    sim.run_drain_rounds(3);
    // Total revenue over all leading governors.
    let mut paid = [0.0f64; 8];
    for g in 0..4 {
        for (c, share) in sim.metrics(g).revenue_paid.iter().enumerate() {
            paid[c] += share;
        }
    }
    let total: f64 = paid.iter().sum::<f64>().max(1e-12);
    let table = sim.governor(0).reputation();
    (0..8usize)
        .map(|c| {
            let v = table.collector(c);
            (
                v.weights().iter().sum::<f64>() / v.weights().len() as f64,
                v.misreport() as f64,
                v.forge() as f64,
                paid[c] / total,
            )
        })
        .collect()
}

/// E7's check on the [`e7_profiles`] revenue shares: honest above each
/// misreporting grade, the grades in order, and honest above the
/// concealer, the forger and the sleeper.
pub fn honesty_ordered(share: &[f64]) -> bool {
    share[0] > share[2]
        && share[2] > share[3]
        && share[3] >= share[4]
        && share[0] > share[5]
        && share[0] > share[6]
        && share[0] > share[7]
}
