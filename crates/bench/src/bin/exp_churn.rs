//! E17 — dynamic membership under churn.
//!
//! The static-committee experiments (E1–E16) all assume the roster fixed
//! at genesis. E17 exercises the membership subsystem end to end:
//! stake-backed joins and voluntary leaves certified by governor quorum,
//! reputation bootstrapping for newcomers, decay for silent members, and
//! epoch-aware quorum sizing — all while the usual screening/validation
//! pipeline keeps running.
//!
//! Three phases, each with hard asserts:
//!
//! - **Churn sweep** — join/leave rates × a silent byzantine governor ×
//!   seeds, with a scripted governor leave+rejoin so every run crosses
//!   at least two committee epochs. Asserts: honest chains agree, no
//!   append failures, every membership certificate re-verifies
//!   externally against re-derived keys at the quorum of *its* epoch,
//!   and governor screening regret over the surviving honest collectors
//!   stays within the Theorem-1 `O(sqrt(T ln n))` envelope.
//! - **Newcomer convergence** — a collector leaves early and rejoins
//!   mid-run at the configured bootstrap prior. Asserts: the rejoin
//!   weight equals `bootstrap_rep` exactly, the newcomer's post-rejoin
//!   empirical loss rate converges to the incumbent honest rate within
//!   epsilon in `O(sqrt(T))` rounds, and it ends ranked above the
//!   incumbent misreporter despite the discounted prior.
//! - **Determinism** — the same churn cell run twice must produce
//!   byte-identical ledgers and byte-identical membership certificates.
//!
//! Output: markdown tables plus `BENCH_churn.json` with machine-readable
//! pass markers. `--quick` shrinks rounds and seeds for CI smoke runs.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use prb_bench::{apply_churn_args, mean, Args, Table};
use prb_consensus::membership::{MemberRole, MembershipAction, MembershipCert};
use prb_core::behavior::{CollectorProfile, GovernorProfile, ProviderProfile};
use prb_core::config::ProtocolConfig;
use prb_core::sim::Simulation;
use prb_crypto::identity::{IdentityManager, NodeId};
use prb_crypto::signer::PublicKey;

/// Collector index cast as the committee misreporter in every phase.
const MISREPORTER: u32 = 1;
/// Misreport probability for the planted liar.
const MISREPORT_P: f64 = 0.75;
/// Collector index cast as the permanently silent member (conceals
/// every transaction) — the decay → eviction path's test subject.
const SILENT: u32 = 2;
/// Screening prior for admitted newcomers.
const BOOTSTRAP_REP: f64 = 0.5;
/// Decay half-life (rounds of silence) used whenever churn is on.
/// One round halves a silent member's weight, so the planted concealer
/// crosses the governors' eviction floor (1e-3) after ~10 silent rounds
/// — inside even the quick horizon. The reputation `weight_floor` stays
/// at its 0.0 default: a positive floor would also clamp misreport
/// penalties and turn the misreporter's regret contribution linear.
const DECAY_HALFLIFE: u64 = 1;
/// Provider invalid-transaction rate; reveals (and hence reputation
/// signal) only accrue when some transactions are genuinely invalid.
const INVALID_RATE: f64 = 0.5;

/// Re-derive the deployment's public keys exactly as the simulation
/// enrolls them (deterministic in the master seed), so certificates can
/// be audited without trusting any governor's internal state.
fn derive_pks(cfg: &ProtocolConfig) -> (Vec<PublicKey>, Vec<PublicKey>) {
    let mut im = IdentityManager::new(cfg.crypto.clone(), &cfg.seed.to_be_bytes());
    for p in 0..cfg.providers {
        im.enroll(NodeId::provider(p)).expect("enroll provider");
    }
    let collectors = (0..cfg.collectors)
        .map(|c| {
            im.enroll(NodeId::collector(c))
                .expect("enroll collector")
                .certificate
                .public_key
        })
        .collect();
    let governors = (0..cfg.governors)
        .map(|g| {
            im.enroll(NodeId::governor(g))
                .expect("enroll governor")
                .certificate
                .public_key
        })
        .collect();
    (collectors, governors)
}

fn churn_cfg(seed: u64, join: f64, leave: f64, byz_silent: bool) -> ProtocolConfig {
    let mut cfg = ProtocolConfig {
        seed,
        join_rate: join,
        leave_rate: leave,
        bootstrap_rep: BOOTSTRAP_REP,
        decay_halflife: DECAY_HALFLIFE,
        ..ProtocolConfig::default()
    };
    // Trust the screening draw more (fewer validations) so unchecked
    // transactions — the ones whose later reveal feeds the reputation
    // signal — accrue fast enough to measure regret and convergence.
    cfg.reputation.f = 0.8;
    if byz_silent {
        let mut profiles = vec![GovernorProfile::honest(); cfg.governors as usize];
        // One of four governors crash-equivalent: mints no claims and
        // proposes nothing, but the committee stays above quorum.
        profiles[cfg.governors as usize - 1] = GovernorProfile::silent();
        cfg.governor_profiles = profiles;
    }
    cfg
}

fn build_sim(cfg: ProtocolConfig) -> Simulation {
    let n = cfg.collectors as usize;
    let l = cfg.providers as usize;
    let mut collectors = vec![CollectorProfile::honest(); n];
    collectors[MISREPORTER as usize] = CollectorProfile::misreporter(MISREPORT_P);
    collectors[SILENT as usize] = CollectorProfile::concealer(1.0);
    Simulation::builder(cfg)
        .collector_profiles(collectors)
        .provider_profiles(vec![
            ProviderProfile {
                invalid_rate: INVALID_RATE,
                active: true,
            };
            l
        ])
        .build()
        .expect("churn config must validate")
}

/// Audit every certificate in a governor's membership log against
/// externally re-derived keys, sized by the committee epoch in force at
/// the certificate's effective round. Returns (joins, leaves, evicts).
fn audit_certs(sim: &Simulation, cfg: &ProtocolConfig) -> (u64, u64, u64) {
    let (collector_pks, governor_pks) = derive_pks(cfg);
    let g0 = sim.governor(0);
    let epoch_log = g0.committee().epochs();
    let (mut joins, mut leaves, mut evicts) = (0u64, 0u64, 0u64);
    for cert in g0.committee().certs() {
        let subject_pk = match cert.state.role {
            MemberRole::Collector => &collector_pks[cert.state.member as usize],
            MemberRole::Governor => &governor_pks[cert.state.member as usize],
        };
        let active = epoch_log.active_at(cert.state.effective_round);
        cert.audit(subject_pk, &governor_pks, active)
            .unwrap_or_else(|e| {
                panic!(
                    "membership cert for {:?} {} ({:?}) failed epoch-quorum audit: {e:?}",
                    cert.state.role, cert.state.member, cert.state.action
                )
            });
        match cert.state.action {
            MembershipAction::Join => joins += 1,
            MembershipAction::Leave => leaves += 1,
            MembershipAction::Evict => evicts += 1,
        }
    }
    (joins, leaves, evicts)
}

struct CellResult {
    joins: u64,
    leaves: u64,
    evicts: u64,
    epoch_events: usize,
    live_end: usize,
    height: u64,
    max_regret: f64,
    max_bound: f64,
    regret_checked: usize,
}

/// One churn-sweep cell: rate-driven collector churn plus a scripted
/// governor leave+rejoin so the run crosses two committee epochs.
fn run_cell(seed: u64, join: f64, leave: f64, byz_silent: bool, rounds: u32) -> CellResult {
    let cfg = churn_cfg(seed, join, leave, byz_silent);
    let mut sim = build_sim(cfg.clone());
    let leave_at = rounds / 3;
    let rejoin_at = 2 * rounds / 3;
    for r in 0..rounds {
        if r == leave_at {
            sim.submit_membership(MemberRole::Governor, 1, MembershipAction::Leave)
                .expect("governor leave");
        }
        if r == rejoin_at {
            sim.submit_membership(MemberRole::Governor, 1, MembershipAction::Join)
                .expect("governor rejoin");
        }
        sim.run_round();
    }
    sim.run_drain_rounds(2);

    // Quorum safety: every certified transition re-verifies against the
    // committee size of its own epoch, from keys the harness derived
    // independently of the governors.
    let (joins, leaves, evicts) = audit_certs(&sim, &cfg);
    let epoch_events = sim.governor(0).committee().epochs().events().len();
    assert!(
        epoch_events >= 2,
        "scripted governor leave+rejoin must log two epoch events, got {epoch_events}"
    );

    // Safety across epochs: honest governors (the departed-and-returned
    // g1 included — it warm-rejoins from followed blocks) agree on one
    // ledger, and nobody ever failed an append.
    let honest: Vec<u32> = if byz_silent {
        (0..cfg.governors - 1).collect()
    } else {
        (0..cfg.governors).collect()
    };
    assert!(
        sim.chains_agree_among(&honest),
        "honest governors diverged under churn (seed {seed}, join {join}, leave {leave})"
    );
    for &g in &honest {
        assert_eq!(
            sim.metrics(g).append_failures,
            0,
            "governor g{g} failed an append under churn"
        );
    }

    // E1 under churn: governor 0's screening regret against the honest
    // collectors that stayed in the committee for the whole run, per
    // provider, inside the Theorem-1 envelope C*sqrt(T ln n) + C'*ln n.
    // Theorem 1 compares against experts present for all T rounds; a
    // churned collector accrues no loss while absent (the screening
    // exemption), so measuring regret against it would not be
    // apples-to-apples.
    let n_total = cfg.collectors as f64;
    let survivors: Vec<u32> = sim
        .live_collectors()
        .into_iter()
        .filter(|&c| c != MISREPORTER && c != SILENT)
        .collect();
    let churned: std::collections::HashSet<u32> = sim
        .governor(0)
        .committee()
        .certs()
        .iter()
        .filter(|c| c.state.role == MemberRole::Collector)
        .map(|c| c.state.member)
        .collect();
    let steady: Vec<u32> = survivors
        .iter()
        .copied()
        .filter(|c| !churned.contains(c))
        .collect();
    // The driver's leave floor keeps strictly more than half the
    // committee live; a governor-side eviction can take one more.
    assert!(
        survivors.len() >= 2,
        "churn floor violated: only {} honest collectors live at end",
        survivors.len()
    );
    // Eviction of the always-silent collector is asserted per cell in
    // `main` (aggregated over seeds): a single seed can legitimately
    // see zero evictions when the rate churn draws the silent member
    // out before decay reaches the floor. The deterministic venue for
    // the hard per-run assert is `run_convergence` (no rate churn).
    let m0 = sim.metrics(0);
    let mut max_regret = 0.0f64;
    let mut max_bound = 0.0f64;
    let mut regret_checked = 0usize;
    for p in 0..cfg.providers {
        let linked: Vec<u32> = sim
            .topology()
            .collectors_of(p)
            .iter()
            .copied()
            .filter(|c| steady.contains(c))
            .collect();
        let t = m0.revealed_by_provider.get(&p).copied().unwrap_or(0) as f64;
        if linked.is_empty() || t < 3.0 {
            continue;
        }
        let regret = m0.regret(p, &linked);
        let bound = 4.0 * (t * n_total.ln()).sqrt() + 2.0 * n_total.ln();
        assert!(
            regret <= bound,
            "provider {p}: regret {regret:.2} exceeds churn envelope {bound:.2} \
             (T={t}, seed {seed})"
        );
        max_regret = max_regret.max(regret);
        max_bound = max_bound.max(bound);
        regret_checked += 1;
    }
    assert!(
        regret_checked > 0,
        "regret assert is hollow: no provider accumulated enough reveals"
    );

    CellResult {
        joins,
        leaves,
        evicts,
        epoch_events,
        live_end: sim.live_collectors().len(),
        height: sim.governor(0).chain().height(),
        max_regret,
        max_bound,
        regret_checked,
    }
}

struct Convergence {
    rejoin_round: u64,
    bootstrap_weight: f64,
    eps: f64,
    converged_after: u64,
    convergence_budget: u64,
    final_gap: f64,
    newcomer_weight_end: f64,
    newcomer_rate: f64,
    misreporter_rate: f64,
}

/// Mean screening weight governor 0 assigns collector `c`.
fn mean_weight(sim: &Simulation, c: usize) -> f64 {
    let w = sim.governor(0).reputation().collector(c).weights();
    w.iter().sum::<f64>() / w.len() as f64
}

/// Sum of governor 0's revealed counts and per-collector loss over the
/// providers linked to collector `c` — the denominators and numerators
/// of an empirical per-reveal loss rate.
fn loss_stats(sim: &Simulation, c: u32) -> (u64, f64) {
    let m0 = sim.metrics(0);
    let mut revealed = 0u64;
    let mut loss = 0.0f64;
    for &p in sim.topology().providers_of(c) {
        revealed += m0.revealed_by_provider.get(&p).copied().unwrap_or(0);
        loss += m0.collector_loss.get(&(p, c)).copied().unwrap_or(0.0);
    }
    (revealed, loss)
}

/// Scripted leave+rejoin for one collector; no rate churn, so the only
/// membership traffic is the newcomer under test.
fn run_convergence(seed: u64, rounds: u32) -> Convergence {
    let newcomer: u32 = 0;
    let cfg = churn_cfg(seed, 0.0, 0.0, false);
    let mut sim = build_sim(cfg.clone());
    let leave_submit = 2;
    let rejoin_submit = rounds / 3;
    let incumbents: Vec<u32> = (0..cfg.collectors)
        .filter(|&c| c != newcomer && c != MISREPORTER && c != SILENT)
        .collect();

    let mut rejoin_round = 0u64;
    let mut bootstrap_weight = f64::NAN;
    // Snapshots taken at the rejoin boundary: (revealed, loss) for the
    // newcomer and each incumbent, so post-rejoin rates are deltas.
    let mut base_newcomer = (0u64, 0.0f64);
    let mut base_misreporter = (0u64, 0.0f64);
    let mut base_incumbents: Vec<(u64, f64)> = Vec::new();
    let mut converged_after = u64::MAX;
    let eps_floor = 0.15f64;
    let mut eps = eps_floor;

    let gap_now = |sim: &Simulation,
                   base_newcomer: &(u64, f64),
                   base_incumbents: &[(u64, f64)]|
     -> Option<f64> {
        let (r_now, l_now) = loss_stats(sim, newcomer);
        let dr = r_now.saturating_sub(base_newcomer.0);
        if dr < 2 {
            return None;
        }
        let newcomer_rate = (l_now - base_newcomer.1) / dr as f64;
        let mut incumbent_rates = Vec::new();
        for (i, &c) in incumbents.iter().enumerate() {
            let (r, l) = loss_stats(sim, c);
            let d = r.saturating_sub(base_incumbents[i].0);
            if d >= 2 {
                incumbent_rates.push((l - base_incumbents[i].1) / d as f64);
            }
        }
        if incumbent_rates.is_empty() {
            return None;
        }
        Some((newcomer_rate - mean(&incumbent_rates)).abs())
    };

    for r in 0..rounds {
        if r == leave_submit {
            sim.submit_membership(MemberRole::Collector, newcomer, MembershipAction::Leave)
                .expect("collector leave");
        }
        if r == rejoin_submit {
            sim.submit_membership(MemberRole::Collector, newcomer, MembershipAction::Join)
                .expect("collector rejoin");
        }
        let was_live = sim.collector_is_live(newcomer);
        let outcome = sim.run_round();
        if !was_live && sim.collector_is_live(newcomer) {
            // The join cert just took effect: the governor re-admitted
            // the collector at the configured prior this round, and no
            // reveal can have touched it yet.
            rejoin_round = outcome.round;
            bootstrap_weight = mean_weight(&sim, newcomer as usize);
            base_newcomer = loss_stats(&sim, newcomer);
            base_misreporter = loss_stats(&sim, MISREPORTER);
            base_incumbents = incumbents.iter().map(|&c| loss_stats(&sim, c)).collect();
            let t_post = (rounds as u64).saturating_sub(rejoin_round) as f64;
            eps = eps_floor.max(1.5 / t_post.sqrt());
        }
        if rejoin_round != 0 && converged_after == u64::MAX {
            if let Some(gap) = gap_now(&sim, &base_newcomer, &base_incumbents) {
                if gap <= eps {
                    converged_after = outcome.round - rejoin_round;
                }
            }
        }
    }
    sim.run_drain_rounds(2);

    assert!(rejoin_round != 0, "newcomer never rejoined (seed {seed})");
    assert!(
        (bootstrap_weight - BOOTSTRAP_REP).abs() < 1e-9,
        "rejoin weight {bootstrap_weight} is not the bootstrap prior {BOOTSTRAP_REP}"
    );
    let final_gap = gap_now(&sim, &base_newcomer, &base_incumbents)
        .expect("post-rejoin window too short to measure a loss rate");
    assert!(
        final_gap <= eps,
        "newcomer loss rate never converged: final gap {final_gap:.3} > eps {eps:.3}"
    );
    // O(sqrt(T)) convergence: the gap must close within a sqrt budget of
    // the post-rejoin horizon, not merely by the end of the run.
    let t_post = rounds as u64 - rejoin_round;
    let convergence_budget = (2.0 * (t_post as f64).sqrt()).ceil() as u64 + 2;
    assert!(
        converged_after <= convergence_budget,
        "newcomer took {converged_after} rounds to converge, budget {convergence_budget}"
    );
    // An honest rejoiner must never be charged for its absence: no
    // Missed penalties from the departed window, no silence decay while
    // unwatched, so its weight holds at the prior (it can only fall on
    // genuine post-rejoin mistakes, and an honest member makes none).
    let newcomer_weight_end = mean_weight(&sim, newcomer as usize);
    assert!(
        newcomer_weight_end >= BOOTSTRAP_REP - 1e-9,
        "newcomer weight {newcomer_weight_end:.3} fell below the bootstrap prior — \
         stale penalties from the departed window leaked through"
    );
    // Relative standing: the incumbent misreporter's post-rejoin loss
    // rate must clearly exceed the newcomer's — the mechanism keeps
    // discriminating behaviour, not tenure, across membership changes.
    let rate = |(r0, l0): (u64, f64), (r1, l1): (u64, f64)| {
        let d = r1.saturating_sub(r0);
        assert!(d >= 2, "too few post-rejoin reveals to compare rates");
        (l1 - l0) / d as f64
    };
    let newcomer_rate = rate(base_newcomer, loss_stats(&sim, newcomer));
    let misreporter_rate = rate(base_misreporter, loss_stats(&sim, MISREPORTER));
    assert!(
        misreporter_rate > newcomer_rate + eps,
        "misreporter rate {misreporter_rate:.3} should exceed newcomer rate \
         {newcomer_rate:.3} by at least eps {eps:.3}"
    );
    // Deterministic eviction: with no rate churn, the always-silent
    // collector's only exit is decay to the floor followed by a
    // governor-originated, quorum-signed Evict certificate.
    let (_, _, evicts) = audit_certs(&sim, &cfg);
    assert!(
        evicts >= 1,
        "silent collector was never evicted in the scripted run (seed {seed})"
    );
    assert!(
        !sim.collector_is_live(SILENT),
        "silent collector still live after floor-triggered eviction"
    );

    Convergence {
        rejoin_round,
        bootstrap_weight,
        eps,
        converged_after,
        convergence_budget,
        final_gap,
        newcomer_weight_end,
        newcomer_rate,
        misreporter_rate,
    }
}

/// Serialize a membership certificate into a canonical comparison blob.
fn cert_blob(cert: &MembershipCert) -> String {
    format!("{cert:?}")
}

/// Run one churn cell twice from scratch; ledgers and certificate logs
/// must match byte for byte.
fn run_determinism(seed: u64, rounds: u32) -> (usize, usize) {
    let run = || {
        let cfg = churn_cfg(seed, 0.20, 0.10, false);
        let mut sim = build_sim(cfg);
        for r in 0..rounds {
            if r == rounds / 3 {
                sim.submit_membership(MemberRole::Governor, 1, MembershipAction::Leave)
                    .expect("governor leave");
            }
            sim.run_round();
        }
        sim.run_drain_rounds(2);
        let chain = sim.governor(0).chain().export();
        let certs: Vec<String> = sim
            .governor(0)
            .committee()
            .certs()
            .iter()
            .map(cert_blob)
            .collect();
        (chain, certs)
    };
    let (chain_a, certs_a) = run();
    let (chain_b, certs_b) = run();
    assert_eq!(
        chain_a, chain_b,
        "two identical churn runs exported different ledgers"
    );
    assert_eq!(
        certs_a, certs_b,
        "two identical churn runs formed different membership certificates"
    );
    assert!(
        !certs_a.is_empty(),
        "determinism cell formed no membership certificates"
    );
    (chain_a.len(), certs_a.len())
}

fn main() {
    let args = Args::parse();
    let quick = args.flag("quick");
    let out_path = args
        .get("bench-out")
        .unwrap_or("BENCH_churn.json")
        .to_owned();

    let rounds: u32 = if quick { 16 } else { 36 };
    let seeds: Vec<u64> = if quick {
        vec![11, 12]
    } else {
        vec![11, 12, 13, 14]
    };
    let rates: &[(f64, f64)] = &[(0.08, 0.05), (0.20, 0.10)];
    // Flag overrides are parsed for parity with prb-sim, but the sweep
    // grid itself is fixed so the asserts stay meaningful.
    let mut probe = ProtocolConfig::default();
    apply_churn_args(&args, &mut probe);

    println!("# E17 — dynamic membership under churn");
    println!();
    println!(
        "{rounds} rounds per cell, seeds {seeds:?}, rates {rates:?}, \
         bootstrap {BOOTSTRAP_REP}, decay half-life {DECAY_HALFLIFE}"
    );

    // ---- Phase 1: churn sweep ------------------------------------------
    let mut table = Table::new(
        "churn sweep",
        &[
            "join",
            "leave",
            "byz",
            "joins",
            "leaves",
            "evicts",
            "epochs",
            "live@end",
            "height",
            "max regret",
            "envelope",
        ],
    );
    let mut total_certs = 0u64;
    let mut sweep_regret = Vec::new();
    for &(join, leave) in rates {
        for byz in [false, true] {
            let mut cells = Vec::new();
            for &seed in &seeds {
                cells.push(run_cell(seed, join, leave, byz, rounds));
            }
            let joins = cells.iter().map(|c| c.joins).sum::<u64>();
            let leaves = cells.iter().map(|c| c.leaves).sum::<u64>();
            let evicts = cells.iter().map(|c| c.evicts).sum::<u64>();
            total_certs += joins + leaves + evicts;
            let regret: Vec<f64> = cells.iter().map(|c| c.max_regret).collect();
            let bound: Vec<f64> = cells.iter().map(|c| c.max_bound).collect();
            sweep_regret.push((join, leave, byz, mean(&regret), mean(&bound)));
            table.row(vec![
                format!("{join:.2}"),
                format!("{leave:.2}"),
                if byz {
                    "1 silent".into()
                } else {
                    "none".into()
                },
                joins.to_string(),
                leaves.to_string(),
                evicts.to_string(),
                format!(
                    "{:.1}",
                    mean(
                        &cells
                            .iter()
                            .map(|c| c.epoch_events as f64)
                            .collect::<Vec<_>>()
                    )
                ),
                format!(
                    "{:.1}",
                    mean(&cells.iter().map(|c| c.live_end as f64).collect::<Vec<_>>())
                ),
                format!(
                    "{:.1}",
                    mean(&cells.iter().map(|c| c.height as f64).collect::<Vec<_>>())
                ),
                format!("{:.2}", mean(&regret)),
                format!("{:.2}", mean(&bound)),
            ]);
            let checked: usize = cells.iter().map(|c| c.regret_checked).sum();
            assert!(checked > 0);
            // Floor-triggered eviction of the planted silent collector
            // fires somewhere in every cell. A single seed can miss it
            // (rate churn can draw the silent member out before decay
            // reaches the floor), so assert on the cell aggregate.
            assert!(
                evicts >= 1,
                "no eviction across any seed of cell (join {join}, leave {leave}, byz {byz})"
            );
        }
    }
    println!();
    println!("## churn sweep (means over {} seeds)", seeds.len());
    println!();
    table.print();
    println!();
    println!(
        "every cell passed: honest chains agree, zero append failures, all {total_certs} \
         membership certs re-verified at their epoch quorum, regret within the envelope."
    );

    // ---- Phase 2: newcomer convergence ---------------------------------
    let conv = run_convergence(seeds[0], rounds.max(18));
    println!();
    println!("## newcomer convergence (scripted leave + rejoin)");
    println!();
    let mut ct = Table::new(
        "newcomer convergence",
        &[
            "rejoin round",
            "bootstrap w",
            "eps",
            "converged after",
            "budget",
            "final gap",
            "newcomer rate",
            "misreporter rate",
        ],
    );
    ct.row(vec![
        conv.rejoin_round.to_string(),
        format!("{:.3}", conv.bootstrap_weight),
        format!("{:.3}", conv.eps),
        conv.converged_after.to_string(),
        conv.convergence_budget.to_string(),
        format!("{:.3}", conv.final_gap),
        format!("{:.3}", conv.newcomer_rate),
        format!("{:.3}", conv.misreporter_rate),
    ]);
    ct.print();
    println!();
    println!(
        "the rejoining collector re-enters at exactly the bootstrap prior (held at \
         {:.3} through the end — no stale penalties from the departed window), its \
         empirical loss rate matches the incumbent honest rate within eps inside the \
         sqrt budget, and the incumbent misreporter's rate stays clearly above it. \
         the planted always-silent collector decayed below the eviction floor and \
         was evicted by quorum certificate.",
        conv.newcomer_weight_end
    );

    // ---- Phase 3: determinism ------------------------------------------
    let (chain_bytes, det_certs) = run_determinism(seeds[0], rounds.min(20));
    println!();
    println!("## determinism");
    println!();
    println!(
        "two fresh runs of the same churn cell: ledgers byte-identical \
         ({chain_bytes} bytes), membership cert logs identical ({det_certs} certs)."
    );

    // ---- JSON ----------------------------------------------------------
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"churn\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"rounds\": {rounds},");
    let _ = writeln!(out, "  \"seeds\": {:?},", seeds);
    let _ = writeln!(
        out,
        "  \"config\": {{\"bootstrap_rep\": {BOOTSTRAP_REP}, \"decay_halflife\": {DECAY_HALFLIFE}, \
         \"misreport_p\": {MISREPORT_P}}},"
    );
    let _ = writeln!(out, "  \"sweep\": [");
    for (i, (join, leave, byz, regret, bound)) in sweep_regret.iter().enumerate() {
        let comma = if i + 1 == sweep_regret.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"join_rate\": {join}, \"leave_rate\": {leave}, \"byz_silent\": {byz}, \
             \"mean_max_regret\": {regret:.4}, \"mean_envelope\": {bound:.4}}}{comma}"
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"membership_certs_audited\": {total_certs},");
    let _ = writeln!(
        out,
        "  \"convergence\": {{\"rejoin_round\": {}, \"bootstrap_weight\": {:.4}, \
         \"eps\": {:.4}, \"converged_after\": {}, \"budget\": {}, \"final_gap\": {:.4}}},",
        conv.rejoin_round,
        conv.bootstrap_weight,
        conv.eps,
        conv.converged_after,
        conv.convergence_budget,
        conv.final_gap
    );
    let _ = writeln!(
        out,
        "  \"determinism\": {{\"chain_bytes\": {chain_bytes}, \"certs\": {det_certs}}},"
    );
    let _ = writeln!(out, "  \"asserts\": {{");
    let _ = writeln!(out, "    \"regret_bound_under_churn\": \"pass\",");
    let _ = writeln!(out, "    \"newcomer_convergence\": \"pass\",");
    let _ = writeln!(out, "    \"quorum_safety_across_epochs\": \"pass\",");
    let _ = writeln!(out, "    \"silence_eviction\": \"pass\",");
    let _ = writeln!(out, "    \"two_run_determinism\": \"pass\"");
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    std::fs::write(&out_path, &out).expect("write bench json");
    println!("\nwritten to {out_path}");
}
