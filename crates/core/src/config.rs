//! Protocol configuration: every tunable named in the paper plus the
//! simulation-level knobs.

use prb_crypto::signer::CryptoScheme;
use prb_net::topology::TopologyParams;
use prb_reputation::ReputationParams;

use crate::behavior::GovernorProfile;

use std::fmt;

/// How the provider↔collector bipartite graph is wired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Deterministic cyclic wiring.
    Cyclic,
    /// Seeded random r-regular wiring.
    Random,
}

/// Governor screening policy — the paper's mechanism and two baselines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GovernorMode {
    /// Algorithm 2: reputation-guided screening with parameter `f`.
    Reputation,
    /// Baseline: validate every transaction (`f → 0` limit; the behaviour
    /// of classical permissioned chains the paper improves on).
    CheckAll,
    /// Baseline: never validate; trust the weighted majority label
    /// blindly (`f → 1` limit without the `+1`-label safeguard).
    CheckNone,
}

impl fmt::Display for GovernorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GovernorMode::Reputation => "reputation",
            GovernorMode::CheckAll => "check-all",
            GovernorMode::CheckNone => "check-none",
        })
    }
}

/// How the real status of *unchecked* transactions becomes known
/// (Theorem 1 assumes it is *"revealed sometime after"*).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RevealPolicy {
    /// Only provider `argue` calls reveal statuses (valid transactions
    /// wrongly recorded invalid). Invalid unchecked transactions are never
    /// revealed — reputations only learn from argues.
    ArgueOnly,
    /// Every unchecked transaction's truth surfaces `rounds` rounds after
    /// it was recorded (settlement/audit evidence), in addition to argues.
    AfterRounds(u32),
    /// Each unchecked transaction's truth surfaces independently with the
    /// given probability, after the given number of rounds.
    Probabilistic {
        /// Chance the truth ever surfaces.
        prob: f64,
        /// Delay in rounds when it does.
        rounds: u32,
    },
}

/// Full configuration of a protocol simulation.
#[derive(Clone, Debug)]
pub struct ProtocolConfig {
    /// Number of providers `l`.
    pub providers: u32,
    /// Number of collectors `n`.
    pub collectors: u32,
    /// Number of governors `m`.
    pub governors: u32,
    /// Collectors per provider `r`.
    pub replication: u32,
    /// Reputation mechanism parameters (`β`, `f`, `μ`, `ν`).
    pub reputation: ReputationParams,
    /// Universal bound on transactions per block.
    pub b_limit: usize,
    /// Argue latency bound `U` (in unchecked transactions per provider).
    pub argue_limit_u: u64,
    /// Governor screening policy.
    pub governor_mode: GovernorMode,
    /// Reveal policy for unchecked transactions.
    pub reveal: RevealPolicy,
    /// Signature scheme.
    pub crypto: CryptoScheme,
    /// Topology wiring.
    pub topology: TopologyKind,
    /// Transactions each provider creates per round.
    pub tx_per_provider: u32,
    /// Initial stake per governor (units; each unit is one VRF lottery
    /// ticket per round).
    pub stake_per_governor: u64,
    /// Minimum network latency (ticks).
    pub min_delay: u64,
    /// Maximum network latency Δ (ticks).
    pub max_delay: u64,
    /// Profit credited per valid transaction executed in a block, split
    /// among collectors by reputation (§3.4.3).
    pub profit_per_tx: f64,
    /// Modeled cost of one `validate(tx)` call, in ticks (used by the
    /// throughput metric, not by event scheduling).
    pub validation_cost: u64,
    /// Paranoid block adoption: re-verify every entry's provider and
    /// collector signatures before appending a received block. The paper
    /// assumes governors do not fabricate (§3.4.3), so this is off by
    /// default; turning it on defends against a Byzantine leader at the
    /// cost of `b` signature verifications per block.
    pub verify_blocks: bool,
    /// Worker threads for the governors' batched signature verification
    /// pool (`0` = host parallelism). Any value yields bit-identical
    /// ledgers — pooling changes wall-clock only — so the default of 1
    /// keeps small simulations free of thread overhead.
    pub verify_threads: usize,
    /// Minimum batch size before the verification pool fans out to worker
    /// threads; smaller batches verify inline on the caller's thread.
    /// Verdict-neutral (wall-clock only); defaults to
    /// `prb_consensus::verify_pool::PAR_MIN_ITEMS`.
    pub verify_inline_min: usize,
    /// Wrap the critical hops (provider→collector submission,
    /// collector→governor upload, block dissemination) in the ack-based
    /// retry envelope from `prb_net::retry`. Off by default: a loss-free
    /// network needs no retransmission and the envelope adds ack
    /// traffic. Turn on for fault-injection runs.
    pub reliable_delivery: bool,
    /// Maximum blocks per `SyncResponse` page during anti-entropy chain
    /// sync; a recovering node pages until it reaches the peer's head.
    pub sync_page: usize,
    /// Byzantine behaviour per governor (E12 fault injection). Empty
    /// means every governor is honest; otherwise one
    /// [`GovernorProfile`] per governor, index-aligned.
    pub governor_profiles: Vec<GovernorProfile>,
    /// Open-loop ingestion (the E15 scale harness): transactions arrive
    /// at the collectors at a driver-controlled rate instead of being
    /// generated per provider per round. Collectors queue arrivals in a
    /// bounded mempool and drain it at each round start; when on,
    /// `tx_per_provider` may be 0 and the closed-loop per-round volume
    /// check against `b_limit` is skipped (admission control bounds the
    /// volume instead).
    pub open_loop: bool,
    /// Capacity of each collector's open-loop mempool. When a new
    /// arrival would exceed it, the *oldest* queued transaction is shed
    /// deterministically (`tx.dropped{shed}` + `mempool.shed`).
    pub mempool_capacity: usize,
    /// Capacity of each governor's pending aggregation pool. The pool
    /// holds transactions between first upload and the Δ-window
    /// screening timer; under sustained overload it would otherwise grow
    /// without bound. Exceeding it sheds the oldest pending transaction.
    pub pending_capacity: usize,
    /// Capacity of each node's [`prb_net::retry::ReliableSender`]
    /// in-flight queue. Exceeding it drops the oldest tracked send
    /// (`net.retry.dropped`) — the retransmission guarantee degrades
    /// before memory does.
    pub retry_capacity: usize,
    /// Form a quorum-signed checkpoint certificate every this many
    /// blocks (E16 durability/state-sync harness). `0` (default)
    /// disables checkpointing entirely — no shares are signed or sent —
    /// keeping every existing experiment byte-identical. With interval
    /// `k`, each governor signs a [`prb_consensus::checkpoint`] share
    /// when it commits block `i·k` and assembles a certificate once a
    /// quorum of shares over the same state digest arrives; the latest
    /// certificate is offered during anti-entropy sync so a far-behind
    /// peer can re-anchor and fetch only the suffix (O(delta) sync).
    pub checkpoint_interval: u64,
    /// Root directory for the governors' durable block stores
    /// (`prb-store`). `None` (default) keeps the ledger purely in
    /// memory. When set, governor `g` persists its chain under
    /// `<store_dir>/g<g>` and a restart recovers the durable prefix
    /// from disk instead of resyncing from genesis.
    pub store_dir: Option<std::path::PathBuf>,
    /// Segment-file size threshold for the durable store (bytes). A
    /// segment rolls when the next record would cross this size.
    pub store_segment_bytes: u64,
    /// Per-round probability that each *departed* collector rejoins
    /// under driver-injected churn (E17). `0.0` (default) disables join
    /// churn entirely — no membership messages, no extra RNG draws,
    /// existing runs stay byte-identical.
    pub join_rate: f64,
    /// Per-round probability that each *live* collector leaves under
    /// driver-injected churn (E17), subject to the driver's live-count
    /// floor (strictly more than half stay). `0.0` (default) disables
    /// leave churn.
    pub leave_rate: f64,
    /// Bootstrap reputation prior for newly admitted (or readmitted)
    /// collectors: every per-provider screening weight starts at this
    /// value instead of the incumbent 1.0. Must be in `(0, 1]`.
    pub bootstrap_rep: f64,
    /// Half-life, in silent rounds, of a non-uploading collector's
    /// screening weights: each silent round multiplies them by
    /// `0.5^(1/halflife)` (floored at the reputation `weight_floor`).
    /// `0` (default) disables silence decay.
    pub decay_halflife: u64,
    /// Seed for the deterministic fast hasher behind every hot-path map
    /// ([`prb_crypto::fxhash`]). Any value yields byte-identical ledgers —
    /// the `hash_seed_never_changes_the_ledger` regression proves map
    /// iteration order never reaches consensus. `0` means the library
    /// default seed.
    pub hash_seed: u64,
    /// Master seed; every run with the same config is bit-identical.
    pub seed: u64,
    /// Workload/driver seed override. `None` (the default) derives the
    /// driver RNG from [`seed`](Self::seed), preserving the historical
    /// bit-identical runs. A restart over a durable
    /// [`store_dir`](Self::store_dir) should set this to a fresh value:
    /// identities (which derive from `seed`) stay the same so persisted
    /// checkpoint certificates still verify, while the resumed workload
    /// is decorrelated from the crashed run's — otherwise the driver
    /// would regenerate the exact transactions already committed in the
    /// recovered chain and every new block would dedup to empty.
    pub driver_seed: Option<u64>,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            providers: 8,
            collectors: 8,
            governors: 4,
            replication: 4,
            reputation: ReputationParams::default(),
            b_limit: 4096,
            argue_limit_u: 64,
            governor_mode: GovernorMode::Reputation,
            reveal: RevealPolicy::AfterRounds(1),
            crypto: CryptoScheme::sim(),
            topology: TopologyKind::Cyclic,
            tx_per_provider: 4,
            stake_per_governor: 4,
            min_delay: 1,
            max_delay: 10,
            profit_per_tx: 1.0,
            validation_cost: 50,
            verify_blocks: false,
            verify_threads: 1,
            verify_inline_min: 8,
            reliable_delivery: false,
            sync_page: 16,
            governor_profiles: Vec::new(),
            open_loop: false,
            mempool_capacity: 8192,
            pending_capacity: 65536,
            retry_capacity: 65536,
            checkpoint_interval: 0,
            join_rate: 0.0,
            leave_rate: 0.0,
            bootstrap_rep: 1.0,
            decay_halflife: 0,
            store_dir: None,
            store_segment_bytes: 1 << 20,
            hash_seed: 0,
            seed: 42,
            driver_seed: None,
        }
    }
}

impl ProtocolConfig {
    /// Providers per collector, `s = r·l / n`.
    pub fn s(&self) -> u32 {
        self.replication * self.providers / self.collectors
    }

    /// The topology parameters implied by this config.
    pub fn topology_params(&self) -> TopologyParams {
        TopologyParams {
            providers: self.providers,
            collectors: self.collectors,
            governors: self.governors,
            replication: self.replication,
        }
    }

    /// Ticks reserved per round: enough for collection, upload, the Δ
    /// aggregation window, screening and block dissemination.
    pub fn round_ticks(&self) -> u64 {
        // collection + collector→governor + aggregation + proposal.
        self.collect_close(self.tx_per_provider)
            + 3 * self.max_delay
            + self.aggregation_window()
            + 4 * self.max_delay
            + 20
    }

    /// Ticks from a closed-loop round's start to the close of its
    /// collection phase, when collectors upload what they labeled: the
    /// providers' spread of `txs` transactions each, plus Δ for the last
    /// provider→collector broadcast to land.
    pub fn collect_close(&self, txs: u32) -> u64 {
        2 * u64::from(txs) + self.max_delay
    }

    /// The governor-side Δ timer for collecting all copies of one
    /// transaction (§3.4.1's `starttime(tx, Δ)`).
    pub fn aggregation_window(&self) -> u64 {
        2 * self.max_delay + 2
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.topology_params().validate()?;
        self.reputation.validate().map_err(|e| e.to_string())?;
        if self.b_limit == 0 {
            return Err("b_limit must be positive".into());
        }
        if self.tx_per_provider == 0 && !self.open_loop {
            return Err("tx_per_provider must be positive in closed-loop mode".into());
        }
        if self.min_delay > self.max_delay {
            return Err("min_delay exceeds max_delay".into());
        }
        if self.stake_per_governor == 0 {
            return Err("governors need stake to be electable".into());
        }
        if self.sync_page == 0 {
            return Err("sync_page must be positive".into());
        }
        if self.verify_inline_min == 0 {
            return Err("verify_inline_min must be positive".into());
        }
        if let RevealPolicy::Probabilistic { prob, .. } = self.reveal {
            if !(0.0..=1.0).contains(&prob) {
                return Err(format!("reveal probability {prob} out of [0,1]"));
            }
        }
        if !self.open_loop {
            let per_round = self.providers as u64 * self.tx_per_provider as u64;
            if per_round > self.b_limit as u64 {
                return Err(format!(
                    "{per_round} transactions per round exceed b_limit {}",
                    self.b_limit
                ));
            }
        }
        if self.mempool_capacity == 0 {
            return Err("mempool_capacity must be positive".into());
        }
        if self.pending_capacity == 0 {
            return Err("pending_capacity must be positive".into());
        }
        if self.retry_capacity == 0 {
            return Err("retry_capacity must be positive".into());
        }
        if !(self.join_rate.is_finite() && self.join_rate >= 0.0) {
            return Err(format!(
                "join_rate must be finite and >= 0, got {}",
                self.join_rate
            ));
        }
        if !(self.leave_rate.is_finite() && self.leave_rate >= 0.0) {
            return Err(format!(
                "leave_rate must be finite and >= 0, got {}",
                self.leave_rate
            ));
        }
        if !(self.bootstrap_rep.is_finite()
            && self.bootstrap_rep > 0.0
            && self.bootstrap_rep <= 1.0)
        {
            return Err(format!(
                "bootstrap_rep must be in (0,1], got {}",
                self.bootstrap_rep
            ));
        }
        if self.store_segment_bytes < 4096 {
            return Err("store_segment_bytes must be at least 4096".into());
        }
        if !self.governor_profiles.is_empty()
            && self.governor_profiles.len() != self.governors as usize
        {
            return Err(format!(
                "governor_profiles has {} entries for {} governors",
                self.governor_profiles.len(),
                self.governors
            ));
        }
        for profile in &self.governor_profiles {
            profile.validate();
        }
        Ok(())
    }

    /// The effective fast-hash seed: `hash_seed`, or the library default
    /// when left at 0.
    pub fn resolved_hash_seed(&self) -> u64 {
        if self.hash_seed == 0 {
            prb_crypto::fxhash::DEFAULT_SEED
        } else {
            self.hash_seed
        }
    }

    /// Whether any churn machinery is active: rate-driven joins/leaves
    /// or silence decay. When `false` the membership subsystem sends no
    /// messages and draws no randomness — existing runs are preserved
    /// byte-for-byte.
    pub fn churn_enabled(&self) -> bool {
        self.join_rate > 0.0 || self.leave_rate > 0.0 || self.decay_halflife > 0
    }

    /// The per-silent-round decay factor implied by
    /// [`decay_halflife`](Self::decay_halflife): `0.5^(1/halflife)`, or
    /// `None` when decay is disabled.
    pub fn decay_factor(&self) -> Option<f64> {
        if self.decay_halflife == 0 {
            None
        } else {
            Some(0.5f64.powf(1.0 / self.decay_halflife as f64))
        }
    }

    /// The behaviour profile of governor `g` (honest when none configured).
    pub fn governor_profile(&self, g: u32) -> GovernorProfile {
        self.governor_profiles
            .get(g as usize)
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ProtocolConfig::default().validate().unwrap();
    }

    #[test]
    fn s_is_computed() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.s(), 4); // 4·8/8
    }

    #[test]
    fn invalid_topology_rejected() {
        let cfg = ProtocolConfig {
            replication: 3,
            collectors: 7,
            providers: 5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn invalid_reputation_rejected() {
        let mut cfg = ProtocolConfig::default();
        cfg.reputation.f = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn block_limit_must_cover_round_volume() {
        let cfg = ProtocolConfig {
            b_limit: 10,
            tx_per_provider: 4,
            ..Default::default() // 8 providers × 4 = 32 > 10
        };
        assert!(cfg.validate().unwrap_err().contains("b_limit"));
    }

    #[test]
    fn delay_ordering_checked() {
        let cfg = ProtocolConfig {
            min_delay: 20,
            max_delay: 10,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn reveal_probability_checked() {
        let cfg = ProtocolConfig {
            reveal: RevealPolicy::Probabilistic {
                prob: 1.5,
                rounds: 1,
            },
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_inline_threshold_rejected() {
        let cfg = ProtocolConfig {
            verify_inline_min: 0,
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("verify_inline_min"));
    }

    #[test]
    fn zero_sync_page_rejected() {
        let cfg = ProtocolConfig {
            sync_page: 0,
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("sync_page"));
    }

    #[test]
    fn round_ticks_cover_aggregation() {
        let cfg = ProtocolConfig::default();
        assert!(cfg.round_ticks() > cfg.aggregation_window() + 2 * cfg.max_delay);
        // Uploads released at the collection close still reach every
        // governor and finish their Δ window inside the round.
        let window_closed =
            cfg.collect_close(cfg.tx_per_provider) + cfg.max_delay + cfg.aggregation_window();
        assert!(window_closed < cfg.round_ticks());
        // Spread, 8Δ, the Δ window and a margin: every schedule pin
        // depends on this exact budget.
        assert_eq!(cfg.round_ticks(), 2 * 4 + 8 * 10 + 22 + 20);
    }

    #[test]
    fn governor_profiles_must_align_with_committee() {
        let cfg = ProtocolConfig {
            governor_profiles: vec![GovernorProfile::equivocator(); 3],
            ..Default::default() // 4 governors
        };
        assert!(cfg
            .validate()
            .unwrap_err()
            .contains("governor_profiles has 3 entries for 4 governors"));
        let cfg = ProtocolConfig {
            governor_profiles: vec![GovernorProfile::honest(); 4],
            ..Default::default()
        };
        cfg.validate().unwrap();
        assert!(cfg.governor_profile(2).is_honest());
        // No profiles configured: everyone defaults to honest.
        assert!(ProtocolConfig::default().governor_profile(0).is_honest());
    }

    #[test]
    fn zero_capacities_rejected() {
        for patch in [
            |c: &mut ProtocolConfig| c.mempool_capacity = 0,
            |c: &mut ProtocolConfig| c.pending_capacity = 0,
            |c: &mut ProtocolConfig| c.retry_capacity = 0,
        ] {
            let mut cfg = ProtocolConfig::default();
            patch(&mut cfg);
            assert!(cfg.validate().unwrap_err().contains("capacity"));
        }
    }

    #[test]
    fn open_loop_relaxes_closed_loop_volume_checks() {
        // Closed loop: zero tx_per_provider and over-b_limit volume both
        // rejected.
        let cfg = ProtocolConfig {
            tx_per_provider: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        // Open loop: both allowed — admission control bounds the volume.
        let cfg = ProtocolConfig {
            open_loop: true,
            tx_per_provider: 0,
            providers: 100_000,
            collectors: 10,
            replication: 2,
            ..Default::default()
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn hash_seed_zero_resolves_to_library_default() {
        let cfg = ProtocolConfig::default();
        assert_eq!(cfg.resolved_hash_seed(), prb_crypto::fxhash::DEFAULT_SEED);
        let cfg = ProtocolConfig {
            hash_seed: 7,
            ..Default::default()
        };
        assert_eq!(cfg.resolved_hash_seed(), 7);
    }

    #[test]
    fn churn_fields_validated_and_gate_correctly() {
        let cfg = ProtocolConfig::default();
        assert!(!cfg.churn_enabled(), "defaults must disable churn");
        assert_eq!(cfg.decay_factor(), None);
        for patch in [
            |c: &mut ProtocolConfig| c.join_rate = -0.1,
            |c: &mut ProtocolConfig| c.join_rate = f64::NAN,
            |c: &mut ProtocolConfig| c.leave_rate = -1.0,
            |c: &mut ProtocolConfig| c.bootstrap_rep = 0.0,
            |c: &mut ProtocolConfig| c.bootstrap_rep = 1.5,
            |c: &mut ProtocolConfig| c.bootstrap_rep = f64::NAN,
        ] {
            let mut cfg = ProtocolConfig::default();
            patch(&mut cfg);
            assert!(cfg.validate().is_err());
        }
        let cfg = ProtocolConfig {
            join_rate: 0.5,
            leave_rate: 0.25,
            bootstrap_rep: 0.5,
            decay_halflife: 4,
            ..Default::default()
        };
        cfg.validate().unwrap();
        assert!(cfg.churn_enabled());
        let f = cfg.decay_factor().unwrap();
        assert!((f.powi(4) - 0.5).abs() < 1e-12, "4 rounds halve the weight");
        // Decay alone also counts as churn (it changes reputations).
        let cfg = ProtocolConfig {
            decay_halflife: 8,
            ..Default::default()
        };
        assert!(cfg.churn_enabled());
    }

    #[test]
    fn governor_mode_display() {
        assert_eq!(GovernorMode::Reputation.to_string(), "reputation");
        assert_eq!(GovernorMode::CheckAll.to_string(), "check-all");
        assert_eq!(GovernorMode::CheckNone.to_string(), "check-none");
    }
}
