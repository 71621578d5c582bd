//! The simulation driver: builds the three-tier deployment and runs
//! protocol rounds end to end.
//!
//! One driver, two provider tiers (DESIGN.md § "One driver"). The
//! *actors* tier instantiates one [`ProviderNode`] and one enrolled key
//! per provider; the driver owns their closed-loop workload, relays
//! committed-block notifications to them (their `retrieve(s)`), and
//! schedules the reveal events assumed by Theorem 1. The *interned* tier,
//! built by [`crate::scale::ScaleSim`] for the paper's l = 10⁵–10⁶ sizes,
//! has no provider actors: provider ids sign through a small pool of
//! enrolled keys, and the open-loop front end injects their transactions.
//! Everything else — transactions, labels, screening, blocks, argues —
//! travels through the simulated network between the node actors.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prb_consensus::membership::{MemberRole, MembershipAction, MembershipRequest, LEAD};
use prb_consensus::stake::StakeTransfer;
use prb_crypto::identity::{IdentityManager, NodeId};
use prb_crypto::signer::{KeyPair, PublicKey};
use prb_ledger::block::{Block, Verdict};
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::TxId;
use prb_net::fault::FaultPlan;
use prb_net::message::NodeIdx;
use prb_net::retry::RetryConfig;
use prb_net::sim::{NetConfig, Network};
use prb_net::stats::MessageStats;
use prb_net::time::{SimDuration, SimTime};
use prb_net::topology::Topology;
use prb_obs::{Obs, ObsHandle, Role};

use crate::behavior::{CollectorProfile, ProviderProfile};
use crate::collector::CollectorNode;
use crate::config::{ProtocolConfig, RevealPolicy, TopologyKind};
use crate::governor::GovernorNode;
use crate::metrics::GovernorMetrics;
use crate::msg::ProtocolMsg;
use crate::node::{NodeActor, Outbox};
use crate::provider::ProviderNode;
use crate::scale::Arrival;
use crate::workload::{UniformWorkload, Workload};

/// Checked tier-offset arithmetic for kernel node indices: sums are
/// computed in `u64` and narrowed with `try_from`, so a configuration
/// whose node count overflows the platform `usize` (or a `u32`
/// intermediate sum at 10⁶-provider scale) fails loudly instead of
/// silently truncating into a wrong — but valid-looking — node index.
pub(crate) fn net_index(idx: u64) -> NodeIdx {
    NodeIdx::try_from(idx).expect("node index fits the platform usize")
}

/// Where each tier sits among the kernel's node indices: provider actors
/// at `0..providers`, collectors next, governors last. `providers` counts
/// provider *actors*: `l` on the actors tier, 0 on the interned one.
#[derive(Clone, Copy, Debug)]
struct Layout {
    providers: u32,
    collectors: u32,
}

impl Layout {
    fn collector(self, c: u32) -> NodeIdx {
        net_index(u64::from(self.providers) + u64::from(c))
    }

    fn governor(self, g: u32) -> NodeIdx {
        net_index(u64::from(self.providers) + u64::from(self.collectors) + u64::from(g))
    }
}

/// The provider tier of a deployment.
pub(crate) enum Providers {
    /// One [`ProviderNode`] actor and one enrolled key per provider; the
    /// driver hands them this closed-loop workload every round.
    Actors(Box<dyn Workload>),
    /// Interned ids with no actor: provider `p` signs with
    /// `pool[p % pool.len()]`, and every collector and governor resolves
    /// its key through the same mapping.
    Interned(Vec<KeyPair>),
}

/// What one round step feeds the deployment.
pub(crate) enum Load {
    /// Closed loop: `tx_per_provider` fresh transactions per provider actor.
    Collect,
    /// Closed loop, no new transactions: in-flight argues and reveals land.
    Drain,
    /// Open loop: the arrivals of this round's window.
    Arrivals(Vec<Arrival>),
}

/// What happened in one round (driver's view, read from governor 0).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundOutcome {
    /// The round number.
    pub round: u64,
    /// The leader governor 0 elected, if any.
    pub leader: Option<u32>,
    /// Serial of the block committed this round, if one was.
    pub block_serial: Option<u64>,
    /// Transactions in that block.
    pub txs_in_block: usize,
}

/// Builder for a [`Simulation`].
pub struct SimulationBuilder {
    cfg: ProtocolConfig,
    workload: Option<Box<dyn Workload>>,
    collector_profiles: Vec<CollectorProfile>,
    provider_profiles: Vec<ProviderProfile>,
    /// `Some(pool)` builds the interned provider tier with `pool` keys.
    signer_pool: Option<u32>,
}

impl fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Overrides the workload (default: [`UniformWorkload`] driven by the
    /// provider profiles' invalid rates).
    pub fn workload(mut self, workload: Box<dyn Workload>) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Sets all collector profiles at once.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the configured collector count.
    pub fn collector_profiles(mut self, profiles: Vec<CollectorProfile>) -> Self {
        assert_eq!(
            profiles.len(),
            self.cfg.collectors as usize,
            "need one profile per collector"
        );
        self.collector_profiles = profiles;
        self
    }

    /// Sets the profile of one collector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn collector_profile(mut self, index: u32, profile: CollectorProfile) -> Self {
        self.collector_profiles[index as usize] = profile;
        self
    }

    /// Sets all provider profiles at once.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the configured provider count.
    pub fn provider_profiles(mut self, profiles: Vec<ProviderProfile>) -> Self {
        assert_eq!(
            profiles.len(),
            self.cfg.providers as usize,
            "need one profile per provider"
        );
        self.provider_profiles = profiles;
        self
    }

    /// Sets the profile of one provider.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn provider_profile(mut self, index: u32, profile: ProviderProfile) -> Self {
        self.provider_profiles[index as usize] = profile;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration.
    pub fn build(self) -> Result<Simulation, String> {
        Simulation::from_builder(self)
    }
}

/// A fully wired protocol deployment.
pub struct Simulation {
    cfg: ProtocolConfig,
    pub(crate) net: Network<NodeActor>,
    pub(crate) topology: Rc<Topology>,
    oracle: Rc<RefCell<ValidityOracle>>,
    pub(crate) providers: Providers,
    layout: Layout,
    governor_keys: Vec<KeyPair>,
    collector_keys: Vec<KeyPair>,
    stake_nonces: Vec<u64>,
    driver_rng: StdRng,
    obs: ObsHandle,
    /// Crypto counter values when the obs hub was installed, so the
    /// summary reports per-run deltas of the process-wide counters.
    crypto_stats_base: prb_crypto::stats::CryptoStats,
    round: u64,
    next_start: u64,
    observed_height: u64,
    /// Transactions already scheduled for reveal (argue may race; the
    /// governor dedupes, this only avoids duplicate events).
    reveal_scheduled: HashSet<TxId>,
    /// Driver's view of which collectors are live (E17 churn): departed
    /// collectors generate no uploads and providers skip them.
    collector_live: Vec<bool>,
    /// Collectors with a membership request in flight (drawn or
    /// submitted, not yet applied) — suppresses duplicate draws.
    churn_inflight: HashSet<u32>,
    /// The collector transitions applied to the actors that governor 0
    /// still held due when they were: applied again, they would clear a
    /// newer request's in-flight mark.
    churn_applied: Vec<MembershipRequest>,
    /// Collector transitions applied to the actors so far.
    churn_transitions: u64,
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("round", &self.round)
            .field("height", &self.observed_height)
            .finish_non_exhaustive()
    }
}

/// Enrols `count` nodes of one role, in index order: their key pairs and
/// certified public keys.
fn enroll(
    im: &mut IdentityManager,
    count: u32,
    id: fn(u32) -> NodeId,
) -> Result<(Vec<KeyPair>, Vec<PublicKey>), String> {
    let creds = (0..count)
        .map(|i| im.enroll(id(i)).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let pks = creds
        .iter()
        .map(|c| c.certificate.public_key.clone())
        .collect();
    Ok((creds.into_iter().map(|c| c.keypair).collect(), pks))
}

impl Simulation {
    /// Starts building a simulation for `cfg`.
    pub fn builder(cfg: ProtocolConfig) -> SimulationBuilder {
        let collectors = cfg.collectors as usize;
        let providers = cfg.providers as usize;
        SimulationBuilder {
            cfg,
            workload: None,
            collector_profiles: vec![CollectorProfile::honest(); collectors],
            provider_profiles: vec![ProviderProfile::default(); providers],
            signer_pool: None,
        }
    }

    /// The interned provider tier with honest collectors and `pool`
    /// signing keys ([`crate::scale::ScaleSim`] is its front end). No
    /// per-provider state is allocated, not even a profile.
    pub(crate) fn interned(cfg: ProtocolConfig, pool: u32) -> Result<Self, String> {
        let collectors = cfg.collectors as usize;
        Self::from_builder(SimulationBuilder {
            cfg,
            workload: None,
            collector_profiles: vec![CollectorProfile::honest(); collectors],
            provider_profiles: Vec::new(),
            signer_pool: Some(pool),
        })
    }

    /// A simulation with all-honest nodes and the default workload.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration.
    pub fn new(cfg: ProtocolConfig) -> Result<Self, String> {
        Self::builder(cfg).build()
    }

    /// The one construction path, for either provider tier.
    fn from_builder(builder: SimulationBuilder) -> Result<Self, String> {
        let SimulationBuilder {
            cfg,
            workload,
            collector_profiles,
            provider_profiles,
            signer_pool,
        } = builder;
        cfg.validate()?;
        let mut seed_rng = StdRng::seed_from_u64(cfg.seed);
        let topo_params = cfg.topology_params();
        let topology = Rc::new(match cfg.topology {
            TopologyKind::Cyclic => Topology::cyclic(topo_params)?,
            TopologyKind::Random => Topology::random(topo_params, &mut seed_rng)?,
        });
        let mut im = IdentityManager::new(cfg.crypto.clone(), &cfg.seed.to_be_bytes());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));

        let interned = signer_pool.is_some();
        let (n, m) = (cfg.collectors, cfg.governors);
        let layout = Layout {
            providers: if interned { 0 } else { cfg.providers },
            collectors: n,
        };
        let governor_base = layout.governor(0);
        let governor_nets: Vec<NodeIdx> = (0..m).map(|g| layout.governor(g)).collect();

        // Enroll everyone and gather public keys. The interned tier enrols
        // its pool only — key `k` stands in for every provider id `p` with
        // `p % pool == k` — so enrolment is O(pool), not O(l): the whole
        // point of the scale harness.
        let keyed_providers = signer_pool.unwrap_or(cfg.providers);
        let (provider_keys, provider_pks) = enroll(&mut im, keyed_providers, NodeId::provider)?;
        let (collector_keys, collector_pks) = enroll(&mut im, n, NodeId::collector)?;
        let (governor_keys, governor_pks) = enroll(&mut im, m, NodeId::governor)?;
        // Actor-tier nodes know each provider's own key; the interned
        // tier's resolve every provider id through the pool instead.
        let (provider_pks, pk_pool) = if interned {
            (Vec::new(), provider_pks)
        } else {
            (provider_pks, Vec::new())
        };

        let mut net = Network::new(
            NetConfig::uniform(cfg.min_delay, cfg.max_delay),
            cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );

        for p in 0..layout.providers {
            let collector_nets = topology
                .collectors_of(p)
                .iter()
                .map(|&c| layout.collector(c))
                .collect();
            net.add_node(NodeActor::Provider(ProviderNode::new(
                p,
                provider_keys[p as usize].clone(),
                provider_profiles[p as usize],
                collector_nets,
                governor_nets.clone(),
                Rc::clone(&oracle),
            )));
        }
        for c in 0..n {
            let linked_pks = if interned {
                HashMap::new()
            } else {
                topology
                    .providers_of(c)
                    .iter()
                    .map(|&p| (p, provider_pks[p as usize].clone()))
                    .collect()
            };
            let mut node = CollectorNode::new(
                c,
                collector_keys[c as usize].clone(),
                cfg.crypto.clone(),
                collector_profiles[c as usize],
                linked_pks,
                governor_nets.clone(),
                Rc::clone(&oracle),
            );
            node.set_pk_pool(pk_pool.clone());
            if interned {
                // Open-loop ingestion through a bounded mempool.
                node.set_open_loop(cfg.mempool_capacity);
            }
            net.add_node(NodeActor::Collector(node));
        }
        for g in 0..m {
            let mut gov = GovernorNode::new(
                g,
                governor_keys[g as usize].clone(),
                cfg.clone(),
                Rc::clone(&topology),
                Rc::clone(&oracle),
                governor_base,
                collector_pks.clone(),
                provider_pks.clone(),
                governor_pks.clone(),
            );
            gov.set_pk_pool(pk_pool.clone());
            // Durable persistence: each governor mirrors its chain into
            // `<store_dir>/g<idx>`, recovering whatever durable prefix
            // (and checkpoint certificate) a previous run left there.
            if let Some(dir) = &cfg.store_dir {
                let opts = prb_store::StoreOptions {
                    chain_tag: b"prb-chain".to_vec(),
                    b_limit: cfg.b_limit,
                    segment_bytes: cfg.store_segment_bytes,
                    fsync: prb_store::FsyncPolicy::Always,
                };
                let (store, recovered) =
                    prb_store::BlockStore::open(&dir.join(format!("g{g}")), opts)
                        .map_err(|e| format!("governor {g} store: {e}"))?;
                gov.set_store(store, recovered);
            }
            net.add_node(NodeActor::governor(gov));
        }

        if cfg.reliable_delivery {
            // One retry policy for every critical hop, derived from Δ;
            // the pending queue is bounded by `retry_capacity` (oldest
            // tokens are abandoned first under sustained overload).
            let retry_cfg = RetryConfig::for_delta(SimDuration(cfg.max_delay))
                .with_max_pending(cfg.retry_capacity);
            for idx in 0..net.node_count() {
                *net.node_mut(idx).outbox_mut() = Outbox::reliable(retry_cfg);
            }
        }

        let providers = if interned {
            Providers::Interned(provider_keys)
        } else {
            Providers::Actors(workload.unwrap_or_else(|| {
                Box::new(UniformWorkload {
                    invalid_rates: provider_profiles.iter().map(|p| p.invalid_rate).collect(),
                    payload_len: 32,
                })
            }))
        };
        let driver_rng = StdRng::seed_from_u64(
            cfg.driver_seed
                .unwrap_or(cfg.seed)
                .wrapping_add(0x5151_5151),
        );
        // A restart over a durable store resumes with governor 0 already
        // holding its recovered prefix; the driver's block-notification
        // cursor starts past it (old blocks belong to the previous run's
        // workload — replaying their notifications against fresh
        // providers and a fresh oracle would be meaningless).
        let observed_height = if cfg.store_dir.is_some() {
            net.node(governor_base)
                .as_governor()
                .map_or(0, |g| g.chain().height())
        } else {
            0
        };
        let mut sim = Simulation {
            cfg,
            net,
            topology,
            oracle,
            providers,
            layout,
            stake_nonces: vec![0; m as usize],
            governor_keys,
            collector_live: vec![true; n as usize],
            collector_keys,
            driver_rng,
            obs: Obs::off(),
            crypto_stats_base: prb_crypto::stats::snapshot(),
            round: 0,
            next_start: 0,
            observed_height,
            reveal_scheduled: HashSet::new(),
            churn_inflight: HashSet::new(),
            churn_applied: Vec::new(),
            churn_transitions: 0,
        };
        // A restart over a durable store resumes with governor 0's
        // replayed membership: collectors it has out start out.
        for c in 0..n {
            if !sim.governor_node(0).committee().is_collector_active(c) {
                sim.set_collector_live(c, false);
            }
        }
        Ok(sim)
    }

    /// The configuration this simulation runs.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The wired topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of completed rounds.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// The tick the next round will start at.
    pub fn next_round_start(&self) -> u64 {
        self.next_start
    }

    /// Ticks one round spans.
    pub fn round_ticks(&self) -> u64 {
        self.cfg.round_ticks()
    }

    /// Network traffic statistics.
    pub fn net_stats(&self) -> &MessageStats {
        self.net.stats()
    }

    /// Events the kernel has processed so far: deliveries and timers.
    pub fn events_processed(&self) -> u64 {
        self.net.events_processed()
    }

    /// The validity oracle (for experiment scoring).
    pub fn oracle(&self) -> &Rc<RefCell<ValidityOracle>> {
        &self.oracle
    }

    /// Installs an observability hub on the network kernel and every
    /// node, and declares node roles on it. Until this runs the
    /// deployment carries the default disabled hub and pays nothing.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        let l = self.layout.providers as usize;
        let n = self.cfg.collectors as usize;
        let m = self.cfg.governors as usize;
        let mut roles = Vec::with_capacity(l + n + m);
        roles.extend(std::iter::repeat_n(Role::Provider, l));
        roles.extend(std::iter::repeat_n(Role::Collector, n));
        roles.extend(std::iter::repeat_n(Role::Governor, m));
        obs.set_roles(roles);
        self.net.set_obs(Rc::clone(&obs));
        for idx in 0..self.net.node_count() {
            let node = self.net.node_mut(idx);
            node.outbox_mut().set_obs(Rc::clone(&obs));
            match node {
                NodeActor::Provider(p) => p.set_obs(Rc::clone(&obs)),
                NodeActor::Collector(c) => c.set_obs(Rc::clone(&obs), idx as u64),
                NodeActor::Governor(g) => g.set_obs(Rc::clone(&obs)),
            }
        }
        self.obs = obs;
        self.crypto_stats_base = prb_crypto::stats::snapshot();
    }

    /// The observability hub (disabled unless [`Simulation::set_obs`]
    /// installed one).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Flushes the trace sink and renders the end-of-run summary:
    /// event counts per kind, then phase-latency percentiles in sim
    /// ticks. Empty when tracing is off.
    pub fn obs_summary(&self) -> String {
        if self.obs.is_enabled() {
            // Export the run's modexp and hashing hot-path activity (see
            // `prb_crypto::stats`): deltas of the process-wide counters
            // since the hub was installed.
            let d = prb_crypto::stats::snapshot().delta_since(&self.crypto_stats_base);
            let m = self.obs.metrics();
            m.add("crypto.modexp_calls", d.modexp_calls);
            m.add("crypto.multi_pow_calls", d.multi_pow_calls);
            m.add("crypto.table_builds", d.table_builds);
            m.add("crypto.table_pows", d.table_pows);
            m.add("crypto.batch.calls", d.batch_calls);
            m.add("crypto.batch.items", d.batch_items);
            m.add("crypto.batch.bisect_steps", d.batch_bisect_steps);
            m.add("crypto.batch.fallback_items", d.batch_fallback_items);
            m.add("crypto.sha256_calls", d.sha256_calls);
        }
        self.obs.flush();
        let mut out = self.obs.summary();
        if self.obs.is_enabled() {
            // Wall-clock phase attribution: how much of each round's real
            // time the crypto (verify-pool batches + VRF) accounted for.
            let m = self.obs.metrics();
            let round_ns = m.counter("wall.round_ns");
            let rounds = m.counter("wall.rounds");
            if round_ns > 0 && rounds > 0 {
                let crypto_ns = m.counter("wall.crypto_ns").min(round_ns);
                let other_ns = round_ns - crypto_ns;
                let pct = 100.0 * crypto_ns as f64 / round_ns as f64;
                out.push_str("\n## wall-clock phase profile\n");
                out.push_str(&format!(
                    "rounds {rounds}  avg round {:.2} ms  crypto {:.2} ms ({pct:.1}%)  non-crypto {:.2} ms\n",
                    round_ns as f64 / rounds as f64 / 1e6,
                    crypto_ns as f64 / rounds as f64 / 1e6,
                    other_ns as f64 / rounds as f64 / 1e6,
                ));
            }
            // What one collector signature and one governor-side check of
            // it cover: the entries of a released upload batch.
            if let Some(h) = m.histogram("gov.upload.batch_size") {
                out.push_str(&format!(
                    "upload batches released {}  entries/batch mean {:.2} p50 {} max {}\n",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.max(),
                ));
            }
        }
        out
    }

    fn governor_node(&self, g: u32) -> &GovernorNode {
        self.net
            .node(self.governor_net_index(g))
            .as_governor()
            .expect("index is a governor")
    }

    /// Governor `g`'s state (chain, reputation, metrics).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn governor(&self, g: u32) -> &GovernorNode {
        assert!(g < self.cfg.governors, "governor {g} out of range");
        self.governor_node(g)
    }

    /// Governor `g`'s metrics (shorthand).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn metrics(&self, g: u32) -> &GovernorMetrics {
        self.governor(g).metrics()
    }

    /// Provider `p`'s node.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range or the providers are interned (no
    /// provider actor exists).
    pub fn provider(&self, p: u32) -> &crate::provider::ProviderNode {
        assert!(p < self.layout.providers, "provider {p} has no actor");
        self.net
            .node(self.provider_net_index(p))
            .as_provider()
            .expect("index is a provider")
    }

    /// Collector `c`'s node.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn collector(&self, c: u32) -> &crate::collector::CollectorNode {
        assert!(c < self.cfg.collectors);
        self.net
            .node(self.collector_net_index(c))
            .as_collector()
            .expect("index is a collector")
    }

    /// Whether all governors hold identical chains (the Agreement
    /// property).
    pub fn chains_agree(&self) -> bool {
        self.chains_agree_among(&(0..self.cfg.governors).collect::<Vec<_>>())
    }

    /// Agreement restricted to a subset of governors (used when some have
    /// been crash-faulted: the property only covers live replicas).
    ///
    /// # Panics
    ///
    /// Panics if `governors` is empty or contains an out-of-range index.
    pub fn chains_agree_among(&self, governors: &[u32]) -> bool {
        let reference = self.governor_node(governors[0]).chain();
        governors[1..].iter().all(|&g| {
            let other = self.governor_node(g).chain();
            // `head_hash` is total (the anchor hash for a freshly
            // checkpoint-anchored chain), so agreement also covers
            // governors that re-anchored via state-sync.
            other.height() == reference.height() && other.head_hash() == reference.head_hash()
        })
    }

    /// Prefix agreement: every listed governor's chain is byte-identical
    /// to the others' up to the shortest height (the safety invariant
    /// under faults — a lagging replica may be short, never divergent).
    ///
    /// # Panics
    ///
    /// Panics if `governors` is empty or contains an out-of-range index.
    pub fn chains_prefix_agree(&self, governors: &[u32]) -> bool {
        let reference = self.governor_node(governors[0]).chain();
        let min_height = governors
            .iter()
            .map(|&g| self.governor_node(g).chain().height())
            .min()
            .expect("at least one governor");
        // A checkpoint-anchored chain holds no blocks below its base:
        // the comparable window starts at the highest base among the
        // listed governors (the certified prefix below it is vouched for
        // by the checkpoint quorum, not by block-by-block comparison).
        let lo = governors
            .iter()
            .map(|&g| self.governor_node(g).chain().base().max(1))
            .max()
            .expect("at least one governor");
        governors[1..].iter().all(|&g| {
            let other = self.governor_node(g).chain();
            (lo..=min_height).all(|serial| {
                match (reference.retrieve(serial), other.retrieve(serial)) {
                    (Some(a), Some(b)) => a.hash() == b.hash(),
                    _ => false,
                }
            })
        })
    }

    /// Installs a fault plan on the underlying network. Node indices in
    /// the plan are network indices: provider actors take `0..l`,
    /// collectors `l..l+n`, governors `l+n..l+n+m`, with `l = 0` on the
    /// interned tier (see [`Simulation::governor_net_index`]).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.net.set_faults(faults);
    }

    /// The network index of governor `g` (for fault plans).
    pub fn governor_net_index(&self, g: u32) -> NodeIdx {
        self.layout.governor(g)
    }

    /// The network index of collector `c` (for fault plans).
    pub fn collector_net_index(&self, c: u32) -> NodeIdx {
        self.layout.collector(c)
    }

    /// The network index of provider `p` (for fault plans).
    pub fn provider_net_index(&self, p: u32) -> NodeIdx {
        p as NodeIdx
    }

    /// Sends `msg` from outside the deployment to every governor at `at`.
    fn send_governors(&mut self, msg: &ProtocolMsg, at: SimTime) {
        for g in 0..self.cfg.governors {
            self.net
                .send_external(self.layout.governor(g), msg.kind(), msg.clone(), at);
        }
    }

    /// Submits a stake transfer on behalf of governor `from`, broadcast to
    /// every governor at the end of the current round (§3.4.3: stake
    /// movements are settled in the round's stake-transform block; the
    /// next round's election uses the new weights).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown governor indices; balance/nonce
    /// violations surface as the transfer simply not applying (each
    /// governor validates independently, exactly like a live deployment).
    pub fn submit_stake_transfer(&mut self, from: u32, to: u32, amount: u64) -> Result<(), String> {
        let key = self
            .governor_keys
            .get(from as usize)
            .ok_or_else(|| format!("unknown governor g{from}"))?;
        if to >= self.cfg.governors {
            return Err(format!("unknown governor g{to}"));
        }
        let nonce = self.stake_nonces[from as usize];
        self.stake_nonces[from as usize] += 1;
        let transfer = StakeTransfer::create(from, to, amount, nonce, key);
        let at = SimTime(self.next_start);
        self.send_governors(&ProtocolMsg::StakeTransfer(transfer), at);
        Ok(())
    }

    /// Submits a subject-signed membership request (join, voluntary
    /// leave, or an externally scripted eviction) to every governor,
    /// delivered at the start of the next round. The transition takes
    /// effect two rounds later, once a governor quorum certifies it
    /// (E17 dynamic membership).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range members, or when churn is
    /// disabled in the config (governors drop membership traffic then).
    pub fn submit_membership(
        &mut self,
        role: MemberRole,
        member: u32,
        action: MembershipAction,
    ) -> Result<(), String> {
        if !self.cfg.churn_enabled() {
            return Err(
                "membership churn is disabled (set a join/leave rate or decay half-life)".into(),
            );
        }
        let in_range = match role {
            MemberRole::Collector => member < self.cfg.collectors,
            MemberRole::Governor => member < self.cfg.governors,
        };
        if !in_range {
            return Err(format!("unknown {role:?} member {member}"));
        }
        let req = self.membership_request(role, member, action);
        if role == MemberRole::Collector {
            self.churn_inflight.insert(member);
        }
        let at = SimTime(self.next_start);
        self.send_governors(&ProtocolMsg::Membership(Box::new(req)), at);
        Ok(())
    }

    /// Driver's view of whether collector `c` is currently live.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn collector_is_live(&self, c: u32) -> bool {
        self.collector_live[c as usize]
    }

    /// Collector transitions applied to the actors so far: each certified
    /// one governor 0 applies, once.
    pub fn churn_transitions(&self) -> u64 {
        self.churn_transitions
    }

    /// Collectors whose membership request is still in flight: drawn or
    /// submitted, and not yet applied.
    pub fn churn_in_flight(&self) -> usize {
        self.churn_inflight.len()
    }

    /// Live collectors in ascending order (driver's view).
    pub fn live_collectors(&self) -> Vec<u32> {
        (0..self.cfg.collectors)
            .filter(|&c| self.collector_live[c as usize])
            .collect()
    }

    /// Applies the certified collector transitions governor 0 applies at
    /// `round`, in its order, to the collector actor (mempool cleared,
    /// retries purged) and every linked provider actor (fan-out skipped or
    /// resumed): the actors switch at the round boundary the committee
    /// does. Governor 0's view is the source of truth, so
    /// governor-originated evictions flip the actors too. A governor 0
    /// that missed a round's `StartRound` (crashed across it) still holds
    /// that round's transitions due at the next; each reaches the actors
    /// once, the first time it is due.
    fn apply_due_churn(&mut self, round: u64) {
        let due: Vec<MembershipRequest> = self
            .governor_node(0)
            .committee()
            .due(round)
            .filter(|r| r.role == MemberRole::Collector)
            .cloned()
            .collect();
        let mut applied = std::mem::take(&mut self.churn_applied);
        for req in &due {
            if let Some(at) = applied.iter().position(|a| a == req) {
                applied.swap_remove(at);
                continue;
            }
            self.set_collector_live(req.member, req.action == MembershipAction::Join);
            self.churn_transitions += 1;
        }
        self.churn_applied = due;
    }

    fn set_collector_live(&mut self, c: u32, live: bool) {
        self.collector_live[c as usize] = live;
        self.churn_inflight.remove(&c);
        let c_net = self.collector_net_index(c);
        if let NodeActor::Collector(node) = self.net.node_mut(c_net) {
            node.set_active(live);
        }
        // Interned providers have no actor to tell, but decay can still
        // evict one of their collectors.
        if self.layout.providers > 0 {
            for &prov in self.topology.providers_of(c) {
                if let NodeActor::Provider(node) = self.net.node_mut(prov as NodeIdx) {
                    node.set_collector_active(c_net, live);
                }
            }
        }
    }

    /// Draws this round's rate-driven join/leave requests from the
    /// driver RNG: each live collector leaves with probability
    /// `leave_rate`, each departed one rejoins with probability
    /// `join_rate`. A live-count floor keeps strictly more than half the
    /// collectors active so screening always has a quorum of experts.
    fn draw_churn(&mut self, at: SimTime) {
        if self.cfg.join_rate <= 0.0 && self.cfg.leave_rate <= 0.0 {
            return;
        }
        let n = self.cfg.collectors;
        let floor = n as usize / 2 + 1;
        let mut committed_live = (0..n)
            .filter(|&c| self.collector_live[c as usize] && !self.churn_inflight.contains(&c))
            .count();
        for c in 0..n {
            if self.churn_inflight.contains(&c) {
                continue;
            }
            let action = if self.collector_live[c as usize] {
                if self.cfg.leave_rate > 0.0
                    && committed_live > floor
                    && self.driver_rng.gen::<f64>() < self.cfg.leave_rate
                {
                    committed_live -= 1;
                    MembershipAction::Leave
                } else {
                    continue;
                }
            } else if self.cfg.join_rate > 0.0 && self.driver_rng.gen::<f64>() < self.cfg.join_rate
            {
                MembershipAction::Join
            } else {
                continue;
            };
            self.churn_inflight.insert(c);
            let req = self.membership_request(MemberRole::Collector, c, action);
            self.send_governors(&ProtocolMsg::Membership(Box::new(req)), at);
        }
    }

    /// `member`'s request to `action`, effective two rounds after the
    /// current one: signed by the subject, bonded when it joins, unsigned
    /// when it is an eviction.
    fn membership_request(
        &self,
        role: MemberRole,
        member: u32,
        action: MembershipAction,
    ) -> MembershipRequest {
        let effective = self.round + LEAD;
        if action == MembershipAction::Evict {
            return MembershipRequest::evict(role, member, effective);
        }
        let key = match role {
            MemberRole::Collector => &self.collector_keys[member as usize],
            MemberRole::Governor => &self.governor_keys[member as usize],
        };
        let bond = u64::from(action == MembershipAction::Join);
        MembershipRequest::create(role, member, action, bond, effective, key)
    }

    /// Runs one full protocol round; returns what was committed.
    pub fn run_round(&mut self) -> RoundOutcome {
        self.step(Load::Collect).0
    }

    /// The one round step behind [`Simulation::run_round`],
    /// [`Simulation::run_drain_rounds`] and the open loop's
    /// [`ScaleSim::run_round`](crate::scale::ScaleSim::run_round) (DESIGN.md
    /// § "One driver"). Returns the round's outcome and the entries of
    /// every block it saw commit.
    pub(crate) fn step(&mut self, load: Load) -> (RoundOutcome, u64) {
        // Wall-clock profile: `wall.round_ns` is the whole round;
        // `wall.crypto_ns` (fed at the verify-pool and VRF call sites)
        // splits out the crypto share, so non-crypto = round − crypto.
        let wall = self.obs.is_enabled().then(std::time::Instant::now);
        self.round += 1;
        let round = self.round;
        self.obs.set_round(round);
        let t0 = self.next_start;
        let round_ticks = self.cfg.round_ticks();
        self.next_start = t0 + round_ticks;
        let collect = matches!(load, Load::Collect);
        let drain = matches!(load, Load::Drain);
        let open = matches!(load, Load::Arrivals(_));

        // E17 dynamic membership: flip actors for the transitions due now
        // (the same boundary at which governors apply them).
        if self.cfg.churn_enabled() {
            self.apply_due_churn(round);
        }

        // The load decides the four places the tiers' schedules differ.
        // Open-loop arrivals go in before `StartRound`, which drains the
        // collectors' mempools (an arrival on the start tick rides this
        // round's drain). For the same reason collectors get `StartRound`
        // in every open-loop round; in the closed loop it tells them the
        // round number (sleeper profiles) and opens their collection
        // phase, and a drain round skips them. Closed-loop transactions
        // are handed out by `StartCollect` after `StartRound`, and only
        // the closed loop gets `EndCollect`.
        if let Load::Arrivals(arrivals) = load {
            let window = t0..self.next_start;
            for arrival in arrivals {
                self.inject(arrival, &window);
            }
        }
        let start = ProtocolMsg::StartRound { round };
        self.send_governors(&start, SimTime(t0));
        if !drain {
            for c in 0..self.cfg.collectors {
                let to = self.layout.collector(c);
                self.net
                    .send_external(to, start.kind(), start.clone(), SimTime(t0));
            }
        }
        // Only a closed-loop round under load draws new rate-driven
        // requests: a drain round lets the committee settle, and the
        // interned tier refuses churn rates. They go out after
        // `StartRound`, so that governors judge a request against the
        // transitions due this round: a Join drawn as the Leave before it
        // takes effect is then acceptable.
        if collect && self.cfg.churn_enabled() {
            self.draw_churn(SimTime(t0));
        }
        let txs_this_round = if collect { self.cfg.tx_per_provider } else { 0 };
        if let (true, Providers::Actors(workload)) = (collect, &mut self.providers) {
            for p in 0..self.layout.providers {
                let txs = (0..txs_this_round)
                    .map(|_| workload.next_tx(p, round, &mut self.driver_rng))
                    .collect();
                let msg = ProtocolMsg::StartCollect { round, txs };
                self.net
                    .send_external(p as NodeIdx, msg.kind(), msg, SimTime(t0));
            }
        }
        // Collection phase close: closed-loop collectors upload what they
        // labeled, one batch per governor. A drain round closes one too, so
        // a collector that missed the last close (crashed across it) does
        // not hold its labels through rounds that send it nothing else.
        let collect_close = t0 + self.cfg.collect_close(txs_this_round);
        if !open {
            for c in 0..self.cfg.collectors {
                let (to, msg) = (self.layout.collector(c), ProtocolMsg::EndCollect { round });
                self.net
                    .send_external(to, msg.kind(), msg, SimTime(collect_close));
            }
        }
        // Processing phase close: the leader packs the block, once the
        // uploads have crossed Δ and their Δ windows have closed.
        let propose_at =
            collect_close + 3 * self.cfg.max_delay + self.cfg.aggregation_window() + 10;
        self.send_governors(&ProtocolMsg::ProposeBlock { round }, SimTime(propose_at));
        self.net.run_until(SimTime(t0 + round_ticks));

        // Post-round bookkeeping from governor 0's chain. Even drain and
        // arrival-free rounds can commit blocks (argued re-records, the
        // screened backlog).
        let gov0 = self.governor_node(0);
        let mut outcome = RoundOutcome {
            round,
            leader: gov0.current_leader(),
            block_serial: None,
            txs_in_block: 0,
        };
        let height = gov0.chain().height();
        let mut committed = 0;
        for serial in self.observed_height + 1..=height {
            let block = self.committed_block(serial).clone();
            self.observed_height = serial;
            outcome.block_serial = Some(serial);
            outcome.txs_in_block = block.entries.len();
            committed += block.entries.len() as u64;
            if let Providers::Actors(_) = self.providers {
                self.notify_providers(&block);
            }
        }
        if let Some(wall) = wall {
            self.obs
                .add_counter("wall.round_ns", wall.elapsed().as_nanos() as u64);
            self.obs.add_counter("wall.rounds", 1);
        }
        (outcome, committed)
    }

    /// The block committed at `serial`, from governor 0's chain. Below a
    /// checkpoint governor 0 adopted, it holds none: the block comes from a
    /// governor whose chain reaches the certified anchor, so its blocks up
    /// to there are the certified ones.
    ///
    /// # Panics
    ///
    /// Panics if no governor holds the block.
    fn committed_block(&self, serial: u64) -> &Block {
        let chain0 = self.governor_node(0).chain();
        if let Some(block) = chain0.retrieve(serial) {
            return block;
        }
        let below = chain0.base().checked_sub(1).expect("no skipping");
        (0..self.cfg.governors)
            .map(|g| self.governor_node(g).chain())
            .find(|c| c.retrieve(below).map(Block::hash) == chain0.anchor())
            .and_then(|c| c.retrieve(serial))
            .expect("a governor holds the certified blocks")
    }

    /// Provider actors retrieve a committed block (`BlockNotify`) at the
    /// start of the next round, and its unchecked entries are scheduled
    /// for reveal per policy. Each provider is told its own entries, in
    /// block order — the only ones it acts on — and every provider gets a
    /// notice, empty or not. The interned tier has no provider to tell and
    /// never builds the verdict vectors.
    fn notify_providers(&mut self, block: &Block) {
        let mut own: Vec<Vec<(TxId, Verdict)>> = vec![Vec::new(); self.layout.providers as usize];
        let mut verdicts = Vec::with_capacity(block.entries.len());
        for e in &block.entries {
            let verdict = (e.tx.id(), e.verdict);
            if let Some(list) = own.get_mut(e.tx.payload.provider.index as usize) {
                list.push(verdict);
            }
            verdicts.push(verdict);
        }
        let notify_at = SimTime(self.next_start);
        for (p, verdicts) in own.into_iter().enumerate() {
            let msg = ProtocolMsg::BlockNotify {
                serial: block.serial,
                verdicts,
            };
            self.net
                .send_external(p as NodeIdx, msg.kind(), msg, notify_at);
        }
        self.schedule_reveals(&verdicts);
    }

    fn schedule_reveals(&mut self, verdicts: &[(TxId, Verdict)]) {
        let (reveal, lag_rounds) = match self.cfg.reveal {
            RevealPolicy::ArgueOnly => return,
            RevealPolicy::AfterRounds(k) => (1.0, k),
            RevealPolicy::Probabilistic { prob, rounds } => (prob, rounds),
        };
        let at = SimTime(self.next_start + lag_rounds as u64 * self.cfg.round_ticks());
        for (tx, verdict) in verdicts {
            if !matches!(verdict, Verdict::UncheckedInvalid | Verdict::UncheckedValid) {
                continue;
            }
            if !self.reveal_scheduled.insert(*tx) {
                continue;
            }
            if reveal < 1.0 && self.driver_rng.gen::<f64>() >= reveal {
                continue;
            }
            let valid = self.oracle.borrow().peek(*tx).unwrap_or(false);
            self.send_governors(&ProtocolMsg::Reveal { tx: *tx, valid }, at);
        }
    }

    /// Runs exactly `rounds` full protocol rounds
    /// ([`Simulation::run_round`]) and returns their outcomes. No drain
    /// round follows: reveals and argues scheduled past the last round
    /// land only if the caller runs [`Simulation::run_drain_rounds`].
    pub fn run(&mut self, rounds: u32) -> Vec<RoundOutcome> {
        let mut outcomes = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            outcomes.push(self.run_round());
        }
        outcomes
    }

    /// Runs rounds that carry no new transactions, letting in-flight
    /// argues and reveals settle (blocks may still commit argued
    /// re-records).
    pub fn run_drain_rounds(&mut self, rounds: u32) {
        for _ in 0..rounds {
            self.step(Load::Drain);
        }
    }

    /// Advances the network `ticks` past the end of the last round
    /// without starting new rounds, so in-flight retransmissions, acks
    /// and sync pages can land. The final round's block is otherwise
    /// still mid-dissemination at cutoff — a slow peer would read one
    /// short of the head through no fault of the recovery machinery.
    pub fn settle(&mut self, ticks: u64) {
        self.net.run_until(SimTime(self.next_start + ticks));
        self.next_start += ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_index_survives_u32_overflowing_tier_sums() {
        // Regression for the `(l + c) as NodeIdx` truncation class (the
        // PR 3 `b_limit` bug's sibling): tier offsets are summed in u64,
        // so sums past u32::MAX stay exact instead of wrapping into a
        // small — and therefore valid-looking — node index.
        let l = u32::MAX;
        let c = 7u32;
        assert_eq!(net_index(l as u64 + c as u64), u32::MAX as usize + 7);
        // Identity on the small values every real deployment uses.
        assert_eq!(net_index(0), 0);
        assert_eq!(net_index(1_000_000 + 64 + 4), 1_000_068);
    }

    #[test]
    fn a_clean_closed_loop_run_at_r_2_spills_no_slot() {
        // Two reports fit inline and a clean run has no absentees, so no
        // slot of any governor needs its boxed spill.
        let cfg = ProtocolConfig {
            replication: 2,
            ..ProtocolConfig::default()
        };
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        sim.run(6);
        for g in 0..cfg.governors {
            let gov = sim.governor(g);
            assert!(gov.metrics().screened > 0, "governor {g} screened nothing");
            assert_eq!(gov.tx_table().spilled(), 0, "governor {g}");
        }
    }

    #[test]
    fn block_checks_are_answered_by_the_slots_screening_filled() {
        // With `verify_blocks`, every governor re-checks the provider
        // signature of every block entry it appends. Each signature is
        // verified once, in the batch that screens its window; the slot
        // then answers every block check, and the memo, which holds only
        // forged verdicts and those whose window was gone, stays empty.
        let cfg = ProtocolConfig {
            replication: 2,
            verify_blocks: true,
            ..ProtocolConfig::default()
        };
        let mut sim = Simulation::new(cfg.clone()).unwrap();
        sim.run(6);
        for g in 0..cfg.governors {
            let gov = sim.governor(g);
            let m = gov.metrics();
            let chain = gov.chain();
            // A governor checks the entries of the blocks it did not build.
            let checked: u64 = (1..=chain.height())
                .map(|s| chain.retrieve(s).unwrap())
                .filter(|b| b.leader.index != g)
                .map(|b| b.entries.len() as u64)
                .sum();
            assert!(checked > 0, "governor {g} appended no peer block");
            assert_eq!(
                m.sig_memo_misses, m.screened,
                "governor {g}: one verify per tx"
            );
            assert_eq!(
                m.sig_memo_hits, checked,
                "governor {g}: every check answered"
            );
            assert_eq!(gov.tx_table().memo_len(), 0, "governor {g}");
        }
    }

    /// Collector churn at 0.5 both ways, seeds 1–40, with governor 0 — whose view the
    /// driver applies — crashed across rounds 4 and 5, so the transitions
    /// due then are still due in governor 0's view at round 6. Each must
    /// reach the actors once, and no collector may have two requests in
    /// flight: a request drawn while another for the same collector is
    /// pending repeats its action, which shows in a healthy governor's
    /// cert log as two joins or two leaves in a row.
    #[test]
    fn a_transition_governor_0_missed_reaches_the_actors_once() {
        let mut crossed = 0;
        for seed in 1..=40 {
            let cfg = ProtocolConfig {
                join_rate: 0.5,
                leave_rate: 0.5,
                seed,
                ..ProtocolConfig::default()
            };
            let rt = cfg.round_ticks();
            let mut sim = Simulation::new(cfg).unwrap();
            let mut faults = FaultPlan::none();
            faults.crash_window(sim.governor_net_index(0), SimTime(3 * rt), SimTime(5 * rt));
            sim.set_faults(faults);
            sim.run(12);
            sim.run_drain_rounds(2);
            let last = sim.round;
            let collector = |r: &MembershipRequest| r.role == MemberRole::Collector;
            let certs = sim.governor(0).committee().certs();
            crossed += certs
                .iter()
                .filter(|c| collector(&c.state) && (4..=5).contains(&c.state.effective_round))
                .count();
            let due = certs
                .iter()
                .filter(|c| collector(&c.state) && c.state.effective_round <= last)
                .count();
            assert_eq!(sim.churn_transitions(), due as u64, "seed {seed}");
            let mut order: Vec<&MembershipRequest> = sim
                .governor(1)
                .committee()
                .certs()
                .iter()
                .map(|c| &c.state)
                .filter(|r| collector(r))
                .collect();
            order.sort_by_key(|r| (r.member, r.effective_round));
            for pair in order.windows(2) {
                let [a, b] = pair else { unreachable!() };
                assert!(
                    a.member != b.member || a.action != b.action,
                    "seed {seed}: collector {} drew {:?} twice (rounds {} and {})",
                    a.member,
                    a.action,
                    a.effective_round,
                    b.effective_round
                );
            }
        }
        assert!(
            crossed > 0,
            "a transition fell due while governor 0 was down"
        );
    }

    #[test]
    fn tier_index_accessors_agree_with_layout() {
        // Providers occupy 0..l, collectors l..l+n, governors l+n..l+n+m.
        let cfg = ProtocolConfig::default();
        let sim = Simulation::new(cfg.clone()).unwrap();
        let l = cfg.providers as usize;
        let n = cfg.collectors as usize;
        assert_eq!(sim.provider_net_index(0), 0);
        assert_eq!(sim.collector_net_index(0), l);
        assert_eq!(sim.governor_net_index(0), l + n);
        assert_eq!(
            sim.governor_net_index(cfg.governors - 1),
            l + n + cfg.governors as usize - 1
        );
        // The interned tier has no provider actors: the same layout with
        // l = 0, whatever the configured provider count.
        let cfg = ProtocolConfig {
            open_loop: true,
            reveal: RevealPolicy::ArgueOnly,
            ..cfg
        };
        let sim = Simulation::interned(cfg.clone(), 4).unwrap();
        assert_eq!(sim.collector_net_index(0), 0);
        assert_eq!(sim.governor_net_index(0), n);
        assert_eq!(sim.net.node_count(), n + cfg.governors as usize);
    }
}
