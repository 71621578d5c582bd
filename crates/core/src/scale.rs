//! The E15 open-loop scale deployment: collectors and governors only,
//! driven by externally injected transactions.
//!
//! The closed-loop [`crate::sim::Simulation`] instantiates one actor (and
//! one enrolled keypair) per provider, which caps it far below the
//! paper's *l* = 10⁵–10⁶ deployment sizes. This driver drops the provider
//! tier entirely: simulated providers are **interned ids** — a `u32` and
//! a nonce slot in the workload's arena, nothing else — and their
//! transactions are signed by a small pool of real keypairs
//! (`pool[p % pool_len]`), which every collector and governor resolves
//! through the same mapping ([`CollectorNode::set_pk_pool`],
//! [`GovernorNode::set_pk_pool`]). Signature semantics on the hot path
//! are unchanged; only the keyspace is folded.
//!
//! Arrivals are open-loop: the driver schedules `TxBroadcast`s at
//! arbitrary ticks inside a round window, the collectors queue them in
//! their bounded mempools and drain them through Algorithm 1 at the next
//! round start. Overload sheds the oldest queued transaction with an
//! accountable `tx.dropped{shed}` event, so the E15 invariant
//! `submitted == committed + dropped` is checkable from the lifecycle
//! tracker alone.
//!
//! Reveal scheduling is skipped (the policy must be
//! [`RevealPolicy::ArgueOnly`]): there are no provider actors to argue,
//! and E15 measures ordering throughput, not reputation convergence.

use std::cell::RefCell;
use std::rc::Rc;

use prb_crypto::identity::{IdentityManager, NodeId};
use prb_crypto::signer::{KeyPair, PublicKey};
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::SignedTx;
use prb_net::message::NodeIdx;
use prb_net::retry::RetryConfig;
use prb_net::sim::{NetConfig, Network};
use prb_net::stats::MessageStats;
use prb_net::time::{SimDuration, SimTime};
use prb_net::topology::Topology;
use prb_obs::{EventKind as ObsEvent, Obs, ObsHandle, Role, EXTERNAL_NODE};

use crate::behavior::CollectorProfile;
use crate::collector::CollectorNode;
use crate::config::{ProtocolConfig, RevealPolicy, TopologyKind};
use crate::governor::GovernorNode;
use crate::msg::ProtocolMsg;
use crate::node::NodeActor;
use crate::sim::net_index;

/// One externally injected transaction: the driver's unit of work.
#[derive(Debug)]
pub struct Arrival {
    /// Absolute sim tick the transaction reaches the network edge. Must
    /// fall inside the round window it is injected into.
    pub at: u64,
    /// Interned provider id in `0..cfg.providers`.
    pub provider: u32,
    /// Per-provider submission sequence number (0-based, contiguous —
    /// the collectors' ordered inboxes release in this order).
    pub seq: u64,
    /// The signed transaction (signed by `pool[provider % pool_len]`).
    pub tx: SignedTx,
    /// Ground-truth validity to register with the oracle.
    pub valid: bool,
}

/// What one open-loop round committed (driver's view, from governor 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScaleRound {
    /// The round number.
    pub round: u64,
    /// Transactions injected into this round's window.
    pub injected: u64,
    /// Transactions committed in blocks observed this round.
    pub committed: u64,
}

/// Aggregated bounded-pool accounting across one tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Entries currently queued (summed over nodes).
    pub queued: usize,
    /// Highest per-node occupancy ever observed.
    pub high_water: usize,
    /// Transactions shed by the bound (summed over nodes).
    pub shed: u64,
}

/// The scale deployment: `n` collectors at kernel indices `0..n`,
/// `m` governors at `n..n+m`, no provider actors.
pub struct ScaleSim {
    cfg: ProtocolConfig,
    net: Network<NodeActor>,
    topology: Rc<Topology>,
    oracle: Rc<RefCell<ValidityOracle>>,
    signer_pool: Vec<KeyPair>,
    obs: ObsHandle,
    round: u64,
    next_start: u64,
    observed_height: u64,
    injected: u64,
    committed: u64,
}

impl std::fmt::Debug for ScaleSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaleSim")
            .field("round", &self.round)
            .field("injected", &self.injected)
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
}

impl ScaleSim {
    /// Builds the deployment with `pool_size` real signing identities
    /// shared by all `cfg.providers` interned provider ids.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration; requires
    /// `cfg.open_loop` and [`RevealPolicy::ArgueOnly`].
    pub fn new(cfg: ProtocolConfig, pool_size: u32) -> Result<Self, String> {
        cfg.validate()?;
        if !cfg.open_loop {
            return Err("ScaleSim requires cfg.open_loop".into());
        }
        if cfg.reveal != RevealPolicy::ArgueOnly {
            return Err(
                "ScaleSim supports only RevealPolicy::ArgueOnly (no providers to argue)".into(),
            );
        }
        if pool_size == 0 {
            return Err("signer pool must be non-empty".into());
        }
        let mut seed_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
        let topo_params = cfg.topology_params();
        let topology = Rc::new(match cfg.topology {
            TopologyKind::Cyclic => Topology::cyclic(topo_params)?,
            TopologyKind::Random => Topology::random(topo_params, &mut seed_rng)?,
        });
        let mut im = IdentityManager::new(cfg.crypto.clone(), &cfg.seed.to_be_bytes());
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));

        let n = cfg.collectors;
        let m = cfg.governors;
        // Interned-identity pool: pool keypair k stands in for every
        // provider id p with p % pool_size == k. Enrollment is O(pool),
        // not O(l) — the whole point of the scale harness.
        let mut signer_pool = Vec::with_capacity(pool_size as usize);
        let mut pk_pool = Vec::with_capacity(pool_size as usize);
        for k in 0..pool_size {
            let cred = im.enroll(NodeId::provider(k)).map_err(|e| e.to_string())?;
            pk_pool.push(cred.certificate.public_key.clone());
            signer_pool.push(cred.keypair);
        }
        let mut collector_creds = Vec::new();
        for c in 0..n {
            collector_creds.push(im.enroll(NodeId::collector(c)).map_err(|e| e.to_string())?);
        }
        let mut governor_creds = Vec::new();
        for g in 0..m {
            governor_creds.push(im.enroll(NodeId::governor(g)).map_err(|e| e.to_string())?);
        }
        let collector_pks: Vec<PublicKey> = collector_creds
            .iter()
            .map(|c| c.certificate.public_key.clone())
            .collect();
        let governor_pks: Vec<PublicKey> = governor_creds
            .iter()
            .map(|c| c.certificate.public_key.clone())
            .collect();

        let mut net = Network::new(
            NetConfig::uniform(cfg.min_delay, cfg.max_delay),
            cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let governor_base = net_index(n as u64);
        let governor_nets: Vec<NodeIdx> = (0..m as usize).map(|g| governor_base + g).collect();

        for c in 0..n {
            let mut node = CollectorNode::new(
                c,
                collector_creds[c as usize].keypair.clone(),
                cfg.crypto.clone(),
                CollectorProfile::honest(),
                std::collections::HashMap::new(),
                governor_nets.clone(),
                Rc::clone(&oracle),
            );
            node.set_pk_pool(pk_pool.clone());
            node.set_open_loop(cfg.mempool_capacity);
            net.add_node(NodeActor::Collector(node));
        }
        for g in 0..m {
            let mut node = GovernorNode::new(
                g,
                governor_creds[g as usize].keypair.clone(),
                cfg.clone(),
                Rc::clone(&topology),
                Rc::clone(&oracle),
                governor_base,
                collector_pks.clone(),
                Vec::new(), // no per-provider enrollment: pool only
                governor_pks.clone(),
            );
            node.set_pk_pool(pk_pool.clone());
            net.add_node(NodeActor::governor(node));
        }

        if cfg.reliable_delivery {
            let retry_cfg = RetryConfig::for_delta(SimDuration(cfg.max_delay))
                .with_max_pending(cfg.retry_capacity);
            for idx in 0..net.node_count() {
                match net.node_mut(idx) {
                    NodeActor::Provider(p) => p.set_reliable(retry_cfg),
                    NodeActor::Collector(c) => c.set_reliable(retry_cfg),
                    NodeActor::Governor(g) => g.set_reliable(retry_cfg),
                }
            }
        }

        Ok(ScaleSim {
            cfg,
            net,
            topology,
            oracle,
            signer_pool,
            obs: Obs::off(),
            round: 0,
            next_start: 0,
            observed_height: 0,
            injected: 0,
            committed: 0,
        })
    }

    /// The configuration this deployment runs.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// The signing keypair pool (`pool[p % len]` signs for provider `p`).
    pub fn signer_pool(&self) -> &[KeyPair] {
        &self.signer_pool
    }

    /// The wired topology (for routing arrivals to linked collectors).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Network traffic statistics.
    pub fn net_stats(&self) -> &MessageStats {
        self.net.stats()
    }

    /// Events the kernel has processed so far: deliveries and timers.
    pub fn events_processed(&self) -> u64 {
        self.net.events_processed()
    }

    /// Installs an observability hub on the kernel and every node.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        let n = self.cfg.collectors as usize;
        let m = self.cfg.governors as usize;
        let mut roles = Vec::with_capacity(n + m);
        roles.extend(std::iter::repeat_n(Role::Collector, n));
        roles.extend(std::iter::repeat_n(Role::Governor, m));
        obs.set_roles(roles);
        self.net.set_obs(Rc::clone(&obs));
        for idx in 0..self.net.node_count() {
            match self.net.node_mut(idx) {
                NodeActor::Provider(p) => p.set_obs(Rc::clone(&obs)),
                NodeActor::Collector(c) => c.set_obs(Rc::clone(&obs), idx as u64),
                NodeActor::Governor(g) => g.set_obs(Rc::clone(&obs)),
            }
        }
        self.obs = obs;
    }

    /// The observability hub.
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Number of completed rounds.
    pub fn rounds_run(&self) -> u64 {
        self.round
    }

    /// The tick the next round will start at.
    pub fn next_round_start(&self) -> u64 {
        self.next_start
    }

    /// Ticks one open-loop round spans.
    pub fn round_ticks(&self) -> u64 {
        self.cfg.round_ticks()
    }

    /// Total transactions injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total transactions committed so far (governor 0's chain).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Governor `g`'s node (chain, metrics, pool stats).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn governor(&self, g: u32) -> &GovernorNode {
        assert!(g < self.cfg.governors, "governor {g} out of range");
        self.net
            .node(net_index(self.cfg.collectors as u64 + g as u64))
            .as_governor()
            .expect("index is a governor")
    }

    /// Collector `c`'s node (mempool stats).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn collector(&self, c: u32) -> &CollectorNode {
        assert!(c < self.cfg.collectors);
        self.net
            .node(net_index(c as u64))
            .as_collector()
            .expect("index is a collector")
    }

    /// Mempool accounting aggregated over all collectors.
    pub fn mempool_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for c in 0..self.cfg.collectors {
            let (q, hw, s) = self.collector(c).mempool_stats();
            out.queued += q;
            out.high_water = out.high_water.max(hw);
            out.shed += s;
        }
        out
    }

    /// Pending-pool accounting aggregated over all governors.
    pub fn pending_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for g in 0..self.cfg.governors {
            let (q, hw, s) = self.governor(g).pending_stats();
            out.queued += q;
            out.high_water = out.high_water.max(hw);
            out.shed += s;
        }
        out
    }

    /// Retry-queue accounting aggregated over every node.
    pub fn retry_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for c in 0..self.cfg.collectors {
            let (q, hw, d) = self.collector(c).retry_queue_stats();
            out.queued += q;
            out.high_water = out.high_water.max(hw);
            out.shed += d;
        }
        for g in 0..self.cfg.governors {
            let (q, hw, d) = self.governor(g).retry_queue_stats();
            out.queued += q;
            out.high_water = out.high_water.max(hw);
            out.shed += d;
        }
        out
    }

    /// Whether every queue in the system has fully drained: collector
    /// mempools, governor Δ-window pools, and the screened-but-unpacked
    /// ready buffers.
    pub fn drained(&self) -> bool {
        (0..self.cfg.collectors).all(|c| self.collector(c).mempool_stats().0 == 0)
            && (0..self.cfg.governors).all(|g| {
                let gov = self.governor(g);
                gov.pending_count() == 0 && gov.ready_len() == 0
            })
    }

    /// Whether all governors agree on the chain head.
    pub fn chains_agree(&self) -> bool {
        let reference = self.governor(0).chain();
        (1..self.cfg.governors).all(|g| {
            let other = self.governor(g).chain();
            other.height() == reference.height()
                && other.latest().hash() == reference.latest().hash()
        })
    }

    /// Runs one open-loop round, injecting `arrivals` into its window.
    ///
    /// Arrivals must be sorted by nothing in particular, but each must
    /// fall inside `[start, start + round_ticks)` and carry contiguous
    /// per-provider `seq`s across the whole run.
    ///
    /// # Panics
    ///
    /// Panics if an arrival's tick precedes the round window or its
    /// provider id is out of range.
    pub fn run_round(&mut self, arrivals: Vec<Arrival>) -> ScaleRound {
        self.round += 1;
        let round = self.round;
        self.obs.set_round(round);
        let t0 = self.next_start;
        let round_ticks = self.cfg.round_ticks();
        self.next_start = t0 + round_ticks;
        let n = self.cfg.collectors;
        let m = self.cfg.governors;

        let injected = arrivals.len() as u64;
        self.injected += injected;
        for arrival in arrivals {
            self.inject(arrival, t0);
        }

        for g in 0..m {
            self.net.send_external(
                net_index(n as u64 + g as u64),
                "start-round",
                ProtocolMsg::StartRound { round },
                SimTime(t0),
            );
        }
        for c in 0..n {
            self.net.send_external(
                net_index(c as u64),
                "start-round",
                ProtocolMsg::StartRound { round },
                SimTime(t0),
            );
        }
        // Open-loop proposal timing matches the drain rounds of the
        // closed-loop driver: uploads begin at the round start (the
        // mempool drain), not after a collection phase.
        let propose_at = t0 + self.cfg.aggregation_window() + 4 * self.cfg.max_delay + 10;
        for g in 0..m {
            self.net.send_external(
                net_index(n as u64 + g as u64),
                "propose-block",
                ProtocolMsg::ProposeBlock { round },
                SimTime(propose_at),
            );
        }
        self.net.run_until(SimTime(t0 + round_ticks));

        let mut committed = 0u64;
        {
            let chain = self.governor(0).chain();
            for serial in (self.observed_height + 1)..=chain.height() {
                let block = chain.retrieve(serial).expect("no skipping");
                committed += block.entries.len() as u64;
            }
            self.observed_height = chain.height();
        }
        self.committed += committed;
        ScaleRound {
            round,
            injected,
            committed,
        }
    }

    /// One arrival: oracle registration, the `tx.submitted` lifecycle
    /// event, and a `TxBroadcast` to each of the provider's `r` linked
    /// collectors (the last one takes the payload by move).
    fn inject(&mut self, arrival: Arrival, window_start: u64) {
        let Arrival {
            at,
            provider,
            seq,
            tx,
            valid,
        } = arrival;
        assert!(
            at >= window_start,
            "arrival at {at} precedes round window {window_start}"
        );
        assert!(
            provider < self.cfg.providers,
            "provider {provider} out of range"
        );
        self.oracle.borrow_mut().register(tx.id(), valid);
        if self.obs.is_enabled() {
            self.obs.emit(
                at,
                EXTERNAL_NODE,
                ObsEvent::TxSubmitted {
                    trace: tx.id().trace(),
                    provider: u64::from(provider),
                },
            );
        }
        let collectors = self.topology.collectors_of(provider);
        let mut tx = Some(tx);
        let last = collectors.len().saturating_sub(1);
        for (i, &c) in collectors.iter().enumerate() {
            let payload = if i == last {
                tx.take().expect("one payload per fan-out slot")
            } else {
                tx.as_ref().expect("moved only on the last slot").clone()
            };
            self.net.send_external(
                net_index(c as u64),
                "tx-broadcast",
                ProtocolMsg::TxBroadcast { seq, tx: payload },
                SimTime(at),
            );
        }
    }

    /// Runs arrival-free rounds until every queue drains (or `max_rounds`
    /// passes); returns how many rounds it took. The chain keeps
    /// committing screened backlog during the drain.
    pub fn drain(&mut self, max_rounds: u32) -> u32 {
        for i in 0..max_rounds {
            if self.drained() {
                return i;
            }
            self.run_round(Vec::new());
        }
        max_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_ledger::transaction::TxPayload;

    fn scale_cfg(providers: u32) -> ProtocolConfig {
        ProtocolConfig {
            providers,
            collectors: 4,
            governors: 3,
            replication: 2,
            tx_per_provider: 0,
            open_loop: true,
            reveal: RevealPolicy::ArgueOnly,
            seed: 11,
            ..Default::default()
        }
    }

    fn make_arrival(sim: &ScaleSim, at: u64, provider: u32, seq: u64) -> Arrival {
        let pool = sim.signer_pool();
        let key = &pool[provider as usize % pool.len()];
        let tx = SignedTx::create(
            TxPayload {
                provider: NodeId::provider(provider),
                nonce: seq,
                data: vec![0xa5; 16],
            },
            at,
            key,
        );
        Arrival {
            at,
            provider,
            seq,
            tx,
            valid: true,
        }
    }

    #[test]
    fn rejects_closed_loop_and_reveal_configs() {
        let cfg = ProtocolConfig {
            open_loop: false,
            ..scale_cfg(64)
        };
        assert!(ScaleSim::new(cfg, 8).is_err());
        let cfg = ProtocolConfig {
            reveal: RevealPolicy::AfterRounds(1),
            ..scale_cfg(64)
        };
        assert!(ScaleSim::new(cfg, 8).is_err());
        assert!(ScaleSim::new(scale_cfg(64), 0).is_err());
    }

    #[test]
    fn injected_transactions_commit_and_chains_agree() {
        let mut sim = ScaleSim::new(scale_cfg(64), 8).unwrap();
        sim.set_obs(Obs::counting());
        let t0 = sim.next_round_start();
        let arrivals = (0..32u32)
            .map(|i| make_arrival(&sim, t0 + u64::from(i), i % 64, 0))
            .collect();
        let r1 = sim.run_round(arrivals);
        // Arrivals land in round 1's window; the mempool drains at the
        // next round start (an arrival on the start tick itself may ride
        // round 1's own drain), so everything commits within two rounds.
        let r2 = sim.run_round(Vec::new());
        assert_eq!(r1.committed + r2.committed, 32, "all 32 arrivals commit");
        assert!(sim.drained());
        assert!(sim.chains_agree());
        let counts = sim.obs().lifecycle_counts();
        assert_eq!(counts.submitted, 32);
        assert_eq!(counts.committed, 32);
        assert_eq!(counts.open, 0);
    }

    #[test]
    fn pool_signed_providers_verify_beyond_pool_size() {
        // Provider 13 signs with pool key 13 % 4 = 1; every collector and
        // governor resolves the same key, so the tx is not discarded.
        let mut sim = ScaleSim::new(scale_cfg(64), 4).unwrap();
        sim.set_obs(Obs::counting());
        let t0 = sim.next_round_start();
        let arrivals = vec![make_arrival(&sim, t0, 13, 0)];
        sim.run_round(arrivals);
        sim.run_round(Vec::new());
        assert_eq!(sim.committed(), 1);
    }
}
