//! The E15 open-loop front end of the one driver: a [`Simulation`] on
//! its *interned* provider tier, driven by externally injected
//! transactions.
//!
//! One actor and one enrolled keypair per provider caps the actors tier
//! far below the paper's *l* = 10⁵–10⁶ deployment sizes. On the interned
//! tier a simulated provider is an **interned id** — a `u32` and a nonce
//! slot in the workload's arena, nothing else — whose transactions are
//! signed by a small pool of real keypairs (`pool[p % pool_len]`), which
//! every collector and governor resolves through the same mapping
//! (`set_pk_pool`). Signature semantics on the hot path are unchanged;
//! only the keyspace is folded.
//!
//! Arrivals are open-loop: the driver schedules `TxBroadcast`s at
//! arbitrary ticks inside a round window, the collectors queue them in
//! their bounded mempools and drain them through Algorithm 1 at the next
//! round start. Overload sheds the oldest queued transaction with an
//! accountable `tx.dropped{shed}` event, so the E15 invariant
//! `submitted == committed + dropped` is checkable from the lifecycle
//! tracker alone.
//!
//! Reveal scheduling and churn draws are refused (the policy must be
//! [`RevealPolicy::ArgueOnly`], the join and leave rates 0): there are no
//! provider actors to argue or to re-route around a departed collector,
//! and E15 measures ordering throughput, not reputation convergence.

use std::ops::{Deref, DerefMut, Range};

use prb_crypto::signer::KeyPair;
use prb_ledger::transaction::SignedTx;
use prb_net::time::SimTime;
use prb_obs::{EventKind as ObsEvent, EXTERNAL_NODE};

use crate::config::{ProtocolConfig, RevealPolicy};
use crate::msg::ProtocolMsg;
use crate::sim::{Load, Providers, Simulation};

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

impl PoolStats {
    fn add(&mut self, (queued, high_water, shed): (usize, usize, u64)) {
        self.queued += queued;
        self.high_water = self.high_water.max(high_water);
        self.shed += shed;
    }
}

/// The scale deployment: `n` collectors at kernel indices `0..n`, `m`
/// governors at `n..n+m`, no provider actors. It derefs to the
/// [`Simulation`] it drives, whose accessors and round step it uses.
#[derive(Debug)]
pub struct ScaleSim {
    sim: Simulation,
    injected: u64,
    committed: u64,
}

impl Deref for ScaleSim {
    type Target = Simulation;

    fn deref(&self) -> &Simulation {
        &self.sim
    }
}

impl DerefMut for ScaleSim {
    fn deref_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }
}

impl ScaleSim {
    /// Builds the deployment with `pool_size` real signing identities
    /// shared by all `cfg.providers` interned provider ids.
    ///
    /// # Errors
    ///
    /// Returns a description of any invalid configuration; requires
    /// `cfg.open_loop`, [`RevealPolicy::ArgueOnly`] and zero churn rates.
    pub fn new(cfg: ProtocolConfig, pool_size: u32) -> Result<Self, String> {
        if !cfg.open_loop {
            return Err("ScaleSim requires cfg.open_loop".into());
        }
        if cfg.reveal != RevealPolicy::ArgueOnly {
            return Err(
                "ScaleSim supports only RevealPolicy::ArgueOnly (no providers to argue)".into(),
            );
        }
        if cfg.join_rate > 0.0 || cfg.leave_rate > 0.0 {
            return Err("ScaleSim draws no churn: join_rate and leave_rate must be 0".into());
        }
        if pool_size == 0 {
            return Err("signer pool must be non-empty".into());
        }
        Ok(ScaleSim {
            sim: Simulation::interned(cfg, pool_size)?,
            injected: 0,
            committed: 0,
        })
    }

    /// The signing keypair pool (`pool[p % len]` signs for provider `p`).
    pub fn signer_pool(&self) -> &[KeyPair] {
        match &self.sim.providers {
            Providers::Interned(pool) => pool,
            Providers::Actors(_) => unreachable!("ScaleSim builds the interned tier"),
        }
    }

    /// Total transactions injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total transactions committed so far (governor 0's chain).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Mempool accounting aggregated over all collectors.
    pub fn mempool_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for c in 0..self.config().collectors {
            out.add(self.collector(c).mempool_stats());
        }
        out
    }

    /// Pending-pool accounting aggregated over all governors.
    pub fn pending_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for g in 0..self.config().governors {
            out.add(self.governor(g).pending_stats());
        }
        out
    }

    /// Retry-queue accounting aggregated over every node.
    pub fn retry_stats(&self) -> PoolStats {
        let mut out = PoolStats::default();
        for c in 0..self.config().collectors {
            out.add(self.collector(c).retry_queue_stats());
        }
        for g in 0..self.config().governors {
            out.add(self.governor(g).retry_queue_stats());
        }
        out
    }

    /// Whether every queue in the system has fully drained: collector
    /// mempools, governor Δ-window pools, and the screened-but-unpacked
    /// ready buffers.
    pub fn drained(&self) -> bool {
        (0..self.config().collectors).all(|c| self.collector(c).mempool_stats().0 == 0)
            && (0..self.config().governors).all(|g| {
                let gov = self.governor(g);
                gov.pending_count() == 0 && gov.ready_len() == 0
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
    /// Panics if an arrival's tick falls outside the round window or its
    /// provider id is out of range.
    pub fn run_round(&mut self, arrivals: Vec<Arrival>) -> ScaleRound {
        let injected = arrivals.len() as u64;
        self.injected += injected;
        let (outcome, committed) = self.sim.step(Load::Arrivals(arrivals));
        self.committed += committed;
        ScaleRound {
            round: outcome.round,
            injected,
            committed,
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

impl Simulation {
    /// One arrival: oracle registration, the `tx.submitted` lifecycle
    /// event, and a `TxBroadcast` to each of the provider's `r` linked
    /// collectors (the last one takes the payload by move). An arrival
    /// outside `window` would be delivered after another round's
    /// `StartRound`, so it is refused.
    pub(crate) fn inject(&mut self, arrival: Arrival, window: &Range<u64>) {
        let Arrival {
            at,
            provider,
            seq,
            tx,
            valid,
        } = arrival;
        assert!(
            window.contains(&at),
            "arrival at {at} outside round window {window:?}"
        );
        assert!(
            provider < self.config().providers,
            "provider {provider} out of range"
        );
        self.oracle().borrow_mut().register(tx.id(), valid);
        if self.obs().is_enabled() {
            self.obs().emit(
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
            let (to, msg) = (
                self.collector_net_index(c),
                ProtocolMsg::TxBroadcast { seq, tx: payload },
            );
            self.net.send_external(to, msg.kind(), msg, SimTime(at));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::identity::NodeId;
    use prb_ledger::transaction::TxPayload;
    use prb_obs::Obs;

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
        // Churn rates would be silently ignored (no provider actors to
        // re-route); decay runs inside the governors and stays allowed.
        for (join_rate, leave_rate) in [(0.1, 0.0), (0.0, 0.1)] {
            let cfg = ProtocolConfig {
                join_rate,
                leave_rate,
                ..scale_cfg(64)
            };
            let err = ScaleSim::new(cfg, 8).unwrap_err();
            assert!(err.contains("join_rate and leave_rate"), "{err}");
        }
        let cfg = ProtocolConfig {
            decay_halflife: 8,
            ..scale_cfg(64)
        };
        assert!(ScaleSim::new(cfg, 8).is_ok());
    }

    #[test]
    #[should_panic(expected = "outside round window")]
    fn arrival_past_the_round_window_is_refused() {
        let mut sim = ScaleSim::new(scale_cfg(64), 8).unwrap();
        let end = sim.next_round_start() + sim.round_ticks();
        let late = make_arrival(&sim, end, 0, 0);
        sim.run_round(vec![late]);
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

    /// Blocks below a checkpoint governor 0 adopted are not on its chain;
    /// the driver still counts their entries, read from a chain that holds
    /// them.
    #[test]
    fn blocks_below_a_checkpoint_governor_0_adopts_are_counted() {
        let cfg = ProtocolConfig {
            governor_mode: crate::config::GovernorMode::CheckAll,
            governors: 4,
            checkpoint_interval: 2,
            sync_page: 4,
            ..scale_cfg(64)
        };
        let rt = cfg.round_ticks();
        let mut sim = ScaleSim::new(cfg, 8).unwrap();
        let mut faults = prb_net::fault::FaultPlan::none();
        let g0 = sim.governor_net_index(0);
        faults.crash_window(g0, SimTime(rt), SimTime(9 * rt));
        sim.set_faults(faults);
        for round in 0..14u32 {
            let t0 = sim.next_round_start();
            let arrivals = (0..4u32)
                .map(|i| make_arrival(&sim, t0 + u64::from(i), i, u64::from(round)))
                .collect();
            sim.run_round(arrivals);
        }
        sim.drain(8);
        assert!(sim.metrics(0).adopted_serial > 0, "the scenario adopts");
        assert!(sim.chains_agree());
        let chain = sim.governor(1).chain();
        let on_chain: std::collections::HashSet<_> = (1..=chain.height())
            .flat_map(|s| chain.retrieve(s).unwrap().entries.iter().map(|e| e.tx.id()))
            .collect();
        assert_eq!(sim.committed(), on_chain.len() as u64);
        assert_eq!(sim.committed(), sim.injected());
    }

    #[test]
    fn an_honest_open_loop_run_leaves_the_signature_memo_empty() {
        // Every batch verdict on an honest run finds its window, so the
        // memo, which keeps forged verdicts and those whose window was
        // gone, is never written.
        let mut sim = ScaleSim::new(scale_cfg(64), 8).unwrap();
        for round in 0..4u32 {
            let t0 = sim.next_round_start();
            let arrivals = (0..48u32)
                .map(|i| make_arrival(&sim, t0 + u64::from(i), i, u64::from(round)))
                .collect();
            sim.run_round(arrivals);
        }
        sim.drain(8);
        assert_eq!(sim.committed(), 4 * 48);
        for g in 0..3 {
            let gov = sim.governor(g);
            assert!(
                gov.metrics().sig_memo_misses > 0,
                "governor {g} verified nothing"
            );
            assert_eq!(gov.tx_table().memo_len(), 0, "governor {g}");
        }
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
