//! The provider role (§3.2 — Collecting phase, plus `argue`).
//!
//! Providers sign transactions together with a timestamp (so collectors
//! cannot fabricate or replay them), broadcast each to their `r` linked
//! collectors via the sequenced atomic-broadcast channel, and — if
//! *active* — watch committed blocks and `argue(tx, s)` whenever one of
//! their genuinely valid transactions was recorded invalid-unchecked.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use prb_crypto::identity::NodeId;
use prb_crypto::signer::KeyPair;
use prb_ledger::block::Verdict;
use prb_ledger::oracle::ValidityOracle;
use prb_ledger::transaction::{SignedTx, TxId, TxPayload};
use prb_net::message::{Envelope, NodeIdx};
use prb_net::sim::Context;
use prb_obs::{EventKind, Obs, ObsHandle};

use crate::behavior::ProviderProfile;
use crate::msg::ProtocolMsg;
use crate::node::Outbox;

/// Provider actor state.
#[derive(Debug)]
pub struct ProviderNode {
    index: u32,
    key: KeyPair,
    profile: ProviderProfile,
    /// Network indices of the provider's `r` collectors.
    collector_nets: Vec<NodeIdx>,
    /// Network indices of all governors (for argues).
    governor_nets: Vec<NodeIdx>,
    oracle: Rc<RefCell<ValidityOracle>>,
    nonce: u64,
    /// Per-link broadcast sequence numbers, aligned with
    /// `collector_nets`. Each provider→collector channel is sender-
    /// sequenced independently so a collector that departs and later
    /// rejoins resumes at exactly the sequence number its ordered inbox
    /// expects — a shared counter would leave a permanent gap and stall
    /// the channel.
    seqs: Vec<u64>,
    /// Ground truth of own transactions, by id.
    my_txs: HashMap<TxId, bool>,
    argued: HashSet<TxId>,
    created: u64,
    argues_sent: u64,
    /// Where broadcasts and argues leave.
    pub(crate) outbox: Outbox,
    /// Net indices of linked collectors currently departed (dynamic
    /// membership, E17): fan-out skips them and no retries chase them.
    dead_collectors: HashSet<NodeIdx>,
    obs: ObsHandle,
}

impl ProviderNode {
    /// Creates provider `index` with its wiring and credentials.
    pub fn new(
        index: u32,
        key: KeyPair,
        profile: ProviderProfile,
        collector_nets: Vec<NodeIdx>,
        governor_nets: Vec<NodeIdx>,
        oracle: Rc<RefCell<ValidityOracle>>,
    ) -> Self {
        let seqs = vec![0; collector_nets.len()];
        ProviderNode {
            index,
            key,
            profile,
            collector_nets,
            governor_nets,
            oracle,
            nonce: 0,
            seqs,
            my_txs: HashMap::new(),
            argued: HashSet::new(),
            created: 0,
            argues_sent: 0,
            outbox: Outbox::default(),
            dead_collectors: HashSet::new(),
            obs: Obs::off(),
        }
    }

    /// Marks the collector at net index `peer` departed (`false`) or
    /// readmitted (`true`). Departing purges in-flight retransmissions
    /// to it; returns the number of sends purged.
    pub fn set_collector_active(&mut self, peer: NodeIdx, active: bool) -> usize {
        if active {
            self.dead_collectors.remove(&peer);
            0
        } else {
            self.dead_collectors.insert(peer);
            self.outbox.purge_peer(peer)
        }
    }

    /// Installs an observability hub (the source of `tx.submitted`
    /// lifecycle events).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The provider's index.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Transactions created so far.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Argue calls issued so far.
    pub fn argues_sent(&self) -> u64 {
        self.argues_sent
    }

    /// Ground-truth validity of one of this provider's transactions.
    pub fn truth_of(&self, tx: TxId) -> Option<bool> {
        self.my_txs.get(&tx).copied()
    }

    /// Handles a delivered message.
    pub fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
        match env.payload {
            ProtocolMsg::StartCollect { txs, .. } => {
                for gen in txs {
                    let payload = TxPayload {
                        provider: NodeId::provider(self.index),
                        nonce: self.nonce,
                        data: gen.data,
                    };
                    self.nonce += 1;
                    let tx = SignedTx::create(payload, ctx.now().ticks(), &self.key);
                    let id = tx.id();
                    self.oracle.borrow_mut().register(id, gen.valid);
                    self.my_txs.insert(id, gen.valid);
                    self.created += 1;
                    self.obs.emit(
                        ctx.now().ticks(),
                        ctx.self_idx() as u64,
                        EventKind::TxSubmitted {
                            trace: id.trace(),
                            provider: self.index as u64,
                        },
                    );
                    let ProviderNode {
                        outbox,
                        collector_nets,
                        dead_collectors,
                        seqs,
                        ..
                    } = self;
                    // Departed collectors are skipped entirely; each link
                    // keeps its own sequence.
                    let live = (collector_nets.iter().enumerate())
                        .filter(|(_, c)| !dead_collectors.contains(c));
                    outbox.fan_out(ctx, live, tx, |(i, &c), tx| {
                        let seq = seqs[i];
                        seqs[i] += 1;
                        (c, ProtocolMsg::TxBroadcast { seq, tx })
                    });
                }
            }
            ProtocolMsg::BlockNotify { serial, verdicts } => {
                if !self.profile.active {
                    return;
                }
                for (tx, verdict) in verdicts {
                    if verdict != Verdict::UncheckedInvalid {
                        continue;
                    }
                    let Some(&truth) = self.my_txs.get(&tx) else {
                        continue; // someone else's transaction
                    };
                    if truth && self.argued.insert(tx) {
                        self.argues_sent += 1;
                        for &g in &self.governor_nets {
                            let argue = ProtocolMsg::Argue { tx, serial };
                            self.outbox.send_plain(ctx, g, argue);
                        }
                    }
                }
            }
            _ => {} // providers ignore all other traffic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::GeneratedTx;
    use prb_crypto::signer::CryptoScheme;
    use prb_net::message::EXTERNAL;
    use prb_net::sim::{Actor, NetConfig, Network};
    use prb_net::time::SimTime;

    /// Wrap the provider as a standalone actor plus sinks for its traffic.
    #[allow(clippy::large_enum_variant)]
    enum Harness {
        Provider(ProviderNode),
        Sink(Vec<ProtocolMsg>),
    }

    impl Actor for Harness {
        type Msg = ProtocolMsg;
        fn on_message(&mut self, env: Envelope<ProtocolMsg>, ctx: &mut Context<'_, ProtocolMsg>) {
            match self {
                Harness::Provider(p) => p.on_message(env, ctx),
                Harness::Sink(seen) => seen.push(env.payload),
            }
        }
    }

    fn build(profile: ProviderProfile) -> (Network<Harness>, Rc<RefCell<ValidityOracle>>) {
        let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
        let mut net = Network::new(NetConfig::uniform(1, 3), 5);
        // Layout: node 0 = provider, 1-2 = collector sinks, 3 = governor sink.
        let key = CryptoScheme::sim().keypair_from_seed(b"p0");
        let provider = ProviderNode::new(0, key, profile, vec![1, 2], vec![3], Rc::clone(&oracle));
        net.add_node(Harness::Provider(provider));
        net.add_node(Harness::Sink(Vec::new()));
        net.add_node(Harness::Sink(Vec::new()));
        net.add_node(Harness::Sink(Vec::new()));
        (net, oracle)
    }

    fn gen(valid: bool) -> GeneratedTx {
        GeneratedTx {
            data: vec![7, 7, 7],
            valid,
        }
    }

    #[test]
    fn start_collect_broadcasts_signed_txs_to_all_collectors() {
        let (mut net, oracle) = build(ProviderProfile::honest_active());
        net.send_external(
            0,
            "start",
            ProtocolMsg::StartCollect {
                round: 0,
                txs: vec![gen(true), gen(false)],
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        for sink in [1, 2] {
            let Harness::Sink(seen) = net.node(sink) else {
                panic!()
            };
            assert_eq!(seen.len(), 2, "collector {sink}");
            for msg in seen {
                let ProtocolMsg::TxBroadcast { tx, .. } = msg else {
                    panic!("unexpected {msg:?}")
                };
                // Signature verifies and truth was registered.
                let pk = CryptoScheme::sim().keypair_from_seed(b"p0").public_key();
                assert!(tx.verify(&pk));
                assert!(oracle.borrow().peek(tx.id()).is_some());
            }
        }
        let Harness::Provider(p) = net.node(0) else {
            panic!()
        };
        assert_eq!(p.created(), 2);
    }

    #[test]
    fn seqs_are_consecutive_per_provider_channel() {
        let (mut net, _) = build(ProviderProfile::honest_active());
        net.send_external(
            0,
            "start",
            ProtocolMsg::StartCollect {
                round: 0,
                txs: vec![gen(true), gen(true), gen(true)],
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let Harness::Sink(seen) = net.node(1) else {
            panic!()
        };
        let mut seqs: Vec<u64> = seen
            .iter()
            .map(|m| match m {
                ProtocolMsg::TxBroadcast { seq, .. } => *seq,
                _ => panic!(),
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn active_provider_argues_wrongly_buried_valid_tx() {
        let (mut net, _) = build(ProviderProfile::honest_active());
        net.send_external(
            0,
            "start",
            ProtocolMsg::StartCollect {
                round: 0,
                txs: vec![gen(true)],
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let id = {
            let Harness::Provider(p) = net.node(0) else {
                panic!()
            };
            *p.my_txs.keys().next().unwrap()
        };
        net.send_external(
            0,
            "notify",
            ProtocolMsg::BlockNotify {
                serial: 1,
                verdicts: vec![(id, Verdict::UncheckedInvalid)],
            },
            SimTime(200),
        );
        net.run_until_idle(100);
        let Harness::Sink(gov) = net.node(3) else {
            panic!()
        };
        assert_eq!(gov.len(), 1);
        assert!(matches!(gov[0], ProtocolMsg::Argue { tx, serial: 1 } if tx == id));
        // A second notify does not re-argue.
        net.send_external(
            0,
            "notify",
            ProtocolMsg::BlockNotify {
                serial: 2,
                verdicts: vec![(id, Verdict::UncheckedInvalid)],
            },
            SimTime(400),
        );
        net.run_until_idle(100);
        let Harness::Sink(gov) = net.node(3) else {
            panic!()
        };
        assert_eq!(gov.len(), 1);
        let Harness::Provider(p) = net.node(0) else {
            panic!()
        };
        assert_eq!(p.argues_sent(), 1);
    }

    #[test]
    fn passive_provider_never_argues() {
        let (mut net, _) = build(ProviderProfile::passive(0.0));
        net.send_external(
            0,
            "start",
            ProtocolMsg::StartCollect {
                round: 0,
                txs: vec![gen(true)],
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let id = {
            let Harness::Provider(p) = net.node(0) else {
                panic!()
            };
            *p.my_txs.keys().next().unwrap()
        };
        net.send_external(
            0,
            "notify",
            ProtocolMsg::BlockNotify {
                serial: 1,
                verdicts: vec![(id, Verdict::UncheckedInvalid)],
            },
            SimTime(200),
        );
        net.run_until_idle(100);
        let Harness::Sink(gov) = net.node(3) else {
            panic!()
        };
        assert!(gov.is_empty());
    }

    #[test]
    fn provider_does_not_argue_its_genuinely_invalid_tx() {
        let (mut net, _) = build(ProviderProfile::honest_active());
        net.send_external(
            0,
            "start",
            ProtocolMsg::StartCollect {
                round: 0,
                txs: vec![gen(false)],
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let id = {
            let Harness::Provider(p) = net.node(0) else {
                panic!()
            };
            *p.my_txs.keys().next().unwrap()
        };
        net.send_external(
            0,
            "notify",
            ProtocolMsg::BlockNotify {
                serial: 1,
                verdicts: vec![(id, Verdict::UncheckedInvalid)],
            },
            SimTime(200),
        );
        net.run_until_idle(100);
        let Harness::Sink(gov) = net.node(3) else {
            panic!()
        };
        assert!(gov.is_empty(), "invalid tx must not be argued");
    }

    #[test]
    fn foreign_and_checked_verdicts_ignored() {
        let (mut net, _) = build(ProviderProfile::honest_active());
        let foreign = TxId(prb_crypto::sha256::sha256(b"not-mine"));
        net.send_external(
            0,
            "notify",
            ProtocolMsg::BlockNotify {
                serial: 1,
                verdicts: vec![
                    (foreign, Verdict::UncheckedInvalid),
                    (foreign, Verdict::CheckedValid),
                ],
            },
            SimTime(0),
        );
        net.run_until_idle(100);
        let Harness::Sink(gov) = net.node(3) else {
            panic!()
        };
        assert!(gov.is_empty());
        // Envelope helper coverage.
        assert_ne!(EXTERNAL, 0);
    }
}
