//! # prb — An Efficient Permissioned Blockchain with Provable Reputation Mechanism
//!
//! A full Rust reproduction of the ICDCS 2021 paper (Chen, Chen, Cheng,
//! Deng, Huang, Li, Ling, Zhang; full version arXiv:2002.06852): a
//! three-tier permissioned blockchain — providers, collectors, governors —
//! in which governors skip a tunable fraction of transaction validations
//! and rely on a multiplicative-weights reputation mechanism whose regret
//! is provably `O(√T)`.
//!
//! This crate is the facade: it re-exports the workspace's crates.
//!
//! | Crate | Contents |
//! |---|---|
//! | [`crypto`] | SHA-256, HMAC, bignum, Schnorr, DLEQ, VRF, Merkle, PKI |
//! | [`net`] | deterministic discrete-event synchronous network |
//! | [`ledger`] | transactions, blocks, hash-chained ledger, validity oracle |
//! | [`reputation`] | reputation vectors, RWM, screening math, revenue |
//! | [`consensus`] | PoS-VRF election, stake blocks, PBFT/rotation baselines |
//! | [`store`] | durable crash-safe block store with checkpoint certificates |
//! | [`core`] | the protocol: roles, Algorithms 1–3, argue, simulation driver |
//! | [`workload`] | car-sharing and insurance scenarios, adversary mixes |
//!
//! # Quickstart
//!
//! ```
//! use prb::core::config::ProtocolConfig;
//! use prb::core::sim::Simulation;
//!
//! let mut sim = Simulation::new(ProtocolConfig::default())?;
//! sim.run(3);
//! assert!(sim.chains_agree());
//! # Ok::<(), String>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment harness that regenerates every result in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use prb_consensus as consensus;
pub use prb_core as core;
pub use prb_crypto as crypto;
pub use prb_ledger as ledger;
pub use prb_net as net;
pub use prb_obs as obs;
pub use prb_reputation as reputation;
pub use prb_store as store;
pub use prb_workload as workload;
