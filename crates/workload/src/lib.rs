//! # prb-workload
//!
//! Scenario workloads for the `prb` permissioned blockchain (reproduction
//! of *"An Efficient Permissioned Blockchain with Provable Reputation
//! Mechanism"*, ICDCS 2021):
//!
//! - [`carshare`] — the car-sharing market of §5.1 (users / drivers /
//!   schedulers as providers / collectors / governors),
//! - [`insurance`] — the insurance industry of §5.2 (policyholders /
//!   independent agents / insurance companies),
//! - [`adversary`] — the catalogue of named collector-adversary mixes
//!   shared by the experiment suite,
//! - [`trace`] — record/replay of transaction streams so different
//!   configurations can be compared on identical inputs.
//!
//! Both scenarios implement [`prb_core::workload::Workload`] and carry
//! structured payloads whose *decoded* validity always equals the oracle
//! bit, so experiments can audit ledgers at the domain level.
//!
//! # Quickstart
//!
//! ```
//! use prb_core::config::ProtocolConfig;
//! use prb_core::sim::Simulation;
//! use prb_workload::carshare::CarShareWorkload;
//!
//! let mut sim = Simulation::builder(ProtocolConfig::default())
//!     .workload(Box::new(CarShareWorkload::new(0.2)))
//!     .build()?;
//! sim.run(2);
//! assert!(sim.chains_agree());
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod carshare;
pub mod insurance;
pub mod scale;
pub mod trace;

pub use adversary::AdversaryMix;
pub use carshare::CarShareWorkload;
pub use insurance::InsuranceWorkload;
pub use scale::ScaleWorkload;
pub use trace::{Trace, TraceWorkload};
