//! # prb-reputation
//!
//! The provable reputation mechanism from *"An Efficient Permissioned
//! Blockchain with Provable Reputation Mechanism"* (ICDCS 2021), isolated
//! from the networking and ledger layers so its learning-theoretic
//! guarantees are directly testable:
//!
//! - [`params`] — `β`, `f`, `μ`, `ν`, the `γ_tx` formula and the paper's
//!   admissibility chain `β² ≤ γ ≤ β ≤ ½(γ−1)L+1 ≤ 1`,
//! - [`vector`] — the `(s+2)`-entry reputation vector per collector,
//! - [`rwm`] — Randomized Weighted Majority with abstentions, the process
//!   behind Theorem 1's `L_T ≤ S^min_T + O(√T)` regret bound,
//! - [`screening`] — the weighted source draw and `1 − f·Pr` coin of
//!   Algorithm 2 plus the Lemma 2 skip-probability formula,
//! - [`update`] — Algorithm 3 (all three cases) over a governor's table,
//! - [`revenue`] — the `∏w · μ^mis · ν^forge` profit split of §3.4.3,
//! - [`transitive`] — advisory EigenTrust-style gossip blending: claims
//!   weighted by the reporter's own earned trust, for churn telemetry
//!   (E17).
//!
//! # Quickstart
//!
//! ```
//! use prb_reputation::params::ReputationParams;
//! use prb_reputation::rwm::{Advice, Rwm};
//! use rand::SeedableRng;
//!
//! // Three collectors watch one provider; the first is always right.
//! let mut rwm = Rwm::new(3, 0.9);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! for _ in 0..100 {
//!     rwm.round(&[Advice::Correct, Advice::Wrong, Advice::Abstain], &mut rng);
//! }
//! assert_eq!(rwm.best_expert_loss(), 0.0);
//! assert!(rwm.expected_loss() <= rwm.theorem_bound(100));
//! # let _ = ReputationParams::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod params;
pub mod revenue;
pub mod rwm;
pub mod screening;
pub mod transitive;
pub mod update;
pub mod vector;

pub use params::ReputationParams;
pub use transitive::TransitiveView;
pub use update::ReputationTable;
pub use vector::ReputationVector;
