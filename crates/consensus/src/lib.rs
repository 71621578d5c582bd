//! # prb-consensus
//!
//! Consensus machinery for the `prb` permissioned blockchain (reproduction
//! of *"An Efficient Permissioned Blockchain with Provable Reputation
//! Mechanism"*, ICDCS 2021):
//!
//! - [`stake`] — the governors' stake ledger with signed, replay-protected
//!   transfers and the deterministic `NEW_STATE` construction,
//! - [`election`] — PoS-VRF leader election: one VRF evaluation per
//!   governor per round, one ticket per stake unit hashed from it, least
//!   ticket leads (§3.4.3, with one VRF where the paper draws one per unit),
//! - [`stake_block`] — the 3-step stake-transform block protocol with
//!   signature collection and provable leader expulsion, run over the
//!   simulated network (message complexity `O(m²)`, measured by E6),
//! - [`pbft`] — a simplified PBFT baseline (normal case + crash-fault view
//!   change) for the message-complexity comparison,
//! - [`evidence`] — self-verifying equivocation evidence (two conflicting
//!   signed proposal headers) backing the accountability pipeline that
//!   detects and expels double-signing governors (E12),
//! - [`quorum`] — the one quorum certificate: threshold, share, cert,
//!   signer-counting rules and the bounded share buffer,
//! - [`checkpoint`] — quorum certificates over the chain head, stake
//!   vector and reputation table, backing O(delta) state-sync and durable
//!   restart (E16),
//! - [`membership`] — dynamic membership: quorum-certified
//!   join/leave/evict transitions, the [`membership::EpochLog`] that
//!   sizes quorums by the committee epoch at a given round, and the
//!   [`membership::CommitteeView`] a governor reads its committee from
//!   (E17),
//! - [`round_robin`] — deterministic rotation schedules,
//! - [`rotation`] — the executable rotating-leader replication protocol
//!   (propose + ≥2/3 votes, crashed leaders skipped by timeout),
//! - [`verify_pool`] — a std-only worker pool draining batched
//!   signature verifications through `prb_crypto::batch`.
//!
//! # Quickstart
//!
//! ```
//! use prb_consensus::election::{elect, ElectionClaim};
//! use prb_crypto::signer::CryptoScheme;
//!
//! let scheme = CryptoScheme::sim();
//! let keys: Vec<_> = (0..3)
//!     .map(|g| scheme.keypair_from_seed(format!("g{g}").as_bytes()))
//!     .collect();
//! let stakes = [4, 2, 1];
//! let claims: Vec<_> = keys
//!     .iter()
//!     .enumerate()
//!     .filter_map(|(g, k)| ElectionClaim::compute(b"chain", 1, g as u32, stakes[g], k))
//!     .collect();
//! let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
//! let (result, rejected) = elect(b"chain", 1, &claims, &stakes, &pks);
//! assert!(rejected.is_empty());
//! assert!(result.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod election;
pub mod evidence;
pub mod membership;
pub mod pbft;
pub mod quorum;
pub mod rotation;
pub mod round_robin;
pub mod stake;
pub mod stake_block;
pub mod verify_pool;

pub use checkpoint::{CheckpointCert, CheckpointShare, CheckpointState, CollectorSnapshot};
pub use election::{elect, elect_excluding, ElectionClaim, ElectionResult, Tally};
pub use evidence::{EquivocationEvidence, SignedHeader};
pub use membership::{
    EpochLog, MemberRole, MembershipAction, MembershipCert, MembershipRequest, MembershipShare,
};
pub use stake::{StakeTable, StakeTransfer};
pub use stake_block::{StakeBlock, StakeGovernor, StakeMsg};
pub use verify_pool::VerifyPool;
