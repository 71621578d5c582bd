//! # prb-crypto
//!
//! From-scratch cryptographic substrate for the `prb` permissioned
//! blockchain (reproduction of *"An Efficient Permissioned Blockchain with
//! Provable Reputation Mechanism"*, ICDCS 2021).
//!
//! The paper assumes standard PKI machinery (§3.1: an Identity Manager
//! with "all standard Public-Key Infrastructure methods"), a
//! collision-resistant hash for chain integrity, digital signatures on
//! every message, and a Verifiable Random Function for Proof-of-Stake
//! leader election (§3.4.3). All of it is implemented here without external
//! crypto crates:
//!
//! - [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 (streaming + one-shot; on
//!   SHA-NI where the CPU has it, portable rounds elsewhere),
//! - [`hmac`] — HMAC-SHA-256 (RFC 2104), used for deterministic nonces,
//! - [`bigint`] — arbitrary-precision unsigned integers (Knuth division,
//!   Montgomery exponentiation — on AVX-512 IFMA where the CPU has it,
//!   portable limbs elsewhere — Miller–Rabin),
//! - [`group`] — Schnorr groups over safe primes (RFC 3526 + test groups),
//! - [`schnorr`] — deterministic Schnorr signatures,
//! - [`dleq`] — Chaum–Pedersen discrete-log-equality proofs,
//! - [`batch`] — randomized-linear-combination batch verification with
//!   failure bisection,
//! - [`vrf`] — an ECVRF-style VRF built from hash-to-group + DLEQ,
//! - [`merkle`] — Merkle trees with inclusion proofs,
//! - [`sim`] — fast simulation-only signatures/VRF (see its security note),
//! - [`stats`] — process-wide counters for the modexp and SHA-256 hot paths,
//!   and opt-in wall-clock attribution per primitive,
//! - [`signer`] — scheme-agnostic `KeyPair`/`PublicKey`/`Sig` dispatch,
//! - [`identity`] — the Identity Manager / CA with role certificates.
//!
//! # Quickstart
//!
//! ```
//! use prb_crypto::identity::{IdentityManager, NodeId};
//! use prb_crypto::signer::CryptoScheme;
//!
//! // Enroll a provider and have it sign a transaction payload.
//! let mut im = IdentityManager::new(CryptoScheme::schnorr_test_256(), b"demo");
//! let provider = im.enroll(NodeId::provider(0)).unwrap();
//! let sig = provider.keypair.sign(b"tx-payload");
//! let pk = im.public_key(NodeId::provider(0)).unwrap();
//! assert!(pk.verify(b"tx-payload", &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod bigint;
pub mod dleq;
pub mod fxhash;
pub mod group;
pub mod hex;
pub mod hmac;
pub mod identity;
pub mod merkle;
pub mod schnorr;
pub mod sha256;
pub mod signer;
pub mod sim;
pub mod stats;
pub mod vrf;

pub use sha256::{sha256, Digest};
pub use signer::{CryptoScheme, KeyPair, PublicKey, Sig};
