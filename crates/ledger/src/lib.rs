//! # prb-ledger
//!
//! Transactions, blocks, and the hash-chained tamper-evident ledger for the
//! `prb` permissioned blockchain (reproduction of *"An Efficient
//! Permissioned Blockchain with Provable Reputation Mechanism"*,
//! ICDCS 2021).
//!
//! - [`transaction`] — provider-signed transactions (`tx`) and
//!   collector-labeled uploads (`Tx`) exactly as specified in §3.1–§3.3,
//! - [`block`] — blocks `B = (s, TXList, h)` with Merkle commitments and
//!   the three recording verdicts of Algorithm 2,
//! - [`chain`] — the append-only ledger enforcing *Chain Integrity* and
//!   *No Skipping* on append, with `retrieve(s)` lookups and a full audit,
//! - [`codec`] — canonical binary encoding with verified export/import,
//! - [`header`] — light-client header chains with Merkle inclusion checks,
//! - [`oracle`] — the `validate(tx)` ground-truth oracle with cost
//!   accounting,
//! - [`txindex`] — the index from transaction id to where a transaction is
//!   kept, keyed by four bytes of the id.
//!
//! # Quickstart
//!
//! ```
//! use prb_crypto::identity::NodeId;
//! use prb_crypto::signer::CryptoScheme;
//! use prb_ledger::block::{Block, BlockEntry, Verdict};
//! use prb_ledger::chain::Chain;
//! use prb_ledger::transaction::{SignedTx, TxPayload};
//!
//! let key = CryptoScheme::sim().keypair_from_seed(b"p0");
//! let tx = SignedTx::create(
//!     TxPayload { provider: NodeId::provider(0), nonce: 0, data: b"hi".to_vec() },
//!     1,
//!     &key,
//! );
//! let mut chain = Chain::new(b"quickstart", 64);
//! let entry = BlockEntry { tx, verdict: Verdict::CheckedValid, reported_labels: vec![] };
//! let block = Block::build(1, vec![entry], chain.latest().hash(), NodeId::governor(0), 2);
//! chain.append(block)?;
//! assert_eq!(chain.height(), 1);
//! # Ok::<(), prb_ledger::chain::ChainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod chain;
pub mod codec;
pub mod header;
pub mod oracle;
pub mod transaction;
pub mod txindex;

pub use block::{Block, BlockBody, BlockEntry, Verdict};
pub use chain::{Chain, ChainError, ImportError};
pub use oracle::ValidityOracle;
pub use transaction::{Label, SignedTx, TxBody, TxId, TxPayload, UploadBatch, UploadBody};
