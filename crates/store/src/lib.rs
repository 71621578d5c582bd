//! # prb-store
//!
//! Durable, crash-safe persistence for the `prb` permissioned blockchain
//! (reproduction of *"An Efficient Permissioned Blockchain with Provable
//! Reputation Mechanism"*, ICDCS 2021):
//!
//! - [`segment`] — append-only segment files of length-prefixed,
//!   SHA-256-checksummed block records,
//! - [`store`] — the [`BlockStore`]: rolling segments, a
//!   content-addressed index, explicit fsync discipline and torn-write
//!   recovery that reopens to the longest durable prefix — byte-identical
//!   (via `Chain::export`) to the in-memory chain at that height,
//! - [`certfile`] — atomic persistence of the latest quorum-signed
//!   checkpoint certificate, enabling O(delta) restarts: a long-crashed
//!   governor re-anchors at the checkpoint instead of replaying from
//!   genesis,
//! - [`memberfile`] — atomic persistence of the membership-certificate
//!   log, so committee epochs (join/leave/evict history) survive
//!   restart and old checkpoint certs verify against the right quorum
//!   size (E17).
//!
//! The crate is std-only (no external dependencies) like the rest of the
//! workspace, and deliberately knows nothing about the network: the
//! governor mirrors its chain mutations in, and recovery hands back a
//! replayed [`prb_ledger::chain::Chain`].
//!
//! # Quickstart
//!
//! ```no_run
//! use prb_store::{BlockStore, StoreOptions};
//!
//! let dir = std::path::Path::new("/tmp/prb-store-demo");
//! let (mut store, recovered) = BlockStore::open(dir, StoreOptions::default()).unwrap();
//! assert_eq!(recovered.chain.height(), store.next_serial() - 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod certfile;
pub mod memberfile;
pub mod segment;
pub mod store;

pub use store::{BlockStore, FsyncPolicy, Recovered, StoreError, StoreOptions, StoreStats};
