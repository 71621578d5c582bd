//! # prb-net
//!
//! Deterministic discrete-event network simulation substrate for the `prb`
//! permissioned blockchain (reproduction of *"An Efficient Permissioned
//! Blockchain with Provable Reputation Mechanism"*, ICDCS 2021).
//!
//! The paper's system model (§3.1) is a synchronous network: bounded message
//! delay Δ, bounded processing delay, and bounded-drift local clocks. This
//! crate provides exactly that model, plus the machinery the protocol
//! needs on top of it:
//!
//! - [`time`] — global simulated time and drifting local clocks,
//! - [`sim`] — the event kernel: [`sim::Network`], [`sim::Actor`],
//!   [`sim::Context`], timers, deterministic scheduling,
//! - [`queue`] — its event queue, one FIFO per tick,
//! - [`order`] — atomic (total-order) broadcast primitives
//!   ([`order::Sequencer`] / [`order::OrderedInbox`]),
//! - [`fault`] — crash, loss and partition injection,
//! - [`retry`] — ack-based reliable delivery with exponential backoff
//!   and deterministic jitter for critical protocol hops,
//! - [`health`] — deterministic last-seen tracking that feeds the
//!   membership layer's silence-decay and eviction timers (E17),
//! - [`topology`] — the l/n/m three-tier wiring with `r·l = s·n`,
//! - [`stats`] — per-kind message accounting for the complexity
//!   experiments (E6).
//!
//! # Quickstart
//!
//! ```
//! use prb_net::sim::{Actor, Context, NetConfig, Network};
//! use prb_net::message::Envelope;
//! use prb_net::time::SimTime;
//!
//! struct Echo(Option<usize>);
//! impl Actor for Echo {
//!     type Msg = String;
//!     fn on_message(&mut self, env: Envelope<String>, ctx: &mut Context<'_, String>) {
//!         if let Some(peer) = self.0.take() {
//!             ctx.send(peer, "echo", env.payload);
//!         }
//!     }
//! }
//!
//! let mut net = Network::new(NetConfig::uniform(1, 4), 7);
//! let a = net.add_node(Echo(None));
//! let b = net.add_node(Echo(Some(a)));
//! net.send_external(b, "cmd", "hello".into(), SimTime(0));
//! net.run_until_idle(10);
//! assert_eq!(net.stats().kind("echo").delivered, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod health;
pub mod message;
pub mod order;
pub mod queue;
pub mod retry;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

pub use health::PeerHealth;
pub use message::{Envelope, NodeIdx, TimerId, EXTERNAL};
pub use retry::{ReliableSender, RetryConfig, RetryStats};
pub use sim::{Actor, Context, NetConfig, Network};
pub use time::{SimDuration, SimTime};
