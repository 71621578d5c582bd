//! Pins the size of one queued kernel event.
//!
//! Every event in flight holds a `ProtocolMsg` by value, and an
//! `open-steady` run keeps ~5 000 of them queued, so a variant that grows
//! the enum grows the queue for every message kind. New large payloads go
//! behind a `Box` like the proposal claim and header, evidence, echoes
//! and shares do; the transaction-carrying variants stay inline.

use std::mem::size_of;

use prb_core::msg::ProtocolMsg;
use prb_ledger::transaction::{SignedTx, UploadBatch};

#[test]
fn a_queued_event_is_at_most_128_bytes() {
    let event = prb_net::sim::event_size::<ProtocolMsg>();
    assert!(
        event <= 128,
        "a queued event is {event} bytes (ProtocolMsg {}): box the new large variant",
        size_of::<ProtocolMsg>()
    );
}

#[test]
fn per_transaction_payloads_are_a_sequence_number_and_a_handle() {
    // `TxBroadcast { seq, tx }` and `TxUpload { seq, batch }` are 16
    // bytes: boxing them would add an allocation per message for nothing.
    assert_eq!(size_of::<(u64, SignedTx)>(), 16);
    assert_eq!(size_of::<(u64, UploadBatch)>(), 16);
}
