//! The protocol's wire messages.
//!
//! Driver-injected commands (round starts, collection starts and closes,
//! proposal calls, block notifications, reveals, stake transfers and
//! membership requests) share the enum with node-to-node traffic; they
//! arrive with `from == EXTERNAL` and are never counted toward the
//! complexity experiments' protocol-message kinds.
//!
//! A message names its own kind label ([`ProtocolMsg::kind`], one per
//! variant) and declared wire size ([`ProtocolMsg::wire_size`]), the two
//! figures §4.1's message complexity (E6) and the benchmark's `net.*`
//! layer count; no send site writes either. The sizes are declared, not
//! measured from an encoding.
//!
//! Every queued event of the kernel carries one of these by value, so the
//! enum is kept small: the transaction-carrying variants (`TxBroadcast`,
//! one per provider transaction, and `TxUpload`, one per collector batch)
//! are a sequence number and a shared handle, and the large, rare payloads
//! (proposal claim and header, evidence, echoes, shares) are boxed.
//! `tests/msg_size.rs` pins the resulting event size.

use prb_consensus::checkpoint::{CheckpointCert, CheckpointShare};
use prb_consensus::election::ElectionClaim;
use prb_consensus::evidence::{EquivocationEvidence, SignedHeader};
use prb_consensus::membership::{MembershipRequest, MembershipShare};
use prb_consensus::stake::StakeTransfer;
use prb_ledger::block::{Block, Verdict};
use prb_ledger::transaction::{SignedTx, TxId, UploadBatch};

use crate::workload::GeneratedTx;

/// All messages exchanged in the simulation.
#[derive(Clone, Debug)]
pub enum ProtocolMsg {
    /// Driver → provider: create and broadcast these transactions.
    StartCollect {
        /// Current round.
        round: u64,
        /// Pre-generated payloads (the driver owns the workload).
        txs: Vec<GeneratedTx>,
    },
    /// Driver → collector/governor: a new round begins.
    StartRound {
        /// Current round.
        round: u64,
    },
    /// Driver → collector, closed loop only: the round's collection phase
    /// is over. A collector holds what it labels from its `StartRound` on
    /// and uploads it here as one batch per governor; until its next
    /// `StartRound` it uploads each dispatch at once.
    EndCollect {
        /// The round whose collection phase closed.
        round: u64,
    },
    /// Provider → collector: `broadcast_provider(tx)`, sequenced for
    /// atomic-broadcast delivery.
    TxBroadcast {
        /// Sequence number on the provider's channel.
        seq: u64,
        /// The signed transaction.
        tx: SignedTx,
    },
    /// Collector → governor: `broadcast_collector(Tx)` for every
    /// transaction the collector labeled in one upload (a round's
    /// collection phase in closed loop, a mempool drain in open loop, or
    /// one dispatch outside those), sequenced.
    TxUpload {
        /// Sequence number on the collector's channel; a governor drops a
        /// message whose `seq` is not the one the batch signs.
        seq: u64,
        /// The labeled transactions under one collector signature.
        batch: UploadBatch,
    },
    /// Governor → governor: a VRF election claim for the round.
    Election {
        /// The round being contested.
        round: u64,
        /// The claimant's best VRF evaluation.
        claim: ElectionClaim,
    },
    /// Driver → governor: close the round; the leader assembles the block.
    ProposeBlock {
        /// The round being closed.
        round: u64,
    },
    /// Leader → governor: the proposed block, carrying the leader's
    /// winning election claim so receivers can resolve same-serial head
    /// forks deterministically (smallest verified `(ticket, index)`
    /// key wins, exactly the election's ordering).
    BlockProposal {
        /// The proposed block.
        block: Block,
        /// The proposer's VRF claim for the round that elected it.
        /// `None` only for driver-injected test traffic; claimless
        /// proposals cannot displace a contested head.
        claim: Option<Box<ElectionClaim>>,
        /// The proposer's signed commitment to exactly this block at
        /// this serial. Two conflicting headers convict an equivocator;
        /// `None` only for driver-injected test traffic (unsigned
        /// proposals cannot be held accountable).
        header: Option<Box<SignedHeader>>,
    },
    /// Governor → governor: re-gossip of a proposal header, sent once per
    /// distinct `(proposer, serial, block hash)` observed, so that an
    /// equivocator splitting the committee between two blocks is exposed
    /// to every honest governor within one delivery delay.
    HeaderEcho {
        /// The observed signed header, forwarded verbatim.
        header: Box<SignedHeader>,
    },
    /// Governor → governor: self-verifying proof that `culprit()` signed
    /// two conflicting blocks at one serial. Receivers verify both
    /// signatures before expelling — the accuser is not trusted.
    Evidence {
        /// The two conflicting signed headers.
        evidence: Box<EquivocationEvidence>,
    },
    /// Driver → provider: a block was committed; these are the verdicts
    /// (the provider's view of `retrieve(s)`).
    BlockNotify {
        /// Block serial.
        serial: u64,
        /// `(transaction, verdict)` pairs recorded in the block for the
        /// receiving provider's own transactions, in block order.
        verdicts: Vec<(TxId, Verdict)>,
    },
    /// Provider → governor: `argue(tx, s)`.
    Argue {
        /// The disputed transaction.
        tx: TxId,
        /// The block that recorded it.
        serial: u64,
    },
    /// Governor → governor (or driver-injected): a signed stake transfer
    /// to apply at the end of the round (§3.4.3).
    StakeTransfer(StakeTransfer),
    /// Governor → governor: "my chain head is `have`; send me what I am
    /// missing" (crash recovery).
    SyncRequest {
        /// The requester's current chain height.
        have: u64,
    },
    /// Governor → governor: one page of the blocks requested by a
    /// [`ProtocolMsg::SyncRequest`]. Responses are paginated; the
    /// requester keeps asking while its height trails `head`.
    SyncResponse {
        /// Consecutive blocks starting at the requester's `have + 1`,
        /// capped at the responder's `sync_page` limit.
        blocks: Vec<Block>,
        /// The responder's chain height at reply time, so the requester
        /// knows whether more pages remain.
        head: u64,
        /// The responder's latest quorum-signed checkpoint certificate,
        /// attached only when its serial is beyond the requester's
        /// `have`. A far-behind requester verifies the quorum, adopts
        /// the certified state and re-anchors, so it fetches only the
        /// suffix past the checkpoint instead of the whole chain
        /// (O(delta) state-sync). `None` when checkpointing is off or
        /// the requester is already past the latest checkpoint.
        cert: Option<Box<CheckpointCert>>,
    },
    /// Governor → governor: a signed share of the checkpoint state at a
    /// checkpoint-interval boundary. A governor that collects a quorum
    /// of shares over one state digest assembles a
    /// [`CheckpointCert`].
    CheckpointShare(Box<CheckpointShare>),
    /// Governor → governor (or driver-injected): a membership
    /// transition offered to the committee. Subject-signed for
    /// join/leave, unsigned for an eviction proposal (the share quorum
    /// authorizes it). Governors that accept sign and broadcast a
    /// [`MembershipShare`].
    Membership(Box<MembershipRequest>),
    /// Governor → governor: a signed endorsement of a membership
    /// request. A quorum of shares over one request digest forms a
    /// [`prb_consensus::membership::MembershipCert`], applied by every
    /// governor at the request's effective round.
    MemberShare(Box<MembershipShare>),
    /// Governor → governor: advisory EigenTrust-style reputation gossip
    /// (E17). `scores[c]` is the reporter's first-hand opinion of
    /// collector `c` in `[0,1]`, carried as `f64` bits for a hashable,
    /// byte-exact wire form. Blended into the receiver's
    /// [`prb_reputation::TransitiveView`] weighted by the reporter's
    /// earned trust; never touches consensus state.
    RepGossip {
        /// The reporting governor's committee index.
        reporter: u32,
        /// Per-collector opinions as `f64::to_bits` values.
        scores: Vec<u64>,
    },
    /// Reliable-delivery envelope: `inner` carried under an ack token.
    /// The receiver acks `token` back to the sender on every copy (so
    /// retransmissions re-ack) and dispatches `inner` exactly as if it
    /// had arrived bare; duplicate suppression happens downstream
    /// (sequenced inboxes, block serials).
    Reliable {
        /// Token identifying the tracked send at the sender.
        token: u64,
        /// The wrapped protocol message.
        inner: Box<ProtocolMsg>,
    },
    /// Acknowledgement of a [`ProtocolMsg::Reliable`] delivery.
    Ack {
        /// The token being acknowledged.
        token: u64,
    },
    /// Driver → governor: external evidence reveals an unchecked
    /// transaction's real status (the reveal policy of Theorem 1).
    Reveal {
        /// The revealed transaction.
        tx: TxId,
        /// Its ground-truth validity.
        valid: bool,
    },
}

impl ProtocolMsg {
    /// The kind label the kernel counts this message under. A
    /// [`ProtocolMsg::Reliable`] envelope counts as the message it carries.
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolMsg::StartCollect { .. } => "start-collect",
            ProtocolMsg::StartRound { .. } => "start-round",
            ProtocolMsg::EndCollect { .. } => "end-collect",
            ProtocolMsg::TxBroadcast { .. } => "tx-broadcast",
            ProtocolMsg::TxUpload { .. } => "tx-upload",
            ProtocolMsg::Election { .. } => "election-claim",
            ProtocolMsg::ProposeBlock { .. } => "propose-block",
            ProtocolMsg::BlockProposal { .. } => "block-proposal",
            ProtocolMsg::HeaderEcho { .. } => "header-echo",
            ProtocolMsg::Evidence { .. } => "evidence",
            ProtocolMsg::BlockNotify { .. } => "block-notify",
            ProtocolMsg::Argue { .. } => "argue",
            ProtocolMsg::StakeTransfer(_) => "stake-transfer",
            ProtocolMsg::SyncRequest { .. } => "sync-request",
            ProtocolMsg::SyncResponse { .. } => "sync-response",
            ProtocolMsg::CheckpointShare(_) => "checkpoint-share",
            ProtocolMsg::Membership(_) => "membership",
            ProtocolMsg::MemberShare(_) => "member-share",
            ProtocolMsg::RepGossip { .. } => "rep-gossip",
            ProtocolMsg::Reliable { inner, .. } => inner.kind(),
            ProtocolMsg::Ack { .. } => "ack",
            ProtocolMsg::Reveal { .. } => "reveal",
        }
    }

    /// The declared size in bytes of this message between two nodes. The
    /// driver's commands arrive from outside the deployment and declare
    /// none; a [`ProtocolMsg::Reliable`] envelope adds its 8-byte token to
    /// the message it carries.
    pub fn wire_size(&self) -> usize {
        match self {
            ProtocolMsg::TxBroadcast { tx, .. } => tx.wire_size(),
            ProtocolMsg::TxUpload { batch, .. } => batch.wire_size(),
            ProtocolMsg::Election { .. } => 96,
            // Header fields, one proof per transaction, the proposer's
            // claim, and its signed header.
            ProtocolMsg::BlockProposal { block, claim, .. } => {
                64 + 96 * block.tx_count() + claim.as_ref().map_or(0, |_| 96) + 72
            }
            ProtocolMsg::HeaderEcho { .. } => 72,
            ProtocolMsg::Evidence { .. } => 160,
            ProtocolMsg::Argue { .. } => 40,
            ProtocolMsg::SyncRequest { .. } => 16,
            ProtocolMsg::SyncResponse { blocks, cert, .. } => {
                80 + 96 * blocks.iter().map(Block::tx_count).sum::<usize>()
                    + cert
                        .as_ref()
                        .map_or(0, |c| 104 + 16 * c.state.stakes.len() + 96 * c.sigs.len())
            }
            ProtocolMsg::CheckpointShare(_) | ProtocolMsg::MemberShare(_) => 112,
            ProtocolMsg::Membership(_) => 64,
            ProtocolMsg::RepGossip { scores, .. } => 16 + 8 * scores.len(),
            ProtocolMsg::Reliable { inner, .. } => inner.wire_size() + 8,
            ProtocolMsg::Ack { .. } => 8,
            ProtocolMsg::StartCollect { .. }
            | ProtocolMsg::StartRound { .. }
            | ProtocolMsg::EndCollect { .. }
            | ProtocolMsg::ProposeBlock { .. }
            | ProtocolMsg::BlockNotify { .. }
            | ProtocolMsg::StakeTransfer(_)
            | ProtocolMsg::Reveal { .. } => 0,
        }
    }
}
