//! The structured event model.
//!
//! Every observable occurrence in the stack — a kernel-level message
//! send, a governor screening decision, a PBFT phase transition — is an
//! [`Event`]: *who* (node + role), *when* (sim-time tick + round), and
//! *what* (an [`EventKind`] with a typed payload). Kind names are static
//! strings in a dotted namespace (`msg.sent`, `gov.screened`,
//! `pbft.prepared`, `phase.end`, …) so sinks can group and count without
//! parsing.

/// The node id recorded for driver-injected events (`from == EXTERNAL`
/// in the kernel).
pub const EXTERNAL_NODE: u64 = u64::MAX;

/// What a node is in the three-tier topology (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// The simulation driver / external world.
    External,
    /// A data provider.
    Provider,
    /// A collector.
    Collector,
    /// A governor.
    Governor,
    /// A baseline consensus replica (PBFT / rotation harnesses).
    Replica,
}

impl Role {
    /// The lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::External => "external",
            Role::Provider => "provider",
            Role::Collector => "collector",
            Role::Governor => "governor",
            Role::Replica => "replica",
        }
    }
}

/// Why the kernel dropped a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Sender or receiver crashed.
    Crash,
    /// Sender and receiver are in different partition groups.
    Partition,
    /// Probabilistic link loss.
    Loss,
}

impl DropReason {
    /// The lower-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::Crash => "crash",
            DropReason::Partition => "partition",
            DropReason::Loss => "loss",
        }
    }
}

/// One typed payload field, as handed to sinks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A float (finite in practice; serialized as `null` otherwise).
    F64(f64),
    /// A boolean.
    Bool(bool),
    /// A static string.
    Str(&'static str),
}

/// The event taxonomy with typed payloads.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Kernel: a message entered the network (`msg.sent`).
    MsgSent {
        /// Wire kind of the message.
        msg: &'static str,
        /// Receiver node index.
        to: u64,
        /// Declared payload size.
        bytes: u64,
    },
    /// Kernel: a message reached its receiver's handler (`msg.delivered`).
    MsgDelivered {
        /// Wire kind of the message.
        msg: &'static str,
        /// Sender node index ([`EXTERNAL_NODE`] for driver commands).
        from: u64,
        /// Declared payload size.
        bytes: u64,
        /// Delivery latency in sim ticks.
        latency: u64,
    },
    /// Kernel: a message was lost to a fault (`msg.dropped`).
    MsgDropped {
        /// Wire kind of the message.
        msg: &'static str,
        /// Sender node index.
        from: u64,
        /// Declared payload size.
        bytes: u64,
        /// Which fault consumed it.
        reason: DropReason,
    },
    /// Kernel: a timer fired (`timer.fired`).
    TimerFired {
        /// The timer's id.
        timer: u64,
    },
    /// Governor: the round's PoS-VRF election settled (`gov.election`).
    ElectionDecided {
        /// Winning governor (node index).
        leader: u64,
        /// Number of claims considered.
        claims: u64,
    },
    /// Provider: a signed transaction entered the system (`tx.submitted`).
    /// `trace` is the causal trace id (first 8 bytes of the tx digest)
    /// every later lifecycle event carries.
    TxSubmitted {
        /// Causal trace id.
        trace: u64,
        /// The submitting provider's index.
        provider: u64,
    },
    /// Governor: first labeled copy arrived, the Δ aggregation window
    /// opened and the tx entered the mempool (`tx.admitted`).
    TxAdmitted {
        /// Causal trace id.
        trace: u64,
    },
    /// Governor: Algorithm 2 screened a transaction (`gov.screened`).
    TxScreened {
        /// Causal trace id.
        trace: u64,
        /// The drawn reporter's collector id.
        drawn: u64,
        /// Whether the drawn report was checked (vs. trusted).
        checked: bool,
        /// The label the drawn reporter gave.
        label_valid: bool,
    },
    /// Governor: a checked transaction went through full validation
    /// (`tx.validated`).
    TxValidated {
        /// Causal trace id.
        trace: u64,
        /// Ground-truth validity the oracle returned.
        valid: bool,
    },
    /// Governor: the leader included the transaction in a proposed block
    /// (`tx.proposed`).
    TxProposed {
        /// Causal trace id.
        trace: u64,
        /// Serial of the proposed block.
        serial: u64,
    },
    /// Governor: the transaction's block was appended to the local chain
    /// (`tx.committed`).
    TxCommitted {
        /// Causal trace id.
        trace: u64,
        /// Serial of the committed block.
        serial: u64,
    },
    /// A transaction left the pipeline without committing (`tx.dropped`).
    /// Reasons: `concealed` (collector suppressed it), `forged` (every
    /// copy's signature failed), `invalid` (checked and rejected),
    /// `censored` (a byzantine leader filtered it). A drop is terminal
    /// only if no other replica commits the tx later.
    TxDropped {
        /// Causal trace id.
        trace: u64,
        /// Why it was dropped.
        reason: &'static str,
    },
    /// Governor: an upload's signature did not verify (`gov.forgery`).
    ForgeryDetected {
        /// The offending collector id.
        collector: u64,
    },
    /// Governor: the leader assembled and broadcast a block (`gov.proposed`).
    BlockProposed {
        /// Block serial.
        serial: u64,
        /// Number of entries.
        entries: u64,
    },
    /// Governor: a block was appended to the local chain (`gov.committed`).
    BlockCommitted {
        /// Block serial.
        serial: u64,
        /// Number of entries.
        entries: u64,
    },
    /// Governor: an argue was accepted — unchecked-invalid overturned
    /// (`gov.argue_accepted`).
    ArgueAccepted {
        /// The arguing provider id.
        provider: u64,
    },
    /// Governor: an argue was rejected (`gov.argue_rejected`).
    ArgueRejected {
        /// The arguing provider id.
        provider: u64,
        /// Why (`bound`, `unknown-tx`, `not-unchecked`, `duplicate`).
        reason: &'static str,
    },
    /// Governor: external evidence revealed an unchecked verdict
    /// (`gov.revealed`).
    Revealed {
        /// The ground-truth validity.
        valid: bool,
        /// Whether the recorded verdict matched it.
        verdict_correct: bool,
    },
    /// Collector: an adversarial action on a transaction (`col.adversary`).
    CollectorAction {
        /// `flip`, `drop`, or `forge`.
        action: &'static str,
    },
    /// Governor: verified equivocation evidence against a governor
    /// (`byzantine.equivocation`).
    EquivocationDetected {
        /// The double-signing governor.
        culprit: u64,
        /// The block serial of the header that completed the conflict.
        serial: u64,
    },
    /// Governor: a governor was expelled from the committee
    /// (`byzantine.expelled`).
    GovernorExpelled {
        /// The expelled governor.
        culprit: u64,
        /// The round the expulsion took effect locally.
        round: u64,
    },
    /// PBFT: a replica accepted a pre-prepare (`pbft.preprepare`).
    PbftPrePrepare {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
    },
    /// PBFT: a replica reached the prepared predicate (`pbft.prepared`).
    PbftPrepared {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
    },
    /// PBFT: a replica committed (`pbft.committed`).
    PbftCommitted {
        /// View number.
        view: u64,
        /// Sequence number.
        seq: u64,
    },
    /// PBFT: a replica moved to a new view (`pbft.viewchange`).
    PbftViewChange {
        /// The view being entered.
        view: u64,
    },
    /// Rotation baseline: a height decided, or skipped on leader timeout
    /// (`rot.decided`).
    RotationDecided {
        /// The height.
        height: u64,
        /// `true` when the leader timed out and the height was skipped.
        skipped: bool,
    },
    /// A protocol phase completed; `ticks` is its sim-time duration
    /// (`phase.end`). Also feeds the `phase.<name>` histograms.
    PhaseEnd {
        /// Phase name (`election`, `proposal`, `screening`, `vote`,
        /// `commit`, `reveal`, `argue`).
        phase: &'static str,
        /// Duration in sim ticks.
        ticks: u64,
    },
}

impl EventKind {
    /// The static, dotted kind name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MsgSent { .. } => "msg.sent",
            EventKind::MsgDelivered { .. } => "msg.delivered",
            EventKind::MsgDropped { .. } => "msg.dropped",
            EventKind::TimerFired { .. } => "timer.fired",
            EventKind::ElectionDecided { .. } => "gov.election",
            EventKind::TxSubmitted { .. } => "tx.submitted",
            EventKind::TxAdmitted { .. } => "tx.admitted",
            EventKind::TxScreened { .. } => "gov.screened",
            EventKind::TxValidated { .. } => "tx.validated",
            EventKind::TxProposed { .. } => "tx.proposed",
            EventKind::TxCommitted { .. } => "tx.committed",
            EventKind::TxDropped { .. } => "tx.dropped",
            EventKind::ForgeryDetected { .. } => "gov.forgery",
            EventKind::BlockProposed { .. } => "gov.proposed",
            EventKind::BlockCommitted { .. } => "gov.committed",
            EventKind::ArgueAccepted { .. } => "gov.argue_accepted",
            EventKind::ArgueRejected { .. } => "gov.argue_rejected",
            EventKind::Revealed { .. } => "gov.revealed",
            EventKind::CollectorAction { .. } => "col.adversary",
            EventKind::EquivocationDetected { .. } => "byzantine.equivocation",
            EventKind::GovernorExpelled { .. } => "byzantine.expelled",
            EventKind::PbftPrePrepare { .. } => "pbft.preprepare",
            EventKind::PbftPrepared { .. } => "pbft.prepared",
            EventKind::PbftCommitted { .. } => "pbft.committed",
            EventKind::PbftViewChange { .. } => "pbft.viewchange",
            EventKind::RotationDecided { .. } => "rot.decided",
            EventKind::PhaseEnd { .. } => "phase.end",
        }
    }

    /// For kernel message events, the wire kind of the message; the key
    /// used when reconciling against `MessageStats`.
    pub fn msg_kind(&self) -> Option<&'static str> {
        match self {
            EventKind::MsgSent { msg, .. }
            | EventKind::MsgDelivered { msg, .. }
            | EventKind::MsgDropped { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// For transaction-lifecycle events, the causal trace id.
    pub fn trace_id(&self) -> Option<u64> {
        match *self {
            EventKind::TxSubmitted { trace, .. }
            | EventKind::TxAdmitted { trace }
            | EventKind::TxScreened { trace, .. }
            | EventKind::TxValidated { trace, .. }
            | EventKind::TxProposed { trace, .. }
            | EventKind::TxCommitted { trace, .. }
            | EventKind::TxDropped { trace, .. } => Some(trace),
            _ => None,
        }
    }

    /// Visits the payload fields in declaration order.
    pub fn visit_fields(&self, mut f: impl FnMut(&'static str, FieldValue)) {
        use FieldValue::{Bool, Str, U64};
        match *self {
            EventKind::MsgSent { msg, to, bytes } => {
                f("msg", Str(msg));
                f("to", U64(to));
                f("bytes", U64(bytes));
            }
            EventKind::MsgDelivered {
                msg,
                from,
                bytes,
                latency,
            } => {
                f("msg", Str(msg));
                f("from", U64(from));
                f("bytes", U64(bytes));
                f("latency", U64(latency));
            }
            EventKind::MsgDropped {
                msg,
                from,
                bytes,
                reason,
            } => {
                f("msg", Str(msg));
                f("from", U64(from));
                f("bytes", U64(bytes));
                f("reason", Str(reason.as_str()));
            }
            EventKind::TimerFired { timer } => f("timer", U64(timer)),
            EventKind::ElectionDecided { leader, claims } => {
                f("leader", U64(leader));
                f("claims", U64(claims));
            }
            EventKind::TxSubmitted { trace, provider } => {
                f("trace", U64(trace));
                f("provider", U64(provider));
            }
            EventKind::TxAdmitted { trace } => f("trace", U64(trace)),
            EventKind::TxScreened {
                trace,
                drawn,
                checked,
                label_valid,
            } => {
                f("trace", U64(trace));
                f("drawn", U64(drawn));
                f("checked", Bool(checked));
                f("label_valid", Bool(label_valid));
            }
            EventKind::TxValidated { trace, valid } => {
                f("trace", U64(trace));
                f("valid", Bool(valid));
            }
            EventKind::TxProposed { trace, serial } | EventKind::TxCommitted { trace, serial } => {
                f("trace", U64(trace));
                f("serial", U64(serial));
            }
            EventKind::TxDropped { trace, reason } => {
                f("trace", U64(trace));
                f("reason", Str(reason));
            }
            EventKind::ForgeryDetected { collector } => f("collector", U64(collector)),
            EventKind::BlockProposed { serial, entries }
            | EventKind::BlockCommitted { serial, entries } => {
                f("serial", U64(serial));
                f("entries", U64(entries));
            }
            EventKind::ArgueAccepted { provider } => f("provider", U64(provider)),
            EventKind::ArgueRejected { provider, reason } => {
                f("provider", U64(provider));
                f("reason", Str(reason));
            }
            EventKind::Revealed {
                valid,
                verdict_correct,
            } => {
                f("valid", Bool(valid));
                f("verdict_correct", Bool(verdict_correct));
            }
            EventKind::CollectorAction { action } => f("action", Str(action)),
            EventKind::EquivocationDetected { culprit, serial } => {
                f("culprit", U64(culprit));
                f("serial", U64(serial));
            }
            EventKind::GovernorExpelled { culprit, round } => {
                f("culprit", U64(culprit));
                f("round", U64(round));
            }
            EventKind::PbftPrePrepare { view, seq }
            | EventKind::PbftPrepared { view, seq }
            | EventKind::PbftCommitted { view, seq } => {
                f("view", U64(view));
                f("seq", U64(seq));
            }
            EventKind::PbftViewChange { view } => f("view", U64(view)),
            EventKind::RotationDecided { height, skipped } => {
                f("height", U64(height));
                f("skipped", Bool(skipped));
            }
            EventKind::PhaseEnd { phase, ticks } => {
                f("phase", Str(phase));
                f("ticks", U64(ticks));
            }
        }
    }
}

/// One fully-resolved trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Sim-time tick at which it happened.
    pub time: u64,
    /// The acting node's kernel index ([`EXTERNAL_NODE`] for the driver).
    pub node: u64,
    /// The acting node's role.
    pub role: Role,
    /// Protocol round in progress.
    pub round: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Serializes as one JSON object (no trailing newline) onto `out`.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"t\":");
        crate::json::write_u64(out, self.time);
        out.push_str(",\"node\":");
        if self.node == EXTERNAL_NODE {
            out.push_str("null");
        } else {
            crate::json::write_u64(out, self.node);
        }
        out.push_str(",\"role\":");
        crate::json::write_str(out, self.role.as_str());
        out.push_str(",\"round\":");
        crate::json::write_u64(out, self.round);
        out.push_str(",\"kind\":");
        crate::json::write_str(out, self.kind.name());
        self.kind.visit_fields(|name, value| {
            out.push(',');
            crate::json::write_str(out, name);
            out.push(':');
            crate::json::write_value(out, value);
        });
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let event = Event {
            time: 42,
            node: 3,
            role: Role::Governor,
            round: 7,
            kind: EventKind::MsgSent {
                msg: "tx-broadcast",
                to: 9,
                bytes: 128,
            },
        };
        let mut out = String::new();
        event.write_json(&mut out);
        assert_eq!(
            out,
            "{\"t\":42,\"node\":3,\"role\":\"governor\",\"round\":7,\
             \"kind\":\"msg.sent\",\"msg\":\"tx-broadcast\",\"to\":9,\"bytes\":128}"
        );
    }

    #[test]
    fn external_node_serializes_as_null() {
        let event = Event {
            time: 0,
            node: EXTERNAL_NODE,
            role: Role::External,
            round: 0,
            kind: EventKind::TimerFired { timer: 1 },
        };
        let mut out = String::new();
        event.write_json(&mut out);
        assert!(out.contains("\"node\":null"), "{out}");
    }

    #[test]
    fn lifecycle_events_carry_the_trace_id() {
        let kinds = [
            EventKind::TxSubmitted {
                trace: 7,
                provider: 2,
            },
            EventKind::TxAdmitted { trace: 7 },
            EventKind::TxScreened {
                trace: 7,
                drawn: 1,
                checked: true,
                label_valid: true,
            },
            EventKind::TxValidated {
                trace: 7,
                valid: true,
            },
            EventKind::TxProposed {
                trace: 7,
                serial: 3,
            },
            EventKind::TxCommitted {
                trace: 7,
                serial: 3,
            },
            EventKind::TxDropped {
                trace: 7,
                reason: "invalid",
            },
        ];
        for k in kinds {
            assert_eq!(k.trace_id(), Some(7), "{}", k.name());
            let mut first = None;
            k.visit_fields(|name, value| {
                if first.is_none() {
                    first = Some((name, value));
                }
            });
            assert_eq!(first, Some(("trace", FieldValue::U64(7))), "{}", k.name());
        }
        assert_eq!(EventKind::TimerFired { timer: 0 }.trace_id(), None);
    }

    #[test]
    fn lifecycle_json_shape_is_stable() {
        let event = Event {
            time: 9,
            node: 20,
            role: Role::Governor,
            round: 2,
            kind: EventKind::TxCommitted {
                trace: 12345,
                serial: 4,
            },
        };
        let mut out = String::new();
        event.write_json(&mut out);
        assert_eq!(
            out,
            "{\"t\":9,\"node\":20,\"role\":\"governor\",\"round\":2,\
             \"kind\":\"tx.committed\",\"trace\":12345,\"serial\":4}"
        );
    }

    #[test]
    fn every_kind_has_a_dotted_name() {
        let kinds = [
            EventKind::MsgSent {
                msg: "x",
                to: 0,
                bytes: 0,
            },
            EventKind::TimerFired { timer: 0 },
            EventKind::ElectionDecided {
                leader: 0,
                claims: 0,
            },
            EventKind::PhaseEnd {
                phase: "vote",
                ticks: 1,
            },
        ];
        for k in kinds {
            assert!(k.name().contains('.'), "{}", k.name());
        }
    }
}
