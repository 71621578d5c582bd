//! A header echo over a hash a governor already recorded changes nothing
//! and costs no signature check; a conflicting hash still convicts.
//!
//! Its own file, so its own process, and one `#[test]`, so one thread:
//! `prb_crypto::stats` keeps counts per thread and folds them into
//! process-wide totals, so a snapshot sees this thread's counts and those
//! of every thread folded before it (a `par` worker folds itself as it
//! finishes), and here nothing else adds to them.

use std::cell::RefCell;
use std::rc::Rc;

use prb_consensus::evidence::SignedHeader;
use prb_core::config::ProtocolConfig;
use prb_core::governor::GovernorNode;
use prb_core::msg::ProtocolMsg;
use prb_core::node::NodeActor;
use prb_crypto::sha256::sha256;
use prb_crypto::signer::{CryptoScheme, KeyPair, PublicKey};
use prb_crypto::stats::{self, Primitive};
use prb_ledger::oracle::ValidityOracle;
use prb_net::sim::{NetConfig, Network};
use prb_net::topology::Topology;

/// Three governors over Schnorr keys on a quiet network.
fn committee() -> (Network<NodeActor>, Vec<KeyPair>) {
    let cfg = ProtocolConfig {
        providers: 1,
        collectors: 2,
        governors: 3,
        replication: 2,
        tx_per_provider: 1,
        seed: 5,
        ..Default::default()
    };
    let scheme = CryptoScheme::schnorr_test_256();
    let collector_pks: Vec<PublicKey> = (0..2)
        .map(|c| {
            let seed = format!("echo-c{c}");
            scheme.keypair_from_seed(seed.as_bytes()).public_key()
        })
        .collect();
    let provider_pk = scheme.keypair_from_seed(b"echo-p0").public_key();
    let keys: Vec<KeyPair> = (0..3)
        .map(|g| scheme.keypair_from_seed(format!("echo-g{g}").as_bytes()))
        .collect();
    let pks: Vec<PublicKey> = keys.iter().map(KeyPair::public_key).collect();
    let topology = Rc::new(Topology::cyclic(cfg.topology_params()).unwrap());
    let oracle = Rc::new(RefCell::new(ValidityOracle::new()));
    let mut net = Network::new(NetConfig::uniform(1, 2), 4);
    for (g, key) in keys.iter().enumerate() {
        net.add_node(NodeActor::governor(GovernorNode::new(
            g as u32,
            key.clone(),
            cfg.clone(),
            Rc::clone(&topology),
            Rc::clone(&oracle),
            0,
            collector_pks.clone(),
            vec![provider_pk.clone()],
            pks.clone(),
        )));
    }
    (net, keys)
}

/// Delivers `header` to governor 0 as a peer's echo and runs the network
/// dry; returns the signature checks made and the echoes sent meanwhile.
fn echo_to_governor_0(net: &mut Network<NodeActor>, header: &SignedHeader) -> (u64, u64) {
    let checks = || stats::snapshot().wall[Primitive::SchnorrVerify as usize][0];
    let echoes = |net: &Network<NodeActor>| net.stats().kind("header-echo").sent;
    let (checks0, echoes0) = (checks(), echoes(net));
    let at = net.now();
    let msg = ProtocolMsg::HeaderEcho {
        header: Box::new(header.clone()),
    };
    net.send_external(0, "relayed-echo", msg, at);
    net.run_until_idle(1_000);
    (checks() - checks0, echoes(net) - echoes0)
}

fn governor(net: &Network<NodeActor>, g: usize) -> &GovernorNode {
    net.node(g).as_governor().unwrap()
}

#[test]
fn a_repeated_header_echo_changes_nothing_and_costs_no_verify() {
    stats::set_timing(true);
    let (mut net, keys) = committee();
    let header = SignedHeader::create(1, 0, 1, sha256(b"block a"), &keys[1]);

    // First sighting: governor 0 checks it and echoes it to both peers.
    // Governor 2 checks and echoes it in turn; the copy that comes back to
    // governor 0, and the one governor 1 gets of its own header, are
    // dropped unchecked.
    let (checks, echoes) = echo_to_governor_0(&mut net, &header);
    assert_eq!((checks, echoes), (2, 4));

    // Again: no check, no echo, and governor 0's counters are as they were.
    let before = format!("{:?}", governor(&net, 0).metrics());
    let (checks, echoes) = echo_to_governor_0(&mut net, &header);
    assert_eq!((checks, echoes), (0, 0));
    let after = governor(&net, 0);
    assert!(after.expelled().is_empty());
    assert_eq!(after.metrics().evidence_broadcast, 0);
    assert_eq!(format!("{:?}", after.metrics()), before);

    // A conflicting hash at the same serial is still checked and convicts.
    let conflict = SignedHeader::create(1, 0, 1, sha256(b"block b"), &keys[1]);
    let (checks, _) = echo_to_governor_0(&mut net, &conflict);
    assert!(checks > 0);
    for g in [0, 2] {
        assert_eq!(governor(&net, g).expelled(), &[1], "governor {g}");
    }
    assert_eq!(governor(&net, 0).metrics().evidence_broadcast, 1);
    stats::set_timing(false);
}
