//! SHA-256 digests per arriving membership share, counted without a wall
//! clock: a share is checked against the cert log's kept digests, so its
//! cost does not grow with the log.
//!
//! Its own file, so its own process, and one `#[test]`, so one thread:
//! a snapshot here sees only what this test hashed.

use prb_consensus::membership::{CommitteeView, MemberRole};
use prb_consensus::{MembershipRequest, MembershipShare};
use prb_crypto::signer::{CryptoScheme, KeyPair};
use prb_crypto::stats;

/// A four-governor, three-collector view with `logged` eviction certs of
/// collector 0 (one per effective round), and the governors' keys.
fn view_with(logged: u64) -> (CommitteeView, Vec<KeyPair>) {
    let scheme = CryptoScheme::sim();
    let key = |tag: String| scheme.keypair_from_seed(tag.as_bytes());
    let gkeys: Vec<KeyPair> = (0..4).map(|g| key(format!("cost-g{g}"))).collect();
    let cpks = (0..3).map(|c| key(format!("cost-c{c}")).public_key());
    let gpks = gkeys.iter().map(KeyPair::public_key).collect();
    let mut view = CommitteeView::new(gpks, cpks.collect(), 3);
    for round in 1..=logged {
        let req = MembershipRequest::evict(MemberRole::Collector, 0, round);
        view.on_request(req.clone(), 0, 0, &gkeys[0]);
        view.on_share(MembershipShare::sign(&req, 1, &gkeys[1]));
        assert!(view.on_share(MembershipShare::sign(&req, 2, &gkeys[2])));
    }
    assert_eq!(view.certs().len() as u64, logged);
    (view, gkeys)
}

/// SHA-256 calls `view` spends on one request for a fresh round and on
/// one peer share of it (buffered, short of a quorum).
fn per_message(view: &mut CommitteeView, gkeys: &[KeyPair]) -> (u64, u64) {
    let req = MembershipRequest::evict(MemberRole::Collector, 0, 100);
    let share = MembershipShare::sign(&req, 1, &gkeys[1]);
    let before = stats::snapshot();
    let (own, formed) = view.on_request(req, 0, 0, &gkeys[0]);
    let mid = stats::snapshot();
    assert!(own.is_some() && !formed);
    assert!(!view.on_share(share));
    let after = stats::snapshot();
    (
        mid.delta_since(&before).sha256_calls,
        after.delta_since(&mid).sha256_calls,
    )
}

#[test]
fn a_share_costs_the_same_digests_with_1_and_with_20_logged_certs() {
    let (mut short, gkeys) = view_with(1);
    let (mut long, _) = view_with(20);
    let short_cost = per_message(&mut short, &gkeys);
    assert_eq!(per_message(&mut long, &gkeys), short_cost);
    assert!(short_cost.1 > 0, "a share's signature is checked");
}
