//! Golden signing bytes of the quorum shares.
//!
//! A share's signature covers a 32-byte message derived from its kind's
//! domain tag, the signer and the subject. Those bytes are part of every
//! persisted cert and every ledger head that rests on one, so they may
//! not move when the code that builds them does. The sim signer's tag is
//! `SHA-256("sim-sig" ‖ pk ‖ m)`, so a share verifies against the pinned
//! message iff it signed exactly those bytes.

use prb_consensus::checkpoint::{CheckpointShare, CheckpointState, CollectorSnapshot};
use prb_consensus::membership::{MemberRole, MembershipAction, MembershipRequest, MembershipShare};
use prb_crypto::sha256::{sha256, Digest};
use prb_crypto::signer::{CryptoScheme, KeyPair};

fn key(seed: &str) -> KeyPair {
    CryptoScheme::sim().keypair_from_seed(seed.as_bytes())
}

fn golden(hex: &str) -> Vec<u8> {
    Digest::from_hex(hex)
        .expect("32-byte hex")
        .as_bytes()
        .to_vec()
}

fn checkpoint_state() -> CheckpointState {
    CheckpointState {
        serial: 16,
        block_hash: sha256(b"golden-block-16"),
        stakes: vec![10, 20, 30, 40],
        stake_nonces: vec![0, 1, 0, 2],
        reputation: vec![CollectorSnapshot {
            weights: vec![1.0, 0.5, 0.25],
            misreport: -3,
            forge: -1,
        }],
    }
}

#[test]
fn checkpoint_state_digest_is_pinned() {
    assert_eq!(
        checkpoint_state().digest().to_hex(),
        "4dc6d8198b4384a223ae8a18d4cec0bbb528f1438ab23dffd617b67aebdbe77b"
    );
}

#[test]
fn checkpoint_share_signs_pinned_bytes() {
    let k = key("golden-g2");
    let state = checkpoint_state();
    let share = CheckpointShare::create(state.serial, state.digest(), 2, &k);
    let msg = golden("409df15896c9faa605721a687e77415417ac3d0f39827ae313ce1760a2c8db2f");
    assert!(k.public_key().verify(&msg, &share.sig));
}

#[test]
fn membership_request_digest_is_pinned() {
    let join = MembershipRequest::create(
        MemberRole::Collector,
        3,
        MembershipAction::Join,
        2,
        7,
        &key("golden-subject"),
    );
    assert_eq!(
        join.digest().to_hex(),
        "118bf8c85e5fc984d3e91283e1098ef728d4eefb8dda313db540d5660dd6459f"
    );
    let evict = MembershipRequest::evict(MemberRole::Governor, 1, 9);
    assert_eq!(
        evict.digest().to_hex(),
        "99f384b2a593546381648ad6013882cc18e8be71acfcc274c2494dfab7601a66"
    );
}

#[test]
fn membership_share_signs_pinned_bytes() {
    let k = key("golden-g1");
    let req = MembershipRequest::evict(MemberRole::Governor, 1, 9);
    let share = MembershipShare::sign(&req, 1, &k);
    let msg = golden("acd3beb37447ffe666bba0b718455915fedfdc04b4a64c206ac04551e2a9a964");
    assert!(k.public_key().verify(&msg, &share.sig));
}
