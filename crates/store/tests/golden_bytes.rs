//! Golden on-disk bytes of the checkpoint cert file and the membership
//! log: a store written by one build must reopen under the next, so
//! `encode_cert` and `encode_log` may not move. Each test pins the length
//! and SHA-256 of one fixed encoding.

use prb_consensus::checkpoint::{CheckpointCert, CheckpointState, CollectorSnapshot};
use prb_consensus::membership::{MemberRole, MembershipAction, MembershipCert, MembershipRequest};
use prb_crypto::sha256::sha256;
use prb_crypto::signer::{CryptoScheme, KeyPair, Sig};
use prb_store::{certfile, memberfile};

fn key(seed: &str) -> KeyPair {
    CryptoScheme::sim().keypair_from_seed(seed.as_bytes())
}

/// Governor `g`'s signature over a fixed label: the codec copies
/// signatures, it does not check them.
fn sigs(signers: &[u32], label: &[u8]) -> Vec<(u32, Sig)> {
    signers
        .iter()
        .map(|&g| (g, key(&format!("golden-g{g}")).sign(label)))
        .collect()
}

fn pinned(bytes: &[u8]) -> (usize, String) {
    (bytes.len(), sha256(bytes).to_hex())
}

#[test]
fn encode_cert_is_pinned() {
    let cert = CheckpointCert {
        state: CheckpointState {
            serial: 16,
            block_hash: sha256(b"golden-block-16"),
            stakes: vec![10, 20, 30, 40],
            stake_nonces: vec![0, 1, 0, 2],
            reputation: vec![
                CollectorSnapshot {
                    weights: vec![1.0, 0.5, 0.25],
                    misreport: -3,
                    forge: -1,
                },
                CollectorSnapshot {
                    weights: vec![0.125],
                    misreport: 4,
                    forge: 0,
                },
            ],
        },
        sigs: sigs(&[0, 2, 3], b"golden-cert"),
    };
    let mut out = Vec::new();
    certfile::encode_cert(&mut out, &cert);
    assert_eq!(
        pinned(&out),
        (
            299,
            "8f92ae64af87e9f5273439070ae945ef554da695b1dae112f133b9acb3abc7c5".to_string()
        )
    );
}

#[test]
fn encode_log_is_pinned() {
    let join = MembershipRequest::create(
        MemberRole::Collector,
        3,
        MembershipAction::Join,
        2,
        7,
        &key("golden-subject"),
    );
    let evict = MembershipRequest::evict(MemberRole::Governor, 1, 9);
    let log = vec![
        MembershipCert {
            state: join,
            sigs: sigs(&[0, 1, 2], b"golden-join"),
        },
        MembershipCert {
            state: evict,
            sigs: sigs(&[0, 2, 3], b"golden-evict"),
        },
    ];
    let mut out = Vec::new();
    memberfile::encode_log(&mut out, &log, &[]);
    assert_eq!(
        pinned(&out),
        (
            313,
            "20666c9fdc42293f06ea0af582d776545e1b547b192a2a0ab73c033da49e6b2e".to_string()
        )
    );
}
