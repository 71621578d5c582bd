//! Atomic persistence of the membership-certificate log (E17).
//!
//! A governor's membership epochs must survive restart: the log of
//! quorum-certified join/leave/evict transitions is what lets a
//! recovered node re-derive the committee as it stood at any chain
//! serial and re-verify old checkpoint certs against the right quorum
//! size. The log is written like [`crate::certfile`]'s cert: checksummed,
//! atomically replaced. A torn or tampered file reads as an
//! empty log — safe, because certs are re-fetchable from peers and the
//! chain. A governor re-audits every cert it reopens.

use std::path::Path;

use prb_consensus::membership::{MemberRole, MembershipAction, MembershipCert, MembershipRequest};
use prb_ledger::codec::{self, DecodeError, Reader};

use crate::certfile::{decode_sigs, encode_sigs, read_checked, write_checked};
use crate::store::StoreError;

/// File name of the persisted membership log inside the store directory.
pub const MEMBER_FILE: &str = "membership.log";

fn encode_one(out: &mut Vec<u8>, cert: &MembershipCert) {
    let r = &cert.state;
    out.extend_from_slice(&[r.role.tag(), r.action.tag()]);
    out.extend_from_slice(&r.member.to_be_bytes());
    out.extend_from_slice(&r.bond.to_be_bytes());
    out.extend_from_slice(&r.effective_round.to_be_bytes());
    match &r.sig {
        Some(sig) => {
            out.push(1);
            codec::encode_sig(out, sig);
        }
        None => out.push(0),
    }
    encode_sigs(out, &cert.sigs);
}

fn decode_one(r: &mut Reader<'_>) -> Result<MembershipCert, DecodeError> {
    let role = MemberRole::from_tag(r.u8()?).ok_or(DecodeError::BadLength)?;
    let action = MembershipAction::from_tag(r.u8()?).ok_or(DecodeError::BadLength)?;
    let member = r.u32()?;
    let bond = r.u64()?;
    let effective_round = r.u64()?;
    let sig = match r.u8()? {
        0 => None,
        1 => Some(codec::decode_sig(r)?),
        _ => return Err(DecodeError::BadLength),
    };
    let sigs = decode_sigs(r)?;
    Ok(MembershipCert {
        state: MembershipRequest {
            role,
            member,
            action,
            bond,
            effective_round,
            sig,
        },
        sigs,
    })
}

/// Canonical encoding of the full log (no trailing checksum).
pub fn encode_log(out: &mut Vec<u8>, certs: &[MembershipCert]) {
    out.extend_from_slice(&(certs.len() as u32).to_be_bytes());
    for c in certs {
        encode_one(out, c);
    }
}

/// Decodes a log encoded with [`encode_log`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation or malformed fields.
pub fn decode_log(r: &mut Reader<'_>) -> Result<Vec<MembershipCert>, DecodeError> {
    let n = r.u32()? as usize;
    if n > r.remaining() / 27 {
        return Err(DecodeError::BadLength);
    }
    let mut certs = Vec::with_capacity(n);
    for _ in 0..n {
        certs.push(decode_one(r)?);
    }
    Ok(certs)
}

/// Atomically persists the full membership log to `dir/membership.log`.
///
/// # Errors
///
/// Returns a [`StoreError`] on any I/O failure.
pub fn save(dir: &Path, certs: &[MembershipCert]) -> Result<(), StoreError> {
    let mut bytes = Vec::new();
    encode_log(&mut bytes, certs);
    write_checked(dir, MEMBER_FILE, bytes)
}

/// Loads the persisted membership log, if a valid one exists. Any torn,
/// truncated or tampered file is reported as an empty log — never an
/// error and never a panic.
pub fn load(dir: &Path) -> Vec<MembershipCert> {
    let Some(body) = read_checked(dir, MEMBER_FILE) else {
        return Vec::new();
    };
    let mut r = Reader::new(&body);
    match decode_log(&mut r) {
        Ok(certs) if r.remaining() == 0 => certs,
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::CryptoScheme;
    use std::path::PathBuf;

    fn sample() -> Vec<MembershipCert> {
        let scheme = CryptoScheme::sim();
        let subject = scheme.keypair_from_seed(b"memberfile-subject");
        let gov = scheme.keypair_from_seed(b"memberfile-g0");
        let join = MembershipRequest::create(
            MemberRole::Collector,
            3,
            MembershipAction::Join,
            2,
            7,
            &subject,
        );
        let evict = MembershipRequest::evict(MemberRole::Governor, 1, 9);
        [join, evict]
            .into_iter()
            .map(|request| {
                let share = prb_consensus::membership::MembershipShare::sign(&request, 0, &gov);
                MembershipCert {
                    state: request,
                    sigs: vec![(0, share.sig)],
                }
            })
            .collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prb-memberfile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let certs = sample();
        save(&dir, &certs).unwrap();
        assert_eq!(load(&dir), certs);
        // Overwrite with a longer log: the rename is atomic, reload sees
        // the new contents.
        let mut longer = certs.clone();
        longer.extend(certs.clone());
        save(&dir, &longer).unwrap();
        assert_eq!(load(&dir), longer);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_torn_or_tampered_files_read_as_empty() {
        let dir = tmpdir("torn");
        assert!(load(&dir).is_empty(), "missing file");
        let certs = sample();
        save(&dir, &certs).unwrap();
        // Truncate: checksum fails.
        let raw = std::fs::read(dir.join(MEMBER_FILE)).unwrap();
        std::fs::write(dir.join(MEMBER_FILE), &raw[..raw.len() - 7]).unwrap();
        assert!(load(&dir).is_empty(), "torn file");
        // Flip a byte: checksum fails.
        let mut flipped = raw.clone();
        flipped[4] ^= 0xff;
        std::fs::write(dir.join(MEMBER_FILE), &flipped).unwrap();
        assert!(load(&dir).is_empty(), "tampered file");
        // Restore: loads again.
        std::fs::write(dir.join(MEMBER_FILE), &raw).unwrap();
        assert_eq!(load(&dir), certs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_log_roundtrips() {
        let dir = tmpdir("empty");
        save(&dir, &[]).unwrap();
        assert!(load(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
