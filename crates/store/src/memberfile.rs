//! Atomic persistence of the member log (E17): the membership certs and
//! the equivocation proofs.
//!
//! A governor's membership epochs must survive restart: the log of
//! quorum-certified join/leave/evict transitions, and the proofs that
//! convicted a governor of equivocation, are what let a recovered node
//! re-derive its [`prb_consensus::membership::EpochLog`] — who counted
//! at any round — and re-verify old certs by the one counting rule. Both
//! check out under the committee's keys alone; a conviction for an
//! invalid block does not, and is not kept. The proofs follow the certs
//! as an optional trailer, so a log without any is byte for byte what it
//! was before they were kept. The log is written like
//! [`crate::certfile`]'s cert: checksummed, atomically replaced. A torn
//! or tampered file reads as an empty log — safe, because certs are
//! re-fetchable from peers and the chain. A governor re-audits every cert
//! and re-verifies every proof it reopens.

use std::path::Path;

use prb_consensus::evidence::{EquivocationEvidence, SignedHeader};
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

fn encode_header(out: &mut Vec<u8>, h: &SignedHeader) {
    out.extend_from_slice(&h.proposer.to_be_bytes());
    out.extend_from_slice(&h.round.to_be_bytes());
    out.extend_from_slice(&h.serial.to_be_bytes());
    out.extend_from_slice(h.block_hash.as_bytes());
    codec::encode_sig(out, &h.sig);
}

fn decode_header(r: &mut Reader<'_>) -> Result<SignedHeader, DecodeError> {
    Ok(SignedHeader {
        proposer: r.u32()?,
        round: r.u64()?,
        serial: r.u64()?,
        block_hash: r.digest()?,
        sig: codec::decode_sig(r)?,
    })
}

/// Canonical encoding of the full log (no trailing checksum): the certs,
/// then the equivocation proofs, if any, as a trailer.
pub fn encode_log(out: &mut Vec<u8>, certs: &[MembershipCert], proofs: &[EquivocationEvidence]) {
    out.extend_from_slice(&(certs.len() as u32).to_be_bytes());
    for c in certs {
        encode_one(out, c);
    }
    if proofs.is_empty() {
        return;
    }
    out.extend_from_slice(&(proofs.len() as u32).to_be_bytes());
    for e in proofs {
        encode_header(out, &e.first);
        encode_header(out, &e.second);
    }
}

/// Decodes a log encoded with [`encode_log`], up to the end of `r`.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, malformed fields or trailing
/// bytes.
pub fn decode_log(r: &mut Reader<'_>) -> Result<MemberLog, DecodeError> {
    let counted = |r: &mut Reader<'_>, least: usize| {
        let n = r.u32()? as usize;
        if n > r.remaining() / least {
            return Err(DecodeError::BadLength);
        }
        Ok(n)
    };
    let n = counted(r, 27)?;
    let certs = (0..n).map(|_| decode_one(r)).collect::<Result<_, _>>()?;
    let mut proofs = Vec::new();
    if r.remaining() > 0 {
        let n = counted(r, 112)?;
        proofs = (0..n)
            .map(|_| {
                Ok(EquivocationEvidence::new(
                    decode_header(r)?,
                    decode_header(r)?,
                ))
            })
            .collect::<Result<_, _>>()?;
    }
    if r.remaining() > 0 {
        return Err(DecodeError::BadLength);
    }
    Ok((certs, proofs))
}

/// A member log: the membership certs, oldest first, and one equivocation
/// proof per convicted governor.
pub type MemberLog = (Vec<MembershipCert>, Vec<EquivocationEvidence>);

/// Atomically persists the full member log to `dir/membership.log`.
///
/// # Errors
///
/// Returns a [`StoreError`] on any I/O failure.
pub fn save(
    dir: &Path,
    certs: &[MembershipCert],
    proofs: &[EquivocationEvidence],
) -> Result<(), StoreError> {
    let mut bytes = Vec::new();
    encode_log(&mut bytes, certs, proofs);
    write_checked(dir, MEMBER_FILE, bytes)
}

/// Loads the persisted member log, if a valid one exists. Any torn,
/// truncated or tampered file is reported as an empty log — never an
/// error and never a panic.
pub fn load(dir: &Path) -> MemberLog {
    read_checked(dir, MEMBER_FILE)
        .and_then(|body| decode_log(&mut Reader::new(&body)).ok())
        .unwrap_or_default()
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
        save(&dir, &certs, &[]).unwrap();
        assert_eq!(load(&dir), (certs.clone(), Vec::new()));
        // Overwrite with a longer log and two equivocation proofs: the
        // rename is atomic, reload sees the new contents.
        let mut longer = certs.clone();
        longer.extend(certs.clone());
        let key = CryptoScheme::sim().keypair_from_seed(b"memberfile-g1");
        let header = |round, block: &[u8]| {
            let hash = prb_crypto::sha256::sha256(block);
            SignedHeader::create(1, round, 3, hash, &key)
        };
        let proofs = vec![
            EquivocationEvidence::new(header(4, b"a"), header(4, b"b")),
            EquivocationEvidence::new(header(u64::MAX, b"c"), header(u64::MAX, b"d")),
        ];
        save(&dir, &longer, &proofs).unwrap();
        assert_eq!(load(&dir), (longer, proofs));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_torn_or_tampered_files_read_as_empty() {
        let dir = tmpdir("torn");
        assert!(load(&dir).0.is_empty(), "missing file");
        let certs = sample();
        save(&dir, &certs, &[]).unwrap();
        // Truncate: checksum fails.
        let raw = std::fs::read(dir.join(MEMBER_FILE)).unwrap();
        std::fs::write(dir.join(MEMBER_FILE), &raw[..raw.len() - 7]).unwrap();
        assert!(load(&dir).0.is_empty(), "torn file");
        // Flip a byte: checksum fails.
        let mut flipped = raw.clone();
        flipped[4] ^= 0xff;
        std::fs::write(dir.join(MEMBER_FILE), &flipped).unwrap();
        assert!(load(&dir).0.is_empty(), "tampered file");
        // Restore: loads again.
        std::fs::write(dir.join(MEMBER_FILE), &raw).unwrap();
        assert_eq!(load(&dir).0, certs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_log_roundtrips() {
        let dir = tmpdir("empty");
        save(&dir, &[], &[]).unwrap();
        assert_eq!(load(&dir), (Vec::new(), Vec::new()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
