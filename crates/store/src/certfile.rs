//! Atomic persistence of the latest checkpoint certificate, and the
//! checksummed file and signature-list codec [`crate::memberfile`] shares.
//!
//! The cert is the store's trust anchor after a reset-to-checkpoint, so it
//! is written with full crash discipline: body plus SHA-256 into
//! `<name>.tmp`, fsync, rename over the live name, fsync the directory. A
//! torn or tampered cert file fails its checksum and is treated as absent
//! — the store then recovers from whatever segments remain, which is always
//! safe (the cert is an optimization, the segments are the ground truth
//! for a genesis-rooted store).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use prb_consensus::checkpoint::{CheckpointCert, CheckpointState, CollectorSnapshot};
use prb_crypto::sha256::sha256;
use prb_crypto::signer::Sig;
use prb_ledger::codec::{self, DecodeError, Reader};

use crate::store::StoreError;

/// File name of the persisted certificate inside the store directory.
pub const CERT_FILE: &str = "checkpoint.cert";

/// Canonical encoding of a checkpoint certificate (no trailing checksum).
pub fn encode_cert(out: &mut Vec<u8>, cert: &CheckpointCert) {
    let s = &cert.state;
    out.extend_from_slice(&s.serial.to_be_bytes());
    out.extend_from_slice(s.block_hash.as_bytes());
    out.extend_from_slice(&(s.stakes.len() as u32).to_be_bytes());
    for &v in &s.stakes {
        out.extend_from_slice(&v.to_be_bytes());
    }
    for &v in &s.stake_nonces {
        out.extend_from_slice(&v.to_be_bytes());
    }
    out.extend_from_slice(&(s.reputation.len() as u32).to_be_bytes());
    for c in &s.reputation {
        out.extend_from_slice(&(c.weights.len() as u32).to_be_bytes());
        for &w in &c.weights {
            out.extend_from_slice(&w.to_bits().to_be_bytes());
        }
        out.extend_from_slice(&c.misreport.to_be_bytes());
        out.extend_from_slice(&c.forge.to_be_bytes());
    }
    encode_sigs(out, &cert.sigs);
}

/// Decodes a certificate encoded with [`encode_cert`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation or malformed fields.
pub fn decode_cert(r: &mut Reader<'_>) -> Result<CheckpointCert, DecodeError> {
    let serial = r.u64()?;
    let block_hash = r.digest()?;
    let n_stakes = r.u32()? as usize;
    if n_stakes > r.remaining() / 8 {
        return Err(DecodeError::BadLength);
    }
    let mut stakes = Vec::with_capacity(n_stakes);
    for _ in 0..n_stakes {
        stakes.push(r.u64()?);
    }
    let mut stake_nonces = Vec::with_capacity(n_stakes);
    for _ in 0..n_stakes {
        stake_nonces.push(r.u64()?);
    }
    let n_rep = r.u32()? as usize;
    if n_rep > r.remaining() / 20 {
        return Err(DecodeError::BadLength);
    }
    let mut reputation = Vec::with_capacity(n_rep);
    for _ in 0..n_rep {
        let n_w = r.u32()? as usize;
        if n_w > r.remaining() / 8 {
            return Err(DecodeError::BadLength);
        }
        let mut weights = Vec::with_capacity(n_w);
        for _ in 0..n_w {
            weights.push(f64::from_bits(r.u64()?));
        }
        let misreport = r.u64()? as i64;
        let forge = r.u64()? as i64;
        reputation.push(CollectorSnapshot {
            weights,
            misreport,
            forge,
        });
    }
    let sigs = decode_sigs(r)?;
    Ok(CheckpointCert {
        state: CheckpointState {
            serial,
            block_hash,
            stakes,
            stake_nonces,
            reputation,
        },
        sigs,
    })
}

/// Atomically persists `cert` to `dir/checkpoint.cert`.
pub fn save(dir: &Path, cert: &CheckpointCert) -> Result<(), StoreError> {
    let mut bytes = Vec::new();
    encode_cert(&mut bytes, cert);
    write_checked(dir, CERT_FILE, bytes)
}

/// Loads the persisted certificate, if a valid one exists. Any torn,
/// truncated or tampered file is reported as `None` — never an error and
/// never a panic.
pub fn load(dir: &Path) -> Option<CheckpointCert> {
    let body = read_checked(dir, CERT_FILE)?;
    let mut r = Reader::new(&body);
    let cert = decode_cert(&mut r).ok()?;
    (r.remaining() == 0).then_some(cert)
}

/// Atomically replaces `dir/name` with `body` and its checksum.
pub(crate) fn write_checked(dir: &Path, name: &str, mut body: Vec<u8>) -> Result<(), StoreError> {
    let checksum = sha256(&body);
    body.extend_from_slice(checksum.as_bytes());
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&body)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(name))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The body of `dir/name` when the file exists and its checksum holds.
pub(crate) fn read_checked(dir: &Path, name: &str) -> Option<Vec<u8>> {
    let mut bytes = std::fs::read(dir.join(name)).ok()?;
    let split = bytes.len().checked_sub(32)?;
    if sha256(&bytes[..split]).as_bytes() != &bytes[split..] {
        return None;
    }
    bytes.truncate(split);
    Some(bytes)
}

/// Encodes a cert's `(governor, signature)` pairs, count first.
pub(crate) fn encode_sigs(out: &mut Vec<u8>, sigs: &[(u32, Sig)]) {
    out.extend_from_slice(&(sigs.len() as u32).to_be_bytes());
    for (g, sig) in sigs {
        out.extend_from_slice(&g.to_be_bytes());
        codec::encode_sig(out, sig);
    }
}

/// Decodes pairs encoded with [`encode_sigs`].
pub(crate) fn decode_sigs(r: &mut Reader<'_>) -> Result<Vec<(u32, Sig)>, DecodeError> {
    let n = r.u32()? as usize;
    if n > r.remaining() / 5 {
        return Err(DecodeError::BadLength);
    }
    let mut sigs = Vec::with_capacity(n);
    for _ in 0..n {
        let g = r.u32()?;
        sigs.push((g, codec::decode_sig(r)?));
    }
    Ok(sigs)
}
