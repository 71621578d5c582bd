//! The durable block store: an append-only segment log plus a
//! content-addressed index, with torn-write recovery.
//!
//! Recovery state machine (run by [`BlockStore::open`]):
//!
//! ```text
//!   load cert file (checksummed; torn => absent)
//!        |
//!   list segments, sorted by first serial
//!        |
//!   drop any segment whose header is torn or whose first serial does
//!   not continue the previous segment  ->  and every later segment
//!        |
//!   frame records by length prefix, then checksum and decode them in
//!   parallel; first bad checksum / short record marks the torn tail
//!   ->  truncate file there, drop every later segment
//!        |
//!   append the decoded blocks in order through Chain::append (re-verifies
//!   serials, hash chain, Merkle roots, b_limit)  ->  first failure
//!   truncates likewise
//!        |
//!   cert newer than the replayed chain?  ->  re-anchor at the cert
//!   (completes a reset-to-checkpoint that crashed mid-way)
//! ```
//!
//! The result is the longest durable prefix, byte-identical (via
//! [`Chain::export`]) to the in-memory chain at that height — the
//! property the E16 kill-at-any-byte matrix asserts offset by offset.

use std::fmt;
use std::path::{Path, PathBuf};

use prb_consensus::checkpoint::CheckpointCert;
use prb_consensus::evidence::EquivocationEvidence;
use prb_consensus::membership::MembershipCert;
use prb_crypto::sha256::Digest;
use prb_ledger::block::Block;
use prb_ledger::chain::{Chain, ChainError};
use prb_ledger::codec::{self, Reader};
use prb_obs::fxhash::{fx_map, FxMap};
use prb_obs::ObsHandle;

use crate::certfile;
use crate::segment::{Segment, RECORD_HEADER_BYTES};

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A segment file's header is unreadable.
    BadSegment {
        /// The offending file.
        path: String,
    },
    /// Append out of order: the store only accepts the next serial.
    SerialGap {
        /// Serial the store expected.
        expected: u64,
        /// Serial the block carried.
        got: u64,
    },
    /// Pop on a store holding no blocks.
    EmptyPop,
    /// The appended block fails chain validation against the stored tail.
    Chain(ChainError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::BadSegment { path } => write!(f, "unreadable segment {path}"),
            StoreError::SerialGap { expected, got } => {
                write!(f, "store expected serial {expected}, got {got}")
            }
            StoreError::EmptyPop => write!(f, "pop on an empty store"),
            StoreError::Chain(e) => write!(f, "stored chain violation: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Chain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ChainError> for StoreError {
    fn from(e: ChainError) -> Self {
        StoreError::Chain(e)
    }
}

/// When the store fsyncs the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every append — every acknowledged block is durable.
    Always,
    /// Only on segment roll and explicit [`BlockStore::sync`] — faster,
    /// but a crash can lose the blocks since the last sync (recovery
    /// still truncates to a consistent prefix).
    Manual,
}

/// Store configuration.
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Chain tag the genesis block derives from.
    pub chain_tag: Vec<u8>,
    /// Per-block transaction bound of the mirrored chain.
    pub b_limit: usize,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Fsync discipline.
    pub fsync: FsyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            chain_tag: b"prb-chain".to_vec(),
            b_limit: 4096,
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// What [`BlockStore::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The replayed chain: genesis-rooted, or anchored at the persisted
    /// checkpoint when the store was reset to one.
    pub chain: Chain,
    /// The persisted checkpoint certificate, if a valid one was found.
    pub cert: Option<CheckpointCert>,
    /// Torn-tail bytes truncated from the final surviving segment.
    pub truncated_bytes: u64,
    /// Whole segments dropped (torn headers or broken continuity).
    pub dropped_segments: usize,
}

/// Cumulative I/O counters, for benchmarks and the obs mirror.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Blocks appended this process lifetime.
    pub appends: u64,
    /// Payload bytes appended.
    pub append_bytes: u64,
    /// Blocks popped.
    pub pops: u64,
    /// fsync calls issued.
    pub fsyncs: u64,
    /// Segment rolls.
    pub rolls: u64,
}

/// The durable block store.
///
/// Mirrors a [`Chain`]: genesis is derived from the chain tag and never
/// stored; blocks `1..` (or `base..` after a checkpoint reset) live in
/// checksummed records across rolling segment files. A content-addressed
/// index maps block hashes to their records.
pub struct BlockStore {
    dir: PathBuf,
    opts: StoreOptions,
    /// Ordered by first serial; the last segment is the active one.
    segments: Vec<Segment>,
    /// Content address -> (segment index, record index).
    by_hash: FxMap<Digest, (usize, usize)>,
    /// Hash of block `base + i`, aligned with the stored records.
    hashes: Vec<Digest>,
    /// Serial of the first stored block.
    base: u64,
    next_serial: u64,
    stats: StoreStats,
    obs: ObsHandle,
}

impl fmt::Debug for BlockStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockStore")
            .field("dir", &self.dir)
            .field("segments", &self.segments.len())
            .field("base", &self.base)
            .field("next_serial", &self.next_serial)
            .finish()
    }
}

impl BlockStore {
    /// Opens (creating if necessary) the store in `dir`, running the
    /// torn-write recovery scan, and returns the store plus everything it
    /// recovered. Never panics on corrupt input: any unreadable tail is
    /// truncated to the last durable prefix.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] only for real filesystem failures
    /// (permissions, disk full) — corruption is recovered from, not
    /// reported as an error.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<(Self, Recovered), StoreError> {
        Self::open_on(dir, opts, prb_crypto::par::workers())
    }

    /// [`Self::open`], checksumming and decoding on `workers` threads.
    fn open_on(
        dir: &Path,
        opts: StoreOptions,
        workers: usize,
    ) -> Result<(Self, Recovered), StoreError> {
        std::fs::create_dir_all(dir)?;
        let cert = certfile::load(dir);
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
            })
            .collect();
        names.sort();

        let mut store = BlockStore {
            dir: dir.to_path_buf(),
            opts,
            segments: Vec::new(),
            by_hash: fx_map(),
            hashes: Vec::new(),
            base: 1,
            next_serial: 1,
            stats: StoreStats::default(),
            obs: prb_obs::Obs::off(),
        };
        let mut dropped = 0usize;
        let mut truncated = 0u64;

        // Pass 1: open segments in order, enforcing continuity; each scan
        // checksums and decodes its records in parallel. A record that does
        // not decode to exactly one block is `None`.
        let decode = |payload: &[u8]| {
            let mut r = Reader::new(payload);
            codec::decode_block(&mut r)
                .ok()
                .filter(|_| r.remaining() == 0)
        };
        let mut scans: Vec<Vec<Option<Block>>> = Vec::new();
        let mut expected_first: Option<u64> = None;
        let mut names = names.into_iter();
        for path in names.by_ref() {
            match Segment::open(path, workers, decode) {
                Ok((seg, scan)) => {
                    let continuous = match expected_first {
                        Some(next) => seg.first_serial() == next,
                        // The first segment determines the base; an
                        // anchored store needs its cert to vouch for it.
                        None => match (seg.first_serial(), &cert) {
                            (1, _) => true,
                            (first, Some(c)) => c.state.serial + 1 == first,
                            _ => false,
                        },
                    };
                    if !continuous {
                        dropped += 1;
                        let _ = seg.delete();
                        break;
                    }
                    expected_first = Some(seg.first_serial() + scan.records.len() as u64);
                    truncated += scan.truncated_bytes;
                    let short = scan.truncated_bytes > 0;
                    scans.push(scan.records);
                    store.segments.push(seg);
                    if short {
                        break; // a torn tail ends the durable prefix
                    }
                }
                Err(_) => {
                    dropped += 1;
                    break;
                }
            }
        }
        // Everything after the first break is beyond the durable prefix.
        for path in names {
            dropped += 1;
            let _ = std::fs::remove_file(path);
        }

        // Pass 2: replay payloads through the chain, which re-verifies
        // serials, the hash chain, Merkle roots and the size bound. The
        // first failure marks the end of the durable prefix.
        let mut chain = match store
            .segments
            .first()
            .map(|s| s.first_serial())
            .or(cert.as_ref().map(|c| c.state.serial + 1))
        {
            Some(first) if first > 1 => {
                let c = cert.as_ref().expect("anchored base requires a cert");
                Chain::from_checkpoint(c.state.serial, c.state.block_hash, store.opts.b_limit)
            }
            _ => Chain::new(&store.opts.chain_tag, store.opts.b_limit),
        };
        store.base = chain.next_serial();
        'replay: for (seg_idx, blocks) in scans.into_iter().enumerate() {
            for (rec_idx, block) in blocks.into_iter().enumerate() {
                let ok = block.and_then(|block| {
                    let hash = block.hash();
                    chain.append(block).ok().map(|()| hash)
                });
                match ok {
                    Some(hash) => {
                        store.by_hash.insert(hash, (seg_idx, rec_idx));
                        store.hashes.push(hash);
                    }
                    None => {
                        // Truncate the bad record and drop the rest.
                        truncated += store.truncate_from(seg_idx, rec_idx)?;
                        dropped += store.segments.len().saturating_sub(seg_idx + 1);
                        while store.segments.len() > seg_idx + 1 {
                            let seg = store.segments.pop().expect("length checked");
                            seg.delete()?;
                        }
                        break 'replay;
                    }
                }
            }
        }
        store.next_serial = chain.next_serial();

        // A cert strictly newer than the replayed chain means a
        // reset-to-checkpoint crashed between saving the cert and
        // rebuilding the segments: finish the job now.
        if let Some(c) = &cert {
            if c.state.serial > chain.height() {
                store.reset_to_checkpoint(c)?;
                chain =
                    Chain::from_checkpoint(c.state.serial, c.state.block_hash, store.opts.b_limit);
            }
        }

        // Make sure there is always an active segment to append into.
        if store.segments.is_empty() {
            store.roll(store.next_serial)?;
        }
        store.sync_dir()?;
        Ok((
            store,
            Recovered {
                chain,
                cert,
                truncated_bytes: truncated,
                dropped_segments: dropped,
            },
        ))
    }

    /// Routes the store's counters to an observability sink.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Serial the next appended block must carry.
    pub fn next_serial(&self) -> u64 {
        self.next_serial
    }

    /// Serial of the first stored block.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of blocks currently stored.
    pub fn blocks(&self) -> u64 {
        self.next_serial - self.base
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn segment_path(&self, first_serial: u64) -> PathBuf {
        self.dir.join(format!("seg-{first_serial:016x}.log"))
    }

    fn sync_dir(&self) -> Result<(), StoreError> {
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Starts a fresh active segment for `first_serial`.
    fn roll(&mut self, first_serial: u64) -> Result<(), StoreError> {
        if let Some(active) = self.segments.last_mut() {
            active.sync()?;
            self.stats.fsyncs += 1;
        }
        let seg = Segment::create(self.segment_path(first_serial), first_serial)?;
        self.segments.push(seg);
        self.sync_dir()?;
        self.stats.rolls += 1;
        self.stats.fsyncs += 1;
        self.obs.metrics().inc("store.roll");
        Ok(())
    }

    /// Truncates segment `seg_idx` so records `rec_idx..` are gone,
    /// returning the number of bytes removed.
    fn truncate_from(&mut self, seg_idx: usize, rec_idx: usize) -> Result<u64, StoreError> {
        let seg = &mut self.segments[seg_idx];
        let before = seg.len();
        while seg.records() > rec_idx {
            seg.pop()?;
        }
        seg.sync()?;
        Ok(before - seg.len())
    }

    /// Appends a block to the durable log. The block must already have
    /// passed chain validation (the store trusts its caller on semantic
    /// validity but still enforces serial continuity).
    ///
    /// # Errors
    ///
    /// [`StoreError::SerialGap`] for out-of-order appends, or an I/O
    /// error.
    pub fn append(&mut self, block: &Block) -> Result<(), StoreError> {
        if block.serial != self.next_serial {
            return Err(StoreError::SerialGap {
                expected: self.next_serial,
                got: block.serial,
            });
        }
        let mut payload = Vec::new();
        codec::encode_block(&mut payload, block);
        let active = self.segments.last().expect("open leaves an active segment");
        let record_len = RECORD_HEADER_BYTES + payload.len() as u64;
        if !active.is_empty() && active.len() + record_len > self.opts.segment_bytes {
            self.roll(block.serial)?;
        }
        let seg_idx = self.segments.len() - 1;
        let active = &mut self.segments[seg_idx];
        let rec_idx = active.records();
        active.append(&payload)?;
        if self.opts.fsync == FsyncPolicy::Always {
            active.sync()?;
            self.stats.fsyncs += 1;
            self.obs.metrics().inc("store.fsync");
        }
        let hash = block.hash();
        self.by_hash.insert(hash, (seg_idx, rec_idx));
        self.hashes.push(hash);
        self.next_serial += 1;
        self.stats.appends += 1;
        self.stats.append_bytes += payload.len() as u64;
        self.obs.metrics().inc("store.append");
        self.obs
            .metrics()
            .add("store.append_bytes", payload.len() as u64);
        Ok(())
    }

    /// Removes the last stored block (mirroring [`Chain::pop`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::EmptyPop`] when nothing is stored.
    pub fn pop(&mut self) -> Result<(), StoreError> {
        if self.next_serial == self.base {
            return Err(StoreError::EmptyPop);
        }
        // An empty active segment means the popped record lives in the
        // previous one: drop the empty file first.
        if self.segments.last().expect("non-empty store").is_empty() {
            let seg = self.segments.pop().expect("non-empty store");
            seg.delete()?;
            self.sync_dir()?;
        }
        let active = self.segments.last_mut().expect("non-empty store");
        active.pop()?;
        if self.opts.fsync == FsyncPolicy::Always {
            active.sync()?;
            self.stats.fsyncs += 1;
        }
        let hash = self.hashes.pop().expect("aligned with blocks");
        self.by_hash.remove(&hash);
        self.next_serial -= 1;
        self.stats.pops += 1;
        self.obs.metrics().inc("store.pop");
        Ok(())
    }

    /// Flushes and fsyncs the active segment (a no-op under
    /// [`FsyncPolicy::Always`], where every append already synced).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(active) = self.segments.last_mut() {
            active.sync()?;
            self.stats.fsyncs += 1;
        }
        Ok(())
    }

    /// Reads back the block with `serial`, re-verifying its record
    /// checksum and decoding it.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`StoreError::BadSegment`] if the record was
    /// modified on disk since written.
    pub fn read(&mut self, serial: u64) -> Result<Option<Block>, StoreError> {
        if serial < self.base || serial >= self.next_serial {
            return Ok(None);
        }
        let seg_idx = self
            .segments
            .partition_point(|s| s.first_serial() <= serial)
            - 1;
        let seg = &mut self.segments[seg_idx];
        let payload = seg.read((serial - seg.first_serial()) as usize)?;
        let mut r = Reader::new(&payload);
        let block = codec::decode_block(&mut r).map_err(|_| StoreError::BadSegment {
            path: seg.path().display().to_string(),
        })?;
        Ok(Some(block))
    }

    /// Content-addressed lookup: the block whose hash is `digest`.
    ///
    /// # Errors
    ///
    /// Same as [`read`](Self::read).
    pub fn read_by_hash(&mut self, digest: &Digest) -> Result<Option<Block>, StoreError> {
        let Some(&(_, _)) = self.by_hash.get(digest) else {
            return Ok(None);
        };
        // Resolve through the serial index so pops cannot leave stale
        // segment coordinates behind.
        let serial = self
            .hashes
            .iter()
            .position(|h| h == digest)
            .map(|i| self.base + i as u64)
            .expect("by_hash and hashes stay aligned");
        self.read(serial)
    }

    /// Persists `cert` as the store's checkpoint certificate (atomic:
    /// temp file + rename + fsync).
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn save_cert(&mut self, cert: &CheckpointCert) -> Result<(), StoreError> {
        certfile::save(&self.dir, cert)?;
        self.stats.fsyncs += 2;
        self.obs.metrics().inc("store.cert_saved");
        Ok(())
    }

    /// Persists the full member log, certs and equivocation proofs (atomic:
    /// temp file + rename + fsync), so committee epochs survive restart.
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn save_members(
        &mut self,
        certs: &[MembershipCert],
        proofs: &[EquivocationEvidence],
    ) -> Result<(), StoreError> {
        crate::memberfile::save(&self.dir, certs, proofs)?;
        self.stats.fsyncs += 2;
        self.obs.metrics().inc("store.members_saved");
        Ok(())
    }

    /// Loads the persisted member log (empty when absent or torn).
    pub fn load_members(&self) -> crate::memberfile::MemberLog {
        crate::memberfile::load(&self.dir)
    }

    /// Re-anchors the store at a verified checkpoint: persists the cert,
    /// deletes every segment, and starts a fresh one at
    /// `cert.serial + 1`. Crash-safe in every interleaving: the cert is
    /// durable before any segment is removed, and recovery finishes an
    /// interrupted reset (see [`open`](Self::open)).
    ///
    /// # Errors
    ///
    /// I/O errors only.
    pub fn reset_to_checkpoint(&mut self, cert: &CheckpointCert) -> Result<(), StoreError> {
        certfile::save(&self.dir, cert)?;
        for seg in self.segments.drain(..) {
            seg.delete()?;
        }
        self.by_hash = fx_map();
        self.hashes.clear();
        self.base = cert.state.serial + 1;
        self.next_serial = self.base;
        self.roll(self.base)?;
        self.sync_dir()?;
        self.obs.metrics().inc("store.reset");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use prb_consensus::checkpoint::{CheckpointShare, CheckpointState};
    use prb_crypto::identity::NodeId;
    use prb_crypto::sha256::sha256;
    use prb_crypto::signer::CryptoScheme;
    use prb_ledger::block::{BlockEntry, Verdict};
    use prb_ledger::transaction::{Label, SignedTx, TxPayload};

    use super::*;
    use crate::segment::{serial, HEADER_BYTES};

    /// The recovery [`BlockStore::open`] replaced: each segment scanned
    /// record by record, then every payload decoded and appended in turn.
    fn serial_open(dir: &Path, opts: StoreOptions) -> Result<(BlockStore, Recovered), StoreError> {
        std::fs::create_dir_all(dir)?;
        let cert = certfile::load(dir);
        let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".log"))
            })
            .collect();
        names.sort();

        let mut store = BlockStore {
            dir: dir.to_path_buf(),
            opts,
            segments: Vec::new(),
            by_hash: fx_map(),
            hashes: Vec::new(),
            base: 1,
            next_serial: 1,
            stats: StoreStats::default(),
            obs: prb_obs::Obs::off(),
        };
        let mut dropped = 0usize;
        let mut truncated = 0u64;

        let mut scans: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut expected_first: Option<u64> = None;
        let mut names = names.into_iter();
        for path in names.by_ref() {
            match serial::open(path) {
                Ok((seg, scan)) => {
                    let continuous = match expected_first {
                        Some(next) => seg.first_serial() == next,
                        None => match (seg.first_serial(), &cert) {
                            (1, _) => true,
                            (first, Some(c)) => c.state.serial + 1 == first,
                            _ => false,
                        },
                    };
                    if !continuous {
                        dropped += 1;
                        let _ = seg.delete();
                        break;
                    }
                    expected_first = Some(seg.first_serial() + scan.records.len() as u64);
                    truncated += scan.truncated_bytes;
                    let short = scan.truncated_bytes > 0;
                    scans.push(scan.records);
                    store.segments.push(seg);
                    if short {
                        break; // a torn tail ends the durable prefix
                    }
                }
                Err(_) => {
                    dropped += 1;
                    break;
                }
            }
        }
        for path in names {
            dropped += 1;
            let _ = std::fs::remove_file(path);
        }

        let mut chain = match store
            .segments
            .first()
            .map(|s| s.first_serial())
            .or(cert.as_ref().map(|c| c.state.serial + 1))
        {
            Some(first) if first > 1 => {
                let c = cert.as_ref().expect("anchored base requires a cert");
                Chain::from_checkpoint(c.state.serial, c.state.block_hash, store.opts.b_limit)
            }
            _ => Chain::new(&store.opts.chain_tag, store.opts.b_limit),
        };
        store.base = chain.next_serial();
        'replay: for (seg_idx, payloads) in scans.iter().enumerate() {
            for (rec_idx, payload) in payloads.iter().enumerate() {
                let mut r = Reader::new(payload);
                let ok = codec::decode_block(&mut r)
                    .ok()
                    .filter(|_| r.remaining() == 0)
                    .and_then(|block| {
                        let hash = block.hash();
                        chain.append(block).ok().map(|()| hash)
                    });
                match ok {
                    Some(hash) => {
                        store.by_hash.insert(hash, (seg_idx, rec_idx));
                        store.hashes.push(hash);
                    }
                    None => {
                        truncated += store.truncate_from(seg_idx, rec_idx)?;
                        dropped += store.segments.len().saturating_sub(seg_idx + 1);
                        while store.segments.len() > seg_idx + 1 {
                            let seg = store.segments.pop().expect("length checked");
                            seg.delete()?;
                        }
                        break 'replay;
                    }
                }
            }
        }
        store.next_serial = chain.next_serial();

        if let Some(c) = &cert {
            if c.state.serial > chain.height() {
                store.reset_to_checkpoint(c)?;
                chain =
                    Chain::from_checkpoint(c.state.serial, c.state.block_hash, store.opts.b_limit);
            }
        }

        if store.segments.is_empty() {
            store.roll(store.next_serial)?;
        }
        store.sync_dir()?;
        Ok((
            store,
            Recovered {
                chain,
                cert,
                truncated_bytes: truncated,
                dropped_segments: dropped,
            },
        ))
    }

    static DIRS: AtomicUsize = AtomicUsize::new(0);

    fn scratch(name: &str) -> PathBuf {
        let n = DIRS.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("prb-store-unit-{}-{name}-{n}", std::process::id()))
    }

    fn opts() -> StoreOptions {
        StoreOptions {
            chain_tag: b"sweep".to_vec(),
            b_limit: 8,
            segment_bytes: 8192,
            fsync: FsyncPolicy::Always,
        }
    }

    /// Every file of a store directory, by name.
    type Files = BTreeMap<String, Vec<u8>>;

    fn files(dir: &Path) -> Files {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| {
                let name = p.file_name().unwrap().to_str().unwrap().to_owned();
                (name, std::fs::read(&p).unwrap())
            })
            .collect()
    }

    fn materialise(dir: &Path, files: &Files) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }

    fn cert_at(chain: &Chain, serial: u64) -> CheckpointCert {
        let state = CheckpointState {
            serial,
            block_hash: chain.retrieve(serial).unwrap().hash(),
            stakes: vec![5, 5, 5, 5],
            stake_nonces: vec![0; 4],
            reputation: Vec::new(),
        };
        let digest = state.digest();
        let sigs = (0..4u32)
            .map(|g| {
                let key = CryptoScheme::sim().keypair_from_seed(&g.to_be_bytes());
                (g, CheckpointShare::create(serial, digest, g, &key).sig)
            })
            .collect();
        CheckpointCert { state, sigs }
    }

    /// An 80-block store over several segments, genesis-rooted, and the
    /// same chain reset to a checkpoint at serial 10 and rebuilt above it.
    fn sweep_stores() -> Vec<Files> {
        let key = CryptoScheme::sim().keypair_from_seed(b"sweep-p0");
        let mut chain = Chain::new(b"sweep", 8);
        for i in 0..80u64 {
            let entries = (0..i % 4)
                .map(|k| BlockEntry {
                    tx: SignedTx::create(
                        TxPayload {
                            provider: NodeId::provider(0),
                            nonce: i * 4 + k,
                            data: vec![7; 64],
                        },
                        i,
                        &key,
                    ),
                    verdict: Verdict::CheckedValid,
                    reported_labels: vec![(NodeId::collector(1), Label::Valid)],
                })
                .collect();
            let block = Block::build(
                chain.next_serial(),
                entries,
                chain.head_hash(),
                NodeId::governor(0),
                i,
            );
            chain.append(block).unwrap();
        }
        let mut out = Vec::new();
        for anchored in [false, true] {
            let dir = scratch("build");
            let (mut store, _) = BlockStore::open(&dir, opts()).unwrap();
            let from = if anchored {
                store.reset_to_checkpoint(&cert_at(&chain, 10)).unwrap();
                11
            } else {
                1
            };
            for serial in from..=80 {
                store.append(chain.retrieve(serial).unwrap()).unwrap();
            }
            assert!(
                store.segment_count() >= 3,
                "the sweep spans several segments"
            );
            drop(store);
            out.push(files(&dir));
            std::fs::remove_dir_all(&dir).unwrap();
        }
        out
    }

    /// Offsets in a segment file where each record starts, and its end.
    fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut at = vec![HEADER_BYTES as usize];
        let mut pos = at[0];
        while pos < bytes.len() {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += RECORD_HEADER_BYTES as usize + len;
            at.push(pos);
        }
        at
    }

    /// Every way the sweep damages one store: a cut and a byte flip at
    /// every record boundary of every segment, flips at sampled interior
    /// offsets, a torn segment header, a checksummed record holding a
    /// block and a trailing byte, and a missing middle segment.
    fn damaged(store: &Files) -> Vec<Files> {
        let mut out = vec![store.clone()];
        let segments: Vec<&String> = store.keys().filter(|n| n.starts_with("seg-")).collect();
        let mut z = 4177u64;
        for name in &segments {
            let bytes = &store[*name];
            let mut with = |f: &dyn Fn(&mut Vec<u8>)| {
                let mut copy = store.clone();
                f(copy.get_mut(*name).unwrap());
                out.push(copy);
            };
            for at in record_boundaries(bytes) {
                with(&|b| b.truncate(at));
                if at < bytes.len() {
                    with(&|b| b[at] ^= 0x80);
                    with(&|b| b[at + 20] ^= 0x01);
                }
            }
            with(&|b| b.truncate(8));
            // A record whose checksum holds over a block plus one byte.
            let at = record_boundaries(bytes)[5];
            with(&|b| {
                let len = u32::from_be_bytes(b[at..at + 4].try_into().unwrap()) as usize;
                let start = at + RECORD_HEADER_BYTES as usize;
                let mut payload = b[start..start + len].to_vec();
                payload.push(0);
                let mut record = (payload.len() as u32).to_be_bytes().to_vec();
                record.extend_from_slice(sha256(&payload).as_bytes());
                record.extend_from_slice(&payload);
                b.splice(at..start + len, record);
            });
            for _ in 0..20 {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let at = HEADER_BYTES as usize
                    + (z >> 33) as usize % (bytes.len() - HEADER_BYTES as usize);
                with(&|b| b[at] ^= 1 << (at % 8));
            }
        }
        let mut gap = store.clone();
        gap.remove(segments[1]);
        out.push(gap);
        out
    }

    #[test]
    fn parallel_open_agrees_with_the_serial_reference() {
        let (mut truncations, mut drops) = (0, 0);
        for store in sweep_stores() {
            for files_before in damaged(&store) {
                let run = |workers: Option<usize>| {
                    let dir = scratch("sweep");
                    materialise(&dir, &files_before);
                    let (store, rec) = match workers {
                        Some(w) => BlockStore::open_on(&dir, opts(), w),
                        None => serial_open(&dir, opts()),
                    }
                    .unwrap();
                    let seen = (
                        rec.chain.export(),
                        rec.cert.map(|c| c.state.serial),
                        rec.truncated_bytes,
                        rec.dropped_segments,
                        (store.base(), store.next_serial(), store.segment_count()),
                    );
                    drop(store);
                    let left = files(&dir);
                    std::fs::remove_dir_all(&dir).unwrap();
                    (seen, left)
                };
                let want = run(None);
                truncations += usize::from(want.0 .2 > 0);
                drops += usize::from(want.0 .3 > 0);
                for workers in [1, 2, 4] {
                    assert!(run(Some(workers)) == want, "workers={workers}");
                }
            }
        }
        assert!(
            truncations > 50 && drops > 50,
            "{truncations} truncations, {drops} drops"
        );
    }
}
