//! One append-only segment file of the block store.
//!
//! Layout:
//!
//! ```text
//! +--------------------------------------------------+
//! | magic "PRBSEG\0\1" (8) | first_serial u64 BE (8) |  header, 16 bytes
//! +--------------------------------------------------+
//! | len u32 BE | sha256(payload) (32) | payload ...  |  record 0
//! | len u32 BE | sha256(payload) (32) | payload ...  |  record 1
//! | ...                                              |
//! +--------------------------------------------------+
//! ```
//!
//! Every record is individually checksummed, so a scan can tell exactly
//! how far the durable prefix extends: the first record whose length
//! field overruns the file or whose payload hash mismatches marks the
//! torn tail, and everything from there on is truncated away on open.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use prb_crypto::par;
use prb_crypto::sha256::{sha256, Digest};

use crate::store::StoreError;

/// Magic + format version prefix of every segment file.
pub const MAGIC: &[u8; 8] = b"PRBSEG\x00\x01";
/// Bytes of the segment header (magic + first serial).
pub const HEADER_BYTES: u64 = 16;
/// Bytes of a record header (length prefix + payload checksum).
pub const RECORD_HEADER_BYTES: u64 = 4 + 32;

/// What a scan of an existing segment file found.
#[derive(Debug)]
pub struct ScanOutcome<T> {
    /// The verified records, in order, each as the scan's `decode` read it.
    pub records: Vec<T>,
    /// Bytes of torn tail discarded (0 for a clean file).
    pub truncated_bytes: u64,
}

/// Records a worker claims at a time where [`Segment::open`] checksums and
/// decodes them in parallel.
const PAR_CHUNK: usize = 8;

/// An open segment file: the fixed header plus verified record geometry.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    file: File,
    first_serial: u64,
    /// End offset of every record, so pops and reads are O(1) lookups.
    record_ends: Vec<u64>,
}

impl Segment {
    /// Creates a fresh segment whose first record will hold `first_serial`,
    /// writing (but not fsyncing) the header. The caller is responsible
    /// for directory durability.
    pub fn create(path: PathBuf, first_serial: u64) -> Result<Self, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(MAGIC)?;
        file.write_all(&first_serial.to_be_bytes())?;
        Ok(Segment {
            path,
            file,
            first_serial,
            record_ends: Vec::new(),
        })
    }

    /// Opens an existing segment, verifying the header and every record
    /// checksum. A torn or corrupt tail is physically truncated so the
    /// file ends at its last durable record; each verified payload is
    /// passed to `decode`, and what it returns is handed back for replay.
    ///
    /// The records are framed by their length prefixes in order, then
    /// checksummed and decoded on up to `workers` threads
    /// ([`prb_crypto::par`]) straight from the file buffer; the first short
    /// record or bad checksum ends the durable prefix, as in a
    /// record-by-record scan.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadSegment`] when the header itself is
    /// unreadable — the caller treats the whole file (and every later
    /// segment) as lost.
    pub fn open<T, F>(
        path: PathBuf,
        workers: usize,
        decode: F,
    ) -> Result<(Self, ScanOutcome<T>), StoreError>
    where
        T: Send,
        F: Fn(&[u8]) -> T + Sync,
    {
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_BYTES as usize || &bytes[..8] != MAGIC {
            return Err(StoreError::BadSegment {
                path: path.display().to_string(),
            });
        }
        let first_serial = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
        // Every record whose length prefix fits the file, as (start, end).
        let mut frames = Vec::new();
        let mut pos = HEADER_BYTES as usize;
        while bytes.len() - pos >= RECORD_HEADER_BYTES as usize {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let payload_start = pos + RECORD_HEADER_BYTES as usize;
            if bytes.len() - payload_start < len {
                break;
            }
            frames.push((pos, payload_start + len));
            pos = payload_start + len;
        }
        let checked = par::map(&frames, PAR_CHUNK, workers, |&(start, end)| {
            let payload_start = start + RECORD_HEADER_BYTES as usize;
            let stored = Digest::from_slice(&bytes[start + 4..payload_start]).expect("32 bytes");
            let payload = &bytes[payload_start..end];
            (sha256(payload) == stored).then(|| decode(payload))
        });
        // The first bad checksum marks the torn tail.
        let records: Vec<T> = checked.into_iter().map_while(|record| record).collect();
        let record_ends: Vec<u64> = frames[..records.len()]
            .iter()
            .map(|&(_, end)| end as u64)
            .collect();
        let end = record_ends.last().copied().unwrap_or(HEADER_BYTES);
        let truncated_bytes = bytes.len() as u64 - end;
        if truncated_bytes > 0 {
            file.set_len(end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Segment {
                path,
                file,
                first_serial,
                record_ends,
            },
            ScanOutcome {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Serial of the first record in this segment.
    pub fn first_serial(&self) -> u64 {
        self.first_serial
    }

    /// Number of records currently held.
    pub fn records(&self) -> usize {
        self.record_ends.len()
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.record_ends.last().copied().unwrap_or(HEADER_BYTES)
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_ends.is_empty()
    }

    /// Appends one checksummed record.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let mut record = Vec::with_capacity(RECORD_HEADER_BYTES as usize + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        record.extend_from_slice(sha256(payload).as_bytes());
        record.extend_from_slice(payload);
        self.file.write_all(&record)?;
        self.record_ends.push(self.len() + record.len() as u64);
        Ok(())
    }

    /// Removes the last record by truncating the file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::EmptyPop`] when no record remains.
    pub fn pop(&mut self) -> Result<(), StoreError> {
        if self.record_ends.pop().is_none() {
            return Err(StoreError::EmptyPop);
        }
        self.file.set_len(self.len())?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// Reads record `index` back, re-verifying its checksum.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadSegment`] if the record was modified on
    /// disk since it was written.
    pub fn read(&mut self, index: usize) -> Result<Vec<u8>, StoreError> {
        let start = match index.checked_sub(1) {
            Some(prev) => self.record_ends[prev],
            None => HEADER_BYTES,
        };
        let end = self.record_ends[index];
        let mut record = vec![0u8; (end - start) as usize];
        self.file.seek(SeekFrom::Start(start))?;
        self.file.read_exact(&mut record)?;
        self.file.seek(SeekFrom::End(0))?;
        let stored = Digest::from_slice(&record[4..36]).expect("32 bytes");
        let payload = record[RECORD_HEADER_BYTES as usize..].to_vec();
        if sha256(&payload) != stored {
            return Err(StoreError::BadSegment {
                path: self.path.display().to_string(),
            });
        }
        Ok(payload)
    }

    /// Flushes and fsyncs the file.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Closes and deletes the segment file.
    pub fn delete(self) -> Result<(), StoreError> {
        drop(self.file);
        std::fs::remove_file(&self.path)?;
        Ok(())
    }

    /// The on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The record-by-record scan [`Segment::open`] replaced, kept as the
/// reference its parallel checksum and decode must agree with.
#[cfg(test)]
pub(crate) mod serial {
    use super::*;

    /// Opens a segment, checksumming records one by one and copying each
    /// verified payload out.
    pub(crate) fn open(path: PathBuf) -> Result<(Segment, ScanOutcome<Vec<u8>>), StoreError> {
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < HEADER_BYTES as usize || &bytes[..8] != MAGIC {
            return Err(StoreError::BadSegment {
                path: path.display().to_string(),
            });
        }
        let first_serial = u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let mut records = Vec::new();
        let mut record_ends = Vec::new();
        let mut pos = HEADER_BYTES as usize;
        while bytes.len() - pos >= RECORD_HEADER_BYTES as usize {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let payload_start = pos + RECORD_HEADER_BYTES as usize;
            if bytes.len() - payload_start < len {
                break;
            }
            let stored = Digest::from_slice(&bytes[pos + 4..payload_start]).expect("32 bytes");
            let payload = &bytes[payload_start..payload_start + len];
            if sha256(payload) != stored {
                break;
            }
            records.push(payload.to_vec());
            pos = payload_start + len;
            record_ends.push(pos as u64);
        }
        let truncated_bytes = (bytes.len() - pos) as u64;
        if truncated_bytes > 0 {
            file.set_len(pos as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Segment {
                path,
                file,
                first_serial,
                record_ends,
            },
            ScanOutcome {
                records,
                truncated_bytes,
            },
        ))
    }
}
