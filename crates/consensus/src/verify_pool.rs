//! A std-only worker pool for batched signature verification.
//!
//! Governors accumulate signature checks per block (provider signatures
//! during screening, the stake-block certificate) and drain them through a
//! [`VerifyPool`]: the batch is split into one contiguous chunk per worker,
//! the chunks run on scoped threads through `prb_crypto::par`, and each
//! worker runs the randomized-linear-combination batch verifier from
//! `prb_crypto::batch` over its chunk. Two layers of speedup compose:
//!
//! 1. **algebraic** — within a chunk, one Straus multi-exponentiation
//!    replaces `n` independent verifications (`prb_crypto::batch`), and
//! 2. **parallel** — chunks verify concurrently across OS threads.
//!
//! Results are positionally identical to calling `PublicKey::verify` item
//! by item, for every thread count: chunking only changes *which* random
//! linear combinations are checked, not their
//! verdicts (batch-vs-sequential equality is property-tested in
//! `prb-crypto`), so simulations remain bit-for-bit deterministic under any
//! `verify_threads` setting.
//!
//! The pool spawns scoped threads per drain rather than keeping a resident
//! thread set: verification batches are milliseconds-long for the secure
//! parameter sets, so spawn cost is noise there, and the small-batch /
//! sim-scheme cases never reach the spawn path at all (see
//! [`PAR_MIN_ITEMS`]).

use prb_crypto::par;
use prb_crypto::signer::{self, PublicKey, Sig};

/// Default inline threshold: below this many items a drain runs inline on
/// the caller's thread — the per-thread spawn + join overhead outweighs any
/// parallel win, and the sim scheme's hash-only checks are far cheaper than
/// a context switch. Tunable per pool via [`VerifyPool::with_inline_min`]
/// (surfaced as `ProtocolConfig::verify_inline_min`). Wall-clock sweeps over
/// 2/8/32 at schnorr-2048 ranked the three differently on every host tried
/// (DESIGN.md, "Engine decision"), so 8 is a spawn-cost floor, not a tuned
/// optimum.
pub const PAR_MIN_ITEMS: usize = 8;

/// Minimum items per worker chunk; keeps the RLC combination large enough
/// that the shared squaring chain still amortises.
const MIN_CHUNK: usize = 4;

/// A handle describing how verification batches are drained.
///
/// Cheap to clone; carries only the configured parallelism. `threads == 1`
/// (or small batches) verify inline via the same batch verifier, so results
/// never depend on the thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyPool {
    threads: usize,
    inline_min: usize,
}

impl Default for VerifyPool {
    fn default() -> Self {
        VerifyPool::single_threaded()
    }
}

impl VerifyPool {
    /// Creates a pool with the given worker count; `0` selects the host
    /// parallelism (capped at 8 — verification batches rarely have enough
    /// items to feed more workers).
    pub fn new(threads: usize) -> Self {
        VerifyPool::with_inline_min(threads, PAR_MIN_ITEMS)
    }

    /// Creates a pool with an explicit inline threshold: batches smaller
    /// than `inline_min` verify on the caller's thread regardless of the
    /// worker count. `inline_min == 0` behaves like `1` (every non-empty
    /// batch may fan out). Verdicts never depend on the threshold.
    pub fn with_inline_min(threads: usize, inline_min: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(1)
        } else {
            threads
        };
        VerifyPool {
            threads,
            inline_min: inline_min.max(1),
        }
    }

    /// A pool that always verifies inline on the caller's thread.
    pub fn single_threaded() -> Self {
        VerifyPool::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured inline threshold.
    pub fn inline_min(&self) -> usize {
        self.inline_min
    }

    /// Verifies a batch of signatures; `out[i]` is the verdict for
    /// `items[i]`, identical to `items[i].2.verify(items[i].0, items[i].1)`.
    pub fn verify_sigs(&self, items: &[(&[u8], &Sig, &PublicKey)]) -> Vec<bool> {
        self.run(items, signer::verify_batch)
    }

    /// Splits `items` into one chunk per worker and maps them through
    /// [`prb_crypto::par::map_chunks`], which applies `f` to each chunk on
    /// its own thread and stitches the outputs back in order.
    fn run<I, O, F>(&self, items: &[I], f: F) -> Vec<O>
    where
        I: Sync,
        O: Send,
        F: Fn(&[I]) -> Vec<O> + Sync,
    {
        if self.threads <= 1 || items.len() < self.inline_min {
            return f(items);
        }
        let workers = self.threads.min(items.len().div_ceil(MIN_CHUNK)).max(1);
        par::map_chunks(items, items.len().div_ceil(workers), workers, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prb_crypto::signer::{CryptoScheme, KeyPair};

    fn schnorr_fixture(n: usize) -> (Vec<KeyPair>, Vec<Vec<u8>>, Vec<Sig>) {
        let scheme = CryptoScheme::schnorr_test_256();
        let keys: Vec<KeyPair> = (0..n)
            .map(|i| scheme.keypair_from_seed(format!("pool-{i}").as_bytes()))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..n as u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let sigs: Vec<Sig> = keys.iter().zip(&msgs).map(|(k, m)| k.sign(m)).collect();
        (keys, msgs, sigs)
    }

    #[test]
    fn pooled_verdicts_match_per_item_for_every_thread_count() {
        let (keys, msgs, mut sigs) = schnorr_fixture(13);
        // Forge two of them.
        sigs[4] = keys[4].sign(b"different message");
        sigs[9] = keys[0].sign(&msgs[9]);
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let items: Vec<(&[u8], &Sig, &PublicKey)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (&m[..], &sigs[i], &pks[i]))
            .collect();
        let expected: Vec<bool> = items.iter().map(|(m, s, pk)| pk.verify(m, s)).collect();
        for threads in [1, 2, 3, 4, 7] {
            let pool = VerifyPool::new(threads);
            assert_eq!(pool.verify_sigs(&items), expected, "threads={threads}");
        }
        assert!(!expected[4] && !expected[9] && expected[0]);
    }

    #[test]
    fn small_batches_and_sim_scheme_stay_inline() {
        // The sim scheme plus tiny batches exercise the inline path; the
        // contract is only about results, which must match per-item checks.
        let scheme = CryptoScheme::sim();
        let keys: Vec<KeyPair> = (0..3)
            .map(|i| scheme.keypair_from_seed(format!("s{i}").as_bytes()))
            .collect();
        let sigs: Vec<Sig> = keys.iter().map(|k| k.sign(b"m")).collect();
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let items: Vec<(&[u8], &Sig, &PublicKey)> = sigs
            .iter()
            .zip(&pks)
            .map(|(s, pk)| (&b"m"[..], s, pk))
            .collect();
        let pool = VerifyPool::new(4);
        assert_eq!(pool.verify_sigs(&items), vec![true; 3]);
        assert!(pool.verify_sigs(&[]).is_empty());
    }

    #[test]
    fn auto_thread_selection_is_positive() {
        assert!(VerifyPool::new(0).threads() >= 1);
        assert_eq!(VerifyPool::single_threaded().threads(), 1);
        assert_eq!(VerifyPool::default(), VerifyPool::single_threaded());
    }

    #[test]
    fn inline_threshold_is_tunable_and_never_changes_verdicts() {
        assert_eq!(VerifyPool::new(2).inline_min(), PAR_MIN_ITEMS);
        assert_eq!(VerifyPool::with_inline_min(2, 0).inline_min(), 1);
        let (keys, msgs, mut sigs) = schnorr_fixture(6);
        sigs[2] = keys[2].sign(b"not the message");
        let pks: Vec<_> = keys.iter().map(|k| k.public_key()).collect();
        let items: Vec<(&[u8], &Sig, &PublicKey)> = msgs
            .iter()
            .enumerate()
            .map(|(i, m)| (&m[..], &sigs[i], &pks[i]))
            .collect();
        let expected: Vec<bool> = items.iter().map(|(m, s, pk)| pk.verify(m, s)).collect();
        // 6 items sit below the default threshold (inline) but above a
        // threshold of 2 (fan out); verdicts must be identical either way.
        for inline_min in [1, 2, 8, 64] {
            let pool = VerifyPool::with_inline_min(3, inline_min);
            assert_eq!(pool.verify_sigs(&items), expected, "inline={inline_min}");
        }
    }
}
