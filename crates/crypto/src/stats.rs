//! Counters for the modular-exponentiation and hashing hot paths, kept
//! per thread and folded into process-wide totals.
//!
//! The crypto layer is shared across simulation threads (groups cross
//! thread boundaries through their `Arc` inner), while the `prb-obs`
//! registry is deliberately single-threaded (`Rc`-based). The hot path
//! adds into a block of plain cells owned by its own thread — no locked
//! read-modify-write, no cache line shared with another core — and a
//! thread's block is added into the process-wide atomics ([`fold`]) at
//! the points where its counts must become visible:
//!
//! - when a [`crate::par::map_chunks`] worker has claimed its last chunk,
//!   before it hands back its outputs (so the caller's join sees them),
//! - when [`snapshot`] runs on that thread,
//! - when a caller that runs its own threads calls [`fold`] at the end of
//!   each (the experiment harness's `run_seeds` does), because a scoped
//!   thread's join can return before its thread-locals are destroyed,
//! - and, as a backstop, when the thread's block is destroyed.
//!
//! A [`snapshot`] therefore sees every count made on its own thread and
//! on every thread folded before it: the work of a finished `par` map or
//! `run_seeds` call, not that of a thread still running. Deltas between
//! two snapshots on one thread are exact for the work that thread did or
//! waited for.
//!
//! Counted events:
//!
//! - `modexp_calls` — full modular exponentiations (Montgomery or plain),
//! - `multi_pow_calls` — Straus/Shamir simultaneous exponentiations,
//! - `table_builds` — fixed-base comb-table precomputations,
//! - `table_pows` — exponentiations answered from a fixed-base table,
//! - `products` — Montgomery products of every kind: squarings,
//!   multiplications and conversions, table builds included. The same
//!   count on either kernel, and unlike time it does not depend on the
//!   host,
//! - `dleq_proofs` — Chaum–Pedersen proofs built (one per VRF evaluation
//!   that is actually proved),
//! - `batch_calls` / `batch_items` — RLC batch verifications and the items
//!   they covered ([`crate::batch`]),
//! - `batch_bisect_steps` — batch splits while isolating a bad item,
//! - `batch_fallback_items` — batch items that ended up individually
//!   verified (singleton partitions and bisection leaves),
//! - `sha256_calls` — SHA-256 digests finalised (one per
//!   [`crate::sha256::Sha256::finalize`], whatever the input length).
//!
//! # Wall-clock attribution
//!
//! [`set_timing`] switches on per-[`Primitive`] call and wall-nanosecond
//! counters ([`CryptoStats::wall`]), kept and folded like the others. Off
//! by default, a timed primitive costs one relaxed load. Times are
//! inclusive: a DLEQ verify's time holds the Jacobi symbols and
//! exponentiations inside it, so rows overlap and do not sum to a total.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A counter [`add`] bumps, in [`CryptoStats`] field order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Counter {
    Modexp,
    MultiPow,
    TableBuilds,
    TablePows,
    Products,
    DleqProofs,
    BatchCalls,
    BatchItems,
    BatchBisectSteps,
    BatchFallbackItems,
    Sha256,
}

const COUNTERS: usize = Counter::Sha256 as usize + 1;
/// Every counter, then a `[calls, ns]` pair per [`Primitive`].
const SLOTS: usize = COUNTERS + 2 * Primitive::ALL.len();

static TOTALS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static TIMING: AtomicBool = AtomicBool::new(false);

/// One thread's counts not yet folded into [`TOTALS`], slot for slot.
struct Local([Cell<u64>; SLOTS]);

impl Local {
    /// Moves this block's counts into the totals, leaving it at zero.
    fn fold(&self) {
        for (cell, total) in self.0.iter().zip(&TOTALS) {
            let n = cell.take();
            if n != 0 {
                total.fetch_add(n, Relaxed);
            }
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.fold();
    }
}

thread_local! {
    static LOCAL: Local = const { Local([const { Cell::new(0) }; SLOTS]) };
}

/// Adds `n` to this thread's `slot`. A count made after the thread's block
/// is gone (in another thread-local's destructor) goes to the total.
#[inline]
fn bump(slot: usize, n: u64) {
    let added = LOCAL.try_with(|l| l.0[slot].set(l.0[slot].get() + n));
    if added.is_err() {
        TOTALS[slot].fetch_add(n, Relaxed);
    }
}

/// Adds `n` to counter `c`.
#[inline]
pub(crate) fn add(c: Counter, n: u64) {
    bump(c as usize, n);
}

/// Adds this thread's counts into the process-wide totals. A thread whose
/// counts must be seen by the thread that joins it calls this last (the
/// `par` workers do); a scoped thread's join does not wait for its
/// thread-locals' destructors.
pub fn fold() {
    let _ = LOCAL.try_with(Local::fold);
}

/// A primitive whose calls and wall time [`set_timing`] attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primitive {
    /// [`crate::bigint::jacobi`]: every subgroup membership test.
    Jacobi,
    /// [`crate::bigint::Montgomery::pow`]: one base, one squaring chain.
    MontPow,
    /// [`crate::bigint::Montgomery::multi_pow`]: Straus, shared chain.
    MultiPow,
    /// [`crate::bigint::CombTable::pow`]: a few squarings per column.
    TablePow,
    /// [`crate::dleq::DleqProof::prove`]: one per VRF proof built.
    DleqProve,
    /// [`crate::dleq::DleqProof::verify`]: one per VRF proof checked.
    DleqVerify,
    /// [`crate::schnorr::VerifyingKey::verify`]: one single signature check.
    SchnorrVerify,
}

impl Primitive {
    /// Every primitive, in [`CryptoStats::wall`] order.
    pub const ALL: [Primitive; 7] = [
        Primitive::Jacobi,
        Primitive::MontPow,
        Primitive::MultiPow,
        Primitive::TablePow,
        Primitive::DleqProve,
        Primitive::DleqVerify,
        Primitive::SchnorrVerify,
    ];

    /// A short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::Jacobi => "jacobi",
            Primitive::MontPow => "montgomery_pow",
            Primitive::MultiPow => "multi_pow",
            Primitive::TablePow => "table_pow",
            Primitive::DleqProve => "dleq_prove",
            Primitive::DleqVerify => "dleq_verify",
            Primitive::SchnorrVerify => "schnorr_verify",
        }
    }
}

/// Switches wall-clock attribution on or off for the whole process.
pub fn set_timing(on: bool) {
    TIMING.store(on, Relaxed);
}

/// Runs `f`, attributing its call and wall time to `p` while timing is on.
#[inline]
pub(crate) fn timed<T>(p: Primitive, f: impl FnOnce() -> T) -> T {
    if !TIMING.load(Relaxed) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let calls = COUNTERS + 2 * p as usize;
    bump(calls, 1);
    bump(calls + 1, t0.elapsed().as_nanos() as u64);
    out
}

/// A point-in-time reading of the process-wide crypto totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoStats {
    /// Full modular exponentiations (any base, any modulus).
    pub modexp_calls: u64,
    /// Straus/Shamir simultaneous multi-exponentiations.
    pub multi_pow_calls: u64,
    /// Fixed-base comb tables built (generator or public-key tables).
    pub table_builds: u64,
    /// Exponentiations served from a fixed-base table.
    pub table_pows: u64,
    /// Montgomery products (squarings, multiplications, conversions).
    pub products: u64,
    /// DLEQ proofs built (VRF evaluations that were proved).
    pub dleq_proofs: u64,
    /// RLC batch-verification calls.
    pub batch_calls: u64,
    /// Total items passed to batch verification.
    pub batch_items: u64,
    /// Batch halvings performed while bisecting to a bad item.
    pub batch_bisect_steps: u64,
    /// Batch items that fell back to individual verification.
    pub batch_fallback_items: u64,
    /// SHA-256 digests finalised.
    pub sha256_calls: u64,
    /// Per [`Primitive`] (indexed `p as usize`), `[calls, wall ns]` made
    /// while timing was on.
    pub wall: [[u64; 2]; Primitive::ALL.len()],
}

impl CryptoStats {
    /// Counter increments since `earlier` (saturating, so a stale snapshot
    /// never underflows).
    pub fn delta_since(&self, earlier: &CryptoStats) -> CryptoStats {
        CryptoStats {
            modexp_calls: self.modexp_calls.saturating_sub(earlier.modexp_calls),
            multi_pow_calls: self.multi_pow_calls.saturating_sub(earlier.multi_pow_calls),
            table_builds: self.table_builds.saturating_sub(earlier.table_builds),
            table_pows: self.table_pows.saturating_sub(earlier.table_pows),
            products: self.products.saturating_sub(earlier.products),
            dleq_proofs: self.dleq_proofs.saturating_sub(earlier.dleq_proofs),
            batch_calls: self.batch_calls.saturating_sub(earlier.batch_calls),
            batch_items: self.batch_items.saturating_sub(earlier.batch_items),
            batch_bisect_steps: self
                .batch_bisect_steps
                .saturating_sub(earlier.batch_bisect_steps),
            batch_fallback_items: self
                .batch_fallback_items
                .saturating_sub(earlier.batch_fallback_items),
            sha256_calls: self.sha256_calls.saturating_sub(earlier.sha256_calls),
            wall: std::array::from_fn(|p| {
                std::array::from_fn(|i| self.wall[p][i].saturating_sub(earlier.wall[p][i]))
            }),
        }
    }
}

/// Folds this thread's counts, then reads the process-wide totals: what
/// this thread and every thread folded before now have counted.
pub fn snapshot() -> CryptoStats {
    fold();
    let t: [u64; SLOTS] = std::array::from_fn(|i| TOTALS[i].load(Relaxed));
    let c = |c: Counter| t[c as usize];
    CryptoStats {
        modexp_calls: c(Counter::Modexp),
        multi_pow_calls: c(Counter::MultiPow),
        table_builds: c(Counter::TableBuilds),
        table_pows: c(Counter::TablePows),
        products: c(Counter::Products),
        dleq_proofs: c(Counter::DleqProofs),
        batch_calls: c(Counter::BatchCalls),
        batch_items: c(Counter::BatchItems),
        batch_bisect_steps: c(Counter::BatchBisectSteps),
        batch_fallback_items: c(Counter::BatchFallbackItems),
        sha256_calls: c(Counter::Sha256),
        wall: std::array::from_fn(|p| [t[COUNTERS + 2 * p], t[COUNTERS + 2 * p + 1]]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_and_deltas_subtract() {
        let before = snapshot();
        add(Counter::Modexp, 1);
        add(Counter::MultiPow, 1);
        add(Counter::TableBuilds, 1);
        add(Counter::TablePows, 1);
        add(Counter::Products, 3);
        add(Counter::DleqProofs, 1);
        add(Counter::BatchCalls, 1);
        add(Counter::BatchItems, 5);
        add(Counter::BatchBisectSteps, 1);
        add(Counter::BatchFallbackItems, 2);
        crate::sha256::sha256(b"counted");
        let after = snapshot();
        let d = after.delta_since(&before);
        // Other tests run concurrently and also bump the counters, so only
        // lower bounds are meaningful here.
        assert!(d.modexp_calls >= 1);
        assert!(d.multi_pow_calls >= 1);
        assert!(d.table_builds >= 1);
        assert!(d.table_pows >= 1);
        assert!(d.products >= 3);
        assert!(d.dleq_proofs >= 1);
        assert!(d.batch_calls >= 1);
        assert!(d.batch_items >= 5);
        assert!(d.batch_bisect_steps >= 1);
        assert!(d.batch_fallback_items >= 2);
        assert!(d.sha256_calls >= 1);
        // A stale snapshot must not underflow.
        assert_eq!(before.delta_since(&after).table_builds, 0);
    }

    #[test]
    fn timing_attributes_calls_and_wall_time_per_primitive() {
        let before = snapshot();
        set_timing(true);
        let out = timed(Primitive::Jacobi, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        set_timing(false);
        assert_eq!(out, 7);
        let [calls, ns] = snapshot().delta_since(&before).wall[Primitive::Jacobi as usize];
        assert!(calls >= 1);
        assert!(ns >= 1_000_000, "{ns} ns");
        assert_eq!(
            Primitive::ALL[Primitive::TablePow as usize].name(),
            "table_pow"
        );
    }
}
