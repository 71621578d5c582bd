//! Process-wide counters for the modular-exponentiation and hashing hot
//! paths.
//!
//! The crypto layer is shared across simulation threads (groups cross
//! thread boundaries through their `Arc` inner), while the `prb-obs`
//! registry is deliberately single-threaded (`Rc`-based). These relaxed
//! atomics bridge the gap: the hot path bumps them for fractions of a
//! nanosecond, and observability consumers snapshot them at the edges of a
//! run and report deltas.
//!
//! Counted events:
//!
//! - `modexp_calls` — full modular exponentiations (Montgomery or plain),
//! - `multi_pow_calls` — Straus/Shamir simultaneous exponentiations,
//! - `table_builds` — fixed-base window-table precomputations,
//! - `table_pows` — exponentiations answered from a fixed-base table,
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
//! counters ([`CryptoStats::wall`]). Off by default, a timed primitive
//! costs one relaxed load. Times are inclusive: a DLEQ verify's time holds
//! the Jacobi symbols and exponentiations inside it, so rows overlap and
//! do not sum to a total.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static MODEXP_CALLS: AtomicU64 = AtomicU64::new(0);
static MULTI_POW_CALLS: AtomicU64 = AtomicU64::new(0);
static TABLE_BUILDS: AtomicU64 = AtomicU64::new(0);
static TABLE_POWS: AtomicU64 = AtomicU64::new(0);
static DLEQ_PROOFS: AtomicU64 = AtomicU64::new(0);
static BATCH_CALLS: AtomicU64 = AtomicU64::new(0);
static BATCH_ITEMS: AtomicU64 = AtomicU64::new(0);
static BATCH_BISECT_STEPS: AtomicU64 = AtomicU64::new(0);
static BATCH_FALLBACK_ITEMS: AtomicU64 = AtomicU64::new(0);
static SHA256_CALLS: AtomicU64 = AtomicU64::new(0);
static TIMING: AtomicBool = AtomicBool::new(false);
static WALL: [[AtomicU64; 2]; Primitive::ALL.len()] =
    [const { [AtomicU64::new(0), AtomicU64::new(0)] }; Primitive::ALL.len()];

/// A primitive whose calls and wall time [`set_timing`] attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Primitive {
    /// [`crate::bigint::jacobi`]: every subgroup membership test.
    Jacobi,
    /// [`crate::bigint::Montgomery::pow`]: one base, one squaring chain.
    MontPow,
    /// [`crate::bigint::Montgomery::multi_pow`]: Straus, shared chain.
    MultiPow,
    /// [`crate::bigint::FixedBaseTable::pow`]: no squarings.
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
    let [calls, ns] = &WALL[p as usize];
    calls.fetch_add(1, Relaxed);
    ns.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
    out
}

#[inline]
pub(crate) fn record_modexp() {
    MODEXP_CALLS.fetch_add(1, Relaxed);
}

#[inline]
pub(crate) fn record_multi_pow() {
    MULTI_POW_CALLS.fetch_add(1, Relaxed);
}

#[inline]
pub(crate) fn record_table_build() {
    TABLE_BUILDS.fetch_add(1, Relaxed);
}

#[inline]
pub(crate) fn record_table_pow() {
    TABLE_POWS.fetch_add(1, Relaxed);
}

#[inline]
pub(crate) fn record_dleq_proof() {
    DLEQ_PROOFS.fetch_add(1, Relaxed);
}

#[inline]
pub(crate) fn record_batch(items: u64) {
    BATCH_CALLS.fetch_add(1, Relaxed);
    BATCH_ITEMS.fetch_add(items, Relaxed);
}

#[inline]
pub(crate) fn record_batch_bisect() {
    BATCH_BISECT_STEPS.fetch_add(1, Relaxed);
}

#[inline]
pub(crate) fn record_batch_fallback(items: u64) {
    BATCH_FALLBACK_ITEMS.fetch_add(items, Relaxed);
}

#[inline]
pub(crate) fn record_sha256() {
    SHA256_CALLS.fetch_add(1, Relaxed);
}

/// A point-in-time snapshot of the process-wide crypto counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoStats {
    /// Full modular exponentiations (any base, any modulus).
    pub modexp_calls: u64,
    /// Straus/Shamir simultaneous multi-exponentiations.
    pub multi_pow_calls: u64,
    /// Fixed-base window tables built (generator or public-key tables).
    pub table_builds: u64,
    /// Exponentiations served from a fixed-base table.
    pub table_pows: u64,
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

/// Reads the current counter values.
pub fn snapshot() -> CryptoStats {
    CryptoStats {
        modexp_calls: MODEXP_CALLS.load(Relaxed),
        multi_pow_calls: MULTI_POW_CALLS.load(Relaxed),
        table_builds: TABLE_BUILDS.load(Relaxed),
        table_pows: TABLE_POWS.load(Relaxed),
        dleq_proofs: DLEQ_PROOFS.load(Relaxed),
        batch_calls: BATCH_CALLS.load(Relaxed),
        batch_items: BATCH_ITEMS.load(Relaxed),
        batch_bisect_steps: BATCH_BISECT_STEPS.load(Relaxed),
        batch_fallback_items: BATCH_FALLBACK_ITEMS.load(Relaxed),
        sha256_calls: SHA256_CALLS.load(Relaxed),
        wall: WALL
            .each_ref()
            .map(|slot| slot.each_ref().map(|c| c.load(Relaxed))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_and_deltas_subtract() {
        let before = snapshot();
        record_modexp();
        record_multi_pow();
        record_table_build();
        record_table_pow();
        record_dleq_proof();
        record_batch(5);
        record_batch_bisect();
        record_batch_fallback(2);
        crate::sha256::sha256(b"counted");
        let after = snapshot();
        let d = after.delta_since(&before);
        // Other tests run concurrently and also bump the counters, so only
        // lower bounds are meaningful here.
        assert!(d.modexp_calls >= 1);
        assert!(d.multi_pow_calls >= 1);
        assert!(d.table_builds >= 1);
        assert!(d.table_pows >= 1);
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
