//! The crypto counters are kept per thread and folded into the totals
//! when a `par` worker finishes and when a snapshot is taken: counts made
//! on spawned workers must still reach the caller's next snapshot, exactly.
//!
//! Its own process, so no other test's work lands in the totals; the tests
//! here take one lock so they do not overlap each other either.

use std::sync::Mutex;

use prb_crypto::bigint::{jacobi, BigUint};
use prb_crypto::par;
use prb_crypto::stats::{self, CryptoStats, Primitive};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// What `f` counted, read by snapshots on the calling thread.
fn counted(f: impl FnOnce()) -> CryptoStats {
    let before = stats::snapshot();
    f();
    stats::snapshot().delta_since(&before)
}

/// Per item: two digests, one exponentiation and one Jacobi symbol.
fn work(x: &u64) -> u64 {
    let d = prb_crypto::sha256(&x.to_le_bytes());
    let _ = prb_crypto::sha256(d.as_ref());
    let m = BigUint::from_u64(1_000_000_007);
    let _ = BigUint::from_u64(*x + 2).pow_mod(&BigUint::from_u64(65_537), &m);
    jacobi(&BigUint::from_u64(*x + 1), &m) as u64
}

#[test]
fn counts_made_on_par_workers_equal_the_inline_count() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let items: Vec<u64> = (0..203).collect();
    let inline = counted(|| {
        items.iter().for_each(|x| {
            work(x);
        })
    });
    assert_eq!(inline.sha256_calls, 2 * items.len() as u64);
    assert_eq!(inline.modexp_calls, items.len() as u64);
    for workers in [1, 2, 8] {
        let spread = counted(|| {
            par::map(&items, 7, workers, work);
        });
        assert_eq!(spread, inline, "workers={workers}");
    }
}

#[test]
fn wall_pairs_fold_like_the_counters() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let items: Vec<u64> = (0..64).collect();
    stats::set_timing(true);
    let calls: Vec<[u64; 2]> = [1, 2, 8]
        .into_iter()
        .map(|workers| {
            let d = counted(|| {
                par::map(&items, 5, workers, work);
            });
            d.wall[Primitive::Jacobi as usize]
        })
        .collect();
    stats::set_timing(false);
    for (workers, [calls, ns]) in [1, 2, 8].into_iter().zip(calls) {
        assert_eq!(calls, items.len() as u64, "workers={workers}");
        assert!(ns > 0, "workers={workers}");
    }
}

#[test]
fn a_thread_that_folds_before_it_is_joined_is_seen_after_the_join() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let d = counted(|| {
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    (0..10u64).for_each(|x| {
                        work(&x);
                    });
                    stats::fold();
                });
            }
        })
    });
    assert_eq!(d.sha256_calls, 60);
    assert_eq!(d.modexp_calls, 30);
}
