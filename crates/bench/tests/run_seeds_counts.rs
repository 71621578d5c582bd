//! Crypto counts made on `run_seeds` threads reach the caller's next
//! snapshot: each thread folds its per-thread counters before the scope
//! joins it. Its own process, so no other test's work lands in the totals.

use prb_bench::run_seeds;
use prb_crypto::stats;

#[test]
fn counts_made_in_run_seeds_threads_are_visible_after_it_returns() {
    let seeds: Vec<u64> = (1..=9).collect();
    let before = stats::snapshot();
    let out = run_seeds(&seeds, |seed| {
        (0..seed).for_each(|i| {
            prb_crypto::sha256(&i.to_le_bytes());
        });
        seed
    });
    let d = stats::snapshot().delta_since(&before);
    assert_eq!(out, seeds);
    assert_eq!(d.sha256_calls, seeds.iter().sum::<u64>());
}
