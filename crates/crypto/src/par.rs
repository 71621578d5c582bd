//! An order-preserving map over scoped threads, for bulk work whose items
//! are independent of one another.
//!
//! The input is cut into fixed-size chunks. Workers — the caller's thread
//! plus scoped `std::thread`s — claim chunks from one atomic counter until
//! none is left, and the outputs are stitched back in input order, so the
//! result never depends on how many workers ran or which chunk each took.
//! A chunk's output is whatever `f` returns for it, so a caller that
//! batches within a chunk (the signature verifier) sees the same batches
//! at every worker count.
//!
//! Threads are spawned per call, not kept resident: the callers are bulk
//! readers (chain import and audit, store replay) and verification
//! batches, each long enough that a spawn is noise. Where there are fewer
//! than two chunks, or one worker, the map runs inline on the caller's
//! thread and spawns nothing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Workers a bulk map uses: the host's `available_parallelism()`, which
/// honours the process's CPU affinity (so `taskset -c 0` gives one), or 1
/// where it cannot be read.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f` applied to each item of `items`, in input order, on up to
/// `workers` threads (callers pass [`workers()`]) claiming `chunk` items
/// at a time.
pub fn map<I, O, F>(items: &[I], chunk: usize, workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    map_chunks(items, chunk, workers, |c| c.iter().map(&f).collect())
}

/// `f` applied to each `chunk`-item run of `items` (the last may be
/// shorter) on up to `workers` threads, the outputs concatenated in input
/// order. Inline on the caller's thread when there are fewer than two
/// chunks or fewer than two workers.
///
/// # Panics
///
/// Re-raises a panic from `f` on any worker.
pub fn map_chunks<I, O, F>(items: &[I], chunk: usize, workers: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&[I]) -> Vec<O> + Sync,
{
    let chunk = chunk.max(1);
    let chunks = items.len().div_ceil(chunk);
    let workers = workers.min(chunks);
    if workers < 2 {
        return items.chunks(chunk).flat_map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter only hands out chunk indices; every
            // output reaches the caller through its thread's join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= chunks {
                // The caller's join is what makes this worker's crypto
                // counts visible to its next snapshot.
                crate::stats::fold();
                return done;
            }
            let start = i * chunk;
            done.push((i, f(&items[start..items.len().min(start + chunk)])));
        }
    };
    let mut slots: Vec<Option<Vec<O>>> = std::iter::repeat_with(|| None).take(chunks).collect();
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut place = |done: Vec<(usize, Vec<O>)>| {
            for (i, out) in done {
                slots[i] = Some(out);
            }
        };
        place(work());
        for handle in spawned {
            place(
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
    });
    slots
        .into_iter()
        .flat_map(|out| out.expect("every chunk is claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn workers_are_reported() {
        let n = workers();
        println!("available_parallelism: {n}");
        assert!(n >= 1);
    }

    #[test]
    fn output_is_in_input_order_at_every_worker_count_and_chunk() {
        let items: Vec<u64> = (0..103).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [0, 1, 2, 3, 8, 200] {
            for chunk in [0, 1, 2, 7, 8, 102, 103, 500] {
                let got = map_chunks(&items, chunk, workers, |c| {
                    c.iter().map(|x| x * x + 1).collect()
                });
                assert_eq!(got, want, "workers={workers} chunk={chunk}");
            }
        }
        assert_eq!(map(&items, 8, workers(), |x| x * x + 1), want);
        assert!(map(&[] as &[u64], 8, 2, |x| *x).is_empty());
    }

    #[test]
    fn chunks_are_the_same_runs_whatever_the_worker_count() {
        // A caller that batches within a chunk must see identical batches.
        let items: Vec<u32> = (0..50).collect();
        for workers in [1, 2, 4] {
            let seen = Mutex::new(Vec::new());
            map_chunks(&items, 8, workers, |c| {
                seen.lock().unwrap().push(c.to_vec());
                vec![(); c.len()]
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort();
            let want: Vec<Vec<u32>> = items.chunks(8).map(<[u32]>::to_vec).collect();
            assert_eq!(seen, want, "workers={workers}");
        }
    }

    #[test]
    fn fewer_than_two_chunks_run_on_the_callers_thread() {
        let me = std::thread::current().id();
        let ran_here = map_chunks(&[1, 2, 3], 8, 4, |c| {
            vec![std::thread::current().id() == me; c.len()]
        });
        assert_eq!(ran_here, vec![true; 3]);
        let ran_here = map_chunks(&[1; 40], 8, 1, |c| {
            vec![std::thread::current().id() == me; c.len()]
        });
        assert_eq!(ran_here, vec![true; 40]);
    }

    #[test]
    #[should_panic(expected = "chunk 3")]
    fn a_worker_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..40).collect();
        map_chunks(&items, 8, 3, |c| {
            assert!(c[0] != 24, "chunk 3");
            c.to_vec()
        });
    }
}
