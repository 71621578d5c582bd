//! Waiting for a quiet host before a run measures anything.
//!
//! The bench host is a small VM on a shared machine. Most of the time the
//! same code takes the same time to within a few percent; about once in
//! twenty minutes a neighbour wakes up and *everything* runs 25–40% slower
//! for a minute or two (2048-bit Schnorr rounds 280 ms against 210 ms, a
//! register-only loop 0.43 ms against 0.30 ms). No kernel counter shows it
//! — steal and run-queue delay stay at zero — so [`crate::clock`] cannot
//! take it out, and a run is shorter than such a phase, so no median
//! inside the run can either. Three slow runs among the ten of one
//! workload put that workload's quartile spread above any bound the
//! driver's contract allows.
//!
//! What a run can do is not start inside one. It times a fixed loop (a
//! *reading*, [`READING_UNITS`] × ~0.2 ms), compares it with the median of
//! the readings the last runs in this checkout started at
//! (`benchmark/out/pace`), and while the host is more than [`SLOW`] times
//! slower than that it sleeps a second and reads again — for at most
//! [`WAIT_PER_SECOND`] × `--seconds` in one run and [`BUDGET_PER_SECOND`]
//! × `--seconds` over all runs of the checkout, so that a host that has
//! become slower for good costs a bounded amount of time and is then the
//! new normal. The first runs in a checkout have nothing to compare with
//! and start at once.
//!
//! Nothing that is reported is scaled by a reading: the gate only chooses
//! *when* the run measures. Every run prints its reading, the typical one
//! and how long it waited.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::stats::median;

/// Fixed loops timed per reading; the reading is their median.
const READING_UNITS: usize = 240;
/// Readings remembered per checkout.
const HISTORY: usize = 32;
/// Fewest remembered readings before a run compares itself with them.
const HISTORY_MIN: usize = 4;
/// A reading above `SLOW ×` the remembered median means a neighbour is
/// awake. Readings on the quiet host stay within 1.17× of their median
/// (968 readings over ten minutes: 0.154–0.230 ms, median 0.198); the slow
/// phases seen were 1.3–1.45×.
const SLOW: f64 = 1.2;
/// Longest wait in one run, per second of `--seconds` (80 s at 10: the
/// slow phases seen lasted about 100 s, and the run that was under way
/// when one began has used up the first part of it).
const WAIT_PER_SECOND: f64 = 8.0;
/// Longest wait over all runs of a checkout, per second of `--seconds`.
const BUDGET_PER_SECOND: f64 = 40.0;

/// One unit of fixed work: a xorshift walk over a 512 KiB table, about
/// 0.2 ms of arithmetic and L2 hits on the bench host.
fn unit(table: &mut [u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..100_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[x as usize & mask];
        *slot = slot.wrapping_add(x ^ i);
    }
    x
}

/// Milliseconds the host takes for one unit right now: the median of
/// [`READING_UNITS`] of them (about 50 ms in all). Plain wall time — a
/// reading is meant to see everything that slows the thread down.
fn reading_ms(table: &mut [u64]) -> f64 {
    let times: Vec<f64> = (0..READING_UNITS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(unit(table));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// What the checkout remembers between runs.
#[derive(Clone, Debug, Default, PartialEq)]
struct Memory {
    /// Seconds runs of this checkout have waited so far.
    waited_s: f64,
    /// The reading each of the last [`HISTORY`] runs started at, oldest
    /// first.
    readings: Vec<f64>,
}

impl Memory {
    /// Parses the file: `waited <s>` on the first line, one reading per
    /// line after it. Anything unreadable is forgotten.
    fn parse(text: &str) -> Memory {
        let mut lines = text.lines();
        let waited_s = lines
            .next()
            .and_then(|l| l.strip_prefix("waited "))
            .and_then(|v| v.parse().ok())
            .filter(|v: &f64| v.is_finite() && *v >= 0.0);
        let Some(waited_s) = waited_s else {
            return Memory::default();
        };
        let readings = lines
            .filter_map(|l| l.parse().ok())
            .filter(|v: &f64| v.is_finite() && *v > 0.0)
            .collect();
        Memory { waited_s, readings }
    }

    fn render(&self) -> String {
        let mut out = format!("waited {}\n", self.waited_s);
        for r in &self.readings {
            out.push_str(&format!("{r}\n"));
        }
        out
    }

    /// The reading a quiet host gives, once enough runs have been seen.
    fn typical(&self) -> Option<f64> {
        (self.readings.len() >= HISTORY_MIN).then(|| median(&self.readings))
    }

    /// Whether a run that reads `reading` should wait, having waited
    /// `waited_s` itself, when it is allowed `per_run_s` and the checkout
    /// `budget_s` in all.
    fn should_wait(&self, reading: f64, waited_s: f64, per_run_s: f64, budget_s: f64) -> bool {
        let slow = self.typical().is_some_and(|t| reading > SLOW * t);
        slow && waited_s < per_run_s && self.waited_s + waited_s < budget_s
    }

    /// Remembers the reading a run started at and what it waited.
    fn remember(&mut self, reading: f64, waited_s: f64) {
        self.waited_s += waited_s;
        self.readings.push(reading);
        let extra = self.readings.len().saturating_sub(HISTORY);
        self.readings.drain(..extra);
    }
}

/// What [`wait_for_quiet`] did, for the run's notes.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    /// The reading the run started at, ms per unit.
    pub reading_ms: f64,
    /// The median of the remembered readings, if there were enough.
    pub typical_ms: Option<f64>,
    /// Seconds the run waited for the host to quieten.
    pub waited_s: f64,
}

fn memory_path(out_dir: &Path) -> PathBuf {
    out_dir.join("pace")
}

/// Reads the host's pace and, while it is slow against what this checkout
/// remembers under `out_dir`, waits — see the module's notes. A memory
/// that cannot be read or written only means the next run starts without
/// one.
pub fn wait_for_quiet(out_dir: &Path, seconds: u64) -> Pace {
    let path = memory_path(out_dir);
    let mut memory = std::fs::read_to_string(&path)
        .map(|text| Memory::parse(&text))
        .unwrap_or_default();
    let (per_run_s, budget_s) = (
        WAIT_PER_SECOND * seconds as f64,
        BUDGET_PER_SECOND * seconds as f64,
    );
    let mut table = vec![0u64; 1 << 16];
    let started = Instant::now();
    let mut waited_s = 0.0;
    let mut reading = reading_ms(&mut table);
    while memory.should_wait(reading, waited_s, per_run_s, budget_s) {
        std::thread::sleep(Duration::from_secs(1));
        reading = reading_ms(&mut table);
        waited_s = started.elapsed().as_secs_f64();
    }
    let typical_ms = memory.typical();
    memory.remember(reading, waited_s);
    // Written beside and renamed over, so that a run started meanwhile
    // reads one whole memory or the other.
    let tmp = path.with_extension(std::process::id().to_string());
    if std::fs::create_dir_all(out_dir).is_ok() && std::fs::write(&tmp, memory.render()).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    }
    Pace {
        reading_ms: reading,
        typical_ms,
        waited_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory(waited_s: f64, readings: &[f64]) -> Memory {
        Memory {
            waited_s,
            readings: readings.to_vec(),
        }
    }

    #[test]
    fn memory_round_trips_and_forgets_garbage() {
        let m = memory(12.5, &[0.2, 0.19, 0.25]);
        assert_eq!(Memory::parse(&m.render()), m);
        assert_eq!(Memory::parse(""), Memory::default());
        assert_eq!(Memory::parse("0.2\n0.3\n"), Memory::default());
        assert_eq!(Memory::parse("waited -1\n0.2\n"), Memory::default());
        // Unreadable readings are dropped one by one.
        assert_eq!(
            Memory::parse("waited 3\n0.2\nx\n-1\nNaN\n0.3\n"),
            memory(3.0, &[0.2, 0.3])
        );
    }

    #[test]
    fn a_run_waits_only_for_a_slow_host_and_only_so_long() {
        let quiet = memory(0.0, &[0.19, 0.2, 0.21, 0.2, 0.2]);
        assert_eq!(quiet.typical(), Some(0.2));
        assert!(!quiet.should_wait(0.23, 0.0, 80.0, 400.0), "within 1.2x");
        assert!(quiet.should_wait(0.27, 0.0, 80.0, 400.0), "a neighbour");
        assert!(quiet.should_wait(0.27, 79.0, 80.0, 400.0));
        assert!(!quiet.should_wait(0.27, 80.0, 80.0, 400.0), "run's share");
        let spent = memory(395.0, &quiet.readings);
        assert!(spent.should_wait(0.27, 4.0, 80.0, 400.0));
        assert!(!spent.should_wait(0.27, 5.0, 80.0, 400.0), "the budget");
        // Too few runs seen: nothing to compare with.
        let young = memory(0.0, &[0.2, 0.2, 0.2]);
        assert_eq!(young.typical(), None);
        assert!(!young.should_wait(9.0, 0.0, 80.0, 400.0));
    }

    #[test]
    fn memory_keeps_the_latest_readings() {
        let mut m = Memory::default();
        for i in 0..HISTORY + 5 {
            m.remember(1.0 + i as f64, 0.5);
        }
        assert_eq!(m.readings.len(), HISTORY);
        assert_eq!(m.readings[0], 6.0);
        assert_eq!(m.waited_s, (HISTORY + 5) as f64 * 0.5);
        // A slower host becomes the typical one once it fills the memory.
        assert_eq!(m.typical(), Some(median(&m.readings)));
    }

    #[test]
    fn the_gate_runs_end_to_end_in_a_scratch_directory() {
        let dir = crate::workload::out_dir().join(format!("test-pace-{}", std::process::id()));
        for _ in 0..HISTORY_MIN {
            let pace = wait_for_quiet(&dir, 1);
            assert!(pace.reading_ms > 0.0);
            assert_eq!(pace.typical_ms, None);
            assert_eq!(pace.waited_s, 0.0);
        }
        let pace = wait_for_quiet(&dir, 1);
        assert!(pace.typical_ms.is_some());
        assert!(pace.waited_s <= WAIT_PER_SECOND + 2.0);
        let text = std::fs::read_to_string(memory_path(&dir)).expect("the memory was written");
        assert_eq!(Memory::parse(&text).readings.len(), HISTORY_MIN + 1);
        std::fs::remove_dir_all(&dir).expect("remove the test's directory");
    }
}
