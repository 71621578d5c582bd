//! The benchmark's clock: wall time the driver thread was *given*.
//!
//! The bench host is a small shared VM. Ten runs of identical code spread
//! 4–10% between their quartiles on a quiet day and 60% when a neighbour
//! wakes up, and the kernel says where that time went: the hypervisor's
//! steal counter, and the thread's own run-queue delay. Neither is the
//! program's doing, so every duration the benchmark reports is
//!
//! ```text
//! Δwall − Δsteal − Δrun_delay
//! ```
//!
//! — wall-clock time minus the time the hypervisor gave the vCPUs to
//! someone else (`/proc/stat`, `steal`, all CPUs: the driver thread is the
//! only busy one) and minus the time the thread sat runnable behind another
//! process of this VM (`/proc/thread-self/schedstat`, second field). What
//! is left is time on the CPU plus time blocked in the kernel (fsync), i.e.
//! the wall-clock a dedicated machine would show. Cache and memory-bus
//! interference from neighbours stays in; no counter sees it.
//!
//! Where `/proc` has neither file the clock is plain wall time.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::time::Instant;

/// Nanoseconds per tick of the `steal` column (`USER_HZ` is 100 on Linux).
const STEAL_TICK_NS: u64 = 10_000_000;

/// Reads the corrected clock. One per thread that times things.
#[derive(Debug)]
pub struct Clock {
    origin: Instant,
    stat: Option<File>,
    sched: Option<File>,
    /// `(steal, run_delay)` in ns when the clock was made.
    base: (u64, u64),
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    /// A clock reading 0 now.
    pub fn new() -> Clock {
        let mut clock = Clock {
            origin: Instant::now(),
            stat: File::open("/proc/stat").ok(),
            sched: File::open("/proc/thread-self/schedstat").ok(),
            base: (0, 0),
        };
        clock.base = clock.taken_ns();
        clock
    }

    /// `(steal, run_delay)` so far, in ns (0 where the kernel does not say).
    fn taken_ns(&self) -> (u64, u64) {
        // procfs renders the file afresh on every read at offset 0.
        let read = |file: &Option<File>, buf: &mut [u8]| -> Option<usize> {
            file.as_ref()?.read_at(buf, 0).ok()
        };
        let mut buf = [0u8; 256];
        let steal = read(&self.stat, &mut buf)
            .and_then(|n| parse_steal_ticks(&buf[..n]))
            .map_or(0, |ticks| ticks * STEAL_TICK_NS);
        let run_delay = read(&self.sched, &mut buf)
            .and_then(|n| nth_number(&buf[..n], 1))
            .unwrap_or(0);
        (steal, run_delay)
    }

    /// Nanoseconds since the clock was made that the thread was given:
    /// wall minus steal minus run-queue delay. Steal arrives in 10 ms
    /// ticks, so two nearby readings can be out of order by one tick;
    /// durations are taken with [`Clock::since`], which never goes negative.
    pub fn now_ns(&self) -> u64 {
        let wall = self.origin.elapsed().as_nanos() as u64;
        let (steal, run_delay) = self.taken_ns();
        let taken = (steal - self.base.0.min(steal)) + (run_delay - self.base.1.min(run_delay));
        wall.saturating_sub(taken)
    }

    /// Seconds from an earlier [`Clock::now_ns`] reading to now.
    pub fn since(&self, earlier_ns: u64) -> f64 {
        self.now_ns().saturating_sub(earlier_ns) as f64 / 1e9
    }

    /// Runs `f` and returns its result with the seconds it was given.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        (out, self.since(start))
    }
}

/// The `n`-th (0-based) whitespace-separated number of `text`.
fn nth_number(text: &[u8], n: usize) -> Option<u64> {
    std::str::from_utf8(text)
        .ok()?
        .split_ascii_whitespace()
        .nth(n)?
        .parse()
        .ok()
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`:
/// `cpu user nice system idle iowait irq softirq steal …`.
fn parse_steal_ticks(text: &[u8]) -> Option<u64> {
    let line = text.split(|b| *b == b'\n').next()?;
    let rest = line.strip_prefix(b"cpu ")?;
    nth_number(rest, 7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_kernel_files() {
        let stat = b"cpu  265584 0 14549 582465 10312 0 1218 7059 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(7059));
        assert_eq!(parse_steal_ticks(b"cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal_ticks(b"cpu  1 2 3\n"), None);
        assert_eq!(nth_number(b"1036648 76162 1\n", 1), Some(76162));
        assert_eq!(nth_number(b"1036648\n", 1), None);
    }

    #[test]
    fn given_time_is_at_most_wall_time_and_moves_forward() {
        let clock = Clock::new();
        let wall = Instant::now();
        let a = clock.now_ns();
        // Busy work, not sleep: sleeping is time the thread did not ask for.
        let mut x = 0u64;
        while wall.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let given = clock.since(a);
        let elapsed = wall.elapsed().as_secs_f64();
        assert!(given > 0.0, "the clock moved");
        assert!(
            given <= elapsed + 1e-3,
            "given {given} s of {elapsed} s wall"
        );
        let ((), t) = clock.time(|| ());
        assert!(t < 0.01);
    }
}
