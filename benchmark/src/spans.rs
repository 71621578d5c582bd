//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer; nothing inside the program under test knows about them.
//! A span is `(id, parent, name, start, end)`; its self time is its
//! duration minus what its direct children cover. On one thread nothing
//! overlaps, so children are disjoint and self times sum to the root.
//! Times are read from the benchmark's [`Clock`]: wall time the thread
//! was given, with hypervisor steal and run-queue delay taken out.

use std::fmt::Write as _;

use crate::clock::Clock;

/// One closed span. Times are nanoseconds on the recorder's clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index in recording order.
    pub id: usize,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
    /// What was measured.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Recorder of nested spans. With recording off it still times each
/// scope (the caller needs the duration either way) but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    recording: bool,
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `recording` decides whether spans are kept.
    pub fn new(recording: bool) -> Self {
        Spans {
            recording,
            clock: Clock::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The clock every span is read from.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Runs `f` as a span named `name` nested in whichever span is open;
    /// returns its result and its wall time in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start_ns = self.clock.now_ns();
        if self.recording {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name: name.to_owned(),
                start_ns,
                end_ns: start_ns,
            });
            self.open.push(id);
        }
        let out = f(self);
        // Steal is accounted in 10 ms ticks: a tick landing between two
        // readings must not make a span end before it began.
        let end_ns = self.clock.now_ns().max(start_ns);
        if self.recording {
            let id = self.open.pop().expect("scope closes the span it opened");
            self.spans[id].end_ns = end_ns;
        }
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Every closed span, in the order they began.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus its direct children's.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// One JSON object per span, `run` shared by the whole recording.
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id)
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder with hand-set times so self time is exact.
    fn fixture() -> Spans {
        let mut s = Spans::new(true);
        let mk = |id, parent, name: &str, start_ns, end_ns| Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        };
        s.spans = vec![
            mk(0, None, "workload", 0, 1000),
            mk(1, Some(0), "setup", 0, 100),
            // Adjacent children: round[0] ends where round[1] starts.
            mk(2, Some(0), "round", 100, 400),
            mk(3, Some(2), "generate", 100, 150),
            mk(4, Some(2), "run_round", 150, 390),
            mk(5, Some(0), "round", 400, 900),
            mk(6, Some(5), "run_round", 450, 900),
        ];
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let s = fixture();
        // workload: 1000 − (100 + 300 + 500); grandchildren not counted twice.
        assert_eq!(s.self_ns(0), 100);
        // round[0]: 300 − (50 + 240), adjacent children.
        assert_eq!(s.self_ns(2), 10);
        // round[1]: 500 − 450, a gap before its only child.
        assert_eq!(s.self_ns(5), 50);
        // A leaf keeps its whole duration.
        assert_eq!(s.self_ns(4), 240);
        // Self times of the tree sum to the root's duration.
        let total: u64 = (0..s.spans().len()).map(|i| s.self_ns(i)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn scope_nests_and_times() {
        let mut s = Spans::new(true);
        let (v, outer) = s.scope("outer", |s| {
            let ((), inner) = s.scope("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            assert!(inner >= 0.002);
            7
        });
        assert_eq!(v, 7);
        assert!(outer >= 0.002);
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!(s.spans()[0].end_ns >= s.spans()[1].end_ns);
        let line = s.to_jsonl("w-1");
        assert_eq!(line.lines().count(), 2);
        assert!(line.starts_with("{\"run\":\"w-1\",\"id\":0,\"parent\":null,\"name\":\"outer\""));
    }

    #[test]
    fn recording_off_keeps_nothing_but_still_times() {
        let mut s = Spans::new(false);
        let ((), t) = s.scope("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(t >= 0.001);
        assert!(s.spans().is_empty());
    }
}
