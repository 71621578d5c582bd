//! `compare a.json b.json`: two `run` reports, one row per workload ×
//! end-to-end metric, judged by the bound the benchmark fixed.
//!
//! A row is **unresolved** when the baseline's own spread (q3 − q1 of its
//! repetitions, as a share of its median) is wider than the bound: the
//! runs cannot tell a change of that size from noise. Otherwise it is
//! **regressed** when the second median is worse by more than the bound,
//! **improved** when it is better by more than the baseline's spread, and
//! **unchanged** in between. Count metrics are compared for equality.

use std::fmt::Write as _;
use std::path::Path;

use crate::report::{load, Report};
use crate::spec::{self, Better};
use crate::stats::{median, quartiles};
use crate::workload::Kind;

/// How one metric moved between two reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the baseline's spread.
    Improved,
    /// Within the bound, and not better by more than the spread.
    Unchanged,
    /// The baseline's spread is wider than the bound.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges repetitions `b` against baseline `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let spread = quartiles(a).map_or(0.0, |(q1, q3)| (q3 - q1) / ma.abs());
    if spread > bound {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the baseline's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        Verdict::Regressed
    } else if -worse > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `compare <a.json> <b.json>`.
pub fn main(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: prb-benchmark compare <a.json> <b.json>".into());
    };
    let (a, b) = (load(Path::new(a))?, load(Path::new(b))?);
    let (text, regressed) = render(&a, &b);
    print!("{text}");
    if regressed == 0 {
        Ok(())
    } else {
        Err(format!("{regressed} rows regressed or differ"))
    }
}

/// The comparison table and how many rows regressed (or, for counts,
/// differ).
fn render(a: &Report, b: &Report) -> (String, usize) {
    let mut out = String::new();
    let mut bad = 0;
    let same_seed = a.seed == b.seed;
    if !same_seed {
        writeln!(
            out,
            "seeds differ ({} vs {}): count metrics and ledger heads are not compared",
            a.seed, b.seed
        )
        .expect("String write");
    }
    writeln!(
        out,
        "{:<15} {:<20} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "a.median", "a.q1", "a.q3", "b.median", "b.q1", "b.q3", "bound"
    )
    .expect("String write");
    for kind in Kind::ALL {
        let (Some(wa), Some(wb)) = (a.workloads.get(kind.name()), b.workloads.get(kind.name()))
        else {
            continue;
        };
        for m in spec::END_TO_END {
            let (Some(ra), Some(rb)) = (wa.reps.get(m.name), wb.reps.get(m.name)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end bound");
            let verdict = judge(ra, rb, m.better, bound);
            bad += usize::from(verdict == Verdict::Regressed);
            let q = |r: &[f64]| quartiles(r).unwrap_or((r[0], r[0]));
            let ((a1, a3), (b1, b3)) = (q(ra), q(rb));
            writeln!(
                out,
                "{:<15} {:<20} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>5.0}%  {}",
                kind.name(),
                m.name,
                median(ra),
                a1,
                a3,
                median(rb),
                b1,
                b3,
                100.0 * bound,
                verdict.as_str()
            )
            .expect("String write");
        }
        if !same_seed {
            continue;
        }
        let mut differing = Vec::new();
        if wa.head != wb.head {
            differing.push("ledger head".to_owned());
        }
        for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(va), Some(vb)) = (wa.layers.get(m.name), wb.layers.get(m.name)) {
                if va != vb {
                    differing.push(format!("{} {va} -> {vb}", m.name));
                }
            }
        }
        bad += differing.len();
        if differing.is_empty() {
            writeln!(out, "{:<15} counts and ledger head identical", kind.name())
        } else {
            writeln!(out, "{:<15} DIFFER: {}", kind.name(), differing.join("; "))
        }
        .expect("String write");
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts() {
        let base = [100.0, 101.0, 99.0];
        // q1..q3 of the baseline is 99..101: spread 2%.
        assert_eq!(
            judge(&base, &[100.5, 101.5, 100.0], Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&base, &[111.0, 112.0, 110.5], Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&base, &[90.0, 91.0, 89.0], Lower, 0.10),
            Verdict::Improved
        );
        // Direction flips for throughput.
        assert_eq!(
            judge(&base, &[111.0, 112.0, 110.5], Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            judge(&base, &[89.0, 88.0, 90.0], Higher, 0.10),
            Verdict::Regressed
        );
        // A baseline wider than the bound resolves nothing.
        assert_eq!(
            judge(&[80.0, 100.0, 120.0], &[150.0, 150.0, 150.0], Lower, 0.10),
            Verdict::Unresolved
        );
        // One repetition has no spread: only the bound speaks.
        assert_eq!(judge(&[100.0], &[105.0], Lower, 0.10), Verdict::Unchanged);
        assert_eq!(judge(&[100.0], &[99.0], Lower, 0.10), Verdict::Improved);
    }
}
