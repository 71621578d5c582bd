//! Argument handling shared by the subcommands.

use std::fmt::Write as _;

use crate::spec;
use crate::workload::Kind;

/// What `--help` prints: the forms, then every workload and metric.
pub fn usage() -> String {
    let mut out = String::from(
        "prb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         prb-benchmark run [--seed <n>]... [--seconds <s>] [--quick] [--out <dir>]\n\
         prb-benchmark compare <a.json> <b.json>\n\
         prb-benchmark manifest\n\nworkloads:\n",
    );
    for k in Kind::ALL {
        writeln!(out, "  {:<15} {}", k.name(), spec::why(k)).expect("String write");
    }
    out.push_str("\nend-to-end metrics (--trace 0):\n");
    for m in spec::END_TO_END {
        writeln!(out, "  {:<36} {:<6} {}", m.name, m.unit, m.what).expect("String write");
    }
    out.push_str("\nper-layer metrics (--trace 1):\n");
    for m in spec::PER_LAYER {
        writeln!(out, "  {:<36} {:<6} {}", m.name, m.unit, m.what).expect("String write");
    }
    out
}

/// `--name value` pairs; anything else is an error.
pub fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or_else(|| format!("unknown argument {arg:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_owned(), value.clone()));
    }
    Ok(out)
}

/// The last `--name` among `flags` parsed as `T`, or `default`.
pub fn parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.iter().rev().find(|(n, _)| n == name) {
        Some((_, v)) => v.parse().map_err(|_| format!("--{name}: bad value {v:?}")),
        None => Ok(default),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_are_strict() {
        let known = ["seed", "seconds"];
        let flags = parse_flags(
            &args(&["--seed", "3", "--seconds", "10", "--seed", "4"]),
            &known,
        )
        .unwrap();
        assert_eq!(flags.len(), 3);
        assert_eq!(parsed::<u64>(&flags, "seed", 0), Ok(4), "the last one wins");
        assert_eq!(parsed::<u64>(&flags, "absent", 7), Ok(7));
        assert!(parse_flags(&args(&["--sed", "3"]), &known).is_err());
        assert!(parse_flags(&args(&["seed", "3"]), &known).is_err());
        assert!(parse_flags(&args(&["--seed"]), &known).is_err());
        let flags = parse_flags(&args(&["--seed", "x"]), &known).unwrap();
        assert!(parsed::<u64>(&flags, "seed", 0).is_err());
    }

    #[test]
    fn usage_names_everything() {
        let text = usage();
        for k in Kind::ALL {
            assert!(text.contains(k.name()));
        }
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            assert!(text.contains(m.name), "{}", m.name);
        }
    }
}
