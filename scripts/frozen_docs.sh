#!/usr/bin/env bash
# Byte-compares the frozen experiment documents of the working tree with
# those of a parent commit: the check a PR that must "change nothing
# measurable" makes.
#
#   scripts/frozen_docs.sh <parent-ref>
#
# Exports <parent-ref> into a temporary directory (git archive, as
# scripts/bench_pairs.sh does: the working tree may be dirty, and nothing
# is left registered in .git), builds prb-bench on both sides, runs E11
# exp_faults, E12 exp_byzantine, E15 exp_scale --no-wall, E16 exp_persist
# and E17 exp_churn, each with --quick, on both sides, and cmp's each
# pair of documents, printing "byte-equal" or "differs" for each. It does
# the same for E13's trace, `exp_latency --quick --trace-out` (JSONL: every
# `msg.sent` line carries the message kind and its declared bytes). After
# a "differs" it prints the first 20 lines of a diff of the two documents,
# each pretty-printed by `python3 -m json.tool`, so the moved field shows
# (the trace is diffed line by line). Exits non-zero if any differed.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,18p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_ref=$1

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/docs"
git -C "$root" archive "$parent_ref" | tar -x -C "$tmp/parent"

for side in "$tmp/parent" "$root"; do
    echo "# building $side" >&2
    (cd "$side" && cargo build --release --quiet -p prb-bench)
done

differed=0
# Runs `<bin> --quick <flags> <out-flag> <file>` on both sides and cmp's
# the two files; `pretty` is the command that shows a file for the diff.
compare() {
    local name=$1 ext=$2 pretty=$3 bin=$4 out_flag=$5
    shift 5
    for side in parent change; do
        if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$root"; fi
        echo "# $name: $side" >&2
        (cd "$dir" && "./target/release/$bin" --quick "$@" \
            "$out_flag" "$tmp/docs/$side-$name.$ext" </dev/null >/dev/null)
    done
    if cmp -s "$tmp/docs/parent-$name.$ext" "$tmp/docs/change-$name.$ext"; then
        echo "$name: byte-equal"
    else
        echo "$name: differs"
        # shellcheck disable=SC2086 # `pretty` is a command and its flags
        diff <($pretty "$tmp/docs/parent-$name.$ext") \
            <($pretty "$tmp/docs/change-$name.$ext") | head -n 20 || true
        differed=1
    fi
}

# One experiment per line: the binary, then any flag beyond --quick.
while read -r bin flags; do
    # shellcheck disable=SC2086 # `flags` is a word list
    compare "$bin" json "python3 -m json.tool" "$bin" --bench-out $flags
done <<'EOF'
exp_faults
exp_byzantine
exp_scale --no-wall
exp_persist
exp_churn
EOF
# Its document holds wall-clock overheads; only the trace is compared.
compare exp_latency-trace jsonl cat exp_latency --out "$tmp/docs/exp_latency.json" --trace-out
exit "$differed"
