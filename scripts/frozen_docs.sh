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
# pair of documents, printing "byte-equal" or "differs" for each. After a
# "differs" it prints the first 20 lines of a diff of the two documents,
# each pretty-printed by `python3 -m json.tool`, so the moved field shows.
# Exits non-zero if any differed.
set -euo pipefail

if [ $# -ne 1 ]; then
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
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

# One experiment per line: the binary, then any flag beyond --quick.
differed=0
while read -r bin flags; do
    for side in parent change; do
        if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$root"; fi
        echo "# $bin: $side" >&2
        # shellcheck disable=SC2086 # `flags` is a word list
        (cd "$dir" && "./target/release/$bin" --quick $flags \
            --bench-out "$tmp/docs/$side-$bin.json" </dev/null >/dev/null)
    done
    if cmp -s "$tmp/docs/parent-$bin.json" "$tmp/docs/change-$bin.json"; then
        echo "$bin: byte-equal"
    else
        echo "$bin: differs"
        diff <(python3 -m json.tool "$tmp/docs/parent-$bin.json") \
            <(python3 -m json.tool "$tmp/docs/change-$bin.json") | head -n 20 || true
        differed=1
    fi
done <<'EOF'
exp_faults
exp_byzantine
exp_scale --no-wall
exp_persist
exp_churn
EOF
exit "$differed"
