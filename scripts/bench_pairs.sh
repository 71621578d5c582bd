#!/usr/bin/env bash
# Alternating parent/change pairs of one BENCHMARK.json workload: the
# protocol benchmark/README.md § "Noise protocol" asks of every PR that
# claims a gain.
#
#   scripts/bench_pairs.sh <parent-ref> <workload> [pairs=10] [seconds=10] [seed=11] [heads=same]
#
# Exports <parent-ref> into a temporary directory (git archive: the working
# tree may be dirty, and nothing is left registered in .git), builds the
# benchmark on both sides, then runs the one-workload command `pairs`
# times per side, alternating which side goes first. Prints, per
# end-to-end metric, each side's median and quartiles, the ratio of the
# medians and the pairs the change won. Fails if a run reports a failed
# operation, if the runs of one side disagree on their ledger head, or if
# the two sides' heads differ — unless the 6th argument is `heads=differ`,
# for a change that moves the schedule on purpose. The same rows are
# appended to BENCH_history.jsonl at the repo root, one JSON line per
# end-to-end metric; commit the rows a gain-claiming PR's runs produce.
# `commit` is `git describe --always --dirty`, so an uncommitted change
# reads `<parent>-dirty`; `crates_tree` is what traces a row back to the
# change that produced it: the git tree hash of crates/ as the change side
# was built, equal to `git rev-parse <sha>:crates` of the commit that
# lands that code whether or not the tree was dirty when the pairs ran.
# `sha_ni` says what hashed it: whether /proc/cpuinfo lists the SHA
# extensions (`false` where the file is missing), i.e. whether a side that
# has the SHA-NI kernel (PR 23 on) ran it or the portable rounds.
# `host` says where: the CPU model and processor count /proc/cpuinfo lists
# (null where it is missing), and per side the median of the `# pace`
# readings the runs printed (ms per unit of the benchmark's fixed probe; a
# higher reading is a slower or busier host).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}
seed=${5:-11}
heads=${6:-heads=same}
case $heads in
    heads=same | heads=differ) ;;
    *) echo "the 6th argument is heads=same or heads=differ, not '$heads'" >&2; exit 2 ;;
esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent_ref" | tar -x -C "$tmp/parent"

# BENCHMARK.json's command, from the root of the given checkout.
bench() {
    (cd "$1" && cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
}

for side in "$tmp/parent" "$root"; do
    echo "# building $side" >&2
    (cd "$side" && cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
done

# On a throwaway index, so a dirty tree needs no commit and the real index
# is left alone.
crates_tree=$(cd "$root" && export GIT_INDEX_FILE="$tmp/index" &&
    git add -A crates && git write-tree --prefix=crates/)

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir="$tmp/parent"; else dir="$root"; fi
        echo "# pair $i/$pairs: $side" >&2
        bench "$dir" | grep -E '^(# head |# pace |\{)' >>"$tmp/$side.out"
    done
done

sha_ni=false
if grep -qw sha_ni /proc/cpuinfo 2>/dev/null; then sha_ni=true; fi
commit=$(git -C "$root" describe --always --dirty)
parent=$(git -C "$root" rev-parse --short "$parent_ref^{commit}")
python3 - "$root" "$tmp/parent.out" "$tmp/change.out" "$workload" "$seed" "$seconds" \
    "$commit" "$parent" "$crates_tree" "$sha_ni" "$heads" <<'PY'
import json, statistics, sys

(root, parent_out, change_out, workload, seed, seconds, commit, parent,
 crates_tree, sha_ni, heads_rule) = sys.argv[1:]
end_to_end = json.load(open(f"{root}/BENCHMARK.json"))["end_to_end"]

def load(path):
    heads, paces, runs = [], [], []
    for line in open(path):
        if line.startswith("# head "):
            heads.append(line.split()[2])
        elif line.startswith("# pace "):
            paces.append(float(line.split()[2]))
        else:
            runs.append(json.loads(line))
    return heads, paces, runs

def cpuinfo():
    try:
        lines = open("/proc/cpuinfo").read().splitlines()
    except OSError:
        return None, None
    models = [l.split(":", 1)[1].strip() for l in lines if l.startswith("model name")]
    nproc = sum(1 for l in lines if l.startswith("processor"))
    return (models[0] if models else None), (nproc or None)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

(p_heads, p_paces, p_runs), (c_heads, c_paces, c_runs) = load(parent_out), load(change_out)
failed = sum(r["failed"] for r in p_runs + c_runs)
heads = sorted(set(p_heads + c_heads))
cpu, nproc = cpuinfo()
median_or_none = lambda xs: statistics.median(xs) if xs else None
host = {"cpu": cpu, "nproc": nproc,
        "pace_ms": {"parent": median_or_none(p_paces), "change": median_or_none(c_paces)}}
print(f"host {cpu}  nproc {nproc}  median pace ms: parent {host['pace_ms']['parent']}, "
      f"change {host['pace_ms']['change']}")
history = open(f"{root}/BENCH_history.jsonl", "a")
print(f"workload {workload}  seed {seed}  seconds {seconds}  pairs {len(p_runs)}  sha_ni {sha_ni}")
print(f"{'metric':<20} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'ratio':>7}  won")
for m in end_to_end:
    name, higher = m["name"], m["better"] == "higher"
    p = [r["metrics"][name]["value"] for r in p_runs]
    c = [r["metrics"][name]["value"] for r in c_runs]
    won = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    ratio = cm / pm if pm else float("nan")
    print(f"{name:<20} {pm:>12.4g} [{pq1:>8.4g}, {pq3:>8.4g}] {cm:>12.4g} [{cq1:>8.4g}, {cq3:>8.4g}] "
          f"{ratio:>7.3f}  {won}/{len(p)}")
    row = {
        "commit": commit, "crates_tree": crates_tree, "parent": parent,
        "workload": workload, "seed": int(seed),
        "seconds": float(seconds), "pairs": len(p), "metric": name, "unit": m["unit"],
        "parent_median": pm, "parent_q1": pq1, "parent_q3": pq3,
        "change_median": cm, "change_q1": cq1, "change_q3": cq3,
        "ratio": None if pm == 0 else round(ratio, 4), "won": won,
        "head": ",".join(heads), "failed": failed, "sha_ni": sha_ni == "true",
        "host": host,
    }
    history.write(json.dumps(row) + "\n")
history.close()
p_set, c_set = sorted(set(p_heads)), sorted(set(c_heads))
same = len(heads) == 1
steady = len(p_set) == 1 and len(c_set) == 1
print(f"failed operations {failed}  ledger heads: parent {', '.join(h[:12] for h in p_set)}, "
      f"change {', '.join(h[:12] for h in c_set)}  "
      f"({'identical' if same else 'each side steady' if steady else 'a side DISAGREES with itself'}; "
      f"{heads_rule})")
ok = failed == 0 and steady and (same or heads_rule == "heads=differ")
sys.exit(0 if ok else 1)
PY
