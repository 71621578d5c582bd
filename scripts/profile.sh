#!/usr/bin/env bash
# Where one BENCHMARK.json workload spends its CPU time, without perf.
#
#   scripts/profile.sh <workload> [seconds=10] [focus=ScaleSim::run_round] [seed=11] [runs=1]
#
# Builds the benchmark with frame pointers and line tables into
# target/profile (the normal build is untouched), preloads the SIGPROF
# sampler in scripts/profile_sampler.c (compiled with the host's gcc: one
# sample per millisecond of CPU time, stacks walked on the main thread),
# runs the workload `runs` times, symbolises every sample with addr2line
# (inlined frames expanded, each run's load base subtracted) and prints,
# over the pooled samples whose stack holds a frame whose name contains
# <focus>: the functions and crates with the largest self share
# (innermost frame) and inclusive share (anywhere at or under the focus
# frame). A crate is read from the frame's source path.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 5 ]; then
    sed -n '2,16p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workload=$1
seconds=${2:-10}
focus=${3:-ScaleSim::run_round}
seed=${4:-11}
runs=${5:-1}

root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

gcc -O2 -shared -fPIC -o "$tmp/sampler.so" "$root/scripts/profile_sampler.c"
export CARGO_TARGET_DIR="$root/target/profile"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --quiet --manifest-path "$root/benchmark/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/prb-benchmark"

for run in $(seq "$runs"); do
    (cd "$root" && LD_PRELOAD="$tmp/sampler.so" PRB_PROFILE_OUT="$tmp/samples.$run" \
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >/dev/null)
done

symbolizer=addr2line
# GNU addr2line names an inlined frame's outermost function first; the
# LLVM one, where installed, names every frame in the chain correctly.
command -v llvm-addr2line >/dev/null && symbolizer=llvm-addr2line
python3 - "$symbolizer" "$bin" "$focus" "$tmp"/samples.* <<'PY'
import collections, re, subprocess, sys

symbolizer, binary, focus, *paths = sys.argv[1:]
stacks = []
for path in paths:
    with open(path) as f:
        f.readline()  # "base …": the addresses are already relative to it
        stacks += [[int(a, 16) for a in line.split()] for line in f if line.strip()]
# A return address points past its call; step back into the call itself.
wanted = sorted({a if i == 0 else a - 1 for s in stacks for i, a in enumerate(s)})
out = subprocess.run(
    [symbolizer, "-a", "-f", "-i", "-C", "-e", binary],
    input="\n".join(f"0x{a:x}" for a in wanted), capture_output=True, text=True, check=True,
).stdout.splitlines()

def crate(path):
    """The crate a source file belongs to, from its path."""
    for pattern in (r"/library/(\w+)/", r"/(crates|vendor)/(\w+)/", r"/([A-Za-z_][\w-]*?)-\d+\.\d+\.\d+[^/]*/"):
        m = re.search(pattern, path)
        if m:
            return "/".join(m.groups())
    return "benchmark" if "/benchmark/" in path else "?"

# Per address, its frames innermost first, as "function [crate]".
frames, at, lines = {}, None, iter(out)
for line in lines:
    if line.startswith("0x"):
        at = int(line, 16)
        frames[at] = []
    elif line.strip():
        name = re.sub(r"::h[0-9a-f]{16}$", "", line)
        frames[at].append(f"{name} [{crate(next(lines, ''))}]")

self_fn, self_crate = collections.Counter(), collections.Counter()
incl_fn, incl_crate = collections.Counter(), collections.Counter()
focused = 0
for s in stacks:
    chain = [n for i, a in enumerate(s) for n in frames.get(a if i == 0 else a - 1, ["?? [?]"])]
    hit = next((k for k, n in enumerate(chain) if focus in n), None)
    if hit is None:
        continue
    focused += 1
    under = chain[: hit + 1]
    self_fn[under[0]] += 1
    self_crate[under[0].rsplit("[", 1)[1][:-1]] += 1
    incl_fn.update(set(under))
    incl_crate.update({n.rsplit("[", 1)[1][:-1] for n in under})

print(f"# {len(stacks)} samples, {focused} under '{focus}'")
if not focused:
    sys.exit(1)
for title, counts, n in [
    ("self, by crate", self_crate, 12),
    ("inclusive, by crate", incl_crate, 12),
    ("self, by function", self_fn, 30),
    ("inclusive, by function", incl_fn, 40),
]:
    print(f"\n## {title}")
    for name, c in counts.most_common(n):
        print(f"{100 * c / focused:6.1f}%  {name[:160]}")
PY
