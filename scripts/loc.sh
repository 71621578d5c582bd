#!/usr/bin/env bash
# Non-test lines of Rust under crates/*/src, per file and per crate: every
# line except those inside `#[cfg(test)] mod … { … }` blocks (the attribute
# line itself counts) and those of files a `#[cfg(test)] mod name;` declares
# (`name.rs` or `name/`, and everything under it). Blank lines and comments
# count.
#
#   scripts/loc.sh [ref]
#
# With a git ref, also prints the count at that ref (exported with git
# archive, so the working tree may be dirty and nothing is registered in
# .git) and the difference, working tree minus ref: the "net LoC" a
# simplicity PR reports. Files present on only one side count 0 on the
# other.
set -euo pipefail

if [ $# -gt 1 ]; then
    sed -n '2,12p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
ref=${1:-}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Prints, for every `#[cfg(test)] mod name;` under <dir>/crates/*/src, the
# two paths its module may live at: `<parent dir>/name.rs` and
# `<parent dir>/name/`, relative to <dir>.
test_only() {
    (cd "$1" && find crates/*/src -name '*.rs' | sort | while read -r f; do
        case $f in
            */mod.rs | */lib.rs | */main.rs) dir=${f%/*} ;;
            *) dir=${f%.rs} ;;
        esac
        awk -v dir="$dir" '
            held && match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *; *$/) {
                name = $0
                sub(/^[ \t]*(pub(\([a-z]+\))? )?mod /, "", name)
                sub(/ *; *$/, "", name)
                print dir "/" name ".rs"
                print dir "/" name "/"
            }
            { held = 0 }
            /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1 }
        ' "$f"
    done)
}

# Prints "<lines> <path>" for every shipped .rs file under <dir>/crates/*/src,
# paths relative to <dir>. A test module ends at the first `}` line with
# the indentation of its `mod` line, as rustfmt lays it out.
count() {
    local skip
    skip=$(test_only "$1")
    (cd "$1" && find crates/*/src -name '*.rs' | sort | while read -r f; do
        while read -r s; do
            if [ -n "$s" ] && [[ $f == "$s"* ]]; then continue 2; fi
        done <<<"$skip"
        awk -v path="$f" '
            skip { if ($0 == close_line) skip = 0; next }
            held {
                held = 0
                if (match($0, /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{ *$/)) {
                    match($0, /^[ \t]*/)
                    close_line = substr($0, 1, RLENGTH) "}"
                    skip = 1
                }
                n++
                if (skip) next
            }
            /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
            { n++ }
            END { if (held) n++; print n + 0, path }
        ' "$f"
    done)
}

count "$root" >"$tmp/change"
if [ -n "$ref" ]; then
    mkdir "$tmp/ref"
    git -C "$root" archive "$ref" crates | tar -x -C "$tmp/ref"
    count "$tmp/ref" >"$tmp/base"
else
    : >"$tmp/base"
fi

# Per file, then per crate (crates/<name>/src), then the total.
awk -v with_ref="${ref:+1}" '
    FILENAME == ARGV[1] { base[$2] = $1; seen[$2] = 1; next }
    { change[$2] = $1; seen[$2] = 1 }
    END {
        if (with_ref) printf "%7s %7s %7s  %s\n", "lines", "ref", "diff", "path"
        else printf "%7s  %s\n", "lines", "path"
        n = 0
        for (p in seen) paths[++n] = p
        # insertion sort keeps this portable across awks
        for (i = 2; i <= n; i++) {
            v = paths[i]
            for (j = i - 1; j > 0 && paths[j] > v; j--) paths[j + 1] = paths[j]
            paths[j + 1] = v
        }
        for (i = 1; i <= n; i++) {
            p = paths[i]
            split(p, part, "/")
            crate = part[1] "/" part[2] "/" part[3]
            if (!(crate in c_change)) crates[++m] = crate
            c_change[crate] += change[p]; c_base[crate] += base[p]
            t_change += change[p]; t_base += base[p]
            row(change[p], base[p], p)
        }
        print ""
        for (i = 1; i <= m; i++) row(c_change[crates[i]], c_base[crates[i]], crates[i])
        row(t_change, t_base, "total")
    }
    function row(c, b, label) {
        if (with_ref) printf "%7d %7d %+7d  %s\n", c, b, c - b, label
        else printf "%7d  %s\n", c, label
    }
' "$tmp/base" "$tmp/change"
