#!/usr/bin/env bash
# Lines of Rust under crates/*/src: total, and non-test (everything
# from a file's first `#[cfg(test)]` on is its test module and is
# left out; `tests/` directories are not under src/ at all). This is
# the number ROADMAP aim 2 and every simplicity PR report.
#
#   scripts/loc.sh                the two totals
#   scripts/loc.sh --files        also one line per file
#   scripts/loc.sh --since <rev>  each file's non-test delta against a
#                                 git revision (read with `git show`,
#                                 nothing is checked out), then the sum
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the Rust source on stdin.
nontest() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'; }

if [ "${1:-}" = "--since" ]; then
    rev=${2:?usage: scripts/loc.sh --since <rev>}
    git rev-parse --verify -q "$rev^{commit}" >/dev/null ||
        { echo "loc.sh: unknown revision \`$rev'" >&2; exit 2; }
    { git ls-tree -r --name-only "$rev" -- crates; find crates/*/src -name '*.rs'; } |
        grep -E '^crates/[^/]+/src/.+\.rs$' | LC_ALL=C sort -u | while read -r f; do
        before=0 after=0
        if git cat-file -e "$rev:$f" 2>/dev/null; then
            before=$(git show "$rev:$f" | nontest)
        fi
        if [ -f "$f" ]; then after=$(nontest <"$f"); fi
        echo "$before $after $f"
    done | awk -v rev="$rev" '
        { was += $1; now += $2 }
        $1 != $2 { printf "%+6d %6d -> %6d  %s\n", $2 - $1, $1, $2, $3 }
        END { printf "crates/*/src non-test Rust lines since %s: %d -> %d (%+d)\n", rev, was, now, now - was }'
    exit
fi

find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    total=$(wc -l <"$f")
    echo "$total $(nontest <"$f") $f"
done | awk -v files="${1:-}" '
    { total += $1; code += $2 }
    files == "--files" { printf "%6d %6d  %s\n", $1, $2, $3 }
    END { printf "crates/*/src Rust lines: %d total, %d non-test\n", total, code }'
