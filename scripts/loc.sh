#!/usr/bin/env bash
# Lines of Rust under crates/*/src: total, and non-test (everything
# from a file's first `#[cfg(test)]` on is its test module and is
# left out; `tests/` directories are not under src/ at all). This is
# the number ROADMAP aim 2 and every simplicity PR report.
#
#   scripts/loc.sh            the two totals
#   scripts/loc.sh --files    also one line per file
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    total=$(wc -l <"$f")
    cut=$(grep -n -m1 '^#\[cfg(test)\]' "$f" | cut -d: -f1 || true)
    echo "$total $(( ${cut:-$((total + 1))} - 1 )) $f"
done | awk -v files="${1:-}" '
    { total += $1; code += $2 }
    files == "--files" { printf "%6d %6d  %s\n", $1, $2, $3 }
    END { printf "crates/*/src Rust lines: %d total, %d non-test\n", total, code }'
