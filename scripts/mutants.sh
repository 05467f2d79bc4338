#!/usr/bin/env bash
# Mutants: each tests/mutants/<nn>-<slug>.patch re-introduces one bug,
# and its header names the tests that must fail once it is applied.
#
#   scripts/mutants.sh --check   every patch still applies to this tree
#                                (`git apply --check`: nothing changes)
#
# A refactor that stops a patch applying must re-express the mutant or
# retire it, saying why.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s nullglob

if [ "${1:-}" != "--check" ]; then
    echo "usage: scripts/mutants.sh --check" >&2
    exit 2
fi
n=0
for patch in tests/mutants/*.patch; do
    git apply --check "$patch" || { echo "mutants.sh: $patch no longer applies" >&2; exit 1; }
    n=$((n + 1))
done
echo "mutants.sh: $n patches apply"
