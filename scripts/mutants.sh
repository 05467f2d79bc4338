#!/usr/bin/env bash
# Mutants: each tests/mutants/<nn>-<slug>.patch re-introduces one bug,
# and its header names the tests that must fail once it is applied.
#
#   scripts/mutants.sh --check         every patch still applies to this tree
#                                      (`git apply --check`: nothing changes)
#   scripts/mutants.sh --run [nn...]   for each named patch (all of them when
#                                      none is named), apply it to HEAD in a
#                                      detached worktree under $TMPDIR, build
#                                      the examples (the goldens run them),
#                                      run every `cargo test` line under its
#                                      "Must fail" header there in release,
#                                      and print one row per mutant: `killed`
#                                      when every line failed, `survived`
#                                      naming each line that passed. Exits
#                                      non-zero if any mutant survived.
#
# `--run` builds into one shared target directory, `$CARGO_TARGET_DIR` or
# `$TMPDIR/sci-mutants-target`, and tests the committed HEAD, not the
# working tree. A refactor that stops a patch applying must re-express the
# mutant or retire it, saying why.
set -euo pipefail
cd "$(dirname "$0")/.."
shopt -s nullglob

usage() {
    echo "usage: scripts/mutants.sh --check | --run [nn...]" >&2
    exit 2
}

check() {
    local n=0
    for patch in tests/mutants/*.patch; do
        git apply --check "$patch" || { echo "mutants.sh: $patch no longer applies" >&2; exit 1; }
        n=$((n + 1))
    done
    echo "mutants.sh: $n patches apply"
}

# The `cargo test ...` lines under a patch's "Must fail" header.
must_fail() {
    sed -n '/^Must fail/,/^$/p' "$1" | sed -n 's/^  cargo test //p'
}

run() {
    local patches=()
    if [ $# -eq 0 ]; then
        patches=(tests/mutants/*.patch)
    else
        for nn in "$@"; do
            local found=(tests/mutants/"$nn"-*.patch)
            [ ${#found[@]} -eq 1 ] || { echo "mutants.sh: no single patch numbered $nn" >&2; exit 2; }
            patches+=("${found[0]}")
        done
    fi
    local tmp target
    tmp=${TMPDIR:-/tmp}
    target=${CARGO_TARGET_DIR:-$tmp/sci-mutants-target}
    # One path for every mutant: each build overwrites the last one's
    # artifacts in the shared target directory instead of adding its own.
    root=$PWD
    tree=$tmp/sci-mutant
    trap 'git -C "$root" worktree remove --force "$tree" 2>/dev/null || true' EXIT
    local survivors=0
    for patch in "${patches[@]}"; do
        local name lines=() survived=()
        name=$(basename "$patch" .patch)
        mapfile -t lines < <(must_fail "$patch")
        [ ${#lines[@]} -gt 0 ] || { echo "mutants.sh: $patch names no test" >&2; exit 1; }
        git worktree remove --force "$tree" 2>/dev/null || true
        git worktree add --detach --quiet "$tree" HEAD
        git -C "$tree" apply "$root/$patch"
        (cd "$tree" && CARGO_TARGET_DIR=$target cargo build --release --examples --quiet)
        for line in "${lines[@]}"; do
            local args
            read -ra args <<<"$line"
            if (cd "$tree" && CARGO_TARGET_DIR=$target cargo test --release "${args[@]}" >/dev/null 2>&1); then
                survived+=("cargo test $line")
            fi
        done
        git worktree remove --force "$tree"
        if [ ${#survived[@]} -eq 0 ]; then
            printf '%-48s killed\n' "$name"
        else
            survivors=$((survivors + 1))
            printf '%-48s survived: %s\n' "$name" "$(IFS=';'; echo "${survived[*]}")"
        fi
    done
    if [ "$survivors" -gt 0 ]; then
        echo "mutants.sh: $survivors of ${#patches[@]} mutants survived" >&2
        exit 1
    fi
    echo "mutants.sh: ${#patches[@]} of ${#patches[@]} mutants killed"
}

case "${1:-}" in
    --check) [ $# -eq 1 ] || usage; check ;;
    --run) shift; run "$@" ;;
    *) usage ;;
esac
