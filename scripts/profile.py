#!/usr/bin/env python3
"""Inclusive and exclusive shares from a scripts/sampler profile.

Symbolises the stacks `libsci_sampler.so` wrote (see
scripts/sampler/src/lib.rs) with `addr2line -f -C -i`, inlined frames
included, and prints, over the stacks that pass through ROOT, the share
of them each function under ROOT is on. With --self it prints instead
each stack's leaf (innermost) function as an exclusive share, beside
the nearest frame of the workspace's own crates (`sci_*`) at or above
it: a standard-library leaf such as `run_utf8_validation` is charged
to the workspace function that called into it. With --busy it first
drops the samples a thread took parked in a blocking wait (a futex
wait, a sleep, a blocking socket read or poll: see `parked`) and prints each thread root's share of the rest: a thread's
root is its outermost workspace function that is not a closure
(`runtime::worker_loop`, `tcp::run_reader`, the program's `main`).
Exits non-zero when no stack passes through ROOT.

    scripts/profile.py SAMPLES [--root NAME] [--top N] [--show NAME ...] [--self] [--busy]

A frame matches a name when its demangled function name contains it
(`churn::cycle` matches `sci_benchmark::churn::cycle`). The program
profiled needs frame pointers and line tables:

    RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 \\
        cargo build --release --manifest-path benchmark/Cargo.toml \\
        --target-dir target/profiling
    cargo build --release --manifest-path scripts/sampler/Cargo.toml
    SCI_SAMPLE=/tmp/churn.samples \\
        LD_PRELOAD=scripts/sampler/target/release/libsci_sampler.so \\
        target/profiling/release/sci-benchmark --workload control_churn --quick
    scripts/profile.py /tmp/churn.samples --root churn::cycle
"""

import argparse
import collections
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")
# A function of one of the workspace's crates: `sci_core::...`,
# `<sci_core::X as Trait>::f` or `core::...::<impl sci_core::X>::f`.
WORKSPACE = re.compile(r"^<?sci_\w+::|<impl sci_\w+::")
# Where a thread waits rather than runs: a blocking libc call, or a
# futex wait. A libc leaf keeps no frame pointer, so the frame that
# called it is missing: a channel's futex wait reads `syscall` right
# under `Context::wait_until` (and a futex wake, which runs, under
# `unpark`).
BLOCKING_LEAF = re.compile(
    r"^(__libc_)?(read|recv|recvfrom|accept4?|poll|ppoll|epoll_wait|nanosleep|clock_nanosleep)$"
)
FUTEX_WAITER = re.compile(r"futex_wait|wait_until|Mutex>::lock|lock_contended|Parker>::park|Condvar::wait")


def read(path):
    """The mapped files as (start, end, base, path), and the stacks."""
    maps, stacks, header = [], [], ""
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                header = line.strip()
            elif line.startswith("m "):
                fields = line[2:].split(maxsplit=5)
                if len(fields) == 6 and fields[5].startswith("/"):
                    start, end = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((start, end, int(fields[2], 16), fields[5].strip()))
            elif line.startswith("s"):
                stacks.append([int(x, 16) for x in line.split()[1:]])
    return header, load_bases(maps), stacks


def load_bases(maps):
    """Each file's mappings with its load bias: the start of the mapping
    at file offset 0 (0 for a fixed-address executable)."""
    bias = {}
    for start, _, offset, path in maps:
        if offset == 0 and path not in bias:
            bias[path] = 0 if elf_type(path) == 2 else start
    return [(s, e, bias.get(p, s - o), p) for s, e, o, p in maps]


def elf_type(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
        return int.from_bytes(head[16:18], "little") if head[:4] == b"\x7fELF" else None
    except OSError:
        return None


def symbolise(maps, stacks):
    """Maps every (file, address) the stacks hold to its frames'
    function names, innermost inlined frame first."""
    wanted = collections.defaultdict(set)
    located = []
    for stack in stacks:
        frames = []
        for depth, pc in enumerate(stack):
            # A return address points past its call; look up the call.
            pc = pc if depth == 0 else pc - 1
            hit = next(((p, pc - b) for s, e, b, p in maps if s <= pc < e), None)
            if hit:
                wanted[hit[0]].add(hit[1])
            frames.append(hit)
        located.append(frames)
    names = {}
    for path, addrs in wanted.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", path],
            input="\n".join(f"{a:#x}" for a in addrs),
            capture_output=True,
            text=True,
        ).stdout.splitlines()
        current, i = None, 0
        while i < len(out):
            if out[i].startswith("0x"):
                current = (path, int(out[i], 16))
                names[current] = []
                i += 1
            else:
                name = HASH.sub("", out[i])
                if name != "??":
                    names[current].append(name)
                i += 2
    return [[n for hit in frames if hit for n in names.get(hit, [])] for frames in located]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("samples")
    ap.add_argument("--root", default="main", help="only stacks through this function")
    ap.add_argument("--top", type=int, default=25, help="functions to list")
    ap.add_argument("--show", nargs="*", default=[], help="also print these functions' shares")
    ap.add_argument(
        "--self",
        dest="leaf",
        action="store_true",
        help="exclusive (leaf) shares, each beside its nearest workspace frame",
    )
    ap.add_argument(
        "--busy",
        action="store_true",
        help="drop samples parked in a blocking wait; print each thread root's share",
    )
    args = ap.parse_args()

    header, maps, stacks = read(args.samples)
    named = symbolise(maps, stacks)
    print(header)
    if args.busy:
        named = print_thread_roots(named)
    # Leaf first: a stack's frames up to its outermost ROOT frame are
    # what ROOT was running.
    under = []
    for stack in named:
        at = [i for i, n in enumerate(stack) if args.root in n]
        if at:
            under.append(stack[: at[-1] + 1])
    print(f"{len(named)} stacks, {len(under)} through {args.root}")
    if not under:
        return 1
    if args.leaf:
        return print_leaves(under, args)
    through = [set(stack) for stack in under]
    counts = collections.Counter(n for s in through for n in s)
    print(f"{'share':>7}  function (inclusive, of the stacks through {args.root})")
    for name, count in counts.most_common(args.top):
        print(f"{100 * count / len(through):6.1f}%  {name}")
    for wanted in args.show:
        hits = sum(1 for s in through if any(wanted in n for n in s))
        print(f"{100 * hits / len(through):6.1f}%  [{wanted}]")
    return 0


def print_thread_roots(named):
    """The stacks not parked in a blocking wait, after printing the
    share of them each thread root holds."""
    busy = [s for s in named if not parked(s)]
    print(f"{len(named)} stacks, {len(busy)} busy")
    roots = collections.Counter(thread_root(stack) for stack in busy)
    print(f"{'share':>7}  thread root (of the busy stacks)")
    for root, count in roots.most_common():
        print(f"{100 * count / max(len(busy), 1):6.1f}%  {root}")
    return busy


def parked(stack):
    """Whether the sample was taken while its thread waited."""
    if stack and BLOCKING_LEAF.search(stack[0]):
        return True
    return stack[:1] == ["syscall"] and len(stack) > 1 and bool(FUTEX_WAITER.search(stack[1]))


def thread_root(stack):
    """The outermost workspace function on the stack that is not a
    closure: the function a thread was started to run."""
    return next(
        (
            n
            for n in reversed(stack)
            if WORKSPACE.search(n) and "{{closure}}" not in n and not n.startswith("sci_sampler")
        ),
        "(no workspace frame)",
    )


def print_leaves(under, args):
    """Exclusive shares: each stack's leaf function, beside the nearest
    workspace frame at or above it."""
    counts = collections.Counter()
    for stack in under:
        owner = next((n for n in stack if WORKSPACE.search(n)), "(no workspace frame)")
        counts[(stack[0], owner)] += 1
    print(f"{'self':>7}  leaf function  <-  nearest workspace frame (of the stacks through {args.root})")
    for (leaf, owner), count in counts.most_common(args.top):
        at = "" if leaf == owner else f"  <-  {owner}"
        print(f"{100 * count / len(under):6.1f}%  {leaf}{at}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
