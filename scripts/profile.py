#!/usr/bin/env python3
"""Inclusive shares from a scripts/sampler profile.

Symbolises the stacks `libsci_sampler.so` wrote (see
scripts/sampler/src/lib.rs) with `addr2line -f -C -i`, inlined frames
included, and prints, over the stacks that pass through ROOT, the share
of them each function under ROOT is on. Exits non-zero when no stack
passes through ROOT.

    scripts/profile.py SAMPLES [--root NAME] [--top N] [--show NAME ...]

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
    args = ap.parse_args()

    header, maps, stacks = read(args.samples)
    named = symbolise(maps, stacks)
    # Leaf first: a stack's frames up to its outermost ROOT frame are
    # what ROOT was running.
    through = []
    for stack in named:
        at = [i for i, n in enumerate(stack) if args.root in n]
        if at:
            through.append(set(stack[: at[-1] + 1]))
    print(f"{header}\n{len(stacks)} stacks, {len(through)} through {args.root}")
    if not through:
        return 1
    counts = collections.Counter(n for s in through for n in s)
    print(f"{'share':>7}  function (inclusive, of the stacks through {args.root})")
    for name, count in counts.most_common(args.top):
        print(f"{100 * count / len(through):6.1f}%  {name}")
    for wanted in args.show:
        hits = sum(1 for s in through if any(wanted in n for n in s))
        print(f"{100 * hits / len(through):6.1f}%  [{wanted}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
