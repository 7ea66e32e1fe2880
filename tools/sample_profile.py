#!/usr/bin/env python3
"""Symbolize and aggregate samples written by tools/sample_profiler.cc.

    python3 tools/sample_profile.py SAMPLES [SAMPLES ...]

Each SAMPLES file needs its SAMPLES.maps companion.  Addresses are resolved
with `addr2line -f -C -i`, so a function inlined into its caller gets
samples of its own.  A sample's self function is the innermost function at
the interrupted program counter; its inclusive functions are every function
on the stack, each counted once per sample.  A name from a module without
line information (a stripped system library) carries the module's name in
brackets, since it is only the nearest exported symbol.  A stack that passes
through code built without frame pointers loses the callers above it, so
inclusive shares are lower bounds.  Prints the top TOP functions by self
share and by inclusive share of all samples.
"""
import bisect
import collections
import os
import struct
import subprocess
import sys

TOP = 25


def read_maps(path):
    """[(start, end, base, module)] sorted by start."""
    segs = []
    with open(path) as f:
        for line in f:
            start, end, base, module = line.rstrip("\n").split(" ", 3)
            segs.append((int(start, 16), int(end, 16), int(base, 16), module))
    segs.sort()
    return segs


def read_samples(path):
    """List of address tuples, the program counter first."""
    data = open(path, "rb").read()
    out, pos = [], 0
    while pos + 8 <= len(data):
        (n,) = struct.unpack_from("<Q", data, pos)
        pos += 8
        if pos + 8 * n > len(data):
            break  # a record cut short at exit
        out.append(struct.unpack_from("<%dQ" % n, data, pos))
        pos += 8 * n
    return out


def locate(segs, starts, addr):
    """(module, module-relative address) or None."""
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and addr < segs[i][1]:
        return segs[i][3], addr - segs[i][2]
    return None


def symbolize(module, offsets):
    """{offset: [function, ...]} innermost inlined function first."""
    offsets = sorted(offsets)
    try:
        proc = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", module],
            input="\n".join("%x" % o for o in offsets) + "\n",
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {}
    lines = proc.stdout.splitlines()
    tag = " [%s]" % os.path.basename(module)
    names, cur, i = {}, None, 0
    while i + 1 < len(lines):
        if lines[i].startswith("0x"):
            cur = int(lines[i], 16)
            names[cur] = []
            i += 1
            continue
        name, where = lines[i], lines[i + 1]
        if name == "??":
            name = tag.strip()
        elif where.startswith("??"):
            # No line info: the name is the nearest exported symbol, which
            # in a stripped library may not be the function that ran.
            name += tag
        names[cur].append(name)
        i += 2
    return names


def main():
    paths = sys.argv[1:]
    if not paths:
        sys.exit("usage: %s SAMPLES [SAMPLES ...]" % sys.argv[0])

    stacks = []  # [(module, offset), ...] per sample
    wanted = collections.defaultdict(set)
    for path in paths:
        segs = read_maps(path + ".maps")
        starts = [s[0] for s in segs]
        for sample in read_samples(path):
            frames = []
            for depth, addr in enumerate(sample):
                # A return address points after its call; look up the call.
                loc = locate(segs, starts, addr if depth == 0 else addr - 1)
                if loc is None:
                    frames.append(("unknown", 0))
                    continue
                frames.append(loc)
                wanted[loc[0]].add(loc[1])
            stacks.append(frames)
    if not stacks:
        sys.exit("no samples")

    names = {}
    for module, offsets in wanted.items():
        for off, chain in symbolize(module, offsets).items():
            names[(module, off)] = chain

    def chain(loc):
        return names.get(loc) or ["[%s]" % os.path.basename(loc[0])]

    self_n = collections.Counter()
    incl_n = collections.Counter()
    for frames in stacks:
        self_n[chain(frames[0])[0]] += 1
        seen = set()
        for loc in frames:
            seen.update(chain(loc))
        incl_n.update(seen)

    total = len(stacks)
    print("%d samples from %d file(s)" % (total, len(paths)))
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print("\ntop %d by %s share" % (TOP, title))
        print("%7s %7s  function" % ("self%", "incl%"))
        for fn, _ in counts.most_common(TOP):
            print("%6.1f%% %6.1f%%  %s" % (100.0 * self_n[fn] / total,
                                           100.0 * incl_n[fn] / total,
                                           fn[:160]))


if __name__ == "__main__":
    main()
