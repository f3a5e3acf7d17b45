"""Symbolizes the samples profile_shim.c wrote and prints where the time went.

usage: profile_report.py <samples> <binary> [frame]

Addresses inside <binary> are named through `nm -C -n` (its load base read
from the maps the shim appended); addresses in a shared library are named
by the library. Prints the top 15 functions by self share (the sampled
instruction was in them) and by inclusive share (they were on the stack),
optionally counting only the samples with a function whose name contains
<frame> on the stack.
"""
import bisect
import os
import re
import subprocess
import sys

TOP = 15


def main():
    path, binary = sys.argv[1], sys.argv[2]
    under = sys.argv[3] if len(sys.argv) > 3 else None
    with open(path) as f:
        text = f.read()
    samples, _, maps = text.partition("maps\n")
    stacks = [[int(a, 16) for a in line.split()] for line in samples.splitlines() if line]

    real = os.path.realpath(binary)
    regions = []
    for line in maps.splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            regions.append((lo, hi, int(fields[2], 16), fields[5]))
    ours = [(lo, off) for lo, _, off, p in regions if os.path.realpath(p) == real]
    with open(binary, "rb") as f:
        pie = f.read(18)[16] == 3  # e_type ET_DYN: loaded at a base
    base = min(lo - off for lo, off in ours) if ours and pie else 0

    nm = subprocess.run(["nm", "-C", "-n", binary], capture_output=True, text=True).stdout
    syms = []
    for line in nm.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) == 3 and fields[1] in "tTwW":
            syms.append((int(fields[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", fields[2])))
    addrs = [a for a, _ in syms]

    def name(addr):
        for lo, hi, _, p in regions:
            if lo <= addr < hi and os.path.realpath(p) != real:
                return "[%s]" % os.path.basename(p)
        i = bisect.bisect_right(addrs, addr - base) - 1
        return syms[i][1] if i >= 0 else "[unknown]"

    named = [[name(a) for a in s] for s in stacks]
    if under:
        named = [s for s in named if any(under in f for f in s)]
    total = len(named)
    scope = ", %d under `%s`" % (total, under) if under else ""
    print("%d samples%s" % (len(stacks), scope))
    if not total:
        return
    self_n, incl_n = {}, {}
    for s in named:
        self_n[s[0]] = self_n.get(s[0], 0) + 1
        for f in set(s):
            incl_n[f] = incl_n.get(f, 0) + 1
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print("\n%7s  function" % title)
        for f, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]:
            print("%6.1f%%  %s" % (100.0 * n / total, f))


main()
