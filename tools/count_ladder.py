"""Counts and points per second of `count_zeros` over a fixed ladder of instances.

Every instance is past the 6,561 points of the teich-q9 benchmark box: a q = 9
Teichmuller box at m = 3, a q = 25 box, a q = 7 box with three linked columns,
a q = 2 chain whose generators read the neighbouring columns, and two q = 2
boxes whose generator g[2][1] reads every column: at n = 7 its table of 4^7
values is held, at n = 9 its 4^9 values are computed in blocks.  Each is
counted REPEATS times; the count and the points per second of the median call
are printed, so two trees can be compared line by line; the first call also
compiles the counting kernel (`wittbox.kernel`), which the median leaves out.
Stdlib only; it imports wittbox from `--src` and writes nothing.

    python3 tools/count_ladder.py [--src DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

REPEATS = 3  # timed calls per instance


def _text(p, h, n, m, system, box=()):
    lines = ["[ring]", f"p = {p}", f"h = {h}", "[problem]", f"n = {n}", f"m = {m}", "[system]"]
    lines += [f"f{k} = {f}" for k, f in enumerate(system, 1)]
    return "\n".join(lines + (["[box]", *box] if box else [])) + "\n"


def _chain(n):
    """q = 2, m = 2: x_j * x_{j+1} terms mod p^4 and p^3; g[2][j] and g[3][j]
    read the digits of column j and of its neighbours."""
    f1 = " + ".join(f"{2 * j + 1}*x{j}*x{j + 1}" for j in range(1, n)) + " + 3*x1^3 + 5"
    f2 = " + ".join(f"{j}*x{j}^2" for j in range(1, n + 1)) + " + 7*x1*x3 + 1"
    box = [f"g[2][{j}] = x[0][{j}]*x[1][{j % n + 1}] + x[1][{j}]" for j in range(1, n + 1)]
    box += [f"g[3][{j}] = x[0][{(j - 2) % n + 1}]*x[0][{j}] + 1" for j in range(1, n + 1, 2)]
    return _text(2, 1, n, 2, [f"{f1} mod p^4", f"{f2} mod p^3"], box)


def _wide(n):
    """q = 2, m = 2: g[2][1] reads a digit of every column, so column 1's value
    is a table over the whole box; g[2][2] is a second generator."""
    f1 = " + ".join(f"{2 * j - 1}*x{j}" for j in range(1, n + 1)) + " + 1"
    f2 = "x1*x2 + " + " + ".join(f"x{j}^2" for j in range(1, n + 1, 2))
    g21 = " + ".join([f"x[1][1]*x[0][{n}]"] + [
        f"x[0][{j}]*x[1][{j + 1}]" for j in range(1, n)] + ["1"])
    box = [f"g[2][1] = {g21}", "g[2][2] = x[0][2]*x[1][2] + x[0][1]*x[1][3]"]
    return _text(2, 1, n, 2, [f"{f1} mod p^3", f"{f2} mod p^3"], box)


LADDER = [
    ("q9-m3", _text(3, 2, 2, 3, ["5*x1^3 + 19*x1*x2 + 26*x2^2 mod p^3",
                                 "2*x1^2 + 5*x1*x2 + 2*x2 mod p^2"])),
    ("q25-m2", _text(5, 2, 2, 2, ["x1^4 - x2^4 + 5*x1*x2 mod p^3", "2*x1^2 + 3*x2 mod p^1"])),
    ("q7-n3", _text(7, 1, 3, 2, ["x1^2*x2 + 3*x2*x3 + 5*x3^2 + 2 mod p^3",
                                 "x1*x3 + 4*x2^2 + x1^3 mod p^2"])),
    ("q2-chain", _chain(8)),
    ("q2-wide7", _wide(7)),
    ("q2-wide9", _wide(9)),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the wittbox package (default: this tree's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from wittbox.counting import count_zeros
    from wittbox.instancefile import parse_instance

    print("instance points cardinality points_per_s")
    for name, text in LADDER:
        inst = parse_instance(text)
        points = inst.box.base_size()
        times, counts = [], set()
        for _ in range(REPEATS):
            start = time.perf_counter()
            counts.add(count_zeros(inst).cardinality)
            times.append(time.perf_counter() - start)
        if len(counts) != 1:
            raise SystemExit(f"{name}: counts differ between calls: {sorted(counts)}")
        print(name, points, counts.pop(), f"{points / statistics.median(times):.0f}", flush=True)


if __name__ == "__main__":
    main()
