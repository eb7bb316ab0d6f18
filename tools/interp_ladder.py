"""Median wall time of `box_from_table` over a fixed ladder of table shapes.

Each shape (q, n, m) is a box over the prime field F_q with 2n generators at
levels m and m + 1, each three seeded random monomials, so every generator is
sparse, as in the boxes the fixtures describe.  The table is built once per
shape with `box_enumerate`; only `box_from_table` is timed, and the recovered
generators are checked against the box's.  Stdlib only; it imports wittbox
from `--src` and writes nothing.

    python3 tools/interp_ladder.py [--src DIR]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import sys
import time

LADDER = [(2, 1, nm) for nm in range(10, 17)] + [
    (2, 2, 5), (3, 2, 3), (5, 2, 2), (31, 1, 2), (101, 1, 1), (1009, 1, 1)]
REPEATS = 5  # timed calls per shape


def sparse_box(wb, q, n, m, rng):
    """A box over F_q whose generators are three random monomials each."""
    field = wb.fqfield.field_params(q)
    dom = wb.poly.FieldDomain(field)
    names = wb.box.box_variable_names(n, m)
    gens = {}
    for i in range(m, m + 2):
        for j in range(1, n + 1):
            terms = {}
            for _ in range(3):
                exps = [0] * len(names)
                for v in rng.sample(range(len(names)), min(3, len(names))):
                    exps[v] = rng.randrange(1, q)
                terms[tuple(exps)] = wb.fqfield.fq(field, rng.randrange(1, q))
            gens[(i, j)] = wb.poly.MultiPoly(dom, names, terms)
    return wb.box.box_make(field, n, m, gens)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the wittbox package (default: this tree's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import wittbox.box
    import wittbox.fqfield
    import wittbox.poly
    wb = wittbox
    print("q n m precision rows median_ms")
    for q, n, m in LADDER:
        spec = sparse_box(wb, q, n, m, random.Random(f"ladder:{q}:{n}:{m}"))
        precision = m + 2
        table = [(pt.base, pt.digits) for pt in wb.box.box_enumerate(spec, precision)]
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            got = wb.box.box_from_table(spec.field, n, m, precision, table)
            times.append(time.perf_counter() - start)
            if got.generators != spec.generators:
                raise SystemExit(f"q={q} n={n} m={m}: generators not recovered")
        print(q, n, m, precision, len(table), f"{1000 * statistics.median(times):.2f}", flush=True)


if __name__ == "__main__":
    main()
