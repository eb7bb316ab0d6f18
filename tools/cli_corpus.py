"""Print the exit code and stdout SHA-256 of a fixed corpus of CLI runs.

Run from the root of a checkout; wittbox is imported from its `src/` and the
benchmark's instance generator from `bench/workloads.py`, which is only read.
Importing the module imports no wittbox, so `tools/ab.py` runs the corpus on
two trees:

    python3 tools/cli_corpus.py > corpus.txt

Each line is `<argv> exit=<code> sha256=<digest of stdout>`, with instance
files named by a label instead of their path.  The corpus is deterministic,
so a `diff` of its output at two commits shows every run whose stdout or exit
code changed.  It covers:

- `count` (plain, `--partitions 3`, `--budget 10`), `bound` under both
  readings, and `verify` on the bundled fixtures, on the benchmark inputs of
  seeds 1-20 at tiny and full size, and on 40 seeded instances whose core the
  counting kernel enumerates in several rows, and on the `SPARSE` instances,
  whose expressions use a few of many declared variables in slots wider
  than a byte;
- `paper-examples` and `selftest`;
- `witt-polys` for p in {2, 3, 5}, n <= 3 and r in {2, 3}, both kinds, except
  p = 5 with n = 3; and for the larger cases in `WITT_CASES`: sums whose
  coefficients need fields of more than one word, sums of many arguments, and
  three-fold products.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import runpy
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench")]

import workloads  # noqa: E402
PAPER_EXAMPLES = runpy.run_path(str(ROOT / "src" / "wittbox" / "fixtures.py"))["PAPER_EXAMPLES"]

INSTANCE_ARGS = (("count",), ("count", "--partitions", "3"), ("count", "--budget", "10"),
                 ("bound", "--reading", "any"), ("bound", "--reading", "all"), ("verify",))
# (p, h, n, m) of the multi-row instances: boxes of 2^12 to 5^6 points, which
# the counting kernel enumerates in rows of at most 2^10
ROWS = ((2, 1, 3, 4), (2, 2, 2, 3), (3, 1, 2, 4), (3, 2, 2, 2), (5, 1, 2, 3))
# (p, n, r, kind) of the larger witt-polys runs
WITT_CASES = ((5, 3, 2, "sum"), (7, 2, 3, "sum"), (13, 2, 2, "sum"), (3, 2, 8, "sum"),
              (2, 3, 8, "sum"), (3, 1, 40, "sum"), (2, 3, 3, "product"), (3, 3, 3, "product"))

# (label, [ring] and [problem] lines, [system] and [box] lines) of the sparse instances
SPARSE = (
    ("sparse/system", "p = 2\n[problem]\nn = 40\nm = 1\n",
     "f1 = x3^200*x17 + x40^130 + 1 mod p^2\nf2 = (x3^200 + x17)*(x3^100 + x40^300) - x5 mod p^3\n"),
    ("sparse/f256", "p = 2\nh = 8\nmodulus = t^8+t^4+t^3+t+1\n[problem]\nn = 8\nm = 2\n",
     "f1 = x2^3 + x7 mod p^3\n[box]\ng[2][2] = t*x[0][2]^200 + x[1][7]\n"
     "g[3][1] = (x[0][2]^200 + x[1][1])*(x[0][2]^100 + t) - x[0][2]^300 - x[0][2]^100*x[1][1]\n"),
    ("sparse/f3", "p = 3\n[problem]\nn = 20\nm = 1\n",
     "f1 = x3^2 + x17 mod p^2\n[box]\ng[1][5] = x[0][3] + x[0][3]^2 + x[0][17]^2*x[0][3]\n"
     "g[2][20] = (x[0][3]^150 + x[0][9])*(x[0][3]^150 - x[0][9]) - x[0][3]^300 + x[0][20]^2\n"),
    ("sparse/widening", "p = 3\n[problem]\nn = 40\nm = 1\n",
     "f1 = (x3 + x17^70000)*(x3^300 + x40) + x40^4294967296 mod p^2\nf2 = (x5 + 2*x9 + 1)^30 mod p^3\n"),
)


def rows_text(rng, p, h, n, m):
    """Two polynomials whose cross terms link every pair and triple of
    columns, with constant and negative coefficients, mod p^(m+1) and mod p."""
    terms = [{(0,) * n: rng.randint(-9, 9)}, {(0,) * n: rng.randint(-9, 9)}]
    for cols in [(j,) for j in range(n) for _ in range(2)] + [
            cols for k in (2, 3) for cols in combinations(range(n), k)]:
        exps = [0] * n
        for j in cols:
            exps[j] = rng.randint(1, 3 if len(cols) == 1 else 2)
        terms[rng.randrange(2)][tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 40)
    system = "".join(
        f"f{k} = " + " + ".join(
            f"({c})" + "".join(f"*x{j + 1}^{e}" for j, e in enumerate(exps) if e)
            for exps, c in poly.items()) + f" mod p^{mk}\n"
        for k, (poly, mk) in enumerate(zip(terms, (m + 1, 1)), 1))
    return f"[ring]\np = {p}\nh = {h}\n[problem]\nn = {n}\nm = {m}\n[system]\n{system}"


def instances():
    """(label, instance text) of every instance in the corpus, in a fixed order."""
    for name, text, *_ in PAPER_EXAMPLES:
        yield f"fixture/{name}", text
    for seed in range(1, 21):
        for size in ("tiny", "full"):
            for workload in workloads.NAMES:
                for key, text in workloads.build(workload, seed, size).texts.items():
                    yield f"bench/{workload}/{seed}/{size}/{key}", text
    for p, h, n, m in ROWS:
        for seed in range(8):
            yield f"rows/{p}-{h}/{seed}", rows_text(random.Random(f"rows-{p}-{h}-{seed}"), p, h, n, m)
    for label, head, body in SPARSE:
        yield label, f"[ring]\n{head}[system]\n{body}"


def runs(workdir):
    """(argv as printed, argv as run) of every run in the corpus, in a fixed order."""
    for label, text in instances():
        path = workdir / f"{label.replace('/', '_')}.ini"
        path.write_text(text, encoding="utf-8")
        for command, *options in INSTANCE_ARGS:
            yield [command, label, *options], [command, str(path), *options]
    yield ["paper-examples"], ["paper-examples"]
    yield ["selftest"], ["selftest"]
    small = [(p, n, r, kind) for p in (2, 3, 5) for n in range(4 if p < 5 else 3)
             for r in (2, 3) for kind in ("sum", "product")]
    for p, n, r, kind in small + list(WITT_CASES):
        argv = ["witt-polys", "--p", str(p), "--n", str(n), "--r", str(r), "--kind", kind]
        yield argv, argv


def run(main, argv):
    """(exit code, stdout) of one in-process call of a tree's `cli.main`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from wittbox import cli
    with tempfile.TemporaryDirectory() as tmp:
        for shown, argv in runs(Path(tmp)):
            code, out = run(cli.main, argv)
            digest = hashlib.sha256(out.encode()).hexdigest()
            print(f"{' '.join(shown)} exit={code} sha256={digest}", flush=True)


if __name__ == "__main__":
    main()
