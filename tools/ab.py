"""Compare two wittbox trees: identical output first, then timings alternated
call by call.

    python3 tools/ab.py --a DIR [--b DIR] [--rounds N]

Each DIR holds a `wittbox` package and no `__pycache__` (default `--b`: this
tree's src); both are loaded into this process, as `wittbox_a` and
`wittbox_b`.  Every run of `tools/cli_corpus.py` must give the same exit code
and stdout through both trees' `cli.main`, or the run is named on stderr, with
exit 1.  Then each rung of the counts (LADDER), the interpolations (SHAPES), the
Witt jobs (WITT) and the set-up probes is timed in N pairs of calls (default
10), and summed up in one JSON report on stdout, with the lines of every module
of each tree.
A rung whose two medians are both under a millisecond (most per-module
`compile_ms` and `body_ms`) always reads `unresolved`, since its spread is
near the clock's noise floor; a claim rests on rungs of a millisecond or more.
"""

import argparse
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools")]
import cli_corpus  # noqa: E402

BUDGET = 1 << 80  # the rungs are counted past the default point budget
SETUP_REPS = 4  # parses of each workload's inputs per `setup_ms` call
COMMANDS = {"bound": ["bound", "{instance}"], "verify": ["verify", "{instance}"],  # example 4.1
            "witt-polys": ["witt-polys", "--p", "2", "--n", "2"]}


def _text(p, h, n, m, system, box=()):
    lines = ["[ring]", f"p = {p}", f"h = {h}", "[problem]", f"n = {n}", f"m = {m}", "[system]"]
    lines += [f"f{k} = {f}" for k, f in enumerate(system, 1)]
    return "\n".join(lines + (["[box]", *box] if box else [])) + "\n"


def _chain(n):
    f1 = " + ".join(f"{2 * j + 1}*x{j}*x{j + 1}" for j in range(1, n)) + " + 3*x1^3 + 5"
    f2 = " + ".join(f"{j}*x{j}^2" for j in range(1, n + 1)) + " + 7*x1*x3 + 1"
    box = [f"g[2][{j}] = x[0][{j}]*x[1][{j % n + 1}] + x[1][{j}]" for j in range(1, n + 1)]
    box += [f"g[3][{j}] = x[0][{(j - 2) % n + 1}]*x[0][{j}] + 1" for j in range(1, n + 1, 2)]
    return _text(2, 1, n, 2, [f"{f1} mod p^4", f"{f2} mod p^3"], box)


def _odd_chain(p, n, mk):
    f1 = " + ".join(f"{j % (p - 1) + 1}*x{j}*x{j + 1}" for j in range(1, n)) + " + 1"
    f2 = " + ".join(f"{j}*x{j}^2" for j in range(1, n + 1))
    return _text(p, 1, n, 2, [f"{f1} mod p^{mk}", f"{f2} mod p^1"])


def _wide(n):
    f1 = " + ".join(f"{2 * j - 1}*x{j}" for j in range(1, n + 1)) + " + 1"
    f2 = "x1*x2 + " + " + ".join(f"x{j}^2" for j in range(1, n + 1, 2))
    g21 = " + ".join([f"x[1][1]*x[0][{n}]"] + [f"x[0][{j}]*x[1][{j + 1}]" for j in range(1, n)] + ["1"])
    box = [f"g[2][1] = {g21}", "g[2][2] = x[0][2]*x[1][2] + x[0][1]*x[1][3]"]
    return _text(2, 1, n, 2, [f"{f1} mod p^3", f"{f2} mod p^3"], box)


# The teich-q9 benchmark box of seed 1 (6,561 points in 81 rows), then past it:
# q = 9 at m = 3, q = 25, q = 8 (h = 3, the one rung whose ring products take
# `polymul_mod`'s generic loop), q = 7 with three linked columns, a q = 2 chain
# whose generators read the neighbouring columns, q = 2 boxes whose g[2][1] reads
# every column (a table of 4^7 values held, and 4^9 computed in blocks), and a
# p = 5 chain of six columns, whose eliminations carry the largest messages.
LADDER = [
    ("teich-q9", _text(3, 2, 2, 2, ["16*x1^3 + 2*x1*x2 + 18*x2^2 mod p^3",
                                    "6*x1^2 + 4*x1*x2 + 2*x2 mod p^2"])),
    ("q9-m3", _text(3, 2, 2, 3, ["5*x1^3 + 19*x1*x2 + 26*x2^2 mod p^3",
                                 "2*x1^2 + 5*x1*x2 + 2*x2 mod p^2"])),
    ("q25-m2", _text(5, 2, 2, 2, ["x1^4 - x2^4 + 5*x1*x2 mod p^3", "2*x1^2 + 3*x2 mod p^1"])),
    ("q8-h3", _text(2, 3, 2, 2, ["5*x1^3 + 3*x1*x2 + 6*x2^2 mod p^3",
                                 "x1^2 + 3*x1*x2 + x2 mod p^2"])),
    ("q7-n3", _text(7, 1, 3, 2, ["x1^2*x2 + 3*x2*x3 + 5*x3^2 + 2 mod p^3",
                                 "x1*x3 + 4*x2^2 + x1^3 mod p^2"])),
    ("q2-chain", _chain(8)),
    ("q2-wide7", _wide(7)),
    ("q2-wide9", _wide(9)),
    ("p5-chain6", _odd_chain(5, 6, 3)),
]
# (q, n, m) of the tables: boxes over F_q with 2n sparse generators
SHAPES = [(2, 1, nm) for nm in range(10, 17)] + [
    (2, 2, 5), (3, 2, 3), (5, 2, 2), (31, 1, 2), (101, 1, 1), (1009, 1, 1)]
# (p, n, r, kind) of the Witt jobs of the symbolic workload: the sum it renders
# and ghost-checks, whose rows of 64-bit fields no count reads, and a product
WITT = [(3, 3, 3, "sum"), (2, 3, 3, "product")]

BODY_CHILD = r"""
import importlib.machinery, importlib.util, json, time
spent, stack = {}, []
def exec_module(self, module):
    stack.append(0)
    start = time.perf_counter_ns()
    code = self.get_code(module.__name__)
    body = time.perf_counter_ns()
    exec(code, module.__dict__)
    end, nested = time.perf_counter_ns(), stack.pop()
    if stack:
        stack[-1] += end - start
    spent[module.__name__] = (end - body - nested) / 1e6
importlib.machinery.SourceFileLoader.exec_module = exec_module
import wittbox, wittbox.cli
if importlib.util.find_spec("wittbox.kernel"): import wittbox.kernel  # a tree may have none
print(json.dumps({name.partition(".")[2] or "__init__": ms for name, ms in spent.items()
                  if name.split(".")[0] == "wittbox"}))
"""

SETUP_CHILD = r"""
import json, statistics, sys
sys.path[:0] = [{src!r}, {bench!r}]
import run, workloads
print(json.dumps({{name: 1e3 * statistics.median(
    run.setup(workloads.build(name, workloads.DEFAULT_SEED), {reps})[1]) for name in workloads.NAMES}}))
"""


class Mismatch(Exception):
    """The trees disagree on an output, or one of them fails."""


def load(alias, src):
    """The wittbox package of the directory `src`, imported as `alias`."""
    pkg = Path(src) / "wittbox"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    sys.modules[alias] = tree = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tree)
    importlib.import_module(f"{alias}.cli")
    return tree


def lines(tree):
    """Physical lines of each module of the tree, and their total."""
    counts = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
              for path in sorted(Path(tree.__file__).parent.glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def same_output(trees, runs):
    """The number of corpus `runs`, (argv shown, argv run), after each has given
    the same exit code and stdout on both trees."""
    runs = list(runs)
    for shown, argv in runs:
        if cli_corpus.run(trees["a"].cli.main, argv) != cli_corpus.run(trees["b"].cli.main, argv):
            raise Mismatch(f"run `{' '.join(shown)}`: exit code or stdout differ")
    return len(runs)


def summary(a, b):
    """Both medians, b/a, the pairs b won (ties count for neither), a's
    interquartile range and the verdict of the times a[k] and b[k] of pairs k:
    `better` if b won at least 9 in 10 pairs and the medians differ by more
    than a's range, `worse` in the mirror case, else `unresolved`; always
    `unresolved` when both medians are under 1 ms, near the clock's noise."""
    ma, mb = statistics.median(a), statistics.median(b)
    won, lost = sum(y < x for x, y in zip(a, b)), sum(y > x for x, y in zip(a, b))
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (ma, ma, ma)
    verdict = ("unresolved" if max(ma, mb) < 1 else
               "better" if won >= 0.9 * len(a) and ma - mb > q3 - q1 else
               "worse" if lost >= 0.9 * len(a) and mb - ma > q3 - q1 else "unresolved")
    return {"a": round(ma, 3), "b": round(mb, 3), "b/a": round(mb / ma, 3) if ma else None,
            "b_won": won, "a_iqr": round(q3 - q1, 3), "verdict": verdict}


def pairs(name, rounds, measure):
    """{rung: summary} of measure(side) -> ({rung: ms}, result): one untimed
    call per tree, then `rounds` pairs, a first in even pairs and b in odd
    ones; every result must equal tree a's first."""
    def call(side):
        ms, result = measure(side)
        if result != expected:
            raise Mismatch(f"{name}: tree {side} gives {result!r}, tree a {expected!r}")
        return ms

    expected = measure("a")[1]
    call("b")
    times = {"a": [], "b": []}
    for k in range(rounds):
        for side in "ab" if k % 2 == 0 else "ba":
            times[side].append(call(side))
    return {rung: summary(*([t.get(rung, 0.0) for t in times[side]] for side in "ab"))
            for rung in dict.fromkeys(key for t in times["a"] + times["b"] for key in t)}


def _ms(start):
    return (time.perf_counter() - start) * 1e3


def count_rungs(trees, ladder):
    """(name, measure) of each instance of `ladder`."""
    for name, text in ladder:
        insts = {side: tree.instancefile.parse_instance(text) for side, tree in trees.items()}

        def measure(side, name=name, insts=insts):
            start = time.perf_counter()
            cardinality = trees[side].counting.count_zeros(insts[side], budget=BUDGET).cardinality
            return {name: _ms(start)}, cardinality
        yield name, measure


def sparse_box(tree, q, n, m, rng):
    """A box over F_q whose generators at levels m and m + 1 are three random
    monomials each, so every generator is sparse, as in the fixtures."""
    field, names, gens = tree.fqfield.field_params(q), tree.box.box_variable_names(n, m), {}
    for ij in [(i, j) for i in (m, m + 1) for j in range(1, n + 1)]:
        terms = {}
        for _ in range(3):
            exps = [0] * len(names)
            for v in rng.sample(range(len(names)), min(3, len(names))):
                exps[v] = rng.randrange(1, q)
            terms[tuple(exps)] = tree.fqfield.fq(field, rng.randrange(1, q))
        gens[ij] = tree.poly.MultiPoly(tree.poly.FieldDomain(field), names, terms)
    return tree.box.box_make(field, n, m, gens)


def interp_rungs(trees, shapes):
    """(name, measure) of each table shape (q, n, m) of `shapes`, at precision m + 2."""
    for q, n, m in shapes:
        name, boxes = f"q{q}-n{n}-m{m}", {}
        for side, tree in trees.items():
            spec = sparse_box(tree, q, n, m, random.Random(f"ladder:{q}:{n}:{m}"))
            boxes[side] = spec, [(pt.base, pt.digits) for pt in tree.box.box_enumerate(spec, m + 2)]

        def measure(side, name=name, n=n, m=m, boxes=boxes):
            spec, table = boxes[side]
            start = time.perf_counter()
            got = trees[side].box.box_from_table(spec.field, n, m, m + 2, table)
            ms = _ms(start)
            if got.generators != spec.generators:
                raise Mismatch(f"{name}: tree {side} does not recover the generators")
            return {name: ms}, sorted((ij, g.render()) for ij, g in got.generators.items())
        yield name, measure


def witt_rungs(trees, jobs):
    """(name, measure) of each Witt job (p, n, r, kind) of `jobs`: the coordinates
    from a cleared cache, rendered, then their ghost check."""
    for args in jobs:
        name = "{3}-{0}{1}{2}".format(*args)

        def measure(side, name=name, args=args):
            witt = trees[side].witt
            witt.witt_op_polys.cache_clear()
            start = time.perf_counter()
            out = [f.render() for f in witt.witt_op_polys(*args)] + [witt.ghost_check(*args)]
            return {name: _ms(start)}, out
        yield name, measure


def child(src, argv):
    """(ms, exit code, stdout) of a fresh interpreter on the tree in `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=300)
    ms = _ms(start)
    if proc.returncode not in (0, 1) or proc.stderr:
        raise Mismatch(f"{src}: {argv[:2]} failed:\n{proc.stderr}")
    return ms, proc.returncode, proc.stdout


def setup_rungs(trees, instance):
    """{kind: [(kind, measure)]} of the set-up probes: `compile()` of each module,
    and in fresh processes, which compile every module from source, the module
    bodies that `import wittbox, wittbox.cli` and the kernel run, set-up as
    `bench/run.py` measures it per workload, and the CLI calls of COMMANDS on
    `instance`, a file of example 4.1, whose output must agree."""
    srcs = {side: Path(tree.__file__).parents[1] for side, tree in trees.items()}

    def compile_ms(side):
        times = {}
        for path in sorted((srcs[side] / "wittbox").glob("*.py")):
            text, start = path.read_text(encoding="utf-8"), time.perf_counter()
            compile(text, str(path), "exec")
            times[path.stem] = _ms(start)
        return {**times, "total": sum(times.values())}, None

    def body_ms(side):
        times = json.loads(child(srcs[side], ["-c", BODY_CHILD])[2])
        return {**times, "total": sum(times.values())}, None

    def setup_ms(side):
        return json.loads(child(srcs[side], ["-c", SETUP_CHILD.format(
            src=str(srcs[side]), bench=str(ROOT / "bench"), reps=SETUP_REPS)])[2]), None

    def cli_ms(side):
        runs = {name: child(srcs[side], ["-m", "wittbox.cli"] + [
            arg.format(instance=instance) for arg in argv]) for name, argv in COMMANDS.items()}
        return ({name: ms for name, (ms, *_) in runs.items()},
                {name: out for name, (_, *out) in runs.items()})
    return {kind.__name__: [(kind.__name__, kind)] for kind in (compile_ms, body_ms, setup_ms, cli_ms)}


def compare(trees, rounds, runs, sections):
    """The report on trees {"a": tree, "b": tree}: the corpus `runs` must give
    the same output on both, then each rung of each section of `sections`,
    {section: [(name, measure)]}, is timed in `rounds` pairs."""
    report = {"rounds": rounds, "corpus_runs_identical": same_output(trees, runs),
              "lines": {side: lines(tree) for side, tree in trees.items()}}
    for section, rungs in sections.items():
        report[section] = {}
        for name, measure in rungs:
            report[section].update(pairs(name, rounds, measure))
            print(f"{section} {name}: done", file=sys.stderr, flush=True)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="src directory of the first tree")
    parser.add_argument("--b", default=str(ROOT / "src"), help="src directory of the second tree")
    parser.add_argument("--rounds", type=int, default=10, help="timed pairs per rung")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    srcs = {"a": Path(args.a).resolve(), "b": Path(args.b).resolve()}
    for src in srcs.values():
        if any((src / "wittbox").rglob("__pycache__")):
            parser.error(f"{src}/wittbox holds __pycache__: remove it, or modules load from bytecode")
    sys.dont_write_bytecode = True
    trees = {side: load(f"wittbox_{side}", src) for side, src in srcs.items()}
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "example41.ini"
        instance.write_text(cli_corpus.PAPER_EXAMPLES[0][1], encoding="utf-8")
        sections = {"count_ms": count_rungs(trees, LADDER), "interp_ms": interp_rungs(trees, SHAPES),
                    "witt_ms": witt_rungs(trees, WITT), **setup_rungs(trees, instance)}
        try:
            report = compare(trees, args.rounds, cli_corpus.runs(Path(tmp)), sections)
        except Mismatch as exc:
            print(exc, file=sys.stderr)
            return 1
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
