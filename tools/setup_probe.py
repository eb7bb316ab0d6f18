"""Set-up cost of two wittbox trees, side by side: what a process pays before
its first result.

    python3 tools/setup_probe.py --a DIR [--b DIR] [--rounds N]

Each DIR holds a `wittbox` package (default `--b`: this tree's src) and no
`__pycache__`, and every child runs with PYTHONDONTWRITEBYTECODE=1, so each
module compiles from source, as in a fresh checkout.  Each round measures
both trees, `--a` first in odd rounds; the medians over rounds are printed
as one JSON object:

- `compile_ms`: `compile()` of each module file, in this process;
- `body_ms`: the body of each module that `import wittbox, wittbox.cli` runs,
  and of the kernel module where the tree has one, without its compile or
  the modules it imports, timed by a hook on the source loader in a child;
- `setup_ms`: set-up as `bench/run.py` measures it (its `setup`: a fresh import
  of wittbox and wittbox.cli, then a parse of every input of the workload),
  SETUP_REPS times per workload in a child;
- `cli_ms`: wall time of a fresh `python -m wittbox.cli` process per command;
  stdout and exit codes must be equal on both trees, or the probe stops.

Stdlib only; it writes nothing but a temporary instance file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import runpy
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SETUP_REPS = 4
COMMANDS = {  # name: CLI arguments; {instance} is example 4.1
    "bound": ["bound", "{instance}"],
    "verify": ["verify", "{instance}"],
    "witt-polys": ["witt-polys", "--p", "2", "--n", "2"],
}

BODY_CHILD = r"""
import importlib.machinery, json, time
loader = importlib.machinery.SourceFileLoader
run, to_code = loader.exec_module, loader.source_to_code
compiled, spent, stack = {}, {}, []

def source_to_code(self, data, path, *, _optimize=-1):
    start = time.perf_counter_ns()
    code = to_code(self, data, path, _optimize=_optimize)
    compiled[self.name] = time.perf_counter_ns() - start
    return code

def exec_module(self, module):
    stack.append(0)
    start = time.perf_counter_ns()
    try:
        run(self, module)
    finally:
        total, nested = time.perf_counter_ns() - start, stack.pop()
        if stack:
            stack[-1] += total
        spent[module.__name__] = total - nested

loader.source_to_code, loader.exec_module = source_to_code, exec_module
import wittbox, wittbox.cli
try:
    import wittbox.kernel
except ImportError:
    pass
print(json.dumps({name: (ns - compiled.get(name, 0)) / 1e6
                  for name, ns in spent.items() if name.startswith("wittbox")}))
"""

SETUP_CHILD = r"""
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import run, workloads
print(json.dumps({{name: run.setup(workloads.build(name, workloads.DEFAULT_SEED), {reps})[1]
                  for name in workloads.NAMES}}))
"""


def child(src, argv):
    """(seconds, exit code, stdout) of a fresh interpreter on tree `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    seconds = time.perf_counter() - start
    if proc.returncode not in (0, 1) or proc.stderr:
        raise SystemExit(f"{src}: {argv[:2]} failed:\n{proc.stderr}")
    return seconds, proc.returncode, proc.stdout


def compile_ms(src):
    times = {}
    for path in sorted((src / "wittbox").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        start = time.perf_counter_ns()
        compile(text, str(path), "exec")
        times[path.stem] = (time.perf_counter_ns() - start) / 1e6
    return times


def round_of(src, instance):
    """One measurement of each kind on one tree."""
    out = {"compile_ms": compile_ms(src),
           "body_ms": json.loads(child(src, ["-c", BODY_CHILD])[2])}
    setup = json.loads(child(src, ["-c", SETUP_CHILD.format(
        src=str(src), bench=str(ROOT / "bench"), reps=SETUP_REPS)])[2])
    out["setup_ms"] = {name: statistics.median(times) * 1e3 for name, times in setup.items()}
    out["cli_ms"], out["cli_out"] = {}, {}
    for name, argv in COMMANDS.items():
        seconds, code, stdout = child(src, ["-m", "wittbox.cli"] + [
            a.format(instance=instance) for a in argv])
        out["cli_ms"][name], out["cli_out"][name] = seconds * 1e3, (code, stdout)
    return out


def medians(rounds, kind):
    keys = sorted(set().union(*(r[kind] for r in rounds)))
    return {key: round(statistics.median([r[kind].get(key, 0.0) for r in rounds]), 3)
            for key in keys}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, help="src directory of the first tree")
    parser.add_argument("--b", default=str(ROOT / "src"), help="src directory of the second tree")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"a": pathlib.Path(args.a).resolve(), "b": pathlib.Path(args.b).resolve()}
    for src in trees.values():
        if any((src / "wittbox").rglob("__pycache__")):
            raise SystemExit(f"{src}/wittbox holds __pycache__: remove it, or the modules "
                             "load from bytecode")
    fixtures = runpy.run_path(str(trees["a"] / "wittbox" / "fixtures.py"))
    rounds = {side: [] for side in trees}
    with tempfile.TemporaryDirectory() as tmp:
        instance = pathlib.Path(tmp) / "example41.ini"
        instance.write_text(fixtures["EXAMPLE_41"])
        for k in range(args.rounds):
            outs = {}
            for side in (("a", "b") if k % 2 == 0 else ("b", "a")):
                outs[side] = round_of(trees[side], instance)
                rounds[side].append(outs[side])
            if outs["a"]["cli_out"] != outs["b"]["cli_out"]:
                raise SystemExit(f"round {k + 1}: stdout or exit codes differ between the trees")
            print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    result = {"rounds": args.rounds, "outputs_equal": True}
    for side, src in trees.items():
        result[side] = {"src": str(src)}
        for kind in ("compile_ms", "body_ms", "setup_ms", "cli_ms"):
            result[side][kind] = medians(rounds[side], kind)
        result[side]["compile_ms_total"] = round(sum(result[side]["compile_ms"].values()), 3)
        result[side]["body_ms_total"] = round(sum(result[side]["body_ms"].values()), 3)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
