"""wittbox benchmark: one client, closed loop, one process and one thread.

    python3 bench/run.py --workload boxes-q2 --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; wittbox is imported from its `src/`.  A
round is the workload's fixed job list; rounds repeat, each starting when the
previous one has finished, within `--seconds`.  The last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

Untraced runs report times at a nominal host speed (see `hostspeed`): on a
2-vCPU shared VM the same round runs up to ~1.8x slower in phases of under a
second to minutes.  Over ten seeds, in two sets, the median raw round time
of the same code spread 0.12-0.22 (IQR/median) per workload where the
scaled `wall_s` spread 0.03-0.05.  Each job is scaled by the speed measured
while it ran; `wall_s` and `points_per_s` are medians over the rounds,
`setup_s` the median of 16 set-ups.  Per-layer totals of traced runs are
raw, per round.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 8  # at each end of an untraced run, so the median spans it

# Layers are wittbox's modules; loc.* also covers the modules no job traces.
LAYERS = ("instancefile", "box", "counting", "galois", "fqfield", "poly", "witt", "bounds", "cli")
MODULES = LAYERS + ("checks", "errors", "fixtures", "__init__")


def fresh_import():
    """Import wittbox (and its CLI) from scratch, as a new process would."""
    for key in [k for k in sys.modules if k == "wittbox" or k.startswith("wittbox.")]:
        del sys.modules[key]
    wb = importlib.import_module("wittbox")
    importlib.import_module("wittbox.cli")
    return wb


def setup(wl, reps, probe=None):
    """Import wittbox and parse every input `reps` times: (last import, seconds each).

    With a running `probe`, each time is scaled to the nominal host speed
    measured over all `reps`.
    """
    spans_ns = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        wb = fresh_import()
        for text in wl.inputs(wb).values():
            wb.instancefile.parse_instance(text)
        spans_ns.append((t0, time.perf_counter_ns()))
    if probe is None:
        return wb, [(b - a) / 1e9 for a, b in spans_ns]
    speed = probe.speed(spans_ns[0][0], spans_ns[-1][1])
    return wb, [(b - a - probe.own_ns(a, b)) * speed / 1e9 for a, b in spans_ns]


def run_round(wb, wl, tracer, outcome):
    """Run the job list once; job results go into `outcome`.

    `outcome["peak_rss_kb"]` keeps ru_maxrss after the first round, so the
    peak does not depend on how many rounds fit in the run.

    Returns the round's marks in perf_counter_ns: its start, then the end of
    each job.
    """
    results = []
    marks = [time.perf_counter_ns()]
    for job in wl.jobs:
        workloads.clear_caches(wb)
        with tracer.job_span("bench." + job.name):
            try:
                results.append((job, job.call(wb)))
            except Exception:  # a job that raises counts as failed; keep measuring
                traceback.print_exc(file=sys.stderr)
                results.append((job, None))
        marks.append(time.perf_counter_ns())
    outcome.setdefault("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    for job, obs in results:
        outcome["attempted"] += 1
        if obs is None or not job.passes(obs):
            outcome["failed"] += 1
            print(f"failed: {wl.name} {job.name}", file=sys.stderr)
    return marks


def run_rounds(wb, wl, modes, budget_s, outcome):
    """Closed loop over rounds, cycling through `modes`, (tracer, targets) pairs.

    Every mode runs at least once; another round starts only while it should
    end within `budget_s`.  Returns each mode's rounds as `run_round` marks.
    """
    rounds = [[] for _ in modes]
    started = time.perf_counter()
    k = 0
    while True:
        tracer, targets = modes[k % len(modes)]
        tracer.install(targets)
        try:
            rounds[k % len(modes)].append(run_round(wb, wl, tracer, outcome))
        finally:
            tracer.uninstall()
        k += 1
        upcoming = statistics.median(_walls(rounds[k % len(modes)] or rounds[k % len(modes) - 1]))
        if k >= len(modes) and time.perf_counter() - started + upcoming > budget_s:
            return rounds


def _walls(rounds):
    return [(marks[-1] - marks[0]) / 1e9 for marks in rounds]


def scaled_walls(rounds, probe):
    """Each round's wall time at the nominal host speed, probes taken out.

    Each job is scaled by the host speed measured while it ran, so a round
    that spans a change of speed is read right.
    """
    return [sum(probe.scaled_s(a, b) for a, b in zip(marks, marks[1:])) for marks in rounds]


def points_per_s(tracer, jobs_per_round, rounds, probe):
    """Box points decided per second of deciding them, median over rounds.

    Points are the base points of count_zeros plus the table rows of
    box_from_table; the time is spent inside those two calls, at the nominal
    host speed, probes taken out.
    """
    names = ("counting.count_zeros", "box.box_from_table")
    points = (tracer.counters.get("points", 0) + tracer.counters.get("rows", 0)) / rounds
    busy = [0.0] * rounds
    for a, b, job in tracer.spans_of(names):
        busy[job // jobs_per_round] += probe.scaled_s(a, b)
    return statistics.median(points / s for s in busy)


def _per_op_us(op, operands, n_ops, reps=3):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in range(n_ops):
            op(operands[i % len(operands)])
        times.append(time.perf_counter() - t0)
    return min(times) / n_ops * 1e6, n_ops * reps


def kernel_metrics(wb, ring, seed, scale):
    """Microseconds per operation on the workload's own ring, untraced."""
    p, h, M = ring
    rng = random.Random(seed)
    field = wb.fqfield.field_params(p, h)
    params = wb.galois.GRParams(field, M)
    fq = wb.fqfield.fq_enumerate(field)
    digits = [tuple(rng.choice(fq) for _ in range(M)) for _ in range(32)]
    grs = [wb.galois.from_digits(d, params) for d in digits]
    pairs = [(rng.choice(grs), rng.choice(grs)) for _ in range(32)]
    fq_pairs = [(rng.choice(fq), rng.choice(fq)) for _ in range(32)]
    names = ("y1", "y2", "y3", "y4")
    dom = wb.poly.FieldDomain(field)

    def random_poly():
        terms = {tuple(rng.randint(0, 2) for _ in names): rng.choice(fq) for _ in range(8)}
        return wb.poly.MultiPoly(dom, names, terms)

    poly_pairs = [(random_poly(), random_poly()) for _ in range(8)]
    q = field.q
    g = wb.galois
    ops = {
        "galois.mul": (lambda ab: ab[0] * ab[1], pairs, 4000),
        "galois.lift": (lambda d: g.teichmuller_lift(d[0], params), digits, 1000),
        "galois.to_digits": (g.to_digits, grs, 400),
        "galois.from_digits": (lambda d: g.from_digits(d, params), digits, 300),
        "fqfield.mul": (lambda ab: ab[0] * ab[1], fq_pairs, 4000),
        "fqfield.pow": (lambda ab: ab[0] ** q, fq_pairs, 1000),
        "poly.mul": (lambda ab: ab[0] * ab[1], poly_pairs, 200),
    }
    metrics = {}
    for name, (op, operands, n_ops) in ops.items():
        us, count = _per_op_us(op, operands, max(1, int(n_ops * scale)))
        metrics[name + "_us"] = (us, "us")
        metrics[name + "_ops"] = (count, "count")
    return metrics


def loc_metrics():
    """Physical lines per module of src/wittbox, and their total."""
    pkg = SRC / "wittbox"
    metrics = {}
    for mod in MODULES:
        path = pkg / f"{mod}.py"
        metrics["loc." + mod.strip("_")] = (
            len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0, "lines")
    metrics["loc.total"] = (sum(len(f.read_text(encoding="utf-8").splitlines())
                                for f in pkg.rglob("*.py")), "lines")
    return metrics


def layer_metrics(tracer, rounds):
    """Per-round span totals of the traced rounds, by layer and function."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0, 0))[0] / rounds

    def incl(name):
        return totals.get(name, (0, 0, 0))[1] / 1e9 / rounds

    def self_s(name):
        return totals.get(name, (0, 0, 0))[2] / 1e9 / rounds

    points = tracer.counters.get("points", 0) / rounds
    m = {
        "galois.from_digits_s": (incl("galois.from_digits"), "s"),
        "galois.from_digits_calls": (calls("galois.from_digits"), "count"),
        "galois.lift_s": (incl("galois.teichmuller_lift"), "s"),
        "galois.lift_calls": (calls("galois.teichmuller_lift"), "count"),
        "galois.reduce_s": (incl("galois.reduce_precision"), "s"),
        "box.expand_s": (self_s("box.expand_point"), "s"),
        "box.decode_s": (incl("box.decode_base"), "s"),
        "box.points": (calls("box.expand_point"), "count"),
        "box.closeness_s": (incl("box.closeness_check"), "s"),
        "box.interp_s": (incl("box.box_from_table"), "s"),
        "box.interp_rows": (tracer.counters.get("rows", 0) / rounds, "count"),
        "poly.evaluate_s": (incl("poly.evaluate"), "s"),
        "poly.evaluate_calls": (calls("poly.evaluate"), "count"),
        "poly.mul_s": (incl("poly.__mul__"), "s"),
        "poly.mul_calls": (calls("poly.__mul__"), "count"),
        "poly.render_s": (incl("poly.render"), "s"),
        "counting.count_s": (incl("counting.count_zeros"), "s"),
        "counting.points_ratio": (calls("box.expand_point") / points if points else 0.0, "ratio"),
        "witt.op_polys_s": (incl("witt.witt_op_polys"), "s"),
        "witt.ghost_check_s": (incl("witt.ghost_check"), "s"),
        "witt.terms": (tracer.counters.get("terms", 0) / rounds, "count"),
        "bounds.report_s": (incl("bounds.bound_report"), "s"),
        "bounds.minimal_d_s": (incl("bounds.minimal_d"), "s"),
        "bounds.minimal_d_calls": (calls("bounds.minimal_d"), "count"),
        "instancefile.parse_s": (incl("instancefile.parse_instance"), "s"),
        "instancefile.parse_calls": (calls("instancefile.parse_instance"), "count"),
        "trace.spans": (len(tracer) / rounds, "count"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = (sum(t[2] for name, t in totals.items()
                                    if name.split(".")[0] == layer) / 1e9 / rounds, "s")
    return m


def run_workload(name, seed, seconds, trace_on, size="full"):
    """Run one workload and return the result object printed by `main`."""
    wl = workloads.build(name, seed, size)
    speed = hostspeed.SpeedProbe()
    if trace_on:
        wb, _ = setup(wl, 1)
    else:
        with speed:
            wb, setup_times = setup(wl, SETUP_REPS, speed)
    workloads.prepare(wl, wb, OUT / f"work-{name}")
    outcome = {"attempted": 0, "failed": 0}
    n_jobs = len(wl.jobs)
    probe = spans.Tracer()
    if not trace_on:
        with speed:
            [rounds] = run_rounds(wb, wl, [(probe, spans.PROBE_TARGETS)], seconds, outcome)
            setup_times += setup(wl, SETUP_REPS, speed)[1]
        walls = scaled_walls(rounds, speed)
        print(f"rounds: unscaled wall_s {[round(w, 3) for w in _walls(rounds)]}, "
              f"host speed {[round(speed.speed(r[0], r[-1]), 3) for r in rounds]}",
              file=sys.stderr)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "points_per_s": (points_per_s(probe, n_jobs, len(rounds), speed), "points/s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (outcome["peak_rss_kb"] / 1024, "MB"),
        }
    else:
        metrics = kernel_metrics(wb, wl.ring, seed, 1.0 if size == "full" else 0.05)
        # Untraced and traced rounds alternate, so the overhead compares like with like.
        tracer = spans.Tracer()
        base_rounds, rounds = run_rounds(
            wb, wl, [(probe, spans.PROBE_TARGETS), (tracer, spans.FULL_TARGETS)], seconds, outcome)
        base_points = probe.counters.get("points", 0)
        base_ns = sum(probe.job_ns(("counting.count_zeros",)).values())
        metrics.update(layer_metrics(tracer, len(rounds)))
        metrics["counting.us_per_point"] = (base_ns / 1e3 / base_points if base_points else 0.0,
                                            "us")
        metrics["trace.overhead_s"] = (min(_walls(rounds)) - min(_walls(base_rounds)), "s")
        metrics.update(loc_metrics())
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{name}-{seed}.csv.gz")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wittbox" / "__init__.py").is_file():
        print(f"no wittbox sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
