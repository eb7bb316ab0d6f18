"""Spans around wittbox's public functions, installed from outside the package.

A `Tracer` replaces a function at every module attribute that binds it (and
a method on its class), so callers that did `from .galois import from_digits`
are traced too.  Each call records one span: name, start, end, parent span
and job id.  Spans live in flat arrays until the run ends; nothing is
written while the workload runs.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute) of every traced function; "Class.method" for methods.
# Per-point arithmetic (GRElem/FqElem operators, int_to_gr) is left out:
# wrapping it would cost more than the work it measures.
FULL_TARGETS = (
    ("instancefile", "parse_instance"),
    ("instancefile", "parse_poly"),
    ("fqfield", "field_params"),
    ("galois", "from_digits"),
    ("galois", "teichmuller_lift"),
    ("galois", "reduce_precision"),
    ("galois", "to_digits"),
    ("box", "decode_base"),
    ("box", "expand_point"),
    ("box", "closeness_check"),
    ("box", "box_from_table"),
    ("box", "box_make"),
    ("poly", "MultiPoly.evaluate"),
    ("poly", "MultiPoly.__mul__"),
    ("poly", "MultiPoly.__pow__"),
    ("poly", "MultiPoly.__add__"),
    ("poly", "MultiPoly.__sub__"),
    ("poly", "MultiPoly.reduce_exponents"),
    ("poly", "MultiPoly.render"),
    ("counting", "count_zeros"),
    ("counting", "make_instance"),
    ("witt", "witt_op_polys"),
    ("witt", "twisted_digit_polys"),
    ("witt", "ghost_check"),
    ("bounds", "bound_report"),
    ("bounds", "minimal_d"),
    ("cli", "main"),
)

# The untraced run times only the calls that decide box points; a handful of
# spans per job, so its cost does not show in wall time.
PROBE_TARGETS = (
    ("counting", "count_zeros"),
    ("box", "box_from_table"),
)


def _count_points(counters, args, result):
    counters["points"] = counters.get("points", 0) + args[0].box.base_size()


def _count_rows(counters, args, result):
    counters["rows"] = counters.get("rows", 0) + len(args[4])


def _count_terms(counters, args, result):
    counters["terms"] = counters.get("terms", 0) + sum(len(p.terms) for p in result)


COUNT_HOOKS = {
    "counting.count_zeros": _count_points,
    "box.box_from_table": _count_rows,
    "witt.witt_op_polys": _count_terms,
}


class Tracer:
    """Records spans for the functions it is installed on."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = {}
        self._stack = [-1]
        self._job_id = -1
        self._undo = []

    def __len__(self):
        return len(self.start)

    def _open(self, name_id):
        i = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job_id)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def job_span(self, name):
        """Root span of one job; every span opened inside carries its id."""
        self._job_id += 1
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, func, name):
        name_id = self._intern(name)
        hook = COUNT_HOOKS.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            i = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def install(self, targets):
        """Wrap each target wherever the loaded wittbox modules bind it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "wittbox" or k.startswith("wittbox."))]
        for module_name, attr in targets:
            module = sys.modules["wittbox." + module_name]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, name), original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def totals(self):
        """{name: [calls, duration_ns, self_ns]} summed over all spans.

        Self time is a span's duration minus what its direct children cover;
        calls run on one thread, so children never overlap.
        """
        n = len(self.start)
        covered = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            d = self.end[i] - self.start[i]
            t = out.setdefault(self.names[self.name_of[i]], [0, 0, 0])
            t[0] += 1
            t[1] += d
            t[2] += d - covered[i]
        return out

    def spans_of(self, names):
        """(start_ns, end_ns, job id) of every span with one of these names."""
        ids = {self._ids[n] for n in names if n in self._ids}
        return [(self.start[i], self.end[i], self.job[i])
                for i in range(len(self.start)) if self.name_of[i] in ids]

    def job_ns(self, names):
        """{job id: summed duration_ns of the spans with these names}."""
        ids = {self._ids[n] for n in names if n in self._ids}
        out = {}
        for i in range(len(self.start)):
            if self.name_of[i] in ids:
                j = self.job[i]
                out[j] = out.get(j, 0) + self.end[i] - self.start[i]
        return out

    def write(self, path):
        """Spans as gzip CSV: id, parent, job, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,parent,job,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                out.write(f"{i},{self.parent[i]},{self.job[i]},{self.names[self.name_of[i]]},"
                          f"{self.start[i]},{self.end[i]}\n")
