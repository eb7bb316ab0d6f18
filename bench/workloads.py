"""The benchmark's workloads: seeded instances, job lists and output checks.

Instance text is generated from the seed without importing wittbox, so the
same seed always gives the same inputs.  Every job's output is checked by
something other than the code that produced it: the published fixture
columns, a count computed here with plain integers, the round trip of
`box_from_table`, or the digest of stdout pinned for the default seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
DIGESTS = Path(__file__).with_name("digests.json")

# Paper instances: (name, cardinality, ord_p, closeness at M'), copied from
# the published table rather than read from wittbox.fixtures, so a change to
# the bundled fixtures cannot pass the gate by itself.
PAPER = (("example41", 30, 1, True), ("example42", 32, 5, True), ("example43", 30, 1, False))


@dataclass
class Job:
    name: str
    call: Callable  # (wittbox package) -> observation
    check: Callable  # observation -> bool
    digest: str | None = None  # pinned stdout digest, when one applies

    def passes(self, observation):
        return self.check(observation) and (self.digest is None or digest(observation) == self.digest)


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    texts: dict  # seeded instance name -> instance file text
    ring: tuple  # (p, h, M) of the kernel timings
    expected: dict = field(default_factory=dict)  # computed here, not by wittbox
    jobs: list = field(default_factory=list)

    def inputs(self, wb):
        """Every instance text the workload parses; the paper ones come bundled."""
        texts = {}
        if self.name == "boxes-q2":
            texts.update((name, text) for name, text, *_ in wb.fixtures.PAPER_EXAMPLES)
        texts.update(self.texts)
        return texts


# ---------------------------------------------------------------- text helpers

def _monomial(factors):
    return "*".join(factors) if factors else "1"


def _poly_text(terms):
    return " + ".join(terms)


def _instance_text(p, h, n, m, system, box=None):
    lines = ["[ring]", f"p = {p}", f"h = {h}", "", "[problem]", f"n = {n}", f"m = {m}", "",
             "[system]"]
    lines += [f"f{k} = {_poly_text(terms)} mod p^{mk}" for k, (terms, mk) in enumerate(system, 1)]
    if box:
        lines += ["", "[box]"] + [f"g[{i}][{j}] = {_poly_text(terms)}" for (i, j), terms in box]
    return "\n".join(lines) + "\n"


def _random_f2_poly(rng, names, n_terms, max_degree):
    """Reduced polynomial over F_2: distinct square-free monomials, coefficient 1."""
    monos = set()
    while len(monos) < n_terms:
        k = rng.randint(1, max_degree)
        monos.add(tuple(sorted(rng.sample(range(len(names)), k))))
    return [_monomial([names[v] for v in mono]) for mono in sorted(monos)]


# ----------------------------------------------------------------- instances

def split_instance(rng, n):
    """q=2, m=2, M'=3: column-local generators g[2][j] and a separable system.

    Returns the text and a description the oracle can count from:
    per column j, the generator as (monomials over (a0, a1)) and the terms
    (coefficient, exponent) of f1 mod 8 and f2 mod 4.
    """
    # The seed shuffles a fixed mix of shapes and draws the coefficients, so
    # every seed costs about the same.
    extras = [((0,), (1,), ())[j % 3] for j in range(n)]
    e1 = [1 + j % 2 for j in range(n)]
    e2 = [1 + (j // 2) % 2 for j in range(n)]
    for shapes in (extras, e1, e2):
        rng.shuffle(shapes)
    columns = []
    for j in range(n):
        gen = ((0, 1), extras[j])  # x[0][j]*x[1][j] + (x[0][j] | x[1][j] | 1)
        columns.append((gen, (rng.randint(1, 7), e1[j]), (rng.randint(1, 3), e2[j])))

    def gen_text(j, gen):
        return [_monomial([f"x[{i}][{j}]" for i in mono]) for mono in gen]

    def term(j, ce):
        c, e = ce
        return f"{c}*x{j}" + (f"^{e}" if e > 1 else "")

    system = [([term(j, f1) for j, (_, f1, _) in enumerate(columns, 1)], 3),
              ([term(j, f2) for j, (_, _, f2) in enumerate(columns, 1)], 2)]
    box = [((2, j), gen_text(j, gen)) for j, (gen, _, _) in enumerate(columns, 1)]
    return _instance_text(2, 1, n, 2, system, box), columns


def split_count(columns):
    """|V| of a split instance by convolving per-column residue histograms.

    Over Z/8 the Teichmuller lift of a bit is the bit itself, so the column
    value is y = a0 + 2*a1 + 4*g(a0, a1).
    """
    hist = {(0, 0): 1}
    for gen, (c1, e1), (c2, e2) in columns:
        col = {}
        for a0 in (0, 1):
            for a1 in (0, 1):
                bits = (a0, a1)
                g = sum(all(bits[i] for i in mono) for mono in gen) % 2
                y = a0 + 2 * a1 + 4 * g
                key = (c1 * y ** e1 % 8, c2 * y ** e2 % 4)
                col[key] = col.get(key, 0) + 1
        nxt = {}
        for (r1, r2), a in hist.items():
            for (s1, s2), b in col.items():
                key = ((r1 + s1) % 8, (r2 + s2) % 4)
                nxt[key] = nxt.get(key, 0) + a * b
        hist = nxt
    return hist.get((0, 0), 0)


# Shapes of the q=9 system: monomials as (e1, e2), modulus exponent.  Only
# the coefficients depend on the seed, so every seed costs the same.
TEICH_SHAPE = ((((3, 0), (1, 1), (0, 2)), 3), (((2, 0), (1, 1), (0, 1)), 2))


def teich_instance(rng, m):
    """GR(27, 2) Teichmuller box, n=2, M'=3, with an x1*x2 cross term."""
    system = []
    for monos, mk in TEICH_SHAPE:
        coeffs = [rng.randint(1, 3 ** mk - 1) for _ in monos]
        system.append((coeffs, monos, mk))

    def mono(e):
        return "*".join(f"x{v}" + (f"^{k}" if k > 1 else "") for v, k in zip((1, 2), e) if k)

    text = _instance_text(3, 2, 2, m, [([f"{c}*{mono(e)}" for c, e in zip(coeffs, monos)], mk)
                                        for coeffs, monos, mk in system])
    return text, system


def _gr_mul(a, b, mod):
    """(a0 + a1 t)(b0 + b1 t) in (Z/mod)[t]/(t^2 + 1), the default modulus for q=9."""
    return ((a[0] * b[0] - a[1] * b[1]) % mod, (a[0] * b[1] + a[1] * b[0]) % mod)


def _gr_pow(a, e, mod):
    out = (1, 0)
    for _ in range(e):
        out = _gr_mul(out, a, mod)
    return out


def teich_count(system, m):
    """|V| over the q=9 Teichmuller box by direct evaluation in GR(27, 2)."""
    mod = 27
    lift = {}
    for a in range(3):
        for b in range(3):
            z = (a, b)
            for _ in range(2):  # precision 3: two Frobenius steps reach the fixed point
                z = _gr_pow(z, 9, mod)
            lift[(a, b)] = z
    # digits below m are free, the rest are zero in a Teichmuller box
    values = [(0, 0)]
    for i in range(m):
        values = [((y[0] + 3 ** i * t[0]) % mod, (y[1] + 3 ** i * t[1]) % mod)
                  for y in values for t in lift.values()]
    powers = {y: [_gr_pow(y, e, mod) for e in range(4)] for y in values}
    count = 0
    for y1 in values:
        for y2 in values:
            ok = True
            for coeffs, monos, mk in system:
                acc = (0, 0)
                for c, (e1, e2) in zip(coeffs, monos):
                    t = _gr_mul(powers[y1][e1], powers[y2][e2], mod)
                    acc = ((acc[0] + c * t[0]) % mod, (acc[1] + c * t[1]) % mod)
                if acc[0] % 3 ** mk or acc[1] % 3 ** mk:
                    ok = False
                    break
            count += ok
    return count


def table_instance(rng, n, m, precision):
    """q=2 box whose generators box_from_table must recover.

    The generators are one fixed set under a seeded renaming of the
    variables and of the generator slots, so their weights, and with them
    the interpolation cost, do not depend on the seed.
    """
    names = [f"x[{i}][{j}]" for i in range(m) for j in range(1, n + 1)]
    slots = [(i, j) for i in range(m, precision) for j in range(1, n + 1)]
    template = random.Random("table-generators")
    gens = [_random_f2_poly(template, names, 3, 3) for _ in slots]
    renamed = dict(zip(names, rng.sample(names, len(names))))
    rng.shuffle(gens)
    box = [(slot, [_monomial([renamed[v] for v in term.split("*")]) for term in gen])
           for slot, gen in zip(slots, gens)]
    return _instance_text(2, 1, n, m, [(["x1"], 1)], box)


def bound_instance(rng):
    """q=2, n=3, m=2: degree-5 f1 mod p^6, generators on levels 2..5."""
    x = ["x1", "x2", "x3"]
    e1, e2, e3 = rng.sample((2, 2, 1), 3)
    f1 = [f"{rng.randrange(1, 64, 2)}*x1^{e1}*x2^{e2}*x3^{e3}",
          f"{rng.randint(1, 63)}*{rng.choice(x)}*{rng.choice(x)}",
          f"{rng.randint(1, 63)}*{rng.choice(x)}"]
    names = [f"x[{i}][{j}]" for i in range(2) for j in range(1, 4)]
    box = [((i, j), _random_f2_poly(rng, names, 2, 2)) for i in range(2, 6) for j in range(1, 4)]
    return _instance_text(2, 1, 3, 2, [(f1, 6)], box)


# ----------------------------------------------------------------- checking

def run_cli(wb, argv):
    """wittbox.cli.main with stdout captured: (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wb.cli.main(argv)
    return code, buf.getvalue()


def digest(observation):
    code, out = observation
    return hashlib.sha256(f"exit={code}\n{out}".encode()).hexdigest()


def _fields(out):
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def verify_ok(cardinality, ord_p=None, close=None):
    """Check of a `verify` run: exit 0, PASS, and the columns that are known."""
    def check(observation):
        code, out = observation
        kv = _fields(out)
        return (code == 0 and kv.get("status") == "PASS"
                and kv.get("cardinality") == str(cardinality)
                and (ord_p is None or kv.get("ord_p") == str(ord_p))
                and (close is None or kv.get("note.general", "").startswith("closeness(")
                     is close))
    return check


def clear_caches(wb):
    """A CLI user pays the Witt-polynomial construction on every call."""
    for fn in (wb.witt.witt_op_polys, wb.witt.twisted_digit_polys):
        while not hasattr(fn, "cache_clear"):
            fn = fn.__wrapped__
        fn.cache_clear()


# ----------------------------------------------------------------- workloads

SIZES = {
    # boxes-q2 split n, teich-q9 m, witt-polys (p, n, r), table (n, m, precision)
    "full": {"split_n": 6, "teich_m": 2, "witt": (3, 3, 3), "table": (5, 2, 4)},
    "tiny": {"split_n": 3, "teich_m": 1, "witt": (2, 2, 2), "table": (2, 2, 3)},
}
NAMES = ("boxes-q2", "teich-q9", "symbolic")


def build(name, seed, size="full"):
    """Seeded instance texts and their expected counts; jobs come from `prepare`."""
    rng = random.Random(f"{name}:{seed}")
    s = SIZES[size]
    if name == "boxes-q2":
        text, columns = split_instance(rng, s["split_n"])
        return Workload(name, seed, size, {"split": text}, (2, 1, 3),
                        {"split": split_count(columns)})
    if name == "teich-q9":
        text, system = teich_instance(rng, s["teich_m"])
        return Workload(name, seed, size, {"teich": text}, (3, 2, 3),
                        {"teich": teich_count(system, s["teich_m"])})
    if name == "symbolic":
        return Workload(name, seed, size, {"table": table_instance(rng, *s["table"]),
                                           "bound": bound_instance(rng)}, (2, 1, 6))
    raise ValueError(f"unknown workload {name!r}")


def prepare(wl, wb, workdir):
    """Write instance files and build the job list; untimed and untraced."""
    workdir.mkdir(parents=True, exist_ok=True)
    texts = wl.inputs(wb)
    paths = {}
    for key, text in texts.items():
        paths[key] = str(workdir / f"{key}.ini")
        Path(paths[key]).write_text(text, encoding="utf-8")
    full = wl.size == "full"
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")).get(wl.name, {})

    def cli_job(name, argv, check, pinned):
        want = pins.get(name, "missing") if pinned else None
        return Job(name, lambda wb: run_cli(wb, argv), check, want)

    pin_seeded = full and wl.seed == DEFAULT_SEED
    jobs = []
    if wl.name == "boxes-q2":
        for ex, card, ordp, close in PAPER:
            jobs.append(cli_job(f"verify:{ex}", ["verify", paths[ex]],
                                verify_ok(card, ordp, close), full))
        jobs.append(cli_job("verify:split", ["verify", paths["split"]],
                            verify_ok(wl.expected["split"]), pin_seeded))
    elif wl.name == "teich-q9":
        jobs.append(cli_job("verify:teich", ["verify", paths["teich"]],
                            verify_ok(wl.expected["teich"]), pin_seeded))
    else:
        p, n, r = SIZES[wl.size]["witt"]

        def witt_ok(obs):
            code, out = obs
            return code == 0 and len(out.splitlines()) == n + 1

        jobs.append(cli_job("witt-polys", ["witt-polys", "--p", str(p), "--n", str(n),
                                           "--r", str(r)], witt_ok, full))
        jobs.append(Job("ghost_check", lambda wb: wb.witt.ghost_check(p, n, r, "sum"),
                        lambda ok: ok is True))
        box = wb.instancefile.parse_instance(texts["table"]).box
        precision = SIZES[wl.size]["table"][2]
        table = [(pt.base, pt.digits) for pt in wb.box.box_enumerate(box, precision)]
        jobs.append(Job(
            "box_from_table",
            lambda wb: wb.box.box_from_table(box.field, box.n, box.m, precision, table),
            lambda got: got.generators == box.generators))

        def bound_ok(obs):
            return obs[0] == 0 and _fields(obs[1]).get("applicable.improved") == "true"

        jobs.append(cli_job("bound", ["bound", paths["bound"]], bound_ok, pin_seeded))
    wl.jobs = jobs
    return wl
