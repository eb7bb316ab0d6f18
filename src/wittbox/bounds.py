"""Divisibility lower bounds for ord_q(|V|), their hypothesis checks, and the
minimal-d search used by the improved bounds.

Bound-vs-count comparison is always done p-adically (does p^(h*value) divide
|V|?), since ord_q(|V|) = ord_p(|V|)/h can be a non-integer rational.
"""

from __future__ import annotations

import math

from .box import closeness_check
from .counting import CountReport, ProblemInstance
from .errors import BudgetError, ValidationError
from .fqfield import _Record, power
from .galois import GRParams, int_to_gr, to_digits

READING_ALL = "all"  # degree case taken only when every degree exceeds 1
READING_ANY = "any"  # literal reading: some degree exceeds 1

# The "all" reading routes mixed-degree systems into the (n-s)m case, which
# random counting refutes (see the frozen counterexample in the tests); the
# literal "any" reading survives the same sweeps, so it is the default.
DEFAULT_READING = READING_ANY

D_BUDGET = 1 << 20  # (i, beta) pairs one minimal_d call may charge


def ceil_star(t) -> int:
    """Least nonnegative integer >= t."""
    return max(0, math.ceil(t))


def _degree_case_holds(degs, reading: str) -> bool:
    if reading == READING_ALL:
        return all(d > 1 for d in degs)
    if reading == READING_ANY:
        return any(d > 1 for d in degs)
    raise ValidationError(f"unknown reading {reading!r}")


def ax_katz_bound(n: int, degs) -> int:
    if not degs or any(d < 1 for d in degs):
        raise ValidationError("degrees must be a nonempty list of positive integers")
    return ceil_star(-((sum(degs) - n) // max(degs)))


def kmr_bound(n: int, s: int, m: int, degs, reading: str = DEFAULT_READING) -> int:
    if m < 2:
        raise ValidationError("the equal-moduli bound needs m >= 2")
    if n > s and _degree_case_holds(degs, reading):
        return ((n - s + 1) * m - 1) // 2
    return ceil_star((n - s) * m)


def general_bound(n: int, m: int, p: int, moduli, degs) -> int:
    if len(moduli) != len(degs):
        raise ValidationError("moduli and degrees must have the same length")
    # (p^mk - 1)/(p - 1) = 1 + p + ... + p^(mk-1) is an integer
    excess = sum((p ** mk - 1) // (p - 1) * d for mk, d in zip(moduli, degs)) - n * m
    return ceil_star(-(excess // max(p ** (mk - 1) * d for mk, d in zip(moduli, degs))))


def stacked_bound(n: int, s: int, m: int, m1: int, degs,
                  reading: str = DEFAULT_READING) -> int:
    """Equal-moduli case values with the free-digit stacking term n(m - m1)."""
    if not (m >= m1 >= 1):
        raise ValidationError("need m >= m1 >= 1")
    base = ax_katz_bound(n, degs) if m1 == 1 else kmr_bound(n, s, m1, degs, reading)
    return base + n * (m - m1)


def _maxplus(u, v):
    """(u (x) v)[t] = max over s <= t of u[s] + v[t-s], skipping dead (None)
    entries; truncated to len(u) entries, which v must have too."""
    out = [None] * len(u)
    for s, a in enumerate(u):
        if a is not None:
            for t, b in enumerate(v[:len(u) - s], start=s):
                if b is not None and (out[t] is None or a + b > out[t]):
                    out[t] = a + b
    return out


def _profile(spec, l: int, width: int):
    """Degree of a slot of variable l at each digit level b < width: 1 below
    m, deg g[b][l] above, dead (None) where g[b][l] is zero or missing."""
    gens = [spec.generators.get((b, l)) for b in range(width)]
    return [1 if b < spec.m else None if g is None or g.is_zero() else g.total_degree()
            for b, g in enumerate(gens)]


def minimal_d(inst: ProblemInstance, k: int) -> int:
    """Least d >= 1 for which every surviving expansion term of f_k satisfies the
    per-term degree condition deg(a * prod g) <= d * p^(h*floor((i+|beta|)/h)).

    Terms run over the coefficient digit i and the slot vectors beta (one
    slot per unit of exponent) with i + |beta| < m_k.  The level depends on
    (i, |beta|) alone, so only the largest degree at each |beta| = t counts:
    the max-plus product of the slot profiles, each to its variable's power.
    The budget is charged first, per live digit i: its slot vectors number
    sum_{t < T} C(t + S - 1, t) = C(T + S - 1, S) for T = m_k - i (1 if S = 0).
    """
    f, mk = inst.system[k]
    spec = inst.box
    p, h = spec.field.p, spec.field.h
    params = GRParams(spec.field, mk)
    need = 1
    work = 0
    for exps, coeff in f.sparse_terms():
        live = [i for i, a in enumerate(to_digits(int_to_gr(coeff, params))) if not a.is_zero()]
        total = sum(e for _, e in exps)
        for i in live:
            work += math.comb(mk - i + total - 1, total)
            if work > D_BUDGET:
                raise BudgetError("minimal-d enumeration budget exceeded")
        if not live:
            continue
        width = mk - live[0]  # totals t < width are the only ones any live i reaches
        top = [0] + [None] * (width - 1)
        for l, e in exps:
            top = _maxplus(top, power(_profile(spec, l + 1, width), e, _maxplus))
        for i in live:
            for t in range(mk - i):
                if top[t] is not None:
                    need = max(need, -(-top[t] // p ** (h * ((i + t) // h))))
    return need


class BoundEntry(_Record):
    __slots__ = _fields = ("name", "applicable", "value", "notes")
    __hash__ = None  # mutable

    def __init__(self, name: str, applicable: bool, value: int | None, notes: str = ""):
        self.name, self.applicable, self.value, self.notes = name, applicable, value, notes

    def verdict(self, count: CountReport):
        """PASS/FAIL/VACUOUS of p^(h*value) | cardinality for this bound."""
        if not self.applicable:
            return None
        if count.cardinality == 0:
            return "VACUOUS"
        modulus = count.p ** (count.h * self.value)
        return "PASS" if count.cardinality % modulus == 0 else "FAIL"


class BoundReport(_Record):
    __slots__ = _fields = ("entries", "count")
    __hash__ = None  # mutable

    def __init__(self, entries: list, count: CountReport | None = None):
        self.entries, self.count = entries, count

    @property
    def status(self):
        if self.count is None:
            return None
        if self.count.cardinality == 0:
            return "VACUOUS"
        verdicts = [e.verdict(self.count) for e in self.entries if e.applicable]
        return "FAIL" if "FAIL" in verdicts else "PASS"


def bound_report(inst: ProblemInstance, count: CountReport | None = None,
                 reading: str = DEFAULT_READING) -> BoundReport:
    spec = inst.box
    n, m = spec.n, spec.m
    p = spec.field.p
    s = len(inst.system)
    moduli = inst.moduli  # ascending, so m_s is the last entry
    degs = inst.degrees
    m_s = moduli[-1]
    close, violations = closeness_check(spec, m_s)
    close_note = (
        f"closeness({m_s}) holds"
        if close
        else "closeness violated: " + "; ".join(
            f"deg g[{i}][{j}]={d} > {lim}" for i, j, d, lim in violations
        )
    )

    m1 = moduli[0]
    stacked_ok = len(set(moduli)) == 1 and m >= m1 and close
    stacked_note = f"needs equal moduli <= m and closeness; {close_note}"
    if stacked_ok and s == 1 and n == 1 and m1 > 1 and degs[0] > 1:
        # The single-polynomial statement omits n > 1 in its second case; the
        # proof needs it, so the conservative case selection is used and the
        # alternative value is recorded here.
        alt = (n * m1 - 1) // 2 + n * (m - m1)
        stacked_note += f"; alternative single-polynomial reading would give {alt}"

    try:
        d_list = [minimal_d(inst, k) for k in range(s)]
        improved_note = "per-term degree condition satisfied by construction; d=" + ",".join(map(str, d_list))
    except (BudgetError, ValueError):  # ValueError: a d with more digits than str() writes
        d_list = None
        improved_note = "minimal-d enumeration budget exceeded"

    # (name, applicable, value, notes); a value is computed only when applicable.
    table = (
        ("ax_katz", m == 1 and all(mk == 1 for mk in moduli),
         lambda: ax_katz_bound(n, degs), "needs m = 1 and all moduli 1"),
        ("kmr", m >= 2 and all(mk == m for mk in moduli),
         lambda: kmr_bound(n, s, m, degs, reading),
         f"needs m >= 2 and all moduli = m; degree case read as '{reading}'"),
        ("cwg", m == 1 and close,
         lambda: general_bound(n, 1, p, moduli, degs), f"needs m = 1 and closeness; {close_note}"),
        ("general", close, lambda: general_bound(n, m, p, moduli, degs), close_note),
        ("stacked", stacked_ok, lambda: stacked_bound(n, s, m, m1, degs, reading), stacked_note),
        ("improved", d_list is not None,
         lambda: general_bound(n, m, p, moduli, d_list), improved_note),
    )
    entries = [BoundEntry(name, applicable, value() if applicable else None, notes)
               for name, applicable, value, notes in table]
    return BoundReport(entries=entries, count=count)
