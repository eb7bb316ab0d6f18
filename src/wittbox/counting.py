"""Exact zero counting for congruence systems over a box.

`count_zeros` counts through a plain-integer kernel: per call it builds the
Teichmuller lift table (q lifts, scaled by p^i for each digit level i) and
compiles the box generators over F_q and each f_k over GR(p^{M'}, h) into
term lists on ints, then walks base digits with an odometer.  The columns
x_j fall into components that share no monomial and no generator, and each
f_k is a sum of one part per component, so the count is the mass at zero
of the convolved per-component residue histograms; an instance with one
component has each point decided by evaluating every f_k directly.
Nothing is sampled.  `evaluate_point` over `box_enumerate` is the
object-level brute-force reference the kernel is tested against.  The
symbolic Teichmuller expansion is deliberately not used, so the count stays
an independent oracle for everything derived from it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .box import BoxSpec
from .errors import BudgetError, ValidationError
from .fqfield import fq_enumerate, polymul_mod
from .galois import GRParams, from_digits, int_to_gr, reduce_precision, teichmuller_lift
from .poly import IntegerDomain, MultiPoly

DEFAULT_BUDGET = 1 << 24
HISTOGRAM_CAP = 1 << 16  # entries of a residue histogram, and pairs of one convolution


def system_variable_names(n: int):
    return tuple(f"x{j}" for j in range(1, n + 1))


@dataclass(frozen=True)
class ProblemInstance:
    box: BoxSpec
    system: tuple  # ((f_k, m_k), ...) sorted by ascending m_k

    @property
    def field(self):
        return self.box.field

    @property
    def working_precision(self) -> int:
        return max(mk for _, mk in self.system)

    @property
    def enumeration_precision(self) -> int:
        # digits up to max(m, M') are needed to evaluate all residues
        return max(self.working_precision, self.box.m)

    @property
    def moduli(self):
        return tuple(mk for _, mk in self.system)

    @property
    def degrees(self):
        return tuple(f.total_degree() for f, _ in self.system)


def make_instance(box: BoxSpec, system) -> ProblemInstance:
    names = system_variable_names(box.n)
    clean = []
    for f, mk in system:
        if not isinstance(f, MultiPoly) or not isinstance(f.domain, IntegerDomain):
            raise ValidationError("system polynomials must have integer coefficients")
        if f.variables != names:
            raise ValidationError("system polynomial uses a foreign variable context")
        if f.total_degree() < 1:
            raise ValidationError("system polynomials must be nonconstant")
        if mk < 1:
            raise ValidationError("moduli must be >= 1")
        clean.append((f, mk))
    if not clean:
        raise ValidationError("system must contain at least one polynomial")
    clean.sort(key=lambda item: item[1])
    return ProblemInstance(box=box, system=tuple(clean))


@dataclass(frozen=True)
class CountReport:
    cardinality: int
    p: int
    h: int

    @property
    def ord_p(self):
        if self.cardinality == 0:
            return math.inf
        v = 0
        c = self.cardinality
        while c % self.p == 0:
            c //= self.p
            v += 1
        return v

    @property
    def ord_q(self):
        if self.cardinality == 0:
            return math.inf
        return Fraction(self.ord_p, self.h)


def evaluate_point(inst: ProblemInstance, pt):
    """Residues f_k(Y) in GR(p^{m_k}, h), computed once at working precision."""
    params = GRParams(inst.field, inst.enumeration_precision)
    ys = {
        name: from_digits(pt.digits[j], params)
        for j, name in enumerate(system_variable_names(inst.box.n))
    }
    out = []
    for f, mk in inst.system:
        value = f.evaluate(ys, coerce=lambda c: int_to_gr(c, params))
        out.append(reduce_precision(value, mk))
    return out


class _IntRing:
    """GR(p^precision, h) on plain ints; F_q is the case precision = 1.

    An element is an int when h = 1 and a tuple of h ints otherwise.
    Products are reduced mod p^precision and sums are not, which neither a
    further product nor a divisibility test minds; `reduce` gives the
    canonical representative.
    """

    def __init__(self, field, precision):
        mod = field.p ** precision
        if field.h == 1:
            self.mul = lambda a, b: a * b % mod
            self.add = operator.add
            self.reduce = lambda v: v % mod
            self.divisible = lambda v, pk: v % pk == 0
            self.coeffs = lambda v: (v,)
        else:
            self.mul = partial(polymul_mod, field.modulus, mod)
            self.add = lambda a, b: tuple(map(operator.add, a, b))
            self.reduce = lambda v: tuple([c % mod for c in v])
            self.divisible = lambda v, pk: not any(c % pk for c in v)
            self.coeffs = tuple
        self.h = field.h
        self.zero = self.element((0,))

    def element(self, coeffs):
        """The element with these ascending coefficients in t (padded to h)."""
        if self.h == 1:
            return self.reduce(coeffs[0])
        return self.reduce(tuple(coeffs) + (0,) * (self.h - len(coeffs)))


def _compile(poly, coerce):
    """`poly` as [(coefficient, [(variable slot, exponent), ...]), ...]."""
    return [(coerce(c), [(slot, e) for slot, e in enumerate(exps) if e])
            for exps, c in poly.terms.items()]


def _evaluate(compiled, powers, mul, add, zero):
    """A compiled polynomial at a point; powers[slot][e] is slot's value to the e."""
    acc = zero
    for v, factors in compiled:
        for slot, e in factors:
            v = mul(v, powers[slot][e])
        acc = add(acc, v)
    return acc


def _power(value, e, mul):
    """value^e for e >= 1 by square-and-multiply."""
    result = None
    while True:
        if e & 1:
            result = value if result is None else mul(result, value)
        e >>= 1
        if not e:
            return result
        value = mul(value, value)


def _power_table(value, exponents, mul):
    """{e: value^e} for ascending positive exponents, each from the one before."""
    table, last, acc = {}, 0, None
    for e in exponents:
        step = _power(value, e - last, mul)
        acc = step if acc is None else mul(acc, step)
        table[e] = acc
        last = e
    return table


def _exponents(compiled_polys, slots):
    """Per slot, the ascending exponents the compiled polynomials raise it to."""
    used = [set() for _ in range(slots)]
    for compiled in compiled_polys:
        for _, factors in compiled:
            for slot, e in factors:
                used[slot].add(e)
    return [sorted(es) for es in used]


def _components(n, links):
    """Connected components of the columns 0..n-1; each list in `links` joins its columns."""
    owner = [{j} for j in range(n)]
    for cols in links:
        merged = set().union(*(owner[j] for j in cols))
        for j in merged:
            owner[j] = merged
    return list({id(c): c for c in owner}.values())


def _convolve(acc, hist, mods):
    """The histogram of sums of two independent residue vectors, entrywise mod `mods`."""
    out = {}
    for a, x in acc.items():
        for b, y in hist.items():
            key = tuple([(u + v) % md for u, v, md in zip(a, b, mods)])
            out[key] = out.get(key, 0) + x * y
    return out


class _Kernel:
    """Tables and compiled polynomials of one `count_zeros` call.

    Every point is decided in GR(p^{M'}, h) with M' the largest modulus:
    digit levels i >= M' add p^i * tau(a), which vanishes there, so neither
    their free digits nor their generators are looked at, and free digits
    there only multiply the count.

    Columns fall into components: a monomial of an f_k links the columns it
    mixes, and a generator g[i][j] (i < M') links column j to the columns it
    reads.  Each f_k is its constant term plus one part per component, so
    the smallest components are enumerated alone and their residue
    histograms convolved, starting from the constant terms, while the
    histogram and each convolution stay within HISTOGRAM_CAP entries.  The
    other components are enumerated together last, each point adding the
    mass at minus its residue; if none was convolved, each point is decided
    directly, stopping at the first f_k that fails.  A column no f_k reads
    needs none of its generators, and a component of such columns only
    multiplies the count.
    """

    def __init__(self, inst: ProblemInstance):
        box, field = inst.box, inst.field
        p, n, m = field.p, box.n, box.m
        precision = inst.working_precision
        live = min(m, precision)  # free digit levels that reach a residue
        self.q, self.n, self.nfree = field.q, n, n * live
        self.gr = gr = _IntRing(field, precision)
        self.fq = fq = _IntRing(field, 1)
        elements = fq_enumerate(field)  # digit code a <-> elements[a]
        params = GRParams(field, precision)
        taus = [teichmuller_lift(a, params).coeffs for a in elements]
        lift = [[gr.element([p ** i * c for c in tau]) for tau in taus]
                for i in range(precision)]

        self.system = [(_compile(f, lambda c: gr.element((c,))), p ** mk)
                       for f, mk in inst.system]
        monomials = [[slot for slot, _ in factors]
                     for f, _ in self.system for _, factors in f if factors]
        read = {j for cols in monomials for j in cols}  # 0-based columns some f_k reads

        # Generators over F_q of the read columns, with their 0-based
        # columns; their digit codes follow the free digits.  They exist
        # only when M' > m = live.
        levels = sorted((i, j) for i, j in box.generators if i < precision and j - 1 in read)
        self.generators = [(j - 1, _compile(box.generators[(i, j)],
                                            lambda c: fq.element(c.coeffs)))
                           for i, j in levels]
        exponents = sorted(set().union(*_exponents([g for _, g in self.generators], self.nfree)))
        self.fq_powers = [_power_table(fq.element(a.coeffs), exponents, fq.mul)
                          for a in elements]
        self.fq_code = {fq.element(a.coeffs): code for code, a in enumerate(elements)}

        # Column j is the sum of lift[i][code] over its digit levels i < M',
        # raised to the exponents the system needs.
        slot_of = {(i, j): i * n + j - 1 for i in range(live) for j in range(1, n + 1)}
        slot_of.update((ij, self.nfree + k) for k, ij in enumerate(levels))
        sources = [[(lift[i], slot_of[(i, j)]) for i in range(precision) if (i, j) in slot_of]
                   for j in range(1, n + 1)]
        self.columns = list(zip(sources, _exponents([f for f, _ in self.system], n)))

        reads = [[j] + [slot % n for _, factors in g for slot, _ in factors]
                 for j, g in self.generators]
        parts = sorted((c for c in _components(n, monomials + reads) if c & read),
                       key=lambda c: (len(c), min(c)))
        self.factor = self.q ** (n * m - live * len(set().union(*parts)))

        mods = [pk for _, pk in self.system for _ in range(field.h)]
        space = math.prod(mods)  # |prod_k GR(p^{m_k}, h)|, a bound on any histogram
        constants = [([(c, fs) for c, fs in f if not fs], pk) for f, pk in self.system]
        acc, entries, k = {self._residues(constants, [], 1): 1}, 1, 0
        while k < len(parts) - 1:  # the largest component is always enumerated last
            points = self.q ** (live * len(parts[k]))
            if entries * min(points, space) > HISTOGRAM_CAP:
                break
            acc = _convolve(acc, self._histogram(parts[k], points), mods)
            entries = min(entries * points, space)
            k += 1
        self.rest = set().union(*parts[k:])
        self.size = self.q ** (live * len(self.rest))
        self.acc = acc if k else None
        self.last = self._restrict(self.rest) if k else self.system

    def _restrict(self, cols):
        """The system's monomials in the columns `cols`, without constant terms."""
        return [([(c, fs) for c, fs in f if fs and fs[0][0] in cols], pk) for f, pk in self.system]

    def _residues(self, system, powers, sign):
        """sign * f_k mod p^{m_k} for each compiled f_k, as one flat tuple of ints."""
        gr = self.gr
        return tuple([sign * c % pk for f, pk in system
                      for c in gr.coeffs(_evaluate(f, powers, gr.mul, gr.add, gr.zero))])

    def _histogram(self, cols, points):
        """Residue vectors of the columns `cols` alone, with their multiplicities."""
        system, hist = self._restrict(cols), {}
        for powers in self._points(cols, 0, points):
            key = self._residues(system, powers, 1)
            hist[key] = hist.get(key, 0) + 1
        return hist

    def _points(self, cols, start, stop):
        """Column power tables at the indices [start, stop) of the free digits of `cols`.

        The index is big-endian base q over those digits, i-major then j.
        One list, indexed by column and refilled per point, is yielded.
        """
        q, n, nfree = self.q, self.n, self.nfree
        mul, add, zero = self.gr.mul, self.gr.add, self.gr.zero
        fq_mul, fq_add, fq_zero, fq_reduce = self.fq.mul, self.fq.add, self.fq.zero, self.fq.reduce
        fq_powers, fq_code = self.fq_powers, self.fq_code
        free = [slot for slot in range(nfree) if slot % n in cols]
        generators = [(k, g) for k, (j, g) in enumerate(self.generators, nfree) if j in cols]
        columns = [(j, *self.columns[j]) for j in sorted(cols)]
        codes = [0] * (nfree + len(self.generators))
        digit_powers, powers = [None] * nfree, [None] * n
        index = start
        for slot in reversed(free):
            index, codes[slot] = divmod(index, q)
        for _ in range(stop - start):
            if generators:
                for slot in free:
                    digit_powers[slot] = fq_powers[codes[slot]]
                for k, g in generators:
                    value = _evaluate(g, digit_powers, fq_mul, fq_add, fq_zero)
                    codes[k] = fq_code[fq_reduce(value)]
            for j, sources, exponents in columns:
                y = zero
                for row, slot in sources:
                    y = add(y, row[codes[slot]])
                powers[j] = _power_table(y, exponents, mul)
            yield powers
            k = len(free) - 1  # advance the odometer
            while k >= 0:
                slot = free[k]
                codes[slot] += 1
                if codes[slot] < q:
                    break
                codes[slot] = 0
                k -= 1

    def count(self, start: int, stop: int) -> int:
        """Zeros among the indices [start, stop) of the group enumerated last,
        each weighted by the convolved components; `factor` is not applied."""
        points = self._points(self.rest, start, stop)
        if self.acc is not None:
            acc, residues, last = self.acc, self._residues, self.last
            return sum(acc.get(residues(last, powers, -1), 0) for powers in points)
        mul, add, zero, divisible = self.gr.mul, self.gr.add, self.gr.zero, self.gr.divisible
        zeros = 0
        for powers in points:
            for f, pk in self.last:
                if not divisible(_evaluate(f, powers, mul, add, zero), pk):
                    break
            else:
                zeros += 1
        return zeros


def count_zeros(inst: ProblemInstance, budget: int = DEFAULT_BUDGET,
                partitions: int = 1) -> CountReport:
    """Exact |V| over the box; refuses (never samples) past the budget.

    The budget applies to all q^{nm} base points, however few the kernel
    enumerates.  The points it enumerates last are split into `partitions`
    contiguous ranges counted independently; results are identical for any
    partition count.
    """
    total = inst.box.base_size()
    if total > budget:
        raise BudgetError(f"{total} points exceed the enumeration budget {budget}")
    if partitions < 1:
        raise ValidationError("partitions must be >= 1")
    kernel = _Kernel(inst)
    bounds = [kernel.size * k // partitions for k in range(partitions + 1)]
    zeros = sum(kernel.count(start, stop) for start, stop in zip(bounds, bounds[1:]))
    return CountReport(cardinality=kernel.factor * zeros, p=inst.field.p, h=inst.field.h)
