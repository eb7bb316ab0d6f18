"""Exhaustive zero counting for congruence systems over a box.

`count_zeros` enumerates every box point through a plain-integer kernel:
per call it builds the Teichmuller lift table (q lifts, scaled by p^i for
each digit level i) and compiles the box generators over F_q and each f_k
over GR(p^{M'}, h) into term lists on ints, then walks the base digits with
an odometer and decides each point by evaluating every f_k directly.
`evaluate_point` is the object-level reference the kernel is tested
against.  The symbolic Teichmuller expansion is deliberately not used, so
the count stays an independent oracle for everything derived from it.
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
        else:
            self.mul = partial(polymul_mod, field.modulus, mod)
            self.add = lambda a, b: tuple(map(operator.add, a, b))
            self.reduce = lambda v: tuple([c % mod for c in v])
            self.divisible = lambda v, pk: not any(c % pk for c in v)
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


class _Kernel:
    """Tables and compiled polynomials of one `count_zeros` call.

    Every point is decided in GR(p^{M'}, h) with M' the largest modulus:
    digit levels i >= M' add p^i * tau(a), which vanishes there, so neither
    their free digits nor their generators are looked at.
    """

    def __init__(self, inst: ProblemInstance):
        box, field = inst.box, inst.field
        p, n, m = field.p, box.n, box.m
        precision = inst.working_precision
        self.q, self.nm = field.q, n * m
        self.gr = gr = _IntRing(field, precision)
        self.fq = fq = _IntRing(field, 1)
        elements = fq_enumerate(field)  # digit code a <-> elements[a]
        params = GRParams(field, precision)
        taus = [teichmuller_lift(a, params).coeffs for a in elements]
        lift = [[gr.element([p ** i * c for c in tau]) for tau in taus]
                for i in range(precision)]

        # Generators over F_q; their digit codes follow the nm free digits.
        levels = sorted(ij for ij in box.generators if ij[0] < precision)
        self.generators = [_compile(box.generators[ij], lambda c: fq.element(c.coeffs))
                           for ij in levels]
        exponents = sorted(set().union(*_exponents(self.generators, self.nm)))
        self.fq_powers = [_power_table(fq.element(a.coeffs), exponents, fq.mul)
                          for a in elements]
        self.fq_code = {fq.element(a.coeffs): code for code, a in enumerate(elements)}

        self.system = [(_compile(f, lambda c: gr.element((c,))), p ** mk)
                       for f, mk in inst.system]

        # Column j is the sum of lift[i][code] over its digit levels i < M',
        # raised to the exponents the system needs.
        slot_of = {(i, j): i * n + j - 1 for i in range(m) for j in range(1, n + 1)}
        slot_of.update((ij, self.nm + k) for k, ij in enumerate(levels))
        sources = [[(lift[i], slot_of[(i, j)]) for i in range(precision) if (i, j) in slot_of]
                   for j in range(1, n + 1)]
        self.columns = list(zip(sources, _exponents([f for f, _ in self.system], n)))

    def count(self, start: int, stop: int) -> int:
        """Zeros among the base indices [start, stop)."""
        q, nm = self.q, self.nm
        mul, add, zero, divisible = self.gr.mul, self.gr.add, self.gr.zero, self.gr.divisible
        fq_mul, fq_add, fq_zero, fq_reduce = self.fq.mul, self.fq.add, self.fq.zero, self.fq.reduce
        fq_powers, fq_code = self.fq_powers, self.fq_code
        generators, columns, system = self.generators, self.columns, self.system
        # Big-endian base-q digits of `start`, then one code per generator.
        codes = [0] * (nm + len(generators))
        index = start
        for k in range(nm - 1, -1, -1):
            index, codes[k] = divmod(index, q)
        zeros = 0
        for _ in range(stop - start):
            if generators:
                powers = [fq_powers[a] for a in codes[:nm]]
                for k, g in enumerate(generators, nm):
                    codes[k] = fq_code[fq_reduce(_evaluate(g, powers, fq_mul, fq_add, fq_zero))]
            powers = []
            for sources, exponents in columns:
                y = zero
                for row, slot in sources:
                    y = add(y, row[codes[slot]])
                powers.append(_power_table(y, exponents, mul))
            for f, pk in system:
                if not divisible(_evaluate(f, powers, mul, add, zero), pk):
                    break
            else:
                zeros += 1
            k = nm - 1  # advance the odometer
            while k >= 0:
                codes[k] += 1
                if codes[k] < q:
                    break
                codes[k] = 0
                k -= 1
        return zeros


def count_zeros(inst: ProblemInstance, budget: int = DEFAULT_BUDGET,
                partitions: int = 1) -> CountReport:
    """Exact |V| over the box; refuses (never samples) past the budget.

    The base space is split into `partitions` contiguous ranges counted
    independently; results are identical for any partition count.
    """
    total = inst.box.base_size()
    if total > budget:
        raise BudgetError(f"{total} points exceed the enumeration budget {budget}")
    if partitions < 1:
        raise ValidationError("partitions must be >= 1")
    kernel = _Kernel(inst)
    bounds = [total * k // partitions for k in range(partitions + 1)]
    cardinality = sum(kernel.count(start, stop) for start, stop in zip(bounds, bounds[1:]))
    return CountReport(cardinality=cardinality, p=inst.field.p, h=inst.field.h)
