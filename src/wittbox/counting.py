"""Exact zero counting for congruence systems over a box.

`count_zeros` counts through the plain-integer kernel of `wittbox.kernel`,
which it imports on its first call, after its refusals: a process that never
counts never compiles it.  Nothing is sampled.  The symbolic Teichmuller
expansion is deliberately not used, so the count stays an independent oracle
for everything derived from it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .box import BoxSpec
from .errors import BudgetError, ValidationError, decimal
from .fqfield import _Frozen, _set
from .poly import IntegerDomain, MultiPoly

DEFAULT_BUDGET = 1 << 24
MAX_FIELD = 1 << 20  # largest q counted: the kernel lifts and tabulates each element


@lru_cache(maxsize=1)
def system_variable_names(n: int):
    return tuple(f"x{j}" for j in range(1, n + 1))


class ProblemInstance(_Frozen):
    __slots__ = _fields = ("box", "system")

    def __init__(self, box: BoxSpec, system: tuple):
        _set(self, "box", box)
        _set(self, "system", system)  # ((f_k, m_k), ...) sorted by ascending m_k

    @property
    def field(self):
        return self.box.field

    @property
    def working_precision(self) -> int:
        return max(mk for _, mk in self.system)

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


class CountReport(_Frozen):
    __slots__ = _fields = ("cardinality", "p", "h")

    def __init__(self, cardinality: int, p: int, h: int):
        _set(self, "cardinality", cardinality)
        _set(self, "p", p)
        _set(self, "h", h)

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


def count_zeros(inst: ProblemInstance, budget: int = DEFAULT_BUDGET,
                partitions: int = 1) -> CountReport:
    """Exact |V| over the box; refuses (never samples) past the budget.

    The budget applies to all q^{nm} base points, however few the kernel
    enumerates.  The points it enumerates last are split into `partitions`
    contiguous ranges counted independently, and never into more ranges than
    points; results are identical for any partition count.
    """
    total = inst.box.base_size()
    if total > budget:
        size = decimal(total, f"{inst.field.p}^{inst.field.h * inst.box.n * inst.box.m}")
        raise BudgetError(f"{size} points exceed the enumeration budget {budget}")
    if partitions < 1:
        raise ValidationError("partitions must be >= 1")
    if inst.field.q > MAX_FIELD:
        raise BudgetError(f"q={inst.field.q} exceeds the largest field the kernel "
                          f"tabulates, {MAX_FIELD} elements")
    from .kernel import _Kernel  # compiled on the first count, never at import

    kernel = _Kernel(inst)
    size = kernel.size
    partitions = min(partitions, size)
    zeros = sum(kernel.count(size * k // partitions, size * (k + 1) // partitions)
                for k in range(partitions))
    return CountReport(cardinality=kernel.factor * zeros, p=inst.field.p, h=inst.field.h)
