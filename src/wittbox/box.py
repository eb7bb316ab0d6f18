"""Boxes B_m in Z_q^n: representation by reduced generator polynomials,
enumeration, closeness checking, and interpolation from value tables.

A box is described by generators g[i][j] over F_q in the nm free digit
variables x[i][j] (i < m, 1 <= j <= n); digits at level i >= m are the
generator values at the base point.  The Teichmuller box has all generators
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import BudgetError, ValidationError
from .fqfield import FieldParams, GRElem, fq_enumerate, from_index, polymul_mod
from .poly import FieldDomain, MultiPoly

TABLE_BUDGET = 1 << 20  # rows of the largest table box_from_table interpolates


@lru_cache(maxsize=1)
def box_variable_names(n: int, m: int):
    """Free digit variables, i-major then j, matching the file syntax."""
    return tuple(f"x[{i}][{j}]" for i in range(m) for j in range(1, n + 1))


@dataclass(frozen=True)
class BoxSpec:
    field: FieldParams
    n: int
    m: int
    generators: dict  # (i, j) -> reduced MultiPoly over F_q, i >= m only

    @property
    def variables(self):
        return box_variable_names(self.n, self.m)

    def base_size(self) -> int:
        return self.field.q ** (self.n * self.m)

    def generator(self, i: int, j: int) -> MultiPoly:
        """g[i][j] for i >= m; unspecified generators are zero."""
        if i < self.m:
            raise ValidationError("digits below m are free variables, not generators")
        g = self.generators.get((i, j))
        if g is None:
            return MultiPoly.zero(FieldDomain(self.field), self.variables)
        return g


def box_make(field: FieldParams, n: int, m: int, generators=None) -> BoxSpec:
    if n < 1 or m < 1:
        raise ValidationError("n and m must be positive")
    names = box_variable_names(n, m)
    dom = FieldDomain(field)
    clean = {}
    for (i, j), g in (generators or {}).items():
        if i < m or not (1 <= j <= n):
            raise ValidationError(f"generator index ({i},{j}) out of range (need i >= m, 1 <= j <= n)")
        if not isinstance(g, MultiPoly) or g.domain != dom:
            raise ValidationError(f"generator g[{i}][{j}] must be a polynomial over F_q")
        if g.variables != names:
            raise ValidationError(f"generator g[{i}][{j}] uses a foreign variable context")
        if not g.is_reduced():
            raise ValidationError(f"generator g[{i}][{j}] is not reduced (variable exponent > q-1)")
        if not g.is_zero():
            clean[(i, j)] = g
    return BoxSpec(field=field, n=n, m=m, generators=clean)


def teichmuller_box(field: FieldParams, n: int, m: int) -> BoxSpec:
    return box_make(field, n, m, {})


@dataclass(frozen=True)
class BoxPoint:
    base: tuple  # nm F_q elements, i-major then j
    digits: tuple  # n tuples of M' F_q elements each


def decode_base(spec: BoxSpec, index: int):
    """Base point for a base-space index (big-endian base-q over flattened digits)."""
    q = spec.field.q
    nm = spec.n * spec.m
    codes = []
    for _ in range(nm):
        codes.append(index % q)
        index //= q
    codes.reverse()
    return tuple(from_index(spec.field.ring, c) for c in codes)


def expand_point(spec: BoxSpec, base, precision: int) -> BoxPoint:
    names = spec.variables
    assignment = dict(zip(names, base))
    digits = []
    for j in range(1, spec.n + 1):
        col = []
        for i in range(precision):
            if i < spec.m:
                col.append(base[i * spec.n + (j - 1)])
            else:
                col.append(spec.generator(i, j).evaluate(assignment))
        digits.append(tuple(col))
    return BoxPoint(base=tuple(base), digits=tuple(digits))


def box_enumerate(spec: BoxSpec, precision: int):
    """Stream the q^{nm} points with digits computed up to the given precision."""
    if precision < spec.m:
        raise ValidationError("precision must be at least m")
    for index in range(spec.base_size()):
        yield expand_point(spec, decode_base(spec, index), precision)


def closeness_check(spec: BoxSpec, m_prime: int):
    """Degree test for B_m ~^{m'} T_m: deg g[i][j] <= p^(h*floor(i/h)) for i < m'.

    Indices below m are degree-1 variables and always pass, and a missing
    generator is zero, so only the stored generators are read.  Returns the
    verdict plus every violation as (i, j, degree, limit), in (i, j) order.
    """
    p = spec.field.p
    h = spec.field.h
    violations = []
    for (i, j), g in sorted(spec.generators.items()):
        if i < m_prime:
            limit = p ** (h * (i // h))
            deg = g.total_degree()
            if deg > limit:
                violations.append((i, j, deg, limit))
    return (not violations), violations


def box_from_table(field: FieldParams, n: int, m: int, precision: int, table) -> BoxSpec:
    """Recover the unique reduced generators from a full enumeration table.

    `table` is an iterable of (base, digits) pairs shaped like BoxPoint
    contents, one per element of F_q^{nm}.  The values of each generator form
    an array over F_q^{nm}, which a separable transform turns into the
    coefficients of its reduced interpolant, one variable axis at a time:
    along an axis with values v(a), a in F_q, the interpolant
    sum_a v(a) * (1 - (x - a)^(q-1)) has c_0 = v(0) and
    c_k = -sum_a v(a) * a^(q-1-k) for 1 <= k <= q-1, with 0^0 = 1.  For
    q = 2 this is the binary Moebius transform.  The cost is O(nm q^{nm+1})
    field operations in O(q^{nm}) memory plus O(q) scratch.
    """
    q = field.q
    nm = n * m
    expected = q ** nm
    if expected > TABLE_BUDGET:
        raise BudgetError(f"table of {expected} rows exceeds the budget {TABLE_BUDGET}")
    names = box_variable_names(n, m)
    dom = FieldDomain(field)
    rows = []
    seen = set()
    for base, digits in table:
        base = tuple(base)
        if len(base) != nm:
            raise ValidationError("base point has wrong arity")
        key = tuple(a.to_index() for a in base)
        if key in seen:
            raise ValidationError("duplicate base point in table")
        seen.add(key)
        digits = tuple(tuple(col) for col in digits)
        if len(digits) != n or any(len(col) != precision for col in digits):
            raise ValidationError("digit table has wrong shape")
        for j in range(1, n + 1):
            for i in range(m):
                if digits[j - 1][i] != base[i * n + (j - 1)]:
                    raise ValidationError("table digits below m disagree with the base point")
        index = 0  # the big-endian base-q index of decode_base
        for code in key:
            index = index * q + code
        rows.append((index, digits))
    if len(rows) != expected:
        raise ValidationError(f"table must have exactly {expected} rows, got {len(rows)}")

    generators = {}
    for i in range(m, precision):
        for j in range(1, n + 1):
            values = [None] * expected
            for index, digits in rows:
                values[index] = dom.coerce(digits[j - 1][i]).coeffs
            coords = _interpolate(field, [list(c) for c in zip(*values)], nm)
            terms = {}
            for index, coeffs in enumerate(zip(*coords)):
                if any(coeffs):
                    exps = []
                    for _ in range(nm):
                        index, e = divmod(index, q)
                        exps.append(e)
                    terms[tuple(reversed(exps))] = GRElem(field.ring, coeffs)
            generators[(i, j)] = MultiPoly(dom, names, terms)
    return box_make(field, n, m, generators)


def _interpolate(field: FieldParams, coords, nm: int):
    """Reduced-interpolant coefficients from values on F_q^{nm}.

    `coords` holds the h coordinate arrays over F_p of the values, indexed
    big-endian by the nm variable digits; the result is indexed the same way
    by exponent digits.  Each pass transforms the last axis and moves it to
    the front, so after nm passes every axis is done and back in place.
    Multiplying by a fixed w in F_q is an F_p-linear map on the coordinates,
    so every pass is F_p-linear combinations of whole slices.
    """
    p, q, h, modulus = field.p, field.q, field.h, field.modulus
    elements = [a.coeffs for a in fq_enumerate(field)]
    basis = [tuple(int(r == s) for r in range(h)) for s in range(h)]

    def negated_sum(weights, planes):
        """-sum_a weights[a] * planes[a], one list per coordinate.

        weights[1] = 1 puts a term in every coordinate.
        """
        pairs = [[] for _ in range(h)]
        for w, plane in zip(weights, planes):
            if any(w):
                for s in range(h):
                    column = polymul_mod(modulus, p, w, basis[s])  # w * t^s
                    for r in range(h):
                        c = -column[r] % p
                        if c:
                            pairs[r].append((c, plane[s]))
        out = []
        for r_pairs in pairs:
            cs = [c for c, _ in r_pairs]
            out.append([sum(map(mul, cs, col)) % p for col in zip(*[v for _, v in r_pairs])])
        return out

    for _ in range(nm):
        planes = [[coord[a::q] for coord in coords] for a in range(q)]
        blocks = [planes[0]] + [None] * (q - 1)  # c_0 = v(0)
        powers = [basis[0]] * q  # a^(q-1-k), from k = q-1 down to k = 1
        for k in range(q - 1, 0, -1):
            blocks[k] = negated_sum(powers, planes)
            powers = [polymul_mod(modulus, p, w, a) for w, a in zip(powers, elements)]
        coords = [[x for block in blocks for x in block[r]] for r in range(h)]
    return coords
