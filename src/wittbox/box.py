"""Boxes B_m in Z_q^n: representation by reduced generator polynomials,
enumeration, closeness checking, and interpolation from value tables.

A box is described by generators g[i][j] over F_q in the nm free digit
variables x[i][j] (i < m, 1 <= j <= n); digits at level i >= m are the
generator values at the base point.  The Teichmuller box has all generators
zero.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, is_, itemgetter, mul

from .errors import BudgetError, ValidationError
from .fqfield import (
    FieldParams, GRElem, _Frozen, _prime_factors, _set, fq_enumerate, polymul_mod, power)
from .poly import FieldDomain, MultiPoly

TABLE_BUDGET = 1 << 20  # rows of the largest table box_from_table interpolates
# multiply-adds nm * q^(nm+1) * h^2 of its largest transform: q = 8191 at n = m = 1, the
# slowest shape accepted, takes 9-10 s on a 2-core VM
TRANSFORM_BUDGET = 1 << 26
_NATIVE = sys.byteorder  # of the machine words in `array('Q')`


@lru_cache(maxsize=1)
def box_variable_names(n: int, m: int):
    """Free digit variables, i-major then j, matching the file syntax."""
    return tuple(f"x[{i}][{j}]" for i in range(m) for j in range(1, n + 1))


class BoxSpec(_Frozen):
    __slots__ = _fields = ("field", "n", "m", "generators")
    __hash__ = None  # generators is a dict

    def __init__(self, field: FieldParams, n: int, m: int, generators: dict):
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "generators", generators)  # (i, j) -> reduced MultiPoly over F_q, i >= m only

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


class BoxPoint(_Frozen):
    __slots__ = _fields = ("base", "digits")

    def __init__(self, base: tuple, digits: tuple):
        _set(self, "base", base)  # nm F_q elements, i-major then j
        _set(self, "digits", digits)  # n tuples of M' F_q elements each


def decode_base(spec: BoxSpec, index: int, elements):
    """Base point for a base-space index (big-endian base-q over flattened digits);
    `elements`, as `fq_enumerate` lists them, are shared by points and digits."""
    q = spec.field.q
    codes = [index // q ** k % q for k in reversed(range(spec.n * spec.m))]
    return tuple(map(elements.__getitem__, codes))


def expand_point(spec: BoxSpec, base, precision: int, elements) -> BoxPoint:
    names = spec.variables
    assignment = dict(zip(names, base))
    digits = []
    for j in range(1, spec.n + 1):
        col = []
        for i in range(precision):
            if i < spec.m:
                col.append(base[i * spec.n + (j - 1)])
            else:
                value = spec.generator(i, j).evaluate(assignment)
                col.append(elements[value.to_index()])
        digits.append(tuple(col))
    return BoxPoint(base=tuple(base), digits=tuple(digits))


def box_enumerate(spec: BoxSpec, precision: int):
    """Stream the q^{nm} points with digits computed up to the given precision."""
    if precision < spec.m:
        raise ValidationError("precision must be at least m")
    elements = fq_enumerate(spec.field)  # every digit of every point is one of these
    for index in range(spec.base_size()):
        yield expand_point(spec, decode_base(spec, index, elements), precision, elements)


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
    contents, one per element of F_q^{nm}.  Each row is checked and filed at
    its base's index; each generator's values, in index order, are
    interpolated as machine words (`_transform`).  Python runs once per row
    and once per term, not once per table entry.  Memory is O(q^{nm}) words.
    """
    q = field.q
    nm = n * m
    expected = q ** nm
    if expected > TABLE_BUDGET:
        raise BudgetError(f"table of {expected} rows exceeds the budget {TABLE_BUDGET}")
    work = nm * q ** (nm + 1) * field.h ** 2
    if work > TRANSFORM_BUDGET:
        raise BudgetError(f"interpolating {expected} rows takes {work} multiply-adds, "
                          f"past the budget {TRANSFORM_BUDGET}")
    dom = FieldDomain(field)
    rows = [(tuple(base), tuple(map(tuple, digits))) for base, digits in table]
    if any(len(base) != nm for base, _ in rows):
        raise ValidationError("base point has wrong arity")
    by_index = [None] * expected  # the digits of each row, at the index of its base
    for index, (base, digits) in zip(_base_indices(dom, [base for base, _ in rows], nm), rows):
        if by_index[index] is not None:
            raise ValidationError("duplicate base point in table")
        by_index[index] = digits
        if len(digits) != n or any(len(col) != precision for col in digits):
            raise ValidationError("digit table has wrong shape")
        if any(col[:m] != base[j::n] for j, col in enumerate(digits)):
            raise ValidationError("table digits below m disagree with the base point")
    if len(rows) != expected:
        raise ValidationError(f"table must have exactly {expected} rows, got {len(rows)}")

    names = box_variable_names(n, m)
    interpolate = _transform(field, nm)
    place = [q ** e for e in reversed(range(nm))]  # of each exponent digit in an index
    generators = {}
    for i in range(m, precision):
        for j in range(n):
            coords = interpolate(_coordinates(dom, [digits[j][i] for digits in by_index]))
            terms = {}
            for at in compress(count(), map(any, zip(*coords))):
                exps = tuple(at // w % q for w in place)
                terms[exps] = GRElem(field.ring, tuple(coord[at] for coord in coords))
            generators[(i, j + 1)] = MultiPoly(dom, names, terms)
    return box_make(field, n, m, generators)


def _coordinates(dom: FieldDomain, elements):
    """The h coordinate arrays ('Q') over F_p of a list of F_q elements; a
    list with other objects goes through `coerce`, which refuses them."""
    ring = dom.params.ring
    rings = map(getattr, elements, repeat("params"), repeat(None))  # None for a non-element
    if not all(map(is_, rings, repeat(ring))):
        elements = [dom.coerce(a) for a in elements]
    coeffs = list(map(attrgetter("coeffs"), elements))
    return [array("Q", map(itemgetter(r), coeffs)) for r in range(ring.h)]


def _base_indices(dom: FieldDomain, bases, nm: int):
    """The big-endian base-q index of each base point, as in `decode_base`:
    coordinate r of variable v in every row is read as one integer of 64-bit
    fields, and these times p^r * q^(nm-1-v) sum to each row's index."""
    p, q = dom.params.p, dom.params.q
    total = 0
    for r, coord in enumerate(_coordinates(dom, list(chain.from_iterable(bases)))):
        for v in range(nm):
            total += p ** r * q ** (nm - 1 - v) * int.from_bytes(coord[v::nm], _NATIVE)
    return array("Q", total.to_bytes(8 * len(bases), _NATIVE))


def _transform(field: FieldParams, nm: int):
    """The reduced-interpolant transform on h coordinate arrays ('Q') over F_p
    of values on F_q^{nm}, indexed big-endian by variable (then exponent) digits.

    Along an axis, sum_a v(a) (1 - (x - a)^(q-1)) has c_0 = v(0) and
    c_k = -sum_a v(a) a^(q-1-k) for k >= 1, with 0^0 = 1.  For a = g^l, g
    primitive, coordinate r of -a^j t^s is the weight neg[r][s][l*j mod q-1]
    in [0, p).  A pass reads each plane arr[a::q] of the last axis as one
    integer of 64-bit fields (each below q h p^2 <= q^3 < 2^64 under
    TABLE_BUDGET) and sums plane * weight per block; blocks reduced mod p and
    joined in k order put the axis in front, so nm passes do every axis.
    """
    p, q, h, order = field.p, field.q, field.h, field.q - 1
    times = partial(polymul_mod, field.modulus, p)
    code = {a.coeffs: c for c, a in enumerate(fq_enumerate(field))}
    one = (1,) + (0,) * (h - 1)
    g = next(a for a in code if any(a) and all(
        power(a, order // f, times) != one for f in _prime_factors(order)))
    powers = list(accumulate(repeat(g, order - 1), times, initial=one))  # g^l, 0 <= l < q-1
    planes = [code[a] for a in powers]  # plane l holds the values at g^l
    basis = [tuple(int(r == s) for r in range(h)) for s in range(h)]  # t^s
    neg = [[[-times(a, t)[r] % p for a in powers] for t in basis] for r in range(h)]  # -g^e t^s
    words = q ** (nm - 1)  # in one plane
    lsb = int.from_bytes(array("Q", [1] * words), _NATIVE)

    def reduced(total):  # a block's fields mod p, as bytes
        if p == 2:
            return (total & lsb).to_bytes(8 * words, _NATIVE)
        fields = array("Q", total.to_bytes(8 * words, _NATIVE))
        return array("Q", map(p.__rmod__, fields)).tobytes()

    def interpolate(coords):
        for _ in range(nm):
            ints = [[int.from_bytes(c[a::q], _NATIVE) for a in planes] for c in coords]
            zeros = [c[0::q] for c in coords]
            blocks = [[z.tobytes()] for z in zeros]  # c_0 = v(0)
            for j in range(order - 1, -1, -1):  # k = q-1-j from 1 up
                exponents = [l * j % order for l in range(order)]
                for r, out in enumerate(blocks):
                    total = (p - 1) * int.from_bytes(zeros[r], _NATIVE) if j == 0 else 0  # 0^0 = 1
                    for s in range(h):
                        total += sum(map(mul, map(neg[r][s].__getitem__, exponents), ints[s]))
                    out.append(reduced(total))
            coords = [array("Q", b"".join(out)) for out in blocks]
        return coords
    return interpolate
