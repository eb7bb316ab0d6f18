"""Universal Witt polynomials: w_k, the r-fold sum/product coordinates
S_n^(r) and M_n^(r), their digit-twisted variants, and the ghost-identity
checker.

The r-fold coordinates are computed directly from the r-fold ghost recursion

    P_n = (1/p^n) * (G_n - sum_{i<n} p^i P_i^{p^(n-i)}),

where G_n is the sum (resp. product) of the ghost components of the r
argument vectors.  The division is exact over Z for prime p; a remainder
means p is not prime or the arithmetic is broken, and aborts loudly.

The recursion runs on packed exponent keys (see `poly._pack`) in one slot
layout per call, wide enough for p^n, the largest exponent any of its terms
reaches.  The sum keeps the terms of a key in one row (Kronecker
substitution): x0r's slot stays empty, x01's holds e01 + e0r, and c x^e adds
c * 2^(W*e0r) to the key's row.  As (e01, e0r) -> (e01 + e0r, e0r) is
unimodular, one multiplication of rows is exactly a row of term products.
The product keeps one coefficient per key: M_k is homogeneous in each
argument, so the other digits of arguments 1 and r fix e01 and e0r.
"""

from __future__ import annotations

import sys
from functools import lru_cache, partial
from operator import lshift

from .errors import BudgetError, ConfigError, ExactDivisionError, ValidationError
from .fqfield import power
from .poly import ZZ, _merge, _pack, _packed_mul, _raw, _slots, _top

SUM = "sum"
PRODUCT = "product"
# A product of the recursion, powers included, is refused before it is
# expanded when its factors' terms make more than MAX_WITT_PAIRS pairs, or
# when the pairs of all products of one recursion or ghost check would pass
# MAX_WITT_TOTAL.  The (p, n, r) = (5, 3, 3) product peaks at 197 * 144722
# pairs and takes 30-35 s on a 2-core VM, as term by term; the (5, 3, 3)
# sum needs 15939^2 for P_1^16.
MAX_WITT_PAIRS = 1 << 25
MAX_WITT_TOTAL = 1 << 26
_REFUSAL = f"the Witt recursion needs a product of more than {MAX_WITT_PAIRS} term pairs"
_TOTAL_REFUSAL = f"the Witt recursion needs more than {MAX_WITT_TOTAL} term pairs in all"


def _budget():
    """The product a * b of one recursion's rows, of `terms(a) * terms(b)` term
    pairs, refused past `MAX_WITT_PAIRS`, or past `MAX_WITT_TOTAL` in all."""
    spent = 0

    def product(a, b, terms):
        nonlocal spent
        na = terms(a)
        pairs = na * (na if b is a else terms(b))
        spent += pairs
        if pairs > MAX_WITT_PAIRS:
            raise BudgetError(_REFUSAL)
        if spent > MAX_WITT_TOTAL:
            raise BudgetError(_TOTAL_REFUSAL)
        return _packed_mul(a, b)
    return product


def _field_width(p, k, r, kind, polys):
    """W for step k, polys P_0..P_(k-1) or P_0..P_k: for the sum, the least
    multiple of 64 with 2^(W-1) above L1(G_k) + sum_i p^i L1(P_i)^(p^(k-i)),
    which bounds every coefficient of the step; 0 for the product."""
    if kind == PRODUCT:
        return 0
    bound = r * sum(p ** i for i in range(k + 1)) + sum(
        p ** i * sum(map(abs, f.terms.values())) ** p ** (k - i) for i, f in enumerate(polys))
    return 64 * (bound.bit_length() // 64 + 1)


class _Rows:
    """Terms in rows of signed fields `width` bits wide, or one coefficient
    per key when `width` is 0."""

    __slots__ = ("shifts", "mask", "width", "last", "lift", "half", "bias")

    def __init__(self, slots, r, width):
        self.shifts, self.mask = slots
        self.width, self.last = width, r - 1
        self.lift = (1 << slots[0][0]) - (1 << slots[0][r - 1])
        self.half = 1 << width >> 1
        self.bias = self.half.to_bytes(width // 8, "little")

    def encode(self, terms):
        """{row key: row} of a tuple-keyed term dict."""
        shifts, last, lift, width = self.shifts, self.last, self.lift, self.width
        if not width:
            return _pack(terms, (shifts, self.mask))
        rows = {}
        for exps, c in terms.items():
            e = exps[last]
            key = sum(map(lshift, exps, shifts)) + e * lift
            rows[key] = rows.get(key, 0) + (c << width * e)
        return rows

    def unit(self, index):
        """The variable in slot `index`."""
        return self.encode({tuple(int(i == index) for i in range(len(self.shifts))): 1})

    def fields(self, row):
        """[(e0r, c)] for the nonzero fields of a row, e0r from 0 up."""
        half, width = self.half, self.width
        if not width or -half < row < half:
            return [(0, row)]
        count = row.bit_length() // width + 1
        raw = (row + int.from_bytes(self.bias * count, "little")).to_bytes(count * width // 8, "little")
        step = width // 8
        words = (memoryview(raw).cast("Q") if width == 64 and sys.byteorder == "little" else
                 [int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step)])
        return [(e, w - half) for e, w in enumerate(words) if w != half]

    def terms(self, rows):
        """The number of terms the rows hold."""
        return sum(len(self.fields(row)) for row in rows.values()) if self.width else len(rows)

    def divide(self, rows, d):
        """{exponent tuple: coefficient / d} of the terms the rows hold; every
        coefficient must be divisible, and the first that is not is named."""
        shifts, mask, last, half, out = self.shifts, self.mask, self.last, self.half, {}
        for key, row in rows.items():
            if not half or -half < row < half:
                q, rem = divmod(row, d)
                if not rem:
                    out[tuple([(key >> s) & mask for s in shifts])] = q
                    continue
            exps = [(key >> s) & mask for s in shifts]
            top = exps[0]
            for e, c in self.fields(row):
                q, rem = divmod(c, d)
                if rem:
                    raise ExactDivisionError(f"coefficient {c} not divisible by {d}")
                if e:
                    exps[0], exps[last] = top - e, e
                out[tuple(exps)] = q
        return out


def witt_variable_names(n: int, r: int):
    """Variable context for S/M generation, ordered by (i, j)."""
    return tuple(witt_var(r, i, j) for i in range(n + 1) for j in range(1, r + 1))


def witt_var(r: int, i: int, j: int) -> str:
    """Digit i of argument j of an r-fold operation: the classical X_i/Y_i
    when r = 2, and x<i><j> for higher folds."""
    if r == 2:
        return f"X{i}" if j == 1 else f"Y{i}"
    return f"x{i}{j}"


def _witt_sum(p: int, k: int, xs, product):
    """sum_i p^i xs[i]^(p^(k-i)) on rows: the Witt polynomial w_k at
    xs[0..k], or the first len(xs) of its terms."""
    total = {}
    for i, x in enumerate(xs):
        scale = p ** i
        _merge(total, ((key, scale * c) for key, c in power(x, p ** (k - i), product).items()), 0)
    return total


@lru_cache(maxsize=None)
def witt_op_polys(p: int, n: int, r: int, kind: str):
    """The coordinates [P_0^(r), ..., P_n^(r)] of the r-fold Witt sum/product."""
    if n < 0 or r < 2:
        raise ValidationError("need n >= 0 and r >= 2")
    if p < 2:
        raise ValidationError("need p >= 2")
    if kind not in (SUM, PRODUCT):
        raise ValidationError(f"unknown kind {kind!r}")
    names = witt_variable_names(n, r)
    slots, product = _slots(len(names), p ** n), _budget()
    polys = []
    for k in range(n + 1):
        rows = _Rows(slots, r, _field_width(p, k, r, kind, polys))
        mul = partial(product, terms=rows.terms)
        g = _ghost_combination(p, k, r, kind, rows, mul)
        _merge(g, ((key, -c) for key, c in
                   _witt_sum(p, k, [rows.encode(f.terms) for f in polys], mul).items()), 0)
        polys.append(_raw(ZZ, names, rows.divide(g, p ** k)))
    return tuple(polys)


def _ghost_combination(p, k, r, kind, rows, product):
    """G_k in `rows`: the sum (resp. product) of the k-th ghost components of
    the r arguments, digit i of argument j (from 0) in slot i * r + j."""
    ghosts = [_witt_sum(p, k, [rows.unit(i * r + j) for i in range(k + 1)], product)
              for j in range(r)]
    if kind == SUM:
        g = {}
        for gh in ghosts:
            _merge(g, gh.items(), 0)
    else:
        g = {0: 1}
        for gh in ghosts:
            g = product(g, gh)
    return g


@lru_cache(maxsize=None)
def twisted_digit_polys(p: int, n: int, r: int, kind: str):
    """s_n^(r) / m_n^(r): substitute x_ij -> x_ij^(p^i) in the S/M coordinates."""
    polys = witt_op_polys(p, n, r, kind)
    factors = {}
    for i in range(n + 1):
        for j in range(1, r + 1):
            factors[witt_var(r, i, j)] = p ** i
    return tuple(poly.scale_exponents(factors) for poly in polys)


def ghost_identity_holds(p: int, n: int, r: int, kind: str, polys) -> bool:
    """Whether w_k(P_0..P_k) equals the sum/product of ghost components for all k <= n.

    The slots hold top(polys) * p^n, the largest exponent of w_k(P_0..P_k),
    so a term of a mutated P_i cannot carry into another variable's slot.
    The inputs are encoded once, in the fields of step n, the widest.
    """
    names = witt_variable_names(n, r)
    if len(polys) != n + 1:
        raise ConfigError(f"need {n + 1} polynomials P_0..P_{n}, got {len(polys)}")
    if any(f.domain != ZZ or f.variables != names for f in polys):
        raise ConfigError("polynomials from different contexts")
    slots = _slots(len(names), max(1, *(_top(f.terms) for f in polys)) * p ** n)
    rows = _Rows(slots, r, _field_width(p, n, r, kind, polys))
    xs, product = [rows.encode(f.terms) for f in polys], partial(_budget(), terms=rows.terms)
    return all(_witt_sum(p, k, xs[:k + 1], product) == _ghost_combination(p, k, r, kind, rows, product)
               for k in range(n + 1))


def ghost_check(p: int, n: int, r: int, kind: str) -> bool:
    return ghost_identity_holds(p, n, r, kind, witt_op_polys(p, n, r, kind))
