"""Universal Witt polynomials: w_k, the r-fold sum/product coordinates
S_n^(r) and M_n^(r), their digit-twisted variants, and the ghost-identity
checker.

The r-fold coordinates are computed directly from the r-fold ghost recursion

    P_n = (1/p^n) * (G_n - sum_{i<n} p^i P_i^{p^(n-i)}),

where G_n is the sum (resp. product) of the ghost components of the r
argument vectors.  The division is exact over Z for prime p; a remainder
means p is not prime or the arithmetic is broken, and aborts loudly.

The recursion runs on the packed keys of `poly` in the layout for p^n, the
largest exponent it forms, and returns its coordinates in that layout.  The
sum keeps the terms of a key in one row (Kronecker substitution): x0r's slot
stays empty, x01's holds e01 + e0r, and c x^e adds c * 2^(W*e0r) to the
key's row.  As (e01, e0r) -> (e01 + e0r, e0r) is
unimodular, one multiplication of rows is exactly a row of term products.
The product keeps one coefficient per key: M_k is homogeneous in each
argument, so the other digits of arguments 1 and r fix e01 and e0r.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import chain

from .errors import BudgetError, ConfigError, ExactDivisionError, ValidationError
from .fqfield import power
from .poly import ZZ, _bound, _fields, _merge, _packed_mul, _raw, _terms_in, _width

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
    per key when `width` is 0, keyed in slots `slot` bits wide."""

    __slots__ = ("arity", "slot", "low", "mask", "width", "lift", "half", "read", "fill")

    def __init__(self, arity, slot, r, width):
        self.arity, self.slot, self.width = arity, slot, width
        self.low, self.mask = slot * (arity - r), (1 << slot) - 1
        self.lift = (1 << slot * (arity - 1)) - (1 << self.low)
        self.half = 1 << width >> 1
        self.read, _, self.fill = _fields(width // 8 or 1, "little")  # no fields at width 0

    def encode(self, terms):
        """{row key: row} of a term dict in this layout."""
        low, mask, lift, width = self.low, self.mask, self.lift, self.width
        if not width:
            return terms
        rows = {}
        for key, c in terms.items():
            e = key >> low & mask
            key += e * lift
            rows[key] = rows.get(key, 0) + (c << width * e)
        return rows

    def unit(self, index):
        """The variable in slot `index`."""
        return self.encode({1 << self.slot * (self.arity - 1 - index): 1})

    def words(self, row):
        """The fields of a row plus `half`, e0r from 0 up: a zero field reads `half`."""
        count = row.bit_length() // self.width + 1
        return self.read(row + self.fill(self.half, count), count)

    def terms(self, rows):
        """The number of terms the rows hold: a row within one field holds one,
        a wider row its words other than `half`."""
        if not self.width:
            return len(rows)
        wide = [self.words(row) for row in rows.values() if not -self.half < row < self.half]
        return len(rows) - len(wide) + sum(len(w) - w.count(self.half) for w in wide)

    def divide(self, rows, d):
        """{key: coefficient / d} of the terms the rows hold; every coefficient
        must be divisible, and the first that is not is named."""
        half, lift, out = self.half, self.lift, {}
        for key, row in rows.items():
            if not half or -half < row < half:
                q, rem = divmod(row, d)
                if not rem:
                    out[key] = q
                    continue
            fields = [w - half for w in self.words(row)] if half else [row]
            for e, c in enumerate(fields):
                q, rem = divmod(c, d)
                if rem:
                    raise ExactDivisionError(f"coefficient {c} not divisible by {d}")
                if c:
                    out[key - e * lift] = q
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
    slot, product = _width(p ** n), _budget()
    polys = []
    for k in range(n + 1):
        rows = _Rows(len(names), slot, r, _field_width(p, k, r, kind, polys))
        mul = partial(product, terms=rows.terms)
        g = _ghost_combination(p, k, r, kind, rows, mul)
        _merge(g, ((key, -c) for key, c in
                   _witt_sum(p, k, [rows.encode(f.terms) for f in polys], mul).items()), 0)
        polys.append(_raw(ZZ, names, rows.divide(g, p ** k), slot))
    return tuple(polys)


def _ghost_combination(p, k, r, kind, rows, product):
    """G_k in `rows`: the sum (resp. product) of the k-th ghost components of
    the r arguments, digit i of argument j (from 0) in slot i * r + j."""
    ghosts = [_witt_sum(p, k, [rows.unit(i * r + j) for i in range(k + 1)], product)
              for j in range(r)]
    if kind == SUM:
        return _merge({}, chain.from_iterable(gh.items() for gh in ghosts), 0)
    return reduce(product, ghosts, {0: 1})


@lru_cache(maxsize=None)
def twisted_digit_polys(p: int, n: int, r: int, kind: str):
    """s_n^(r) / m_n^(r): substitute x_ij -> x_ij^(p^i) in the S/M coordinates."""
    factors = {witt_var(r, i, j): p ** i for i in range(n + 1) for j in range(1, r + 1)}
    return tuple(poly.scale_exponents(factors) for poly in witt_op_polys(p, n, r, kind))


def ghost_identity_holds(p: int, n: int, r: int, kind: str, polys) -> bool:
    """Whether w_k(P_0..P_k) equals the sum/product of ghost components for all k <= n.

    Every exponent formed is at most max(p^n, max_i top(P_i) * p^(n-i)), so
    slots that hold it keep a mutated P_i from carrying into another slot.
    Inputs in one layout that holds it, as `witt_op_polys` returns them, are
    read as they are; others are repacked.  They are encoded once, in the
    fields of step n, the widest.
    """
    names = witt_variable_names(n, r)
    if len(polys) != n + 1:
        raise ConfigError(f"need {n + 1} polynomials P_0..P_{n}, got {len(polys)}")
    if any(f.domain != ZZ or f.variables != names for f in polys):
        raise ConfigError("polynomials from different contexts")
    top = max(p ** n, *(_bound(f) * p ** (n - i) for i, f in enumerate(polys)))
    slot = _width(top, polys[0].width if len({f.width for f in polys}) == 1 else 0)
    rows = _Rows(len(names), slot, r, _field_width(p, n, r, kind, polys))
    xs = [rows.encode(_terms_in(f, slot)) for f in polys]
    product = partial(_budget(), terms=rows.terms)
    return all(_witt_sum(p, k, xs[:k + 1], product) == _ghost_combination(p, k, r, kind, rows, product)
               for k in range(n + 1))


def ghost_check(p: int, n: int, r: int, kind: str) -> bool:
    return ghost_identity_holds(p, n, r, kind, witt_op_polys(p, n, r, kind))
