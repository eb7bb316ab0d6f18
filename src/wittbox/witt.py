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
reaches, and unpacks to `MultiPoly` once, for the result.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetError, ConfigError, ExactDivisionError, ValidationError
from .fqfield import power
from .poly import ZZ, _merge, _pack, _packed_mul, _slots, _top, _unpack

SUM = "sum"
PRODUCT = "product"
# A product of the recursion, powers included, is refused before it is
# expanded when its factors' terms make more than MAX_WITT_PAIRS pairs, or
# when the pairs of all products of one recursion or ghost check would pass
# MAX_WITT_TOTAL.  The (p, n, r) = (5, 3, 3) product peaks at 197 * 144722
# pairs and takes about 40 s; the (5, 3, 3) sum needs 15939^2 for P_1^16 and
# ran for many minutes.
MAX_WITT_PAIRS = 1 << 25
MAX_WITT_TOTAL = 1 << 26
_REFUSAL = f"the Witt recursion needs a product of more than {MAX_WITT_PAIRS} term pairs"
_TOTAL_REFUSAL = f"the Witt recursion needs more than {MAX_WITT_TOTAL} term pairs in all"


def _budget():
    """The product a * b on packed term dicts for one recursion, refused past
    `MAX_WITT_PAIRS` term pairs, or past `MAX_WITT_TOTAL` over all its calls."""
    spent = 0

    def product(a, b):
        nonlocal spent
        pairs = len(a) * len(b)
        spent += pairs
        if pairs > MAX_WITT_PAIRS:
            raise BudgetError(_REFUSAL)
        if spent > MAX_WITT_TOTAL:
            raise BudgetError(_TOTAL_REFUSAL)
        return _packed_mul(a, b)
    return product


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
    """sum_i p^i xs[i]^(p^(k-i)) on packed term dicts: the Witt polynomial w_k
    at xs[0..k], or the first len(xs) of its terms."""
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
        g = _ghost_combination(p, k, r, kind, slots[0], product)
        _merge(g, ((key, -c) for key, c in _witt_sum(p, k, polys, product).items()), 0)
        polys.append(_exact_div(g, p ** k))
    return tuple(_unpack(ZZ, names, poly, slots) for poly in polys)


def _exact_div(terms, d):
    """terms / d on a packed term dict; every coefficient must be divisible."""
    out = {}
    for key, c in terms.items():
        q, rem = divmod(c, d)
        if rem:
            raise ExactDivisionError(f"coefficient {c} not divisible by {d}")
        out[key] = q
    return out


def _ghost_combination(p, k, r, kind, shifts, product):
    """G_k on packed keys: the sum (resp. product) of the k-th ghost components
    of the r arguments, digit i of argument j (from 0) in the slot at
    shifts[i * r + j]."""
    ghosts = [_witt_sum(p, k, [{1 << shifts[i * r + j]: 1} for i in range(k + 1)], product)
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
    """
    names = witt_variable_names(n, r)
    if any(f.domain != ZZ or f.variables != names for f in polys):
        raise ConfigError("polynomials from different contexts")
    top = max((_top(f.terms) for f in polys), default=0)
    slots = _slots(len(names), max(top, 1) * p ** n)
    packed, product = [_pack(f.terms, slots) for f in polys], _budget()
    for k in range(n + 1):
        if (_witt_sum(p, k, packed[:k + 1], product)
                != _ghost_combination(p, k, r, kind, slots[0], product)):
            return False
    return True


def ghost_check(p: int, n: int, r: int, kind: str) -> bool:
    return ghost_identity_holds(p, n, r, kind, witt_op_polys(p, n, r, kind))
