"""Universal Witt polynomials: w_k, the r-fold sum/product coordinates
S_n^(r) and M_n^(r), their digit-twisted variants, and the ghost-identity
checker.

The r-fold coordinates are computed directly from the r-fold ghost recursion

    P_n = (1/p^n) * (G_n - sum_{i<n} p^i P_i^{p^(n-i)}),

where G_n is the sum (resp. product) of the ghost components of the r
argument vectors.  The division is exact over Z; a remainder would mean the
polynomial arithmetic itself is broken and aborts loudly.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BudgetError, ValidationError
from .fqfield import power
from .poly import MultiPoly, ZZ

SUM = "sum"
PRODUCT = "product"
# A product of the recursion, powers included, is refused before it is
# expanded when its factors' terms make more than this many pairs.  The
# (p, n, r) = (5, 3, 3) product peaks at 197 * 144722 pairs and takes about a
# minute; the (5, 3, 3) sum needs 15939^2 for P_1^16 and ran for many minutes.
MAX_WITT_PAIRS = 1 << 25
_REFUSAL = f"the Witt recursion needs a product of more than {MAX_WITT_PAIRS} term pairs"


def _checked_mul(f, g):
    if len(f.terms) * len(g.terms) > MAX_WITT_PAIRS:
        raise BudgetError(_REFUSAL)
    return f * g


def witt_variable_names(n: int, r: int):
    """Variable context for S/M generation, ordered by (i, j).

    The two-fold case uses the classical X_i/Y_i names; higher folds use
    x<i><j>.
    """
    if r == 2:
        names = []
        for i in range(n + 1):
            names.append(f"X{i}")
            names.append(f"Y{i}")
        return tuple(names)
    return tuple(f"x{i}{j}" for i in range(n + 1) for j in range(1, r + 1))


def witt_var(n: int, r: int, i: int, j: int) -> str:
    if r == 2:
        return f"X{i}" if j == 1 else f"Y{i}"
    return f"x{i}{j}"


def _witt_sum(p: int, k: int, xs, names) -> MultiPoly:
    """sum_i p^i xs[i]^(p^(k-i)): the Witt polynomial w_k at xs[0..k], or the
    first len(xs) of its terms."""
    total = MultiPoly.zero(ZZ, names)
    for i, x in enumerate(xs):
        total = total + power(x, p ** (k - i), _checked_mul) * (p ** i)
    return total


@lru_cache(maxsize=None)
def witt_op_polys(p: int, n: int, r: int, kind: str):
    """The coordinates [P_0^(r), ..., P_n^(r)] of the r-fold Witt sum/product."""
    if n < 0 or r < 2:
        raise ValidationError("need n >= 0 and r >= 2")
    if kind not in (SUM, PRODUCT):
        raise ValidationError(f"unknown kind {kind!r}")
    names = witt_variable_names(n, r)
    polys = []
    for k in range(n + 1):
        g = _ghost_combination(p, k, n, r, kind, names) - _witt_sum(p, k, polys[:k], names)
        polys.append(g.exact_div_int(p ** k))
    return tuple(polys)


def _ghost_combination(p, k, n, r, kind, names):
    """G_k: the sum (resp. product) of the k-th ghost components of the r arguments."""
    ghosts = [_witt_sum(p, k, [MultiPoly.variable(ZZ, names, witt_var(n, r, i, j))
                               for i in range(k + 1)], names)
              for j in range(1, r + 1)]
    if kind == SUM:
        g = MultiPoly.zero(ZZ, names)
        for gh in ghosts:
            g = g + gh
    else:
        g = MultiPoly.constant(ZZ, names, 1)
        for gh in ghosts:
            g = _checked_mul(g, gh)
    return g


@lru_cache(maxsize=None)
def twisted_digit_polys(p: int, n: int, r: int, kind: str):
    """s_n^(r) / m_n^(r): substitute x_ij -> x_ij^(p^i) in the S/M coordinates."""
    polys = witt_op_polys(p, n, r, kind)
    names = witt_variable_names(n, r)
    factors = {}
    for i in range(n + 1):
        for j in range(1, r + 1):
            factors[witt_var(n, r, i, j)] = p ** i
    return tuple(poly.scale_exponents(factors) for poly in polys)


def ghost_identity_holds(p: int, n: int, r: int, kind: str, polys) -> bool:
    """Whether w_k(P_0..P_k) equals the sum/product of ghost components for all k <= n."""
    names = witt_variable_names(n, r)
    for k in range(n + 1):
        if _witt_sum(p, k, polys[:k + 1], names) != _ghost_combination(p, k, n, r, kind, names):
            return False
    return True


def ghost_check(p: int, n: int, r: int, kind: str) -> bool:
    return ghost_identity_holds(p, n, r, kind, witt_op_polys(p, n, r, kind))
