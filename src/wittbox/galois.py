"""The Galois ring GR(p^M, h) = (Z/p^M)[t]/(phi), Teichmuller lifting, the
digit codec, and Witt-coordinate digit arithmetic.

Two arithmetic paths coexist on purpose: direct polynomial arithmetic in GR
and the Witt-digit path through S/M coordinates with the Frobenius twist.
Each validates the other; the cross-check is a permanent test.
"""

from __future__ import annotations

from .errors import ConfigError, ValidationError
# GRParams and GRElem live in fqfield, which needs them for F_q.
from .fqfield import GRElem, GRParams, gr_zero
from .witt import witt_op_polys, witt_var
from .poly import FieldDomain


def int_to_gr(c: int, params: GRParams) -> GRElem:
    return GRElem(params, (c % params.char,) + (0,) * (params.h - 1))


def reduce_precision(y: GRElem, m: int) -> GRElem:
    if m > y.params.precision:
        raise ValidationError("cannot raise precision by reduction")
    params = GRParams(y.params.field, m)
    mod = params.char
    return GRElem(params, tuple(c % mod for c in y.coeffs))


def teichmuller_lift(a: GRElem, params: GRParams) -> GRElem:
    """The unique z with z = a mod p and z^q = z, via M-1 Frobenius iterations.

    Each z -> z^q step gains one digit of agreement with the fixed point, so
    exactly precision-1 iterations suffice; no fixed-point polling.
    """
    ring = params.field.ring
    if a.params is not ring and a.params != ring:
        raise ConfigError("field mismatch in Teichmuller lift")
    z = GRElem(params, a.coeffs)
    q = params.field.q
    for _ in range(params.precision - 1):
        z = z ** q
    return z


def to_digits(y: GRElem):
    """Teichmuller digit vector (a_0, ..., a_{M-1}) with y = sum tau(a_i) p^i.

    y - tau(a_0) is divisible by p over the integers, so digits are peeled off
    by exact division.  Level i needs agreement only mod p^(M-i), so a digit
    is lifted once, at the first level it occurs at."""
    params = y.params
    p = params.p
    digits = []
    lifts = {}
    coeffs = y.coeffs
    for i in range(params.precision):
        a = GRElem(params.field.ring, tuple(c % p for c in coeffs))
        digits.append(a)
        if a.coeffs not in lifts:
            lifts[a.coeffs] = teichmuller_lift(a, GRParams(params.field, params.precision - i)).coeffs
        coeffs = [(c - t) // p for c, t in zip(coeffs, lifts[a.coeffs])]
    return tuple(digits)


def from_digits(digits, params: GRParams) -> GRElem:
    if len(digits) != params.precision:
        raise ValidationError("digit vector length must equal the precision")
    acc = gr_zero(params)
    for i, d in enumerate(digits):
        acc = acc + teichmuller_lift(d, params) * int_to_gr(params.p ** i, params)
    return acc


def witt_digit_op(a, b, kind: str, params: GRParams):
    """Combine two digit vectors through the truncated Witt ring.

    Witt coordinates carry the Frobenius twist c_i = digit_i^(p^i); the S/M
    coordinate polynomials act on the twisted coordinates over F_q, and the
    results are untwisted by the i-fold inverse Frobenius.
    """
    if len(a) != len(b):
        raise ValidationError("digit vectors of different lengths")
    if len(a) != params.precision:
        raise ValidationError("digit vector length must equal the precision")
    m = params.precision
    p = params.p
    field = params.field
    polys = witt_op_polys(p, m - 1, 2, kind)
    assignment = {}
    for i in range(m):
        assignment[witt_var(m - 1, 2, i, 1)] = a[i].frobenius(i)
        assignment[witt_var(m - 1, 2, i, 2)] = b[i].frobenius(i)
    dom = FieldDomain(field)
    out = []
    for i, poly in enumerate(polys):
        value = poly.evaluate(assignment, coerce=dom.coerce)
        out.append(value.frobenius_inverse(i))
    return tuple(out)
