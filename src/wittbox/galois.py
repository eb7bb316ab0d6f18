"""The Galois ring GR(p^M, h) = (Z/p^M)[t]/(phi), Teichmuller lifting, the
digit codec, and Witt-coordinate digit arithmetic.

Two arithmetic paths coexist on purpose: direct polynomial arithmetic in GR
and the Witt-digit path through S/M coordinates with the Frobenius twist.
Each validates the other; the cross-check is a permanent test.
"""

from __future__ import annotations

from functools import partial

from .errors import ConfigError, ValidationError
# GRParams and GRElem live in fqfield, which needs them for F_q.
from .fqfield import GRElem, GRParams, gr_zero, polymul_mod, power
from .witt import twisted_digit_polys, witt_var
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
    """The unique z with z = a mod p and z^q = z, by Newton's step for
    z^(q-1) = 1, z -> z (q - z^(q-1)) / (q - 1), where q - 1 is a unit mod p.
    Each step doubles the digits of agreement, k -> min(2k, M)."""
    field = params.field
    if a.params is not field.ring and a.params != field.ring:
        raise ConfigError("field mismatch in Teichmuller lift")
    q = field.q
    z, k = a.coeffs, 1
    while k < params.precision:
        k = min(2 * k, params.precision)
        mod = field.p ** k
        mul = partial(polymul_mod, field.modulus, mod)
        inv = pow(q - 1, -1, mod)
        step = [-c * inv % mod for c in power(z, q - 1, mul)]
        step[0] = (step[0] + q * inv) % mod
        z = mul(z, step)
    return GRElem(params, z)


def to_digits(y: GRElem):
    """Teichmuller digit vector (a_0, ..., a_{M-1}) with y = sum tau(a_i) p^i.

    y - tau(a_0) is divisible by p over the integers, so digits are peeled off
    by exact division.  Each distinct digit is lifted once, at the full
    precision, which level i needs only mod p^(M-i)."""
    params = y.params
    p = params.p
    digits = []
    lifts = {}
    coeffs = y.coeffs
    for _ in range(params.precision):
        a = GRElem(params.field.ring, tuple(c % p for c in coeffs))
        digits.append(a)
        if a.coeffs not in lifts:
            lifts[a.coeffs] = teichmuller_lift(a, params).coeffs
        coeffs = [(c - t) // p for c, t in zip(coeffs, lifts[a.coeffs])]
    return tuple(digits)


def from_digits(digits, params: GRParams) -> GRElem:
    """sum tau(a_i) p^i, lifting each distinct nonzero digit once; tau(0) = 0."""
    if len(digits) != params.precision:
        raise ValidationError("digit vector length must equal the precision")
    acc, lifts = gr_zero(params), {}
    for i, d in enumerate(digits):
        if any(d.coeffs):
            if d not in lifts:
                lifts[d] = teichmuller_lift(d, params)
            acc = acc + lifts[d] * int_to_gr(params.p ** i, params)
    return acc


def witt_digit_op(a, b, kind: str, params: GRParams):
    """Combine two digit vectors through the truncated Witt ring.

    The twisted S/M polynomials s_i/m_i carry the Frobenius twist
    x_i -> x_i^(p^i) of the Witt coordinates; they act on the digits over
    F_q, and the results are untwisted by the i-fold inverse Frobenius.
    """
    if len(a) != len(b):
        raise ValidationError("digit vectors of different lengths")
    if len(a) != params.precision:
        raise ValidationError("digit vector length must equal the precision")
    m = params.precision
    assignment = {}
    for i in range(m):
        assignment[witt_var(2, i, 1)] = a[i]
        assignment[witt_var(2, i, 2)] = b[i]
    dom = FieldDomain(params.field)
    return tuple(poly.evaluate(assignment, coerce=dom.coerce).frobenius_inverse(i)
                 for i, poly in enumerate(twisted_digit_polys(params.p, m - 1, 2, kind)))
