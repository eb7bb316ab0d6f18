"""The finite field F_q with q = p^h, realized as F_p[t]/(phi), and the ring
elements of GR(p^M, h) = (Z/p^M)[t]/(phi), of which F_q is the case M = 1.

Elements are coefficient tuples of length h (ascending powers of t).  The
modulus is validated for irreducibility at construction time by Rabin's
test; a silently reducible modulus would corrupt every downstream count.
"""

from __future__ import annotations

from functools import cached_property, partial
from operator import attrgetter

from .errors import BudgetError, ConfigError, ValidationError

_set = object.__setattr__  # how a frozen record's __init__ sets its fields


class _Record:
    """Equality, hashing and repr over the attributes named in `_fields`, in
    that order, as a dataclass gives them, but compiled once, not per class
    at every import (see `poly`); subclasses write their `__init__`."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        if cls._fields:  # not on the `_Frozen` base
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A record that refuses assignment; `__init__` sets fields with `_set`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

# Built-in irreducible moduli for the extension sizes used at desk scale.
# Users may override any of these by passing an explicit modulus.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),  # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),  # t^3 + t + 1
    (3, 2): (1, 0, 1),  # t^2 + 1
    (5, 2): (2, 0, 1),  # t^2 + 2
}


# Miller-Rabin with the twelve primes up to 37 is deterministic below this
# bound (Sorenson and Webster, Math. Comp. 2017); larger p are refused, and
# no such p is in scope for exact enumeration anyway.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461

# Rabin's test takes h Frobenius powers of about h^2 operations each, seconds
# past this degree, so a modulus of larger degree is refused untested.
MAX_MODULUS_DEGREE = 256


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below `_MR_LIMIT`."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _polydeg(c):
    for i in range(len(c) - 1, -1, -1):
        if c[i]:
            return i
    return -1


def polymul_mod(modulus, mod, a, b):
    """a*b in (Z/mod)[t]/(modulus) for length-h ascending coefficient vectors.

    The one multiply-and-reduce routine: F_q is the case mod = p and
    GR(p^M, h) the case mod = p^M.  `modulus` is monic of degree h; the
    result is a tuple of h residues in [0, mod).
    """
    h = len(modulus) - 1
    if h == 1:
        return (a[0] * b[0] % mod,)
    prod_ = [0] * (2 * h - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod_[i + j] += ai * bj
    for d in range(2 * h - 2, h - 1, -1):
        lead = prod_[d] % mod
        if lead:
            for i in range(h):
                prod_[d - h + i] -= lead * modulus[i]
    return tuple([c % mod for c in prod_[:h]])


def power(value, e, mul):
    """value^e for e >= 1 by square-and-multiply under the product `mul`; ring
    elements, packed polynomials, kernel ints and degree profiles all use it."""
    result = None
    while True:
        if e & 1:
            result = value if result is None else mul(result, value)
        e >>= 1
        if not e:
            return result
        value = mul(value, value)


def _polyrem(a, b, p):
    """a mod b over F_p, for b with a nonzero leading coefficient."""
    rem = [x % p for x in a]
    bdeg = _polydeg(b)
    inv_lead = pow(b[bdeg], p - 2, p)
    while _polydeg(rem) >= bdeg:
        d = _polydeg(rem)
        factor = (rem[d] * inv_lead) % p
        for i in range(bdeg + 1):
            rem[d - bdeg + i] = (rem[d - bdeg + i] - factor * b[i]) % p
    return rem


def _coprime(a, b, p):
    """Whether gcd(a, b) = 1 over F_p (Euclid's algorithm)."""
    while _polydeg(b) >= 0:
        a, b = b, _polyrem(a, b, p)
    return _polydeg(a) == 0


def _prime_factors(n: int):
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]


def _is_irreducible(modulus, p):
    """Rabin's test for a `modulus` of degree h over F_p.

    It is irreducible iff t^(p^h) = t mod modulus and, for every prime
    r | h, gcd(t^(p^(h/r)) - t, modulus) = 1.  The Frobenius powers of t
    are taken by square-and-multiply in F_p[t]/(modulus) on coefficient
    tuples, so the cost is polynomial in h and log p.
    """
    h = _polydeg(modulus)
    if h < 1:
        return False
    inv_lead = pow(modulus[h], p - 2, p)
    modulus = tuple(c * inv_lead % p for c in modulus[:h + 1])
    mul = partial(polymul_mod, modulus, p)
    t = tuple(_polyrem([0, 1] + [0] * h, modulus, p)[:h])
    frobenius = [t]  # frobenius[k] = t^(p^k)
    for _ in range(h):
        frobenius.append(power(frobenius[-1], p, mul))
    if frobenius[h] != t:
        return False
    return all(_coprime(modulus, [(a - b) % p for a, b in zip(frobenius[h // r], t)], p)
               for r in _prime_factors(h))


class FieldParams(_Frozen):
    _fields = ("p", "h", "modulus")  # modulus: ascending coefficients, length h+1, monic

    def __init__(self, p: int, h: int, modulus: tuple):
        _set(self, "p", p)
        _set(self, "h", h)
        _set(self, "modulus", modulus)

    @property
    def q(self) -> int:
        return self.p ** self.h

    @cached_property
    def ring(self) -> GRParams:
        """F_q as the Galois ring GR(p, h) of precision 1."""
        return GRParams(self, 1)


def field_params(p: int, h: int = 1, modulus=None) -> FieldParams:
    if p >= _MR_LIMIT:
        raise ValidationError(f"p={p} is beyond the proven range of the primality test")
    if not _is_prime(p):
        raise ValidationError(f"p={p} is not prime")
    if h < 1:
        raise ValidationError(f"h={h} must be >= 1")
    if modulus is None:
        if h == 1:
            modulus = (0, 1)  # plain t; irrelevant for prime fields
        elif (p, h) in DEFAULT_MODULI:
            modulus = DEFAULT_MODULI[(p, h)]
        else:
            raise ConfigError(f"no built-in modulus for (p,h)=({p},{h}); supply one")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != h + 1 or modulus[h] != 1:
        raise ValidationError("modulus must be monic of degree exactly h")
    if h > MAX_MODULUS_DEGREE:
        raise BudgetError(f"h={h} is beyond the largest modulus degree tested for "
                          f"irreducibility, {MAX_MODULUS_DEGREE}")
    if h > 1 and not _is_irreducible(modulus, p):
        raise ValidationError(f"modulus {modulus} is reducible over F_{p}")
    return FieldParams(p=p, h=h, modulus=modulus)


class GRParams(_Frozen):
    _fields = ("field", "precision")  # precision M >= 1

    def __init__(self, field: FieldParams, precision: int):
        _set(self, "field", field)
        _set(self, "precision", precision)
        if precision < 1:
            raise ValidationError("precision must be >= 1")

    @property
    def p(self):
        return self.field.p

    @property
    def h(self):
        return self.field.h

    @cached_property
    def char(self):
        """p^M; cached, since every element operation reads it."""
        return self.p ** self.precision


class GRElem(_Frozen):
    """An element of GR(p^M, h) = (Z/p^M)[t]/(phi); F_q is the case M = 1."""

    __slots__ = _fields = ("params", "coeffs")  # coeffs: length h, entries in [0, p^M - 1]

    def __init__(self, params: GRParams, coeffs: tuple):
        _set(self, "params", params)
        _set(self, "coeffs", coeffs)

    def __eq__(self, other):  # `_Record`'s, without its two tuples: polynomials test every term
        if type(other) is not GRElem:
            return NotImplemented
        return (self.params is other.params or self.params == other.params) and \
            self.coeffs == other.coeffs

    def __hash__(self):  # equal elements have equal coeffs
        return hash(self.coeffs)

    def _check(self, other):
        if self.params is not other.params and self.params != other.params:
            raise ConfigError("Galois ring mismatch")

    def __add__(self, other):
        self._check(other)
        mod = self.params.char
        return GRElem(self.params, tuple((a + b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        mod = self.params.char
        return GRElem(self.params, tuple((a - b) % mod for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        mod = self.params.char
        return GRElem(self.params, tuple((-a) % mod for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        params = self.params
        return GRElem(params, polymul_mod(params.field.modulus, params.char,
                                          self.coeffs, other.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValidationError("negative power of a ring element")
        if e == 0:
            return gr_one(self.params)
        return power(self, e, GRElem.__mul__)

    def _require_field(self, operation):
        if self.params.precision > 1:
            raise ValidationError(f"{operation} is defined on F_q only, not at precision "
                                  f"{self.params.precision}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_index(self) -> int:
        """Base-p^M integer encoding of the coefficient tuple (c_0 least significant)."""
        mod = self.params.char
        code = 0
        for c in reversed(self.coeffs):
            code = code * mod + c
        return code

    def frobenius(self, e: int = 1):
        self._require_field("the Frobenius")
        if e < 0:
            raise ValidationError("frobenius exponent must be >= 0")
        return self ** (self.params.p ** (e % self.params.h))

    def frobenius_inverse(self, e: int = 1):
        self._require_field("the Frobenius")
        if e < 0:
            raise ValidationError("frobenius exponent must be >= 0")
        return self.frobenius((-e) % self.params.h)

    def render(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"GRElem({self.render()} mod {self.params.char})"


def gr_zero(params: GRParams) -> GRElem:
    return GRElem(params, (0,) * params.h)


def gr_one(params: GRParams) -> GRElem:
    return GRElem(params, (1,) + (0,) * (params.h - 1))


def from_index(params: GRParams, code: int) -> GRElem:
    """The element whose `to_index` is `code`."""
    mod = params.char
    coeffs = []
    for _ in range(params.h):
        code, c = divmod(code, mod)
        coeffs.append(c)
    return GRElem(params, tuple(coeffs))


def gr_enumerate(params: GRParams):
    """All q^M elements in `to_index` order."""
    return [from_index(params, code) for code in range(params.char ** params.h)]


def fq(params: FieldParams, coeffs) -> GRElem:
    """Build an element of F_q from an integer or a coefficient list of length <= h."""
    if isinstance(coeffs, int):
        coeffs = [coeffs]
    coeffs = list(coeffs)
    if len(coeffs) > params.h:
        raise ValidationError(f"coefficient list longer than h={params.h}")
    coeffs += [0] * (params.h - len(coeffs))
    return GRElem(params.ring, tuple(c % params.p for c in coeffs))


def fq_enumerate(params: FieldParams):
    """All q elements, ordered by the base-p integer encoding of coefficients."""
    return gr_enumerate(params.ring)
