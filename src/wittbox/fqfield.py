"""Arithmetic in the finite field F_q with q = p^h, realized as F_p[t]/(phi).

Elements are coefficient tuples of length h (ascending powers of t).  The
modulus is validated for irreducibility at construction time by Rabin's
test; a silently reducible modulus would corrupt every downstream count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, DomainError, ValidationError

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
    are taken by square-and-multiply in F_p[t]/(modulus), so the cost is
    polynomial in h and log p.
    """
    h = _polydeg(modulus)
    if h < 1:
        return False
    inv_lead = pow(modulus[h], p - 2, p)
    modulus = tuple(c * inv_lead % p for c in modulus[:h + 1])
    # FqElem arithmetic needs only a ring, which F_p[t]/(modulus) always is.
    t = FqElem(FieldParams(p, h, modulus), tuple(_polyrem([0, 1] + [0] * h, modulus, p)[:h]))
    frobenius = [t]  # frobenius[k] = t^(p^k)
    for _ in range(h):
        frobenius.append(frobenius[-1] ** p)
    if frobenius[h] != t:
        return False
    return all(_coprime(modulus, (frobenius[h // r] - t).coeffs, p) for r in _prime_factors(h))


@dataclass(frozen=True)
class FieldParams:
    p: int
    h: int
    modulus: tuple  # ascending coefficients, length h+1, monic

    @property
    def q(self) -> int:
        return self.p ** self.h


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
    if h > 1 and not _is_irreducible(modulus, p):
        raise ValidationError(f"modulus {modulus} is reducible over F_{p}")
    return FieldParams(p=p, h=h, modulus=modulus)


@dataclass(frozen=True)
class FqElem:
    params: FieldParams
    coeffs: tuple  # length h, entries in [0, p-1]

    def _check(self, other):
        if self.params is not other.params and self.params != other.params:
            raise ConfigError("field mismatch")

    def __add__(self, other):
        self._check(other)
        p = self.params.p
        return FqElem(self.params, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.params.p
        return FqElem(self.params, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.params.p
        return FqElem(self.params, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        params = self.params
        return FqElem(params, polymul_mod(params.modulus, params.p, self.coeffs, other.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = fq_one(self.params)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise DomainError("inversion of zero in F_q")
        return self ** (self.params.q - 2)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_index(self) -> int:
        """Base-p integer encoding of the coefficient tuple (c_0 least significant)."""
        p = self.params.p
        code = 0
        for c in reversed(self.coeffs):
            code = code * p + c
        return code

    def frobenius(self, e: int = 1):
        if e < 0:
            raise ValidationError("frobenius exponent must be >= 0")
        return self ** (self.params.p ** (e % self.params.h))

    def frobenius_inverse(self, e: int = 1):
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
        return f"FqElem({self.render()})"


def fq(params: FieldParams, coeffs) -> FqElem:
    """Build an element from an integer or a coefficient list of length <= h."""
    if isinstance(coeffs, int):
        coeffs = [coeffs]
    coeffs = list(coeffs)
    if len(coeffs) > params.h:
        raise ValidationError(f"coefficient list longer than h={params.h}")
    coeffs += [0] * (params.h - len(coeffs))
    return FqElem(params, tuple(c % params.p for c in coeffs))


def fq_zero(params: FieldParams) -> FqElem:
    return FqElem(params, (0,) * params.h)


def fq_one(params: FieldParams) -> FqElem:
    return fq(params, 1)


def fq_from_index(params: FieldParams, code: int) -> FqElem:
    p = params.p
    coeffs = []
    for _ in range(params.h):
        coeffs.append(code % p)
        code //= p
    return FqElem(params, tuple(coeffs))


def fq_enumerate(params: FieldParams):
    """All q elements, ordered by the base-p integer encoding of coefficients."""
    return [fq_from_index(params, i) for i in range(params.q)]
