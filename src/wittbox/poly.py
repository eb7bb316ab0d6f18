"""Sparse exact multivariate polynomials over Z or F_q.

Terms map exponent tuples (one slot per declared variable) to nonzero
coefficients.  All arithmetic is exact; there is no floating point anywhere.
Serialization uses graded-lex term order in the declared variable order, and
golden tests depend on that exact rendering.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import lshift

from .errors import ConfigError, ValidationError
from .fqfield import FieldParams, GRElem, fq, gr_one, gr_zero, power


# The coefficient domains are plain immutable-by-convention classes: a
# dataclass would generate and compile its methods at every import.


class IntegerDomain:
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is IntegerDomain

    def __hash__(self):
        return hash(())

    def __repr__(self):
        return "IntegerDomain()"

    def coerce(self, v):
        if isinstance(v, int):
            return v
        raise ConfigError(f"cannot coerce {v!r} into Z")

    zero = 0
    one = 1


class FieldDomain:
    __slots__ = ("params", "zero", "one")

    def __init__(self, params: FieldParams):
        self.params = params
        self.zero = gr_zero(params.ring)
        self.one = gr_one(params.ring)

    def __eq__(self, other):
        return type(other) is FieldDomain and (
            other.params is self.params or other.params == self.params)

    def __hash__(self):
        return hash((self.params,))

    def __repr__(self):
        return f"FieldDomain(params={self.params!r})"

    def coerce(self, v):
        if isinstance(v, GRElem):
            ring = self.params.ring
            if v.params is not ring and v.params != ring:
                raise ConfigError("F_q element from a different field")
            return v
        if isinstance(v, int):
            return fq(self.params, v)
        raise ConfigError(f"cannot coerce {v!r} into F_q")


ZZ = IntegerDomain()


class MultiPoly:
    __slots__ = ("domain", "variables", "terms")

    def __init__(self, domain, variables, terms):
        self.domain = domain
        self.variables = tuple(variables)
        clean = {}
        arity = len(self.variables)
        for exps, c in terms.items():
            if len(exps) != arity:
                raise ValidationError("exponent vector arity mismatch")
            c = domain.coerce(c)
            if c != domain.zero:
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, variables):
        return cls(domain, variables, {})

    @classmethod
    def constant(cls, domain, variables, value):
        return cls(domain, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, domain, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ConfigError(f"unknown variable {name!r}")
        return _unit(domain, variables, variables.index(name))

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def _check(self, other):
        if self.domain != other.domain or self.variables != other.variables:
            raise ConfigError("polynomials from different contexts")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.domain, self.variables, other)
        self._check(other)
        terms = _merge(dict(self.terms), other.terms.items(), self.domain.zero)
        return _raw(self.domain, self.variables, terms)

    def __neg__(self):
        return _raw(self.domain, self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.domain, self.variables, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.domain, self.variables, other)
        self._check(other)
        slots = _slots(len(self.variables), _top(self.terms) + _top(other.terms))
        product = _packed_mul(_pack(self.terms, slots), _pack(other.terms, slots),
                              self.domain.zero)
        return _unpack(self.domain, self.variables, product, slots)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """Square-and-multiply on packed exponents, unpacked once at the end."""
        if e < 0:
            raise ValidationError("negative polynomial power")
        if e == 0:
            return MultiPoly.constant(self.domain, self.variables, self.domain.one)
        slots = _slots(len(self.variables), _top(self.terms) * e)
        product = power(_pack(self.terms, slots), e, partial(_packed_mul, zero=self.domain.zero))
        return _unpack(self.domain, self.variables, product, slots)

    # -- degrees ------------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree over terms; the zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def weighted_degrees(self, weights):
        """Set of per-term weighted degrees under the given variable weights."""
        for v in self.variables:
            if v not in weights:
                raise ConfigError(f"no weight for variable {v!r}")
        w = [weights[v] for v in self.variables]
        return {sum(x * wi for x, wi in zip(e, w)) for e in self.terms}

    def weighted_degree(self, weights) -> int:
        degs = self.weighted_degrees(weights)
        return max(degs) if degs else 0

    # -- structure maps -----------------------------------------------------

    def _remap(self, remap):
        """The polynomial with each exponent tuple e replaced by remap(e), like
        terms merged."""
        terms = ((remap(e), c) for e, c in self.terms.items())
        return _raw(self.domain, self.variables, _merge({}, terms, self.domain.zero))

    def scale_exponents(self, factors):
        """Substitute x -> x^k per the variable->k map (unspecified vars keep 1)."""
        f = [factors.get(v, 1) for v in self.variables]
        return self._remap(lambda e: tuple(a * k for a, k in zip(e, f)))

    def reduce_exponents(self):
        """Reduce each positive exponent to its representative in [1, q-1].

        x^q = x on all of F_q (including 0), so a positive exponent never
        collapses to 0.
        """
        if not isinstance(self.domain, FieldDomain):
            raise ConfigError("exponent reduction is defined over F_q only")
        q = self.domain.params.q
        cap = lambda e: ((e - 1) % (q - 1)) + 1 if e > 0 else 0
        return self._remap(lambda e: tuple(cap(x) for x in e))

    def is_reduced(self) -> bool:
        if not isinstance(self.domain, FieldDomain):
            raise ConfigError("reducedness is defined over F_q only")
        q = self.domain.params.q
        return all(x <= q - 1 for e in self.terms for x in e)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment, coerce=None):
        """Exact evaluation; `coerce` maps coefficients into the target ring."""
        for v in self.variables:
            if v not in assignment:
                raise ConfigError(f"no value assigned to variable {v!r}")
        if coerce is None:
            coerce = lambda c: c
        total = None
        for exps, c in self.terms.items():
            v = coerce(c)
            for name, e in zip(self.variables, exps):
                if e:
                    v = v * assignment[name] ** e
            total = v if total is None else total + v
        if total is None:
            return coerce(self.domain.zero)
        return total

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lex term order, explicit `*` and `^`."""
        if not self.terms:
            return "0"
        terms, names = self.terms, self.variables
        integer = isinstance(self.domain, IntegerDomain)
        pieces = []
        for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            c = terms[exps]
            mono = "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(names, exps)
                if e
            )
            if integer:
                mag = -c if c < 0 else c
                body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
                pieces.append((" - " if c < 0 else " + ") + body)
            else:
                lit = c.render()
                if mono and lit == "1":
                    body = mono
                elif mono:
                    lit = f"({lit})" if ("+" in lit or "-" in lit) else lit
                    body = f"{lit}*{mono}"
                else:
                    body = lit
                pieces.append(" + " + body)
        out = "".join(pieces)
        return ("-" if out[1] == "-" else "") + out[3:]

    def __repr__(self):
        return f"MultiPoly({self.render()})"


# -- packed exponents ---------------------------------------------------------
#
# Multiplication packs each exponent tuple into one int, one fixed-width slot
# per variable with the first variable in the highest slot (Monagan & Pearce,
# CASC 2007).  The width holds the largest exponent the product can reach, so
# adding two keys adds the exponent vectors without a carry between slots.


def _top(terms) -> int:
    """The largest exponent of any variable in any term."""
    return max(chain.from_iterable(terms), default=0)


def _slots(arity: int, top: int):
    """Bit offset of each variable's slot, and the slot mask, for exponents <= `top`."""
    width = max(top.bit_length(), 1)
    return range(width * (arity - 1), -1, -width), (1 << width) - 1


def _pack(terms, slots):
    """{packed key: coefficient} for a tuple-keyed term dict."""
    shifts = slots[0]
    return {sum(map(lshift, exps, shifts)): c for exps, c in terms.items()}


def _unpack(domain, variables, packed, slots):
    """The polynomial over `domain` in `variables` with the given packed terms."""
    shifts, mask = slots
    return _raw(domain, variables,
                {tuple([(k >> s) & mask for s in shifts]): c for k, c in packed.items()})


def _raw(domain, variables, terms):
    """The polynomial with the given terms, taken as they are: the one
    constructor that neither coerces nor checks them."""
    out = MultiPoly.__new__(MultiPoly)
    out.domain, out.variables, out.terms = domain, variables, terms
    return out


def _unit(domain, variables, index):
    """The variable variables[index]."""
    exps = [0] * len(variables)
    exps[index] = 1
    return _raw(domain, variables, {tuple(exps): domain.one})


def _merge(acc, terms, zero):
    """acc += the (key, coefficient) pairs `terms` in place, deleting keys that cancel."""
    for key, c in terms:
        if key in acc:
            s = acc[key] + c
            if s == zero:
                del acc[key]
            else:
                acc[key] = s
        else:
            acc[key] = c
    return acc


def _packed_mul(a, b, zero=0):
    """Product of two packed term dicts, zero coefficients dropped: the one
    product kernel, shared by `MultiPoly` and the Witt recursion.

    A new key takes the product itself, not zero + product: over F_q that
    addition would build one more element per key.
    """
    acc = {}
    get = acc.get
    b = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in b:
            k = k1 + k2
            c = get(k)
            acc[k] = c1 * c2 if c is None else c + c1 * c2
    return {k: c for k, c in acc.items() if c != zero}
