"""Sparse exact multivariate polynomials over Z or F_q.

Terms map packed exponent keys to nonzero coefficients: each declared
variable has a slot of `width` bits, a multiple of 8, the first variable in
the highest slot, so int order on keys is lex order and adding two keys
multiplies two monomials (Monagan & Pearce, CASC 2007).  Equality and
hashing do not see the layout; `tuple_terms` is the one way to exponent
tuples.  All arithmetic is exact.  Rendering uses graded-lex term order in
the declared variable order, and golden tests pin it.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache, partial, reduce
from itertools import chain, compress, count, groupby, repeat
from operator import add, lshift, methodcaller, or_

from .errors import ConfigError, ValidationError
from .fqfield import FieldParams, GRElem, fq, gr_one, gr_zero, power


# The coefficient domains are plain immutable-by-convention classes, as is
# every class in the package: a dataclass would generate and compile its
# methods at every import.


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
    __slots__ = ("domain", "variables", "terms", "width")

    def __init__(self, domain, variables, terms):
        """The polynomial with the given {exponent tuple: coefficient} terms."""
        self.domain, self.variables = domain, tuple(variables)
        clean, arity = {}, len(self.variables)
        for exps, c in terms.items():
            if len(exps) != arity:
                raise ValidationError("exponent vector arity mismatch")
            c = domain.coerce(c)
            if c != domain.zero:
                clean[tuple(exps)] = c
        self.width = _width(max(chain.from_iterable(clean), default=0))
        self.terms = dict(zip(map(_codec(arity, self.width)[0], clean), clean.values()))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, domain, variables):
        return _raw(domain, tuple(variables), {}, 8)

    @classmethod
    def constant(cls, domain, variables, value):
        c = domain.coerce(value)
        return _raw(domain, tuple(variables), {} if c == domain.zero else {0: c}, 8)

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
        width = max(self.width, other.width)
        return (self.domain == other.domain and self.variables == other.variables
                and _terms_in(self, width) == _terms_in(other, width))

    def __hash__(self):
        return hash((self.variables, frozenset(self.tuple_terms().items())))

    def _operand(self, other):
        """`other` as a polynomial of this context: a constant, or checked."""
        if not isinstance(other, MultiPoly):
            return MultiPoly.constant(self.domain, self.variables, other)
        if self.domain != other.domain or (
                self.variables is not other.variables and self.variables != other.variables):
            raise ConfigError("polynomials from different contexts")
        return other

    def tuple_terms(self):
        """{exponent tuple: coefficient}: the terms, each key unpacked once."""
        unpack = _codec(len(self.variables), self.width)[1]
        return dict(zip(map(tuple, map(unpack, self.terms)), self.terms.values()))

    def sparse_terms(self):
        """(((variable index, exponent), ...), coefficient) for each term, the
        nonzero exponents only; only the slots of variables that occur are read."""
        unpack = _codec(len(self.variables), self.width)[1]
        occurring = list(compress(count(), _or_slots(self)))
        for key, coeff in self.terms.items():
            slots = unpack(key)
            yield tuple((v, slots[v]) for v in occurring if slots[v]), coeff

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        width = max(self.width, other.width)
        terms = _merge(dict(_terms_in(self, width)), _terms_in(other, width).items(), self.domain.zero)
        return _raw(self.domain, self.variables, terms, width)

    def __neg__(self):
        return _raw(self.domain, self.variables, {k: -c for k, c in self.terms.items()}, self.width)

    def __sub__(self, other):
        return self + -self._operand(other)

    def __mul__(self, other):
        """Key sums, in the wider layout unless a slot with its top bit set could overflow."""
        other = self._operand(other)
        width = max(self.width, other.width)
        guard = _codec(len(self.variables), width)[2]
        if any(f.width == width and reduce(or_, f.terms, 0) & guard for f in (self, other)):
            width = _width(_bound(self) + _bound(other), width)
        product = _packed_mul(_terms_in(self, width), _terms_in(other, width), self.domain.zero)
        return _raw(self.domain, self.variables, product, width)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """Square-and-multiply on the keys, in a layout that holds e * each exponent."""
        if e < 0:
            raise ValidationError("negative polynomial power")
        if e == 0:
            return MultiPoly.constant(self.domain, self.variables, self.domain.one)
        width = _width(_bound(self) * e, self.width)
        product = power(_terms_in(self, width), e, partial(_packed_mul, zero=self.domain.zero))
        return _raw(self.domain, self.variables, product, width)

    # -- degrees ------------------------------------------------------------

    def total_degree(self) -> int:
        """Max total degree over terms; the zero polynomial has degree 0."""
        return max(map(sum, map(_codec(len(self.variables), self.width)[1], self.terms)), default=0)

    def weighted_degrees(self, weights):
        """Set of per-term weighted degrees under the given variable weights."""
        for v in self.variables:
            if v not in weights:
                raise ConfigError(f"no weight for variable {v!r}")
        w = [weights[v] for v in self.variables]
        return {sum(x * wi for x, wi in zip(e, w)) for e in self.tuple_terms()}

    def weighted_degree(self, weights) -> int:
        return max(self.weighted_degrees(weights), default=0)

    # -- structure maps -----------------------------------------------------

    def _remap(self, remap):
        """The polynomial with each exponent tuple e replaced by remap(e)."""
        terms = ((remap(e), c) for e, c in self.tuple_terms().items())
        return MultiPoly(self.domain, self.variables, _merge({}, terms, self.domain.zero))

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
        unpack = _codec(len(self.variables), self.width)[1]
        return max(chain.from_iterable(map(unpack, self.terms)), default=0) < self.domain.params.q

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment, coerce=None):
        """Exact evaluation; `coerce` maps coefficients into the target ring."""
        for v in self.variables:
            if v not in assignment:
                raise ConfigError(f"no value assigned to variable {v!r}")
        coerce = coerce or (lambda c: c)
        total = coerce(self.domain.zero)
        for exps, c in self.tuple_terms().items():
            v = coerce(c)
            for name, e in zip(self.variables, exps):
                if e:
                    v = v * assignment[name] ** e
            total = total + v
        return total

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lex term order, explicit `*` and `^`.

        Terms sort as the ints degree * 2^bits + key, `bits` the width of a
        key: within a degree, int order on keys is lex order on exponents.
        """
        if not self.terms:
            return "0"
        terms, names = self.terms, self.variables
        unpack = _codec(len(names), self.width)[1]
        bits = len(names) * self.width
        mask = (1 << bits) - 1
        integer = isinstance(self.domain, IntegerDomain)
        pieces = []
        for key in sorted(map(add, map(lshift, map(sum, map(unpack, terms)), repeat(bits)), terms),
                          reverse=True):
            key &= mask
            c = terms[key]
            exps = unpack(key)
            mono = "*".join(map(_power_text, compress(names, exps), compress(exps, exps)))
            if integer:
                mag = -c if c < 0 else c
                body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
                pieces.append((" - " if c < 0 else " + ") + body)
            else:
                lit = c.render()
                if mono and lit != "1":
                    lit = f"({lit})" if ("+" in lit or "-" in lit) else lit
                    body = f"{lit}*{mono}"
                else:
                    body = mono or lit
                pieces.append(" + " + body)
        out = "".join(pieces)
        return ("-" if out[1] == "-" else "") + out[3:]

    def __repr__(self):
        return f"MultiPoly({self.render()})"


@lru_cache(maxsize=4096)
def _power_text(name, e):
    return name if e == 1 else f"{name}^{e}"


# -- layouts ------------------------------------------------------------------
#
# Slots are whole bytes, so a key converts to and from its exponents with
# C-level `int.to_bytes`/`int.from_bytes`; slots of 2 to 8 bytes are read as
# an `array` of machine words, each slot padded to a word by strided copies.

_WORDS = {array(code).itemsize: code for code in "QLIHB"}  # bytes -> typecode


def _width(top: int, width: int = 0) -> int:
    """`width` if exponents up to `top` fit in it, else the least multiple of 8
    above the bit length of `top`, which leaves the top bit of every slot clear."""
    return width if width and top >> width == 0 else (top.bit_length() // 8 + 1) * 8


def _reslot(raw, old: int, new: int):
    """The big-endian slots of `raw`, `old` bytes each, copied to slots of
    `new` bytes, which must hold their values."""
    if old == new:
        return raw
    out = bytearray(len(raw) // old * new)
    for b in range(1, min(old, new) + 1):
        out[new - b::new] = raw[old - b::old]
    return out


@lru_cache(maxsize=64)
def _codec(arity: int, width: int):
    """(pack, unpack, guard) of this layout: pack takes any sequence of
    exponents to its key, unpack gives a key's exponents as bytes for
    one-byte slots, as an array up to 8 bytes, else as a tuple, and guard has
    the top bit of each slot."""
    size = width // 8
    guard = int.from_bytes((b"\x80" + bytes(size - 1)) * arity, "big")
    if size == 1:
        return (lambda exps: int.from_bytes(bytes(exps), "big"),
                methodcaller("to_bytes", arity, "big"), guard)
    if size > 8:
        def unpack(key):
            raw = key.to_bytes(arity * size, "big")
            return tuple(int.from_bytes(raw[i:i + size], "big") for i in range(0, len(raw), size))
        return (lambda exps: int.from_bytes(b"".join(e.to_bytes(size, "big") for e in exps), "big"),
                unpack, guard)
    word = 1 << (size - 1).bit_length()
    code, swap = _WORDS[word], sys.byteorder == "little"

    def unpack(key):
        words = array(code, _reslot(key.to_bytes(arity * size, "big"), size, word))
        if swap:
            words.byteswap()
        return words

    def pack(exps):
        words = array(code, iter(exps))
        if swap:
            words.byteswap()
        return int.from_bytes(_reslot(words.tobytes(), word, size), "big")
    return pack, unpack, guard


def _or_slots(f):
    """The slots of the OR of f's keys: each at least the top exponent of its
    variable in f, under twice it, and nonzero where the variable occurs."""
    return _codec(len(f.variables), f.width)[1](reduce(or_, f.terms, 0))


def _bound(f) -> int:
    """The largest slot of the OR of f's keys: at least f's top exponent, under twice it."""
    return max(_or_slots(f), default=0)


def _occurring(polys) -> int:
    """How many variables occur in some of `polys`, which share one context."""
    return len(set().union(*(compress(count(), _or_slots(f)) for f in polys)))


def _terms_in(f, width):
    """f's terms keyed in slots `width` bits wide, which must hold its exponents."""
    if f.width == width:
        return f.terms
    old, length = f.width // 8, len(f.variables) * f.width // 8
    return {int.from_bytes(_reslot(key.to_bytes(length, "big"), old, width // 8), "big"): c
            for key, c in f.terms.items()}


def _embed(f, variables, positions):
    """f, whose variables are those at the ascending `positions` of
    `variables`, as a polynomial in all of `variables`: each run of adjacent
    positions is one byte copy per term."""
    size, moves = f.width // 8, []
    for _, run in groupby(enumerate(positions), lambda pair: pair[1] - pair[0]):
        (k, at), span = next(run), (1 + sum(1 for _ in run)) * size
        moves.append((slice(at * size, at * size + span), slice(k * size, k * size + span)))
    terms = {}
    for key, c in f.terms.items():
        raw, full = key.to_bytes(len(positions) * size, "big"), bytearray(len(variables) * size)
        for to, of in moves:
            full[to] = raw[of]
        terms[int.from_bytes(full, "big")] = c
    return _raw(f.domain, variables, terms, f.width)


def _raw(domain, variables, terms, width):
    """The polynomial with the given packed terms, taken as they are: the one
    constructor that neither coerces nor checks them."""
    out = MultiPoly.__new__(MultiPoly)
    out.domain, out.variables, out.terms, out.width = domain, variables, terms, width
    return out


def _unit(domain, variables, index):
    """The variable variables[index]."""
    return _raw(domain, variables, {1 << 8 * (len(variables) - 1 - index): domain.one}, 8)


def _merge(acc, terms, zero):
    """acc += the (key, coefficient) pairs `terms` in place, deleting keys that cancel."""
    for key, c in terms:
        if key in acc:
            c = acc[key] + c
            if c == zero:
                del acc[key]
                continue
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
