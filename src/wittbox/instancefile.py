"""Instance-file parsing.

Format (one instance per file):

    [ring]
    p = 2
    h = 1            # optional, default 1
    modulus = t^2+t+1  # optional; required only when no built-in exists

    [problem]
    n = 4
    m = 2

    [system]
    f1 = x1 + 3*x2 + 5*x3 + 6*x4 mod p^3

    [box]                        # optional; absent = Teichmuller box
    g[2][1] = x[0][1]*x[1][1]*x[0][2]*x[1][4]

Polynomial expressions use integer literals, `+ - * ^` and parentheses.
System polynomials use variables x1..xn with integer coefficients; box
generators use variables x[i][j] and may use `t` for F_q coefficients.
"""

from __future__ import annotations

import math
import re

from .box import box_make, box_variable_names, teichmuller_box
from .counting import ProblemInstance, make_instance, system_variable_names
from .errors import BudgetError, ParseError, decimal
from .fqfield import field_params, fq
from .poly import FieldDomain, MultiPoly, ZZ, _embed, _merge, _occurring, _raw, _terms_in, _unit

# A `^` or `*` whose result could exceed this many terms is refused before it
# is expanded, so a short line cannot make parsing run for minutes.  Squaring
# costs the square of the term count and integer coefficients grow with the
# exponent: on a 2-vCPU VM, (7*x1 + 5)^1023 (1024 terms) expands in about
# 2 s and (x1 + 1)^4095 (4096 terms) in about 27 s.
MAX_POWER_TERMS = 1 << 10
# A polynomial whose terms times declared variables (its exponent slots) could
# pass this is refused before it is built: 2^24 slots are about 128 MB of
# tuples, and a sum of n = 16000 variables took 45 s and 2.1 GB.
MAX_EXPONENT_SLOTS = 1 << 24
# A [problem] with more free digit variables x[i][j] than this is refused
# before their names are built: n*m = 2^22 names take about 6 s and 0.6 GB.
MAX_DIGIT_VARIABLES = 1 << 20
# A `^` or `*` over Z whose coefficients could pass this many bits in all
# (terms times bits per coefficient) is refused before it is computed:
# `x1 + 3^100000000` ran past 20 s.  (x1 + 3)^1000 comes to about 2.0M bits.
MAX_COEFFICIENT_BITS = 1 << 22
# A `mod p^e` past this exponent is refused before p^e is formed: e = 10^30
# ran out of memory, and e = 10^7 ran past 20 s in big-integer work.
MAX_MODULUS_EXPONENT = 1 << 18

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)"
    r"|(?P<boxvar>x\[\d+\]\[\d+\])"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()]))"
)


def _tokenize(text: str, line=None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r} in expression", line)
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


class _ExprParser:
    """Recursive-descent parser of expressions into MultiPolys over one domain
    and one tuple of variables; `t` is the field generator over F_q.

    An expression is computed in the variables that occur in it and moved
    to all the declared ones once, at the end: a product adds a key per pair
    of terms, at a cost that grows with the key's length, and a box declares
    up to nm = 2^20 digit variables, one slot of bytes each.
    """

    def __init__(self, domain, variables):
        self.domain = domain
        self.variables = tuple(variables)
        self.index = dict(zip(self.variables, range(len(self.variables))))

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def _fail(self, message):
        raise ParseError(message, self.line)

    def _refuse(self, what, terms, most):
        """Refuse a result of up to `terms` terms past `most` terms or past MAX_EXPONENT_SLOTS."""
        if terms > most:
            raise BudgetError(f"{what} could produce more than {most} terms", self.line)
        if terms * len(self.variables) > MAX_EXPONENT_SLOTS:
            raise BudgetError(f"{what} could need more than {MAX_EXPONENT_SLOTS} exponent "
                              f"slots ({len(self.variables)} per term)", self.line)

    def _refuse_product(self, what, factors):
        """Refuse the product of the f^e over (f, e) in `factors` before it is
        computed: past MAX_POWER_TERMS terms or MAX_EXPONENT_SLOTS slots, or,
        over Z, past MAX_COEFFICIENT_BITS bits of coefficients in all.

        A coefficient of the product is at most the product of the L1 norms
        |f|^e in size, so it takes at most sum e * ceil(log2 |f|) bits, and a
        power of a monomial of coefficient +-1 takes none.
        """
        terms = _terms_bound(factors)
        self._refuse(what, terms, MAX_POWER_TERMS)
        if self.domain is ZZ and terms * sum(
                e * max(sum(map(abs, f.terms.values())) - 1, 0).bit_length()
                for f, e in factors) > MAX_COEFFICIENT_BITS:
            raise BudgetError(f"{what} could produce more than {MAX_COEFFICIENT_BITS} bits of "
                              "coefficients", self.line)

    def parse(self, text, line=None) -> MultiPoly:
        self.tokens, self.i, self.line = _tokenize(text, line), 0, line
        used = sorted({self.index[val] for _, val in self.tokens if val in self.index})
        self.local = tuple(self.variables[k] for k in used)
        self.local_index = dict(zip(self.local, range(len(used))))
        try:
            poly = self._expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", line) from None
        if self.i != len(self.tokens):
            self._fail(f"trailing tokens starting at {self._peek()[1]!r}")
        return _embed(poly, self.variables, used)

    def _expr(self):
        """A sum or difference of terms, added up in one dict."""
        acc = self._term()
        terms, width = dict(acc.terms), acc.width
        while self._peek() in (("op", "+"), ("op", "-")):
            sign = self._next()[1]
            rhs = self._term()
            if rhs.width > width:  # the sum so far moves to the wider slots
                terms = _terms_in(_raw(self.domain, self.local, terms, width), rhs.width)
                width = rhs.width
            rhs = _terms_in(rhs, width).items()
            _merge(terms, rhs if sign == "+" else ((e, -c) for e, c in rhs), self.domain.zero)
            self._refuse("adding with `+` or `-`", len(terms), math.inf)
        return _raw(self.domain, self.local, terms, width)

    def _term(self):
        poly = self._factor()
        while self._peek() == ("op", "*"):
            self._next()
            rhs = self._factor()
            self._refuse_product("multiplying with `*`", [(poly, 1), (rhs, 1)])
            poly = poly * rhs
        return poly

    def _factor(self):
        if self._peek() == ("op", "-"):
            self._next()
            return -self._factor()
        poly = self._atom()
        if self._peek() == ("op", "^"):
            self._next()
            ekind, eval_ = self._next()
            if ekind != "int":
                self._fail("exponent must be an integer literal")
            e = _int(self.line, eval_)
            self._refuse_product(f"expanding `^{e}`", [(poly, e)])
            poly = poly ** e
        return poly

    def _atom(self):
        kind, val = self._next()
        if kind == "int":
            return MultiPoly.constant(self.domain, self.local, _int(self.line, val))
        if kind in ("boxvar", "name"):
            if val in self.local_index:
                return _unit(self.domain, self.local, self.local_index[val])
            if val == "t":
                if not isinstance(self.domain, FieldDomain):
                    self._fail("`t` is only meaningful in F_q expressions")
                return MultiPoly.constant(self.domain, self.local, fq(self.domain.params, [0, 1]))
            self._fail(f"unknown variable {val!r}")
        if kind == "op" and val == "(":
            poly = self._expr()
            kind, val = self._next()
            if not (kind == "op" and val == ")"):
                self._fail("unbalanced parenthesis")
            return poly
        self._fail("malformed expression" if val is None else f"unexpected token {val!r}")


def _terms_bound(factors) -> int:
    """An upper bound on the number of terms of the product of the f^e over
    (f, e) in `factors`, exact up to MAX_POWER_TERMS.

    The product has at most the product over its factors of C(t + e - 1, e)
    products of terms, t the terms of f (1 if e = 0, 0 if f = 0 < e), and at
    most C(v + sum d*e, v) monomials of degree <= sum d*e, d = deg f, in the v
    variables that occur; the second is only worked out when the first is
    past the cap.  A power f^e is a product of e equal factors: `*` passes
    [(f, 1), (g, 1)], and `^` passes [(f, e)].
    """
    products = 1
    for f, e in factors:
        products *= _binomial(len(f.terms) + e - 1, e) if f.terms else int(e == 0)
    if products <= MAX_POWER_TERMS:
        return products
    v = _occurring([f for f, _ in factors])
    return min(_binomial(v + sum(f.total_degree() * e for f, e in factors), v), products)


def _binomial(n: int, k: int) -> int:
    """C(n, k); past MAX_POWER_TERMS.bit_length(), C(n, k) >= 2^k exceeds the cap."""
    k = min(k, n - k)
    return math.comb(n, k) if k <= MAX_POWER_TERMS.bit_length() else MAX_POWER_TERMS + 1


def parse_poly(text, domain, variables, line=None) -> MultiPoly:
    return _ExprParser(domain, variables).parse(text, line)


def _parse_modulus(text, p, h, line):
    """A monic polynomial in t over F_p, given as e.g. `t^2+t+1`, as its
    coefficients up to t^(h+1) at most: one of higher degree is no modulus of
    degree h either way, and `t^100000000000` would not fit in memory."""
    poly = parse_poly(text, ZZ, ("t",), line=line)
    coeffs = [0] * (min(poly.total_degree(), h + 1) + 1)
    for (e,), c in poly.tuple_terms().items():
        if e < len(coeffs):
            coeffs[e] = c % p
    return tuple(coeffs)


_SYSTEM_RE = re.compile(r"^f(\d+)\s*=\s*(.+?)\s+mod\s+p\^(\d+)$")
_BOX_RE = re.compile(r"^g\[(\d+)\]\[(\d+)\]\s*=\s*(.+)$")
_KEY_RE = re.compile(r"^(\w+)\s*=\s*(.+)$")


def _split_sections(text: str):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise ParseError(f"duplicate section [{current}]", lineno)
            sections[current] = []
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        sections[current].append((lineno, line))
    return sections


def _section_keys(lines, allowed, section):
    out = {}
    for lineno, line in lines:
        m = _KEY_RE.match(line)
        if not m:
            raise ParseError(f"expected `key = value` in [{section}]", lineno)
        key, value = m.group(1), m.group(2).strip()
        if key not in allowed:
            raise ParseError(f"unknown key {key!r} in [{section}]", lineno)
        if key in out:
            raise ParseError(f"duplicate key {key!r} in [{section}]", lineno)
        out[key] = (lineno, value)
    return out


def _int(line, text, name=None):
    """int(text) for a number in the file, or a ParseError naming its line.

    A `name`d value may be any text; a literal without one is a run of digits,
    which int() refuses only past Python's limit on digits it converts.
    """
    try:
        return int(text)
    except ValueError:
        if name is None:
            raise ParseError(f"integer literal of {len(text)} digits is too long", line) from None
        raise ParseError(f"{name} must be an integer, got {text!r}", line) from None


def parse_instance(text: str) -> ProblemInstance:
    sections = _split_sections(text)
    for required in ("ring", "problem", "system"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]")
    for name in sections:
        if name not in ("ring", "problem", "system", "box"):
            raise ParseError(f"unknown section [{name}]")

    ring = _section_keys(sections["ring"], {"p", "h", "modulus"}, "ring")
    if "p" not in ring:
        raise ParseError("missing p in [ring]")
    p = _int(*ring["p"], "p")
    h = _int(*ring["h"], "h") if "h" in ring else 1
    modulus = None
    if "modulus" in ring:
        lineno, value = ring["modulus"]
        modulus = _parse_modulus(value, p, h, lineno)
    field = field_params(p, h, modulus)

    problem = _section_keys(sections["problem"], {"n", "m"}, "problem")
    for key in ("n", "m"):
        if key not in problem:
            raise ParseError(f"missing {key} in [problem]")
    n = _int(*problem["n"], "n")
    m = _int(*problem["m"], "m")
    if n < 1 or m < 1:
        raise ParseError("n and m must be positive")
    if n * m > MAX_DIGIT_VARIABLES:
        raise BudgetError(f"n*m = {decimal(n * m, f'{n}*{m}')} digit variables exceed "
                          f"{MAX_DIGIT_VARIABLES}", problem["n" if n >= m else "m"][0])

    system_parser = _ExprParser(ZZ, system_variable_names(n))
    system = []
    labels = set()
    for lineno, line in sections["system"]:
        sm = _SYSTEM_RE.match(line)
        if not sm:
            raise ParseError("expected `f<k> = <expr> mod p^<mk>`", lineno)
        k = _int(lineno, sm.group(1))
        if k in labels:
            raise ParseError(f"duplicate polynomial f{k}", lineno)
        labels.add(k)
        f = system_parser.parse(sm.group(2), lineno)
        mk = _int(lineno, sm.group(3))
        if mk > MAX_MODULUS_EXPONENT:
            raise BudgetError(f"a modulus exponent above {MAX_MODULUS_EXPONENT} is refused", lineno)
        system.append((f, mk))
    if not system:
        raise ParseError("empty [system] section")

    if "box" in sections:
        box_parser = _ExprParser(FieldDomain(field), box_variable_names(n, m))
        generators = {}
        for lineno, line in sections["box"]:
            bm = _BOX_RE.match(line)
            if not bm:
                raise ParseError("expected `g[<i>][<j>] = <expr>`", lineno)
            i, j = _int(lineno, bm.group(1)), _int(lineno, bm.group(2))
            g = box_parser.parse(bm.group(3), lineno)
            if (i, j) in generators:
                raise ParseError(f"duplicate generator g[{i}][{j}]", lineno)
            generators[(i, j)] = g
        box = box_make(field, n, m, generators)
    else:
        box = teichmuller_box(field, n, m)

    return make_instance(box, system)
