"""The integer counting kernel behind `counting.count_zeros`.

`_Kernel` decides every point of one `count_zeros` call on plain ints:
column tables, columns summed out into residue histograms, and the columns
left enumerated in rows; a system whose columns split is the case of
histograms that depend on no column.  `count_zeros` imports this module
after its refusals, so a process that never counts (`bound`, `witt-polys`)
never compiles it.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations, product, repeat, starmap

from .counting import ProblemInstance
from .fqfield import fq_enumerate, polymul_mod, power
from .galois import GRParams, teichmuller_lift
from .poly import _fields

HISTOGRAM_CAP = 1 << 16  # entries of a table or message, and pairs of one elimination
# Points of the core read per row: enough to spread the cost of locating
# each table's entries, few enough that the row's index lists stay small.
ROW = 1 << 10


class _IntRing:
    """GR(p^precision, h) on plain ints; F_q is the case precision = 1.

    An element is an int when h = 1, else a tuple of h ints multiplied by
    `polymul_mod` (closed form at h = 2).  Products are reduced mod
    p^precision and sums are not; `reduce` gives the canonical representative.
    """

    def __init__(self, field, precision):
        self.mod = mod = field.p ** precision
        if field.h == 1:
            self.mul = lambda a, b: a * b % mod
            self.add = operator.add
            self.reduce = mod.__rmod__
        else:
            self.mul = partial(polymul_mod, field.modulus, mod)
            self.add = lambda a, b: tuple(map(operator.add, a, b))
            self.reduce = lambda v: tuple([c % mod for c in v])
        self.h = field.h

    def element(self, coeffs):
        """The element with these h ascending coefficients in t."""
        return self.reduce(coeffs[0] if self.h == 1 else tuple(coeffs))


def _compile(poly, coerce):
    """`poly` as [(coefficient, ((variable slot, exponent), ...)), ...]."""
    return [(coerce(c), factors) for factors, c in poly.sparse_terms()]


def _kronecker(vs, steps, seed, op):
    """seed op vs[k][d_k] over the positions k with a vector, d_k in the range of step (k, r),
    the varying positions least significant first; one without a vector repeats the list."""
    out = [seed]
    for k, r in steps:
        out = list(starmap(op, product(vs[k][r.start:r.stop], out))) if k in vs else out * len(r)
    return out


def _held(entries):
    """The reader of a list: the entries at an iterable of indices."""
    return lambda indices: list(map(entries.__getitem__, indices))


def _tables(size, keys, entries):
    """Readers, by key, of tables from entries(lo, hi), each table's entries lo..hi-1 by key:
    held up to HISTOGRAM_CAP entries, else computed by blocks of ROW as read, the last two
    kept for all the tables; a range of step 1 is read as slices of its blocks."""
    if size <= HISTOGRAM_CAP:
        return {key: _held(values) for key, values in entries(0, size).items()}
    block = lru_cache(2)(lambda b: entries(b * ROW, min(size, b * ROW + ROW)))

    def reader(key):
        def read(indices):
            if type(indices) is not range or indices.step != 1:
                return [block(index // ROW)[key][index % ROW] for index in indices]
            lo, hi = indices.start, indices.stop
            return sum((block(b)[key][max(lo - b * ROW, 0):hi - b * ROW]
                        for b in range(lo // ROW, -(-hi // ROW))), [])
        return read
    return {key: reader(key) for key in keys}


def _product(hists, shift, reduce):
    """The histogram of `shift` (reduced) plus one residue drawn from each
    histogram independently: their product in the group ring."""
    out = {shift: 1}
    for hist in hists:
        nxt = {}
        for a, x in out.items():
            for b, y in hist.items():
                key = reduce(a + b)
                nxt[key] = nxt.get(key, 0) + x * y
        out = nxt
    return out


class _Kernel:
    """Column tables and an elimination plan for one `count_zeros` call.

    Every point is decided in GR(p^{M'}, h), M' the largest modulus: digit levels i >= M'
    add p^i * tau(a), which vanishes there, so their free digits only multiply the count
    and their generators are never read.  A column then takes Q = q^live values.

    The *reach* of column j is j plus the columns its generators below M' read; column
    j's value, a function of the free digits of its reach, is tabulated with each power
    the system takes of it, built whole as Kronecker sums and products over the digit
    positions (`_values_at`), not point by point; the columns without generators take the
    same values, so they share one table per power.  A residue vector in prod_k
    GR(p^{m_k}, h) is one int with a `width`-bit slot per coefficient, so vectors add as
    ints and a monomial's coefficients in every f_k are one multiplier.  Monomials whose
    columns' reaches cover the same columns form one factor over that scope.

    Columns are eliminated in min-fill order (bucket elimination, Dechter 1999): summing
    over a column the product of the factors and messages that read it gives a message, a
    residue histogram per assignment of the other columns they read (a product of
    histograms is their convolution).  One that reads no column joins the accumulator the
    constant terms seed.  Elimination stops before a message or its work would pass
    HISTOGRAM_CAP, or would cost more than enumerating the columns left, the core, in rows
    over its `inner` last columns.

    A row of the core fixes all its columns but the `inner` last ones; an elimination is
    one row over all its points, every column moving, the column summed out last.  A row
    is one int, its points side by side (`poly._fields`).  Its plan splits the monomials once:
    one that reads only fixed columns is one scalar per row; those that read only moving
    columns sum to one row per plan; a mixed one is its fixed factors times its multiplier
    times the rows of its moving factor.  Fixed factors are read for a block of up to ROW
    rows at once (`_scalars`), and an elimination is the block of one empty prefix.  A
    core without messages counts from low bits (`_zeros`).
    """

    def __init__(self, inst: ProblemInstance):
        box, field = inst.box, inst.field
        p, q, n, m, h = field.p, field.q, box.n, box.m, field.h
        precision = inst.working_precision
        live = min(m, precision)  # free digit levels that reach a residue
        self.q, self.n, self.live, self.Q = q, n, live, q ** live
        self.gr, self.fq = gr, fq = _IntRing(field, precision), _IntRing(field, 1)
        elements = fq_enumerate(field)  # digit code a <-> elements[a]

        # Each monomial once, with its coefficient in every f_k.
        monomials, constants = {}, [0] * len(inst.system)
        for k, (f, _) in enumerate(inst.system):
            for c, factors in _compile(f, int):
                if factors:
                    monomials.setdefault(factors, [0] * len(constants))[k] = c
                else:
                    constants[k] = c

        # Slot s = k*h + r (coefficient r of f_k) sums at most len(monomials) + 1 terms, each
        # a multiplier below 2^K times at most h products of values below p^precision: it
        # stays below bound << K < 2^F, never carrying; unscaled, its sum v is below 2^K.
        mods = [p ** mk for _, mk in inst.system for _ in range(h)]
        bound = (len(monomials) + 1) * h * p ** (2 * precision)
        K = precision if p == 2 else (bound * p ** precision).bit_length()
        self.width = F = (bound << K).bit_length()
        self.bytes = max(8, -(-F * len(mods) // 8))  # P / 8: a point's S slots, in bytes
        self.split, self.join, self.fill = _fields(self.bytes, "little")
        shifts = range(0, F * len(mods), F)
        slots, full = list(zip(shifts, mods)), (1 << F) - 1
        self.space = math.prod(mods)  # |prod_k GR(p^{m_k}, h)|, a bound on any histogram
        # With u_k in its multipliers, p^{m_k} | v iff a slot's low bits, u_k * v mod 2^K (odd p;
        # Granlund and Montgomery 1994) or v mod 2^{m_k} (p = 2, u_k = 1), are at most
        # low // p^{m_k}: iff adding the rest leaves bit K, the guard, 0.
        lows = [pk - 1 if p == 2 else (1 << K) - 1 for pk in mods]
        adds = [(1 << K) - 1 - low // pk for low, pk in zip(lows, mods)]
        self.test = [sum(v << s for v, s in zip(values, shifts))  # the last: slot 0's guard
                     for values in (lows, adds, [1 << K] * len(mods), [1 << K])]
        self.reduce = self.test[0].__and__ if p == 2 else (  # the low bits of v mod 2^{m_k}
            lambda v: sum((v >> s & full) % pk << s for s, pk in slots))
        self.fold = [min(1 << i, len(mods) - (1 << i)) * F  # slot 0 then ORs min(2^(i+1), S)
                     for i in range((len(mods) - 1).bit_length())]
        self.repeats = {}  # points -> the test's constants repeated over a row of them
        self.pack = operator.index if h == 1 else (lambda v: sum(map(operator.lshift, v, shifts)))
        order, tail = p ** precision, field.modulus[:h]  # t^h = -sum tail[i] t^i
        self.unpack = gr.reduce if h == 1 else (  # a sum of up to M' values: M' p^M' < 2^F
            lambda v, firsts=shifts[:h]: tuple([(v >> s & full) % order for s in firsts]))
        self.by_t = lambda y: accumulate(range(1, h), lambda z, _: tuple(  # y * t^r for r < h
            [(c - z[-1] * a) % order for c, a in zip((0,) + z[:-1], tail)]), initial=y)

        def scale(coeffs):
            return sum(c % pk << s for c, pk, s in zip(coeffs, mods[::h], shifts[::h]))

        # Generators over F_q below M' of the read columns, with their
        # levels; they exist only when M' > m = live and read free digits only.
        read = {j for mono in monomials for j, _ in mono}
        self.generators = {}
        for (i, j), g in sorted(box.generators.items()):
            if i < precision and j - 1 in read:
                self.generators.setdefault(j - 1, []).append(
                    (i, _compile(g, lambda c: fq.element(c.coeffs))))
        self.fq_powers = {e: [power(fq.element(a.coeffs), e, fq.mul) for a in elements]
                          for gs in self.generators.values() for _, g in gs
                          for _, factors in g for _, e in factors}
        # p^i * tau(a), packed, by a in F_q in digit code order, at the levels read
        taus = [teichmuller_lift(a, GRParams(field, precision)).coeffs for a in elements]
        levels = set(range(live)).union(i for gs in self.generators.values() for i, _ in gs)
        self.lift = {i: dict(zip([fq.element(a.coeffs) for a in elements], [
            self.pack(gr.element([p ** i * c for c in tau])) for tau in taus])) for i in levels}
        self.reach = {j: tuple(sorted({j, *(s % n for _, g in self.generators.get(j, ())
                                            for _, fs in g for s, _ in fs)})) for j in read}
        self.powers, free = {}, read - self.generators.keys()  # free columns share one family
        self.exponents = {j: {e for mono in monomials for i, e in mono if i == j} for j in read}
        self.exponents.update(dict.fromkeys(free, set().union(*map(self.exponents.get, free))))

        self.factors = {}  # scope -> [(monomial, coefficient multiplier)]
        for mono, coeffs in monomials.items():
            scope = tuple(sorted(set().union(*(self.reach[j] for j, _ in mono))))
            self.factors.setdefault(scope, []).append((mono, scale(coeffs)))
        variables = set().union(*self.factors)

        scopes, messages = list(self.factors), []
        acc, core = {self.reduce(scale(constants)): 1}, set(variables)
        while len(core) > 1:
            j = self._next_column(core, scopes, messages, len(acc))
            if j is None:
                break
            sep, table = self._eliminate(j, scopes, messages)
            if sep:
                messages.append((sep, table, max(map(len, table))))
            else:
                acc = _product([acc, table[0]], 0, self.reduce)
            core.remove(j)

        self.core = core = tuple(sorted(core))
        self.inner = max(k for k in range(1, len(core) + 1) if k == 1 or self.Q ** k <= ROW)
        self.row, self.size = self.Q ** self.inner, self.Q ** len(core)
        self.factor, self.shift = q ** (n * m - live * len(variables)), 0
        if len(acc) == 1:
            [(self.shift, weight)] = acc.items()
            self.factor *= weight
        else:
            messages.append(((), [acc], len(acc)))
        # The widest histogram is read at the negated residue of a point;
        # the others are convolved per point.
        messages.sort(key=lambda msg: msg[2])
        if messages:
            top = sum(pk << s for s, pk in slots)
            sep, table, _ = messages.pop()
            messages.append((sep, [{self.reduce(top - k): x for k, x in hist.items()}
                                   for hist in table], 0))
        self.pending = [(_held(table), self._place(sep, core, self.inner))
                        for sep, table, _ in messages]
        def scaled(v):  # u_k = 1/p^{m_k} mod 2^K into the slots of f_k, for the zero test
            return v if self.pending or p == 2 else sum(
                (v >> s & full) * pow(pk, -1, 1 << K) % (1 << K) << s for s, pk in slots)
        self.shift = scaled(self.shift)
        self.plan = self._plan([(mono, scaled(c)) for s in scopes for mono, c in self.factors[s]],
                               core, self.inner)

    def _values_at(self, j, lo, hi):
        """Column j's values at the assignments lo..hi-1 of its reach, big-endian over its digit
        positions (reach column, level), per span of the fewest last positions covering them (at
        most two): the free value and generator terms as Kronecker sums and products."""
        fq, q, live, reach = self.fq, self.q, self.live, self.reach[j]
        places = len(reach) * live
        top = max(k for k in range(places) if q ** (places - k) >= hi - lo)
        free = {reach.index(j) * live + i: list(self.lift[i].values()) for i in range(live)}
        times = operator.mul if fq.h == 1 else fq.mul  # h = 1: reduced once per generator
        u = q ** (places - 1 - top)  # the entries of one digit string up to `top`
        first, last, out = lo // u, (hi - 1) // u, []
        for b in range(first // q, last // q + 1):
            a, z = max(first, b * q), min(last, b * q + q - 1)  # the span's strings
            steps = list(zip(range(places - 1, top, -1), repeat(range(q)))) + [
                (top - i, range(a // q ** i % q, z // q ** i % q + 1)) for i in range(top, -1, -1)]
            ys = _kronecker(free, steps, 0, operator.add)
            for i, g in self.generators.get(j, ()):
                total = reduce(partial(map, fq.add), [
                    _kronecker({reach.index(s % self.n) * live + s // self.n: self.fq_powers[e]
                                for s, e in factors}, steps, c, times) for c, factors in g])
                ys = map(operator.add, ys, map(self.lift[i].__getitem__, map(fq.reduce, total)))
            out += map(self.unpack, ys)
        return out[lo - first * u:hi - first * u]

    def _power(self, j, e):
        """Column j's value to the e, by the big-endian index of its reach's values; a column
        without generators takes sum_i p^i tau(a_i), as all such do, and shares their tables."""
        family = j if j in self.generators else None
        if family not in self.powers:
            self.powers[family] = _tables(self.Q ** len(self.reach[j]), self.exponents[j],
                                          partial(self._chain, j))
        return self.powers[family][e]

    def _chain(self, j, lo, hi):
        """Column j's values at lo..hi-1 to each power the system takes of its family, in one
        loop over the sorted exponents: y^e is y^d * y^(e-d), for d the exponent before e."""
        mul = self.gr.mul
        to_the, by = (pow, self.gr.mod) if self.gr.h == 1 else (power, mul)  # C-level at h = 1
        values, out, d = self._values_at(j, lo, hi), {}, 0
        for e in sorted(self.exponents[j]):
            ys = values if e == 1 else list(map(to_the, values, repeat(e - d), repeat(by)))
            out[e] = list(map(mul, out[d], ys)) if d else ys
            d = e
        return out

    def _next_column(self, core, scopes, messages, acc):
        """The column to eliminate next, or None when enumerating the core
        costs less; a point weighed by histograms costs the product of all
        their widths but the largest."""
        Q = self.Q
        near = {c: {c} for c in core}  # each column with the columns it shares a scope with
        for scope in scopes + [sep for sep, _, _ in messages]:
            for c in scope:
                near[c].update(scope)

        def per_point(widths):
            return math.prod(sorted(widths)[:-1])

        def fill(j):
            return sum(b not in near[a] for a, b in combinations(sorted(near[j] - {j}), 2))

        now = Q ** len(core) * per_point([w for _, _, w in messages] + [acc])
        for j in sorted(core, key=lambda c: (fill(c), len(near[c]), c)):
            w = math.prod(w for sep, _, w in messages if j in sep)
            width = min(self.space, Q * w)
            cost = Q ** len(near[j]) * w  # at least the message's Q^(|near|-1) * width entries
            rest = [w for sep, _, w in messages if j not in sep] + [width, acc]
            if len(near[j]) == 1:  # the message joins the accumulator
                cost += acc * width
                rest[-2:] = [min(self.space, acc * width)]
            if cost <= HISTOGRAM_CAP and cost + Q ** (len(core) - 1) * per_point(rest) < now:
                return j
        return None

    def _eliminate(self, j, scopes, messages):
        """Sum column j out of the factors and messages that read it, which
        are removed; returns the message: the other columns they read and
        the residue histogram at each assignment of those, big-endian."""
        Q, reduce = self.Q, self.reduce
        inbox = [(sep, table) for sep, table, _ in messages if j in sep]
        sep = tuple(sorted(set().union(*(s for s in scopes if j in s), *(s for s, _ in inbox))
                           - {j}))
        over, size = sep + (j,), Q ** (len(sep) + 1)  # j last: an assignment's Q points in a row
        plan = self._plan([t for s in scopes if j in s for t in self.factors[s]], over, len(over))
        found = [self._read(_held(table), self._place(s, over, len(over)), (), 0, size)
                 for s, table in inbox]
        [scalars] = self._scalars(plan, 0, 1, 0)  # the block of one empty prefix
        out, row = [{} for _ in range(size // Q)], self._row(plan, (), 0, size, scalars)
        for i, (r, *hs) in enumerate(zip(self._split(row, size), *found)):
            for key, x in _product(hs, reduce(r), reduce).items():
                out[i // Q][key] = out[i // Q].get(key, 0) + x
        scopes[:] = [s for s in scopes if j not in s]
        messages[:] = [msg for msg in messages if j not in msg[0]]
        return sep, out

    def _place(self, scope, over, inner):
        """How rows over `over`, fixing all but the last `inner` columns, read a table
        over `scope`: strides of the fixed columns, offsets of a row's points or None."""
        strides = [self.Q ** (len(scope) - 1 - scope.index(c)) if c in scope else 0 for c in over]
        fixed, moving = strides[:len(over) - inner], strides[len(over) - inner:]
        if not any(moving):
            return fixed, None
        if all(s == moving[-1] * self.Q ** k for k, s in enumerate(reversed(moving))):
            return fixed, range(0, moving[0] * self.Q, moving[-1])  # the scope's columns in order
        steps = zip(range(inner - 1, -1, -1), repeat(range(self.Q)))  # all Q digits, last first
        return fixed, _kronecker({k: range(0, s * self.Q, s) for k, s in enumerate(moving) if s},
                                 steps, 0, operator.add)

    @staticmethod
    def _read(table, place, outer, lo, hi):
        """The entries of `table` at the points lo..hi-1 of the row after `outer`."""
        strides, offsets = place
        base = sum(map(operator.mul, outer, strides))
        if offsets is None:
            return table((base,)) * (hi - lo)
        offsets = offsets[lo:hi]
        return table(range(base + offsets.start, base + offsets.stop, offsets.step)
                     if type(offsets) is range else map(base.__add__, offsets))

    def _plan(self, monomials, over, inner):
        """Monomials placed for rows over `over` whose last `inner` columns move: (tables,
        multiplier) of those that read no moving column; the terms of those that read no
        fixed column and the reader of their sum, or None; the terms of the rest (all, if
        no column is fixed).  A term is (tables read once per row, placed for `_scalars` with
        the fixed columns as one row; tables read per point; the last moving factor's table,
        its place; multiplier; its `_columns` reader)."""
        fixed, invariant, mixed = [], [], []
        prefix = over[:len(over) - inner]
        kept = max(2, HISTOGRAM_CAP // min(self.Q ** inner, ROW)) if prefix else 0
        for mono, c in monomials:
            reads = [(self._place(self.reach[i], over, inner), i, e) for i, e in mono]
            still = [read for read in reads if read[0][1] is None]
            moving = [read for read in reads if read[0][1] is not None]
            if len(moving) > 1:  # a product of moving factors is taken per point anyway
                still, moving = [], still + moving
            held = [(self._power(i, e), self._place(self.reach[i], prefix, len(prefix)))
                    for _, i, e in still]
            if not moving:
                fixed.append((held, c))
                continue
            *others, (place, j, e) = moving
            others = [(self._power(i, f), where) for where, i, f in others]
            term = (held, others, self._power(j, e), place, c)
            term += (self._columns(term, kept),)
            per_row = not prefix or any(any(where[0]) for where, _, _ in reads)
            (mixed if per_row else invariant).append(term)
        table = lru_cache(kept)(lambda lo, hi: sum(  # invariant terms have no fixed factor
            c * columns((), lo, hi)[0] for *_, c, columns in invariant)) if invariant else None
        return fixed, invariant, table, mixed

    def _columns(self, term, kept):
        """The reader, kept per span, of the rows of a term's entries y, of y * t^r (r < h)
        or of y times the tables read per point; it refers to no kernel."""
        held, others, table, place, _ = term
        pack, by_t, mul, join, get = self.pack, self.by_t, self.gr.mul, self.join, self._read
        split = self.gr.h > 1 and bool(held)  # x from fixed factors

        def read(at, outer, lo, hi):
            ys = get(table, at, outer, lo, hi)
            for t, where in others:
                ys = map(mul, get(t, where, outer, lo, hi), ys)
            columns = zip(*[map(pack, by_t(y)) for y in ys]) if split else [map(pack, ys)]
            return list(map(join, columns))
        if others or not kept:  # in one row no span is read twice
            return partial(read, place)
        spans = lru_cache(kept)(lambda base, lo, hi: read(((1,), place[1]), (base,), lo, hi))
        return lambda outer, lo, hi: spans(sum(map(operator.mul, outer, place[0])), lo, hi)

    def _scalars(self, plan, lo, hi, start):
        """Per prefix lo..hi-1 of the fixed columns: `start` plus the monomials that read no
        moving column, then c * x_r for each mixed one, x = sum_r x_r t^r its fixed factors."""
        fixed, _, _, mixed = plan
        mul, starts, ks = partial(map, self.gr.mul), [start] * (hi - lo), []

        def held(factors):  # the product of the factors at each prefix, each read once
            return reduce(mul, [self._read(t, at, (), lo, hi) for t, at in factors])
        for factors, c in fixed:
            starts = map(operator.add, starts, map(c.__mul__, map(self.pack, held(factors))))
        for factors, *_, c, _ in mixed:
            ks.append(repeat([c]) if not factors else [[c * x] for x in held(factors)]
                      if self.gr.h == 1 else [[c * x_r for x_r in x] for x in held(factors)])
        return list(zip(starts, *ks))

    def _row(self, plan, outer, lo, hi, scalars):
        """The planned monomials at points lo..hi-1 of the row after `outer`, its `_scalars`."""
        (_, _, invariant, mixed), (start, *ks) = plan, scalars
        row = (start and start * self._repeat(hi - lo)[0]) + (invariant(lo, hi) if invariant else 0)
        for (*_, columns), k in zip(mixed, ks):
            row += sum(map(operator.mul, k, columns(outer, lo, hi)))
        return row

    def _split(self, row, n):
        """The n per-point ints of a packed row."""
        return self.split(row, n)

    def _repeat(self, n):
        """1, then each constant of the zero test, at each of n points of a row."""
        if n not in self.repeats:  # each constant fits a point's P bytes
            self.repeats[n] = [self.fill(c, n) for c in [1] + self.test]
        return self.repeats[n]

    def _zeros(self, row, n):
        """The points of a row of n whose slots all pass the zero test."""
        _, low, add, guard, first = self._repeat(n)
        nonzero = (row & low) + add & guard  # the guard of each slot that fails
        for step in self.fold:
            nonzero |= nonzero >> step
        return n - (nonzero & first).bit_count()

    def count(self, start: int, stop: int) -> int:
        """Zeros among the core points [start, stop), big-endian over the core
        columns, each weighed by the messages left; `factor` is not applied."""
        reduce, zeros, first, block = self.reduce, 0, 0, []
        while start < stop:
            prefix, lo = divmod(start, self.row)
            hi = min(self.row, lo + ROW, stop - prefix * self.row)
            start += hi - lo
            if prefix >= first + len(block):  # the scalars of up to ROW rows, read at once
                first, block = prefix, self._scalars(
                    self.plan, prefix, min(prefix + ROW, -(-stop // self.row)), self.shift)
            outer = [prefix // self.Q ** k % self.Q for k in range(len(self.core) - self.inner)][::-1]
            row = self._row(self.plan, outer, lo, hi, block[prefix - first])
            if not self.pending:
                zeros += self._zeros(row, hi - lo)
                continue
            *found, last = [self._read(t, place, outer, lo, hi) for t, place in self.pending]
            for r, hist, *hists in zip(self._split(row, hi - lo), last, *found):
                weights = _product(hists, reduce(r), reduce)
                zeros += sum(x * hist.get(k, 0) for k, x in weights.items())
        return zeros
