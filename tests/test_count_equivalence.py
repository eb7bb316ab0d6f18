"""The integer counting kernel against the object-level reference.

The reference, `reference_count`, decides every point with `box_enumerate`
(decode_base, expand_point), this file's `evaluate_point` (from_digits,
MultiPoly.evaluate over GRElem) and `is_zero`; `count_zeros` must match it
exactly on every instance.  The "components" corpus splits the columns into
several components, and the "elimination" corpus links them in chains,
cycles, stars, 2 x k grids and through generators, so the kernel sums columns
out into residue histograms there instead of deciding each point; in a few of
them several histograms are left, and each point is weighed by their
convolution.

`reference_row` is the list-based row, one int per point, that the kernel's
packed rows (one int per row) are checked against row by row, and
`reference_values` the per-point column values that its Kronecker-built column
tables are checked against entry by entry.
"""

import os
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

import wittbox
from wittbox.box import box_enumerate, box_make, box_variable_names, expand_point
from wittbox.counting import count_zeros, make_instance, system_variable_names
from wittbox.errors import BudgetError
from wittbox.fqfield import field_params, fq, fq_enumerate, power
from wittbox.galois import GRParams, from_digits, int_to_gr, reduce_precision, teichmuller_lift
from wittbox.instancefile import parse_instance
from wittbox.kernel import _Kernel, _join
from wittbox.poly import FieldDomain, MultiPoly, ZZ

# (p, h) over every built-in modulus, with the largest nm whose box the
# reference enumerates in well under a second.
FIELDS = {(2, 1): 6, (2, 2): 3, (2, 3): 2, (3, 1): 4, (3, 2): 2, (5, 1): 2, (5, 2): 1}
KINDS = ("teichmuller", "generators", "components")
SHAPES = ("chain", "cycle", "star", "grid", "linked")
PARTITIONS = (1, 2, 7)


def enumeration_precision(inst):
    """Digits up to max(m, M') are needed to evaluate all residues."""
    return max(inst.working_precision, inst.box.m)


def evaluate_point(inst, pt):
    """Residues f_k(Y) in GR(p^{m_k}, h), computed once at working precision."""
    params = GRParams(inst.field, enumeration_precision(inst))
    ys = {
        name: from_digits(pt.digits[j], params)
        for j, name in enumerate(system_variable_names(inst.box.n))
    }
    out = []
    for f, mk in inst.system:
        value = f.evaluate(ys, coerce=lambda c: int_to_gr(c, params))
        out.append(reduce_precision(value, mk))
    return out


def reference_count(inst):
    return sum(
        all(r.is_zero() for r in evaluate_point(inst, pt))
        for pt in box_enumerate(inst.box, enumeration_precision(inst))
    )


def test_evaluate_point_oracle():
    # f = x1 + 3*x2 over Z/8 at the Teichmuller point (1, 1): 1 + 3 = 4
    field = field_params(2)
    box = box_make(field, 2, 3)
    f = MultiPoly(ZZ, system_variable_names(2), {(1, 0): 1, (0, 1): 3})
    inst = make_instance(box, [(f, 3)])
    one = fq(field, 1)
    pt = expand_point(box, (one, one) + (fq(field, 0),) * 4, 3, fq_enumerate(field))
    (residue,) = evaluate_point(inst, pt)
    assert residue == int_to_gr(4, GRParams(field, 3))


def column_of(name):
    """The column j of the digit variable x[i][j]."""
    return int(name.split("[")[2][:-1])


def random_generator(rng, field, names, columns=None):
    """A reduced polynomial over F_q in the free digits of `columns` (default: all)."""
    q = field.q
    elements = fq_enumerate(field)[1:]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randrange(q) if rng.random() < 0.5 else 0 for _ in names)
        if columns is not None:
            exps = tuple(e if column_of(name) in columns else 0 for name, e in zip(names, exps))
        terms[exps] = rng.choice(elements)
    return MultiPoly(FieldDomain(field), names, terms)


def random_system(rng, n, m):
    """One or two integer polynomials with negative and constant coefficients."""
    names = system_variable_names(n)
    system = []
    for _ in range(rng.randint(1, 2)):
        terms = {(0,) * n: rng.randint(-9, 9)}
        while all(sum(e) == 0 for e in terms):
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in names)
                terms[exps] = rng.choice((-1, 1)) * rng.randint(1, 40)
        system.append((MultiPoly(ZZ, names, terms), rng.randint(1, m + 2)))
    return system


def random_instance(rng, field, max_nm, with_generators):
    n, m = rng.choice([(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if n * m <= max_nm])
    system = random_system(rng, n, m)
    generators = {}
    if with_generators:
        names = box_variable_names(n, m)
        top = max(mk for _, mk in system)
        for i in range(m, max(top, m + 1)):
            for j in range(1, n + 1):
                if rng.random() < 0.7:
                    generators[(i, j)] = random_generator(rng, field, names)
    return make_instance(box_make(field, n, m, generators), system)


def components_instance(rng, field, max_nm, flavour):
    """Columns in groups of a separable system, so the columns form several components.

    Every f_k has a constant term and, per group, monomials in that group's
    columns only; moduli are drawn per f_k.  Generators read their own
    column, except that flavour 1
    adds a generator below M' that reads another group, the only link
    between the two, and flavour 2 leaves the last column unread by every
    f_k and adds a generator at level max(m, M'), which reads other columns
    but links nothing.
    """
    shapes = [(n, m) for n in (2, 3, 4) for m in (1, 2, 3) if n * m <= max(max_nm, 2)]
    if flavour == 1:  # keep two components besides the linked pair where n allows
        shapes = [(n, m) for n, m in shapes if n == max(n for n, _ in shapes)]
    n, m = rng.choice(shapes)
    fewest = min(2, n - 1) if flavour == 1 else 1
    cuts = sorted(rng.sample(range(1, n), rng.randint(fewest, n - 1)))
    groups = [list(range(a + 1, b + 1)) for a, b in zip([0] + cuts, cuts + [n])]
    read = groups[:-1] + [groups[-1][:-1]] if flavour == 2 else groups
    names = system_variable_names(n)
    moduli = [rng.randint(1, m + 1) for _ in range(rng.randint(1, 2))]
    if flavour == 1:
        moduli[0] = max(moduli[0], m + 1)
    system = []
    for mk in moduli:
        terms = {(0,) * n: rng.randint(-9, 9)}
        for cols in filter(None, read):
            for _ in range(rng.randint(1, 2)):
                exps = [0] * n
                for j in rng.sample(cols, rng.randint(1, len(cols))):
                    exps[j - 1] = rng.randint(1, 3)
                terms[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 40)
        system.append((MultiPoly(ZZ, names, terms), mk))
    top = max(moduli)
    digits = box_variable_names(n, m)
    generators = {(i, j): random_generator(rng, field, digits, {j})
                  for i in range(m, top) for j in range(1, n + 1) if rng.random() < 0.7}
    if flavour == 1:
        i, other = rng.randrange(m, top), rng.choice(groups[-1])
        generators[(i, 1)] = (random_generator(rng, field, digits, {1})
                              + MultiPoly.variable(FieldDomain(field), digits, f"x[0][{other}]"))
    elif flavour == 2:
        generators[(max(m, top), 1)] = random_generator(rng, field, digits)
    return make_instance(box_make(field, n, m, generators), system)


def edges(shape, n):
    """The pairs of columns (1-based) that a shape's monomials mix."""
    if shape == "star":
        return [(1, j) for j in range(2, n + 1)]
    if shape == "grid":  # 2 x k: row r, column c is column r*k + c + 1; a tail if n is odd
        k = n // 2
        return ([(r * k + c + 1, r * k + c + 2) for r in (0, 1) for c in range(k - 1)]
                + [(c + 1, k + c + 1) for c in range(k)] + [(n - 1, n)] * (n % 2))
    chain = [(j, j + 1) for j in range(1, n)]
    if shape == "linked":  # column n shares no monomial: only g[i][1] links it
        return chain[:-1]
    return chain + [(n, 1)] if shape == "cycle" and n > 2 else chain


def elimination_instance(rng, field, shape, n, m):
    """One connected shape of two-column monomials, over enough columns that
    the kernel eliminates some of them.

    f1 and f2 share out the shape's monomials and a power of each column, with
    constant and negative coefficients and moduli on both sides of m.  Each
    column's generators below M' read its own digits; for "linked", g[m][1]
    also reads column n, which no monomial shares with column 1.
    """
    moduli = [rng.randint(1, m + 1), rng.randint(1, m + 1)]
    if shape == "linked" or max(moduli) == m:
        moduli[0] = m + 1
    names = system_variable_names(n)
    terms = [{(0,) * n: rng.randint(-9, 9)}, {(0,) * n: rng.randint(-9, 9)}]
    for a, b in edges(shape, n):
        exps = [0] * n
        exps[a - 1], exps[b - 1] = rng.randint(1, 2), rng.randint(1, 2)
        terms[rng.randrange(2)][tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 40)
    for j in range(n):
        exps = tuple(rng.randint(1, 3) if k == j else 0 for k in range(n))
        terms[j % 2][exps] = rng.choice((-1, 1)) * rng.randint(1, 40)
    system = [(MultiPoly(ZZ, names, t), mk) for t, mk in zip(terms, moduli)]
    digits = box_variable_names(n, m)
    generators = {(i, j): random_generator(rng, field, digits, {j})
                  for i in range(m, max(moduli)) for j in range(1, n + 1) if rng.random() < 0.6}
    if shape == "linked":
        generators[(m, 1)] = (random_generator(rng, field, digits, {1})
                              + MultiPoly.variable(FieldDomain(field), digits, f"x[0][{n}]"))
    return make_instance(box_make(field, n, m, generators), system)


# (n, m, f_1, f_2, f_3) of connected systems of cubics that leave two or more
# messages on the core, so each point is weighed by a convolution of histograms;
# found by a random search over small systems
WEIGHED = {
    (2, 1): (5, 2, "-4*x3^2*x4 - x2^2*x4 + 4*x4^2*x5 - 2 mod p^1", "2*x3*x4^2 mod p^2",
             "x1^2*x4 - 5*x5^3 - 2 mod p^2"),
    (2, 2): (4, 1, "-x2*x3^2 mod p^1", "2*x2*x4^2 + 7*x1^3 - 3 mod p^1",
             "5*x1^3 - x3^3 - 4*x1*x2^2 mod p^1"),
    (3, 1): (5, 1, "-4*x4*x5^2 + x4^3 - 1 mod p^2", "-3*x3*x4^2 - 5*x3^3 - 2*x2*x4*x5 mod p^1",
             "4*x3^3 + 4*x1^2*x4 - 4*x2^3 - 3 mod p^1"),
}


def weighed_instance(p, h):
    n, m, *system = WEIGHED[(p, h)]
    return parse_instance(f"[ring]\np = {p}\nh = {h}\n[problem]\nn = {n}\nm = {m}\n[system]\n"
                          + "".join(f"f{k} = {f}\n" for k, f in enumerate(system, 1)))


# (n, m, seed) per field of a box whose core the kernel enumerates in several
# rows; the first seeds whose systems have zeros there
ROWS = {(2, 1): (3, 4, 0), (3, 2): (2, 2, 0)}


def rows_instance(rng, field, n, m):
    """A box too large for one row whose columns cross terms link in every
    pair and triple, so a row fixes the first column or columns: f1 and f2
    share out powers of each column alone and the cross terms, with constant
    and negative coefficients, mod p^(m+1) and mod p."""
    names = system_variable_names(n)
    terms = [{(0,) * n: rng.randint(-9, 9)}, {(0,) * n: rng.randint(-9, 9)}]
    for cols in [(j,) for j in range(n) for _ in range(2)] + [
            cols for k in (2, 3) for cols in combinations(range(n), k)]:
        exps = [0] * n
        for j in cols:
            exps[j] = rng.randint(1, 3 if len(cols) == 1 else 2)
        terms[rng.randrange(2)][tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 40)
    system = [(MultiPoly(ZZ, names, t), mk) for t, mk in zip(terms, (m + 1, 1))]
    return make_instance(box_make(field, n, m), system)


# Three columns over F_q, f1 mod p^2 and f2 mod p: a core whose rows of at most
# q points fix x1 and x2, so a block of rows reads x1 and x2 alone at scattered
# prefixes.  With `g[1][2] = ...` column 2 has a generator below M' = 2.
BLOCKS = ("[ring]\np = {p}\nh = {h}\n[problem]\nn = 3\nm = 1\n[system]\n"
          "f1 = x1^3 + 2*x1*x2 + x2^2*x3 + 3*x3 + 1 mod p^2\nf2 = x1*x3 + x2 mod p^1\n{box}")


def blocks_instance(p, h, box=""):
    return parse_instance(BLOCKS.format(p=p, h=h, box=box))


def corpus(p, h, kind):
    field = field_params(p, h)
    if kind == "elimination":
        rng = random.Random(f"{p}-{h}-elimination")
        insts = [weighed_instance(p, h)] if (p, h) in WEIGHED else []
        if (p, h) in ROWS:
            n, m, seed = ROWS[(p, h)]
            insts.append(rows_instance(random.Random(f"{p}-{h}-rows-{seed}"), field, n, m))
        for shape in SHAPES:
            # the most columns a box of 2^9 points allows, or three up to 2^10
            m = 2 if field.q == 2 and shape != "grid" else 1
            n = max(k for k in range(2, 9)
                    if field.q ** (k * m) <= max(1 << 9, min(field.q ** 3, 1 << 10)))
            if n >= {"cycle": 3, "star": 4, "grid": 4}.get(shape, 2):  # else a chain again
                insts.append(elimination_instance(rng, field, shape, n, m))
        return insts
    if kind == "components":
        rng = random.Random(f"{p}-{h}-components")
        return [components_instance(rng, field, FIELDS[(p, h)], k % 3) for k in range(9)]
    with_generators = kind == "generators"
    rng = random.Random(f"{p}-{h}-{with_generators}")
    return [random_instance(rng, field, FIELDS[(p, h)], with_generators) for _ in range(6)]


def components(inst, generators=True):
    """Column sets joined by the monomials of the f_k and, optionally, by
    the generators below M' together with the columns they read."""
    links = [{j for j, e in enumerate(exps, 1) if e} for f, _ in inst.system for exps in f.tuple_terms()]
    if generators:
        links += [{j} | {column_of(name) for exps in g.tuple_terms()
                         for name, e in zip(g.variables, exps) if e}
                  for (i, j), g in inst.box.generators.items() if i < inst.working_precision]
    owner = {j: {j} for j in range(1, inst.box.n + 1)}
    for link in links:
        merged = set().union(*(owner[j] for j in link))
        owner.update((j, merged) for j in merged)
    return {frozenset(c) for c in owner.values()}


@pytest.mark.parametrize("p,h", sorted(FIELDS))
@pytest.mark.parametrize("kind", KINDS + ("elimination",))
def test_count_matches_reference(p, h, kind):
    for inst in corpus(p, h, kind):
        expected = reference_count(inst)
        for parts in PARTITIONS:
            assert count_zeros(inst, partitions=parts).cardinality == expected, (inst, parts)


@pytest.mark.parametrize("p,h", sorted(FIELDS))
def test_tables_past_the_cap_keep_the_counts(p, h, monkeypatch):
    # with a cap of 2 entries and rows of 8 points, the kernel computes its
    # tables by blocks as they are read, splits free values into high and low
    # digits, and reads runs that cross blocks; the counts must not change
    reads, tables = set(), wittbox.kernel._tables

    def spy(size, keys, entries):
        readers = tables(size, keys, entries)
        if size <= wittbox.kernel.HISTOGRAM_CAP:
            return readers

        def spied(read):
            def spied_read(indices):
                reads.add(type(indices) is range and indices.step == 1)
                return read(indices)
            return spied_read
        return {key: spied(read) for key, read in readers.items()}

    # the counts at the real cap, which test_count_matches_reference holds
    # to the reference on these corpora; BLOCKS, whose rows read x1 and x2 at
    # scattered prefixes, is held to it in test_free_columns_share_one_table_family
    insts = [inst for kind in KINDS + ("elimination",) for inst in corpus(p, h, kind)]
    insts.append(blocks_instance(p, h))
    expected = [count_zeros(inst).cardinality for inst in insts]
    monkeypatch.setattr(wittbox.kernel, "HISTOGRAM_CAP", 2)
    monkeypatch.setattr(wittbox.kernel, "ROW", 8)
    monkeypatch.setattr(wittbox.kernel, "_tables", spy)
    for inst, count in zip(insts, expected):
        for parts in PARTITIONS:
            assert count_zeros(inst, partitions=parts).cardinality == count, (inst, parts)
    assert reads == {True, False}  # runs and scattered indices both read blocks


@pytest.mark.parametrize("caps", [None, (2, 8)])
def test_long_power_chains_match_reference(caps, monkeypatch):
    # (x1 + 3)^1000, and x1^1000 + ... + x1 typed in that order, take every power
    # of x1 up to 1000; the chain of powers is built in one loop, for a held
    # table and (at m = 2 with a cap of 2 entries) for one computed in blocks
    if caps:
        monkeypatch.setattr(wittbox.kernel, "HISTOGRAM_CAP", caps[0])
        monkeypatch.setattr(wittbox.kernel, "ROW", caps[1])
    text = "[ring]\np = 2\n[problem]\nn = 1\nm = {m}\n[system]\nf1 = {f} mod p^2\n"
    descending = " + ".join(f"x1^{e}" for e in range(1000, 0, -1))
    for m in (1, 2):
        for f in ("(x1 + 3)^1000", descending):
            inst = parse_instance(text.format(m=m, f=f))
            assert count_zeros(inst).cardinality == reference_count(inst), (m, f[:12])


@pytest.mark.parametrize("caps", [None, (2, 8)])
def test_free_columns_share_one_table_family(caps, monkeypatch):
    # every column without a generator takes the values sum_i p^i tau(a_i), so
    # a Teichmuller box builds one family of power tables for its three columns,
    # over the union of their exponents; a generator on column 2 gives that
    # column a family of its own.  The counts equal the reference, with tables
    # held and (at a cap of 2 entries and rows of 8) computed in blocks
    if caps:
        monkeypatch.setattr(wittbox.kernel, "HISTOGRAM_CAP", caps[0])
        monkeypatch.setattr(wittbox.kernel, "ROW", caps[1])
    families, chain = set(), _Kernel._chain

    def spy(self, j, lo, hi):
        families.add(j)
        return chain(self, j, lo, hi)

    monkeypatch.setattr(_Kernel, "_chain", spy)
    # x1^3, x1 and x3 take the powers 1 and 3, and x2^2 the power 2 if x2 is free
    for box, built, union in [("", 1, {1, 2, 3}),
                              ("[box]\ng[1][2] = x[0][1]*x[0][2] + x[0][2]\n", 2, {1, 3})]:
        for p, h in [(3, 2), (2, 3)]:
            families.clear()
            inst = blocks_instance(p, h, box)
            kernel = _Kernel(inst)
            assert kernel.exponents[0] is kernel.exponents[2] == union
            assert (kernel.exponents[1] is kernel.exponents[0]) == (built == 1)
            for parts in PARTITIONS:
                assert count_zeros(inst, partitions=parts).cardinality == reference_count(inst)
            assert len(families) == built, (p, h, box)  # tables past the cap build as read


@pytest.mark.parametrize("row", [2, 3])
def test_blocks_of_rows_end_anywhere(row, monkeypatch):
    # `count` reads the fixed factors of up to ROW rows at once; in rows of 2
    # or 3 points, over 1-7 partitions, blocks hold several prefixes and ranges
    # and blocks start and end inside prefixes, in cores with messages left and
    # without; the counts are those at the real ROW, which
    # test_count_matches_reference holds to the reference
    insts = [inst for p, h in FIELDS for inst in corpus(p, h, "elimination")]
    expected = [count_zeros(inst).cardinality for inst in insts]
    monkeypatch.setattr(wittbox.kernel, "ROW", row)
    seen, calls, scalars, count = set(), [], _Kernel._scalars, _Kernel.count

    def spy_scalars(self, plan, lo, hi, start):
        calls.append(hi - lo)
        return scalars(self, plan, lo, hi, start)

    def spy_count(self, start, stop):
        calls.clear()
        zeros = count(self, start, stop)
        inside = start % self.row > 0 and stop % self.row > 0
        seen.add((bool(self.pending), inside, len(calls) > 1 and max(calls) > 1))
        return zeros

    monkeypatch.setattr(_Kernel, "_scalars", spy_scalars)
    monkeypatch.setattr(_Kernel, "count", spy_count)
    for inst, cardinality in zip(insts, expected):
        for parts in range(1, 8):
            assert count_zeros(inst, partitions=parts).cardinality == cardinality, (inst, parts)
    # a range that starts and ends inside prefixes and reads several blocks, one
    # of several prefixes, with messages left and without
    assert {(True, True, True), (False, True, True)} <= seen


def test_rows_read_a_run_of_columns_as_one_range():
    # a row whose moving columns are the table's columns in order reads one
    # range, which a table past the cap slices; the offsets are the same as
    # the Kronecker sum of the strides that any other order reads
    kernel = _Kernel(parse_instance(
        "[ring]\np = 3\n[problem]\nn = 3\nm = 1\n[system]\nf1 = x1*x2*x3 mod p^1\n"))
    Q = kernel.Q
    for scope, over, run in [((0, 1, 2), (0, 1, 2), True), ((0, 1, 2), (2, 0, 1), True),
                             ((0, 1, 2), (0, 2, 1), False), ((0, 2), (0, 1, 2), False)]:
        fixed, offsets = kernel._place(scope, over, 2)
        strides = [Q ** (len(scope) - 1 - scope.index(c)) if c in scope else 0 for c in over]
        assert fixed == strides[:1] and (type(offsets) is range) == run, (scope, over)
        assert list(offsets) == [strides[1] * a + strides[2] * b
                                 for a in range(Q) for b in range(Q)], (scope, over)


def test_column_past_the_cap_counts_exactly():
    # q = 2, m = 17: the one column takes 2^17 > HISTOGRAM_CAP values, and
    # x(3x + 1) = 0 mod 2^17 has exactly the roots 0 and -1/3
    text = "[ring]\np = 2\n[problem]\nn = 1\nm = 17\n[system]\nf1 = 3*x1^2 + x1 mod p^17\n"
    for parts in (1, 3):
        assert count_zeros(parse_instance(text), partitions=parts).cardinality == 2


def test_corpus_covers_the_cases():
    insts = [inst for p, h in FIELDS for kind in KINDS for inst in corpus(p, h, kind)]
    sides = {(mk > inst.box.m) - (mk < inst.box.m) for inst in insts for _, mk in inst.system}
    assert sides == {-1, 0, 1}
    coeffs = [(e, c) for inst in insts for f, _ in inst.system for e, c in f.tuple_terms().items()]
    assert any(c < 0 for _, c in coeffs)
    assert any(not any(e) for e, _ in coeffs)
    # some generator reads a digit outside its own column: the box is not split
    assert any(
        any(e and int(name.split("[")[2][:-1]) != j for name, e in zip(g.variables, exps))
        for inst in insts for (_, j), g in inst.box.generators.items() for exps in g.tuple_terms()
    )
    counts = [count_zeros(inst).cardinality for inst in insts]
    assert sum(c > 0 for c in counts) >= len(counts) // 4

    # several components, split boxes, links, unread columns, mixed moduli
    sizes = [len(components(inst)) for inst in insts]
    assert sum(k >= 2 for k in sizes) >= len(insts) / 3
    assert max(sizes) >= 3
    split = [inst for inst, k in zip(insts, sizes) if k >= 2 and inst.box.generators and all(
        column_of(name) == j for (_, j), g in inst.box.generators.items()
        for exps in g.tuple_terms() for name, e in zip(g.variables, exps) if e)]
    assert split
    assert any(len(components(inst)) < len(components(inst, generators=False)) for inst in insts)
    assert any(i >= inst.working_precision and any(
        column_of(name) != j for exps in g.tuple_terms() for name, e in zip(g.variables, exps) if e)
        for inst in insts for (i, j), g in inst.box.generators.items())
    assert any(set().union(*components(inst)) - {
        j for f, _ in inst.system for exps in f.tuple_terms() for j, e in enumerate(exps, 1) if e}
        for inst in insts)
    assert any(len(set(inst.moduli)) > 1 for inst, k in zip(insts, sizes) if k >= 2)
    assert {inst.field.h for inst, k in zip(insts, sizes) if k >= 2} == {1, 2, 3}


def test_elimination_corpus_covers_the_cases():
    insts = [inst for p, h in FIELDS for inst in corpus(p, h, "elimination")]
    assert {inst.field.h for inst in insts} == {1, 2, 3}
    sides = {(mk > inst.box.m) - (mk < inst.box.m) for inst in insts for _, mk in inst.system}
    assert sides == {-1, 0, 1}
    coeffs = [(e, c) for inst in insts for f, _ in inst.system for e, c in f.tuple_terms().items()]
    assert any(c < 0 for _, c in coeffs) and any(not any(e) for e, c in coeffs if c)
    assert sum(count_zeros(inst).cardinality > 0 for inst in insts) >= len(insts) / 2
    # every instance is one component, and most have columns summed out
    assert all(len(components(inst)) == 1 for inst in insts)
    kernels = [_Kernel(inst) for inst in insts]
    eliminated = [len(k.core) < inst.box.n for k, inst in zip(kernels, insts)]
    assert sum(eliminated) >= 2 * len(insts) / 3
    # a message left over a column of the core, points weighed by several
    # messages, and a generator's reach summed out
    assert any(place[1] is not None for k in kernels for _, place in k.pending)
    assert {inst.field.h for k, inst in zip(kernels, insts) if len(k.pending) >= 2} == {1, 2}
    assert any(done and len(k.reach[0]) > 1 for k, done in zip(kernels, eliminated))


def test_row_plans_cover_the_cases(monkeypatch):
    # the plans of cores enumerated in several rows, and of eliminations, whose
    # one row moves every column; test_count_matches_reference holds the
    # counts of this corpus to the reference
    plans, seps = [], []
    plan, eliminate = _Kernel._plan, _Kernel._eliminate

    def spy_plan(self, monomials, over, inner):
        plans.append((self, monomials, set(over[len(over) - inner:])))
        return plan(self, monomials, over, inner)

    def spy_eliminate(self, j, scopes, messages):
        sep, table = eliminate(self, j, scopes, messages)
        seps.append(sep)
        return sep, table

    monkeypatch.setattr(_Kernel, "_plan", spy_plan)
    monkeypatch.setattr(_Kernel, "_eliminate", spy_eliminate)
    insts = [inst for p, h in FIELDS for inst in corpus(p, h, "elimination")]
    kernels = [_Kernel(inst) for inst in insts]
    # cores in several rows with monomials fixed on the row, read only where
    # they move, and mixed, at h = 1 and h >= 2 and at p = 2 and odd p
    full = [inst.field for k, inst in zip(kernels, insts) if k.size > k.row and all(k.plan)]
    assert {min(f.h, 2) for f in full} == {1, 2} and {min(f.p, 3) for f in full} == {2, 3}
    assert any(seps)

    def moves(k, i, moving):
        return bool(moving.intersection(k.reach[i]))
    # a mixed monomial whose last factor, the one read packed, is fixed on the
    # row: in rows of 8 points the core (0, 1, 2) moves column 2 alone, which
    # the reach (0, 2) of x1 reads and that of x2 does not
    monkeypatch.setattr(wittbox.kernel, "ROW", 8)
    inst = parse_instance("[ring]\np = 2\nh = 2\n[problem]\nn = 3\nm = 2\n[system]\n"
                          "f1 = x1*x2 + 3*x3^2 + x2*x3 + 1 mod p^3\n[box]\n"
                          "g[2][1] = x[0][3]*x[1][3]\n")
    assert count_zeros(inst).cardinality == reference_count(inst) == 71
    assert any(not moves(k, mono[-1][0], moving) and any(moves(k, i, moving) for i, _ in mono)
               for k, monomials, moving in plans for mono, _ in monomials)


@pytest.mark.parametrize("cap", [None, 64])
def test_an_elimination_is_one_row(cap, monkeypatch):
    # an elimination reads, weighs and splits all its points in one row, not a
    # row of Q points per assignment of its message's columns; _next_column
    # keeps that row and its message within HISTOGRAM_CAP points and entries,
    # the row builds none of the core's row of ones and zero-test constants
    # (_repeat), and the counts do not change
    insts = [inst for p, h in FIELDS for inst in corpus(p, h, "elimination")]
    expected = [count_zeros(inst).cardinality for inst in insts]
    if cap:
        monkeypatch.setattr(wittbox.kernel, "HISTOGRAM_CAP", cap)
    rows, messages_built, repeats = [], [], []
    split, eliminate, repeat = _Kernel._split, _Kernel._eliminate, _Kernel._repeat

    def spy_split(self, row, n):
        rows[-1].append(n)
        return split(self, row, n)

    def spy_eliminate(self, j, scopes, messages):
        rows.append([self.Q])
        before = len(repeats)
        sep, table = eliminate(self, j, scopes, messages)
        messages_built.append((len(repeats) - before, sum(map(len, table))))
        return sep, table

    def spy_repeat(self, n):
        repeats.append(n)
        return repeat(self, n)

    monkeypatch.setattr(_Kernel, "_split", spy_split)
    monkeypatch.setattr(_Kernel, "_eliminate", spy_eliminate)
    monkeypatch.setattr(_Kernel, "_repeat", spy_repeat)
    kernels = [_Kernel(inst) for inst in insts]  # a kernel splits rows only to eliminate
    assert all(len(row) == 2 for row in rows)
    assert all(n <= wittbox.kernel.HISTOGRAM_CAP for _, n in rows)
    assert any(n > Q for Q, n in rows)
    assert len(messages_built) == len(rows)
    assert all(built == 0 for built, _ in messages_built)
    assert all(entries <= wittbox.kernel.HISTOGRAM_CAP for _, entries in messages_built)
    monkeypatch.setattr(_Kernel, "_split", split)
    assert [k.factor * k.count(0, k.size) for k in kernels] == expected


def test_large_exponents_match_reference():
    # the kernel raises to each exponent by square-and-multiply, never by a
    # table that runs up to it
    field = field_params(3, 2)
    names = system_variable_names(2)
    f = MultiPoly(ZZ, names, {(10 ** 6 + 3, 0): 5, (1, 2 ** 40): -7, (0, 0): 2})
    g = MultiPoly(ZZ, names, {(3 ** 20, 0): 1, (0, 1): 1})
    inst = make_instance(box_make(field, 2, 1), [(f, 3), (g, 1)])
    assert count_zeros(inst).cardinality == reference_count(inst)


def test_dead_digit_levels_only_multiply(tmp_path):
    # every modulus is below m: free digits at levels M'..m-1 change no
    # residue, so only the levels below M' are enumerated
    text = "[ring]\np = 2\n[problem]\nn = 2\nm = {m}\n[system]\nf1 = x1 + x2 mod p^1\n"
    inst = parse_instance(text.format(m=4))
    assert count_zeros(inst).cardinality == reference_count(inst) == 2 * 2 ** 6
    inst = parse_instance(text.format(m=8))
    for parts in PARTITIONS:
        assert count_zeros(inst, partitions=parts).cardinality == 2 * 2 ** 14
    # 2^80 base points would never finish if the dead levels were walked
    path = tmp_path / "deep.ini"
    path.write_text(text.format(m=40))
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "count", str(path),
                           "--budget", str(2 ** 80)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.stdout.startswith(f"cardinality={2 ** 79}\n"), proc.stdout + proc.stderr
    # the budget still applies to all q^{nm} base points
    message = "^67108864 points exceed the enumeration budget 16777216$"
    with pytest.raises(BudgetError, match=message):
        count_zeros(parse_instance(text.format(m=13)))


def reference_row(kernel, plan, outer, lo, hi, start):
    """`start` plus the planned monomials at the points lo..hi-1 of the row
    after `outer`, one int per point, with each y * t^r taken by the ring's
    product: the list-based oracle of `_Kernel._row` and `_Kernel._scalars`.
    A factor fixed on the row is read alone, at the row's prefix."""
    fixed, invariant, _, mixed = plan
    gr, pack = kernel.gr, kernel.pack
    basis = [gr.element(tuple(int(r == s) for s in range(gr.h))) for r in range(gr.h)]  # t^r
    prefix = reduce(lambda index, digit: index * kernel.Q + digit, outer, 0)

    def held(factors):
        values = [kernel._read(table, place, (), prefix, prefix + 1)[0] for table, place in factors]
        return reduce(gr.mul, values) if values else None
    for factors, c in fixed:
        start += c * pack(held(factors))
    values = [start] * (hi - lo)
    for factors, others, table, place, c, _ in invariant + mixed:
        x, ys = held(factors), kernel._read(table, place, outer, lo, hi)
        for t, where in others:  # the product of the moving factors, per point
            ys = [gr.mul(z, y) for z, y in zip(kernel._read(t, where, outer, lo, hi), ys)]
        if gr.h == 1 or not factors:
            sums = list(map(pack, ys))
        else:  # per point, [y * t^r packed for r < h]
            sums = [[pack(gr.mul(y, t)) for t in basis] for y in ys]
        if x is None:
            parts = [(c, sums)]
        elif gr.h == 1:
            parts = [(c * x, sums)]
        else:  # x = sum_r x_r * t^r
            parts = zip([c * x_r for x_r in x], zip(*sums))
        for k, column in parts:
            values = [v + k * y for v, y in zip(values, column)]
    return values


@pytest.mark.parametrize("p,h", sorted(FIELDS))
def test_packed_rows_match_the_list_rows(p, h, monkeypatch):
    # every row any plan builds, of the core (scaled or not) and of each
    # elimination, split into points, equals the list-based row, whose fixed
    # factors are read row by row, not per block of rows as `_scalars` reads them
    rows, packed = [], _Kernel._row

    def spy(self, plan, outer, lo, hi, scalars):
        row = packed(self, plan, outer, lo, hi, scalars)
        start = self.shift if plan is getattr(self, "plan", None) else 0
        assert self._split(row, hi - lo) == reference_row(self, plan, outer, lo, hi, start)
        assert row < 1 << 8 * self.bytes * (hi - lo)
        rows.append(plan is getattr(self, "plan", None) and not self.pending)
        return row

    monkeypatch.setattr(_Kernel, "_row", spy)
    insts = [inst for kind in KINDS + ("elimination",) for inst in corpus(p, h, kind)]
    for inst in insts:
        expected = count_zeros(inst).cardinality
        for parts in PARTITIONS:
            assert count_zeros(inst, partitions=parts).cardinality == expected, (inst, parts)
    assert True in rows and False in rows  # scaled core rows and rows split into points


def reference_values(inst, kernel, j, lo, hi):
    """Column j's values at the assignments lo..hi-1 of its reach, point by point: the
    base-q digit of each (reach column, level) position read off the big-endian index,
    the free digits' lifts summed, and each generator evaluated term by term with the
    F_q product and lifted at its level.  The oracle of `_Kernel._values_at`."""
    gr, fq, q, live, n = kernel.gr, kernel.fq, kernel.q, kernel.live, kernel.n
    reach = kernel.reach[j]
    field, places = inst.field, len(reach) * live
    elements = [fq.element(a.coeffs) for a in fq_enumerate(field)]
    taus = [teichmuller_lift(a, GRParams(field, inst.working_precision)).coeffs
            for a in fq_enumerate(field)]

    def lift(i, code):  # p^i * tau(a) for the element of digit code a
        return gr.element([field.p ** i * c for c in taus[code]])
    values = []
    for index in range(lo, hi):
        digits = [index // q ** (places - 1 - k) % q for k in range(places)]
        code = {i * n + c: digits[k * live + i] for k, c in enumerate(reach) for i in range(live)}
        y = reduce(gr.add, [lift(i, code[i * n + j]) for i in range(live)])
        for i, g in kernel.generators.get(j, ()):
            v = fq.element((0,) * field.h)
            for coeff, factors in g:
                term = coeff
                for slot, e in factors:
                    term = fq.mul(term, power(elements[code[slot]], e, fq.mul))
                v = fq.add(v, term)
            y = gr.add(y, lift(i, elements.index(fq.reduce(v))))
        values.append(gr.reduce(y))
    return values


@pytest.mark.parametrize("caps", [None, (2, 8)])
def test_power_tables_match_the_per_point_oracle(caps, monkeypatch):
    # every column table the kernel builds, y^e for each power e the system takes
    # of column j, equals the per-point oracle over the whole corpus: read as one
    # run, at scattered indices, and (y^1) built over sub-ranges that start and end
    # inside spans; with a cap of 2 entries and rows of 8 every table is computed
    # in blocks as it is read
    if caps:
        monkeypatch.setattr(wittbox.kernel, "HISTOGRAM_CAP", caps[0])
        monkeypatch.setattr(wittbox.kernel, "ROW", caps[1])
    rng, covered = random.Random(f"values-{caps}"), set()
    for p, h in sorted(FIELDS):
        for inst in [inst for kind in KINDS + ("elimination",) for inst in corpus(p, h, kind)]:
            kernel = _Kernel(inst)
            # the packed lifts of a column value sum up to M' fields that never carry
            top = inst.working_precision
            assert top * inst.field.p ** top < 1 << kernel.width
            for j, reach in kernel.reach.items():
                size = kernel.Q ** len(reach)
                ys = reference_values(inst, kernel, j, 0, size)
                for e in sorted(kernel.exponents[j]):
                    expected = [power(y, e, kernel.gr.mul) for y in ys]
                    table = kernel._power(j, e)
                    assert table(range(size)) == expected, (inst, j, e)
                    picks = rng.sample(range(size), min(size, 20))
                    assert table(picks) == [expected[k] for k in picks], (inst, j, e)
                for _ in range(3):
                    lo = rng.randrange(size)
                    hi = rng.randint(lo + 1, size)
                    assert kernel._values_at(j, lo, hi) == ys[lo:hi], (inst, j, lo, hi)
                if j in kernel.generators:  # read below M' only, so M' > m
                    assert inst.working_precision > inst.box.m
                    width = {1: "own", inst.box.n: "all"}.get(len(reach), "some")
                    covered.add((min(p, 3), min(h, 2), width))
    # generators that read only their own column and ones that read all n >= 2
    # columns, at p = 2 and odd p and at h = 1 and h >= 2
    assert covered >= {(p, h, w) for p in (2, 3) for h in (1, 2) for w in ("own", "all")}


DEEP = """[ring]\np = 3\nh = 2\n[problem]\nn = 2\nm = 1\n[system]
f1 = x1^8 - x1^16 + x1^9*x2 - x1*x2 mod p^200\nf2 = {f2}\n[box]\ng[1][2] = x[0][1]\n"""


def test_deep_precision_counts_exactly():
    # f1 vanishes at every point only because x1 = tau(a) has x1^9 = x1 exactly
    # mod 3^200: its slots are some 1,600 bits wide, far past one machine word
    inst = parse_instance(DEEP.format(f2="x2^4 - x1^4 + 3*x1*x2 mod p^2"))
    kernel = _Kernel(inst)
    assert kernel.width > 1500 and not kernel.pending
    assert reference_count(inst) == 9
    for parts in PARTITIONS:
        assert count_zeros(inst, partitions=parts).cardinality == 9


def field_bound(inst):
    """(K, F, bound) from what each slot of a point sums: len(monomials) + 1
    terms, each a multiplier below 2^K times at most h products of two values
    below p^M', so below bound * 2^K.  With multipliers below p^{m_k} <= p^M'
    the sum is below bound * p^M', which 2^K exceeds for odd p."""
    p, h, top = inst.field.p, inst.field.h, inst.working_precision
    monomials = {e for f, _ in inst.system for e in f.tuple_terms() if any(e)}
    bound = (len(monomials) + 1) * h * p ** (2 * top)
    K = top if p == 2 else (bound * p ** top).bit_length()
    return K, (bound << K).bit_length(), bound


def test_fields_never_carry_at_any_precision():
    # the slot width is the least that holds the documented bound, so no
    # field carries into the next whatever the precision
    insts = [inst for p, h in FIELDS for kind in KINDS + ("elimination",)
             for inst in corpus(p, h, kind)]
    insts += [parse_instance(DEEP.format(f2="x2 mod p^1"))] + [parse_instance(
        f"[ring]\np = {p}\n[problem]\nn = 1\nm = 1\n[system]\nf1 = x1^2 + 2*x1 mod p^{top}\n")
        for p in (2, 3, 5) for top in (1, 2, 5, 21, 22, 64, 65, 300)]
    for inst in insts:
        K, F, bound = field_bound(inst)
        kernel = _Kernel(inst)
        assert kernel.width == F and bound << K < 1 << F <= bound << K + 1, inst
        assert kernel.bytes == max(8, -(-F * len(inst.system) * inst.field.h // 8))
        # bit K, the guard, holds the carry of the low bits plus the addend
        assert K + 2 <= F
        p, top = inst.field.p, inst.working_precision
        assert bound * p ** top < 1 << K if p > 2 else K == top


# (p, h, moduli) of kernels whose zero test is probed: one to four slots
ZERO_TESTS = [(2, 1, (1,)), (2, 2, (3, 1)), (3, 1, (2, 4, 1)), (3, 2, (1, 3)), (5, 1, (2,)),
              (7, 1, (1, 2, 3)), (3, 1, (40,))]


@pytest.mark.parametrize("p,h,moduli", ZERO_TESTS)
def test_zero_test_at_its_edges(p, h, moduli):
    # each slot of f_k holds u_k * v mod 2^K with any high bits above it; the
    # point is zero iff p^{m_k} | v in every slot.  The probes reach the
    # largest multiple of p^{m_k} below 2^K, the non-multiple the test maps
    # just past its limit, and points nonzero only in their last slot
    system = "".join(f"f{k} = x1^2 + {k}*x1 mod p^{mk}\n" for k, mk in enumerate(moduli, 1))
    inst = parse_instance(f"[ring]\np = {p}\nh = {h}\n[problem]\nn = 1\nm = 1\n[system]\n" + system)
    kernel = _Kernel(inst)
    K, F, _ = field_bound(inst)
    rng = random.Random(f"{p}-{h}-{moduli}")
    mods = [p ** mk for mk in sorted(moduli) for _ in range(h)]

    def probes(d):
        limit = ((1 << K) - 1) // d
        values = [0, d, limit * d, 1, d - 1, (1 << K) - 1, rng.randrange(1 << K)]
        if p > 2:  # the v whose v / d mod 2^K is limit + 1
            values.append((limit + 1) * d % (1 << K))
        return values

    def slot(v, d):
        u = 1 if p == 2 else pow(d, -1, 1 << K)
        return v * u % (1 << K) + (rng.randrange(1 << (F - K - 1)) << K)

    points, expected = [], 0
    for s, d in enumerate(mods):
        for v in probes(d):
            for filler in (0, 1):  # the other slots zero, or multiples of their moduli
                vs = [filler * rng.randrange(1 << K) // e * e if t != s else v
                      for t, e in enumerate(mods)]
                points.append(sum(slot(w, e) << t * F for t, (w, e) in enumerate(zip(vs, mods))))
                expected += all(w % e == 0 for w, e in zip(vs, mods))
    rng.shuffle(points)
    row = _join(points, kernel.bytes)
    assert kernel._split(row, len(points)) == points
    assert kernel._zeros(row, len(points)) == expected
    assert 0 < expected < len(points)
