import importlib.util
import random
from array import array
from operator import mul
from pathlib import Path

import pytest

from wittbox.errors import BudgetError, ConfigError, ValidationError
from wittbox.fqfield import GRParams, _is_prime, field_params, fq, fq_enumerate, from_index, polymul_mod
from wittbox.poly import FieldDomain, MultiPoly
from wittbox.box import (
    TABLE_BUDGET,
    TRANSFORM_BUDGET,
    _transform,
    box_enumerate,
    box_from_table,
    box_make,
    box_variable_names,
    closeness_check,
    decode_base,
    expand_point,
    teichmuller_box,
)

F2 = field_params(2)
F4 = field_params(2, 2)


def var(field, n, m, name):
    return MultiPoly.variable(FieldDomain(field), box_variable_names(n, m), name)


def test_variable_names_order():
    assert box_variable_names(2, 2) == ("x[0][1]", "x[0][2]", "x[1][1]", "x[1][2]")


def test_make_validation():
    names = box_variable_names(2, 2)
    dom = FieldDomain(F2)
    g = MultiPoly.variable(dom, names, "x[0][1]")
    with pytest.raises(ValidationError):
        box_make(F2, 0, 2, {})
    with pytest.raises(ValidationError):
        box_make(F2, 2, 2, {(1, 1): g})  # i < m
    with pytest.raises(ValidationError):
        box_make(F2, 2, 2, {(2, 3): g})  # j out of range
    with pytest.raises(ValidationError):
        box_make(F2, 2, 2, {(2, 1): g ** 2})  # not reduced for q = 2
    foreign = MultiPoly.variable(dom, ("z",), "z")
    with pytest.raises(ValidationError):
        box_make(F2, 2, 2, {(2, 1): foreign})


def test_zero_generators_are_dropped():
    names = box_variable_names(1, 1)
    dom = FieldDomain(F2)
    spec = box_make(F2, 1, 1, {(1, 1): MultiPoly.zero(dom, names)})
    assert spec.generators == {}
    assert spec.generator(1, 1).is_zero()
    with pytest.raises(ValidationError):
        spec.generator(0, 1)  # below m: free variable, not a generator


def test_base_size_and_decode():
    spec = teichmuller_box(F4, 1, 2)
    assert spec.base_size() == 16
    # big-endian base-q: index 6 = 1*4 + 2 -> (fq index 1, fq index 2)
    base = decode_base(spec, 6, fq_enumerate(F4))
    assert [a.to_index() for a in base] == [1, 2]


def test_expand_point_contract():
    g = var(F2, 1, 1, "x[0][1]")
    spec = box_make(F2, 1, 1, {(2, 1): g})
    one = fq(F2, 1)
    pt = expand_point(spec, (one,), 3, fq_enumerate(F2))
    # digit 0 is the base; digit 1 has no generator (zero); digit 2 is g(base)
    assert pt.digits[0][0] == one
    assert pt.digits[0][1].is_zero()
    assert pt.digits[0][2] == one


def test_enumerate_partition_and_precision():
    spec = teichmuller_box(F2, 2, 2)
    whole = list(box_enumerate(spec, 2))
    assert len(whole) == 16
    with pytest.raises(ValidationError):
        next(box_enumerate(spec, 1))


def test_closeness():
    # q = 2, h = 1: limit at digit i is 2^i
    names = box_variable_names(4, 2)
    dom = FieldDomain(F2)

    def mono(*vs):
        g = MultiPoly.constant(dom, names, 1)
        for v in vs:
            g = g * MultiPoly.variable(dom, names, v)
        return g

    good = box_make(F2, 4, 2, {(2, 1): mono("x[0][1]", "x[1][1]", "x[0][2]", "x[1][4]")})
    ok, violations = closeness_check(good, 3)
    assert ok and violations == []

    bad = box_make(F2, 4, 2, {
        (2, 1): mono("x[0][1]", "x[1][1]", "x[0][2]", "x[1][2]", "x[0][3]"),
    })
    ok, violations = closeness_check(bad, 3)
    assert not ok
    assert violations == [(2, 1, 5, 4)]
    # below the digit where the violation lives, the relation still holds
    ok, _ = closeness_check(bad, 2)
    assert ok


def test_closeness_h2_limits():
    # h = 2: the limit is p^(h*floor(i/h)), so digits 2 and 3 share limit q = 4
    names = box_variable_names(1, 2)
    dom = FieldDomain(F4)
    x0 = MultiPoly.variable(dom, names, "x[0][1]")
    x1 = MultiPoly.variable(dom, names, "x[1][1]")
    spec = box_make(F4, 1, 2, {(2, 1): x0 ** 3 * x1, (3, 1): x0 ** 3 * x1 ** 2})
    ok, violations = closeness_check(spec, 4)
    assert not ok
    assert violations == [(3, 1, 5, 4)]


def reference_closeness(spec, m_prime):
    """The level scan: every level from m to m'-1, every column at each level."""
    p, h = spec.field.p, spec.field.h
    violations = []
    for i in range(spec.m, m_prime):
        limit = p ** (h * (i // h))
        for j in range(1, spec.n + 1):
            g = spec.generators.get((i, j))
            if g is None:
                continue
            deg = g.total_degree()
            if deg > limit:
                violations.append((i, j, deg, limit))
    return (not violations), violations


def _random_reduced(rng, field, names):
    q = field.q
    terms = {tuple(rng.randrange(q) for _ in names): from_index(field.ring, rng.randrange(1, q))
             for _ in range(rng.randint(1, 3))}
    return MultiPoly(FieldDomain(field), names, terms)


def test_closeness_matches_level_scan_reference():
    # generators go in out of (i, j) order, at levels below, at and above m'
    rng = random.Random(5)
    seen = {"violations": 0, "filtered": 0, "unsorted": 0}
    for _ in range(300):
        field = rng.choice((F2, F4, field_params(3)))
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        names = box_variable_names(n, m)
        slots = [(i, j) for i in range(m, m + 6) for j in range(1, n + 1)]
        chosen = rng.sample(slots, rng.randint(1, len(slots)))
        spec = box_make(field, n, m, {ij: _random_reduced(rng, field, names) for ij in chosen})
        every = reference_closeness(spec, m + 6)[1]
        for m_prime in range(m, m + 7):
            expected = reference_closeness(spec, m_prime)
            assert closeness_check(spec, m_prime) == expected
            seen["violations"] += bool(expected[1])
            seen["filtered"] += len(every) > len(expected[1])
            seen["unsorted"] += list(spec.generators) != sorted(spec.generators) and len(expected[1]) > 1
    # the corpus reaches violations, ones the i < m' filter drops, and
    # several violations from generators stored out of order
    assert min(seen.values()) > 20, seen


def test_box_from_table_roundtrip():
    g = var(F2, 2, 2, "x[0][1]") * var(F2, 2, 2, "x[1][2]")
    spec = box_make(F2, 2, 2, {(2, 1): g})
    table = [(pt.base, pt.digits) for pt in box_enumerate(spec, 3)]
    recovered = box_from_table(F2, 2, 2, 3, table)
    assert recovered.generators == spec.generators

    # interpolation of a hand-built non-monomial table over n=1, m=1
    one = fq(F2, 1)
    zero = fq(F2, 0)
    # digit 1 = 1 + x (i.e. NOT of the base digit)
    table = [((zero,), ((zero, one),)), ((one,), ((one, zero),))]
    rec = box_from_table(F2, 1, 1, 2, table)
    g = rec.generators[(1, 1)]
    assert g.render() == "x[0][1] + 1"


def _f2_table(n=1, m=1, precision=2):
    return [(pt.base, pt.digits) for pt in box_enumerate(teichmuller_box(F2, n, m), precision)]


GR4 = GRParams(F2, 2)  # Z/4: its elements are not in F_2, whatever their code


def _foreign_base(code, precision):
    """The F_2 table with the base of its last row replaced by an element of Z/4."""
    table = _f2_table(precision=precision)
    odd = from_index(GR4, code)
    return table[:-1] + [((odd,), ((odd,) + table[-1][1][0][1:],))]


def _foreign_digit():
    table = _f2_table()
    base, digits = table[-1]
    return table[:-1] + [(base, ((digits[0][0], from_index(GR4, 1)),))]


# name -> (table, exception type, message); each table has one fault
REFUSALS = {
    "arity": (lambda: [((fq(F2, 0), fq(F2, 0)), d) for _, d in _f2_table()], ValidationError,
              "base point has wrong arity"),
    "shape-columns": (lambda: [(b, d + d) for b, d in _f2_table()], ValidationError,
                      "digit table has wrong shape"),
    "shape-precision": (lambda: [(b, (d[0][:1],)) for b, d in _f2_table()], ValidationError,
                        "digit table has wrong shape"),
    "missing": (lambda: _f2_table()[:1], ValidationError, "table must have exactly 2 rows, got 1"),
    "duplicate": (lambda: _f2_table() + _f2_table()[:1], ValidationError,
                  "duplicate base point in table"),
    "disagree": (lambda: [(b, ((d[0][1], d[0][1]),)) for b, d in _f2_table()], ValidationError,
                 "table digits below m disagree with the base point"),
    # a code past q indexed past the table; one below q was taken silently
    "foreign-base-code-3": (lambda: _foreign_base(3, 2), ConfigError,
                            "F_q element from a different field"),
    "foreign-base-code-1-precision-m": (lambda: _foreign_base(1, 1), ConfigError,
                                        "F_q element from a different field"),
    "foreign-digit": (_foreign_digit, ConfigError, "F_q element from a different field"),
    "not-an-element": (lambda: [(b, ((d[0][0], "1"),)) for b, d in _f2_table()], ConfigError,
                       "cannot coerce '1' into F_q"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_box_from_table_refusals(name):
    make, error, message = REFUSALS[name]
    table = make()
    precision = len(table[-1][1][0]) if name.startswith("foreign-base") else 2
    with pytest.raises(error) as info:
        box_from_table(F2, 1, 1, precision, table)
    assert type(info.value) is error and str(info.value) == message


def test_box_from_table_validation():
    with pytest.raises(BudgetError) as info:
        box_from_table(F2, 30, 1, 2, [])
    assert str(info.value) == "table of 1073741824 rows exceeds the budget 1048576"
    with pytest.raises(BudgetError):  # refused before the table is read
        box_from_table(F2, 21, 1, 2, iter(lambda: 1 / 0, None))
    # an element of an equal field built apart is no foreign element
    twin = field_params(2)
    assert twin is not F2
    assert box_from_table(twin, 1, 1, 2, _f2_table()).generators == {}


def _interp_ladder():
    path = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
    spec = importlib.util.spec_from_file_location("ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SHAPES


def test_transform_budget_refuses_before_any_row_is_read():
    # the transform takes nm * q^(nm+1) * h^2 multiply-adds: with nm = 1 a q^2
    # transform, about 10^12 for the largest prime q the row budget admits
    unread = iter(lambda: 1 / 0, None)
    assert TRANSFORM_BUDGET == 1 << 26
    for p, work in ((1048573, 1099505336329), (8209, 67387681)):
        with pytest.raises(BudgetError) as info:
            box_from_table(field_params(p), 1, 1, 2, unread)
        assert type(info.value) is BudgetError and str(info.value) == (
            f"interpolating {p} rows takes {work} multiply-adds, past the budget 67108864")
    # accepted up to the budget: q = 8191 at n = m = 1 (67,092,481), the
    # largest q = 2 table (nm = 20), every table shape of tools/ab.py and
    # every table the tests build; an empty table then fails the row count
    shapes = [(8191, 1, 1), (2, 20, 1)] + _interp_ladder()
    for q, n, m in shapes:
        with pytest.raises(ValidationError, match="^table must have exactly"):
            box_from_table(field_params(q), n, m, m + 2, [])
    for field, n, m in ((F2, 2, 2), (F2, 1, 1), (F4, 1, 2), (field_params(7), 2, 1),
                        (field_params(3, 2), 2, 1), (field_params(5), 3, 1)):
        assert n * m * field.q ** (n * m + 1) * field.h ** 2 <= TRANSFORM_BUDGET


def test_enumerated_points_share_the_field_elements():
    # every digit of every point, base or generator value, is one of the q
    # elements of one fq_enumerate, not an element built per digit
    spec = box_make(F4, 2, 1, {(1, 1): var(F4, 2, 1, "x[0][2]"), (2, 2): var(F4, 2, 1, "x[0][1]")})
    points = list(box_enumerate(spec, 3))
    digits = [d for pt in points for d in pt.base + sum(pt.digits, ())]
    assert len(digits) == 16 * 8 and len({id(d) for d in digits}) == 4
    # the points are those decode_base and expand_point build from those elements
    elements = fq_enumerate(F4)
    assert points == [expand_point(spec, decode_base(spec, k, elements), 3, elements)
                      for k in range(16)]


def test_fields_never_carry_under_the_table_budget():
    # a block field sums q*h products of a weight and a value, both below p;
    # p^h = q <= TABLE_BUDGET bounds q*h*p^2 by q^3 < 2^64 for every (p, h)
    assert TABLE_BUDGET ** 3 < 1 << 64
    for h in range(1, 21):
        p = next(p for p in range(int(round(TABLE_BUDGET ** (1 / h))) + 1, 1, -1)
                 if p ** h <= TABLE_BUDGET and _is_prime(p))
        assert p ** h * h * p ** 2 < 1 << 64, (p, h)
    assert p == 2 and next(p for p in range(TABLE_BUDGET, 1, -1) if _is_prime(p)) == 1048573


# (p, h, n, m, precision): q in {2, 3, 4, 5, 7, 9}, at most 125 table rows.
ROUNDTRIP_SHAPES = [
    (2, 1, 3, 2, 4), (2, 1, 1, 1, 3), (3, 1, 2, 1, 3), (3, 1, 1, 3, 4),
    (2, 2, 1, 2, 4), (2, 2, 2, 1, 3), (5, 1, 1, 2, 3), (5, 1, 3, 1, 2),
    (7, 1, 2, 1, 3), (3, 2, 1, 2, 3), (3, 2, 2, 1, 2),
]


def _random_generator(rng, field, names, kind):
    """A reduced polynomial over F_q: zero, or random terms plus the forced ones."""
    q, dom = field.q, FieldDomain(field)
    if kind == "zero":
        return MultiPoly.zero(dom, names)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randrange(q) for _ in names)
        terms[exps] = from_index(field.ring, rng.randrange(1, q))
    if kind == "edges":  # a constant term and an x^(q-1) term
        terms[(0,) * len(names)] = from_index(field.ring, rng.randrange(1, q))
        top = rng.randrange(len(names))
        terms[tuple(q - 1 if k == top else 0 for k in range(len(names)))] = fq(field, 1)
    return MultiPoly(dom, names, terms)


@pytest.mark.parametrize("p,h,n,m,precision", ROUNDTRIP_SHAPES)
def test_box_from_table_random_roundtrip(p, h, n, m, precision):
    field = field_params(p, h)
    names = box_variable_names(n, m)
    rng = random.Random(f"{p}:{h}:{n}:{m}:{precision}")
    slots = [(i, j) for i in range(m, precision) for j in range(1, n + 1)]
    kinds = ["edges", "zero"] + [rng.choice(("edges", "zero", "random")) for _ in slots[2:]]
    spec = box_make(field, n, m, {
        ij: _random_generator(rng, field, names, kind) for ij, kind in zip(slots, kinds)
    })
    table = [(pt.base, pt.digits) for pt in box_enumerate(spec, precision)]
    rng.shuffle(table)  # row order is not part of the contract
    assert box_from_table(field, n, m, precision, table).generators == spec.generators


def reference_interpolate(field, coords, nm):
    """The list-based transform: reduced-interpolant coefficients from values
    on F_q^{nm}, as h coordinate lists over F_p indexed big-endian.

    Each pass transforms the last axis and moves it to the front, computing
    every weight a^(q-1-k) * t^s with `polymul_mod`.
    """
    p, q, h, modulus = field.p, field.q, field.h, field.modulus
    elements = [a.coeffs for a in fq_enumerate(field)]
    basis = [tuple(int(r == s) for r in range(h)) for s in range(h)]

    def negated_sum(weights, planes):
        """-sum_a weights[a] * planes[a], one list per coordinate."""
        pairs = [[] for _ in range(h)]
        for w, plane in zip(weights, planes):
            if any(w):
                for s in range(h):
                    column = polymul_mod(modulus, p, w, basis[s])  # w * t^s
                    for r in range(h):
                        c = -column[r] % p
                        if c:
                            pairs[r].append((c, plane[s]))
        out = []
        for r_pairs in pairs:
            cs = [c for c, _ in r_pairs]
            out.append([sum(map(mul, cs, col)) % p for col in zip(*[v for _, v in r_pairs])])
        return out

    for _ in range(nm):
        planes = [[coord[a::q] for coord in coords] for a in range(q)]
        blocks = [planes[0]] + [None] * (q - 1)  # c_0 = v(0)
        powers = [basis[0]] * q  # a^(q-1-k), from k = q-1 down to k = 1
        for k in range(q - 1, 0, -1):
            blocks[k] = negated_sum(powers, planes)
            powers = [polymul_mod(modulus, p, w, a) for w, a in zip(powers, elements)]
        coords = [[x for block in blocks for x in block[r]] for r in range(h)]
    return coords


# (p, h, nm): q in {2, 3, 4, 5, 7, 8, 9, 25}, and one axis at q = 101.
TRANSFORM_SHAPES = [
    (2, 1, 1), (2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 3), (7, 1, 2), (2, 3, 2),
    (3, 2, 2), (5, 2, 1), (5, 2, 2), (101, 1, 1),
]


@pytest.mark.parametrize("p,h,nm", TRANSFORM_SHAPES)
def test_transform_matches_the_list_oracle(p, h, nm):
    field = field_params(p, h)
    rng = random.Random(f"transform:{p}:{h}:{nm}")
    interpolate = _transform(field, nm)
    size = field.q ** nm
    for density in (0.0, 0.3, 1.0):  # zero, sparse and dense values, p - 1 included
        coords = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(size)]
                  for _ in range(h)]
        coords[0][-1] = p - 1
        got = interpolate([array("Q", c) for c in coords])
        assert [list(c) for c in got] == reference_interpolate(field, coords, nm)
