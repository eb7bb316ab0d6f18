import random

import pytest

from wittbox.errors import BudgetError, ValidationError
from wittbox.fqfield import field_params, fq, from_index
from wittbox.poly import FieldDomain, MultiPoly
from wittbox.box import (
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
    base = decode_base(spec, 6)
    assert [a.to_index() for a in base] == [1, 2]


def test_expand_point_contract():
    g = var(F2, 1, 1, "x[0][1]")
    spec = box_make(F2, 1, 1, {(2, 1): g})
    one = fq(F2, 1)
    pt = expand_point(spec, (one,), 3)
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


def test_box_from_table_validation():
    spec = teichmuller_box(F2, 1, 1)
    table = [(pt.base, pt.digits) for pt in box_enumerate(spec, 2)]
    with pytest.raises(ValidationError):
        box_from_table(F2, 1, 1, 2, table[:1])  # missing rows
    with pytest.raises(ValidationError):
        box_from_table(F2, 1, 1, 2, table + table[:1])  # duplicate row
    bad = [(base, ((digits[0][1], digits[0][1]),)) for base, digits in table]
    with pytest.raises(ValidationError):
        box_from_table(F2, 1, 1, 2, bad)  # digits below m disagree with base
    with pytest.raises(BudgetError):
        box_from_table(F2, 30, 1, 2, [])


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
