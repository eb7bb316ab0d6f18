"""Property tests: the ring axioms and the Teichmuller fixed point in
GR(p^M, h), powers as repeated products, the digit-codec round trip, and the
render/parse round trip of polynomials over Z and over F_q."""

from functools import reduce
from operator import mul

from hypothesis import given, settings, strategies as st

from wittbox.fqfield import GRElem, GRParams, field_params, fq, fq_enumerate, gr_one, gr_zero
from wittbox.galois import from_digits, teichmuller_lift, to_digits
from wittbox.instancefile import parse_poly
from wittbox.poly import FieldDomain, MultiPoly, ZZ

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# GR(p^M, h) for p in {2, 3}, h <= 2, M <= 4
RINGS = [GRParams(field_params(p, h), precision)
         for p in (2, 3) for h in (1, 2) for precision in range(1, 5)]
FIELDS = [field_params(2), field_params(3), field_params(2, 2), field_params(3, 2),
          field_params(2, 3)]


def elements(params, count):
    coeff = st.integers(0, params.char - 1)
    element = st.tuples(*[coeff] * params.h).map(lambda c: GRElem(params, c))
    return st.tuples(*[element] * count)


@st.composite
def ring_triples(draw):
    params = draw(st.sampled_from(RINGS))
    return params, draw(elements(params, 3))


@PROPERTY
@given(ring_triples())
def test_ring_axioms(case):
    params, (a, b, c) = case
    zero, one = gr_zero(params), gr_one(params)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and a - b == a + (-b)
    assert a ** 3 == a * a * a and a ** 0 == one


@PROPERTY
@given(st.sampled_from(RINGS).flatmap(
    lambda params: st.tuples(st.just(params), st.sampled_from(fq_enumerate(params.field)))))
def test_teichmuller_lift_is_the_fixed_point(case):
    params, a = case
    z = teichmuller_lift(a, params)
    assert z ** params.field.q == z
    assert tuple(c % params.p for c in z.coeffs) == a.coeffs


@PROPERTY
@given(st.sampled_from(RINGS).flatmap(lambda params: elements(params, 1)), st.integers(0, 24))
def test_ring_power_is_the_repeated_product(case, e):
    (y,) = case
    assert y ** e == reduce(mul, [y] * e, gr_one(y.params))


@PROPERTY
@given(st.sampled_from(RINGS).flatmap(lambda params: elements(params, 1)))
def test_digit_round_trip(case):
    (y,) = case
    assert from_digits(to_digits(y), y.params) == y


VARIABLE_SETS = [("x1",), ("x1", "x2", "x3"), ("x[0][1]", "x[1][1]", "x[0][2]")]


@st.composite
def polynomials(draw, coefficient):
    names = draw(st.sampled_from(VARIABLE_SETS))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    return names, draw(st.dictionaries(exps, coefficient, max_size=5))


@PROPERTY
@given(polynomials(st.integers(-20, 20)))
def test_render_parse_round_trip_over_z(case):
    names, terms = case
    f = MultiPoly(ZZ, names, terms)
    assert parse_poly(f.render(), ZZ, names) == f


@st.composite
def field_polynomials(draw):
    field = draw(st.sampled_from(FIELDS))
    coefficient = st.lists(st.integers(0, field.p - 1), min_size=field.h,
                           max_size=field.h).map(lambda c: fq(field, c))
    names, terms = draw(polynomials(coefficient))
    return field, names, terms


@PROPERTY
@given(field_polynomials())
def test_render_parse_round_trip_over_fq(case):
    field, names, terms = case
    dom = FieldDomain(field)
    f = MultiPoly(dom, names, terms)
    assert parse_poly(f.render(), dom, names) == f


F4 = field_params(2, 2)


@PROPERTY
@given(st.one_of(
    polynomials(st.integers(-3, 3)).map(lambda case: (ZZ, *case)),
    polynomials(st.sampled_from(fq_enumerate(F4))).map(lambda case: (FieldDomain(F4), *case))),
    st.integers(0, 24))
def test_poly_power_is_the_repeated_product(case, e):
    dom, names, terms = case
    f = MultiPoly(dom, names, dict(list(terms.items())[:3]))
    assert f ** e == reduce(mul, [f] * e, MultiPoly.constant(dom, names, dom.one))
