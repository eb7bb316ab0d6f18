"""Property tests: packed-exponent MultiPoly products against a naive reference.

The reference multiplies tuple-keyed term dicts with a plain double loop and
drops zero coefficients with the domain's own coerce and zero, so it shares
nothing with the packed keys of `MultiPoly.__mul__`/`__pow__`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from wittbox.fqfield import field_params, fq, fq_enumerate
from wittbox.poly import FieldDomain, MultiPoly, ZZ

F4 = field_params(2, 2)
DOMAINS = {
    "ZZ": (ZZ, st.integers(-6, 6)),
    "F_4": (FieldDomain(F4), st.sampled_from(fq_enumerate(F4))),
}
HUGE = 2 ** 40
EXPONENTS = st.one_of(st.integers(0, 3), st.sampled_from([HUGE - 1, HUGE, 2 ** 39 + 1]))


def naive_mul(f, g):
    dom, acc = f.domain, {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    terms = {}
    for key, c in acc.items():
        c = dom.coerce(c)
        if c != dom.zero:
            terms[key] = c
    return terms


def naive_pow(f, e):
    result = MultiPoly.constant(f.domain, f.variables, f.domain.one)
    for _ in range(e):
        result = MultiPoly(f.domain, f.variables, naive_mul(result, f))
    return result.terms


@st.composite
def poly_pairs(draw):
    """Two polynomials over one domain and one context of arity 0..3."""
    dom, coeffs = DOMAINS[draw(st.sampled_from(sorted(DOMAINS)))]
    names = tuple("xyz"[: draw(st.integers(0, 3))])

    def poly():
        exps = st.tuples(*[EXPONENTS] * len(names))
        return MultiPoly(dom, names, draw(st.dictionaries(exps, coeffs, max_size=5)))

    return poly(), poly()


@settings(max_examples=300, deadline=None)
@given(poly_pairs())
def test_mul_matches_naive(pair):
    f, g = pair
    assert (f * g).terms == naive_mul(f, g)
    assert (g * f).terms == naive_mul(g, f)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.integers(0, 4))
def test_pow_matches_naive(pair, e):
    f, _ = pair
    assert (f ** e).terms == naive_pow(f, e)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.sampled_from([1, -1]), st.integers(1, 3))
def test_pow_with_huge_exponent(a, sign, shift):
    # (sign * x^a * y)^(2^40 - shift): one term, exponents far past 2^40
    e = HUGE - shift
    f = MultiPoly(ZZ, ("x", "y"), {(a, 1): sign})
    assert (f ** e).terms == {(a * e, e): sign ** (e % 2)}


def test_constants_zero_and_cancellation():
    for dom, _ in DOMAINS.values():
        zero = MultiPoly.zero(dom, ("x",))
        one = MultiPoly.constant(dom, ("x",), 1)
        x = MultiPoly.variable(dom, ("x",), "x")
        assert (zero * x).is_zero() and (x * zero).is_zero()
        assert (one * x) == x and (zero ** 0) == one and (x ** 1) == x
        empty = MultiPoly.constant(dom, (), 1)
        assert (empty * empty) == empty and (empty ** 5) == empty
    x, y = (MultiPoly.variable(ZZ, ("x", "y"), v) for v in "xy")
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}  # the xy terms cancel
    u = MultiPoly.variable(FieldDomain(F4), ("u",), "u")
    assert ((u + 1) ** 2).terms == (u * u + 1).terms  # 2u = 0 in characteristic 2
    t = fq(F4, [0, 1])
    # (u + t)(u + t + 1) = u^2 + u + t^2 + t: the t in the u coefficient cancels
    assert ((u + t) * (u + t + 1)).terms == (u * u + u + 1).terms
    assert ((u * t + u * (t + fq(F4, 1)) + u) * u).is_zero()  # t + (t + 1) + 1 = 0
