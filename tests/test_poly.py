import pytest

from wittbox.errors import ConfigError, ValidationError
from wittbox.fqfield import field_params, fq
from wittbox.poly import FieldDomain, IntegerDomain, MultiPoly, ZZ

NAMES = ("x", "y")


def P(terms):
    return MultiPoly(ZZ, NAMES, terms)


X = MultiPoly.variable(ZZ, NAMES, "x")
Y = MultiPoly.variable(ZZ, NAMES, "y")


def test_zero_terms_are_dropped():
    assert P({(1, 0): 0, (0, 1): 2}).tuple_terms() == {(0, 1): 2}
    assert MultiPoly.zero(ZZ, NAMES).is_zero()


def test_arity_mismatch():
    with pytest.raises(ValidationError):
        P({(1,): 1})


def test_ring_ops():
    f = X + Y * 3
    g = X - Y
    assert (f + g).tuple_terms() == {(1, 0): 2, (0, 1): 2}
    assert (f - f).is_zero()
    assert (X * Y).tuple_terms() == {(1, 1): 1}
    # (x + y)^2 = x^2 + 2xy + y^2
    assert ((X + Y) ** 2).tuple_terms() == {(2, 0): 1, (1, 1): 1 + 1, (0, 2): 1}
    assert (X ** 0).tuple_terms() == {(0, 0): 1}


def test_mixed_context_rejected():
    other = MultiPoly.variable(ZZ, ("a", "b"), "a")
    with pytest.raises(ConfigError):
        X + other


def test_degrees():
    f = X ** 3 * Y + Y ** 2
    assert f.total_degree() == 4
    assert MultiPoly.zero(ZZ, NAMES).total_degree() == 0
    assert f.weighted_degree({"x": 1, "y": 2}) == 5
    assert f.weighted_degrees({"x": 1, "y": 2}) == {5, 4}
    with pytest.raises(ConfigError):
        f.weighted_degree({"x": 1})


def test_scale_exponents():
    f = X * Y + Y
    assert f.scale_exponents({"x": 2, "y": 3}).tuple_terms() == {(2, 3): 1, (0, 3): 1}


def test_field_domain_reduction():
    f9 = field_params(3, 2)
    dom = FieldDomain(f9)
    x = MultiPoly.variable(dom, ("x",), "x")
    # oracle: over F_q, x^q == x as a function, and the representative of
    # exponent 3 with q=9 is 3 itself; exponent 9 reduces to 1.
    assert (x ** 9).reduce_exponents().tuple_terms() == {(1,): fq(f9, 1)}
    assert (x ** 3).reduce_exponents().tuple_terms() == {(3,): fq(f9, 1)}
    assert not (x ** 9).is_reduced()
    assert (x ** 3).is_reduced()
    # q = 2 takes the same formula: a positive exponent reduces to 1
    f2 = field_params(2)
    x, y = (MultiPoly.variable(FieldDomain(f2), ("x", "y"), v) for v in "xy")
    assert (x ** 5 + x ** 2 * y).reduce_exponents().tuple_terms() == {(1, 0): fq(f2, 1), (1, 1): fq(f2, 1)}


def test_reduce_exponents_value_table_oracle():
    # q = 3: x^3 + x reduces to 2x; check against brute-force value agreement
    f3 = field_params(3)
    dom = FieldDomain(f3)
    x = MultiPoly.variable(dom, ("x",), "x")
    f = x ** 3 + x
    r = f.reduce_exponents()
    assert r.tuple_terms() == {(1,): fq(f3, 2)}
    from wittbox.fqfield import fq_enumerate

    for a in fq_enumerate(f3):
        assert f.evaluate({"x": a}, coerce=dom.coerce) == r.evaluate({"x": a}, coerce=dom.coerce)


def test_reduce_exponents_zz_rejected():
    with pytest.raises(ConfigError):
        (X ** 5).reduce_exponents()


def test_evaluate():
    f = X ** 2 + Y * 3 - 1
    assert f.evaluate({"x": 2, "y": 5}) == 18
    with pytest.raises(ConfigError):
        f.evaluate({"x": 2})


def test_render_golden():
    f = X ** 2 * Y - X * 3 + 1
    assert f.render() == "x^2*y - 3*x + 1"
    assert (-X).render() == "-x"
    assert MultiPoly.zero(ZZ, NAMES).render() == "0"
    # graded-lex: higher total degree first, then lex on exponent vectors
    g = X + Y + X * Y
    assert g.render() == "x*y + x + y"


def test_render_field_coefficients():
    f4 = field_params(2, 2)
    dom = FieldDomain(f4)
    names = ("u",)
    u = MultiPoly.variable(dom, names, "u")
    t = MultiPoly.constant(dom, names, fq(f4, [0, 1]))
    f = t * u + MultiPoly.constant(dom, names, fq(f4, [1, 1]))
    assert f.render() == "t*u + 1+t"
    g = (t + MultiPoly.constant(dom, names, fq(f4, 1))) * u
    assert g.render() == "(1+t)*u"


def test_domains_compare_by_value():
    f2, f4 = field_params(2), field_params(2, 2)
    assert ZZ == IntegerDomain() and hash(ZZ) == hash(IntegerDomain())
    assert FieldDomain(f4) == FieldDomain(field_params(2, 2)) != FieldDomain(f2)
    assert hash(FieldDomain(f4)) == hash(FieldDomain(field_params(2, 2)))
    assert ZZ != FieldDomain(f2)
    assert repr(FieldDomain(f2)) == f"FieldDomain(params={f2!r})"
    with pytest.raises(ConfigError):
        MultiPoly.variable(FieldDomain(f4), ("x",), "x") * MultiPoly.variable(FieldDomain(f2), ("x",), "x")
    with pytest.raises(ConfigError):
        FieldDomain(f2).coerce(fq(f4, 1))


def test_field_domain_constants_are_built_once():
    f4 = field_params(2, 2)
    dom = FieldDomain(f4)
    assert dom.one is dom.one and dom.zero is dom.zero
    assert dom.one == fq(f4, 1) and dom.zero == fq(f4, 0) and dom.zero.is_zero()
    x = MultiPoly.variable(dom, ("x", "y"), "x")
    assert x.tuple_terms() == {(1, 0): fq(f4, 1)} and x.tuple_terms()[(1, 0)] is dom.one
    assert x == MultiPoly(dom, ("x", "y"), {(1, 0): 1})
