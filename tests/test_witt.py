import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittbox import witt
from wittbox.errors import BudgetError, ConfigError, ExactDivisionError, ValidationError
from wittbox.fqfield import power
from wittbox.poly import MultiPoly, ZZ
from wittbox.witt import (
    PRODUCT,
    SUM,
    ghost_check,
    ghost_identity_holds,
    twisted_digit_polys,
    witt_op_polys,
    witt_var,
    witt_variable_names,
)


# -- reference recursion ------------------------------------------------------
#
# The ghost recursion on whole `MultiPoly`s: every product is a
# `MultiPoly.__mul__` in its own slot layout, and scaling, subtraction and
# division go term by term on exponent tuples.  It charges `MAX_WITT_PAIRS`
# and `MAX_WITT_TOTAL` on the same products as `witt_op_polys`, so refusals
# must agree too.


def _ref_checked_mul():
    spent = []

    def mul(f, g):
        spent.append(len(f.terms) * len(g.terms))
        if spent[-1] > witt.MAX_WITT_PAIRS:
            raise BudgetError(witt._REFUSAL)
        if sum(spent) > witt.MAX_WITT_TOTAL:
            raise BudgetError(witt._TOTAL_REFUSAL)
        return f * g
    return mul


def _ref_witt_sum(p, k, xs, names, mul):
    """sum_i p^i xs[i]^(p^(k-i)): w_k at xs[0..k], or its first len(xs) terms."""
    total = MultiPoly.zero(ZZ, names)
    for i, x in enumerate(xs):
        total = total + power(x, p ** (k - i), mul) * (p ** i)
    return total


def _ref_ghost_combination(p, k, n, r, kind, names, mul):
    ghosts = [_ref_witt_sum(p, k, [MultiPoly.variable(ZZ, names, witt_var(r, i, j))
                                   for i in range(k + 1)], names, mul)
              for j in range(1, r + 1)]
    if kind == SUM:
        g = MultiPoly.zero(ZZ, names)
        for gh in ghosts:
            g = g + gh
    else:
        g = MultiPoly.constant(ZZ, names, 1)
        for gh in ghosts:
            g = mul(g, gh)
    return g


def _ref_exact_div(f, d):
    terms = {}
    for e, c in f.tuple_terms().items():
        if c % d != 0:
            raise ExactDivisionError(f"coefficient {c} not divisible by {d}")
        terms[e] = c // d
    return MultiPoly(ZZ, f.variables, terms)


def reference_op_polys(p, n, r, kind):
    names, mul = witt_variable_names(n, r), _ref_checked_mul()
    polys = []
    for k in range(n + 1):
        g = (_ref_ghost_combination(p, k, n, r, kind, names, mul)
             - _ref_witt_sum(p, k, polys, names, mul))
        polys.append(_ref_exact_div(g, p ** k))
    return tuple(polys)


def _outcome(op_polys, *args):
    """The coordinates, or the type and message of the refusal."""
    try:
        return op_polys(*args)
    except (BudgetError, ExactDivisionError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def fresh_cache():
    witt.witt_op_polys.cache_clear()
    yield
    witt.witt_op_polys.cache_clear()


ORACLE_CASES = [(p, n, r, kind) for p in (2, 3, 5) for n in range(4) for r in (2, 3)
                for kind in (SUM, PRODUCT) if (p, n) != (5, 3)]


# sums whose coefficient bounds need 78 and 170 bits: fields wider than one word
WIDE_CASES = [(7, 2, 3, SUM), (13, 2, 2, SUM)]


@pytest.mark.parametrize("p,n,r,kind", ORACLE_CASES + WIDE_CASES)
def test_op_polys_match_reference(p, n, r, kind):
    assert witt_op_polys(p, n, r, kind) == reference_op_polys(p, n, r, kind)


@pytest.mark.parametrize("cap", [20, 300, 5000])
@pytest.mark.parametrize("p,n,r,kind", [c for c in ORACLE_CASES if c[1] >= 2])
def test_refusals_match_reference(p, n, r, kind, cap, monkeypatch, fresh_cache):
    monkeypatch.setattr(witt, "MAX_WITT_PAIRS", cap)
    assert _outcome(witt_op_polys, p, n, r, kind) == _outcome(reference_op_polys, p, n, r, kind)


@pytest.mark.parametrize("cap", [30, 1000, 20000])
@pytest.mark.parametrize("p,n,r,kind", [c for c in ORACLE_CASES if c[1] >= 2])
def test_total_refusals_match_reference(p, n, r, kind, cap, monkeypatch, fresh_cache):
    monkeypatch.setattr(witt, "MAX_WITT_TOTAL", cap)
    assert _outcome(witt_op_polys, p, n, r, kind) == _outcome(reference_op_polys, p, n, r, kind)


@pytest.mark.parametrize("p,n,r", [(4, 1, 2), (4, 2, 3), (6, 1, 2), (9, 1, 3)])
def test_composite_p_leaves_a_remainder(p, n, r, fresh_cache):
    # the ghost recursion is integral only for prime p
    got = _outcome(witt_op_polys, p, n, r, SUM)
    assert got[0] is ExactDivisionError
    assert got == _outcome(reference_op_polys, p, n, r, SUM)


def test_refusal_is_pinned_to_the_largest_product(monkeypatch, fresh_cache):
    # the (3, 3, 3) sum's largest charged product is 161 * 2405 = 387,205 pairs
    monkeypatch.setattr(witt, "MAX_WITT_PAIRS", 161 * 2405)
    assert len(witt_op_polys(3, 3, 3, SUM)) == 4
    witt.witt_op_polys.cache_clear()
    monkeypatch.setattr(witt, "MAX_WITT_PAIRS", 161 * 2405 - 1)
    with pytest.raises(BudgetError) as refused:
        witt_op_polys(3, 3, 3, SUM)
    assert str(refused.value) == (
        "the Witt recursion needs a product of more than 33554432 term pairs")


def test_total_refusal_is_pinned_to_the_whole_recursion(monkeypatch, fresh_cache):
    # the products of the (3, 3, 3) sum make 617,905 pairs in all, and its
    # ghost check as many; each call is charged on its own
    monkeypatch.setattr(witt, "MAX_WITT_TOTAL", 617905)
    polys = witt_op_polys(3, 3, 3, SUM)
    assert ghost_identity_holds(3, 3, 3, SUM, polys)
    witt.witt_op_polys.cache_clear()
    monkeypatch.setattr(witt, "MAX_WITT_TOTAL", 617904)
    for check in (lambda: witt_op_polys(3, 3, 3, SUM),
                  lambda: ghost_identity_holds(3, 3, 3, SUM, polys)):
        with pytest.raises(BudgetError) as refused:
            check()
        assert str(refused.value) == (
            "the Witt recursion needs more than 67108864 term pairs in all")


def test_witt_poly_small():
    def w(k):
        names = tuple(f"X{i}" for i in range(k + 1))
        xs = [MultiPoly.variable(ZZ, names, name) for name in names]
        return _ref_witt_sum(2, k, xs, names, _ref_checked_mul())

    assert w(0).tuple_terms() == {(1,): 1}
    assert w(2).tuple_terms() == {(4, 0, 0): 1, (0, 2, 0): 2, (0, 0, 1): 4}  # X0^4 + 2 X1^2 + 4 X2
    # a prefix of the variables gives the first terms of w_k only
    names = ("X0", "X1", "X2")
    xs = [MultiPoly.variable(ZZ, names, name) for name in names[:2]]
    assert _ref_witt_sum(2, 2, xs, names, _ref_checked_mul()).tuple_terms() == {(4, 0, 0): 1, (0, 2, 0): 2}


def test_variable_names():
    assert witt_variable_names(1, 2) == ("X0", "Y0", "X1", "Y1")
    assert witt_variable_names(1, 3) == ("x01", "x02", "x03", "x11", "x12", "x13")
    assert witt_var(2, 0, 2) == "Y0"
    assert witt_var(3, 1, 3) == "x13"


def _closed_form_pair(p):
    """The textbook closed forms for the two-fold first coordinates:

    S0 = X0 + Y0
    S1 = X1 + Y1 - sum_{i=1}^{p-1} (1/p) C(p, i) X0^i Y0^(p-i)
    M0 = X0 * Y0
    M1 = X0^p Y1 + Y0^p X1 + p X1 Y1
    """
    names = witt_variable_names(1, 2)
    s0 = MultiPoly(ZZ, names, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
    s1_terms = {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
    for i in range(1, p):
        s1_terms[(i, p - i, 0, 0)] = -(math.comb(p, i) // p)
    s1 = MultiPoly(ZZ, names, s1_terms)
    m0 = MultiPoly(ZZ, names, {(1, 1, 0, 0): 1})
    m1 = MultiPoly(ZZ, names, {
        (p, 0, 0, 1): 1,
        (0, p, 1, 0): 1,
        (0, 0, 1, 1): p,
    })
    return s0, s1, m0, m1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_closed_forms(p):
    s0, s1, m0, m1 = _closed_form_pair(p)
    S = witt_op_polys(p, 1, 2, SUM)
    M = witt_op_polys(p, 1, 2, PRODUCT)
    assert S[0] == s0
    assert S[1] == s1
    assert M[0] == m0
    assert M[1] == m1


def test_rendered_golden_p2():
    S = witt_op_polys(2, 1, 2, SUM)
    M = witt_op_polys(2, 1, 2, PRODUCT)
    assert S[0].render() == "X0 + Y0"
    assert S[1].render() == "-X0*Y0 + X1 + Y1"
    assert M[0].render() == "X0*Y0"
    assert M[1].render() == "X0^2*Y1 + Y0^2*X1 + 2*X1*Y1"


def test_threefold_sum_matches_iterated_twofold():
    """S^(3) must agree with two applications of S^(2) on all digit inputs
    (checked numerically over small integers via the ghost map instead:
    equality of polynomials already follows from the shared ghost identity,
    so here we pin the variable bookkeeping with a structural spot check)."""
    polys = witt_op_polys(2, 1, 3, SUM)
    assert polys[0].render() == "x01 + x02 + x03"
    # ghost identity is the defining property
    assert ghost_check(2, 2, 3, SUM)
    assert ghost_check(3, 2, 3, PRODUCT)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("kind", [SUM, PRODUCT])
def test_ghost_identity(p, r, kind):
    assert ghost_check(p, 2, r, kind)


def test_ghost_negative_control():
    polys = list(witt_op_polys(2, 1, 2, SUM))
    names = witt_variable_names(1, 2)
    polys[1] = polys[1] + MultiPoly.constant(ZZ, names, 1)
    assert not ghost_identity_holds(2, 1, 2, SUM, polys)


def _bump(poly, p, n):
    """One coefficient plus 1."""
    terms = dict(poly.tuple_terms())
    e = min(terms)
    terms[e] += 1
    return terms


def _drop(poly, p, n):
    """One term removed."""
    terms = dict(poly.tuple_terms())
    del terms[min(terms)]
    return terms


def _wide(poly, p, n):
    """A term x^(p^n + 1) on the last variable, past any exponent of the coordinates."""
    return {**poly.tuple_terms(), (0,) * (len(poly.variables) - 1) + (p ** n + 1,): 1}


def _aliased(poly, p, n, shift=None):
    """One term t moved to t * x_b^E / x_(b-1), for E = 2^bitlength(p^n) > p^n.

    In slots only p^n wide, with x_(b-1) in the slot above x_b, x_b^E packs to
    the key of x_(b-1), so a check that packed the mutated input that narrowly
    would see P_k unchanged.
    """
    terms = dict(poly.tuple_terms())
    e = next(e for e in sorted(terms) if any(e[:-1]))
    b = next(i for i, x in enumerate(e[:-1]) if x) + 1
    moved = list(e)
    moved[b - 1] -= 1
    moved[b] += 1 << (shift or (p ** n).bit_length())
    terms[tuple(moved)] = terms.pop(e)
    return terms


def _aliased_in_slots(poly, p, n):
    """`_aliased` with E = 2^width, width that of the slots the coordinates come in."""
    return _aliased(poly, p, n, poly.width)


def _slide(poly, p, n):
    """One term t moved to t * x0r / x01: the sum keeps it in the same row."""
    terms = dict(poly.tuple_terms())
    e = min(e for e in terms if e[0])
    r = len(poly.variables) // (n + 1)
    moved = (e[0] - 1,) + e[1:r - 1] + (e[r - 1] + 1,) + e[r:]
    c = terms.get(moved, 0) + terms.pop(e)
    if c:
        terms[moved] = c
    else:
        terms.pop(moved)
    return terms


@pytest.mark.parametrize("mutate", [_bump, _drop, _wide, _aliased, _aliased_in_slots, _slide])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("kind", [SUM, PRODUCT])
@pytest.mark.parametrize("p,n", [(2, 2), (3, 1)])
def test_mutated_coordinates_break_the_ghost_identity(p, n, r, kind, mutate):
    polys = witt_op_polys(p, n, r, kind)
    assert ghost_identity_holds(p, n, r, kind, polys)
    for k in range(n + 1):
        mutated = list(polys)
        mutated[k] = MultiPoly(ZZ, polys[k].variables, mutate(polys[k], p, n))
        assert mutated[k] != polys[k]
        assert not ghost_identity_holds(p, n, r, kind, mutated)


def test_ghost_check_needs_the_coordinates_context():
    polys = list(witt_op_polys(2, 1, 2, SUM))
    polys[0] = MultiPoly.variable(ZZ, ("X0", "Y0"), "X0")
    with pytest.raises(ConfigError):
        ghost_identity_holds(2, 1, 2, SUM, polys)


@pytest.mark.parametrize("extra", [1, -1])
def test_ghost_check_needs_one_polynomial_per_coordinate(extra):
    polys = list(witt_op_polys(2, 1, 2, SUM))
    names = witt_variable_names(1, 2)
    polys = polys + [MultiPoly.constant(ZZ, names, 5)] if extra > 0 else polys[:-1]
    with pytest.raises(ConfigError):
        ghost_identity_holds(2, 1, 2, SUM, polys)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([64, 128]).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.lists(st.one_of(st.just(0), st.integers(-(2 ** (width - 1) - 1), 2 ** (width - 1) - 1)),
                      min_size=1, max_size=12), min_size=1, max_size=4))))
def test_row_fields_round_trip(case):
    # row i holds the terms X0^(s - j) * Y0^j, s = 20i + 11, with coefficient
    # rows[i][j]: X0's slot holds s, and Y0's exponent j picks the field
    width, rows = case
    poly = MultiPoly(ZZ, ("X0", "Y0"), {(20 * i + 11 - j, j): c for i, cs in enumerate(rows)
                                        for j, c in enumerate(cs) if c})
    layout = witt._Rows(2, poly.width, 2, width)
    packed = layout.encode(poly.terms)
    assert len(packed) == sum(any(cs) for cs in rows)
    assert layout.terms(packed) == len(poly.terms)
    assert layout.divide(packed, 1) == poly.terms


def test_twisted_polys():
    tw = twisted_digit_polys(2, 1, 2, SUM)
    # s1 = S1 with X1 -> X1^2, Y1 -> Y1^2 (level-1 variables squared)
    assert tw[1].tuple_terms() == {(1, 1, 0, 0): -1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1}
    # total homogeneity of degree p^n
    for nn, poly in enumerate(twisted_digit_polys(3, 2, 2, SUM)):
        assert {sum(e) for e in poly.tuple_terms()} == {3 ** nn}


def test_bad_inputs():
    with pytest.raises(ValidationError):
        witt_op_polys(2, 1, 1, SUM)
    for p in (1, 0, -2):  # p = 0 crashed and p = -2 never returned
        with pytest.raises(ValidationError):
            witt_op_polys(p, 1, 2, SUM)
    with pytest.raises(ValidationError):
        witt_op_polys(2, 1, 2, "quotient")
