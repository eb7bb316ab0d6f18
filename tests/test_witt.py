import math

import pytest

from wittbox.errors import ValidationError
from wittbox.poly import MultiPoly, ZZ
from wittbox.witt import (
    PRODUCT,
    SUM,
    _witt_sum,
    ghost_check,
    ghost_identity_holds,
    twisted_digit_polys,
    witt_op_polys,
    witt_var,
    witt_variable_names,
)


def test_witt_poly_small():
    def w(k):
        names = tuple(f"X{i}" for i in range(k + 1))
        xs = [MultiPoly.variable(ZZ, names, name) for name in names]
        return _witt_sum(2, k, xs, names)

    assert w(0).terms == {(1,): 1}
    assert w(2).terms == {(4, 0, 0): 1, (0, 2, 0): 2, (0, 0, 1): 4}  # X0^4 + 2 X1^2 + 4 X2
    # a prefix of the variables gives the first terms of w_k only
    names = ("X0", "X1", "X2")
    xs = [MultiPoly.variable(ZZ, names, name) for name in names[:2]]
    assert _witt_sum(2, 2, xs, names).terms == {(4, 0, 0): 1, (0, 2, 0): 2}


def test_variable_names():
    assert witt_variable_names(1, 2) == ("X0", "Y0", "X1", "Y1")
    assert witt_variable_names(1, 3) == ("x01", "x02", "x03", "x11", "x12", "x13")
    assert witt_var(1, 2, 0, 2) == "Y0"
    assert witt_var(1, 3, 1, 3) == "x13"


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


def test_twisted_polys():
    tw = twisted_digit_polys(2, 1, 2, SUM)
    # s1 = S1 with X1 -> X1^2, Y1 -> Y1^2 (level-1 variables squared)
    assert tw[1].terms == {(1, 1, 0, 0): -1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1}
    # total homogeneity of degree p^n
    for nn, poly in enumerate(twisted_digit_polys(3, 2, 2, SUM)):
        assert {sum(e) for e in poly.terms} == {3 ** nn}


def test_bad_inputs():
    with pytest.raises(ValidationError):
        witt_op_polys(2, 1, 1, SUM)
    with pytest.raises(ValidationError):
        witt_op_polys(2, 1, 2, "quotient")
