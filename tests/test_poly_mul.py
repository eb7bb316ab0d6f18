"""Property tests: packed-exponent MultiPoly products against a naive reference.

The reference multiplies tuple-keyed term dicts with a plain double loop and
drops zero coefficients with the domain's own coerce and zero, so it shares
nothing with the packed keys of `MultiPoly.__mul__`/`__pow__`.  The same
polynomial in two slot layouts must compare, hash and render the same, and
render's term order is checked against a sort of the exponent tuples.
"""

import random
from itertools import chain

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from wittbox.fqfield import field_params, fq, fq_enumerate
from wittbox.poly import FieldDomain, MultiPoly, ZZ, _bound, _codec, _embed, _fields, _raw, _terms_in

F4 = field_params(2, 2)
DOMAINS = {
    "ZZ": (ZZ, st.integers(-6, 6)),
    "F_4": (FieldDomain(F4), st.sampled_from(fq_enumerate(F4))),
}
HUGE = 2 ** 65  # exponent slots wider than a machine word
EXPONENTS = st.one_of(st.integers(0, 3),
                      st.sampled_from([HUGE - 1, HUGE, 2 ** 64 + 1, 2 ** 50, 2 ** 40, 2 ** 39 + 1,
                                       2 ** 32, 2 ** 16 + 1, 200]))


def naive_mul(f, g):
    dom, acc = f.domain, {}
    for e1, c1 in f.tuple_terms().items():
        for e2, c2 in g.tuple_terms().items():
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
    return result.tuple_terms()


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
    assert (f * g).tuple_terms() == naive_mul(f, g)
    assert (g * f).tuple_terms() == naive_mul(g, f)


@settings(max_examples=150, deadline=None)
@given(poly_pairs(), st.integers(0, 4))
def test_pow_matches_naive(pair, e):
    f, _ = pair
    assert (f ** e).tuple_terms() == naive_pow(f, e)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.sampled_from([1, -1]), st.integers(1, 3))
def test_pow_with_huge_exponent(a, sign, shift):
    # (sign * x^a * y)^(2^40 - shift): one term, exponents far past 2^40
    e = HUGE - shift
    f = MultiPoly(ZZ, ("x", "y"), {(a, 1): sign})
    assert (f ** e).tuple_terms() == {(a * e, e): sign ** (e % 2)}


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
    assert ((x + y) * (x - y)).tuple_terms() == {(2, 0): 1, (0, 2): -1}  # the xy terms cancel
    u = MultiPoly.variable(FieldDomain(F4), ("u",), "u")
    assert ((u + 1) ** 2).tuple_terms() == (u * u + 1).tuple_terms()  # 2u = 0 in characteristic 2
    t = fq(F4, [0, 1])
    # (u + t)(u + t + 1) = u^2 + u + t^2 + t: the t in the u coefficient cancels
    assert ((u + t) * (u + t + 1)).tuple_terms() == (u * u + u + 1).tuple_terms()
    assert ((u * t + u * (t + fq(F4, 1)) + u) * u).is_zero()  # t + (t + 1) + 1 = 0


def _wide_one(dom, names):
    """1 in 16-bit slots: x^300 - x^300 + 1 keeps the layout its power widened to."""
    if not names:
        return MultiPoly.constant(dom, names, 1)
    x = MultiPoly.variable(dom, names, names[0])
    return x ** 300 - x ** 300 + 1


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_layouts_do_not_change_the_polynomial(pair):
    f, _ = pair
    wide = f * _wide_one(f.domain, f.variables)
    rebuilt = MultiPoly(f.domain, f.variables, wide.tuple_terms())
    assert wide.width >= 16 or not f.variables
    for g in (wide, rebuilt):
        assert g == f and f == g and hash(g) == hash(f)
        assert g.render() == f.render() and g.tuple_terms() == f.tuple_terms()
        assert len(g.terms) == len(f.terms)
        # degrees and reducedness read the packed keys; the tuples are the oracle
        exps = f.tuple_terms()
        assert g.total_degree() == max(map(sum, exps), default=0)
        if g.domain != ZZ:
            assert g.is_reduced() == (max(chain.from_iterable(exps), default=0) < F4.q)
        sparse = {tuple((v, e) for v, e in enumerate(key) if e): c for key, c in exps.items()}
        assert dict(g.sparse_terms()) == sparse
    assert f + wide == f * 2 and (wide - f).is_zero()


def test_reducedness_reads_exact_slots():
    # the OR of the keys of x + x^2 has the slot 1 | 2 = 3 = q, but both exponents are below q
    f3 = FieldDomain(field_params(3, 1))
    x = MultiPoly.variable(f3, ("x", "y"), "x")
    for f in (x + x ** 2, (x + x ** 2) * _wide_one(f3, x.variables)):
        assert f.is_reduced() and f.total_degree() == 2 and _bound(f) == 3
    assert not (x + x ** 3).is_reduced()


def test_every_slot_size_packs_as_big_endian_bytes():
    # 1 to 10 bytes: one byte, machine words padded to 2, 4 or 8 bytes, and
    # wider than a word; the joined big-endian bytes are the oracle
    for size in range(1, 11):
        top = (1 << 8 * size - 1) - 1
        pack, unpack = _codec(3, 8 * size)[:2]
        for exps in ((0, 1, top), (top, 0, 0), (5, top >> 3, 1)):
            key = int.from_bytes(b"".join(e.to_bytes(size, "big") for e in exps), "big")
            assert pack(exps) == pack(list(exps)) == key and tuple(unpack(key)) == exps
            for wider in range(size, 11):
                moved = _terms_in(_raw(ZZ, ("x", "y", "z"), {key: 1}, 8 * size), 8 * wider)
                assert moved == {_codec(3, 8 * wider)[0](exps): 1}


@pytest.mark.parametrize("order", ["big", "little"])
def test_every_field_size_round_trips_in_both_orders(order):
    # 1 to 17 bytes: one byte, machine words padded to 2, 4 or 8 bytes (in
    # little-endian order too, which no caller takes yet) and wider than a
    # word; the fields' bytes joined, field 0 first, are the oracle
    rng = random.Random(order)
    for size in range(1, 18):
        read, write, fill = _fields(size, order)
        top = (1 << 8 * size) - 1  # the largest value a field holds
        for values in ([0, 1, top], [top] * 4, [rng.randrange(top + 1) for _ in range(5)], [7]):
            x = write(values)
            assert x == int.from_bytes(b"".join(v.to_bytes(size, order) for v in values), order)
            assert list(read(x, len(values))) == values
            assert write(read(x, len(values))) == x
        assert fill(top, 3) == write([top] * 3) and fill(0, 2) == 0
        assert list(read(fill(5, 4), 4)) == [5] * 4


@settings(max_examples=100, deadline=None)
@given(poly_pairs())
def test_embedding_puts_each_variable_in_its_slot(pair):
    # f in (x, y, z) moved to the positions 1, 4, 5 of seven variables; the
    # tuples with zeros put in between are the oracle
    f, _ = pair
    names = ("a", "x", "b", "c", "y", "z", "d")
    positions = [names.index(v) for v in f.variables]
    g = _embed(_raw(f.domain, f.variables, f.terms, f.width), names, positions)
    spread = {}
    for exps, c in f.tuple_terms().items():
        full = [0] * len(names)
        for k, e in zip(positions, exps):
            full[k] = e
        spread[tuple(full)] = c
    assert g.variables == names and g.width == f.width and g == MultiPoly(f.domain, names, spread)


def _reference_render(f):
    """render() of a polynomial with all coefficients 1, from the tuple order."""
    def mono(exps):
        text = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(f.variables, exps) if e)
        return text or "1"
    order = sorted(f.tuple_terms(), key=lambda e: (sum(e), e), reverse=True)
    return " + ".join(map(mono, order)) or "0"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: st.sets(st.tuples(*[EXPONENTS] * n), max_size=8)
                                 .map(lambda es: (n, es))))
def test_render_order_matches_the_tuple_sort(case):
    n, exps = case
    f = MultiPoly(ZZ, tuple("xyz"[:n]), dict.fromkeys(exps, 1))
    assert f.render() == _reference_render(f)
    assert (f * _wide_one(ZZ, f.variables)).render() == _reference_render(f)


def test_wide_contexts():
    # 2^14 declared variables: a key spans 2^14 slots
    names = tuple(f"x{i}" for i in range(1 << 14))
    x, y = (MultiPoly.variable(ZZ, names, v) for v in ("x0", "x16383"))
    f = (x * y) ** 2 + x * 3
    last = (0,) * ((1 << 14) - 1)
    assert f.tuple_terms() == {(2,) + last[1:] + (2,): 1, (1,) + last: 3}
    assert f == MultiPoly(ZZ, names, f.tuple_terms())
    assert f.render() == "x0^2*x16383^2 + 3*x0"
    assert (f - x * 3) * (y ** 300) == x ** 2 * y ** 302
