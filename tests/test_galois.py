import random

import pytest

from wittbox.errors import ConfigError, ValidationError
from wittbox.fqfield import field_params, fq, fq_enumerate, gr_enumerate, gr_one
from wittbox.galois import (
    GRElem,
    GRParams,
    from_digits,
    gr_zero,
    int_to_gr,
    reduce_precision,
    teichmuller_lift,
    to_digits,
    witt_digit_op,
)
from wittbox.witt import PRODUCT, SUM

Z8 = GRParams(field_params(2), 3)
Z9 = GRParams(field_params(3), 2)
GR4_2 = GRParams(field_params(2, 2), 2)


def test_params_validation():
    with pytest.raises(ValidationError):
        GRParams(field_params(2), 0)
    assert Z8.char == 8
    assert GR4_2.char == 4


def test_basic_arithmetic_mod8():
    a = int_to_gr(5, Z8)
    b = int_to_gr(6, Z8)
    assert (a + b).coeffs == (3,)
    assert (a * b).coeffs == (6,)
    assert (-a).coeffs == (3,)
    assert (a ** 2).coeffs == (1,)
    assert (a - a).is_zero()


def test_gr42_multiplication():
    # oracle: t * t = t + 1 mod (t^2 + t + 1) lifts to 3 + 3t mod 4,
    # since t^2 = -t - 1 = 3 + 3t over Z/4.
    t = GRElem(GR4_2, (0, 1))
    assert (t * t).coeffs == (3, 3)


def test_cross_ring_mismatch():
    with pytest.raises(ConfigError):
        int_to_gr(1, Z8) + int_to_gr(1, Z9)


def test_residue_and_reduce():
    a = GRElem(GR4_2, (3, 2))
    assert reduce_precision(a, 1) == fq(GR4_2.field, [1, 0])
    assert reduce_precision(int_to_gr(6, Z8), 2).coeffs == (2,)
    with pytest.raises(ValidationError):
        reduce_precision(int_to_gr(6, Z8), 4)


def reference_lift(a, params):
    """The Frobenius iteration: M - 1 q-th powers at full precision, each of
    which gains at least one digit of agreement with the fixed point."""
    z = GRElem(params, a.coeffs)
    for _ in range(params.precision - 1):
        z = z ** params.field.q
    return z


# F_2, F_3, F_4, F_5, F_7, F_8, F_9 and F_25
LIFT_FIELDS = [field_params(p, h)
               for p, h in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2))]


def test_teichmuller_lift_matches_frobenius_iteration():
    for field in LIFT_FIELDS:
        for M in (1, 2, 3, 4, 5, 8, 13, 16, 17, 40):
            params = GRParams(field, M)
            for a in fq_enumerate(field):
                assert teichmuller_lift(a, params) == reference_lift(a, params)


def test_deep_teichmuller_lift_is_the_fixed_point():
    params = GRParams(field_params(3, 2), 4000)
    for a in fq_enumerate(params.field):
        z = teichmuller_lift(a, params)
        assert reduce_precision(z, 1) == a
        assert z ** params.field.q == z


def test_teichmuller_fixed_points():
    for params in (Z8, Z9, GR4_2):
        q = params.field.q
        for a in fq_enumerate(params.field):
            z = teichmuller_lift(a, params)
            assert reduce_precision(z, 1) == a  # reduces to a mod p
            assert z ** q == z  # q-th power fixed point
    # frozen oracle: tau(2) = 8 in Z/9 (8^3 = 512 = 8 mod 9, 8 = 2 mod 3)
    assert teichmuller_lift(fq(Z9.field, 2), Z9).coeffs == (8,)


def test_digit_codec_roundtrip():
    for params in (Z8, Z9, GR4_2):
        p = params.p
        for y in gr_enumerate(params):
            digits = to_digits(y)
            assert len(digits) == params.precision
            assert from_digits(digits, params) == y
    # frozen oracle: 2 in GR(9,1) has digits (2, 1): 2 = tau(2) + 3*tau(1) = 8 + 3 mod 9
    assert tuple(d.coeffs for d in to_digits(int_to_gr(2, Z9))) == ((2,), (1,))


def reference_to_digits(y):
    """The level-by-level codec: at level i, reduce every coefficient mod
    p^(M-i), read the digit mod p, and subtract its lift at that precision."""
    params = y.params
    p = params.p
    digits = []
    lifts = {}
    coeffs = list(y.coeffs)
    for i in range(params.precision):
        level = params.precision - i
        mod = p ** level
        coeffs = [c % mod for c in coeffs]
        a = GRElem(params.field.ring, tuple(c % p for c in coeffs))
        digits.append(a)
        if a.coeffs not in lifts:
            lifts[a.coeffs] = reference_lift(a, GRParams(params.field, level)).coeffs
        coeffs = [((c - t) % mod) // p for c, t in zip(coeffs, lifts[a.coeffs])]
    return tuple(digits)


# (p, h) -> an irreducible modulus where no built-in one exists
_CUBIC = {(3, 3): (1, 2, 0, 1), (5, 3): (1, 1, 0, 1)}  # t^3 + 2t + 1, t^3 + t + 1


def _seeded_elements(rng, params, count):
    char = params.char
    return [GRElem(params, tuple(rng.randrange(char) for _ in range(params.h)))
            for _ in range(count)]


def test_to_digits_matches_level_by_level_reference():
    rng = random.Random(11)
    cases = []
    for p in (2, 3, 5):
        for h in (1, 2, 3):
            field = field_params(p, h, _CUBIC.get((p, h)))
            cases += [(GRParams(field, M), 2 if M <= 16 else 1)
                      for M in (1, 2, rng.randint(3, 16), 64)]
    cases += [(GRParams(field_params(2), 1000), 3), (GRParams(field_params(3, 2), 1000), 1)]
    for params, count in cases:
        for y in _seeded_elements(rng, params, count) + [gr_zero(params), int_to_gr(-1, params)]:
            digits = to_digits(y)
            assert digits == reference_to_digits(y)
            assert from_digits(digits, params) == y


def reference_from_digits(digits, params):
    """sum tau(a_i) p^i with every digit lifted, zero or not."""
    acc = gr_zero(params)
    for i, d in enumerate(digits):
        acc = acc + teichmuller_lift(d, params) * int_to_gr(params.p ** i, params)
    return acc


def test_from_digits_matches_the_per_digit_sum():
    # each distinct nonzero digit is lifted once and zero digits are skipped;
    # the value is the sum over every digit
    rng = random.Random(55)
    for p, h, M in [(2, 1, 3), (3, 1, 7), (2, 2, 5), (3, 2, 40), (5, 3, 4), (2, 1, 200)]:
        params = GRParams(field_params(p, h, _CUBIC.get((p, h))), M)
        elements = fq_enumerate(params.field)
        zero = elements[0]
        vectors = [(zero,) * M, (elements[-1],) * M, (zero,) * (M - 1) + (elements[1],)]
        vectors += [tuple(rng.choice(elements[:rng.randint(1, len(elements))]) for _ in range(M))
                    for _ in range(6)]  # few distinct digits, so most repeat
        for digits in vectors:
            value = from_digits(digits, params)
            assert value == reference_from_digits(digits, params)
            assert to_digits(value) == digits
        assert from_digits(vectors[0], params) == gr_zero(params)


def test_from_digits_length_check():
    with pytest.raises(ValidationError):
        from_digits((fq(Z8.field, 1),), Z8)


def test_witt_digit_op_matches_direct():
    for params in (Z8, GR4_2):
        for a in gr_enumerate(params):
            da = to_digits(a)
            for b in gr_enumerate(params):
                db = to_digits(b)
                assert from_digits(witt_digit_op(da, db, SUM, params), params) == a + b
                assert from_digits(witt_digit_op(da, db, PRODUCT, params), params) == a * b


def test_witt_digit_op_shape_checks():
    da = to_digits(int_to_gr(3, Z8))
    with pytest.raises(ValidationError):
        witt_digit_op(da, da[:2], SUM, Z8)
    with pytest.raises(ValidationError):
        witt_digit_op(da[:2], da[:2], SUM, Z8)


def test_enumerate():
    elems = gr_enumerate(Z9)
    assert len(elems) == 9
    assert len(set(elems)) == 9
    assert elems[0] == gr_zero(Z9)
    assert elems[1] == gr_one(Z9)
    assert len(gr_enumerate(GR4_2)) == 16


def test_fq_is_gr_at_precision_1():
    for field in (field_params(2), field_params(2, 2), field_params(3, 2)):
        elems = fq_enumerate(field)
        assert elems == gr_enumerate(GRParams(field, 1))
        assert [a.to_index() for a in elems] == list(range(field.q))
    assert [y.to_index() for y in gr_enumerate(GR4_2)] == list(range(16))
    assert GRElem(GR4_2, (3, 2)).render() == "3+2*t"


def test_field_operations_refuse_precision_above_1():
    for params in (Z8, GR4_2):
        y = gr_one(params)
        for operation in (y.frobenius, y.frobenius_inverse, lambda: y ** -1):
            with pytest.raises(ValidationError):
                operation()
