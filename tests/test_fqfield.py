from itertools import product

import pytest

from wittbox.errors import ValidationError
from wittbox.fqfield import field_params, fq, fq_enumerate, gr_one, gr_zero

F2 = field_params(2)
F3 = field_params(3)
F4 = field_params(2, 2)
F9 = field_params(3, 2)


def test_literals():
    assert fq(F2, [1]).coeffs == (1,)
    assert fq(F9, [2, 1]).coeffs == (2, 1)  # 2 + t
    assert fq(F3, [5]).coeffs == (2,)  # reduction mod 3


def test_rejects_bad_params():
    with pytest.raises(ValidationError):
        field_params(4)
    with pytest.raises(ValidationError):
        field_params(2, 0)
    with pytest.raises(ValidationError):
        field_params(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over F_2
    with pytest.raises(ValidationError):
        field_params(2, 2, (1, 1))  # wrong degree


def test_too_long_coeff_list():
    with pytest.raises(ValidationError):
        fq(F2, [1, 1])


def test_f4_multiplication():
    t = fq(F4, [0, 1])
    assert t * t == fq(F4, [1, 1])  # t^2 = t + 1 mod t^2+t+1


def test_negative_power_refused():
    # A negative exponent must be refused, not spin in square-and-multiply.
    for a in (fq(F3, [2]), gr_zero(F3.ring), fq(F4, [0, 1])):
        with pytest.raises(ValidationError):
            a ** -1


def test_additive_identity():
    for params in (F2, F3, F4, F9):
        for a in fq_enumerate(params):
            assert a + gr_zero(params.ring) == a
            assert a * gr_one(params.ring) == a


@pytest.mark.parametrize("params", [F2, F3, F4, F9])
def test_field_axioms_exhaustive(params):
    elems = fq_enumerate(params)
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("params", [F2, F3, F4, F9])
def test_frobenius_is_a_homomorphism(params):
    elems = fq_enumerate(params)
    for a in elems:
        for b in elems:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_frobenius_examples():
    t = fq(F4, [0, 1])
    assert t.frobenius(1) == fq(F4, [1, 1])  # t^2 mod phi
    for params in (F2, F4, F9):
        for a in fq_enumerate(params):
            assert a.frobenius(params.h) == a  # x^q = x
            for e in range(2 * params.h):
                assert a.frobenius(e).frobenius_inverse(e) == a


def test_enumeration_order_and_size():
    assert [a.coeffs for a in fq_enumerate(F2)] == [(0,), (1,)]
    assert [a.coeffs for a in fq_enumerate(F4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    for params in (F2, F3, F4, F9):
        elems = fq_enumerate(params)
        assert len(elems) == params.q
        assert len(set(elems)) == params.q
        assert elems == fq_enumerate(params)  # stable across calls
        assert [a.to_index() for a in elems] == list(range(params.q))


def test_literal_rendering():
    assert fq(F4, [1, 1]).render() == "1+t"
    assert fq(F9, [0, 2]).render() == "2*t"
    assert gr_zero(F4.ring).render() == "0"


def test_primality_is_miller_rabin():
    from wittbox.fqfield import _MR_LIMIT, _is_prime

    trial = [n for n in range(2000) if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert [n for n in range(2000) if _is_prime(n)] == trial
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1)
    # Carmichael numbers and strong pseudoprimes to the first 9 prime bases
    for composite in (561, 2047, 3215031751, 3825123056546413051, (2 ** 61 - 1) * 3):
        assert not _is_prime(composite)
    with pytest.raises(ValidationError):
        field_params(2 ** 89 - 1)  # prime, but past the proven range
    assert _MR_LIMIT < 2 ** 89 - 1


def _irreducible_by_trial_division(modulus, p):
    """Reference: no monic factor of degree 1..h//2 divides `modulus` over F_p."""
    h = len(modulus) - 1
    for d in range(1, h // 2 + 1):
        for tail in product(range(p), repeat=d):
            rem = list(modulus)
            for top in range(h, d - 1, -1):
                c = rem[top] % p
                for i, b in enumerate(tail + (1,)):
                    rem[top - d + i] -= c * b
            if all(r % p == 0 for r in rem):
                return False
    return True


# h = 5 needs the t^(p^h) = t condition (a quadratic times a cubic has no
# linear factor); h = 6 needs both prime divisors (over F_3, the product of
# the three monic irreducible quadratics).
@pytest.mark.parametrize("p,max_h", [(2, 6), (3, 6), (5, 4)])
def test_rabin_agrees_with_trial_division(p, max_h):
    from wittbox.fqfield import _is_irreducible

    for h in range(1, max_h + 1):
        for tail in product(range(p), repeat=h):
            modulus = tail + (1,)
            assert _is_irreducible(modulus, p) == _irreducible_by_trial_division(modulus, p), modulus
