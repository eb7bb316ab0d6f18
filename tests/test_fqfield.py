import random
from itertools import product

import pytest

from wittbox.errors import ValidationError
from wittbox.fqfield import field_params, fq, fq_enumerate, gr_one, gr_zero, polymul_mod

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


def schoolbook(modulus, mod, a, b):
    """Reference for `polymul_mod`: a * b over Z, then long division by the
    monic `modulus` over Z, then each coefficient of the remainder mod `mod`."""
    h = len(modulus) - 1
    prod_ = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod_[i + j] += x * y
    for d in range(len(prod_) - 1, h - 1, -1):
        lead, prod_[d] = prod_[d], 0
        for i in range(h):
            prod_[d - h + i] -= lead * modulus[i]
    return tuple(c % mod for c in prod_[:h])


# Every built-in quadratic modulus, and t^2 + t + 2 over F_3 and F_5, whose
# m_0 and m_1 are both nonzero at odd p (the built-in ones there have no t term).
QUADRATICS = [field_params(p, 2, modulus) for p, modulus in
              [(2, None), (3, None), (5, None), (3, (2, 1, 1)), (5, (2, 1, 1))]]


@pytest.mark.parametrize("field", QUADRATICS, ids=lambda f: f"p{f.p}-{f.modulus}")
def test_quadratic_products_match_the_schoolbook(field):
    # GR(p^M, 2) for M = 1, 2, 3: every pair of residues where p^M <= 27 (up to
    # 531,441 pairs), a seeded sample at p^M = 125; then unreduced operands,
    # negative or at least p^M, which the closed form must reduce as the loop does
    rng = random.Random(f"{field.p}-{field.modulus}")
    for precision in (1, 2, 3):
        mod = field.p ** precision
        residues = list(product(range(mod), repeat=2))
        pairs = (product(residues, repeat=2) if mod <= 27 else
                 [(rng.choice(residues), rng.choice(residues)) for _ in range(20000)])
        for a, b in pairs:
            assert polymul_mod(field.modulus, mod, a, b) == schoolbook(field.modulus, mod, a, b)
        for _ in range(2000):
            a, b = [tuple(rng.randrange(-3 * mod, 4 * mod) for _ in range(2)) for _ in range(2)]
            assert polymul_mod(field.modulus, mod, a, b) == schoolbook(field.modulus, mod, a, b)


def test_cubic_products_match_the_schoolbook():
    # h = 3 keeps the generic loop: F_8 over the built-in t^3 + t + 1, and
    # t^3 + 2t + 1 over F_3, at M = 1 and 3, reduced and unreduced operands
    rng = random.Random("cubic")
    for field in (field_params(2, 3), field_params(3, 3, (1, 2, 0, 1))):
        for precision in (1, 3):
            mod = field.p ** precision
            for _ in range(3000):
                a, b = [tuple(rng.randrange(-mod, 2 * mod) for _ in range(3)) for _ in range(2)]
                assert polymul_mod(field.modulus, mod, a, b) == schoolbook(field.modulus, mod, a, b)
