"""The integer counting kernel against the object-level reference.

The reference decides every point with `box_enumerate` (decode_base,
expand_point), `evaluate_point` (from_digits, MultiPoly.evaluate over GRElem)
and `is_zero`; `count_zeros` must match it exactly on every instance.
"""

import random

import pytest

from wittbox.box import box_enumerate, box_make, box_variable_names
from wittbox.counting import count_zeros, evaluate_point, make_instance, system_variable_names
from wittbox.fqfield import field_params, fq_enumerate
from wittbox.poly import FieldDomain, MultiPoly, ZZ

# (p, h) over every built-in modulus, with the largest nm whose box the
# reference enumerates in well under a second.
FIELDS = {(2, 1): 6, (2, 2): 3, (2, 3): 2, (3, 1): 4, (3, 2): 2, (5, 1): 2, (5, 2): 1}
PARTITIONS = (1, 2, 7)


def reference_count(inst):
    return sum(
        all(r.is_zero() for r in evaluate_point(inst, pt))
        for pt in box_enumerate(inst.box, inst.enumeration_precision)
    )


def random_generator(rng, field, names):
    """A reduced polynomial over F_q in all nm free digits, not column-local."""
    q = field.q
    elements = fq_enumerate(field)[1:]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randrange(q) if rng.random() < 0.5 else 0 for _ in names)
        terms[exps] = rng.choice(elements)
    return MultiPoly(FieldDomain(field), names, terms)


def random_system(rng, n, m):
    """One or two integer polynomials with negative and constant coefficients."""
    names = system_variable_names(n)
    system = []
    for _ in range(rng.randint(1, 2)):
        terms = {(0,) * n: rng.randint(-9, 9)}
        while all(sum(e) == 0 for e in terms):
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 3) for _ in names)
                terms[exps] = rng.choice((-1, 1)) * rng.randint(1, 40)
        system.append((MultiPoly(ZZ, names, terms), rng.randint(1, m + 2)))
    return system


def random_instance(rng, field, max_nm, with_generators):
    n, m = rng.choice([(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if n * m <= max_nm])
    system = random_system(rng, n, m)
    generators = {}
    if with_generators:
        names = box_variable_names(n, m)
        top = max(mk for _, mk in system)
        for i in range(m, max(top, m + 1)):
            for j in range(1, n + 1):
                if rng.random() < 0.7:
                    generators[(i, j)] = random_generator(rng, field, names)
    return make_instance(box_make(field, n, m, generators), system)


def corpus(p, h, with_generators, size=6):
    rng = random.Random(f"{p}-{h}-{with_generators}")
    field = field_params(p, h)
    return [random_instance(rng, field, FIELDS[(p, h)], with_generators) for _ in range(size)]


@pytest.mark.parametrize("p,h", sorted(FIELDS))
@pytest.mark.parametrize("with_generators", (False, True), ids=("teichmuller", "generators"))
def test_count_matches_reference(p, h, with_generators):
    for inst in corpus(p, h, with_generators):
        expected = reference_count(inst)
        for parts in PARTITIONS:
            assert count_zeros(inst, partitions=parts).cardinality == expected, (inst, parts)


def test_corpus_covers_the_cases():
    insts = [inst for p, h in FIELDS for kind in (False, True) for inst in corpus(p, h, kind)]
    sides = {(mk > inst.box.m) - (mk < inst.box.m) for inst in insts for _, mk in inst.system}
    assert sides == {-1, 0, 1}
    coeffs = [(e, c) for inst in insts for f, _ in inst.system for e, c in f.terms.items()]
    assert any(c < 0 for _, c in coeffs)
    assert any(not any(e) for e, _ in coeffs)
    # some generator reads a digit outside its own column: the box is not split
    assert any(
        any(e and int(name.split("[")[2][:-1]) != j for name, e in zip(g.variables, exps))
        for inst in insts for (_, j), g in inst.box.generators.items() for exps in g.terms
    )
    counts = [count_zeros(inst).cardinality for inst in insts]
    assert sum(c > 0 for c in counts) >= len(counts) // 4


def test_large_exponents_match_reference():
    # the kernel raises to each exponent by square-and-multiply, never by a
    # table that runs up to it
    field = field_params(3, 2)
    names = system_variable_names(2)
    f = MultiPoly(ZZ, names, {(10 ** 6 + 3, 0): 5, (1, 2 ** 40): -7, (0, 0): 2})
    g = MultiPoly(ZZ, names, {(3 ** 20, 0): 1, (0, 1): 1})
    inst = make_instance(box_make(field, 2, 1), [(f, 3), (g, 1)])
    assert count_zeros(inst).cardinality == reference_count(inst)
