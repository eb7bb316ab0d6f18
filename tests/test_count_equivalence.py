"""The integer counting kernel against the object-level reference.

The reference decides every point with `box_enumerate` (decode_base,
expand_point), `evaluate_point` (from_digits, MultiPoly.evaluate over GRElem)
and `is_zero`; `count_zeros` must match it exactly on every instance.  The
"components" corpus splits the columns into several components, so the
kernel convolves residue histograms there instead of deciding each point.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import wittbox
from wittbox.box import box_enumerate, box_make, box_variable_names
from wittbox.counting import count_zeros, evaluate_point, make_instance, system_variable_names
from wittbox.errors import BudgetError
from wittbox.fqfield import field_params, fq_enumerate
from wittbox.instancefile import parse_instance
from wittbox.poly import FieldDomain, MultiPoly, ZZ

# (p, h) over every built-in modulus, with the largest nm whose box the
# reference enumerates in well under a second.
FIELDS = {(2, 1): 6, (2, 2): 3, (2, 3): 2, (3, 1): 4, (3, 2): 2, (5, 1): 2, (5, 2): 1}
KINDS = ("teichmuller", "generators", "components")
PARTITIONS = (1, 2, 7)


def reference_count(inst):
    return sum(
        all(r.is_zero() for r in evaluate_point(inst, pt))
        for pt in box_enumerate(inst.box, inst.enumeration_precision)
    )


def column_of(name):
    """The column j of the digit variable x[i][j]."""
    return int(name.split("[")[2][:-1])


def random_generator(rng, field, names, columns=None):
    """A reduced polynomial over F_q in the free digits of `columns` (default: all)."""
    q = field.q
    elements = fq_enumerate(field)[1:]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randrange(q) if rng.random() < 0.5 else 0 for _ in names)
        if columns is not None:
            exps = tuple(e if column_of(name) in columns else 0 for name, e in zip(names, exps))
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


def components_instance(rng, field, max_nm, flavour):
    """Columns in groups of a separable system, so the columns form several components.

    Every f_k has a constant term and, per group, monomials in that group's
    columns only; moduli are drawn per f_k.  Generators read their own
    column (flavour 0 builds the box with split=True), except that flavour 1
    adds a generator below M' that reads another group, the only link
    between the two, and flavour 2 leaves the last column unread by every
    f_k and adds a generator at level max(m, M'), which reads other columns
    but links nothing.
    """
    shapes = [(n, m) for n in (2, 3, 4) for m in (1, 2, 3) if n * m <= max(max_nm, 2)]
    if flavour == 1:  # keep two components besides the linked pair where n allows
        shapes = [(n, m) for n, m in shapes if n == max(n for n, _ in shapes)]
    n, m = rng.choice(shapes)
    fewest = min(2, n - 1) if flavour == 1 else 1
    cuts = sorted(rng.sample(range(1, n), rng.randint(fewest, n - 1)))
    groups = [list(range(a + 1, b + 1)) for a, b in zip([0] + cuts, cuts + [n])]
    read = groups[:-1] + [groups[-1][:-1]] if flavour == 2 else groups
    names = system_variable_names(n)
    moduli = [rng.randint(1, m + 1) for _ in range(rng.randint(1, 2))]
    if flavour == 1:
        moduli[0] = max(moduli[0], m + 1)
    system = []
    for mk in moduli:
        terms = {(0,) * n: rng.randint(-9, 9)}
        for cols in filter(None, read):
            for _ in range(rng.randint(1, 2)):
                exps = [0] * n
                for j in rng.sample(cols, rng.randint(1, len(cols))):
                    exps[j - 1] = rng.randint(1, 3)
                terms[tuple(exps)] = rng.choice((-1, 1)) * rng.randint(1, 40)
        system.append((MultiPoly(ZZ, names, terms), mk))
    top = max(moduli)
    digits = box_variable_names(n, m)
    generators = {(i, j): random_generator(rng, field, digits, {j})
                  for i in range(m, top) for j in range(1, n + 1) if rng.random() < 0.7}
    if flavour == 1:
        i, other = rng.randrange(m, top), rng.choice(groups[-1])
        generators[(i, 1)] = (random_generator(rng, field, digits, {1})
                              + MultiPoly.variable(FieldDomain(field), digits, f"x[0][{other}]"))
    elif flavour == 2:
        generators[(max(m, top), 1)] = random_generator(rng, field, digits)
    return make_instance(box_make(field, n, m, generators, split=flavour == 0), system)


def corpus(p, h, kind):
    field = field_params(p, h)
    if kind == "components":
        rng = random.Random(f"{p}-{h}-components")
        return [components_instance(rng, field, FIELDS[(p, h)], k % 3) for k in range(9)]
    with_generators = kind == "generators"
    rng = random.Random(f"{p}-{h}-{with_generators}")
    return [random_instance(rng, field, FIELDS[(p, h)], with_generators) for _ in range(6)]


def components(inst, generators=True):
    """Column sets joined by the monomials of the f_k and, optionally, by
    the generators below M' together with the columns they read."""
    links = [{j for j, e in enumerate(exps, 1) if e} for f, _ in inst.system for exps in f.terms]
    if generators:
        links += [{j} | {column_of(name) for exps in g.terms
                         for name, e in zip(g.variables, exps) if e}
                  for (i, j), g in inst.box.generators.items() if i < inst.working_precision]
    owner = {j: {j} for j in range(1, inst.box.n + 1)}
    for link in links:
        merged = set().union(*(owner[j] for j in link))
        owner.update((j, merged) for j in merged)
    return {frozenset(c) for c in owner.values()}


@pytest.mark.parametrize("p,h", sorted(FIELDS))
@pytest.mark.parametrize("kind", KINDS)
def test_count_matches_reference(p, h, kind):
    for inst in corpus(p, h, kind):
        expected = reference_count(inst)
        for parts in PARTITIONS:
            assert count_zeros(inst, partitions=parts).cardinality == expected, (inst, parts)


def test_corpus_covers_the_cases():
    insts = [inst for p, h in FIELDS for kind in KINDS for inst in corpus(p, h, kind)]
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

    # several components, split boxes, links, unread columns, mixed moduli
    sizes = [len(components(inst)) for inst in insts]
    assert sum(k >= 2 for k in sizes) >= len(insts) / 3
    assert max(sizes) >= 3
    split = [inst for inst, k in zip(insts, sizes) if k >= 2 and inst.box.generators and all(
        column_of(name) == j for (_, j), g in inst.box.generators.items()
        for exps in g.terms for name, e in zip(g.variables, exps) if e)]
    assert split
    assert any(len(components(inst)) < len(components(inst, generators=False)) for inst in insts)
    assert any(i >= inst.working_precision and any(
        column_of(name) != j for exps in g.terms for name, e in zip(g.variables, exps) if e)
        for inst in insts for (i, j), g in inst.box.generators.items())
    assert any(set().union(*components(inst)) - {
        j for f, _ in inst.system for exps in f.terms for j, e in enumerate(exps, 1) if e}
        for inst in insts)
    assert any(len(set(inst.moduli)) > 1 for inst, k in zip(insts, sizes) if k >= 2)
    assert {inst.field.h for inst, k in zip(insts, sizes) if k >= 2} == {1, 2, 3}


def test_large_exponents_match_reference():
    # the kernel raises to each exponent by square-and-multiply, never by a
    # table that runs up to it
    field = field_params(3, 2)
    names = system_variable_names(2)
    f = MultiPoly(ZZ, names, {(10 ** 6 + 3, 0): 5, (1, 2 ** 40): -7, (0, 0): 2})
    g = MultiPoly(ZZ, names, {(3 ** 20, 0): 1, (0, 1): 1})
    inst = make_instance(box_make(field, 2, 1), [(f, 3), (g, 1)])
    assert count_zeros(inst).cardinality == reference_count(inst)


def test_dead_digit_levels_only_multiply(tmp_path):
    # every modulus is below m: free digits at levels M'..m-1 change no
    # residue, so only the levels below M' are enumerated
    text = "[ring]\np = 2\n[problem]\nn = 2\nm = {m}\n[system]\nf1 = x1 + x2 mod p^1\n"
    inst = parse_instance(text.format(m=4))
    assert count_zeros(inst).cardinality == reference_count(inst) == 2 * 2 ** 6
    inst = parse_instance(text.format(m=8))
    for parts in PARTITIONS:
        assert count_zeros(inst, partitions=parts).cardinality == 2 * 2 ** 14
    # 2^80 base points would never finish if the dead levels were walked
    path = tmp_path / "deep.ini"
    path.write_text(text.format(m=40))
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "count", str(path),
                           "--budget", str(2 ** 80)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.stdout.startswith(f"cardinality={2 ** 79}\n"), proc.stdout + proc.stderr
    # the budget still applies to all q^{nm} base points
    message = "^67108864 points exceed the enumeration budget 16777216$"
    with pytest.raises(BudgetError, match=message):
        count_zeros(parse_instance(text.format(m=13)))
