"""Acceptance gate: the ten headline behaviors, one pass line each.

Each test prints a single `ACCEPTANCE <k> <slug>: PASS` line when it
succeeds (visible with `pytest -s` or in captured output on failure).
"""

import math
import random

from wittbox.bounds import READING_ALL, READING_ANY, bound_report
from wittbox.box import box_enumerate, box_from_table, box_make, box_variable_names, closeness_check
from wittbox.checks import (
    crosscheck_suite,
    degree_bound_suite,
    ghost_suite,
    homogeneity_suite,
    roundtrip_suite,
    stacking_suite,
    vanishing_suite,
)
from wittbox.counting import count_zeros, make_instance, system_variable_names
from wittbox.fixtures import EXAMPLE_41, EXAMPLE_42, EXAMPLE_43
from wittbox.fqfield import field_params
from wittbox.instancefile import parse_instance
from wittbox.poly import FieldDomain, MultiPoly, ZZ
from wittbox.witt import PRODUCT, SUM, witt_op_polys


def entry(report, name):
    """The entry of `report` with this name."""
    return next(e for e in report.entries if e.name == name)


def _passed(k, slug):
    print(f"ACCEPTANCE {k} {slug}: PASS")


def test_01_example41_reproduction():
    inst = parse_instance(EXAMPLE_41)
    count = count_zeros(inst)
    assert count.cardinality == 30
    assert count.ord_p == 1
    close, _ = closeness_check(inst.box, 3)
    assert close
    report = bound_report(inst, count=count)
    general = entry(report, "general")
    assert general.applicable and general.value == 1
    assert report.status == "PASS"
    _passed(1, "worked-instance-1 (|V|=30, ord=1, bound=1)")


def test_02_example42_reproduction():
    inst = parse_instance(EXAMPLE_42)
    count = count_zeros(inst)
    assert count.cardinality == 32
    assert count.ord_p == 5
    report = bound_report(inst, count=count)
    general = entry(report, "general")
    assert general.applicable and general.value == 1
    assert count.ord_p > general.value  # bound holds with slack
    assert report.status == "PASS"
    _passed(2, "worked-instance-2 (|V|=32, ord=5 > bound=1)")


def test_03_example43_closeness_violation():
    inst = parse_instance(EXAMPLE_43)
    close, violations = closeness_check(inst.box, 3)
    assert not close
    assert (2, 1, 5, 4) in violations  # deg 5 > 4 at digit 2
    report = bound_report(inst)
    assert not entry(report, "general").applicable
    count = count_zeros(inst)
    assert count.cardinality == 30
    _passed(3, "worked-instance-3 (closeness fails, |V|=30)")


def test_04_symbolic_golden():
    for p in (2, 3, 5):
        names = ("X0", "Y0", "X1", "Y1")
        S = witt_op_polys(p, 1, 2, SUM)
        M = witt_op_polys(p, 1, 2, PRODUCT)
        s1_terms = {(0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
        for i in range(1, p):
            s1_terms[(i, p - i, 0, 0)] = -(math.comb(p, i) // p)
        assert S[0] == MultiPoly(ZZ, names, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})
        assert S[1] == MultiPoly(ZZ, names, s1_terms)
        assert M[0] == MultiPoly(ZZ, names, {(1, 1, 0, 0): 1})
        assert M[1] == MultiPoly(ZZ, names, {(p, 0, 0, 1): 1, (0, p, 1, 0): 1, (0, 0, 1, 1): p})
    results = ghost_suite()
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]
    _passed(4, "closed forms p=2,3,5 + ghost identities + negative control")


def test_05_homogeneity_and_degree_bounds():
    results = homogeneity_suite() + degree_bound_suite()
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]
    _passed(5, "weighted/total homogeneity and degree ceilings")


def test_06_arithmetic_crosscheck():
    results = crosscheck_suite()
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]
    _passed(6, "digit arithmetic == direct ring arithmetic, exhaustive")


def test_07_vanishing_equivalence():
    results = vanishing_suite()
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]
    _passed(7, "three-way vanishing equivalence, q=2, m<=3, r<=3")


def test_08_stacking_law():
    results = stacking_suite()
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]
    _passed(8, "stacking law, 50 random cases, zero violations")


def _random_degree_limited_poly(rng, dom, names, q, limit):
    """Random nonzero reduced polynomial with total degree <= limit."""
    nvars = len(names)
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        exps = [0] * nvars
        budget = limit
        for _ in range(rng.randrange(0, limit + 1)):
            if budget == 0:
                break
            k = rng.randrange(nvars)
            if exps[k] < q - 1:
                exps[k] += 1
                budget -= 1
        terms[tuple(exps)] = rng.randrange(1, q)
    return MultiPoly(dom, names, terms)


def _random_instance(rng):
    p = rng.choice((2, 3))
    h = rng.choice((1, 2))
    q = p ** h
    shapes = [(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if q ** (n * m) <= 6561]
    n, m = rng.choice(shapes)
    field = field_params(p, h)
    dom = FieldDomain(field)
    names = box_variable_names(n, m)

    s = rng.randrange(1, 3)
    sys_names = system_variable_names(n)
    system = []
    for k in range(s):
        force_linear = s == 2 and k == 0 and rng.random() < 0.5
        f = MultiPoly.zero(ZZ, sys_names)
        while f.total_degree() < 1:
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                if force_linear:
                    exps = tuple(
                        1 if v == rng.randrange(n) else 0 for v in range(n)
                    )
                else:
                    exps = tuple(rng.randrange(0, 3) for _ in sys_names)
                terms[exps] = rng.randrange(-4, 5)
            f = MultiPoly(ZZ, sys_names, terms)
        system.append((f, rng.randrange(1, 4)))
    if m >= 2 and rng.random() < 0.5:
        # bias toward the equal-moduli shape so the ambiguous degree case of
        # the equal-moduli bound is actually exercised
        system = [(f, m) for f, _ in system]
    m_s = max(mk for _, mk in system)

    generators = {}
    for i in range(m, m_s):
        limit = p ** (h * (i // h))
        for j in range(1, n + 1):
            if rng.random() < 0.6:
                g = _random_degree_limited_poly(rng, dom, names, q, min(limit, n * m * (q - 1)))
                if not g.is_zero() and g.total_degree() <= limit:
                    generators[(i, j)] = g
    box = box_make(field, n, m, generators)
    return make_instance(box, system)


def test_09_randomized_soundness():
    rng = random.Random(20240617)
    cases = 0
    discrepancies = 0
    all_reading_violations = []
    while cases < 100:
        inst = _random_instance(rng)
        count = count_zeros(inst)
        h = inst.field.h
        p = inst.field.p
        report_any = bound_report(inst, count=count, reading=READING_ANY)
        report_all = bound_report(inst, count=count, reading=READING_ALL)
        cases += 1
        for entry in report_any.entries:
            if not entry.applicable or count.cardinality == 0:
                continue
            # soundness under the literal reading: hard assertion
            assert count.cardinality % (p ** (h * entry.value)) == 0, (
                f"soundness violation: bound {entry.name}={entry.value} vs "
                f"|V|={count.cardinality} (p={p}, h={h})"
            )
        for e_any, e_all in zip(report_any.entries, report_all.entries):
            if e_any.applicable and e_all.applicable and e_any.value != e_all.value:
                discrepancies += 1
                if count.cardinality and count.cardinality % (p ** (h * e_all.value)):
                    all_reading_violations.append(
                        (e_all.name, e_all.value, count.cardinality)
                    )
    print(f"ACCEPTANCE 9 reading-discrepancies={discrepancies} "
          f"all-reading-violations={len(all_reading_violations)}")
    # the strict reading of the ambiguous degree case is empirically unsound
    # (see the frozen counterexample in test_bounds); violations here are
    # reported, and soundness is asserted for the literal default reading.
    for name, value, cardinality in all_reading_violations:
        print(f"ACCEPTANCE 9 all-reading violation: {name}={value} |V|={cardinality}")
    _passed(9, "randomized soundness, 100 instances, literal reading holds")


def test_10_box_round_trip():
    results = roundtrip_suite()
    assert all(ok for _, ok in results), [name for name, ok in results if not ok]
    # one extra shape at the nm = 8 ceiling: n = 4, m = 2, q = 2
    field = field_params(2)
    dom = FieldDomain(field)
    names = box_variable_names(4, 2)
    g = MultiPoly.variable(dom, names, "x[0][1]") * MultiPoly.variable(dom, names, "x[1][3]")
    spec = box_make(field, 4, 2, {(2, 2): g})
    table = [(pt.base, pt.digits) for pt in box_enumerate(spec, 3)]
    assert box_from_table(field, 4, 2, 3, table).generators == spec.generators
    _passed(10, "box interpolation round trip, q=2, nm<=8")
