import itertools
import math
import random
from fractions import Fraction

import pytest

from wittbox.bounds import (
    DEFAULT_READING,
    READING_ALL,
    READING_ANY,
    ax_katz_bound,
    bound_report,
    ceil_star,
    general_bound,
    kmr_bound,
    minimal_d,
    stacked_bound,
)
from wittbox.box import teichmuller_box
from wittbox.counting import count_zeros, make_instance, system_variable_names
from wittbox.errors import BudgetError, ValidationError
from wittbox.fixtures import EXAMPLE_41
from wittbox.fqfield import field_params
from wittbox.instancefile import parse_instance
from wittbox.poly import MultiPoly, ZZ

F2 = field_params(2)


def test_ceil_star():
    assert ceil_star(Fraction(1, 4)) == 1
    assert ceil_star(Fraction(-3, 2)) == 0
    assert ceil_star(0) == 0
    assert ceil_star(2) == 2


def test_ax_katz():
    # classical: n = 3, single quadric -> ceil((3-2)/2)* = 1
    assert ax_katz_bound(3, [2]) == 1
    assert ax_katz_bound(2, [2, 2]) == 0
    with pytest.raises(ValidationError):
        ax_katz_bound(2, [])
    with pytest.raises(ValidationError):
        ax_katz_bound(2, [0])


def test_kmr_cases():
    # all-linear system: always the (n-s)m case
    assert kmr_bound(3, 1, 2, [1], reading=READING_ANY) == 4
    assert kmr_bound(3, 1, 2, [1], reading=READING_ALL) == 4
    # all degrees > 1 with n > s: floor(((n-s+1)m - 1)/2)
    assert kmr_bound(3, 1, 2, [3], reading=READING_ANY) == 2
    assert kmr_bound(3, 1, 2, [3], reading=READING_ALL) == 2
    # mixed degrees: the readings disagree
    assert kmr_bound(3, 2, 2, [1, 2], reading=READING_ANY) == 1
    assert kmr_bound(3, 2, 2, [1, 2], reading=READING_ALL) == 2
    # n == s: degree case unavailable either way
    assert kmr_bound(2, 2, 3, [2, 2]) == 0
    with pytest.raises(ValidationError):
        kmr_bound(2, 1, 1, [2])
    with pytest.raises(ValidationError):
        kmr_bound(3, 1, 2, [2], reading="most")


def test_default_reading_is_any():
    assert DEFAULT_READING == READING_ANY


def test_general_bound():
    # hand evaluation: n=4, m=2, p=2, one linear polynomial mod 2^3:
    # (4*2 - (2^3-1)/(2-1)*1) / (2^2*1) = 1/4 -> ceil* = 1
    assert general_bound(4, 2, 2, [3], [1]) == 1
    # negative numerator clamps at 0
    assert general_bound(1, 1, 2, [2], [5]) == 0
    with pytest.raises(ValidationError):
        general_bound(2, 1, 2, [1, 1], [1])


def test_cwg_is_general_at_m1():
    # m = 1 over a closed box: the cwg entry is the general bound at m = 1
    inst = parse_instance("[ring]\np = 2\n[problem]\nn = 8\nm = 1\n[system]\n"
                          "f1 = x1 + 3*x2 mod p^2\nf2 = x3^2 + x4*x5 mod p^1\n")
    report = bound_report(inst)
    cwg = report.entry("cwg")
    assert cwg.applicable and cwg.value == general_bound(8, 1, 2, [1, 2], [2, 1]) == 2
    assert cwg.value == report.entry("general").value
    assert not bound_report(parse_instance(EXAMPLE_41)).entry("cwg").applicable  # m = 2


def test_stacked_bound():
    # m1 = 1 reduces to the degree-sum bound plus the stacking term
    assert stacked_bound(3, 1, 3, 1, [2]) == ax_katz_bound(3, [2]) + 3 * 2
    # m1 = m reduces to the equal-moduli bound
    assert stacked_bound(3, 1, 2, 2, [3]) == kmr_bound(3, 1, 2, [3])
    # 1 < m1 < m: the equal-moduli bound at m1, plus the stacking term
    assert stacked_bound(4, 1, 3, 2, [1]) == kmr_bound(4, 1, 2, [1]) + 4 * 1 == 10
    with pytest.raises(ValidationError):
        stacked_bound(3, 1, 1, 2, [2])


def test_improved_bound():
    # the improved entry is the general bound with minimal_d in place of degrees
    inst = parse_instance(EXAMPLE_41)
    improved = bound_report(inst).entry("improved")
    assert improved.applicable and improved.value == general_bound(4, 2, 2, [3], [minimal_d(inst, 0)])
    # every term's coefficient vanishes mod p^m_k: no term constrains d, which stays 1
    f = MultiPoly(ZZ, system_variable_names(2), {(1, 1): 4, (2, 0): 8})
    inst = make_instance(teichmuller_box(F2, 2, 1), [(f, 2)])
    assert minimal_d(inst, 0) == 1
    assert bound_report(inst).entry("improved").notes.endswith("; d=1")


def test_minimal_d_oracles():
    # f = x1^2 mod p over T_1: the only term is degree 2 with slots below m,
    # so d = 2.
    names = system_variable_names(1)
    f = MultiPoly(ZZ, names, {(2,): 1})
    inst = make_instance(teichmuller_box(F2, 1, 1), [(f, 1)])
    assert minimal_d(inst, 0) == 2
    # worked instance: d = 1 despite deg f = 1 and modulus 3
    inst41 = parse_instance(EXAMPLE_41)
    assert minimal_d(inst41, 0) == 1
    with pytest.raises(BudgetError):
        minimal_d(inst41, 0, budget=2)


def test_minimal_d_sees_generator_degrees():
    # same linear system, but a degree-4 generator feeding digit 2 forces the
    # beta-slot terms to carry that degree: expansion terms with one slot at
    # level 2 have i + |beta| = 1 < m_k, degree 4, level p^0 -> d = 4
    inst41 = parse_instance(EXAMPLE_41)
    g = inst41.box.generators[(2, 1)]
    assert g.total_degree() == 4


def test_bound_report_example41():
    inst = parse_instance(EXAMPLE_41)
    count = count_zeros(inst)
    report = bound_report(inst, count=count)
    assert count.cardinality == 30 and count.ord_p == 1

    general = report.entry("general")
    assert general.applicable and general.value == 1
    assert general.verdict(count) == "PASS"

    improved = report.entry("improved")
    assert improved.applicable and improved.value == 1

    # moduli are not all equal to m = 2, so the equal-moduli bound is out
    assert not report.entry("kmr").applicable
    assert not report.entry("ax_katz").applicable
    assert report.status == "PASS"


def test_bound_report_closeness_violated():
    from wittbox.fixtures import EXAMPLE_43

    inst = parse_instance(EXAMPLE_43)
    report = bound_report(inst)
    assert not report.entry("general").applicable
    assert "closeness violated" in report.entry("general").notes
    assert report.status is None  # no count attached


def test_vacuous_verdict():
    names = system_variable_names(1)
    # x1^2 + x1 + 1 has no root mod 2
    f = MultiPoly(ZZ, names, {(2,): 1, (1,): 1, (0,): 1})
    inst = make_instance(teichmuller_box(F2, 1, 1), [(f, 1)])
    count = count_zeros(inst)
    assert count.cardinality == 0
    report = bound_report(inst, count=count)
    assert report.status == "VACUOUS"
    assert report.entry("ax_katz").verdict(count) == "VACUOUS"


FROZEN_COUNTEREXAMPLE = """\
[ring]
p = 2

[problem]
n = 3
m = 2

[system]
f1 = -3*x1 mod p^2
f2 = x2*x3^2 mod p^2
"""


def test_frozen_mixed_degree_counterexample():
    """Mixed-degree equal-moduli system that separates the two readings.

    The literal reading puts this in the degree case with value
    floor(((3-2+1)*2-1)/2) = 1; the all-degrees reading would use
    ceil*((3-2)*2) = 2.  The exact count is 10, whose 2-adic valuation is 1:
    the value 2 is refuted, so the literal reading is the sound default.
    """
    inst = parse_instance(FROZEN_COUNTEREXAMPLE)
    count = count_zeros(inst)
    assert count.cardinality == 10
    assert count.ord_p == 1

    assert kmr_bound(3, 2, 2, [1, 2], reading=READING_ANY) == 1
    assert kmr_bound(3, 2, 2, [1, 2], reading=READING_ALL) == 2

    any_report = bound_report(inst, count=count, reading=READING_ANY)
    assert any_report.entry("kmr").value == 1
    assert any_report.entry("kmr").verdict(count) == "PASS"

    all_report = bound_report(inst, count=count, reading=READING_ALL)
    assert all_report.entry("kmr").value == 2
    assert all_report.entry("kmr").verdict(count) == "FAIL"


def separable_split_instance(rng):
    """A seeded separable system over a split box, q in {2, 3}, n = 8..24.

    Returns the instance text and, per column, the generators as
    {level: [(coefficient, free-digit levels)]} and each f_k's terms in that
    column as [(coefficient, exponent)], for `separable_split_count`.
    """
    p, n, m = rng.choice((2, 3)), rng.randint(8, 24), rng.choice((1, 2))
    moduli = sorted(rng.randint(1, 3) for _ in range(rng.choice((1, 2))))
    constants = [rng.randrange(p ** mk) if rng.random() < 0.3 else 0 for mk in moduli]
    columns = []
    for _ in range(n):
        gens = {i: [(rng.randrange(1, p), tuple(sorted(rng.sample(range(m), rng.randint(0, m)))))
                    for _ in range(rng.randint(1, 2))]
                for i in range(m, moduli[-1]) if rng.random() < 0.7}
        terms = [[(rng.randrange(1, p ** mk), e) for e in rng.sample((1, 2, 3), rng.randint(0, 2))]
                 for mk in moduli]
        columns.append((gens, terms))
    for k in range(len(moduli)):  # every f_k is nonconstant
        if not any(ts[k] for _, ts in columns):
            columns[0][1][k].append((1, 1))

    def monomial(c, factors):
        return "*".join([str(c)] + factors)

    system = []
    for k, (mk, const) in enumerate(zip(moduli, constants)):
        terms = [monomial(c, [f"x{j}^{e}"])
                 for j, (_, ts) in enumerate(columns, 1) for c, e in ts[k]]
        system.append(f"f{k + 1} = {' + '.join(terms + [str(const)])} mod p^{mk}")
    box = [f"g[{i}][{j}] = " + " + ".join(monomial(c, [f"x[{l}][{j}]" for l in mono])
                                          for c, mono in gen)
           for j, (gens, _) in enumerate(columns, 1) for i, gen in sorted(gens.items())]
    text = "\n".join([f"[ring]\np = {p}\n[problem]\nn = {n}\nm = {m}\n[system]", *system,
                      "[box]", *box]) + "\n"
    return text, (p, m, moduli, constants, columns)


def separable_split_count(p, m, moduli, constants, columns):
    """|V| by convolving per-column residue histograms on plain ints.

    For p in {2, 3} the Teichmuller lifts of the digits 0, 1, 2 are 0, 1, -1,
    so a column is y = sum_i p^i * lift(a_i), a_i its free digit below m and
    its generator's value mod p from m up to M'.
    """
    lift = (0, 1, -1)
    mods = [p ** mk for mk in moduli]
    hist = {tuple(c % md for c, md in zip(constants, mods)): 1}
    for gens, terms in columns:
        col = {}
        for free in itertools.product(range(p), repeat=m):
            digits = list(free) + [
                sum(c * math.prod(free[l] for l in mono) for c, mono in gens.get(i, ())) % p
                for i in range(m, moduli[-1])]
            y = sum(p ** i * lift[a] for i, a in enumerate(digits))
            key = tuple(sum(c * y ** e for c, e in ts) % md for ts, md in zip(terms, mods))
            col[key] = col.get(key, 0) + 1
        nxt = {}
        for a, x in hist.items():
            for b, z in col.items():
                key = tuple((u + v) % md for u, v, md in zip(a, b, mods))
                nxt[key] = nxt.get(key, 0) + x * z
        hist = nxt
    return hist.get((0,) * len(mods), 0)


def test_separable_soundness_sweep():
    # split boxes of up to 3^48 points, counted component by component, so
    # the bounds reach values that the brute-force-sized sweep never does
    rng = random.Random("separable-soundness")
    cases, reaching = 40, 0
    for _ in range(cases):
        text, data = separable_split_instance(rng)
        inst = parse_instance(text)
        count = count_zeros(inst, budget=inst.box.base_size())
        assert count.cardinality == separable_split_count(*data), text
        p, h = inst.field.p, inst.field.h
        values = [e.value for e in bound_report(inst, count=count).entries if e.applicable]
        if count.cardinality:
            assert all(count.cardinality % p ** (h * v) == 0 for v in values), text
            reaching += max(values, default=0) >= 2
    assert reaching >= cases // 4
