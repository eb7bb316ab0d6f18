import itertools
import math
import random
from fractions import Fraction

import pytest

from wittbox import bounds
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
from wittbox.box import BoxSpec, box_variable_names, teichmuller_box
from wittbox.counting import count_zeros, make_instance, system_variable_names
from wittbox.errors import BudgetError, ValidationError
from wittbox.fixtures import EXAMPLE_41
from wittbox.fqfield import field_params, fq
from wittbox.galois import GRParams, int_to_gr, to_digits
from wittbox.instancefile import parse_instance
from wittbox.poly import FieldDomain, MultiPoly, ZZ

F2 = field_params(2)


def entry(report, name):
    """The entry of `report` with this name."""
    return next(e for e in report.entries if e.name == name)


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
    cwg = entry(report, "cwg")
    assert cwg.applicable and cwg.value == general_bound(8, 1, 2, [1, 2], [2, 1]) == 2
    assert cwg.value == entry(report, "general").value
    assert not entry(bound_report(parse_instance(EXAMPLE_41)), "cwg").applicable  # m = 2


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
    improved = entry(bound_report(inst), "improved")
    assert improved.applicable and improved.value == general_bound(4, 2, 2, [3], [minimal_d(inst, 0)])
    # every term's coefficient vanishes mod p^m_k: no term constrains d, which stays 1
    f = MultiPoly(ZZ, system_variable_names(2), {(1, 1): 4, (2, 0): 8})
    inst = make_instance(teichmuller_box(F2, 2, 1), [(f, 2)])
    assert minimal_d(inst, 0) == 1
    assert entry(bound_report(inst), "improved").notes.endswith("; d=1")


def test_minimal_d_oracles(monkeypatch):
    # f = x1^2 mod p over T_1: the only term is degree 2 with slots below m,
    # so d = 2.
    names = system_variable_names(1)
    f = MultiPoly(ZZ, names, {(2,): 1})
    inst = make_instance(teichmuller_box(F2, 1, 1), [(f, 1)])
    assert minimal_d(inst, 0) == 2
    # worked instance: d = 1 despite deg f = 1 and modulus 3
    inst41 = parse_instance(EXAMPLE_41)
    assert minimal_d(inst41, 0) == 1
    monkeypatch.setattr(bounds, "D_BUDGET", 2)
    with pytest.raises(BudgetError):
        minimal_d(inst41, 0)


def test_minimal_d_sees_generator_degrees():
    # same linear system, but a degree-4 generator feeding digit 2 forces the
    # beta-slot terms to carry that degree: expansion terms with one slot at
    # level 2 have i + |beta| = 1 < m_k, degree 4, level p^0 -> d = 4
    inst41 = parse_instance(EXAMPLE_41)
    g = inst41.box.generators[(2, 1)]
    assert g.total_degree() == 4


def test_slot_profile_marks_dead_levels():
    # A zero or missing generator kills its slot.  minimal_d cannot tell that
    # from a slot of degree 0: moving the slot to level 0 gives degree 1 at a
    # lower level, which never lowers d.  So the profile is pinned here.
    inst41 = parse_instance(EXAMPLE_41)
    assert bounds._profile(inst41.box, 1, 4) == [1, 1, 4, None]
    assert bounds._profile(inst41.box, 2, 4) == [1, 1, None, None]
    zero = MultiPoly.zero(FieldDomain(F2), box_variable_names(1, 1))
    assert bounds._profile(BoxSpec(F2, 1, 1, {(1, 1): zero}), 1, 3) == [1, None, None]


def _compositions(total, parts):
    """All ordered tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerated_minimal_d(inst, k):
    """minimal_d by listing every slot vector beta, one slot per unit of
    exponent, each charged to `bounds.D_BUDGET`: the oracle for the max-plus
    search."""
    f, mk = inst.system[k]
    spec = inst.box
    p, h, m = spec.field.p, spec.field.h, spec.m
    params = GRParams(spec.field, mk)
    need, work = 1, 0
    for exps, coeff in f.tuple_terms().items():
        digits = to_digits(int_to_gr(coeff, params))
        slots = [l for l, e in enumerate(exps, start=1) for _ in range(e)]
        for i in range(mk):
            if digits[i].is_zero():
                continue
            for total in range(mk - i):
                for beta in _compositions(total, len(slots)):
                    work += 1
                    if work > bounds.D_BUDGET:
                        raise BudgetError("minimal-d enumeration budget exceeded")
                    deg = 0
                    for b, l in zip(beta, slots):
                        g = spec.generators.get((b, l))
                        if b < m:
                            deg += 1
                        elif g is None or g.is_zero():
                            break
                        else:
                            deg += g.total_degree()
                    else:
                        level = p ** (h * ((i + total) // h))
                        need = max(need, -(-deg // level))
    return need


def random_minimal_d_instance(rng):
    """A seeded instance for the minimal_d oracle: p in {2, 3, 5}, h in {1, 2},
    generators absent, zero or of random degree, constant terms, and
    coefficients divisible by powers of p so that some digits vanish."""
    field = field_params(rng.choice((2, 3, 5)), rng.choice((1, 2)))
    n, m, mk = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 5)
    names = box_variable_names(n, m)
    dom = FieldDomain(field)
    generators = {}
    for b in range(m, mk):
        for l in range(1, n + 1):
            kind = rng.random()
            if kind < 0.3:
                continue
            terms = {} if kind < 0.45 else {
                tuple(rng.randrange(field.q) if rng.random() < 0.4 else 0 for _ in names):
                fq(field, [rng.randrange(1, field.p)]) for _ in range(rng.randint(1, 3))}
            generators[(b, l)] = MultiPoly(dom, names, terms)
    terms = {tuple(rng.randint(0, 3) if rng.random() < 0.6 else 0 for _ in range(n)):
             rng.randint(1, 30) * field.p ** rng.choice((0, 0, 1, 2, mk))
             for _ in range(rng.randint(1, 4))}
    terms[(1,) + (0,) * (n - 1)] = rng.randint(1, 30)  # nonconstant
    f = MultiPoly(ZZ, system_variable_names(n), terms)
    return make_instance(BoxSpec(field, n, m, generators), [(f, mk)])


@pytest.mark.parametrize("budget", [1 << 20, 40, 2])
def test_minimal_d_matches_enumeration(monkeypatch, budget):
    monkeypatch.setattr(bounds, "D_BUDGET", budget)
    rng = random.Random(f"minimal-d-{budget}")

    def outcome(search, inst):
        try:
            return search(inst, 0)
        except BudgetError:
            return "budget"

    seen = set()
    for _ in range(500):
        inst = random_minimal_d_instance(rng)
        expected = outcome(enumerated_minimal_d, inst)
        assert outcome(minimal_d, inst) == expected, inst
        seen.add(expected)
    assert ("budget" in seen) == (budget < 1 << 20)
    assert max(d for d in seen if d != "budget") >= 3


def test_minimal_d_in_a_wide_context():
    # 300 declared variables in 2-byte slots (x3^300); x7, x9 and x250 occur
    # in live terms, out of slot order, and x3 only in a term that vanishes
    # mod p^m_k.  The search reads the slots of the variables that occur.
    n = 300
    names, box_names = system_variable_names(n), box_variable_names(n, 1)
    dom = FieldDomain(F2)

    def exps(**powers):
        return tuple(powers.get(f"x{l}", 0) for l in range(1, n + 1))

    f = MultiPoly(ZZ, names, {exps(x250=2, x7=1): 3, exps(x9=1): 2, exps(x3=300): 8, exps(): 1})
    assert f.width == 16
    g = MultiPoly.variable(dom, box_names, "x[0][1]") * MultiPoly.variable(dom, box_names, "x[0][2]")
    spec = BoxSpec(F2, n, 1, {(1, 7): g, (1, 250): g * MultiPoly.variable(dom, box_names, "x[0][3]"),
                              (2, 9): g})
    for mk in (1, 2, 3):
        inst = make_instance(spec, [(f, mk)])
        assert minimal_d(inst, 0) == enumerated_minimal_d(inst, 0)
    assert minimal_d(inst, 0) == 3


def test_bound_report_example41():
    inst = parse_instance(EXAMPLE_41)
    count = count_zeros(inst)
    report = bound_report(inst, count=count)
    assert count.cardinality == 30 and count.ord_p == 1

    general = entry(report, "general")
    assert general.applicable and general.value == 1
    assert general.verdict(count) == "PASS"

    improved = entry(report, "improved")
    assert improved.applicable and improved.value == 1

    # moduli are not all equal to m = 2, so the equal-moduli bound is out
    assert not entry(report, "kmr").applicable
    assert not entry(report, "ax_katz").applicable
    assert report.status == "PASS"


def test_bound_report_closeness_violated():
    from wittbox.fixtures import EXAMPLE_43

    inst = parse_instance(EXAMPLE_43)
    report = bound_report(inst)
    assert not entry(report, "general").applicable
    assert "closeness violated" in entry(report, "general").notes
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
    assert entry(report, "ax_katz").verdict(count) == "VACUOUS"


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
    assert entry(any_report, "kmr").value == 1
    assert entry(any_report, "kmr").verdict(count) == "PASS"

    all_report = bound_report(inst, count=count, reading=READING_ALL)
    assert entry(all_report, "kmr").value == 2
    assert entry(all_report, "kmr").verdict(count) == "FAIL"


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


def chain_instance(rng, n):
    """f1 = sum_j c_j x_j x_{j+1} + 1 mod 2^3 and f2 = sum_j d_j x_j^(1|2) mod 2^2
    over the q = 2, m = 2 Teichmuller box: one component at every n."""
    c = [rng.randint(1, 7) for _ in range(n - 1)]
    d = [(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(n)]
    f1 = " + ".join(f"{cj}*x{j}*x{j + 1}" for j, cj in enumerate(c, 1)) + " + 1"
    f2 = " + ".join(f"{dj}*x{j}^{e}" for j, (dj, e) in enumerate(d, 1))
    text = (f"[ring]\np = 2\n[problem]\nn = {n}\nm = 2\n[system]\n"
            f"f1 = {f1} mod p^3\nf2 = {f2} mod p^2\n")
    return text, c, d


def chain_count(c, d):
    """|V| of a chain instance by a transfer matrix on plain ints.

    A Teichmuller digit of Z_2 is the bit itself, so x_j = a0 + 2*a1 runs
    over 0..3; the state after column j is (x_j, f1 so far mod 8, f2 so far
    mod 4), with the constant of f1 in from the start.
    """
    states = {}
    for x in range(4):
        key = (x, 1, d[0][0] * x ** d[0][1] % 4)
        states[key] = states.get(key, 0) + 1
    for cj, (dj, e) in zip(c, d[1:]):
        nxt = {}
        for (x, r1, r2), ways in states.items():
            for y in range(4):
                key = (y, (r1 + cj * x * y) % 8, (r2 + dj * y ** e) % 4)
                nxt[key] = nxt.get(key, 0) + ways
        states = nxt
    return sum(ways for (_, r1, r2), ways in states.items() if r1 == r2 == 0)


def test_chain_soundness_sweep():
    # degree-2 systems with mixed moduli over boxes of up to 4^32 points in
    # one component, counted by elimination, reach bound values that a
    # separable sweep cannot
    rng = random.Random("chain-soundness")
    reaching = 0
    for n in range(8, 33):
        text, c, d = chain_instance(rng, n)
        inst = parse_instance(text)
        count = count_zeros(inst, budget=inst.box.base_size())
        assert count.cardinality == chain_count(c, d), text
        values = {e.name: e.value for e in bound_report(inst, count=count).entries
                  if e.applicable}
        assert count.cardinality and all(count.cardinality % 2 ** v == 0
                                         for v in values.values()), text
        reaching += values["general"] >= 6
    assert reaching >= 2
