import math
from fractions import Fraction

import pytest

from wittbox.box import box_make, box_variable_names, teichmuller_box
from wittbox.counting import (
    CountReport,
    count_zeros,
    evaluate_point,
    make_instance,
    system_variable_names,
)
from wittbox.errors import BudgetError, ValidationError
from wittbox.fqfield import field_params
from wittbox.galois import GRParams, int_to_gr
from wittbox.instancefile import parse_instance
from wittbox.poly import FieldDomain, MultiPoly, ZZ

F2 = field_params(2)
F3 = field_params(3)


def lin(n, coeffs, const=0):
    names = system_variable_names(n)
    terms = {}
    for j, c in enumerate(coeffs):
        exps = tuple(1 if k == j else 0 for k in range(n))
        terms[exps] = c
    if const:
        terms[(0,) * n] = const
    return MultiPoly(ZZ, names, terms)


def test_make_instance_validation():
    box = teichmuller_box(F2, 2, 1)
    f = lin(2, [1, 1])
    with pytest.raises(ValidationError):
        make_instance(box, [])
    with pytest.raises(ValidationError):
        make_instance(box, [(f, 0)])
    with pytest.raises(ValidationError):
        make_instance(box, [(MultiPoly.constant(ZZ, system_variable_names(2), 3), 1)])
    with pytest.raises(ValidationError):
        make_instance(box, [(lin(3, [1, 1, 1]), 1)])  # wrong arity
    # moduli are sorted ascending
    inst = make_instance(box, [(f, 3), (f + 1, 1)])
    assert inst.moduli == (1, 3)
    assert inst.working_precision == 3
    assert inst.degrees == (1, 1)


def test_count_report_orders():
    r = CountReport(cardinality=32, p=2, h=1)
    assert r.ord_p == 5
    assert r.ord_q == Fraction(5)
    r = CountReport(cardinality=12, p=2, h=2)
    assert r.ord_p == 2
    assert r.ord_q == Fraction(1)
    r = CountReport(cardinality=0, p=2, h=1)
    assert r.ord_p == math.inf and r.ord_q == math.inf


def test_evaluate_point_oracle():
    # f = x1 + 3*x2 over Z/8 at the Teichmuller point (1, 1): 1 + 3 = 4
    box = teichmuller_box(F2, 2, 3)
    inst = make_instance(box, [(lin(2, [1, 3]), 3)])
    from wittbox.box import expand_point
    from wittbox.fqfield import fq

    one = fq(F2, 1)
    pt = expand_point(box, (one, one) + (fq(F2, 0),) * 4, 3)
    (residue,) = evaluate_point(inst, pt)
    assert residue == int_to_gr(4, GRParams(F2, 3))


def test_linear_count_closed_form():
    # x1 + x2 = 0 mod p over the full Teichmuller box at m = 1 is a hyperplane
    # through a q-point coordinate set: count solutions by brute force against
    # the direct formula q (pairs (a, -a) ... but Teichmuller digits at m=1
    # are just F_q, so the count is exactly q).
    for field in (F2, F3):
        box = teichmuller_box(field, 2, 1)
        inst = make_instance(box, [(lin(2, [1, 1]), 1)])
        assert count_zeros(inst).cardinality == field.q


def test_count_independent_of_partitions():
    inst = parse_instance(
        "[ring]\np = 2\n[problem]\nn = 2\nm = 2\n[system]\nf1 = x1*x2 + x1 mod p^2\n"
    )
    baseline = count_zeros(inst).cardinality
    for parts in (2, 3, 5, 16, 17):
        assert count_zeros(inst, partitions=parts).cardinality == baseline
    with pytest.raises(ValidationError):
        count_zeros(inst, partitions=0)


def test_budget_refusal():
    box = teichmuller_box(F2, 3, 3)  # 512 points
    inst = make_instance(box, [(lin(3, [1, 1, 1]), 1)])
    with pytest.raises(BudgetError):
        count_zeros(inst, budget=100)


def test_enumeration_precision_exceeds_moduli():
    # box precision m = 2 with a single modulus 1: enumeration must still
    # produce length-2 digit vectors, and generators at i >= m are irrelevant
    # to the residues mod p.
    names = box_variable_names(1, 2)
    dom = FieldDomain(F2)
    g = MultiPoly.variable(dom, names, "x[0][1]")
    box = box_make(F2, 1, 2, {(2, 1): g})
    inst = make_instance(box, [(lin(1, [1]), 1)])
    assert inst.enumeration_precision == 2
    # x1 = 0 mod 2 iff digit 0 of the coordinate is 0: 2 of the 4 base points
    assert count_zeros(inst).cardinality == 2


def test_mod4_circle_oracle():
    # x1^2 + x2^2 = 0 mod 4 over the Teichmuller box T_2 in Z_4^2.
    # Independent oracle: Teichmuller digits (a0, a1) in F_2 map to
    # y = a0 + 2*a1; enumerate the 16 pairs directly.
    count = 0
    for y1 in (0, 1, 2, 3):
        for y2 in (0, 1, 2, 3):
            if (y1 * y1 + y2 * y2) % 4 == 0:
                count += 1
    box = teichmuller_box(F2, 2, 2)
    names = system_variable_names(2)
    f = MultiPoly(ZZ, names, {(2, 0): 1, (0, 2): 1})
    inst = make_instance(box, [(f, 2)])
    assert count_zeros(inst).cardinality == count


def test_separable_count_runs_in_bounded_memory(tmp_path):
    # f1 = sum_{j<24} 2^j x_{j+1} mod 2^24 has the one zero x = 0 among 2^24
    # points; its 24 one-column components are convolved only up to
    # HISTOGRAM_CAP entries, so memory stays flat where an uncapped
    # histogram would hold 2^24 residues
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    terms = " + ".join(f"{2 ** j}*x{j + 1}" for j in range(24))
    path = tmp_path / "binary.ini"
    path.write_text(f"[ring]\np = 2\n[problem]\nn = 24\nm = 1\n[system]\nf1 = {terms} mod p^24\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "count", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("cardinality=1\n")
    # the peak of the largest child of this process so far, in KiB
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss < 100 * 1024
