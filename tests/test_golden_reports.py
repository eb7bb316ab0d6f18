"""Golden reports: the full stdout and exit code of `bound` and `verify`.

The instances reach every branch of `bound_report`: the degree-sum bound
(m = 1), the equal-moduli bound under both readings, the m = 1 closeness
bound, the alternative single-polynomial note on the stacked bound, a
violated closeness hypothesis, and the minimal-d budget refusal.  Two of
them are sharpness witnesses: their ord_p |V| equals a bound, so a bound one
higher FAILs them and one lower changes their report.
"""

import pytest

from wittbox import bounds
from wittbox.bounds import bound_report
from wittbox.cli import _emit_bounds, main
from wittbox.counting import count_zeros
from wittbox.fixtures import EXAMPLE_41, EXAMPLE_42, EXAMPLE_43
from wittbox.instancefile import parse_instance

INSTANCES = {
    "example41": EXAMPLE_41,
    "example42": EXAMPLE_42,
    "example43": EXAMPLE_43,
    # m = 1 and all moduli 1: ax_katz, cwg and the m1 = 1 stacked case
    "degree_sum": """\
[ring]
p = 3

[problem]
n = 6
m = 1

[system]
f1 = x1^2 + x2*x3 + x4 mod p^1
f2 = x1 + 2*x2 + x5 + x6 mod p^1
""",
    # equal moduli = m = 2, mixed degrees: the two readings disagree
    "mixed_degree": """\
[ring]
p = 2

[problem]
n = 3
m = 2

[system]
f1 = -3*x1 mod p^2
f2 = x2*x3^2 mod p^2
""",
    # s = n = 1, m1 = 2 < m = 3, degree 2: the alternative-reading note
    "single_poly": """\
[ring]
p = 2

[problem]
n = 1
m = 3

[system]
f1 = x1^2 + 2*x1 mod p^2
""",
    # F_4 generator coefficients feeding a digit below the working precision
    "f4_box": """\
[ring]
p = 2
h = 2

[problem]
n = 2
m = 1

[system]
f1 = x1*x2 + x2^3 mod p^2
f2 = x1 + x2 mod p^1

[box]
g[1][1] = t*x[0][2] + 1
""",
    # m_1 = 1 < m = 2, effective degree 2: |V| = 48, ord_2 = 4 = stacked,
    # where general = improved = 2
    "stacked_witness": """\
[ring]
p = 2

[problem]
n = 3
m = 2

[system]
f1 = 6*x1*x2 + 3*x2*x3 mod p^1
""",
    # all moduli = m = 3, degrees 3 and 1: |V| = 112, ord_2 = 4 = kmr
    "kmr_witness": """\
[ring]
p = 2

[problem]
n = 4
m = 3

[system]
f1 = x1^3 + x2^3 + x3^3 + 2*x4^3 mod p^3
f2 = 3*x1 + 4*x2 + x4 mod p^3
""",
}

# witness -> the bound its ord_p |V| attains (h = 1)
WITNESSES = {"stacked_witness": "stacked", "kmr_witness": "kmr"}

RUNS = {
    "bound-example41": ("example41", ["bound"]),
    "verify-example41": ("example41", ["verify"]),
    "verify-example42": ("example42", ["verify"]),
    "bound-example43": ("example43", ["bound"]),
    "verify-example43": ("example43", ["verify"]),
    "bound-degree_sum": ("degree_sum", ["bound"]),
    "verify-degree_sum": ("degree_sum", ["verify"]),
    "bound-mixed_degree-any": ("mixed_degree", ["bound", "--reading", "any"]),
    "bound-mixed_degree-all": ("mixed_degree", ["bound", "--reading", "all"]),
    "verify-mixed_degree-any": ("mixed_degree", ["verify", "--reading", "any"]),
    "verify-mixed_degree-all": ("mixed_degree", ["verify", "--reading", "all"]),
    "verify-single_poly": ("single_poly", ["verify"]),
    "verify-f4_box": ("f4_box", ["verify", "--partitions", "3"]),
    "verify-budget": ("example41", ["verify", "--budget", "10"]),
    "verify-stacked_witness": ("stacked_witness", ["verify"]),
    "verify-kmr_witness": ("kmr_witness", ["verify"]),
}

EXPECTED = {
    'bound-example41': (0, """\
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(3) holds
bound.general=1
applicable.general=true
note.general=closeness(3) holds
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness(3) holds
bound.improved=1
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1
"""),
    'verify-example41': (0, """\
cardinality=30
ord_p=1
ord_q=1/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(3) holds
bound.general=1
applicable.general=true
note.general=closeness(3) holds
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness(3) holds
bound.improved=1
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1
verdict.general=PASS
verdict.improved=PASS
status=PASS
"""),
    'verify-example42': (0, """\
cardinality=32
ord_p=5
ord_q=5/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(3) holds
bound.general=1
applicable.general=true
note.general=closeness(3) holds
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness(3) holds
bound.improved=1
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1
verdict.general=PASS
verdict.improved=PASS
status=PASS
"""),
    'bound-example43': (0, """\
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness violated: deg g[2][1]=5 > 4
applicable.general=false
note.general=closeness violated: deg g[2][1]=5 > 4
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness violated: deg g[2][1]=5 > 4
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=2
"""),
    'verify-example43': (0, """\
cardinality=30
ord_p=1
ord_q=1/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness violated: deg g[2][1]=5 > 4
applicable.general=false
note.general=closeness violated: deg g[2][1]=5 > 4
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness violated: deg g[2][1]=5 > 4
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=2
verdict.improved=PASS
status=PASS
"""),
    'bound-degree_sum': (0, """\
bound.ax_katz=2
applicable.ax_katz=true
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
bound.cwg=2
applicable.cwg=true
note.cwg=needs m = 1 and closeness; closeness(1) holds
bound.general=2
applicable.general=true
note.general=closeness(1) holds
bound.stacked=2
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(1) holds
bound.improved=2
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=2,1
"""),
    'verify-degree_sum': (0, """\
cardinality=81
ord_p=4
ord_q=4/1
bound.ax_katz=2
applicable.ax_katz=true
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
bound.cwg=2
applicable.cwg=true
note.cwg=needs m = 1 and closeness; closeness(1) holds
bound.general=2
applicable.general=true
note.general=closeness(1) holds
bound.stacked=2
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(1) holds
bound.improved=2
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=2,1
verdict.ax_katz=PASS
verdict.cwg=PASS
verdict.general=PASS
verdict.stacked=PASS
verdict.improved=PASS
status=PASS
"""),
    'bound-mixed_degree-any': (0, """\
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
bound.kmr=1
applicable.kmr=true
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(2) holds
bound.general=0
applicable.general=true
note.general=closeness(2) holds
bound.stacked=1
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(2) holds
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1,3
"""),
    'bound-mixed_degree-all': (0, """\
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
bound.kmr=2
applicable.kmr=true
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'all'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(2) holds
bound.general=0
applicable.general=true
note.general=closeness(2) holds
bound.stacked=2
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(2) holds
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1,3
"""),
    'verify-mixed_degree-any': (0, """\
cardinality=10
ord_p=1
ord_q=1/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
bound.kmr=1
applicable.kmr=true
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(2) holds
bound.general=0
applicable.general=true
note.general=closeness(2) holds
bound.stacked=1
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(2) holds
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1,3
verdict.kmr=PASS
verdict.general=PASS
verdict.stacked=PASS
verdict.improved=PASS
status=PASS
"""),
    'verify-mixed_degree-all': (1, """\
cardinality=10
ord_p=1
ord_q=1/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
bound.kmr=2
applicable.kmr=true
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'all'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(2) holds
bound.general=0
applicable.general=true
note.general=closeness(2) holds
bound.stacked=2
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(2) holds
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1,3
verdict.kmr=FAIL
verdict.general=PASS
verdict.stacked=FAIL
verdict.improved=PASS
status=FAIL
"""),
    'verify-single_poly': (0, """\
cardinality=4
ord_p=2
ord_q=2/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(2) holds
bound.general=0
applicable.general=true
note.general=closeness(2) holds
bound.stacked=1
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(2) holds; alternative single-polynomial reading would give 1
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=2
verdict.general=PASS
verdict.stacked=PASS
verdict.improved=PASS
status=PASS
"""),
    'verify-f4_box': (0, """\
cardinality=1
ord_p=0
ord_q=0/2
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
bound.cwg=0
applicable.cwg=true
note.cwg=needs m = 1 and closeness; closeness(2) holds
bound.general=0
applicable.general=true
note.general=closeness(2) holds
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness(2) holds
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=1,3
verdict.cwg=PASS
verdict.general=PASS
verdict.improved=PASS
status=PASS
"""),
    'verify-budget': (3, """\
error.kind=budget
error.message=256 points exceed the enumeration budget 10
"""),
    'verify-stacked_witness': (0, """\
cardinality=48
ord_p=4
ord_q=4/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(1) holds
bound.general=2
applicable.general=true
note.general=closeness(1) holds
bound.stacked=4
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(1) holds
bound.improved=2
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=2
verdict.general=PASS
verdict.stacked=PASS
verdict.improved=PASS
status=PASS
"""),
    'verify-kmr_witness': (0, """\
cardinality=112
ord_p=4
ord_q=4/1
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
bound.kmr=4
applicable.kmr=true
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(3) holds
bound.general=0
applicable.general=true
note.general=closeness(3) holds
bound.stacked=4
applicable.stacked=true
note.stacked=needs equal moduli <= m and closeness; closeness(3) holds
bound.improved=0
applicable.improved=true
note.improved=per-term degree condition satisfied by construction; d=3,1
verdict.kmr=PASS
verdict.general=PASS
verdict.stacked=PASS
verdict.improved=PASS
status=PASS
"""),
}

BUDGET_EXCEEDED = """\
applicable.ax_katz=false
note.ax_katz=needs m = 1 and all moduli 1
applicable.kmr=false
note.kmr=needs m >= 2 and all moduli = m; degree case read as 'any'
applicable.cwg=false
note.cwg=needs m = 1 and closeness; closeness(3) holds
bound.general=1
applicable.general=true
note.general=closeness(3) holds
applicable.stacked=false
note.stacked=needs equal moduli <= m and closeness; closeness(3) holds
applicable.improved=false
note.improved=minimal-d enumeration budget exceeded
"""


@pytest.mark.parametrize("key", sorted(RUNS))
def test_cli_report(key, tmp_path, capsys):
    instance, argv = RUNS[key]
    path = tmp_path / f"{instance}.ini"
    path.write_text(INSTANCES[instance])
    code = main([argv[0], str(path), *argv[1:]])
    assert (code, capsys.readouterr().out) == EXPECTED[key]


def test_minimal_d_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "D_BUDGET", 2)
    _emit_bounds(bound_report(parse_instance(EXAMPLE_41)))
    assert capsys.readouterr().out == BUDGET_EXCEEDED


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_sharpness_witnesses_attain_their_bound(name):
    inst = parse_instance(INSTANCES[name])
    count = count_zeros(inst)
    values = {e.name: e.value for e in bound_report(inst, count).entries if e.applicable}
    assert count.ord_p == values[WITNESSES[name]] == 4
