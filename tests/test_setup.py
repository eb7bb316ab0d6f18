"""What a process pays before its first result: the modules it compiles, and
the plain classes that stand in for dataclasses.

Every CLI call imports `wittbox` and `wittbox.cli` and parses its input;
`count`, `verify` and `selftest` then count.  The counting kernel is compiled
on the first count only, and no class is built by `dataclasses`, whose
generated methods are compiled when each class is created.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittbox
from wittbox.bounds import BoundEntry, BoundReport
from wittbox.box import BoxPoint, BoxSpec, teichmuller_box
from wittbox.counting import CountReport, ProblemInstance
from wittbox.fqfield import FieldParams, GRElem, GRParams, field_params

CHILD = """\
import sys
import wittbox, wittbox.cli
from wittbox.errors import BudgetError
from wittbox.fixtures import EXAMPLE_41
inst = wittbox.parse_instance(EXAMPLE_41)
print(sorted({"dataclasses", "wittbox.kernel"} & set(sys.modules)))
try:
    wittbox.count_zeros(inst, budget=1)
except BudgetError:
    print("wittbox.kernel" in sys.modules)
print(wittbox.count_zeros(inst).cardinality, "wittbox.kernel" in sys.modules)
"""


def test_the_kernel_is_compiled_on_the_first_count():
    # from source, as with bytecode writing off: import and parse load neither
    # the kernel nor dataclasses, a refused count loads no kernel, a count does
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\nFalse\n30 True\n"


F4 = field_params(2, 2)
BOX = teichmuller_box(F4, 2, 1)
# class: (positional arguments, the same by keyword, arguments of a different record)
RECORDS = {
    FieldParams: ((2, 2, (1, 1, 1)), {"p": 2, "h": 2, "modulus": (1, 1, 1)}, (2, 1, (0, 1))),
    GRParams: ((F4, 3), {"field": F4, "precision": 3}, (F4, 2)),
    GRElem: ((F4.ring, (1, 0)), {"params": F4.ring, "coeffs": (1, 0)}, (F4.ring, (0, 1))),
    BoxSpec: ((F4, 2, 1, {}), {"field": F4, "n": 2, "m": 1, "generators": {}}, (F4, 2, 2, {})),
    BoxPoint: (((1,), ((1,),)), {"base": (1,), "digits": ((1,),)}, ((0,), ((0,),))),
    ProblemInstance: ((BOX, ()), {"box": BOX, "system": ()}, (BOX, ((None, 1),))),
    CountReport: ((30, 2, 1), {"cardinality": 30, "p": 2, "h": 1}, (32, 2, 1)),
    BoundEntry: (("kmr", True, 4, ""), {"name": "kmr", "applicable": True, "value": 4},
                 ("kmr", True, 5, "")),
    BoundReport: (([], None), {"entries": []}, ([], CountReport(30, 2, 1))),
}
FROZEN = {FieldParams, GRParams, GRElem, BoxSpec, BoxPoint, ProblemInstance, CountReport}
HASHABLE = {FieldParams, GRParams, GRElem, BoxPoint, CountReport}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_keep_the_dataclass_behaviour(cls):
    args, kwargs, other = RECORDS[cls]
    a, b, c = cls(*args), cls(**kwargs), cls(*other)
    assert a == b and a != c and a != args and type(a) is cls
    assert all(getattr(a, name) == value for name, value in kwargs.items())
    if cls in HASHABLE:
        assert hash(a) == hash(b) and len({a, b, c}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    name = next(iter(kwargs))
    if cls in FROZEN:
        for attempt in (lambda: setattr(a, name, None), lambda: delattr(a, name)):
            with pytest.raises(AttributeError):
                attempt()
    else:
        setattr(a, name, None)
        assert getattr(a, name) is None and a != b
    if cls is not GRElem:  # which renders its value instead
        assert repr(a).startswith(f"{cls.__name__}({name}=")


def test_cached_properties_stay_lazy():
    field = FieldParams(3, 1, (0, 1))
    assert "ring" not in vars(field)
    assert field.ring is field.ring == GRParams(field, 1)
    params = GRParams(field, 4)
    assert "char" not in vars(params) and params.char == 81 and vars(params)["char"] == 81
    with pytest.raises(wittbox.ValidationError, match="precision must be >= 1"):
        GRParams(field, 0)
