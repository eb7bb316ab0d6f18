"""tools/ab.py, the side-by-side harness, on this tree against itself."""

import importlib.util
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest

import wittbox

SRC = Path(wittbox.__file__).parents[1]
FIELDS = {"a", "b", "b/a", "b_won", "a_iqr", "verdict"}


def _ab():
    spec = importlib.util.spec_from_file_location("ab", SRC.parent / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdicts_follow_pairs_won_and_the_spread():
    summary = _ab().summary
    slow, fast = [10.0 + k % 3 for k in range(10)], [5.0] * 10
    assert summary(slow, fast) == {"a": 11.0, "b": 5.0, "b/a": 0.455, "b_won": 10,
                                   "a_iqr": 2.0, "verdict": "better"}
    assert summary(fast, slow)["verdict"] == "worse"
    assert summary(fast, slow)["b_won"] == 0
    # ties count for neither side, so 8 wins and 2 ties are not 9 in 10
    assert summary(slow, fast[:8] + slow[8:])["verdict"] == "unresolved"
    # 9 wins in 10 pairs, but the medians differ by less than a's spread
    spread = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]
    assert summary(spread, [x - 0.5 for x in spread[:9]] + [10.0])["verdict"] == "unresolved"
    assert summary(spread, [x - 9.0 for x in spread[:9]] + [10.0])["verdict"] == "better"
    # both medians under 1 ms are near the clock's noise: 10 in 10 pairs and a
    # gap past a's spread, as 0.345 -> 0.430 ms on an unchanged module, decide nothing
    quick = [0.345] * 10
    assert summary(quick, [0.430] * 10)["verdict"] == "unresolved"
    assert summary([0.430] * 10, quick)["verdict"] == "unresolved"
    assert summary(quick, [1.2] * 10)["verdict"] == "worse"


def test_harness_reports_every_rung_and_names_what_differs(tmp_path, monkeypatch):
    ab = _ab()
    trees = {side: ab.load(f"wittbox_{side}", SRC) for side in "ab"}
    ladder = [rung for rung in ab.LADDER if rung[0] in ("q7-n3", "q2-wide7")]
    assert len(ladder) == 2 and (101, 1, 1) in ab.SHAPES

    def compare():
        runs = islice(ab.cli_corpus.runs(tmp_path), 18)  # the fixtures, six runs each
        return ab.compare(trees, 1, runs, {"count_ms": ab.count_rungs(trees, ladder),
                                           "interp_ms": ab.interp_rungs(trees, [(101, 1, 1)])})

    report = compare()
    assert report["rounds"] == 1 and report["corpus_runs_identical"] == 18
    lines = report["lines"]["b"]
    assert lines == report["lines"]["a"] and lines["kernel"] > 0
    assert lines["total"] == sum(count for module, count in lines.items() if module != "total")
    assert list(report["count_ms"]) == ["q7-n3", "q2-wide7"]
    assert list(report["interp_ms"]) == ["q101-n1-m1"]
    for rung in [*report["count_ms"].values(), *report["interp_ms"].values()]:
        assert set(rung) == FIELDS and rung["a"] > 0 and rung["b"] > 0 and rung["a_iqr"] == 0
        assert rung["b_won"] in (0, 1) and rung["verdict"] in ("better", "worse")

    # a count that differs on one side stops the harness, naming the rung
    count_zeros = trees["b"].counting.count_zeros
    monkeypatch.setattr(trees["b"].counting, "count_zeros", lambda inst, budget: SimpleNamespace(
        cardinality=count_zeros(inst, budget).cardinality + (inst.box.n == 7)))
    with pytest.raises(ab.Mismatch, match=r"^q2-wide7: tree b gives 225, tree a 224$"):
        compare()
    monkeypatch.undo()

    # so does one corpus run whose stdout differs, before any rung is timed
    main = trees["b"].cli.main

    def patched(argv):
        code = main(argv)
        if argv[0] == "bound" and argv[1].endswith("example42.ini") and argv[-1] == "all":
            print("extra")
        return code
    monkeypatch.setattr(trees["b"].cli, "main", patched)
    with pytest.raises(ab.Mismatch, match=r"^run `bound fixture/example42 --reading all`: "):
        compare()
