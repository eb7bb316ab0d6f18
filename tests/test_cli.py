import pytest

from wittbox import cli
from wittbox.cli import EXIT_ASSERTION, EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, main
from wittbox.fixtures import EXAMPLE_41, EXAMPLE_43


@pytest.fixture
def example41(tmp_path):
    path = tmp_path / "example41.ini"
    path.write_text(EXAMPLE_41)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_witt_polys_golden(capsys):
    code, out = run(capsys, "witt-polys", "--p", "2", "--n", "1")
    assert code == EXIT_OK
    assert out == "S0 = X0 + Y0\nS1 = -X0*Y0 + X1 + Y1\n"
    code, out = run(capsys, "witt-polys", "--p", "2", "--n", "1", "--kind", "product")
    assert code == EXIT_OK
    assert out == "M0 = X0*Y0\nM1 = X0^2*Y1 + Y0^2*X1 + 2*X1*Y1\n"


def test_count_command(capsys, example41):
    code, out = run(capsys, "count", example41)
    assert code == EXIT_OK
    assert "cardinality=30\n" in out
    assert "ord_p=1\n" in out
    assert "ord_q=1/1\n" in out


def test_count_stable_across_partitions(capsys, example41):
    _, baseline = run(capsys, "count", example41)
    for parts in ("2", "7", "32"):
        _, out = run(capsys, "count", example41, "--partitions", parts)
        assert out == baseline


def test_huge_partition_count_does_no_extra_work(example41):
    # one range per partition used to be built and counted, however few the
    # points; a subprocess with a timeout keeps a regression from hanging here
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    outs = []
    for parts in ("1", str(10 ** 12)):
        proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "count", example41,
                               "--partitions", parts],
                              env=env, capture_output=True, text=True, timeout=30)
        outs.append((proc.returncode, proc.stdout))
    assert outs[0] == outs[1] == (EXIT_OK, "cardinality=30\nord_p=1\nord_q=1/1\n")


def test_parser_is_built_once(capsys, example41):
    cli.build_parser.cache_clear()
    first = run(capsys, "count", example41)
    second = run(capsys, "count", example41)
    assert first == second
    assert cli.build_parser.cache_info().misses == 1


def test_verify_pass(capsys, example41):
    code, out = run(capsys, "verify", example41)
    assert code == EXIT_OK
    assert "cardinality=30\n" in out
    assert "bound.general=1\n" in out
    assert "applicable.general=true\n" in out
    assert "verdict.general=PASS\n" in out
    assert "bound.improved=1\n" in out
    assert out.rstrip().endswith("status=PASS")


def test_bound_command_inapplicable_closeness(capsys, tmp_path):
    path = tmp_path / "example43.ini"
    path.write_text(EXAMPLE_43)
    code, out = run(capsys, "bound", str(path))
    assert code == EXIT_OK
    assert "applicable.general=false\n" in out
    assert "closeness violated" in out


def test_bound_with_a_multi_word_exponent(capsys, tmp_path):
    # 10^23 needs 77 bits: the exponent slots are wider than a machine word
    path = tmp_path / "huge.ini"
    path.write_text("[ring]\np = 2\nh = 1\n\n[problem]\nn = 1\nm = 1\n\n[system]\n"
                    "f1 = x1^100000000000000000000000 + 1 mod p^1\n")
    code, out = run(capsys, "bound", str(path))
    assert code == EXIT_OK
    assert "note.improved=per-term degree condition satisfied by construction; " \
           "d=100000000000000000000000\n" in out


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[ring]\np = 2\n")
    code, out = run(capsys, "count", str(path))
    assert code == EXIT_VALIDATION
    assert "error.kind=parse\n" in out
    assert "error.message=" in out


def test_missing_file_exit_code(capsys, tmp_path):
    code, out = run(capsys, "count", str(tmp_path / "nope.ini"))
    assert code == EXIT_VALIDATION
    assert "error.kind=io\n" in out


def test_non_utf8_file_is_an_io_error(capsys, tmp_path):
    path = tmp_path / "utf16.ini"
    path.write_bytes(b"\xff\xfe[\x00r\x00i\x00n\x00g\x00]\x00")
    code, out = run(capsys, "count", str(path))
    assert code == EXIT_VALIDATION
    assert out == ("error.kind=io\nerror.message='utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


def test_budget_exit_code(capsys, example41):
    code, out = run(capsys, "count", example41, "--budget", "10")
    assert code == EXIT_BUDGET
    assert "error.kind=budget\n" in out


def test_paper_examples_command(capsys):
    code, out = run(capsys, "paper-examples")
    assert code == EXIT_OK
    assert "example41.cardinality=30\n" in out
    assert "example41.ord_p=1\n" in out
    assert "example42.cardinality=32\n" in out
    assert "example42.ord_p=5\n" in out
    assert "example43.cardinality=30\n" in out
    assert "example43.closeness=false\n" in out
    assert out.count("status=PASS") == 3


def test_verify_fail_exit_code(capsys, tmp_path):
    # under the refuted 'all' reading the frozen counterexample must FAIL
    from test_bounds import FROZEN_COUNTEREXAMPLE

    path = tmp_path / "counterexample.ini"
    path.write_text(FROZEN_COUNTEREXAMPLE)
    code, out = run(capsys, "verify", str(path), "--reading", "all")
    assert code == EXIT_ASSERTION
    assert "verdict.kmr=FAIL\n" in out
    assert out.rstrip().endswith("status=FAIL")
    # the default (literal) reading passes
    code, out = run(capsys, "verify", str(path))
    assert code == EXIT_OK
    assert out.rstrip().endswith("status=PASS")


def test_paper_examples_checks_ord_p(capsys, monkeypatch):
    import wittbox.cli as cli

    name, text, cardinality, ord_p, close = cli.PAPER_EXAMPLES[1]
    monkeypatch.setattr(cli, "PAPER_EXAMPLES", ((name, text, cardinality, ord_p + 1, close),))
    code, out = run(capsys, "paper-examples")
    assert code == EXIT_ASSERTION
    assert out.endswith(f"{name}.ord_p={ord_p}\n{name}.closeness=true\n{name}.status=FAIL\n")


def _slug(name):
    return name.replace(" ", "-").replace("=", "").replace("(", "").replace(")", "").replace(
        ",", ".").replace("/", "-")


def test_selftest_prints_every_check(capsys, monkeypatch):
    from wittbox import checks

    results = []
    run_all = checks.run_all
    monkeypatch.setattr(checks, "run_all", lambda: results.extend(run_all()) or results)
    code, out = run(capsys, "selftest")
    assert code == EXIT_OK
    assert out.splitlines() == [f"selftest.{_slug(name)}=ok" for name, _ in results]
    assert out.startswith("selftest.ghost-p2-r2-kindsum-k<3=ok\n")
    assert out.endswith("selftest.box-round-trip-example-4.1-box=ok\n")


def test_selftest_fails_on_a_failed_check(capsys, monkeypatch):
    from wittbox import checks

    monkeypatch.setattr(checks, "ALL_SUITES", (("ghost", checks.ghost_suite),
                                               ("broken", lambda: [("forced check", False)])))
    code, out = run(capsys, "selftest")
    assert code == EXIT_ASSERTION
    assert out.endswith("selftest.ghost-negative-control-mutated-S_1-fails=ok\n"
                        "selftest.forced-check=FAIL\n")


def test_duplicate_key_exit_code(capsys, tmp_path):
    path = tmp_path / "dup.ini"
    path.write_text(EXAMPLE_41.replace("h = 1", "h = 1\nh = 3"))
    code, out = run(capsys, "count", str(path))
    assert code == EXIT_VALIDATION
    assert "error.kind=parse\n" in out


def test_large_prime_returns_promptly(tmp_path):
    # trial division on 2^61 - 1 never finished; Miller-Rabin answers at once
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    path = tmp_path / "big.ini"
    path.write_text(f"[ring]\np = {2 ** 61 - 1}\n[problem]\nn = 2\nm = 1\n"
                    "[system]\nf1 = x1 + x2 mod p^2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    codes = {}
    for command in ("bound", "count", "verify"):
        proc = subprocess.run([sys.executable, "-m", "wittbox.cli", command, str(path)],
                              env=env, capture_output=True, text=True, timeout=30)
        codes[command] = proc.returncode
    assert codes == {"bound": EXIT_OK, "count": EXIT_BUDGET, "verify": EXIT_BUDGET}
    path.write_text(path.read_text().replace(str(2 ** 61 - 1), str(2 ** 89 - 1)))
    assert main(["bound", str(path)]) == EXIT_VALIDATION


def test_large_extension_modulus_is_checked_promptly(tmp_path):
    # trial division over F_1000003 took seconds; Rabin's test is polynomial in log p
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    codes = {}
    for modulus in ("t^2 + 1", "t^2 + 1000002"):  # irreducible (p = 3 mod 4); (t-1)(t+1)
        path = tmp_path / "ext.ini"
        path.write_text(f"[ring]\np = 1000003\nh = 2\nmodulus = {modulus}\n"
                        "[problem]\nn = 1\nm = 1\n[system]\nf1 = x1 mod p^2\n")
        proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "bound", str(path)],
                              env=env, capture_output=True, text=True, timeout=10)
        codes[modulus] = proc.returncode
    assert codes == {"t^2 + 1": EXIT_OK, "t^2 + 1000002": EXIT_VALIDATION}


def test_huge_power_is_refused_before_expansion(tmp_path, capsys):
    # (x1 + x2 + 1)^3000 has about 4.5 M terms and used to be expanded in
    # full; a subprocess with a timeout keeps a regression from hanging here
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    path = tmp_path / "power.ini"
    path.write_text("[ring]\np = 2\n[problem]\nn = 2\nm = 1\n[system]\n"
                    "f1 = (x1 + x2 + 1)^3000 mod p^1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "count", str(path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_BUDGET
    assert "error.kind=budget\n" in proc.stdout
    assert "error.message=line 7: " in proc.stdout
    # a large exponent on one term stays cheap and is accepted
    path.write_text(path.read_text().replace("(x1 + x2 + 1)^3000", f"x1^{2 ** 40} + x2"))
    code, out = run(capsys, "count", str(path))
    assert code == EXIT_OK


def test_long_product_is_refused_before_multiplying(tmp_path, capsys):
    # eight (x1 + x2 + x3 + 1)^9 factors, each within the `^` cap, used to be
    # multiplied out for seconds; the product bound refuses the second `*`
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    factor = "(x1 + x2 + x3 + 1)^9"
    path = tmp_path / "product.ini"
    path.write_text("[ring]\np = 2\n[problem]\nn = 3\nm = 1\n[system]\n"
                    f"f1 = {' * '.join([factor] * 8)} mod p^1\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "count", str(path)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ("error.kind=budget\nerror.message=line 7: multiplying with `*` "
                           "could produce more than 1024 terms\n")
    # a product whose terms stay under the cap is multiplied as before
    path.write_text(path.read_text().replace(" * ".join([factor] * 8), "(x1 + 1)^9 * (x2 + x3)^9"))
    code, out = run(capsys, "count", str(path))
    assert code == EXIT_OK


_ONE_COLUMN = "[ring]\np = 2\n[problem]\nn = 1\nm = 1\n[system]\n"
_WIDE_BOX = "".join(f"g[{b}][{l}] = x[0][{l}]\n" for b in range(1, 6) for l in (1, 2, 3))
_BUDGET_NOTE = "note.improved=minimal-d enumeration budget exceeded\n"
_D_NOTE = "note.improved=per-term degree condition satisfied by construction; d="
_REFUSED = "error.kind=budget\n"
_EXTENSION = _ONE_COLUMN.replace("p = 2\n", "p = 2\nh = {h}\nmodulus = t^{h} + t + 1\n")
_DEEP_REFUSED = "error.message=line 7: a modulus exponent above 262144 is refused\n"
_LONG_POINTS = (EXIT_BUDGET, "error.message=2^1000000 points exceed the enumeration budget")
_LONG_PRODUCT = (EXIT_BUDGET, f"error.message=line 5: n*m = {'1' * 4000}*{'2' * 4000} digit variables")
_WIDE_SUM = " + ".join(f"x[{i % 2}][{i // 2 + 1}]" for i in range(60))
_WIDE_SLOTS = (_ONE_COLUMN.replace("n = 1", f"n = {1 << 16}").replace("m = 1", "m = 2")
               + "f1 = x1 mod p^3\n[box]\ng[2][1] = {}\n")


def _both(code, line):
    """The exit code and a line of stdout expected of `bound` and `verify` alike."""
    return {"bound": (code, line), "verify": (code, line)}


# name: (file contents, {command: (exit code, a line expected on stdout)})
HOSTILE_INPUTS = {
    # minimal_d enumerated every slot vector: 55 s, a RecursionError, a
    # 2^40-entry slot list, and 11 s to reach the budget note
    "deep-generators": (_ONE_COLUMN + "f1 = x1^400 mod p^3\n[box]\n"
                        "g[1][1] = x[0][1]\ng[2][1] = x[0][1]\n", _both(EXIT_OK, _D_NOTE + "400\n")),
    "high-power": (_ONE_COLUMN + "f1 = x1^2000 mod p^2\n", _both(EXIT_OK, _D_NOTE + "2000\n")),
    # the kernel took y^e as y^d * y^(e-d), d the power before e, recursing once
    # per exponent: a RecursionError at 1,000 exponents, in either term order
    **{name: (_ONE_COLUMN + f"f1 = {f} mod p^2\n",
              {"count": (EXIT_OK, line), "verify": (EXIT_OK, line)})
       for name, f, line in (
           ("power-chain", "(x1 + 3)^1000", "cardinality=1\n"),
           ("descending-powers", " + ".join(f"x1^{e}" for e in range(1000, 0, -1)),
            "cardinality=2\n"))},
    "huge-power": (_ONE_COLUMN + f"f1 = x1^{2 ** 40} mod p^2\n", _both(EXIT_OK, _BUDGET_NOTE)),
    "wide-box": ("[ring]\np = 2\n[problem]\nn = 3\nm = 1\n[system]\n"
                 "f1 = x1^6*x2^6*x3^6 + x1 mod p^12\n[box]\n" + _WIDE_BOX
                 + "g[6][1] = x[0][1]*x[0][2]\n", _both(EXIT_OK, _BUDGET_NOTE)),
    # only the top coefficient digit is live, so only the total t = 0 counts;
    # 299 generator levels made the profiles dense, and squaring them 3000
    # times at full width took tens of seconds
    "low-digit": (_ONE_COLUMN + f"f1 = 2^299*x1^{2 ** 3000} mod p^300\n[box]\n"
                  + "".join(f"g[{b}][1] = x[0][1]\n" for b in range(1, 300)),
                  _both(EXIT_OK, _D_NOTE + f"{2 ** 2701}\n")),
    # to_digits lifted each digit afresh at each of the 3000 levels: 12 s
    "deep-modulus": (_ONE_COLUMN + "f1 = x1 mod p^3000\n", _both(EXIT_OK, _D_NOTE + "1\n")),
    "non-utf8": ("\xff\xfe[ring]\n", _both(EXIT_VALIDATION, "error.kind=io\n")),
    "oversized-problem": (_ONE_COLUMN.replace("n = 1", "n = 99999999999999999999")
                          + "f1 = x1 mod p^1\n", _both(EXIT_BUDGET, _REFUSED)),
    # Rabin's test is cubic in h: a modulus of degree 1000 ran past 60 s,
    # and degree 127 is still tested
    "deep-extension": (_EXTENSION.format(h=1000) + "f1 = x1 mod p^1\n", _both(EXIT_BUDGET, _REFUSED)),
    # the modulus's coefficient list was built to its degree: MemoryError here,
    # and 1.5 s for t^30000000
    "huge-modulus-degree": (_EXTENSION.format(h=2).replace("t^2 + t + 1", "t^100000000000 + 1")
                            + "f1 = x1 mod p^1\n", dict.fromkeys(("count", "bound", "verify"), (
                                EXIT_VALIDATION, "error.message=modulus must be monic of degree exactly h\n"))),
    "extension-127": (_EXTENSION.format(h=127) + "f1 = x1 mod p^1\n",
                      {"bound": (EXIT_OK, "applicable.ax_katz=true\n")}),
    # 2^24 - 3 points are within the budget, but the kernel built objects per
    # element of F_q and died of MemoryError after 30 s; the bounds need none
    "huge-field": (_ONE_COLUMN.replace("p = 2", "p = 16777213") + "f1 = x1 mod p^1\n",
                   {"bound": (EXIT_OK, "applicable.ax_katz=true\n"),
                    "count": (EXIT_BUDGET, _REFUSED), "verify": (EXIT_BUDGET, _REFUSED)}),
    # the kernel lifted tau(a) to all 200000 levels below M' but reads only
    # level 0; to_digits and closeness_check worked at each of the levels
    "deep-precision": (_ONE_COLUMN + "f1 = x1 + 1 mod p^200000\n",
                       {"count": (EXIT_OK, "cardinality=0\n"), "bound": (EXIT_OK, _D_NOTE + "1\n")}),
    "deeper-modulus": (_ONE_COLUMN + "f1 = x1 mod p^200000\n", _both(EXIT_OK, _D_NOTE + "1\n")),
    # the lift took M - 1 q-th powers at full precision: 15.8 s here over F_9,
    # and past 60 s at p^20000 over F_3
    "deep-extension-field": (_ONE_COLUMN.replace("p = 2\n", "p = 3\nh = 2\n") + "f1 = x1 + 1 mod p^4000\n",
                             {"count": (EXIT_OK, "cardinality=1\n"), "bound": (EXIT_OK, _D_NOTE + "1\n")}),
    "deep-odd-prime": (_ONE_COLUMN.replace("p = 2", "p = 3") + "f1 = 2*x1 + 5 mod p^20000\n",
                       {"count": (EXIT_OK, "cardinality=0\n"), "bound": (EXIT_OK, _D_NOTE + "1\n")}),
    # p^e was formed unbounded: e = 10^30 died of MemoryError, e = 10^7 ran past 20 s
    **{name: (_ONE_COLUMN + f"f1 = x1 mod p^{e}\n",
              dict.fromkeys(("count", "bound", "verify"), (EXIT_BUDGET, _DEEP_REFUSED)))
       for name, e in (("huge-modulus", 10 ** 30), ("deep-modulus-past-cap", 10 ** 7))},
    # Python refuses to convert ints of more than 4300 digits to or from text
    # (by default, from 3.10.7 and 3.11 on); each of these exited 1 with a
    # ValueError traceback
    **{f"long-{what}": (_ONE_COLUMN + text.format("1" * 4401) + "\n",
                        dict.fromkeys(("count", "bound"), (EXIT_VALIDATION, f"error.message=line {line}: "
                                                           "integer literal of 4401 digits is too long\n")))
       for what, line, text in (
           ("coefficient", 7, "f1 = {}*x1 mod p^2"), ("exponent", 7, "f1 = x1^{} mod p^2"),
           ("modulus", 7, "f1 = x1 mod p^{}"), ("label", 7, "f{} = x1 mod p^2"),
           ("generator-level", 9, "f1 = x1 mod p^2\n[box]\ng[{}][1] = x[0][1]"),
           ("generator-column", 9, "f1 = x1 mod p^2\n[box]\ng[1][{}] = x[0][1]"))},
    "long-point-count": (_ONE_COLUMN.replace("n = 1", "n = 1000000") + "f1 = x1 mod p^1\n",
                         {"count": _LONG_POINTS, "verify": _LONG_POINTS}),
    "long-problem": (_ONE_COLUMN.replace("n = 1", "n = " + "1" * 4000).replace("m = 1", "m = " + "2" * 4000)
                     + "f1 = x1 mod p^1\n",
                     {"count": _LONG_PRODUCT, "bound": _LONG_PRODUCT}),
    # d = 10^6000 / 2^299 has about 5900 digits
    "long-d": (_ONE_COLUMN + f"f1 = 2^299*(x1^{10 ** 3000})^{10 ** 3000} mod p^300\n",
               _both(EXIT_OK, _BUDGET_NOTE)),
    # integer coefficients grew unbounded: both ran past 16 s
    **{name: (_ONE_COLUMN.replace("n = 1", "n = 2") + f"f1 = {f} mod p^2\n",
              dict.fromkeys(("count", "bound", "verify"), (EXIT_BUDGET, (
                  f"error.message=line 7: expanding `^{e}` could produce more than 4194304 bits of "
                  "coefficients\n"))))
       for name, f, e in (("constant-power", "x1 + 3^100000000", 100000000),
                          ("coefficient-growth", "((407825420567791)^143 + x2)^100", 100))},
    # each level of nesting was a Python call: 250 parentheses or 1000 unary
    # minus signs exited 1 with a RecursionError traceback
    **{f"nested-{what}": (text, dict.fromkeys(("count", "bound", "verify"), (
        EXIT_VALIDATION, f"error.message=line {line}: expression nested too deeply\n")))
       for what, line, text in (
           ("parentheses", 7, _ONE_COLUMN + f"f1 = {'(' * 250}x1{')' * 250} mod p^1\n"),
           ("minus", 7, _ONE_COLUMN + f"f1 = {'-' * 1000}x1 mod p^1\n"),
           ("generator", 9, _ONE_COLUMN + f"f1 = x1 mod p^2\n[box]\ng[1][1] = {'(' * 250}x[0][1]{')' * 250}\n"),
           ("modulus", 4, _ONE_COLUMN.replace("p = 2\n", f"p = 2\nh = 2\nmodulus = {'(' * 250}t^2 + t + 1"
                                              f"{')' * 250}\n") + "f1 = x1 mod p^1\n"))},
    # every term holds a slot per declared variable: x1 + ... + x16000 took
    # 45 s and 2.1 GB
    "wide-sum": (_ONE_COLUMN.replace("n = 1", "n = 16000")
                 + f"f1 = {' + '.join(f'x{i}' for i in range(1, 16001))} mod p^1\n",
                 dict.fromkeys(("count", "bound", "verify"), (
                     EXIT_BUDGET, "error.message=line 7: adding with `+` or `-` could need more than "
                     "16777216 exponent slots (16000 per term)\n"))),
    # a product packed every declared variable, at a cost quadratic in nm:
    # both ran past 120 s
    **{name: (_ONE_COLUMN.replace("n = 1", f"n = {nm // 2}").replace("m = 1", "m = 2")
              + "f1 = x1 mod p^3\n[box]\ng[2][1] = "
              + "*".join(f"x[{i % 2}][{i // 2 + 1}]" for i in range(factors)) + "\n",
              {"bound": (EXIT_OK, f"bound.improved={d}\n"),
               "verify": (EXIT_BUDGET, f"error.message=2^{nm} points exceed")})
       for name, nm, factors, d in (("wide-product", 1 << 17, 30, 4095),
                                    ("widest-product", 1 << 20, 3, 262143))},
    # past the term cap, the variables that occur are counted: in all
    # nm = 2^17 variables, exponent tuples for each of the 60 terms would cost
    # about 1 s
    **{name: (_WIDE_SLOTS.format(body.format(_WIDE_SUM)),
              _both(EXIT_BUDGET, f"error.message=line 9: {what} could produce more than 1024 terms\n"))
       for name, body, what in (("wide-sum-product", "({0})*({0})", "multiplying with `*`"),
                                ("wide-sum-power", "({0})^3", "expanding `^3`"))},
    # the same in 16-bit slots, which were read one Python int at a time
    "wide-slot-product": (_WIDE_SLOTS.format(f"(x[0][1]^200 + {_WIDE_SUM})*(x[0][1]^200 + {_WIDE_SUM})"),
                          _both(EXIT_BUDGET, "error.message=line 9: multiplying with `*` could "
                                "produce more than 1024 terms\n")),
    # the sum moves to 2-, 3-, 4- and 5-byte slots, and the box refuses it
    "widening-sum": (_WIDE_SLOTS.format(f"{_WIDE_SUM} + x[0][1]^256 + x[0][2]^65536 "
                                        "+ x[0][3]^16777216 + x[0][4]^4294967296"),
                     _both(EXIT_VALIDATION, "error.message=generator g[2][1] is not reduced")),
    # accepted `^` and `*` of many-term polynomials near the slot cap: slots
    # wider than a byte were read one Python int at a time, and the first
    # took 20 s
    "wide-system-power": (_ONE_COLUMN.replace("n = 1", "n = 16384") + "f1 = (x1 + 1)^1000 mod p^2\n",
                          {"bound": (EXIT_OK, "bound.improved=7\n")}),
    **{name: (_ONE_COLUMN.replace("p = 2", f"p = {p}").replace("n = 1", "n = 8192").replace("m = 1", "m = 2")
              + f"f1 = x1 mod p^3\n[box]\ng[2][1] = {body}\n", {"bound": (EXIT_OK, line)})
       for name, p, body, line in (
           ("wide-box-power", 101, "(x[0][1] + x[1][2] + 1)^40", "bound.improved=1\n"),
           ("wide-box-product", 2, "*".join(f"(x[0][{j}] + x[1][{j}])" for j in range(1, 11)),
            "bound.improved=1364\n"))},
}


@pytest.mark.parametrize("name,command", [
    pytest.param(name, command, id=f"{name}-{command}")
    for name in sorted(HOSTILE_INPUTS) for command in HOSTILE_INPUTS[name][1]])
def test_hostile_input_fails_fast(tmp_path, name, command):
    # each run gets 10 s and a 1.5 GB address space, capped in the child only
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    text, expected = HOSTILE_INPUTS[name]
    code, line = expected[command]
    path = tmp_path / f"{name}.ini"
    path.write_bytes(text.encode("latin-1"))
    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", command, str(path)],
                          env=env, capture_output=True, text=True, timeout=10,
                          preexec_fn=cap_memory)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code
    assert line in proc.stdout
    if command == "verify" and code == EXIT_OK:
        assert proc.stdout.endswith("status=PASS\n")


def test_oversized_witt_polys_are_refused():
    # the (5, 3, 3) sum ran for minutes; its recursion passes MAX_WITT_PAIRS
    # with a product of 254,051,721 pairs, after 6.4M pairs in all
    import os
    import subprocess
    import sys
    from pathlib import Path

    import wittbox

    env = dict(os.environ, PYTHONPATH=str(Path(wittbox.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "wittbox.cli", "witt-polys", "--p", "5",
                           "--n", "3", "--r", "3"],
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ("error.kind=budget\nerror.message=the Witt recursion needs a "
                           "product of more than 33554432 term pairs\n")


def test_largest_two_fold_witt_polys_are_not_refused(capsys):
    # the (5, 3, 2) sum peaks at 134 * 15118 term pairs, below MAX_WITT_PAIRS;
    # its 1.35 MB of stdout is pinned by digest
    import hashlib

    code, out = run(capsys, "witt-polys", "--p", "5", "--n", "3")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b4640025a65146be9da21216817f1c86c475dde071b01b68fc01e04c56c0cc4a")
