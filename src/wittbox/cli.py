"""Command-line interface.

Reports are plain `key=value` lines, bit-identical across runs and across
partition configurations.  Exit codes: 0 success, 1 assertion failure,
2 parse/validation error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .bounds import DEFAULT_READING, READING_ALL, READING_ANY, bound_report
from .box import closeness_check
from .counting import DEFAULT_BUDGET, count_zeros
from .errors import BudgetError, WittboxError
from .fixtures import PAPER_EXAMPLES
from .instancefile import parse_instance
from .witt import PRODUCT, SUM, witt_op_polys

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _read_instance(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _emit_count(report):
    print(f"cardinality={report.cardinality}")
    if report.cardinality == 0:
        print("ord_p=inf")
        print("ord_q=inf")
    else:
        print(f"ord_p={report.ord_p}")
        print(f"ord_q={report.ord_p}/{report.h}")


def _emit_bounds(report):
    for entry in report.entries:
        if entry.applicable:
            print(f"bound.{entry.name}={entry.value}")
        print(f"applicable.{entry.name}={'true' if entry.applicable else 'false'}")
        if entry.notes:
            print(f"note.{entry.name}={entry.notes}")


def cmd_witt_polys(args):
    letter = "S" if args.kind == SUM else "M"
    polys = witt_op_polys(args.p, args.n, args.r, args.kind)
    for k, poly in enumerate(polys):
        print(f"{letter}{k} = {poly.render()}")
    return EXIT_OK


def cmd_count(args):
    inst = _read_instance(args.instance)
    report = count_zeros(inst, budget=args.budget, partitions=args.partitions)
    _emit_count(report)
    return EXIT_OK


def cmd_bound(args):
    inst = _read_instance(args.instance)
    _emit_bounds(bound_report(inst, reading=args.reading))
    return EXIT_OK


def cmd_verify(args):
    inst = _read_instance(args.instance)
    count = count_zeros(inst, budget=args.budget, partitions=args.partitions)
    report = bound_report(inst, count=count, reading=args.reading)
    _emit_count(count)
    _emit_bounds(report)
    for entry in report.entries:
        verdict = entry.verdict(count)
        if verdict is not None:
            print(f"verdict.{entry.name}={verdict}")
    print(f"status={report.status}")
    return EXIT_OK if report.status in ("PASS", "VACUOUS") else EXIT_ASSERTION


def cmd_paper_examples(args):
    failed = False
    for name, text, cardinality, ord_expected, close_expected in PAPER_EXAMPLES:
        inst = parse_instance(text)
        count = count_zeros(inst)
        close, _ = closeness_check(inst.box, max(inst.moduli))
        print(f"{name}.cardinality={count.cardinality}")
        print(f"{name}.ord_p={count.ord_p}")
        print(f"{name}.closeness={'true' if close else 'false'}")
        if (count.cardinality != cardinality or close != close_expected
                or (ord_expected is not None and count.ord_p != ord_expected)):
            failed = True
            print(f"{name}.status=FAIL")
        else:
            print(f"{name}.status=PASS")
    return EXIT_ASSERTION if failed else EXIT_OK


def cmd_selftest(args):
    # Imported here: the self-test suites are only needed by this command,
    # and importing them would slow the start of every other one.
    from . import checks

    failed = False
    for name, ok in checks.run_all():
        slug = name.replace(" ", "-").replace("=", "").replace("(", "").replace(")", "").replace(",", ".").replace("/", "-")
        print(f"selftest.{slug}={'ok' if ok else 'FAIL'}")
        if not ok:
            failed = True
    return EXIT_ASSERTION if failed else EXIT_OK


@cache
def build_parser():
    """The argument parser, built on first use and reused for every later call."""
    parser = argparse.ArgumentParser(
        prog="wittbox",
        description="Truncated Witt-ring arithmetic, box enumeration, exact "
                    "zero counting, and p-divisibility bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    wp = sub.add_parser("witt-polys", help="emit S/M coordinate polynomials")
    wp.add_argument("--p", type=int, required=True)
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("--r", type=int, default=2)
    wp.add_argument("--kind", choices=(SUM, PRODUCT), default=SUM)
    wp.set_defaults(func=cmd_witt_polys)

    def add_count_args(cmd):
        cmd.add_argument("instance", help="instance file path")
        cmd.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        cmd.add_argument("--partitions", type=int, default=1)

    cnt = sub.add_parser("count", help="exhaustively count zeros in the box")
    add_count_args(cnt)
    cnt.set_defaults(func=cmd_count)

    bnd = sub.add_parser("bound", help="evaluate the divisibility bounds")
    bnd.add_argument("instance", help="instance file path")
    bnd.add_argument("--reading", choices=(READING_ALL, READING_ANY),
                     default=DEFAULT_READING)
    bnd.set_defaults(func=cmd_bound)

    ver = sub.add_parser("verify", help="count, bound, and compare")
    add_count_args(ver)
    ver.add_argument("--reading", choices=(READING_ALL, READING_ANY),
                     default=DEFAULT_READING)
    ver.set_defaults(func=cmd_verify)

    pe = sub.add_parser("paper-examples", help="replay the bundled fixtures")
    pe.set_defaults(func=cmd_paper_examples)

    st = sub.add_parser("selftest", help="run the structural self-test suites")
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error.kind={exc.kind}")
        print(f"error.message={exc}")
        return EXIT_BUDGET
    except WittboxError as exc:
        print(f"error.kind={exc.kind}")
        print(f"error.message={exc}")
        return EXIT_VALIDATION
    except (OSError, UnicodeDecodeError) as exc:
        print("error.kind=io")
        print(f"error.message={exc}")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
