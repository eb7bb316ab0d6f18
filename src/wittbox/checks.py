"""Self-test suites: structural identities checked at desk scale.

Each suite returns a list of (check-name, ok) pairs.  The CLI `selftest`
command runs them all; the test suite asserts on the same functions.
"""

from __future__ import annotations

import random
from itertools import product

from .box import box_enumerate, box_from_table, box_make, box_variable_names, teichmuller_box
from .counting import make_instance, count_zeros, system_variable_names
from .fixtures import EXAMPLE_41
from .fqfield import GRParams, field_params, fq_enumerate, gr_enumerate, gr_zero
from .galois import from_digits, to_digits, witt_digit_op
from .instancefile import parse_instance
from .poly import FieldDomain, MultiPoly, ZZ
from .witt import (
    PRODUCT,
    SUM,
    ghost_check,
    ghost_identity_holds,
    twisted_digit_polys,
    witt_op_polys,
    witt_var,
    witt_variable_names,
)


def ghost_suite():
    max_k = 3
    results = []
    for p in (2, 3):
        for r in (2, 3):
            for kind in (SUM, PRODUCT):
                ok = ghost_check(p, max_k, r, kind)
                results.append((f"ghost p={p} r={r} kind={kind} k<={max_k}", ok))
    # negative control: a mutated first coordinate must break the identity
    p = 2
    polys = list(witt_op_polys(p, 1, 2, SUM))
    names = witt_variable_names(1, 2)
    polys[1] = polys[1] + MultiPoly.constant(ZZ, names, 1)
    results.append((
        "ghost negative control (mutated S_1 fails)",
        not ghost_identity_holds(p, 1, 2, SUM, polys),
    ))
    return results


def homogeneity_suite():
    max_n = 2
    results = []
    for p in (2, 3):
        for r in (2, 3):
            unit_weights = {
                witt_var(r, i, j): p ** i
                for i in range(max_n + 1)
                for j in range(1, r + 1)
            }
            for kind, factor in ((SUM, 1), (PRODUCT, r)):
                polys = witt_op_polys(p, max_n, r, kind)
                twisted = twisted_digit_polys(p, max_n, r, kind)
                for nn, (poly, tw) in enumerate(zip(polys, twisted)):
                    degs = poly.weighted_degrees(unit_weights)
                    results.append((
                        f"weighted homogeneity p={p} r={r} kind={kind} n={nn}",
                        degs == {factor * p ** nn},
                    ))
                    tdegs = {sum(e) for e in tw.tuple_terms()}
                    results.append((
                        f"twisted total homogeneity p={p} r={r} kind={kind} n={nn}",
                        tdegs == {factor * p ** nn},
                    ))
    return results


def degree_bound_suite():
    """Weighted degree ceilings with weights d_j * p^i, d_j in {1, 2}."""
    max_n = 2
    results = []
    for p in (2, 3):
        for r in (2, 3):
            for d_choice in product((1, 2), repeat=r):
                weights = {
                    witt_var(r, i, j): d_choice[j - 1] * p ** i
                    for i in range(max_n + 1)
                    for j in range(1, r + 1)
                }
                for kind, limit_factor in (
                    (SUM, max(d_choice)),
                    (PRODUCT, sum(d_choice)),
                ):
                    polys = witt_op_polys(p, max_n, r, kind)
                    ok = all(
                        poly.weighted_degree(weights) <= limit_factor * p ** nn
                        for nn, poly in enumerate(polys)
                    )
                    label = "".join(str(d) for d in d_choice)
                    results.append((
                        f"degree bound p={p} r={r} kind={kind} d={label}",
                        ok,
                    ))
    return results


def _crosscheck_cases():
    yield "GR(4,1)", GRParams(field_params(2), 2)
    yield "GR(8,1)", GRParams(field_params(2), 3)
    yield "GR(9,1)", GRParams(field_params(3), 2)
    yield "GR(4,2)", GRParams(field_params(2, 2), 2)


def crosscheck_suite():
    results = []
    for label, params in _crosscheck_cases():
        elems = gr_enumerate(params)
        digit_table = {e: to_digits(e) for e in elems}
        ok = True
        for a in elems:
            da = digit_table[a]
            for b in elems:
                db = digit_table[b]
                for kind, direct in ((SUM, a + b), (PRODUCT, a * b)):
                    via_witt = from_digits(witt_digit_op(da, db, kind, params), params)
                    if via_witt != direct:
                        ok = False
        results.append((f"digit/direct arithmetic agreement {label}", ok))
    return results


def vanishing_suite():
    """Three-way equivalence: sum == 0 mod p^m, digits of the sum vanish, and
    the twisted digit polynomials vanish, over all digit tuples (q = 2, m <= 3,
    r <= 3)."""
    field = field_params(2)
    dom = FieldDomain(field)
    elems = fq_enumerate(field)
    results = []
    for m in range(1, 4):
        params = GRParams(field, m)
        for r in range(2, 4):
            polys = twisted_digit_polys(2, m - 1, r, SUM)
            ok = True
            for tup in product(elems, repeat=m * r):
                # tup is indexed i-major: entry (i, j) at position i*r + (j-1)
                assignment = {
                    witt_var(r, i, j): tup[i * r + (j - 1)]
                    for i in range(m)
                    for j in range(1, r + 1)
                }
                total = gr_zero(params)
                for j in range(1, r + 1):
                    digits = tuple(tup[i * r + (j - 1)] for i in range(m))
                    total = total + from_digits(digits, params)
                sum_vanishes = total.is_zero()
                digits_vanish = all(d.is_zero() for d in to_digits(total))
                polys_vanish = all(
                    poly.evaluate(assignment, coerce=dom.coerce).is_zero()
                    for poly in polys
                )
                if not (sum_vanishes == digits_vanish == polys_vanish):
                    ok = False
            results.append((f"vanishing equivalence q=2 m={m} r={r}", ok))
    return results


def _random_reduced_poly(rng, dom, names, q, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(q) for _ in names)
        coeff = rng.randrange(1, q)
        terms[exps] = coeff
    return MultiPoly(dom, names, terms)


def stacking_suite():
    """|V| over a random box equals q^{n(m - m_s)} times the Teichmuller-box
    count at precision m_s, for any generators (q = 2)."""
    cases = 50
    rng = random.Random(20240501)
    field = field_params(2)
    dom = FieldDomain(field)
    ok = True
    for _ in range(cases):
        n = rng.randrange(1, 4)
        m = rng.randrange(2, 4)
        m_s = rng.randrange(1, m)
        names = box_variable_names(n, m)
        generators = {}
        for i in range(m, m + rng.randrange(0, 3)):
            for j in range(1, n + 1):
                if rng.random() < 0.5:
                    generators[(i, j)] = _random_reduced_poly(rng, dom, names, 2)
        box = box_make(field, n, m, generators)
        sys_names = system_variable_names(n)
        system = []
        for _ in range(rng.randrange(1, 3)):
            f = MultiPoly.zero(ZZ, sys_names)
            while f.total_degree() < 1:
                terms = {}
                for _ in range(rng.randrange(1, 4)):
                    exps = tuple(rng.randrange(3) for _ in sys_names)
                    terms[exps] = rng.randrange(-4, 5)
                f = MultiPoly(ZZ, sys_names, terms)
            system.append((f, rng.randrange(1, m_s + 1)))
        inst = make_instance(box, system)
        small = make_instance(teichmuller_box(field, n, m_s), system)
        left = count_zeros(inst).cardinality
        right = field.q ** (n * (m - m_s)) * count_zeros(small).cardinality
        if left != right:
            ok = False
    return [(f"stacking law over {cases} random cases", ok)]


def roundtrip_suite():
    """box_from_table(box_enumerate(spec)) recovers the canonical generators."""
    results = []
    field = field_params(2)
    dom = FieldDomain(field)

    specs = []
    specs.append(("teichmuller n=2 m=2", teichmuller_box(field, 2, 2), 3))
    names = box_variable_names(2, 2)
    g = MultiPoly.variable(dom, names, "x[0][1]") * MultiPoly.variable(dom, names, "x[1][2]")
    specs.append(("small custom box", box_make(field, 2, 2, {(2, 1): g}), 3))
    inst41 = parse_instance(EXAMPLE_41)
    specs.append(("example 4.1 box", inst41.box, 3))

    for label, spec, precision in specs:
        table = [
            (pt.base, pt.digits) for pt in box_enumerate(spec, precision)
        ]
        recovered = box_from_table(field, spec.n, spec.m, precision, table)
        results.append((f"box round trip {label}", recovered.generators == spec.generators))
    return results


ALL_SUITES = (
    ("ghost", ghost_suite),
    ("homogeneity", homogeneity_suite),
    ("degree-bounds", degree_bound_suite),
    ("cross-check", crosscheck_suite),
    ("vanishing-equivalence", vanishing_suite),
    ("stacking", stacking_suite),
    ("round-trip", roundtrip_suite),
)


def run_all():
    out = []
    for name, suite in ALL_SUITES:
        out.extend(suite())
    return out
