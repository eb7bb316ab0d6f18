import pytest

from wittbox.errors import ParseError, ValidationError
from wittbox.fqfield import field_params, fq
from wittbox.instancefile import parse_instance, parse_poly
from wittbox.poly import FieldDomain, MultiPoly, ZZ

MINIMAL = """\
[ring]
p = 2

[problem]
n = 2
m = 1

[system]
f1 = x1 + x2 mod p^1
"""


def test_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.field.p == 2 and inst.field.h == 1
    assert inst.box.n == 2 and inst.box.m == 1
    assert inst.box.generators == {}  # no [box] section: Teichmuller box
    assert inst.moduli == (1,)
    assert inst.system[0][0].render() == "x1 + x2"


def test_comments_and_spacing():
    text = MINIMAL.replace("p = 2", "p = 2   # the prime") + "\n# trailing comment\n"
    inst = parse_instance(text)
    assert inst.field.p == 2


def test_expression_grammar():
    f = parse_poly("(x1 - 2)^2 * x2 + -3", ZZ, ("x1", "x2"))
    assert f.evaluate({"x1": 5, "x2": 1}) == 6
    f = parse_poly("2*x1^3 - x2", ZZ, ("x1", "x2"))
    assert f.tuple_terms() == {(3, 0): 2, (0, 1): -1}
    with pytest.raises(ParseError):
        parse_poly("x1 +", ZZ, ("x1",))
    with pytest.raises(ParseError):
        parse_poly("x9", ZZ, ("x1",))
    with pytest.raises(ParseError):
        parse_poly("x1 ^ x1", ZZ, ("x1",))
    with pytest.raises(ParseError):
        parse_poly("(x1", ZZ, ("x1",))
    with pytest.raises(ParseError):
        parse_poly("x1 @ 2", ZZ, ("x1",))


def test_t_requires_field_context():
    with pytest.raises(ParseError):
        parse_poly("t + 1", ZZ, ("x1",))
    f4 = field_params(2, 2)
    dom = FieldDomain(f4)
    g = parse_poly("t*x[0][1] + 1", dom, ("x[0][1]",))
    assert g.tuple_terms() == {(1,): fq(f4, [0, 1]), (0,): fq(f4, 1)}


def test_box_section():
    text = MINIMAL.replace("m = 1", "m = 1") + "\n[box]\ng[1][1] = x[0][1]*x[0][2]\n"
    inst = parse_instance(text)
    g = inst.box.generators[(1, 1)]
    assert g.render() == "x[0][1]*x[0][2]"
    # duplicate generator lines are rejected
    bad = text + "g[1][1] = x[0][1]\n"
    with pytest.raises(ParseError):
        parse_instance(bad)


def test_custom_modulus():
    text = """\
[ring]
p = 3
h = 2
modulus = t^2 + 1

[problem]
n = 1
m = 1

[system]
f1 = x1 mod p^1
"""
    inst = parse_instance(text)
    assert inst.field.q == 9
    assert inst.field.modulus == (1, 0, 1)
    # reducible modulus must be rejected by field validation
    with pytest.raises(ValidationError):
        parse_instance(text.replace("t^2 + 1", "t^2 + 2*t + 1"))
    # one of higher degree is refused as before, without a list as long as its degree
    for modulus in ("t^3 + 1", "t^100000000000 + t^2 + 1"):
        with pytest.raises(ValidationError, match="^modulus must be monic of degree exactly h$"):
            parse_instance(text.replace("t^2 + 1", modulus))


def test_error_line_numbers():
    bad = MINIMAL.replace("f1 = x1 + x2 mod p^1", "f1 = x1 + x2")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "line 9" in str(err.value)
    assert err.value.line == 9


def test_structural_errors():
    with pytest.raises(ParseError):
        parse_instance("")  # no sections at all
    with pytest.raises(ParseError):
        parse_instance("p = 2\n")  # content before a section
    with pytest.raises(ParseError):
        parse_instance(MINIMAL + "\n[extras]\nz = 1\n")
    with pytest.raises(ParseError):
        parse_instance(MINIMAL + "\n[ring]\np = 3\n")  # duplicate section
    with pytest.raises(ParseError):
        parse_instance(MINIMAL.replace("n = 2", "n = two"))
    with pytest.raises(ParseError):
        parse_instance(MINIMAL.replace("[system]\nf1 = x1 + x2 mod p^1", "[system]"))


def test_generator_validation_through_parser():
    # generator index below m is a validation error surfaced from box_make
    text = MINIMAL + "\n[box]\ng[0][1] = x[0][2]\n"
    with pytest.raises(ValidationError):
        parse_instance(text)


def test_duplicate_keys_and_labels():
    # a repeated key is an error, not last-wins (h = 3 would count over F_8)
    with pytest.raises(ParseError) as err:
        parse_instance(MINIMAL.replace("p = 2", "p = 2\nh = 1\nh = 3"))
    assert "duplicate key 'h' in [ring]" in str(err.value) and err.value.line == 4
    with pytest.raises(ParseError):
        parse_instance(MINIMAL.replace("m = 1", "m = 1\nn = 3"))
    # a repeated f<k> label is an error, not a second polynomial
    with pytest.raises(ParseError) as err:
        parse_instance(MINIMAL + "f1 = x1 mod p^1\n")
    assert "duplicate polynomial f1" in str(err.value)
    assert len(parse_instance(MINIMAL + "f2 = x1 mod p^1\n").system) == 2



def test_power_term_bound_is_an_upper_bound_and_refuses_early():
    from wittbox.errors import BudgetError
    from wittbox.instancefile import MAX_POWER_TERMS, _terms_bound

    names = ("x1", "x2", "x3")
    for text, e in (("x1 + x2 + 1", 7), ("x1*x2 + x3^2", 5), ("x1 - x1", 3),
                    ("2", 0), ("x1^3 + x2", 9), ("x1 + x2 + x3 + 1", 6)):
        f = parse_poly(text, ZZ, names)
        assert len((f ** e).terms) <= _terms_bound([(f, e)])
    assert _terms_bound([(parse_poly("x1", ZZ, names), 2 ** 40)]) == 1
    # the degree bound C(36, 2) = 630 admits what the term bound C(20, 3) = 1140 would not
    assert len(parse_poly("(x1 + x2 + x1*x2 + 1)^17", ZZ, names).terms) == 18 * 18
    with pytest.raises(BudgetError, match="line 9: "):
        parse_poly("(x1 + x2 + 1)^44", ZZ, names, line=9)  # C(46, 2) = 1035 terms
    assert len(parse_poly("(x1 + x2 + 1)^43", ZZ, names).terms) == 990 <= MAX_POWER_TERMS


def test_product_term_bound_is_an_upper_bound_and_refuses_early():
    from wittbox.errors import BudgetError
    from wittbox.instancefile import MAX_POWER_TERMS, _terms_bound

    names = ("x1", "x2", "x3")
    for left, right in (("x1 + x2 + 1", "x1 - x2"), ("x1*x2 + x3^2", "x3 + 1"), ("0", "x1"),
                        ("2", "3"), ("(x1 + x2 + x3 + 1)^4", "(x1 + x2 + 1)^5")):
        f, g = parse_poly(left, ZZ, names), parse_poly(right, ZZ, names)
        assert len((f * g).terms) <= _terms_bound([(f, 1), (g, 1)])
    # 220 * 220 term products, but at most C(3 + 18, 3) = 1330 monomials: refused
    with pytest.raises(BudgetError, match="line 4: multiplying"):
        parse_poly("(x1 + x2 + x3 + 1)^9 * (x1 + x2 + x3 + 1)^9", ZZ, names, line=4)
    # at most C(2 + 62, 2) = 2016 monomials, but only 32 * 32 term products: accepted
    f = parse_poly("(x1 + 1)^31 * (x2 + 1)^31", ZZ, names)
    assert len(f.terms) == 32 * 32 == MAX_POWER_TERMS
    with pytest.raises(BudgetError):
        parse_poly("(x1 + 1)^31 * (x2 + 1)^32", ZZ, names)  # 32 * 33 terms
    # a zero factor makes a zero product, however many terms the other has
    assert parse_poly(f"0 * ({' + '.join(f'x1^{k}' for k in range(1, 1101))})", ZZ, names).is_zero()


def test_product_term_bound_counts_only_the_variables_that_occur():
    import math

    from wittbox.instancefile import _terms_bound

    # 4 of 40 declared variables occur; the exponent tuples are the oracle
    names = tuple(f"x{j}" for j in range(1, 41))
    f, g = parse_poly("(x1 + x3 + x17 + 1)^9", ZZ, names), parse_poly("(x17 + x40 + 1)^9", ZZ, names)
    columns = zip(*(exps for h in (f, g) for exps in h.tuple_terms()))
    v = sum(1 for column in columns if any(column))
    assert v == 4 and len(f.terms) * len(g.terms) == 220 * 55
    assert _terms_bound([(f, 1), (g, 1)]) == math.comb(v + 18, v) == 7315
    assert _terms_bound([(f, 2)]) == math.comb(3 + 18, 3)


def test_sparse_expressions_match_the_full_context():
    # parsed in the 3 variables that occur and moved to all 40 at the end;
    # the same sums and products built in all 40 variables are the oracle
    names = tuple(f"x{j}" for j in range(1, 41))
    x3, x17, x40 = (MultiPoly.variable(ZZ, names, v) for v in ("x3", "x17", "x40"))
    f = parse_poly("(x3^200 + x17)*(x3^100 - x40^70000) + 2", ZZ, names)
    assert f.variables == names and f.width == 24
    assert f == (x3 ** 200 + x17) * (x3 ** 100 - x40 ** 70000) + 2


def test_oversized_problem_is_refused_before_names_are_built():
    from wittbox.errors import BudgetError
    from wittbox.instancefile import MAX_DIGIT_VARIABLES

    assert MAX_DIGIT_VARIABLES == 2 ** 20
    for n, m, line in ((2 ** 20 + 1, 1, 5), (1, 2 ** 20 + 1, 6), (17, 61681, 6),
                       (99999999999999999999, 1, 5)):
        text = MINIMAL.replace("n = 2", f"n = {n}").replace("m = 1", f"m = {m}")
        with pytest.raises(BudgetError, match=f"^line {line}: n\\*m = {n * m} digit variables"):
            parse_instance(text)


def test_deep_modulus_is_refused_before_p_to_the_e():
    from wittbox.errors import BudgetError
    from wittbox.instancefile import MAX_MODULUS_EXPONENT

    assert MAX_MODULUS_EXPONENT == 2 ** 18
    at_cap = parse_instance(MINIMAL.replace("p^1", f"p^{2 ** 18}"))
    assert at_cap.moduli == (2 ** 18,)
    for e in (2 ** 18 + 1, 10 ** 7, 10 ** 30):
        with pytest.raises(BudgetError, match="^line 9: a modulus exponent above 262144"):
            parse_instance(MINIMAL.replace("p^1", f"p^{e}"))


def test_coefficient_bits_are_capped_before_a_product_over_z():
    from wittbox.errors import BudgetError
    from wittbox.instancefile import MAX_COEFFICIENT_BITS

    assert MAX_COEFFICIENT_BITS == 2 ** 22
    names = ("x1", "x2")
    # terms times the sum of e * ceil(log2 |f|_1) over the factors f^e
    cap = 2 ** 22
    assert list(parse_poly(f"2^{cap}", ZZ, names).terms.values()) == [2 ** cap]
    assert list(parse_poly(f"2 * 2^{cap - 1}", ZZ, names).terms.values()) == [2 ** cap]
    assert len(parse_poly("(x1 + 3)^1000", ZZ, names).terms) == 1001  # 2,002,000 bits
    # a monomial of coefficient +-1 costs none, whatever its exponent
    assert parse_poly(f"(-x1*x2)^{2 ** 40}", ZZ, names).total_degree() == 2 ** 41
    for what, text in ((f"expanding `^{cap + 1}`", f"x1 + 2^{cap + 1}"),
                       ("multiplying with `*`", f"3 * 2^{cap - 1}"),
                       ("expanding `^100`", "((407825420567791)^143 + x2)^100")):
        with pytest.raises(BudgetError) as err:
            parse_poly(text, ZZ, names, line=3)
        assert str(err.value) == f"line 3: {what} could produce more than {cap} bits of coefficients"


def test_exponent_slots_are_capped_before_a_polynomial_is_built():
    from wittbox.errors import BudgetError
    from wittbox.instancefile import MAX_EXPONENT_SLOTS

    assert MAX_EXPONENT_SLOTS == 2 ** 24
    names = tuple(f"x{i}" for i in range(1, 2 ** 17 + 1))  # 128 terms fill the cap
    assert len(parse_poly("(x1 + 1)^7 * x2", ZZ, names).terms) == 8
    for what, text in (("expanding `^128`", "(x1 + 1)^128"),
                       ("multiplying with `*`", "(x1 + 1)^64 * (x2 + 1)"),
                       ("adding with `+` or `-`", " + ".join(f"x{i}" for i in range(1, 130)))):
        with pytest.raises(BudgetError) as err:
            parse_poly(text, ZZ, names, line=3)
        assert str(err.value) == (f"line 3: {what} could need more than 16777216 exponent slots "
                                  "(131072 per term)")
