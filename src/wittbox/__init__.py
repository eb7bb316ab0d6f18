"""Exact arithmetic in truncated Witt rings and Galois rings, Teichmuller
boxes, exact zero counting over Z_q^n, and p-divisibility bounds."""

from .bounds import (
    BoundReport,
    ax_katz_bound,
    bound_report,
    ceil_star,
    general_bound,
    kmr_bound,
    minimal_d,
    stacked_bound,
)
from .box import (
    BoxPoint,
    BoxSpec,
    box_enumerate,
    box_from_table,
    box_make,
    closeness_check,
    teichmuller_box,
)
from .counting import CountReport, ProblemInstance, count_zeros, make_instance
from .errors import (
    BudgetError,
    ConfigError,
    ExactDivisionError,
    ParseError,
    ValidationError,
    WittboxError,
)
from .fqfield import FieldParams, GRElem, GRParams, field_params, fq, fq_enumerate
from .galois import (
    from_digits,
    int_to_gr,
    teichmuller_lift,
    to_digits,
    witt_digit_op,
)
from .instancefile import parse_instance, parse_poly
from .poly import FieldDomain, IntegerDomain, MultiPoly, ZZ
from .witt import (
    PRODUCT,
    SUM,
    ghost_check,
    twisted_digit_polys,
    witt_op_polys,
)

__version__ = "0.1.0"
