"""Exact variational multivector calculus with odd covector fibers.

Densities are differential polynomials in base variables x^i, even fiber
jets q^alpha_sigma, odd covector jets b_{alpha,sigma}, and even covector
slot jets p^j; functionals are densities modulo total divergences.  The
Schouten bracket is available three ways (odd Poisson density formula,
evolutionary-field action, insertion recursion) and the selftest batteries
certify that they agree.
"""

from .algebra import (
    BKIND,
    LEFT,
    PKIND,
    QKIND,
    RIGHT,
    DiffPolynomial,
    DomainError,
    EngineError,
    Geometry,
    GeometryMismatch,
    JetVariable,
    MultiIndex,
    bvar,
    midx,
    monomial,
    pvar,
    qvar,
)
from .batteries import (
    BatteryReport,
    FailureRecord,
    battery_commutator,
    battery_definitions_agree,
    battery_golden_examples,
    battery_jacobi,
    battery_remarks,
    run_all,
)
from .multivector import (
    Multivector,
    decompose,
    evaluate,
    evaluate_by_insertion,
    extract_operator,
    from_slots,
    insert,
    iota,
    multivector,
)
from .parser import ParseError, parse_polynomial
from .printing import format_polynomial
from .randgen import GeneratorConfig, random_density, random_exact, random_multivector
from .schouten import (
    BracketReport,
    EvolutionaryField,
    bracket_base_case,
    bracket_poisson,
    bracket_recursive,
    bracket_via_q,
    evolutionary_field,
    graded_commutator,
    is_poisson,
    jacobi_defect,
    q_differential_check,
    q_field,
    schouten_density,
)
from .session import Session, load_session
from .variational import (
    Functional,
    equivalent,
    is_exact,
    normalize_to_bA_form,
    var_b,
    var_derivative,
    var_p,
    var_q,
)

__version__ = "0.1.0"
