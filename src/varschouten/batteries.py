"""Verification batteries: seeded random certification of every identity.

Each battery returns a BatteryReport whose summary_line is the machine
format printed by the selftest subcommand: `name cases failures seed`.
A failure record carries the case index, the config seed, and the printed
inputs, which together replay the case exactly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .algebra import QKIND, DiffPolynomial, _gradient, bvar, monomial, pvar, qvar
from .multivector import Multivector, evaluate, iota, multivector
from .printing import format_polynomial
from .randgen import GeneratorConfig, random_density, random_multivector
from .schouten import (
    EvolutionaryField,
    bracket_poisson,
    bracket_recursive,
    bracket_via_q,
    graded_commutator,
    is_poisson,
    jacobi_defect,
    q_field,
    schouten_density,
)
from .variational import Functional, _euler_fibers, equivalent, is_exact


@dataclass(frozen=True)
class FailureRecord:
    battery: str
    case: int
    seed: int
    inputs: tuple[str, ...]
    detail: str


@dataclass(frozen=True)
class BatteryReport:
    name: str
    cases: int
    failures: tuple[FailureRecord, ...]
    seed: int
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        return f"{self.name} {self.cases} {len(self.failures)} {self.seed}"


def _run(name: str, cfg: GeneratorConfig, cases: int, check) -> BatteryReport:
    """Time check(case) for every case; it returns (input polynomials, failure detail or None)."""
    start = time.perf_counter()
    failures = []
    for case in range(cases):
        inputs, detail = check(case)
        if detail is not None:
            printed = tuple(format_polynomial(p) for p in inputs)
            failures.append(FailureRecord(name, case, cfg.seed, printed, detail))
    return BatteryReport(name, cases, tuple(failures), cfg.seed, time.perf_counter() - start)


# degree pairs cycled by the pairwise batteries; every recursion depth
# k+l-1 <= 4 and every sign path k,l <= 3 appears
_DEGREE_PAIRS = [
    (1, 1), (0, 2), (1, 2), (2, 2), (0, 1), (2, 1),
    (1, 3), (0, 3), (3, 1), (2, 3), (3, 2),
]

_DEGREE_TRIPLES = [
    (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (1, 2, 2),
    (2, 2, 1), (2, 1, 2), (1, 1, 3), (3, 1, 1), (1, 3, 1),
]


def _admissible_pairs(cfg: GeneratorConfig):
    return [
        (k, l)
        for k, l in _DEGREE_PAIRS
        if k <= cfg.max_degree and l <= cfg.max_degree and k + l - 1 <= cfg.geometry.s
    ]


def _definitions_disagree(xi: Multivector, eta: Multivector) -> str | None:
    """Why the three bracket routes disagree on (xi, eta), or None when they agree."""
    a = bracket_poisson(xi, eta)
    b = bracket_via_q(xi, eta)
    if not equivalent(a.representative, b.representative):
        return "density formula and field route disagree"
    r = bracket_recursive(xi, eta)
    if not a.zero == b.zero == r.zero:
        return "zero-class verdicts disagree"
    if not equivalent(a.representative, r.representative):
        return "recursion's rebuilt bracket disagrees with the density formula"
    inserted = a.representative.density
    for slot in reversed(r.slots):
        inserted = iota(inserted, slot)
    if not equivalent(inserted, r.inserted.density):
        return "recursion disagrees with inserted density formula"
    return None


def battery_definitions_agree(cfg: GeneratorConfig, cases: int = 50) -> BatteryReport:
    """Density formula vs evolutionary field vs fully inserted recursion: the
    three representatives, the three zero verdicts and the inserted values."""
    pairs = _admissible_pairs(cfg)

    def check(case):
        k, l = pairs[case % len(pairs)]
        xi = random_multivector(cfg, k, salt=f"defs:{case}:xi")
        eta = random_multivector(cfg, l, salt=f"defs:{case}:eta")
        return (xi.density, eta.density), _definitions_disagree(xi, eta)

    return _run("definitions-agree", cfg, cases, check)


def battery_jacobi(cfg: GeneratorConfig, cases: int = 50) -> BatteryReport:
    triples = [t for t in _DEGREE_TRIPLES if max(t) <= cfg.max_degree and sum(t) <= 5]

    def check(case):
        r, s, t = triples[case % len(triples)]
        xi = random_multivector(cfg, r, salt=f"jac:{case}:xi")
        eta = random_multivector(cfg, s, salt=f"jac:{case}:eta")
        zeta = random_multivector(cfg, t, salt=f"jac:{case}:zeta")
        if jacobi_defect(xi, eta, zeta).is_zero:
            return (), None
        return (xi.density, eta.density, zeta.density), "graded Jacobi defect has a nonzero class"

    return _run("jacobi", cfg, cases, check)


def _bracket_field(xi: Multivector, eta: Multivector) -> EvolutionaryField:
    """Q of the bracket, built from any representative; sections are
    variational derivatives, so the choice of representative drops out."""
    d = schouten_density(xi.density, eta.density)
    return q_field(Multivector(Functional(d), xi.degree + eta.degree - 1))


def battery_commutator(cfg: GeneratorConfig, cases: int = 50) -> BatteryReport:
    """int Q^[[xi,eta]](f) agrees with int [Q^xi, Q^eta](f) on random probes."""
    pairs = _admissible_pairs(cfg)

    def check(case):
        k, l = pairs[case % len(pairs)]
        xi = random_multivector(cfg, k, salt=f"comm:{case}:xi")
        eta = random_multivector(cfg, l, salt=f"comm:{case}:eta")
        probe = random_density(cfg, case % 3, random.Random(f"{cfg.seed}:comm:{case}:probe"))
        lhs = _bracket_field(xi, eta).apply(probe)
        rhs = graded_commutator(q_field(xi), q_field(eta), probe)
        if equivalent(lhs, rhs):
            return (), None
        return (xi.density, eta.density, probe), "bracket field disagrees with the field commutator"

    return _run("commutator", cfg, cases, check)


def _remark1_holds(h: Multivector, xi: Multivector) -> bool:
    """[[H, xi]](p) is 2 xi(delta H, p) as classes, for a 0-vector H, 2-vector xi."""
    g = h.geometry
    lhs = iota(bracket_poisson(h, xi).representative.density, 1)
    delta_h = _euler_fibers(_gradient(h.density.terms), g, QKIND)
    rhs = evaluate(xi, (2, 1)).density.substitute_slot(2, delta_h)
    return equivalent(lhs, rhs.scaled(2))


def _remark2_identity_holds(g) -> bool:
    """Recursion step for the 1-vectors <b,q> and <b,q_x>, with the inserted
    slot replaced by the genuine jet w = q_x in fiber 1 (0 in any other).  The
    slot symbol is not an actual covector: substituting early produces the
    unwanted directional derivative through w, so this identity must break
    (left side is the exact q_x^2 + q*q_xx, right side the nonzero class
    2*q*q_xx)."""
    xi = monomial(g, 1, even=[qvar(1)], odd=[bvar(1)])
    eta = monomial(g, 1, even=[qvar(1, 1)], odd=[bvar(1)])
    w = (monomial(g, 1, even=[qvar(1, 1)]),) + (DiffPolynomial.zero(g),) * (g.m - 1)
    lhs = iota(schouten_density(xi, eta), 1).substitute_slot(1, w)
    xi_w = iota(xi, 1).substitute_slot(1, w)
    eta_w = iota(eta, 1).substitute_slot(1, w)
    rhs = schouten_density(xi, eta_w) + schouten_density(xi_w, eta)
    return equivalent(lhs, rhs)


def battery_remarks(cfg: GeneratorConfig, cases: int = 20) -> BatteryReport:
    """(a) the factor-2 pairing law on random cases; (b) the fixed
    actual-covector substitution, which must violate the recursion identity,
    checked as case number `cases`."""

    def check(case):
        if case == cases:
            held = _remark2_identity_holds(cfg.geometry)
            return (), "covector substitution unexpectedly satisfied the identity" if held else None
        h = random_multivector(cfg, 0, salt=f"rem:{case}:h")
        xi = random_multivector(cfg, 2, salt=f"rem:{case}:xi")
        if _remark1_holds(h, xi):
            return (), None
        return (h.density, xi.density), "pairing factor law failed"

    return _run("remarks", cfg, cases + 1, check)


def battery_golden_examples(cfg: GeneratorConfig = GeneratorConfig()) -> BatteryReport:
    """Fixed worked cases with frozen expected values; no randomness.  Case i
    runs the i-th named check, and a failure's detail names it."""
    g = cfg.geometry
    q0, qx, qxx = qvar(1), qvar(1, 1), qvar(1, 1, 1)
    b0, bx = bvar(1), bvar(1, 1)

    # commuting translation pair: bracket of the two flows vanishes
    v1 = monomial(g, 1, even=[qx], odd=[b0])
    v2 = monomial(g, 1, even=[q0, qx], odd=[b0])

    # non-commuting pair: [x q, q_x] = q, bracket is -<b, q>
    w1 = monomial(g, 1, base=[(1, 1)], even=[q0], odd=[b0])
    w2 = monomial(g, 1, even=[qx], odd=[b0])
    expected = monomial(g, -1, even=[q0], odd=[b0])

    # third-order pair: [[ int b*b_x, int x^3*q_xx*b ]] = 2 int x^3*b_xxx*b
    xi = multivector(monomial(g, 1, odd=[b0, bx]))
    eta = multivector(monomial(g, 1, base=[(1, 3)], even=[qxx], odd=[b0]))
    target = monomial(g, 2, base=[(1, 3)], odd=[bvar(1, 1, 1, 1), b0])

    # quadratic pair: [[ int b*b_x, int q_x*b*b_x ]] = 2 int b*b_x*b_xx
    eta2 = multivector(monomial(g, 1, even=[qx], odd=[b0, bx]))
    target2 = monomial(g, 2, odd=[b0, bx, bvar(1, 1, 1)])

    # inserted form of the third-order bracket, both covector slots filled
    # computed at its first check, so inside the battery's timed cases
    recursive = cache(partial(bracket_recursive, xi, eta, slots=(1, 2)))
    p1xxx = DiffPolynomial.variable(g, pvar(1, 1, 1, 1, 1))
    p2xxx = DiffPolynomial.variable(g, pvar(2, 1, 1, 1, 1))
    p1 = DiffPolynomial.variable(g, pvar(1, 1))
    p2 = DiffPolynomial.variable(g, pvar(2, 1))
    cube = monomial(g, 1, base=[(1, 3)])
    ins_target = cube * (p1xxx * p2 - p2xxx * p1)

    # pairing factor, fixed instance: H = int q^2/2, xi = int b*b_x
    h = multivector(monomial(g, Fraction(1, 2), even=[q0, q0]))

    checks = [
        ("translation pair", lambda: is_exact(schouten_density(v1, v2))),
        ("vector field commutator", lambda: equivalent(schouten_density(w1, w2), expected)),
        ("third-order bracket", lambda: equivalent(bracket_poisson(xi, eta).representative.density, target)),
        ("third-order field route", lambda: bracket_via_q(xi, eta).representative.density == target),
        ("quadratic bracket", lambda: bracket_poisson(xi, eta2).representative.density == target2),
        ("inserted third-order bracket", lambda: recursive().inserted.density == ins_target),
        ("reconstructed third-order bracket", lambda: equivalent(recursive().representative.density, target)),
        ("pairing factor instance", lambda: _remark1_holds(h, xi)),
        ("first structure Poisson", lambda: is_poisson(xi)[0]),  # first KdV structure
    ]

    def check(case):
        name, holds = checks[case]
        return (), None if holds() else f"{name}: golden value mismatch"

    return _run("golden-examples", cfg, len(checks), check)


def run_all(cfg: GeneratorConfig, cases: int = 50) -> list[BatteryReport]:
    return [
        battery_definitions_agree(cfg, cases),
        battery_jacobi(cfg, cases),
        battery_commutator(cfg, cases),
        battery_remarks(cfg, max(1, cases // 2)),
        battery_golden_examples(cfg),
    ]
