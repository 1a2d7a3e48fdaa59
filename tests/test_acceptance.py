"""Acceptance suite: one test per shipped criterion.

Every check is exact rational arithmetic; the two timed criteria assert
their wall-clock budgets as part of the criterion.  Each test prints a
single `criterion N: PASS/FAIL` line (run pytest with -s to stream them;
on failure the line shows up in the captured-output section).
"""

import random
import subprocess
import sys
import time

from varschouten import (
    DiffPolynomial,
    GeneratorConfig,
    battery_commutator,
    battery_definitions_agree,
    battery_jacobi,
    battery_remarks,
    bracket_poisson,
    bracket_recursive,
    bracket_via_q,
    bvar,
    equivalent,
    evaluate,
    evolutionary_field,
    format_polynomial,
    iota,
    is_poisson,
    monomial,
    multivector,
    parse_polynomial,
    pvar,
    qvar,
    random_density,
    random_exact,
    random_multivector,
    schouten_density,
)

SEED = 2026
CFG = GeneratorConfig(seed=SEED)
G = CFG.geometry


def poly(*pieces):
    out = DiffPolynomial.zero(G)
    for coeff, base, even, odd in pieces:
        out = out + monomial(G, coeff, base=base, even=even, odd=odd)
    return out


def mv(*pieces):
    return multivector(poly(*pieces))


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_golden_examples():
    start = time.perf_counter()

    # third-order pair
    third = equivalent(
        bracket_poisson(mv((1, [], [], [bvar(1), bvar(1, 1)])),
                        mv((1, [(1, 3)], [qvar(1, 1, 1)], [bvar(1)]))).representative.density,
        poly((2, [(1, 3)], [], [bvar(1, 1, 1, 1), bvar(1)])),
    )

    # quadratic-coefficient pair
    quadratic = equivalent(
        bracket_poisson(mv((1, [], [], [bvar(1), bvar(1, 1)])),
                        mv((1, [], [qvar(1, 1)], [bvar(1), bvar(1, 1)]))).representative.density,
        poly((2, [], [], [bvar(1), bvar(1, 1), bvar(1, 1, 1)])),
    )

    # two 1-vectors against the commutator of their sections
    phi1 = poly((1, [], [qvar(1, 1)], []))
    phi2 = poly((1, [], [qvar(1), qvar(1, 1)], []))
    zero = DiffPolynomial.zero(G)
    flow1 = evolutionary_field(G, (phi1,), (zero,), 0)
    flow2 = evolutionary_field(G, (phi2,), (zero,), 0)
    commutator = flow1.apply(phi2) - flow2.apply(phi1)
    b = DiffPolynomial.variable(G, bvar(1))
    pair = equivalent(
        bracket_poisson(mv((1, [], [qvar(1, 1)], [bvar(1)])),
                        mv((1, [], [qvar(1), qvar(1, 1)], [bvar(1)]))).representative.density,
        -(b * commutator),
    )

    # fully inserted third-order bracket
    r = bracket_recursive(
        mv((1, [], [], [bvar(1), bvar(1, 1)])),
        mv((1, [(1, 3)], [qvar(1, 1, 1)], [bvar(1)])),
        slots=(1, 2),
    )
    inserted = equivalent(
        r.inserted.density,
        poly(
            (1, [(1, 3)], [pvar(1, 1, 1, 1, 1), pvar(2, 1)], []),
            (-1, [(1, 3)], [pvar(1, 1), pvar(2, 1, 1, 1, 1)], []),
        ),
    )

    elapsed = time.perf_counter() - start
    ok = third and quadratic and pair and inserted and elapsed < 1.0
    assert report(1, ok, f"4 golden examples, {elapsed:.2f}s (budget 1s)")
    assert third and quadratic and pair and inserted
    assert elapsed < 1.0


def test_criterion_2_definitions_agree():
    r = battery_definitions_agree(CFG, 200)
    ok = r.ok and r.wall_time < 120.0
    assert report(2, ok, f"{r.cases} random pairs, {r.wall_time:.1f}s (budget 120s)")
    assert not r.failures, r.failures[:3]
    assert r.wall_time < 120.0


def test_criterion_3_jacobi():
    r = battery_jacobi(CFG, 50)
    assert report(3, r.ok, f"{r.cases} random triples, degree sum <= 5")
    assert not r.failures, r.failures[:3]


def test_criterion_4_commutator():
    r = battery_commutator(CFG, 50)
    assert report(4, r.ok, f"{r.cases} random field triples")
    assert not r.failures, r.failures[:3]


def test_criterion_5_remarks():
    r = battery_remarks(CFG, 20)
    ok = r.ok and r.cases == 21
    assert report(5, ok, "20 pairing-factor cases + fixed must-fail substitution")
    assert not r.failures, r.failures[:3]


def test_criterion_6_poisson_certification():
    ok1, w1 = is_poisson(mv((1, [], [], [bvar(1), bvar(1, 1)])))
    ok2, w2 = is_poisson(
        mv((1, [], [], [bvar(1), bvar(1, 1, 1, 1)]), (1, [], [qvar(1)], [bvar(1), bvar(1, 1)]))
    )
    p3 = mv((1, [], [qvar(1)], [bvar(1), bvar(1, 1)]))
    ok3, w3 = is_poisson(p3)
    # P = int q*b*b_x: dP/dq = b*b_x, dP/db = q_x*b + 2*q*b_x, and the pairing
    # b*b_x*(q_x*b + 2*q*b_x) vanishes term by term because b*b = b_x*b_x = 0.
    # The certificate compares polynomials: DiffPolynomial.is_zero means no
    # terms, while Functional.is_zero would go through is_exact.
    routes = [bracket_poisson(p3, p3), bracket_via_q(p3, p3), bracket_recursive(p3, p3)]
    density_zero = schouten_density(p3.density, p3.density) == DiffPolynomial.zero(G)
    routes_zero = all(r.zero and r.representative.density.is_zero for r in routes)
    inserted_zero = routes[2].inserted.density.is_zero
    vanishes = density_zero and routes_zero and inserted_zero
    ok = ok1 and ok2 and ok3 and w3 is None and vanishes
    assert report(
        6,
        ok,
        f"verdicts: {ok1}, {ok2}, {ok3} (expected true, true, true); "
        f"self-bracket of q*b*b_x is the zero polynomial on all three routes: {vanishes}",
    )
    assert ok1 and w1 is None
    assert ok2 and w2 is None
    assert ok3 and w3 is None, "q*b*b_x is Poisson: its self-bracket density vanishes"
    assert density_zero, "schouten_density(p, p) must be the zero polynomial"
    for r in routes:
        assert r.zero and r.representative.density.is_zero, r.method
    assert inserted_zero, "the recursion's inserted value must be zero"


def test_witness_extraction_on_a_non_poisson_bivector():
    # nearby bivector whose self-bracket genuinely survives: the witness
    # machinery must produce its nonzero class
    ok, witness = is_poisson(mv((1, [], [qvar(1, 1)], [bvar(1), bvar(1, 1)])))
    assert not ok
    assert equivalent(
        witness.density,
        poly((4, [], [qvar(1, 1)], [bvar(1), bvar(1, 1), bvar(1, 1, 1)])),
    )


def test_criterion_7_representative_independence():
    degree_pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]
    failures = []
    for case in range(50):
        k, l = degree_pairs[case % len(degree_pairs)]
        xi = random_multivector(CFG, k, salt=f"rep:{case}:xi")
        eta = random_multivector(CFG, l, salt=f"rep:{case}:eta")
        shift = random_exact(CFG, k, salt=f"rep:{case}:shift")
        moved = multivector(xi.density + shift)

        same_bracket = equivalent(
            bracket_poisson(xi, eta).representative,
            bracket_poisson(moved, eta).representative,
        )
        slots = tuple(range(1, k + 1))
        same_eval = equivalent(evaluate(xi, slots), evaluate(moved, slots))
        same_insert = equivalent(iota(xi.density, 1), iota(moved.density, 1))
        if not (same_bracket and same_eval and same_insert):
            failures.append(case)
    assert report(7, not failures, "50 exact-term shifts across bracket, eval, insert")
    assert not failures, failures


GOLDEN_INVOCATIONS = [
    (
        ["bracket", "b*b_x", "b*x^3*q_xx"],
        b"degree 2\n12*x*b_x*b + 6*x^2*b_xx*b + 2*x^3*b_xxx*b\n",
    ),
    (
        ["bracket-recursive", "b*b_x", "b*x^3*q_xx"],
        b"degree 2\n2*x^3*b_xxx*b\n",
    ),
    (
        ["bracket", "b*b_x", "q_x*b*b_x"],
        b"degree 3\n2*b*b_x*b_xx\n",
    ),
    (
        ["bracket", "q_x*b", "q*q_x*b"],
        b"degree none\n0\n",
    ),
    (
        ["eval", "2*x^3*b_xxx*b", "1", "2"],
        b"-x^3*p1*p2_xxx + x^3*p1_xxx*p2\n",
    ),
    (
        ["insert", "b*b_x", "1"],
        b"1/2*p1_x*b - 1/2*p1*b_x\n",
    ),
]


def test_criterion_8_frontend():
    failures = 0
    for i in range(1000):
        rng = random.Random(f"{SEED}:roundtrip:{i}")
        f = random_density(CFG, rng.choice([0, 1, 2, 3]), rng)
        if parse_polynomial(format_polynomial(f), G) != f:
            failures += 1

    stable = True
    for argv, expected in GOLDEN_INVOCATIONS:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "varschouten", *argv],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        if runs[0] != expected or runs[1] != expected:
            stable = False
    ok = failures == 0 and stable
    assert report(8, ok, "1000 print/parse round trips, byte-stable CLI goldens")
    assert failures == 0
    assert stable
