"""The two benchmark workloads.

Each workload turns a seed into a pool of cases during set-up, runs one case
at a time in the timed phase, and checks each result afterwards:

    cases = workload.generate(vs, seed, workdir)   # set-up, uses randgen
    result = workload.run(vs, case)                # timed
    problem = workload.check(vs, case, result)     # untimed; None when correct

`vs` is a namespace of freshly imported varschouten layer modules, so the
benchmark can import the engine several times in one process.  Why each
workload exists, and its generator bounds, are in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

# the degree pairs the definitions-agree and commutator batteries cycle
# through (varschouten/batteries.py)
DEGREE_PAIRS = [
    (1, 1), (0, 2), (1, 2), (2, 2), (0, 1), (2, 1),
    (1, 3), (0, 3), (3, 1), (2, 3), (3, 2),
]


class Workload:
    name = ""
    bounds: dict = {}  # GeneratorConfig fields other than the seed
    pool_size = 0  # cases generated in set-up; the timed loop cycles through them
    warmup = 0  # leading pool cases run once, untimed, at the end of set-up
    trace_cases = 0  # fixed case count of a traced run, so its counts repeat exactly
    finish_checks = 0  # checks finish() makes, each counted as an attempted case

    def config(self, vs, seed: int):
        return vs.randgen.GeneratorConfig(seed=seed, **self.bounds)

    def finish(self, vs) -> list[str]:
        """Checks run once per benchmark run, after the per-case checks."""
        return []


OVERSAMPLE = 3


def balanced_pool(vs, pool_size, classes, draw, seed, tag):
    """Pool slot i holds a case of degree class classes[i % len(classes)].

    For each class, draw OVERSAMPLE candidates per slot with randgen, rank
    them by case_size, and keep the middle candidate of each consecutive run
    of OVERSAMPLE: a systematic sample on the size quantiles of the
    generator's own distribution.  With a plain random sample, the few
    largest cases a seed happens to draw moved throughput and the latency
    percentiles by 10-25 % between seeds; this keeps the size profile of
    every seed's pool alike.  The kept cases are shuffled over the class's
    slots.
    """
    pool = [None] * pool_size
    for c, cls in enumerate(classes):
        slots = range(c, pool_size, len(classes))
        candidates = [draw(cls, f"{tag}:{cls}:{j}") for j in range(OVERSAMPLE * len(slots))]
        sizes = [case_size(vs, case) for case in candidates]
        ranked = sorted(range(len(candidates)), key=lambda j: (sizes[j], j))
        kept = [candidates[ranked[g * OVERSAMPLE + OVERSAMPLE // 2]] for g in range(len(slots))]
        random.Random(f"{seed}:{tag}:{cls}").shuffle(kept)
        for slot, case in zip(slots, kept):
            pool[slot] = case
    return pool


def case_size(vs, case) -> int:
    """A size measure that tracks case time, from cheap parts of the case.

    The product over the case's multivectors of 1 + the terms of their q-
    and b-Euler operators.  Its mean rank correlation with definitions case
    time within a degree class is 0.87; counting distinct jet variables gave
    0.75.  It costs 2-3 % of a case.
    """
    var = vs.variational
    size = 1
    for mv in case:
        f = mv.density
        size *= 1 + sum(
            len(var.var_q(f, a).terms) + len(var.var_b(f, a).terms)
            for a in range(1, f.geometry.m + 1)
        )
    return size


# -- definitions agree ----------------------------------------------------------


class Definitions(Workload):
    name = "definitions"
    bounds = {"max_order": 2, "max_terms": 3}
    pool_size = 1100
    warmup = 11
    trace_cases = 110

    def generate(self, vs, seed, workdir):
        cfg = self.config(vs, seed)
        rm = vs.randgen.random_multivector

        def draw(degrees, salt):
            k, l = degrees
            return rm(cfg, k, salt=salt + ":xi"), rm(cfg, l, salt=salt + ":eta")

        return balanced_pool(vs, self.pool_size, DEGREE_PAIRS, draw, seed, "defs")

    def run(self, vs, case):
        xi, eta = case
        s = vs.schouten
        return s.bracket_poisson(xi, eta), s.bracket_via_q(xi, eta), s.bracket_recursive(xi, eta)

    def check(self, vs, case, result):
        a, b, r = result
        equivalent = vs.variational.equivalent
        if not equivalent(a.representative, b.representative):
            return "density formula and field route disagree"
        if not a.zero == b.zero == r.zero:
            return "zero-class verdicts disagree"
        if not equivalent(a.representative, r.representative):
            return "recursion's rebuilt bracket disagrees with the density formula"
        inserted = a.representative.density
        for slot in reversed(r.slots):
            inserted = vs.multivector.iota(inserted, slot)
        if not equivalent(inserted, r.inserted.density):
            return "recursion disagrees with inserted density formula"
        return None


# -- command line ---------------------------------------------------------------------


@dataclass
class Request:
    argv: list[str]
    code: int | None  # expected exit code; None when check() derives it
    kind: str
    out: str | None = None  # golden stdout, byte for byte
    err: str | None = None  # golden stderr, byte for byte
    err_has: str | None = None  # golden stderr substring
    data: dict = field(default_factory=dict)  # generated objects the check needs


SESSION_TEXT = (
    "geometry 1 1 4\n"
    "let xi = b*b_x\n"
    "let eta = b*x^3*q_xx\n"
    "slot first = 1\n"
)

BRACKET_GOLDEN = "degree 2\n12*x*b_x*b + 6*x^2*b_xx*b + 2*x^3*b_xxx*b\n"
INSERT_GOLDEN = "1/2*p1_x*b - 1/2*p1*b_x\n"


def golden_requests(session: str, bad_session: str, missing: str) -> list[Request]:
    """The CLI goldens of tests/test_session_cli.py, except selftest (see Cli.finish)."""
    return [
        Request(["bracket", "b*b_x", "b*x^3*q_xx"], 0, "golden", BRACKET_GOLDEN),
        Request(["bracket", "q_x*b", "q*q_x*b"], 0, "golden", "degree none\n0\n"),
        Request(
            ["bracket-recursive", "b*b_x", "b*x^3*q_xx"], 0, "golden", "degree 2\n2*x^3*b_xxx*b\n"
        ),
        Request(
            ["bracket", "--latex", "b*b_x", "b*x^3*q_xx"], 0, "golden",
            "degree 2\n12\\,x\\,b_{x}\\,b + 6\\,x^{2}\\,b_{xx}\\,b + 2\\,x^{3}\\,b_{xxx}\\,b\n",
        ),
        Request(["eval", "b*b_x", "1", "2"], 0, "golden", "1/2*p1*p2_x - 1/2*p1_x*p2\n"),
        Request(["insert", "b*b_x", "1"], 0, "golden", INSERT_GOLDEN),
        Request(["normalize", "b_x*b_xx"], 0, "golden", "b_xxx*b\n"),
        Request(["degree", "b*b_x"], 0, "golden", "degree 2\nclass nonzero\n"),
        Request(["degree", "q_x*b + q*b_x"], 0, "golden", "degree 1\nclass zero\n"),
        Request(["equiv", "b*b_x", "b*b_x + q_x*b + q*b_x"], 0, "golden", "equivalent\n"),
        Request(["equiv", "b*b_x", "b*b_x + 1/2*q"], 1, "golden", "not equivalent\n"),
        Request(["jacobi", "b*b_x", "b*b_x", "b*b_x"], 0, "golden", "zero class\n"),
        Request(["poisson-check", "b*b_xxx + q*b*b_x"], 0, "golden", "PASS\n"),
        Request(["poisson-check", "q_x*b*b_x"], 1, "golden", "FAIL\n4*q_x*b*b_x*b_xx\n"),
        Request(
            ["qfield", "b*b_x + q*b*b_x"], 0, "golden",
            "parity 1\nq: q_x*b + 2*b_x + 2*q*b_x\nb: b*b_x\n",
        ),
        Request(
            ["bracket", "b*b_xz", "b"], 2, "golden", "",
            err="parse error: line 1, col 3: bad derivative suffix 'xz'; expected 'x' letters\n",
        ),
        Request(
            ["eval", "b*b_x", "1", "1"], 3, "golden", "",
            err="error: covector slots must be distinct\n",
        ),
        Request(
            ["eval", "b*b_x", "1", "nope"], 3, "golden", "",
            err_has="neither a number nor a declared alias",
        ),
        Request(
            ["degree", "--geometry", "2,2,3", "b1*b2_x1"], 0, "golden",
            "degree 2\nclass nonzero\n",
        ),
        Request(["degree", "--geometry", "2,2", "q1"], 3, "golden", "", err_has="takes n,m,s"),
        Request(["bracket", "--file", session, "xi", "eta"], 0, "golden", BRACKET_GOLDEN),
        Request(["insert", "--file", session, "xi", "first"], 0, "golden", INSERT_GOLDEN),
        Request(
            ["bracket", "--file", session, "--geometry", "2,2,3", "xi", "eta"], 3, "golden", "",
            err="error: --geometry disagrees with the session file\n",
        ),
        Request(["bracket", "--file", missing, "xi", "eta"], 3, "golden", ""),
        Request(
            ["degree", "--file", bad_session, "q*b"], 2, "golden", "",
            err="parse error: line 2, col 12: unexpected end of input\n",
        ),
    ]


SELFTEST_GOLDEN = (
    ["selftest", "--seed", "5", "--cases", "2"],
    "definitions-agree 2 0 5\n"
    "jacobi 2 0 5\n"
    "commutator 2 0 5\n"
    "remarks 2 0 5\n"
    "golden-examples 9 0 5\n",
)

# one entry per generated request, cycled; "golden" takes the next golden
SCHEDULE = [
    "bracket", "equiv", "normalize", "bracket-recursive", "golden", "degree",
    "eval", "malformed", "insert", "poisson-check", "qfield", "session",
]

SESSION_LETS = 8  # generated densities g0..g7 appended to the session file


def _call_cli(vs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vs.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Cli(Workload):
    name = "cli"
    bounds = {"max_order": 2, "max_terms": 3, "max_degree": 2}
    pool_size = 3000
    warmup = 24
    trace_cases = 480
    finish_checks = 1

    def generate(self, vs, seed, workdir: Path):
        self._verdicts = {}
        cfg = self.config(vs, seed)
        rg, fmt = vs.randgen, vs.printing.format_polynomial
        pairs = [(k, l) for k, l in DEGREE_PAIRS if k <= 2 and l <= 2]

        def mv(degree, salt):
            return rg.random_multivector(cfg, degree, salt=salt)

        # the brackets, from the command line or the session file, set the
        # latency tail; their operands are size-balanced samples as in the
        # battery workloads, so that the tail of each seed's pool is alike
        kinds = [SCHEDULE[i % len(SCHEDULE)] for i in range(self.pool_size)]
        brackets = iter(balanced_pool(
            vs, sum(k in ("bracket", "bracket-recursive") for k in kinds), pairs,
            lambda degrees, salt: (mv(degrees[0], salt + ":xi"), mv(degrees[1], salt + ":eta")),
            seed, "cli",
        ))
        lets = [m for (m,) in balanced_pool(
            vs, SESSION_LETS, (1, 2), lambda degree, salt: (mv(degree, salt),), seed, "cli:let"
        )]
        session = workdir / "bench.session"
        session.write_text(
            SESSION_TEXT + "".join(f"let g{i} = {fmt(m.density)}\n" for i, m in enumerate(lets))
        )
        bad_session = workdir / "bad.session"
        bad_session.write_text("geometry 1 1 4\nlet xi = q*\n")
        goldens = golden_requests(str(session), str(bad_session), str(workdir / "missing"))

        requests = []
        for i, kind in enumerate(kinds):
            rng = random.Random(f"{seed}:cli:{i}")
            salt = f"cli:{i}"
            if kind == "golden":
                requests.append(goldens[(i // len(SCHEDULE)) % len(goldens)])
            elif kind in ("bracket", "bracket-recursive"):
                xi, eta = next(brackets)
                requests.append(
                    Request([kind, "--", fmt(xi.density), fmt(eta.density)], 0, kind,
                            data={"xi": xi, "eta": eta})
                )
            elif kind == "equiv":
                k = rng.randint(1, 2)
                f = mv(k, salt + ":f").density
                same = rng.random() < 0.5
                other = rg.random_exact(cfg, k, salt) if same else mv(k, salt + ":h").density
                requests.append(
                    Request(["equiv", "--", fmt(f), fmt(f + other)], 0 if same else 1, kind,
                            "equivalent\n" if same else "not equivalent\n")
                )
            elif kind == "normalize":
                f = mv(rng.randint(1, 2), salt).density
                requests.append(Request(["normalize", "--", fmt(f)], 0, kind, data={"f": f}))
            elif kind == "degree":
                k = rng.randint(0, 2)
                zero = rng.random() < 0.5
                f = rg.random_exact(cfg, k, salt) if zero else mv(k, salt).density
                out = f"degree {k}\nclass {'zero' if zero else 'nonzero'}\n"
                requests.append(Request(["degree", "--", fmt(f)], 0, kind, out))
            elif kind == "eval":
                xi = mv(rng.randint(1, 2), salt)
                slots = tuple(str(j) for j in rng.sample(range(1, 5), xi.degree))
                requests.append(
                    Request(["eval", "--", fmt(xi.density), *slots], 0, kind,
                            data={"xi": xi, "slots": tuple(map(int, slots))})
                )
            elif kind == "insert":
                xi = mv(rng.randint(1, 2), salt)
                slot = rng.randint(1, 4)
                requests.append(
                    Request(["insert", "--", fmt(xi.density), str(slot)], 0, kind,
                            data={"xi": xi, "slot": slot})
                )
            elif kind == "poisson-check":
                if rng.random() < 0.5:
                    p = mv(2, salt).density
                else:  # the KdV pencil c1*b*b_x + c2*(b*b_xxx + q*b*b_x) is Poisson
                    c1, c2 = rng.randint(1, 5), rng.randint(1, 5)
                    sign = rng.choice("+-")
                    p = vs.parser.parse_polynomial(
                        f"{c1}*b*b_x {sign} {c2}*(b*b_xxx + q*b*b_x)", cfg.geometry
                    )
                requests.append(
                    Request(["poisson-check", "--", fmt(p)], None, kind,
                            data={"p": vs.multivector.multivector(p)})
                )
            elif kind == "qfield":
                xi, eta = mv(rng.randint(1, 2), salt + ":xi"), mv(rng.randint(0, 2), salt + ":eta")
                requests.append(
                    Request(["qfield", "--", fmt(xi.density)], 0, kind, data={"xi": xi, "eta": eta})
                )
            elif kind == "session":
                a, b = rng.randrange(SESSION_LETS), rng.randrange(SESSION_LETS)
                xi, eta = lets[a], lets[b]
                if rng.random() < 0.5:
                    requests.append(
                        Request(["bracket", "--file", str(session), "--", f"g{a}", f"g{b}"], 0,
                                "bracket", data={"xi": xi, "eta": eta})
                    )
                else:
                    requests.append(
                        Request(["insert", "--file", str(session), "--", f"g{a}", "first"], 0,
                                "insert", data={"xi": xi, "slot": 1})
                    )
            else:
                requests.append(self._malformed(vs, rng, fmt(mv(rng.randint(1, 2), salt).density)))
        return requests

    @staticmethod
    def _malformed(vs, rng, text):
        """A parse error of a known class at a known column."""
        how = rng.choice(("open", "close", "unknown", "suffix"))
        if how == "open":
            bad, col, msg = "(" + text, len(text) + 2, "expected ')'"
        elif how == "close":
            bad, col, msg = text + ")", len(text) + 1, "unexpected ')' after expression"
        else:
            if how == "unknown":
                token = rng.choice(("y", "z", "u_x", "qq"))
                msg = f"unknown name {token!r}"
            else:
                suffix = rng.choice(("xz", "xy", "x1", "xxt"))
                token = "b_" + suffix
                msg = f"bad derivative suffix {suffix!r}; expected 'x' letters"
            if rng.random() < 0.5:
                bad, col = token + "*" + text, 1
            else:
                bad, col = text + "*" + token, len(text) + 2
        command = rng.choice(("degree", "normalize", "qfield"))
        return Request(
            [command, "--", bad], 2, "malformed", "",
            err=f"parse error: line 1, col {col}: {msg}\n",
        )

    def run(self, vs, case):
        return _call_cli(vs, case.argv)

    def check(self, vs, case, result):
        # a request that printed the same bytes and exit code as an earlier,
        # already checked run of it gets that run's verdict
        key = (tuple(case.argv), *result)
        if key not in self._verdicts:
            self._verdicts[key] = self._check(vs, case, result)
        return self._verdicts[key]

    def _check(self, vs, case, result):
        code, out, err = result
        if case.out is not None and out != case.out:
            return f"stdout {out!r}, expected {case.out!r}"
        if case.err is not None and err != case.err:
            return f"stderr {err!r}, expected {case.err!r}"
        if case.err_has is not None and case.err_has not in err:
            return f"stderr {err!r} lacks {case.err_has!r}"
        if case.kind == "poisson-check":
            return self._check_poisson(vs, case, code, out)
        if code != case.code:
            return f"exit code {code}, expected {case.code}"
        checker = getattr(self, "_check_" + case.kind.replace("-", "_"), None)
        return checker(vs, case, out) if checker else None

    # Each check re-parses the printed polynomial and compares it, as a class,
    # with a route other than the one the request ran.

    @staticmethod
    def _parse(vs, text):
        return vs.parser.parse_polynomial(text, vs.algebra.Geometry(1, 1, 4))

    def _check_bracket_class(self, vs, out, xi, eta, other):
        lines = out.splitlines()
        if other.zero:
            return None if lines == ["degree none", "0"] else f"expected a zero class, got {out!r}"
        if len(lines) != 2 or lines[0] != f"degree {xi.degree + eta.degree - 1}":
            return f"unexpected bracket output {out!r}"
        if not vs.variational.equivalent(self._parse(vs, lines[1]), other.representative.density):
            return "printed bracket disagrees with another route"
        return None

    def _check_bracket(self, vs, case, out):
        xi, eta = case.data["xi"], case.data["eta"]
        return self._check_bracket_class(vs, out, xi, eta, vs.schouten.bracket_via_q(xi, eta))

    def _check_bracket_recursive(self, vs, case, out):
        xi, eta = case.data["xi"], case.data["eta"]
        return self._check_bracket_class(vs, out, xi, eta, vs.schouten.bracket_poisson(xi, eta))

    def _check_normalize(self, vs, case, out):
        g = self._parse(vs, out.rstrip("\n"))
        if not vs.variational.equivalent(g, case.data["f"]):
            return "normal form is not equivalent to the input"
        if any(m.odd[0].index.order for m in g.terms):
            return "normal form has a derived leading odd factor"
        return None

    def _check_eval(self, vs, case, out):
        xi, slots = case.data["xi"], case.data["slots"]
        other = vs.multivector.evaluate_by_insertion(xi, slots).density
        if not vs.variational.equivalent(self._parse(vs, out.rstrip("\n")), other):
            return "evaluation disagrees with repeated insertion"
        return None

    def _check_insert(self, vs, case, out):
        mv = vs.multivector
        xi, slot = case.data["xi"], case.data["slot"]
        inserted = mv.Multivector(
            vs.variational.Functional(self._parse(vs, out.rstrip("\n"))), xi.degree - 1
        )
        rest = tuple(j for j in range(1, 5) if j != slot)[: xi.degree - 1]
        lhs = mv.evaluate_by_insertion(inserted, rest).density
        rhs = mv.evaluate(xi, rest + (slot,)).density
        if not vs.variational.equivalent(lhs, rhs):
            return "insertion disagrees with full evaluation"
        return None

    def _check_qfield(self, vs, case, out):
        xi, eta = case.data["xi"], case.data["eta"]
        lines = out.splitlines()
        if (
            len(lines) != 3
            or lines[0] != f"parity {(xi.degree - 1) % 2}"
            or not lines[1].startswith("q: ")
            or not lines[2].startswith("b: ")
        ):
            return f"unexpected qfield output {out!r}"
        field_ = vs.schouten.EvolutionaryField(
            (self._parse(vs, lines[1][3:]),), (self._parse(vs, lines[2][3:]),), (xi.degree - 1) % 2,
        )
        lhs = field_.apply(eta.density)
        rhs = vs.schouten.schouten_density(xi.density, eta.density)
        if not vs.variational.equivalent(lhs, rhs):
            return "printed field does not reproduce the density formula"
        return None

    def _check_poisson(self, vs, case, code, out):
        p = case.data["p"]
        square = vs.schouten.bracket_via_q(p, p)
        if square.zero:
            return None if (code, out) == (0, "PASS\n") else f"expected PASS, got {code} {out!r}"
        lines = out.splitlines()
        if code != 1 or len(lines) != 2 or lines[0] != "FAIL":
            return f"expected FAIL with a witness, got {code} {out!r}"
        if not vs.variational.equivalent(self._parse(vs, lines[1]), square.representative.density):
            return "printed witness disagrees with the field route"
        return None

    def finish(self, vs):
        argv, expected = SELFTEST_GOLDEN
        code, out, err = _call_cli(vs, argv)
        if (code, out, err) != (0, expected, ""):
            return [f"selftest golden: exit {code}, stdout {out!r}, stderr {err!r}"]
        return []


WORKLOADS = {w.name: w for w in (Definitions(), Cli())}
