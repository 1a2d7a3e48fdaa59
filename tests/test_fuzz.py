"""Hostile-input fuzz of parse_polynomial and the command line.

Short strings (at most 40 characters) are drawn from the tokens of the input
language.  parse_polynomial may raise only ParseError or EngineError; every
subcommand except selftest must return, or leave argparse, with an exit code
in {0, 1, 2, 3}; some command lines read their polynomials from the `let`
lines of a session file.  Each example runs under an alarm, and the whole test
under a fixed wall-clock limit, so a hang fails the test instead of stalling
the suite.
"""

import tempfile
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from varschouten import EngineError, Geometry, ParseError, parse_polynomial
from varschouten.cli import main

from helpers import with_alarm

ATOMS = [
    "q", "b", "x", "q_x", "b_x", "q_xx", "b_xxx", "p1", "p2_x", "p9", "q2", "x1",
    "b1_x2", "0", "1", "2", "12", "1/2", "3/0",
]
TOKENS = ATOMS + ["_", "_x", ".", "64", "99", "+", "-", "*", "^", "(", ")", " "]
# token soup, and expressions grown from the grammar so that many of them parse
SOUP = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)
EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS),
    lambda e: st.one_of(
        st.tuples(e, st.sampled_from("+-*"), e).map("".join),
        st.tuples(e, st.sampled_from(["0", "2", "3", "12", "64"])).map("^".join),
        e.map("({})".format),
        e.map("-{}".format),
    ),
    max_leaves=8,
)
TEXTS = st.one_of(SOUP, EXPRESSIONS).map(lambda text: text[:40])
# argument shapes per subcommand: "p" a polynomial, "s" a slot
COMMANDS = {
    "bracket": "pp", "bracket-recursive": "pp", "eval": "pss", "insert": "ps",
    "normalize": "p", "equiv": "pp", "degree": "p", "jacobi": "ppp",
    "poisson-check": "p", "qfield": "p",
}
SLOTS = st.sampled_from(["1", "2", "4", "0", "5", "x", "-1"])
GEOMETRIES = st.sampled_from([Geometry(1, 1, 4), Geometry(2, 2, 3), Geometry(1, 2, 4), Geometry(3, 1, 3)])
EXAMPLE_SECONDS = 10
TEST_SECONDS = 120


@settings(max_examples=300, deadline=None)
@given(TEXTS, GEOMETRIES)
def _fuzz_parser(text, g):
    try:
        with_alarm(lambda: parse_polynomial(text, g), EXAMPLE_SECONDS)
    except (ParseError, EngineError):
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def _fuzz_cli(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    g = data.draw(GEOMETRIES)
    args = [data.draw(TEXTS if shape == "p" else SLOTS) for shape in COMMANDS[command]]
    options = ["--geometry", f"{g.n},{g.m},{g.s}"]
    with tempfile.TemporaryDirectory() as tmp:
        if data.draw(st.integers(0, 3)) == 3:  # the polynomials as lets of a session file
            lets = [f"geometry {g.n} {g.m} {g.s}"]
            for i, shape in enumerate(COMMANDS[command]):
                if shape == "p":
                    lets.append(f"let f{i} = {args[i]}")
                    args[i] = f"f{i}"
            session = Path(tmp, "fuzz.session")
            session.write_text("\n".join(lets) + "\n", encoding="utf-8")
            options += ["--file", str(session)]
        argv = [command, *options, "--", *args]
        try:
            code = with_alarm(lambda: main(argv), EXAMPLE_SECONDS)
        except SystemExit as exc:  # argparse refuses its input
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)


def test_parser_raises_only_its_own_errors():
    start = time.perf_counter()
    _fuzz_parser()
    assert time.perf_counter() - start < TEST_SECONDS


def test_cli_ends_with_a_documented_exit_code(capsys):
    start = time.perf_counter()
    _fuzz_cli()
    capsys.readouterr()
    assert time.perf_counter() - start < TEST_SECONDS
