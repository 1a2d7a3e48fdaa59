"""Session files and the command-line front end.

CLI tests drive cli.main in-process and freeze the exact stdout bytes;
exit code conventions: 0 success/true, 1 false verdicts, 2 parse errors,
3 domain errors.
"""

import argparse
import subprocess
import sys

import pytest

from varschouten import Geometry, ParseError, batteries, cli, load_session
from varschouten.batteries import BatteryReport, FailureRecord
from varschouten.cli import main


# -- session files -----------------------------------------------------------


def test_session_happy_path():
    s = load_session(
        "geometry 1 1 4\n"
        "let xi = b*b_x\n"
        "let eta = b*x^3*q_xx  # worked example\n"
        "let both = xi + eta\n"
        "\n"
        "slot first = 1\n"
    )
    assert s.geometry == Geometry(1, 1, 4)
    assert sorted(s.names) == ["both", "eta", "xi"]
    assert s.names["both"] == s.names["xi"] + s.names["eta"]
    assert s.slots == {"first": 1}


@pytest.mark.parametrize(
    "text,message",
    [
        ("geometry 1 1 4\ngeometry 1 1 4", "line 2, col 1: geometry declared twice"),
        ("let xi = q", "line 1, col 1: geometry must be declared before other lines"),
        ("geometry 1 1", "line 1, col 1: expected: geometry <n> <m> <s>"),
        ("geometry 0 1 2", "line 1, col 1: bad geometry: geometry needs at least one base dimension"),
        ("geometry 9 1 1", "line 1, col 1: bad geometry: geometry allows at most 8 base dimensions"),
        ("geometry 1 4096 1", "line 1, col 1: bad geometry: geometry allows at most 4095 fibers and slots"),
        ("geometry 1 1 4\nfrob xi = q", "line 2, col 1: unknown declaration 'frob'"),
        ("geometry 1 1 4\nlet q2 = q", "line 2, col 5: name 'q2' shadows a variable token"),
        ("geometry 1 1 4\nlet b_x = q", "line 2, col 5: name 'b_x' shadows a variable token"),
        ("geometry 1 1 4\nlet xi = q\nlet xi = b", "line 3, col 5: name 'xi' already declared"),
        ("geometry 1 1 4\nlet 2x = q", "line 2, col 5: bad name '2x'"),
        ("geometry 1 1 4\nlet  xi = q\nlet  xi = b", "line 3, col 6: name 'xi' already declared"),
        ("geometry 1 1 4\nlet xi q", "line 2, col 1: expected: let <name> = <...>"),
        ("geometry 1 1 4\nslot = 1", "line 2, col 1: expected: slot <name> = <...>"),
        ("geometry 1 1 4\nslot 1st = 1", "line 2, col 6: bad name '1st'"),
        ("geometry 1 1 4\nlet xi = q\nslot xi = 1", "line 3, col 6: name 'xi' already declared"),
        ("geometry 1 1 4\nslot first = 1\nslot first = 2", "line 3, col 6: name 'first' already declared"),
        ("geometry 1 1 4\nslot p1 = 1", "line 2, col 6: name 'p1' shadows a variable token"),
        ("geometry 1 1 4\nslot first = 9", "line 2, col 14: slot 9 out of range 1..4"),
        ("geometry 1 1 4\nslot first = x", "line 2, col 14: slot alias needs an integer slot number"),
        ("geometry 1 1 4\nslot first = \u00b2", "line 2, col 14: slot alias needs an integer slot number"),
        ("", "line 1, col 1: session file declares no geometry"),
        ("# nothing but comments\n  \n", "line 1, col 1: session file declares no geometry"),
    ],
)
def test_session_errors(text, message):
    with pytest.raises(ParseError) as info:
        load_session(text)
    assert str(info.value) == message


def test_session_reports_expression_errors_at_file_coordinates():
    with pytest.raises(ParseError) as info:
        load_session("geometry 1 1 4\nlet xi = q*")
    assert str(info.value) == "line 2, col 12: unexpected end of input"


def test_session_names_must_be_declared_before_use():
    with pytest.raises(ParseError) as info:
        load_session("geometry 1 1 4\nlet xi = eta\nlet eta = q")
    assert "unknown name 'eta'" in info.value.message
    assert info.value.line == 2


def test_session_lets_share_one_parse_budget():
    # each `let` multiplies 60 by 100 terms, 6000 pairs: one fits, two do not
    a = "+".join(f"q_{'x' * j}" for j in range(1, 61))
    b = "+".join(f"b_{'x' * j}+p1_{'x' * j}" for j in range(1, 51))
    let = f"({a})*({b})"
    assert len(load_session(f"geometry 1 1 4\nlet f = {let}\n").names["f"].terms) == 6000
    second = f"let h = {let}"
    with pytest.raises(ParseError) as info:
        load_session(f"geometry 1 1 4\nlet f = {let}\n{second}\n")
    assert str(info.value) == (
        f"line 3, col {second.index(')*(') + 2}: product of 60 by 100 terms "
        "exceeds the session file's budget of 10000 term pairs"
    )


# -- command-line front end -----------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_command_golden(capsys):
    code, out, _ = run_cli(capsys, "bracket", "b*b_x", "b*x^3*q_xx")
    assert code == 0
    assert out == "degree 2\n12*x*b_x*b + 6*x^2*b_xx*b + 2*x^3*b_xxx*b\n"
    # a degree-0 class has no bA form and is shown as computed
    assert run_cli(capsys, "bracket", "q^3", "x*q*b") == (0, "degree 0\n3*x*q^3\n", "")
    assert run_cli(capsys, "bracket", "x*q*b", "q^3") == (0, "degree 0\n-3*x*q^3\n", "")


def test_bracket_of_commuting_flows(capsys):
    code, out, _ = run_cli(capsys, "bracket", "q_x*b", "q*q_x*b")
    assert code == 0
    assert out == "degree none\n0\n"


def test_bracket_recursive_command(capsys):
    code, out, _ = run_cli(capsys, "bracket-recursive", "b*b_x", "b*x^3*q_xx")
    assert code == 0
    assert out == "degree 2\n2*x^3*b_xxx*b\n"
    assert run_cli(capsys, "bracket-recursive", "q^3", "x*q*b") == (0, "degree 0\n3*x*q^3\n", "")
    assert run_cli(capsys, "bracket-recursive", "x*q*b", "q^3") == (0, "degree 0\n-3*x*q^3\n", "")


def test_latex_output(capsys):
    code, out, _ = run_cli(capsys, "bracket", "--latex", "b*b_x", "b*x^3*q_xx")
    assert code == 0
    assert out == "degree 2\n12\\,x\\,b_{x}\\,b + 6\\,x^{2}\\,b_{xx}\\,b + 2\\,x^{3}\\,b_{xxx}\\,b\n"


def test_eval_and_insert_commands(capsys):
    code, out, _ = run_cli(capsys, "eval", "b*b_x", "1", "2")
    assert (code, out) == (0, "1/2*p1*p2_x - 1/2*p1_x*p2\n")
    code, out, _ = run_cli(capsys, "insert", "b*b_x", "1")
    assert (code, out) == (0, "1/2*p1_x*b - 1/2*p1*b_x\n")


def test_normalize_and_degree_commands(capsys):
    code, out, _ = run_cli(capsys, "normalize", "b_x*b_xx")
    assert (code, out) == (0, "b_xxx*b\n")
    code, out, _ = run_cli(capsys, "degree", "b*b_x")
    assert (code, out) == (0, "degree 2\nclass nonzero\n")
    code, out, _ = run_cli(capsys, "degree", "q_x*b + q*b_x")
    assert (code, out) == (0, "degree 1\nclass zero\n")


def test_equiv_command_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "equiv", "b*b_x", "b*b_x + q_x*b + q*b_x")
    assert (code, out) == (0, "equivalent\n")
    code, out, _ = run_cli(capsys, "equiv", "b*b_x", "b*b_x + 1/2*q")
    assert (code, out) == (1, "not equivalent\n")


def test_jacobi_command(capsys):
    code, out, _ = run_cli(capsys, "jacobi", "b*b_x", "b*b_x", "b*b_x")
    assert (code, out) == (0, "zero class\n")


def test_poisson_check_command(capsys):
    code, out, _ = run_cli(capsys, "poisson-check", "b*b_xxx + q*b*b_x")
    assert (code, out) == (0, "PASS\n")
    code, out, _ = run_cli(capsys, "poisson-check", "q_x*b*b_x")
    assert (code, out) == (1, "FAIL\n4*q_x*b*b_x*b_xx\n")


def test_qfield_command(capsys):
    code, out, _ = run_cli(capsys, "qfield", "b*b_x + q*b*b_x")
    assert code == 0
    assert out == "parity 1\nq: q_x*b + 2*b_x + 2*q*b_x\nb: b*b_x\n"
    # with m >= 2 every section is labelled with its fiber index
    code, out, _ = run_cli(capsys, "qfield", "--geometry", "1,2,4", "b1*b2_x + q2*b1*b2")
    assert code == 0
    assert out == "parity 1\nq1: q2*b2 + b2_x\nq2: -q2*b1 + b1_x\nb1: 0\nb2: b1*b2\n"


def test_selftest_command(capsys):
    code, out, err = run_cli(capsys, "selftest", "--seed", "5", "--cases", "2")
    assert code == 0
    assert out == (
        "definitions-agree 2 0 5\n"
        "jacobi 2 0 5\n"
        "commutator 2 0 5\n"
        "remarks 2 0 5\n"
        "golden-examples 9 0 5\n"
    )
    assert err == ""


@pytest.mark.parametrize("geometry", ["2,2,3", "1,2,2"])
def test_selftest_runs_with_several_fibers(capsys, geometry):
    code, out, err = run_cli(capsys, "selftest", "--geometry", geometry, "--cases", "1")
    assert (code, err) == (0, "")
    assert out == (
        "definitions-agree 1 0 0\n"
        "jacobi 1 0 0\n"
        "commutator 1 0 0\n"
        "remarks 2 0 0\n"
        "golden-examples 9 0 0\n"
    )


def test_selftest_needs_two_covector_slots(capsys):
    # the remarks and golden batteries fill slots 1 and 2
    code, out, err = run_cli(capsys, "selftest", "--geometry", "1,1,1", "--cases", "1")
    assert (code, out) == (3, "")
    assert err == "error: covector slot 2 outside geometry bounds (s=1)\n"


def test_selftest_names_a_failing_golden_check(capsys, monkeypatch):
    monkeypatch.setattr(batteries, "_remark1_holds", lambda h, xi: False)
    monkeypatch.setattr(cli, "run_all", lambda cfg, cases: [batteries.battery_golden_examples(cfg)])
    code, out, err = run_cli(capsys, "selftest", "--seed", "5", "--cases", "1")
    assert (code, out) == (1, "golden-examples 9 1 5\n")
    assert err == "  case 7: pairing factor instance: golden value mismatch\n"


def test_selftest_prints_each_failure(capsys, monkeypatch):
    failure = FailureRecord("jacobi", 1, 5, ("b*b_x", "q*b"), "defect is nonzero")
    reports = [
        BatteryReport("definitions-agree", 2, (), 5, 0.0),
        BatteryReport("jacobi", 2, (failure,), 5, 0.0),
    ]
    monkeypatch.setattr(cli, "run_all", lambda cfg, cases: reports)
    code, out, err = run_cli(capsys, "selftest", "--seed", "5", "--cases", "2")
    assert code == 1
    assert out == "definitions-agree 2 0 5\njacobi 2 1 5\n"
    assert err == "  case 1: defect is nonzero\n    b*b_x\n    q*b\n"


@pytest.mark.parametrize("cases", ["-3", "0", "1001"])
def test_selftest_case_count_is_bounded(capsys, cases):
    code, out, err = run_cli(capsys, "selftest", "--cases", cases)
    assert (code, out) == (3, "")
    assert err == f"error: --cases must be in 1..1000, got {cases}\n"


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bracket", "b*b_xz", "b")
    assert code == 2
    assert err == "parse error: line 1, col 3: bad derivative suffix 'xz'; expected 'x' letters\n"


def test_hostile_input_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "degree", "(" * 3000 + "q" + ")" * 3000)
    assert (code, out) == (2, "")
    assert err == "parse error: line 1, col 101: parentheses nested deeper than 100 levels\n"
    code, out, err = run_cli(capsys, "degree", "q^99999999999")
    assert (code, out) == (2, "")
    assert err == "parse error: line 1, col 3: exponent 99999999999 exceeds the limit 64\n"


def test_nested_powers_are_capped_by_factors_per_term(capsys):
    # one monomial stores one entry per factor, so ((q^64)^64)^64 would carry 262144
    assert run_cli(capsys, "degree", "(q^64)^16*b_x") == (2, "", (
        "parse error: line 1, col 10: product of terms with 1024 and 1 factors "
        "exceeds the limit of 1024 factors in one term\n"
    ))
    assert run_cli(capsys, "degree", "((q^64)^64)^64*b") == (2, "", (
        "parse error: line 1, col 8: product of terms with 1024 and 64 factors "
        "exceeds the limit of 1024 factors in one term\n"
    ))
    assert run_cli(capsys, "degree", "(q^64)^15*x^63*b") == (0, "degree 1\nclass nonzero\n", "")


def test_long_sum_to_a_small_power_is_refused_quickly():
    # 100-term factors, then a chain of products that each stay small: the
    # budget is spent per expression, so the first `*q_x` is refused
    a = "+".join(f"q_{'x' * j}+p1_{'x' * j}" for j in range(1, 51))
    b = "+".join(f"b_{'x' * j}+p2_{'x' * j}" for j in range(1, 51))
    chain = f"({a})*({b})"
    cases = [
        ("(q+q_x+q_xx+q_xxx+q_xxxx+b)^40*b", 28, "product of 825 by 6 terms"),
        (chain + "*q_x" * 200, len(chain) + 1, "product of 10000 by 1 terms"),
    ]
    for text, col, product in cases:
        # a subprocess with a timeout, so a hang fails the test instead of stalling the suite
        proc = subprocess.run(
            [sys.executable, "-m", "varschouten", "degree", text],
            capture_output=True, text=True, timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"parse error: line 1, col {col}: "
            f"{product} exceeds the expression's budget of 10000 term pairs\n"
        )


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "eval", "b*b_x", "1", "1")
    assert code == 3
    assert err == "error: covector slots must be distinct\n"
    code, _, err = run_cli(capsys, "eval", "b*b_x", "1", "nope")
    assert code == 3
    assert "neither a number nor a declared alias" in err
    code, _, err = run_cli(capsys, "eval", "b*b_x", "\u00b2", "1")
    assert code == 3
    assert "neither a number nor a declared alias" in err


def test_geometry_flag(capsys):
    code, out, _ = run_cli(capsys, "degree", "--geometry", "2,2,3", "b1*b2_x1")
    assert (code, out) == (0, "degree 2\nclass nonzero\n")
    code, _, err = run_cli(capsys, "degree", "--geometry", "2,2", "q1")
    assert code == 3
    assert "takes n,m,s" in err
    code, _, err = run_cli(capsys, "degree", "--geometry", "9,1,1", "q_x1")
    assert code == 3
    assert err == "error: geometry allows at most 8 base dimensions\n"


def test_session_file_flag(tmp_path, capsys):
    session = tmp_path / "worked.session"
    session.write_text(
        "geometry 1 1 4\n"
        "let xi = b*b_x\n"
        "let eta = b*x^3*q_xx\n"
        "slot first = 1\n"
    )
    code, out, _ = run_cli(capsys, "bracket", "--file", str(session), "xi", "eta")
    assert (code, out) == (0, "degree 2\n12*x*b_x*b + 6*x^2*b_xx*b + 2*x^3*b_xxx*b\n")
    code, out, _ = run_cli(capsys, "insert", "--file", str(session), "xi", "first")
    assert (code, out) == (0, "1/2*p1_x*b - 1/2*p1*b_x\n")
    code, _, err = run_cli(capsys, "bracket", "--file", str(session), "--geometry", "2,2,3", "xi", "eta")
    assert code == 3
    assert err == "error: --geometry disagrees with the session file\n"
    code, _, err = run_cli(capsys, "bracket", "--file", str(tmp_path / "missing"), "xi", "eta")
    assert code == 3


def test_session_file_parse_error_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.session"
    bad.write_text("geometry 1 1 4\nlet xi = q*\n")
    code, _, err = run_cli(capsys, "degree", "--file", str(bad), "q*b")
    assert code == 2
    assert err == "parse error: line 2, col 12: unexpected end of input\n"


def test_unreadable_session_file_is_exit_three(tmp_path, capsys):
    binary = tmp_path / "binary.session"
    binary.write_bytes(b"\xff\xfegeometry 1 1 4\n")
    code, out, err = run_cli(capsys, "degree", "--file", str(binary), "b")
    assert (code, out) == (3, "")
    assert err == f"error: {binary}: not UTF-8 text (invalid start byte at byte 0)\n"
    code, out, err = run_cli(capsys, "degree", "--file", str(tmp_path), "b")
    assert (code, out) == (3, "")
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    """No flag, error or session of one main() call may leak into the next."""
    plain = "degree 2\n12*x*b_x*b + 6*x^2*b_xx*b + 2*x^3*b_xxx*b\n"
    latex = "degree 2\n12\\,x\\,b_{x}\\,b + 6\\,x^{2}\\,b_{xx}\\,b + 2\\,x^{3}\\,b_{xxx}\\,b\n"
    assert run_cli(capsys, "bracket", "--latex", "b*b_x", "b*x^3*q_xx") == (0, latex, "")
    assert run_cli(capsys, "bracket", "b*b_x", "b*x^3*q_xx") == (0, plain, "")
    assert run_cli(capsys, "bracket", "b*b_xz", "b") == (
        2, "", "parse error: line 1, col 3: bad derivative suffix 'xz'; expected 'x' letters\n"
    )
    assert run_cli(capsys, "bracket", "b*b_x", "b*x^3*q_xx") == (0, plain, "")
    with pytest.raises(SystemExit):
        main(["bracket", "b*b_x"])
    capsys.readouterr()
    assert run_cli(capsys, "degree", "b*b_x") == (0, "degree 2\nclass nonzero\n", "")
    session = tmp_path / "worked.session"
    session.write_text("geometry 1 1 4\nlet xi = b*b_x\nlet eta = b*x^3*q_xx\n")
    assert run_cli(capsys, "bracket", "--file", str(session), "xi", "eta") == (0, plain, "")
    assert run_cli(capsys, "bracket", "xi", "eta") == (
        2, "", "parse error: line 1, col 1: unknown name 'xi'\n"
    )
    assert run_cli(capsys, "degree", "--geometry", "2,2,3", "b1*b2_x1")[:2] == (
        0, "degree 2\nclass nonzero\n"
    )
    assert run_cli(capsys, "insert", "b*b_x", "1") == (0, "1/2*p1_x*b - 1/2*p1*b_x\n", "")


def _exit_output(capsys, *argv):
    """(exit code, stdout, stderr) of a main() call that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


# (help line, positionals as (name, nargs)) of each subcommand; usage errors name the positionals
SUBCOMMANDS = {
    "bracket": ("Schouten bracket, density formula", [("xi", None), ("eta", None)]),
    "bracket-recursive": ("Schouten bracket via insertion recursion", [("xi", None), ("eta", None)]),
    "eval": ("evaluate a k-vector on k covector slots", [("xi", None), ("slots", "*")]),
    "insert": ("fill the rightmost argument with a slot", [("xi", None), ("slot", None)]),
    "normalize": ("rewrite so every term starts with an underived b", [("density", None)]),
    "equiv": ("do two densities define the same functional?", [("lhs", None), ("rhs", None)]),
    "degree": ("b-degree and class triviality of a density", [("density", None)]),
    "jacobi": ("graded Jacobi defect of three multivectors", [("xi", None), ("eta", None), ("zeta", None)]),
    "poisson-check": ("certify [[P,P]] = 0 for a bivector", [("bivector", None)]),
    "qfield": ("sections of the evolutionary field of a multivector", [("xi", None)]),
    "selftest": ("run the verification batteries", []),
}
COMMON_OPTIONS = {"--geometry": None, "--file": None, "--latex": False}


def test_subcommand_table():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {a.dest: a.help for a in sub._choices_actions} == {
        name: help_line for name, (help_line, _) in SUBCOMMANDS.items()
    }
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, parser in sub.choices.items():
        positionals = [(a.dest, a.nargs) for a in parser._actions if not a.option_strings]
        options = {
            option: a.default
            for a in parser._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)
            for option in a.option_strings
        }
        extra = {"--seed": 0, "--cases": 25} if name == "selftest" else {}
        assert (name, positionals, options) == (name, SUBCOMMANDS[name][1], COMMON_OPTIONS | extra)


def test_main_builds_its_parser_once(capsys):
    for _ in range(2):
        assert run_cli(capsys, "degree", "b*b_x") == (0, "degree 2\nclass nonzero\n", "")
    assert cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [["--help"], ["bracket", "b*b_x"]], ids=["help", "usage-error"])
def test_shared_parser_prints_the_same_bytes_each_time(capsys, argv):
    first = _exit_output(capsys, *argv)
    assert run_cli(capsys, "degree", "b*b_x") == (0, "degree 2\nclass nonzero\n", "")
    assert _exit_output(capsys, *argv) == first
    code, out, err = first
    if argv == ["--help"]:
        assert (code, err) == (0, "") and out.startswith("usage: varschouten")
    else:
        assert (code, out) == (2, "") and err.endswith("the following arguments are required: eta\n")


def test_an_argument_with_a_leading_minus_follows_double_dash(capsys):
    assert run_cli(capsys, "bracket", "--", "b*b_x", "-q*b") == (0, "degree 2\n2*b*b_x\n", "")
    # without "--" argparse reads "-q*b" as an unknown option and misses eta;
    # the error names the token, not the missing argument
    code, out, err = _exit_output(capsys, "bracket", "b*b_x", "-q*b")
    assert (code, out) == (2, "")
    assert err.endswith("error: unknown option '-q*b'; polynomials starting with '-' follow '--'\n")
    assert _exit_output(capsys, "bracket", "--", "-q*b")[2].endswith("required: eta\n")


def test_a_trailing_argument_with_a_leading_minus_is_named(capsys):
    # with every positional filled, argparse would leave "-q*b" to the
    # top-level parser's "unrecognized arguments", without the hint
    code, out, err = _exit_output(capsys, "bracket", "b*b_x", "b", "-q*b")
    assert (code, out) == (2, "")
    assert err.endswith("error: unknown option '-q*b'; polynomials starting with '-' follow '--'\n")
    assert _exit_output(capsys, "bracket", "b*b_x", "b", "c")[2].endswith(
        "error: unrecognized arguments: c\n"
    )
