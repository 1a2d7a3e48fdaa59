"""Command-line front end.

Exit codes: 0 success (and true verdicts), 1 false verdicts or battery
failures, 2 parse errors, 3 mathematical domain errors.  Output is plain
text by default, LaTeX with --latex; identical argv and seed produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .algebra import DomainError, EngineError, Geometry
from .batteries import run_all
from .multivector import evaluate, insert, multivector
from .parser import ParseError, parse_polynomial
from .printing import format_polynomial
from .randgen import GeneratorConfig
from .schouten import bracket_poisson, bracket_recursive, is_poisson, jacobi_defect, q_field
from .session import Session, load_session
from .variational import equivalent, is_exact, normalize_to_bA_form

# the default 25 selftest cases take seconds, so this cap bounds a run at minutes
_MAX_SELFTEST_CASES = 1000


class _MissingPositional(Exception):
    """argparse's missing-argument error, raised so that parse_known_args can reword it."""


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  argparse takes an argument that starts with '-',
    such as the polynomial -q*b, for an unknown option: it then reports the
    positional argument it misses or, when none is missing, leaves the token to
    the top-level parser's "unrecognized arguments".  Either way this error
    names the token instead."""

    def error(self, message):
        if message.startswith("the following arguments are required"):
            raise _MissingPositional(message)
        super().error(message)

    def parse_known_args(self, args=None, namespace=None):
        try:
            namespace, extras = super().parse_known_args(args, namespace)
            message = None
        except _MissingPositional as missing:
            message, extras = str(missing), args or ()
        for arg in args or ():
            if arg == "--":
                break
            if (arg in extras and arg.startswith("-")
                    and arg.partition("=")[0] not in self._option_string_actions
                    and not self._negative_number_matcher.match(arg)):
                message = f"unknown option {arg!r}; polynomials starting with '-' follow '--'"
                break
        if message is None:
            return namespace, extras
        super().error(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first main() call and reused by every later one.

    parse_args leaves the parser as it was: each call gets a fresh Namespace,
    and argparse looks up sys.stdout and sys.stderr when it prints.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--geometry", metavar="n,m,s", help="base dim, fiber dim, covector slots")
    common.add_argument("--file", metavar="SESSION", help="session file with geometry and lets")
    common.add_argument("--latex", action="store_true", help="print polynomials as LaTeX")

    top = argparse.ArgumentParser(prog="varschouten", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def command(name, run, help, *positionals):
        """Declare a subcommand: its help line, its positionals and the handler main runs."""
        p = sub.add_parser(name, parents=[common], help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(run=run)
        return p

    command("bracket", functools.partial(_cmd_bracket, bracket_poisson),
            "Schouten bracket, density formula", "xi", "eta")
    command("bracket-recursive", functools.partial(_cmd_bracket, bracket_recursive),
            "Schouten bracket via insertion recursion", "xi", "eta")
    p = command("eval", _cmd_eval, "evaluate a k-vector on k covector slots", "xi")
    p.add_argument("slots", nargs="*", help="slot numbers or session aliases")
    command("insert", _cmd_insert, "fill the rightmost argument with a slot", "xi", "slot")
    command("normalize", _cmd_normalize, "rewrite so every term starts with an underived b", "density")
    command("equiv", _cmd_equiv, "do two densities define the same functional?", "lhs", "rhs")
    command("degree", _cmd_degree, "b-degree and class triviality of a density", "density")
    command("jacobi", _cmd_jacobi, "graded Jacobi defect of three multivectors", "xi", "eta", "zeta")
    command("poisson-check", _cmd_poisson_check, "certify [[P,P]] = 0 for a bivector", "bivector")
    command("qfield", _cmd_qfield, "sections of the evolutionary field of a multivector", "xi")
    p = command("selftest", _cmd_selftest, "run the verification batteries")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=25)
    return top


def _environment(args) -> Session:
    """Geometry and name bindings for this invocation."""
    session = None
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{args.file}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        session = load_session(text)
    if args.geometry:
        parts = args.geometry.split(",")
        if len(parts) != 3:
            raise DomainError("--geometry takes n,m,s")
        try:
            g = Geometry(*(int(p) for p in parts))
        except ValueError:
            raise DomainError("--geometry takes three integers") from None
        if session is not None and session.geometry != g:
            raise DomainError("--geometry disagrees with the session file")
        if session is None:
            session = Session(g)
    if session is None:
        session = Session(Geometry(1, 1, 4))
    return session


def _parse(text: str, session: Session):
    return parse_polynomial(text, session.geometry, session.names)


def _slot(text: str, session: Session) -> int:
    if text in session.slots:
        return session.slots[text]
    if not text.isdecimal():
        raise DomainError(f"slot {text!r} is neither a number nor a declared alias")
    return int(text)


def _show(f, args) -> str:
    return format_polynomial(f, latex=args.latex)


def _show_class(density, args) -> str:
    """A nonzero class's density: in bA form from b-degree 1 up, as computed at degree 0."""
    if density.homogeneous_degree() >= 1:
        density = normalize_to_bA_form(density)
    return _show(density, args)


def _cmd_bracket(route, args, session) -> int:
    xi = multivector(_parse(args.xi, session))
    eta = multivector(_parse(args.eta, session))
    report = route(xi, eta)
    if report.zero:
        print("degree none")
        print("0")
        return 0
    print(f"degree {report.degree}")
    print(_show_class(report.representative.density, args))
    return 0


def _cmd_eval(args, session) -> int:
    xi = multivector(_parse(args.xi, session))
    slots = tuple(_slot(s, session) for s in args.slots)
    print(_show(evaluate(xi, slots).density, args))
    return 0


def _cmd_insert(args, session) -> int:
    xi = multivector(_parse(args.xi, session))
    print(_show(insert(xi, _slot(args.slot, session)).density, args))
    return 0


def _cmd_normalize(args, session) -> int:
    print(_show(normalize_to_bA_form(_parse(args.density, session)), args))
    return 0


def _cmd_equiv(args, session) -> int:
    same = equivalent(_parse(args.lhs, session), _parse(args.rhs, session))
    print("equivalent" if same else "not equivalent")
    return 0 if same else 1


def _cmd_degree(args, session) -> int:
    f = _parse(args.density, session)
    m = multivector(f)
    print(f"degree {m.degree}")
    print(f"class {'zero' if is_exact(f) else 'nonzero'}")
    return 0


def _cmd_jacobi(args, session) -> int:
    xi = multivector(_parse(args.xi, session))
    eta = multivector(_parse(args.eta, session))
    zeta = multivector(_parse(args.zeta, session))
    defect = jacobi_defect(xi, eta, zeta)
    if defect.is_zero:
        print("zero class")
        return 0
    print("nonzero class")
    print(_show_class(defect.density, args))
    return 1


def _cmd_poisson_check(args, session) -> int:
    p = multivector(_parse(args.bivector, session))
    ok, witness = is_poisson(p)
    if ok:
        print("PASS")
        return 0
    print("FAIL")
    print(_show_class(witness.density, args))
    return 1


def _cmd_qfield(args, session) -> int:
    field = q_field(multivector(_parse(args.xi, session)))
    print(f"parity {field.parity}")
    m = session.geometry.m
    for kind, sections in (("q", field.q_sections), ("b", field.b_sections)):
        for alpha, section in enumerate(sections, 1):
            label = kind if m == 1 else f"{kind}{alpha}"
            print(f"{label}: {_show(section, args)}")
    return 0


def _cmd_selftest(args, session) -> int:
    if not 1 <= args.cases <= _MAX_SELFTEST_CASES:
        raise DomainError(f"--cases must be in 1..{_MAX_SELFTEST_CASES}, got {args.cases}")
    cfg = GeneratorConfig(geometry=session.geometry, seed=args.seed)
    reports = run_all(cfg, cases=args.cases)
    failed = 0
    for report in reports:
        print(report.summary_line())
        failed += len(report.failures)
        for rec in report.failures:
            print(f"  case {rec.case}: {rec.detail}", file=sys.stderr)
            for text in rec.inputs:
                print(f"    {text}", file=sys.stderr)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        session = _environment(args)
        return args.run(args, session)
    except ParseError as pe:
        print(f"parse error: {pe}", file=sys.stderr)
        return 2
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

