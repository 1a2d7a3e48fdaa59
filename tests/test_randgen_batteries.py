"""Seeded generators and the verification batteries at small case counts."""

import re

import pytest

import varschouten.batteries as batteries
import varschouten.schouten as schouten
from varschouten import (
    BatteryReport,
    DomainError,
    FailureRecord,
    GeneratorConfig,
    Geometry,
    Multivector,
    battery_commutator,
    battery_definitions_agree,
    battery_golden_examples,
    battery_jacobi,
    battery_remarks,
    format_polynomial,
    is_exact,
    random_exact,
    random_multivector,
    run_all,
)


def test_generator_defaults_match_the_cli_contract():
    cfg = GeneratorConfig()
    assert cfg.geometry == Geometry(1, 1, 4)
    assert (cfg.seed, cfg.max_degree, cfg.max_order) == (0, 3, 3)


def test_generation_is_a_pure_function_of_seed_and_salt():
    cfg = GeneratorConfig(seed=0)
    a = random_multivector(cfg, 2, salt="t")
    assert a.density == random_multivector(cfg, 2, salt="t").density
    assert a.density != random_multivector(GeneratorConfig(seed=1), 2, salt="t").density
    assert a.density != random_multivector(cfg, 2, salt="u").density


def test_generated_multivectors_have_nonzero_class_and_right_degree():
    cfg = GeneratorConfig(seed=7)
    for degree in (0, 1, 2, 3):
        for salt in ("a", "b", "c"):
            m = random_multivector(cfg, degree, salt=salt)
            assert m.degree == degree
            assert not m.functional.is_zero


def test_generated_exact_densities_are_nonzero_divergences():
    cfg = GeneratorConfig(seed=7)
    for degree in (0, 1, 2):
        e = random_exact(cfg, degree, salt="shift")
        assert is_exact(e)
        assert not e.is_zero


def test_degree_beyond_config_bound_is_rejected():
    with pytest.raises(DomainError):
        random_multivector(GeneratorConfig(), 4)


def test_batteries_pass_at_small_case_counts():
    cfg = GeneratorConfig(seed=11)
    for battery, cases in [
        (battery_definitions_agree, 4),
        (battery_jacobi, 3),
        (battery_commutator, 3),
        (battery_remarks, 2),
    ]:
        report = battery(cfg, cases)
        assert report.ok, report.failures
        assert report.seed == 11
        assert report.wall_time > 0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("geo", [Geometry(2, 2, 3), Geometry(3, 1, 3)], ids=["2,2,3", "3,1,3"])
def test_definitions_agree_at_higher_base_dimension(geo, seed):
    report = battery_definitions_agree(GeneratorConfig(geometry=geo, seed=seed, max_order=2), 10)
    assert report.cases == 10
    assert report.failures == ()


def test_definitions_agree_checks_the_rebuilt_bracket(monkeypatch):
    # the inserted values stay right; only the b-form rebuilt from them flips sign
    real = schouten.from_slots

    def flipped(f, slots):
        rebuilt = real(f, slots)
        return Multivector(-rebuilt.functional, rebuilt.degree)

    monkeypatch.setattr(schouten, "from_slots", flipped)
    report = battery_definitions_agree(GeneratorConfig(seed=11), 4)
    assert [f.detail for f in report.failures] == [
        "recursion's rebuilt bracket disagrees with the density formula"
    ] * 4


def test_failure_records_carry_case_index_and_printed_inputs(monkeypatch):
    monkeypatch.setattr(batteries, "_remark2_identity_holds", lambda g: True)
    monkeypatch.setattr(batteries, "_remark1_holds", lambda h, xi: False)
    cfg = GeneratorConfig(seed=11)
    report = battery_remarks(cfg, 2)
    assert report.summary_line() == "remarks 3 3 11"
    h = random_multivector(cfg, 0, salt="rem:1:h").density
    xi = random_multivector(cfg, 2, salt="rem:1:xi").density
    assert report.failures[1] == FailureRecord(
        "remarks", 1, 11, (format_polynomial(h), format_polynomial(xi)), "pairing factor law failed"
    )
    # the fixed identity check is recorded as the case after the random ones
    assert report.failures[2] == FailureRecord(
        "remarks", 2, 11, (), "covector substitution unexpectedly satisfied the identity"
    )
    # a golden check is recorded the same way, named in the detail
    golden = battery_golden_examples(cfg)
    assert golden.summary_line() == "golden-examples 9 1 11"
    assert golden.failures == (
        FailureRecord("golden-examples", 7, 11, (), "pairing factor instance: golden value mismatch"),
    )


def test_golden_examples_battery_is_deterministic():
    report = battery_golden_examples()
    assert report.ok
    assert report.summary_line() == "golden-examples 9 0 0"


def test_run_all_order_and_summary_format():
    reports = run_all(GeneratorConfig(seed=3), cases=2)
    assert [r.name for r in reports] == [
        "definitions-agree",
        "jacobi",
        "commutator",
        "remarks",
        "golden-examples",
    ]
    for r in reports:
        assert r.ok
        assert re.fullmatch(r"[a-z-]+ \d+ \d+ \d+", r.summary_line())
    # remarks always appends the fixed must-fail check to the random cases
    assert reports[3].cases == 2


def test_failure_records_flip_the_report():
    rec = FailureRecord("jacobi", 4, 9, ("q*b",), "defect has a nonzero class")
    report = BatteryReport("jacobi", 10, (rec,), 9, 0.5)
    assert not report.ok
    assert report.summary_line() == "jacobi 10 1 9"
