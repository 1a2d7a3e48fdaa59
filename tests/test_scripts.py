"""The two scripts the README promises run to completion.

Each runs in a subprocess against the checkout's src/ (see conftest.py),
the way a reader would start it.  The worked examples print exact values,
so their whole output is compared with the files in tests/golden/.
bench_pairs.py takes half an hour, so only its summary functions, its
alternation of the repeated battery runs, its battery runs (with two cases)
and its line count of the engine are checked.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=300,
    )


def test_worked_examples_script():
    for argv, golden in (((), "worked_examples.txt"), (("--latex",), "worked_examples_latex.txt")):
        proc = run_script("worked_examples.py", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (GOLDEN / golden).read_text()


def test_certify_bivectors_script():
    proc = run_script("certify_bivectors.py", "--fuzz", "5")
    assert proc.returncode == 0, proc.stderr
    assert "q_x*b*b_x: not Poisson, witness class 4*q_x*b*b_x*b_xx" in proc.stdout.splitlines()


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_pairs_summarizes_the_per_pair_ratios():
    bench = load_bench_pairs()
    got = bench.compare([2.0, 4.0, 8.0, 16.0, 32.0], [3.0, 4.0, 12.0, 8.0, 32.0], "higher")
    assert got["pairs_won"] == {"parent": 1, "change": 2}
    assert got["pair_ratio"] == {"median": 1.0, "q1": 1.0, "q3": 1.5, "runs": [1.5, 1.0, 1.5, 0.5, 1.0]}


def test_bench_pairs_repeats_each_side_alternating_and_keeps_the_spread():
    bench = load_bench_pairs()
    order = []
    runs = bench.repeat_sides({"parent": "p", "change": "c"}, lambda tree: order.append(tree) or len(order))
    assert order == ["p", "c", "c", "p", "p", "c"]
    assert runs == {"parent": [1, 4, 5], "change": [2, 3, 6]}
    got = bench.spread([{"wall_time_s": t, "failures": 0} for t in (2.0, 1.0, 4.0)])
    assert got == {"wall_time_s": {"median": 2.0, "min": 1.0, "max": 4.0, "runs": [2.0, 1.0, 4.0]},
                   "failures": [0, 0, 0]}


def test_bench_pairs_times_each_battery_on_a_tree():
    got = load_bench_pairs().battery_times(SCRIPTS.parent, cases=2)
    assert list(got) == ["definitions-agree", "jacobi", "commutator", "remarks", "golden-examples"]
    for run in got.values():
        assert run["failures"] == 0 and run["wall_time_s"] > 0


def test_bench_pairs_times_the_definitions_battery_at_each_geometry():
    got = load_bench_pairs().geometry_times(SCRIPTS.parent, cases=2)
    assert list(got) == ["2,2,3", "3,1,3", "1,2,4"]
    for run in got.values():
        assert run["failures"] == 0 and run["wall_time_s"] > 0


def test_bench_pairs_counts_the_engine_lines_of_a_tree(tmp_path):
    engine = tmp_path / "src" / "varschouten"
    (engine / "sub").mkdir(parents=True)
    (engine / "a.py").write_text("one\ntwo\nthree\n")
    (engine / "b.py").write_text("four\nfive")  # no final newline: wc -l counts 1
    (engine / "notes.txt").write_text("not\ncounted\n")
    (engine / "sub" / "c.py").write_text("not counted\n")
    assert load_bench_pairs().src_lines(tmp_path) == 4
