"""Alternating parent/change pairs of the benchmark, summarized in one JSON file.

    python3 scripts/bench_pairs.py PARENT_SHA --pairs 10 --seconds 30 --out BENCH_9.json

The parent is exported with `git archive PARENT_SHA`, and the change is the
checkout as it stands (tracked files, and untracked ones that are not
ignored), each into its own temporary directory.  Pair i runs
`perfbench/run.py --seed i` once per side on every workload of
BENCHMARK.json, one process at a time; which side goes first alternates from
pair to pair.  For each workload and end-to-end metric the file records each
side's runs, median and quartiles, and the pairs each side won (ties count
for neither), next to both SHAs and the Python version.  It also records
"pair_ratio": the median and quartiles of the per-pair ratios change/parent.
The two runs of a pair are minutes apart, so the ratios cancel the machine's
slower drift, which the medians of the two sides do not.  After the pairs,
each side runs `perfbench/run.py --trace 1 --seed 1` once per workload, and
the file records every per-layer metric of those runs under
"per_layer": {workload: {metric: {"parent": v, "change": v}}}, so that it shows
in which layer a change of the end-to-end metrics sits.  Last, each side runs
the verification batteries, `batteries.run_all(GeneratorConfig(seed=0,
max_order=2), cases=100)` in a subprocess on that side's src/, and the file
records each battery's wall time and failure count under "batteries", so a
change to the engine also shows at the battery layer.  Each side also runs
`battery_definitions_agree` at each geometry (n,m,s) of GEOMETRIES, which
the benchmark's workloads do not reach, with the wall time and failure
count of each under "geometries".  One run per side cannot tell a change
from the machine's spread, so both blocks run REPEATS times per side, which
side goes first alternating, and record for each battery and side the
median wall time with its min and max, every run's time and every run's
failure count.  "src_lines": {"parent": N,
"change": M} is the size of each side's engine, the total `wc -l` of
src/varschouten/*.py in its exported tree.  The change's SHA is
HEAD's; when the checkout has uncommitted edits as the run starts, the file
says so.  Either way it names the measured files by their git tree ids:
change_tree for the whole exported checkout, change_src_tree for its src/
(the engine), which `git rev-parse COMMIT:src` matches on any commit
carrying that engine.
Without --out the JSON goes to stdout; progress goes to stderr.

A run takes about pairs * workloads * 2 * (seconds + 10 s of set-up and
checks), plus a few seconds per traced run and some 15 to 30 s per
repeat of the two battery blocks: some 30 to 45 minutes at the defaults,
which is why Tier-1 does not run it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def export_commit(sha: str, dest: Path) -> None:
    tar = subprocess.run(
        ["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def export_checkout(dest: Path) -> None:
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted in the checkout is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def checkout_tree() -> str:
    """The git tree id of the files export_checkout copies, written through a
    scratch index: neither the real index nor any ref moves."""
    with tempfile.TemporaryDirectory(prefix="bench-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp, "index"))}
        for args in (["read-tree", "HEAD"], ["add", "--all"], ["write-tree"]):
            out = subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True).stdout
        return out.strip()


def run_once(tree: Path, workload: str, seed: int, *options: str) -> dict:
    """One benchmark process; its last stdout line is the result object."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *options]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


BATTERY_CASES = 100
_BATTERIES = (
    "import json; from varschouten.batteries import run_all; "
    "from varschouten.randgen import GeneratorConfig; "
    "print(json.dumps([(r.name, r.wall_time, len(r.failures)) "
    "for r in run_all(GeneratorConfig(seed=0, max_order=2), cases={cases})]))"
)


GEOMETRIES = ((2, 2, 3), (3, 1, 3), (1, 2, 4))
GEOMETRY_CASES = 44
_GEOMETRIES = (
    "import json; from varschouten.algebra import Geometry; "
    "from varschouten.batteries import battery_definitions_agree; "
    "from varschouten.randgen import GeneratorConfig; "
    "print(json.dumps([(r.wall_time, len(r.failures)) for r in ("
    "battery_definitions_agree(GeneratorConfig(geometry=Geometry(*g), seed=1, max_order=2, max_terms=3), "
    "cases={cases}) for g in {geometries})]))"
)


def run_batteries(tree: Path, code: str) -> list:
    """The JSON that code prints, run in a subprocess on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"the battery run in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def battery_times(tree: Path, cases: int = BATTERY_CASES) -> dict:
    """{battery: {"wall_time_s": s, "failures": n}} of one run_all in a subprocess on tree's src/."""
    runs = run_batteries(tree, _BATTERIES.format(cases=cases))
    return {name: {"wall_time_s": t, "failures": n} for name, t, n in runs}


def geometry_times(tree: Path, cases: int = GEOMETRY_CASES) -> dict:
    """{geometry: {"wall_time_s": s, "failures": n}} of battery_definitions_agree at each of
    GEOMETRIES, in one subprocess on tree's src/."""
    runs = run_batteries(tree, _GEOMETRIES.format(cases=cases, geometries=GEOMETRIES))
    return {",".join(map(str, g)): {"wall_time_s": t, "failures": n} for g, (t, n) in zip(GEOMETRIES, runs)}


REPEATS = 3


def repeat_sides(trees: dict, timer) -> dict:
    """{side: [timer(tree), ...]}, REPEATS runs per side, which side goes first alternating."""
    runs: dict = {side: [] for side in SIDES}
    for i in range(REPEATS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(timer(trees[side]))
    return runs


def spread(runs: list[dict]) -> dict:
    """The repeated runs of one battery on one side: the median wall time with
    its min and max, every run's time, and every run's failure count."""
    times = [r["wall_time_s"] for r in runs]
    return {"wall_time_s": {"median": statistics.median(times), "min": min(times), "max": max(times),
                            "runs": times},
            "failures": [r["failures"] for r in runs]}


def src_lines(tree: Path) -> int:
    """The total `wc -l` (newline count) of tree's src/varschouten/*.py."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "varschouten").glob("*.py"))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1 if better == "higher" else -1
    won = {
        "parent": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "change": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }
    p, c = summary(parent), summary(change)
    ratio = summary([b / a for a, b in zip(parent, change)])
    return {"better": better, "parent": p, "change": c, "pairs_won": won,
            "median_change": c["median"] / p["median"] - 1, "pair_ratio": ratio}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", help="file to write the JSON to, instead of stdout")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    per_layer = [m["name"] for m in spec["per_layer"]]
    shas = {"parent": git("rev-parse", f"{args.parent}^{{commit}}").strip(),
            "change": git("rev-parse", "HEAD").strip()}
    tree, dirty = checkout_tree(), bool(git("status", "--porcelain"))
    results: dict = {w: {side: [] for side in SIDES} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        export_commit(shas["parent"], trees["parent"])
        export_checkout(trees["change"])
        for i in range(1, args.pairs + 1):
            for workload in workloads:
                for side in SIDES if i % 2 else SIDES[::-1]:
                    result = run_once(trees[side], workload, i, "--seconds", str(args.seconds))
                    results[workload][side].append(result)
                    rate = result["metrics"]["cases_per_s"]["value"]
                    print(f"pair {i} {workload} {side}: {rate:.1f} cases/s", file=sys.stderr)
        layers = {w: {side: run_once(trees[side], w, 1, "--trace", "1")["metrics"] for side in SIDES}
                  for w in workloads}
        print("traced runs done", file=sys.stderr)
        batteries = repeat_sides(trees, battery_times)
        geometries = repeat_sides(trees, geometry_times)
        print("battery runs done", file=sys.stderr)
        lines = {side: src_lines(trees[side]) for side in SIDES}

    report = {
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "change_has_uncommitted_edits": dirty,
        "change_tree": tree,
        "change_src_tree": git("rev-parse", f"{tree}:src").strip(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": list(range(1, args.pairs + 1)),
        "src_lines": lines,
        "workloads": {
            w: {
                "failed": {side: [r["failed"] for r in results[w][side]] for side in SIDES},
                "attempted": {side: [r["attempted"] for r in results[w][side]] for side in SIDES},
                "metrics": {
                    name: compare(
                        *([r["metrics"][name]["value"] for r in results[w][side]] for side in SIDES),
                        better[name],
                    )
                    for name in better
                },
            }
            for w in workloads
        },
        "per_layer": {
            w: {name: {side: layers[w][side][name]["value"] for side in SIDES} for name in per_layer}
            for w in workloads
        },
        "batteries": {
            "config": "GeneratorConfig(seed=0, max_order=2)",
            "cases": BATTERY_CASES,
            "repeats": REPEATS,
            "runs": {name: {side: spread([run[name] for run in batteries[side]]) for side in SIDES}
                     for name in batteries["parent"][0]},
        },
        "geometries": {
            "battery": "definitions-agree",
            "config": "GeneratorConfig(geometry=Geometry(n, m, s), seed=1, max_order=2, max_terms=3)",
            "cases": GEOMETRY_CASES,
            "repeats": REPEATS,
            "runs": {g: {side: spread([run[g] for run in geometries[side]]) for side in SIDES}
                     for g in geometries["parent"][0]},
        },
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
