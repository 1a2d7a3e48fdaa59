"""Every per-layer label of BENCHMARK.json names a callable the benchmark traces.

perfbench/run.py reads each label's spans with `source[label]`, so deleting
or renaming a traced function would stop the benchmark with a KeyError; a
work count or `randgen.random_density`, read with a default, would read 0
without a word.  The labels are resolved by planning perfbench/tracing.py's
own wrappers over the engine, without installing them: a public function
defined in `varschouten.<layer>`, or a method of a traced class whose name,
stripped of underscores, is the label's last part.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_labels() -> set[str]:
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        importlib.import_module(f"varschouten.{layer}")
    tracer = tracing.Tracer()
    tracer._plan(importlib.import_module("varschouten"))
    return set(tracer.labels)


def test_every_per_layer_label_resolves():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        m["name"].rpartition(".")[0]
        for m in spec["per_layer"]
        if not m["name"].startswith(("trace.", "heap."))
    }
    wanted.add("randgen.random_density")  # run.py's draws_per_accept counts its calls
    labels = traced_labels()
    assert "algebra.mul" in labels and "multivector.iota" in labels
    assert sorted(wanted - labels) == []
