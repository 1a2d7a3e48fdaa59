"""Span tracing of varschouten's layer boundaries, installed from outside.

`Tracer.install` replaces every public function of the layer modules with a
wrapper, in each varschouten module namespace that holds it (so a call that
goes through `from .variational import is_exact` is seen too), and wraps
the methods of `DiffPolynomial` and `EvolutionaryField` on the class.
`Tracer.uninstall` puts the originals back.  No source file is changed.

Spans live in memory as parallel arrays: name, parent span, case, start,
end, and `cover`, the whole interval the wrapper occupied including its own
bookkeeping.  A span's self time is its duration minus the covers of its
direct children, so the wrapper cost of a child is not charged to the
parent.  Work counts (terms in and out, multiplied pairs, verdicts, ...) are
taken at the same boundaries, after the span's end time is read.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array
from collections import defaultdict

LAYERS = (
    "algebra",
    "variational",
    "multivector",
    "schouten",
    "parser",
    "printing",
    "session",
    "cli",
    "randgen",
)

# classes whose methods are wrapped on the class, by layer
TRACED_CLASSES = {"algebra": "DiffPolynomial", "schouten": "EvolutionaryField"}

# operator methods traced under their bare name (algebra.mul, algebra.add, ...)
_OPERATORS = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__", "__bool__"}


def _method_label(layer: str, name: str) -> str:
    return f"{layer}.{name.strip('_')}"


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cover = array("d")
        self.outer = array("b")  # 1 unless an enclosing span has the same name
        self._stack: list[int] = []
        self._open: list[int] = []  # open spans per name id
        self.case_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.td_pairs: set = set()  # distinct (monomial, dim) total-derivative applications
        self._swaps: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper

    # -- wrapping ---------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label in self._ids:
            raise ValueError(f"two traced callables share the label {label!r}")
        self._ids[label] = len(self.labels)
        self.labels.append(label)
        self._open.append(0)
        return self._ids[label]

    def _wrap(self, label: str, fn, count=None):
        nid = self._label_id(label)
        names, parents, cases = self.name, self.parent, self.case
        starts, ends, covers, outers = self.start, self.end, self.cover, self.outer
        stack, open_ = self._stack, self._open
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            enter = clock()
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cases.append(tracer.case_id)
            outers.append(open_[nid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            covers.append(0.0)
            open_[nid] += 1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[nid] -= 1
                starts[idx] = start
                ends[idx] = end
                covers[idx] = end - enter
            if count is not None:
                count(args, result)
            covers[idx] = clock() - enter
            return result

        traced.__name__ = getattr(fn, "__name__", label)
        traced.__qualname__ = getattr(fn, "__qualname__", label)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the layers of an imported varschouten package.

        The wrappers are built on the first call; later calls put the same
        wrappers back, so one Tracer can be switched on and off.
        """
        if not self._swaps:
            self._plan(package)
        for owner, name, _, wrapper in self._swaps:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._swaps):
            setattr(owner, name, original)

    def _plan(self, package) -> None:
        prefix = package.__name__ + "."
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for name, obj in sorted(vars(mod).items()):
                if (
                    not name.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[id(obj)] = self._wrap(
                        f"{layer}.{name}", obj, self._counter(f"{layer}.{name}")
                    )
        for mod in namespaces:
            for name, obj in vars(mod).items():
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._swaps.append((mod, name, obj, wrapper))
        for layer, cls_name in TRACED_CLASSES.items():
            cls = getattr(sys.modules[prefix + layer], cls_name)
            for name, raw in vars(cls).items():
                if name.startswith("_") and name not in _OPERATORS:
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                if not isinstance(fn, types.FunctionType) or inspect.isgeneratorfunction(fn):
                    continue
                label = _method_label(layer, name)
                wrapper = self._wrap(label, fn, self._counter(label))
                self._swaps.append((cls, name, raw, staticmethod(wrapper) if static else wrapper))

    # -- work counts --------------------------------------------------------------

    def _counter(self, label: str):
        counts = self.counts
        if label == "algebra.total_derivative":
            pairs = self.td_pairs

            def count(args, result):
                poly, dim = args[0], args[1]
                counts["algebra.total_derivative.terms_in"] += len(poly.terms)
                counts["algebra.total_derivative.terms_out"] += len(result.terms)
                pairs.update((m, dim) for m in poly.terms)

            return count
        if label == "algebra.mul":

            def count(args, result):
                left, right = args
                if hasattr(right, "terms"):  # polynomial times polynomial, not a scalar
                    counts["algebra.mul.pairs"] += len(left.terms) * len(right.terms)
                    counts["algebra.mul.terms_out"] += len(result.terms)

            return count
        if label == "algebra.partial":

            def count(args, result):
                counts["algebra.partial.terms_in"] += len(args[0].terms)

            return count
        if label == "schouten.schouten_density":

            def count(args, result):
                counts["schouten.schouten_density.terms_out"] += len(result.terms)

            return count
        if label == "variational.is_exact":

            def count(args, result):
                counts["variational.is_exact.exact"] += bool(result)

            return count
        if label == "parser.parse_polynomial":

            def count(args, result):
                counts["parser.parse_polynomial.chars"] += len(args[0])

            return count
        return None

    # -- aggregation --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per label: calls, total_s (outermost spans only) and self_s."""
        n = len(self.name)
        child_cover = array("d", bytes(8 * n))
        parent, cover = self.parent, self.cover
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_cover[p] += cover[i]
        calls = [0] * len(self.labels)
        total = [0.0] * len(self.labels)
        self_s = [0.0] * len(self.labels)
        name, start, end, outer = self.name, self.start, self.end, self.outer
        for i in range(n):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child_cover[i]
            if outer[i]:
                total[nid] += dur
        return {
            label: {"calls": calls[i], "total_s": total[i], "self_s": self_s[i]}
            for i, label in enumerate(self.labels)
        }

    def child_calls(self, parent_label: str, child_label: str) -> int:
        """Spans of child_label whose direct parent is a parent_label span."""
        pid, cid = self._ids.get(parent_label), self._ids.get(child_label)
        name, parent = self.name, self.parent
        return sum(
            1
            for i in range(len(name))
            if name[i] == cid and parent[i] >= 0 and name[parent[i]] == pid
        )
