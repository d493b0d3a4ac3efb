"""Spans around each layer's public functions, recorded from outside the package.

``Tracer.install`` replaces each function in ``SITES`` at the import site the
workloads reach it through (``stlab.claims.search_extremal``,
``stlab.search.canonical_label``, ...) with a wrapper that records a span:
name, start, end, parent span, op id and, for a few functions, counts taken
from the return value.  Spans stay in memory until the pass ends.  A span's
self time is its duration minus its child spans; a layer's self time is the
sum over the spans whose name starts with the layer.  ``stlab.digraph`` is
the value type every layer calls inside its own work, so its cost stays in
the callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from pathlib import Path
from time import perf_counter

# (module, attribute, span name); the span name's first component is the layer.
SITES = (
    ("stlab.cli", "main", "cli.main"),
    ("stlab.cli", "verify_theorem", "claims.verify_theorem"),
    ("stlab.cli", "search_extremal", "search.search_extremal"),
    ("stlab.cli", "report_json", "serialize.report_json"),
    ("stlab.cli", "dumps", "serialize.dumps"),
    ("stlab.serialize", "canonical_label", "search.canonical_label"),
    ("stlab.claims", "search_extremal", "search.search_extremal"),
    ("stlab.claims", "canonical_label", "search.canonical_label"),
    ("stlab.claims", "laplacian_energy", "invariants.laplacian_energy"),
    ("stlab.claims", "first_zagreb", "invariants.first_zagreb"),
    ("stlab.claims", "verify_fnk_ordering", "majorization.verify_fnk_ordering"),
    ("stlab.claims", "enumerate_fnk_members", "families.enumerate_fnk_members"),
    ("stlab.claims", "enumerate_bk01_members", "families.enumerate_bk01_members"),
    ("stlab.claims", "gen_fnk", "families.gen_fnk"),
    ("stlab.claims", "gen_transitive_tournament", "families.gen_transitive_tournament"),
    ("stlab.claims", "ex_arcs_ck", "formulas.ex_arcs_ck"),
    ("stlab.claims", "ex_le_ck", "formulas.ex_le_ck"),
    ("stlab.claims", "ex_m1_c3", "formulas.ex_m1_c3"),
    ("stlab.majorization", "gen_fnk", "families.gen_fnk"),
    ("stlab.majorization", "laplacian_energy", "invariants.laplacian_energy"),
    ("stlab.search", "canonical_label", "search.canonical_label"),
    ("stlab.search", "are_isomorphic", "search.are_isomorphic"),
    ("stlab.cycles", "find_cycle_of_length", "cycles.find_cycle_of_length"),
    ("stlab.invariants", "measure", "invariants.measure"),
)

# Counts read off a return value at the same boundary as the span.
OBSERVE = {
    "search.search_extremal": lambda report: {"masks": report.searched_count, "classes": len(report.witnesses)},
    "claims.verify_theorem": lambda rows: {"rows": len(rows)},
    "cycles.find_cycle_of_length": lambda witness: {"found": int(witness is not None)},
}

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, observe = self.spans, self._stack, OBSERVE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                span[COUNTS] = observe(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        with gzip.open(path, "wt") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"], "spans": self.spans}, out)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts and self times of one traced pass."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, float] = {}
        dedup_calls = 0
        root_s = 0.0
        for i, span in enumerate(self.spans):
            name = span[NAME]
            own = span[END] - span[START] - child[i]
            for key in (name, name.split(".")[0]):
                calls[key] = calls.get(key, 0) + 1
                self_s[key] = self_s.get(key, 0.0) + own
            for key, value in (span[COUNTS] or {}).items():
                counts[key] = counts.get(key, 0) + value
            if span[PARENT] < 0:
                root_s += span[END] - span[START]
            elif name == "search.canonical_label" and self.spans[span[PARENT]][NAME] == "search.search_extremal":
                dedup_calls += 1

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        sweep_s = self_s.get("search.search_extremal", 0.0)
        finds = calls.get("cycles.find_cycle_of_length", 0)
        metrics = {
            "search.sweep.self_s": sweep_s,
            "search.masks": counts.get("masks", 0),
            "search.masks_per_s": ratio(counts.get("masks", 0), sweep_s),
            "search.dedup_ratio": ratio(counts.get("classes", 0), dedup_calls),
            "cycles.found_ratio": ratio(counts.get("found", 0), finds),
            "claims.rows": counts.get("rows", 0),
            "trace.coverage": ratio(root_s, wall_s),
        }
        for fn in (
            "search.canonical_label",
            "search.are_isomorphic",
            "cycles.find_cycle_of_length",
            "invariants.laplacian_energy",
            "invariants.measure",
            "majorization.verify_fnk_ordering",
            "claims.verify_theorem",
        ):
            metrics[f"{fn}.calls"] = calls.get(fn, 0)
            metrics[f"{fn}.self_s"] = self_s.get(fn, 0.0)
        for layer in ("families", "claims", "formulas", "cli", "serialize"):
            metrics[f"{layer}.calls"] = calls.get(layer, 0)
            metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return metrics
