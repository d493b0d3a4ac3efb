"""Serialization: arclist text, DOT, and versioned JSON dictionaries.

Arclist is the canonical interchange format: line 1 is ``DIGRAPH <n> <e>``
followed by exactly e lines ``<u> <v>`` with 0-based indices, sorted
lexicographically, LF-terminated.  All JSON artifacts carry ``schema: 1``.
"""

from __future__ import annotations

import json
from typing import Mapping

from stlab.digraph import Digraph, build_digraph
from stlab.invariants import InvariantBundle
# canonical_label stays importable here: perfbench's tracer wraps it at this site.
from stlab.search import ExtremalSearchReport, canonical_label

SCHEMA_VERSION = 1


def render_arclist(g: Digraph) -> str:
    lines = [f"DIGRAPH {g.n} {g.e}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


def parse_arclist(text: str) -> Digraph:
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: empty input, expected 'DIGRAPH <n> <e>'")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "DIGRAPH":
        raise ValueError(f"line 1: expected 'DIGRAPH <n> <e>', got {lines[0]!r}")
    try:
        n, e = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"line 1: vertex/arc counts must be integers, got {lines[0]!r}") from None
    arcs = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected '<u> <v>', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {i}: endpoints must be integers, got {line!r}") from None
        arcs.append((u, v))
    if len(arcs) != e:
        raise ValueError(f"header declares {e} arcs but {len(arcs)} arc lines found")
    try:
        g = build_digraph(n, arcs)
    except ValueError as exc:
        raise ValueError(f"invalid arclist: {exc}") from None
    if g.e != e:
        raise ValueError(f"header declares {e} arcs but only {g.e} are distinct")
    return g


def render_dot(g: Digraph, block_of: Mapping[int, int] | None = None) -> str:
    """DOT text; when block membership is known, vertex labels carry it."""
    lines = ["digraph G {"]
    for v in range(g.n):
        if block_of is not None:
            lines.append(f'  v{v} [label="{v} (B{block_of[v]})"];')
        else:
            lines.append(f'  v{v} [label="{v}"];')
    for u, v in g.arcs():
        lines.append(f"  v{u} -> v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_json(g: Digraph) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "n": g.n,
        "e": g.e,
        "arcs": [[u, v] for u, v in g.arcs()],
    }


def bundle_json(bundle: InvariantBundle) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "le": bundle.le,
        "m1": bundle.m1,
        "c2": bundle.c2,
        "e": bundle.e,
        "degseq": list(bundle.degseq),
    }


def report_json(report: ExtremalSearchReport) -> dict:
    # elapsed_ms is deliberately omitted: report files must be byte-identical
    # across reruns and --jobs values.
    return {
        "schema": SCHEMA_VERSION,
        "n": report.n,
        "forbidden_len": report.forbidden_len,
        "objective": report.objective,
        "scope": report.scope,
        "max_value": report.max_value,
        "searched_count": report.searched_count,
        "witnesses": [
            {
                "arclist": render_arclist(w),
                "canonical": form.hex(),
            }
            for w, form in zip(report.witnesses, report.witness_forms)
        ],
    }


def dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
