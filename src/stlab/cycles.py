"""Detection of directed cycles of an exact given length.

A copy of C_len means a directed cycle of length exactly ``len``; digraphs
may contain shorter or longer cycles and still be C_len-free.  The search
is depth-first over simple paths anchored at the minimum-labelled vertex
of the would-be cycle, so each cycle is traversed exactly once.  Two exact
prunes keep dense-but-free instances tractable: a cycle lives entirely
inside one strongly connected component, and a partial path is abandoned
as soon as the shortest way back to the anchor exceeds the arcs left.

path_ends gives, per vertex, where the simple paths of an exact arc count
from it end; the search oracle uses it to keep one-vertex extensions
C_len-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from stlab.digraph import Digraph, _iter_bits


@dataclass(frozen=True)
class CycleWitness:
    """Vertex sequence v0, ..., v_{len-1}; arc v_i -> v_{i+1} and v_last -> v0."""

    vertices: tuple[int, ...]

    def arcs(self) -> list[tuple[int, int]]:
        seq = self.vertices
        return [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]


def _closure(rows: list[int], start: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        grown = 0
        for u in _iter_bits(frontier):
            grown |= rows[u]
        frontier = grown & ~seen
        seen |= frontier
    return seen


def _strong_components(g: Digraph) -> list[int]:
    """Bitmasks of the strongly connected components, ordered by least vertex."""
    fwd = list(g.rows)
    bwd = [0] * g.n
    for u in range(g.n):
        for v in _iter_bits(g.rows[u]):
            bwd[v] |= 1 << u
    comps = []
    unassigned = (1 << g.n) - 1
    while unassigned:
        v = (unassigned & -unassigned).bit_length() - 1
        comp = _closure(fwd, v) & _closure(bwd, v)
        comps.append(comp)
        unassigned &= ~comp
    return comps


def _distances_to(g: Digraph, anchor: int, allowed: int) -> list[int]:
    """Shortest arc-count from each allowed vertex to the anchor, inf = n + 1."""
    inf = g.n + 1
    dist = [inf] * g.n
    dist[anchor] = 0
    frontier = [anchor]
    step = 0
    while frontier:
        step += 1
        grown = []
        for x in frontier:
            for u in _iter_bits(allowed):
                if dist[u] > step and g.rows[u] >> x & 1:
                    dist[u] = step
                    grown.append(u)
        frontier = grown
    return dist


def _search_anchor(g: Digraph, anchor: int, allowed: int, length: int) -> tuple[int, ...] | None:
    dist = _distances_to(g, anchor, allowed)
    path = [anchor]
    used = 1 << anchor

    def extend(v: int, depth: int) -> bool:
        nonlocal used
        if depth == length - 1:
            return g.has_arc(v, anchor)
        budget = length - depth - 1
        for w in _iter_bits(g.rows[v] & allowed & ~used):
            if dist[w] > budget:
                continue
            path.append(w)
            used |= 1 << w
            if extend(w, depth + 1):
                return True
            path.pop()
            used &= ~(1 << w)
        return False

    if extend(anchor, 0):
        return tuple(path)
    return None


def find_cycle_of_length(g: Digraph, length: int) -> CycleWitness | None:
    """A witness cycle of exactly ``length`` arcs, or None when none exists.

    A length above n fits no cycle, so every digraph is vacuously free of it.
    """
    if length < 2:
        raise ValueError(f"cycle length must be >= 2, got {length}")
    for comp in _strong_components(g):
        if comp.bit_count() < length:
            continue
        members = list(_iter_bits(comp))
        for i, anchor in enumerate(members):
            if len(members) - i < length:
                break
            above = comp & ~((2 << anchor) - 1)  # component vertices > anchor
            witness = _search_anchor(g, anchor, above, length)
            if witness is not None:
                return CycleWitness(witness)
    return None


def path_ends(g: Digraph, arcs: int) -> list[int]:
    """Bitmask per vertex u of the vertices where a simple path of exactly ``arcs`` arcs from u ends.

    A path of 0 arcs ends where it starts.  Paths grow one arc at a time as
    states (visited set, end vertex), kept as one bitmask of end vertices
    per visited set, so paths over the same vertices to the same end are
    followed once.  A new vertex sending arcs to O and receiving arcs from I
    closes a cycle of length arcs + 2 exactly when some u in O has an end in I.
    """
    if arcs < 0:
        raise ValueError(f"path length must be >= 0, got {arcs}")
    ends = []
    for start in range(g.n):
        layer = {1 << start: 1 << start}
        for _ in range(arcs):
            grown: dict[int, int] = {}
            for used, here in layer.items():
                for v in _iter_bits(here):
                    for w in _iter_bits(g.rows[v] & ~used):
                        key = used | 1 << w
                        grown[key] = grown.get(key, 0) | 1 << w
            layer = grown
        reached = 0
        for here in layer.values():
            reached |= here
        ends.append(reached)
    return ends


def is_ck_free(g: Digraph, cycle_len: int) -> bool:
    return find_cycle_of_length(g, cycle_len) is None
