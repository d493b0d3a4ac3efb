"""Detection of directed cycles of an exact given length.

A copy of C_len means a directed cycle of length exactly ``len``; digraphs
may contain shorter or longer cycles and still be C_len-free.  The search
is depth-first over simple paths anchored at the minimum-labelled vertex
of the would-be cycle, so each cycle is traversed exactly once.  Two exact
prunes keep dense-but-free instances tractable: a cycle lives entirely
inside one strongly connected component, and a partial path is abandoned
as soon as the shortest way back to the anchor exceeds the arcs left.
Both prunes read the in-neighbour rows that digraph.in_rows unpacks from
one packed block-swap transpose per call.  The components come from two
Kosaraju passes that each visit every vertex once: a depth-first search
along the rows records finish order, then bitset closures backward along
the in-rows, taken in reverse finish order, peel off one component each.
The return prune is a bitset BFS from the anchor along the in-rows that
keeps layer d, the vertices at most d arcs from it, up to the closure;
one primitive, digraph._reach_layers, gives both it and those closures.

path_ends gives, per vertex, where the simple paths of an exact arc count
from it end; the search oracle uses it to keep one-vertex extensions
C_len-free.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from stlab.digraph import Digraph, _iter_bits, _reach_layers, in_rows


class CycleWitness(namedtuple("CycleWitness", "vertices")):
    """Vertex sequence v0, ..., v_{len-1}, a tuple; arc v_i -> v_{i+1} and v_last -> v0."""

    __slots__ = ()

    def arcs(self) -> list[tuple[int, int]]:
        seq = self.vertices
        return [(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq))]


def _strong_components(g: Digraph, into: Sequence[int]) -> list[int]:
    """Bitmasks of the strongly connected components, ordered by least vertex.

    Kosaraju-Sharir with bitsets.  Pass 1 is an iterative depth-first search
    along the rows that steps to the lowest unvisited out-neighbour and
    records each vertex when it has none left.  Pass 2 takes the vertices in
    reverse finish order: the first unassigned one reaches, backward along
    the in-rows among the unassigned vertices, exactly its own component.
    Pass 1 reads a row once per tree arc and once per finished vertex, at
    most 2n reads, and pass 2 reads each in-row once.
    """
    rows = g.rows
    order = []
    unvisited = (1 << g.n) - 1
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        stack = [root.bit_length() - 1]
        while stack:
            ahead = rows[stack[-1]] & unvisited
            if ahead:
                low = ahead & -ahead
                unvisited ^= low
                stack.append(low.bit_length() - 1)
            else:
                order.append(stack.pop())
    comps = []
    unassigned = (1 << g.n) - 1
    for v in reversed(order):
        if unassigned >> v & 1:
            comp = _reach_layers(into, v, unassigned)[-1]
            comps.append(comp)
            unassigned ^= comp
    comps.sort(key=lambda comp: comp & -comp)
    return comps


def _search_anchor(g: Digraph, into: Sequence[int], anchor: int, allowed: int, length: int) -> tuple[int, ...] | None:
    near = _reach_layers(into, anchor, allowed)
    top = len(near) - 1
    path = [anchor]
    used = 1 << anchor

    def extend(v: int, depth: int) -> bool:
        nonlocal used
        if depth == length - 1:
            return g.has_arc(v, anchor)
        budget = length - depth - 1
        for w in _iter_bits(g.rows[v] & near[min(budget, top)] & ~used):
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
    into = in_rows(g)
    for comp in _strong_components(g, into):
        if comp.bit_count() < length:
            continue
        members = list(_iter_bits(comp))
        for i, anchor in enumerate(members):
            if len(members) - i < length:
                break
            above = comp & ~((2 << anchor) - 1)  # component vertices > anchor
            witness = _search_anchor(g, into, anchor, above, length)
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
    A simple path of ``arcs`` arcs visits arcs + 1 distinct vertices, so at
    arcs >= n none exists and no layer is grown.
    """
    if arcs < 0:
        raise ValueError(f"path length must be >= 0, got {arcs}")
    if arcs >= g.n:
        return [0] * g.n
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
