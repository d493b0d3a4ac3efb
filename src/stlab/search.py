"""Exhaustive extremal search over all digraphs of small order.

search_extremal finds the exact maximum of an objective (Laplacian energy
LE, First Zagreb index M1 or arc count ARCS) over the C_L-free digraphs on
n vertices, with every isomorphism class attaining it, by a threshold
descent.  Summed over the m one-vertex deletions G - v of a digraph G on m
vertices, the objectives obey exact identities: ARCS sums to (m-2)e, M1 to
(m-3)M1 + e and LE to (m-3)LE + e + c2.  Every outdegree is at most m-1,
so M1 <= (m-1)e and LE = M1 + c2 <= (m-1)(e + c2): e >= ceil(M1/(m-1))
and e + c2 >= ceil(LE/(m-1)).  For m >= 3 a value of at least T
therefore makes the sum at least (m-2)T for ARCS and (m-3)T + ceil(T/(m-1))
for M1 and LE alike, so some deletion keeps at least T_{m-1} = ceil(sum/m)
(the averaging argument of Katona, Nemetz and Simonovits, 1964).  At m = 2
every outdegree is 0 or 1, so M1 = e, both sums are exactly 0, and the
shared rule gives 0.  Being C_L-free is hereditary, so level m, every
C_L-free digraph on m vertices with value >= T_m up to isomorphism, grows
from level m-1 by one-vertex extensions.  The new vertex sends arcs to a
set O and receives arcs from a set I; it closes a C_L exactly when a simple
path of L-2 arcs runs from O to I (cycles.path_ends), so I ranges over the
subsets of the vertices those paths miss.  Every objective grows with arcs,
so an O whose largest allowed I falls short of T_m is skipped.

Most extensions are dropped before they are built or labelled (the
invariant test ahead of the labeller in McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998).  Deleting a vertex u changes the value by
a closed per-vertex form: ARCS loses d+(u) + d-(u); M1 loses d+(u)^2 and
2d+(w) - 1 for each in-neighbour w of u; LE loses the M1 amount and 2 per
digon at u.  An extension h is kept only when its new vertex maximises
key(u) = (value(h - u), d+(u), d-(u)); _extensions takes the keys from g's
rows and in-rows, with bit n added to the rows in I and the in-rows in O,
and builds a Digraph only for the kept ones.  No class is lost: by the
averaging bound some deletion of h keeps T_{m-1}, so deleting a key-maximal
vertex u* leaves a member of level m-1, and extending that member's stored
copy re-creates h with the new vertex in the role of u*.  Every key-maximal
vertex passes, so no orbit test is needed.

Labels are spent only where two arrivals might be one class.  Each level
is bucketed by the sorted tuple of an extension's keys, an isomorphism
invariant computed anyway.  The first arrival in a bucket is stored
unlabelled; a second arrival labels both, and the bucket then keeps one
digraph per canonical form.  This is exact: isomorphic digraphs share a
bucket, so every class is stored once, and a stored member only seeds the
next level, whose classes are all reached from any representative.  At the
top level only the unlabelled members attaining the maximum are labelled,
to sort and emit the witnesses; the report keeps those canonical forms, so
nothing labels a witness again.

T_n is the best value among family members that find_cycle_of_length
confirms C_L-free and that meet the scope: the fnk chains with k = L-1 (the
single block K_n when L > n, the transitive tournament when L = 2).  Any
such lower bound keeps the descent exact, and none is a closed form, so the
oracle stays independent of the claims it checks.  connected_only filters
the top level; every seed is connected.
The cost grows with the number of classes above the thresholds, not with
the 2^(n(n-1)) labelled digraphs the answer is exact over.

The canonical label is the minimum row serialization over all vertex
relabellings compatible with iterated (outdegree, indegree) colour
refinement: each colour class takes a block of consecutive positions, in
class order.  A refinement round ranks the vertices by (colour, sorted
out-neighbour colours, sorted in-neighbour colours), with each sorted
tuple packed into one count word: with k colours, field c of b =
n.bit_length() bits (colour 0 the most significant) counts the neighbours
of colour c.  Colours refine the degrees, so the tuples within one colour
class have equal length, and for sorted tuples of equal length the
lexicographic order is the reverse of the order of their count vectors;
each word is therefore stored complemented (2^(kb) - 1 minus the counts),
and the int (colour, out-word, in-word) sorts as the tuples would.

The label is exact (no hashing heuristics) and found without enumerating
those relabellings, by a lex-min partition search with automorphism
pruning (McKay & Piperno, "Practical graph isomorphism, II", 2014).
Positions are filled in order; position i takes a vertex y from
the cell holding it.  The smallest row y can get puts its out-neighbours
at the lowest positions of every cell, so that row is known at once; only
the candidates with the least row are kept, y is individualised and every
cell is split into (out-neighbours of y, the rest).  A branch whose rows
already exceed the best leaf's is pruned.  At a leaf the remaining rows
are forced, and one packed transpose of the in-rows taken in position order
gives them all (digraph._relabelled_rows).  Two leaves with equal rows give
an automorphism: the search returns to where their paths part, and skips
siblings in the orbit of an explored one under the automorphisms found so
far that fix the filled positions.  A node filters each automorphism for
that once, when it is first needed, and closes its explored candidates
again only when they or the filtered automorphisms have grown.  Twins need
no second leaf: when a candidate's subtree returns, every vertex of its
cell with the same rows and in-rows outside the pair counts as explored,
since swapping the two is an automorphism that fixes the prefix.
are_isomorphic compares the sorted (outdegree, indegree, digons at v)
triples first and compares canonical forms only when they agree.  ISO_CAP
is 8 * ROW_BYTES = 16, every bit of CanonicalForm's 2-byte rows.  On a
2-vCPU Intel Xeon VM (Python 3.11), K16 and the empty 16-vertex digraph
take one leaf, about 0.35 and 0.3 ms; C16 takes about 0.2 ms, K10 0.15 ms
and a random 10-vertex digraph about 0.035 ms.
"""

from __future__ import annotations

import itertools
import struct
import time
from typing import Callable, Iterator, NamedTuple, Sequence

from stlab.cycles import find_cycle_of_length, path_ends
from stlab.digraph import _ROW_CODES, Digraph, _iter_bits, _relabelled_rows, in_rows, is_weakly_connected
from stlab.families import enumerate_fnk_members
from stlab.invariants import first_zagreb, laplacian_energy

# CanonicalForm stores each row in ROW_BYTES bytes, one bit per vertex, as one
# big-endian unsigned struct field; that width is the largest order labelled.
ROW_BYTES = 2
ISO_CAP = 8 * ROW_BYTES
_ROW_CODE = _ROW_CODES[ISO_CAP]
OBJECTIVES = ("LE", "M1", "ARCS")
SCOPES = ("all", "connected_only")
_MEASURES: dict[str, Callable[[Digraph], int]] = {"LE": laplacian_energy, "M1": first_zagreb, "ARCS": lambda g: g.e}


# ---------------------------------------------------------------------------
# Threshold descent


def _threshold_below(objective: str, m: int, t: int) -> int:
    """T_{m-1} from T_m = t: some deletion of a digraph on m vertices with value >= t keeps this much."""
    if objective == "ARCS":
        total = (m - 2) * t
    else:
        total = (m - 3) * t - (-t // (m - 1))
    return -(-total // m)


def _seed_value(n: int, length: int, measure: Callable[[Digraph], int], connected_only: bool) -> int:
    """Best value among family members confirmed C_length-free: a lower bound on the maximum."""
    return max(
        measure(g)
        for g in enumerate_fnk_members(n, length - 1)
        if find_cycle_of_length(g, length) is None and (is_weakly_connected(g) or not connected_only)
    )


Keys = list[tuple[int, int, int]]


def _extensions(g: Digraph, length: int, objective: str, threshold: int) -> Iterator[tuple[Digraph, Keys]]:
    """Every C_length-free one-vertex extension of g that reaches threshold and passes the key filter.

    The new vertex n = g.n sends arcs to O and receives arcs from I.  Its
    value is g's plus the gain of O (|O|, or |O|^2 as the new outdegree
    squared), plus a per-vertex gain over I (1, or 2d + 1 as an outdegree d
    grows by one), plus 2 per digon with O for LE.  An extension is kept,
    with its deletion keys, only when its new vertex is key-maximal; the
    keys are taken from g's rows and in-rows with bit n added to the rows
    in I and the in-rows in O, so a Digraph is built only for the kept ones.
    """
    n = g.n
    ends = path_ends(g, length - 2)
    ins = in_rows(g)
    step = [1 if objective == "ARCS" else 2 * row.bit_count() + 1 for row in g.rows]
    digon = 2 if objective == "LE" else 0
    # Per subset S of the old vertices: the gain of I = S, and the vertices
    # that paths from O = S reach, which I must avoid.
    gain, blocked = [0] * (1 << n), [0] * (1 << n)
    for subset in range(1, 1 << n):
        low = subset & -subset
        v = low.bit_length() - 1
        gain[subset] = gain[subset ^ low] + step[v]
        blocked[subset] = blocked[subset ^ low] | ends[v]
    base = _MEASURES[objective](g)
    bit = 1 << n
    for out in range(1 << n):
        size = out.bit_count()
        need = threshold - base - (size if objective == "ARCS" else size * size)
        allowed = ((1 << n) - 1) & ~blocked[out]
        if gain[allowed] + digon * (allowed & out).bit_count() < need:
            continue
        old_ins = tuple(into | bit if out >> u & 1 else into for u, into in enumerate(ins))
        into = allowed
        while True:
            if gain[into] + digon * (into & out).bit_count() >= need:
                rows = tuple(row | bit if into >> u & 1 else row for u, row in enumerate(g.rows)) + (out,)
                keys = _deletion_keys(rows, old_ins + (into,), objective)
                # Every class is reached with a key-maximal new vertex (module docstring).
                if keys[-1] == max(keys):
                    yield Digraph(n + 1, rows), keys
            if not into:
                break
            into = (into - 1) & allowed


def _deletion_keys(rows: Sequence[int], ins: Sequence[int], objective: str) -> Keys:
    """(value(g - u), outdegree, indegree) for every vertex u of the digraph with these rows and in-rows.

    Deleting u removes its d+(u) + d-(u) arcs.  For M1 it removes d+(u)^2 and
    each in-neighbour w's square drops by 2d+(w) - 1; for LE it also removes
    the two closed 2-walks of each digon at u.
    """
    outdeg = list(map(int.bit_count, rows))
    indeg = list(map(int.bit_count, ins))
    if objective == "ARCS":
        e = sum(outdeg)
        values = [e - d - i for d, i in zip(outdeg, indeg)]
    else:
        step = [2 * d - 1 for d in outdeg]
        m1 = sum(d * d for d in outdeg)
        values = [m1 - d * d - sum(step[w] for w in _iter_bits(into)) for d, into in zip(outdeg, ins)]
        if objective == "LE":
            digons = [(row & into).bit_count() for row, into in zip(rows, ins)]
            c2 = sum(digons)
            values = [value + c2 - 2 * at for value, at in zip(values, digons)]
    return list(zip(values, outdeg, indeg))


Level = list[tuple[bytes | None, Digraph]]


def _next_level(level: Level, length: int, objective: str, threshold: int) -> Level:
    """Level m from level m-1: one (canonical bytes or None, digraph) pair per class.

    Extensions are bucketed by their sorted deletion keys, an isomorphism
    invariant.  The first arrival in a bucket is stored unlabelled; a second
    arrival labels both, and the bucket then keeps one digraph per
    canonical form.
    """
    buckets: dict[tuple, Digraph | dict[bytes, Digraph]] = {}
    for _, g in level:
        for h, keys in _extensions(g, length, objective, threshold):
            bucket = tuple(sorted(keys))
            held = buckets.setdefault(bucket, h)
            if held is h:
                continue
            if isinstance(held, Digraph):
                held = buckets[bucket] = {canonical_label(held).data: held}
            held.setdefault(canonical_label(h).data, h)
    grown: Level = []
    for held in buckets.values():
        grown += [(None, held)] if isinstance(held, Digraph) else held.items()
    return grown


class ExtremalSearchReport(NamedTuple):
    """Outcome of one exhaustive extremal search.

    witness_forms holds the canonical forms of every isomorphism class
    attaining the maximum, sorted, so reports are fully deterministic and no
    caller needs to label a witness again; witnesses decodes them, in the
    same order, into their canonical representatives.  searched_count is
    2^(n(n-1)), the number of labelled digraphs the answer is exact over.
    elapsed_ms is wall-clock bookkeeping only and is kept out of the
    canonical JSON rendering.
    """

    n: int
    forbidden_len: int
    objective: str
    scope: str
    max_value: int
    witness_forms: tuple[CanonicalForm, ...]
    elapsed_ms: int

    @property
    def witnesses(self) -> tuple[Digraph, ...]:
        return tuple(form.to_digraph() for form in self.witness_forms)

    @property
    def searched_count(self) -> int:
        return 1 << (self.n * (self.n - 1))


def search_extremal(
    n: int,
    forbidden_len: int,
    objective: str,
    scope: str = "all",
    jobs: int = 1,
    allow_slow: bool = False,
) -> ExtremalSearchReport:
    """Exact maximum of the objective over all forbidden-cycle-free digraphs.

    objective is one of LE, M1, ARCS (case-insensitive); scope "all" or
    "connected_only".  forbidden_len may exceed n, in which case nothing is
    excluded.  n is capped at ISO_CAP, and n >= 6 must be enabled with
    allow_slow.  jobs stays for the callers that pass it: it must be >= 1
    and has no other effect, since the descent runs in one process.
    """
    obj = str(objective).upper()
    if obj not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if forbidden_len < 2:
        raise ValueError(f"forbidden cycle length must be >= 2, got {forbidden_len}")
    if not 1 <= n <= ISO_CAP:
        raise ValueError(f"n must be in 1..{ISO_CAP} (the search is capped at ISO_CAP), got {n}")
    if n >= 6 and not allow_slow:
        raise ValueError(
            f"n={n} builds every isomorphism class above the descent thresholds, a count that "
            "grows steeply with n (n=8, L=2, ARCS builds all 6,880 tournament classes); "
            "enable it explicitly with allow_slow (--allow-slow)"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    start = time.perf_counter()
    measure = _MEASURES[obj]
    connected_only = scope == "connected_only"
    thresholds = {n: _seed_value(n, forbidden_len, measure, connected_only)}
    for m in range(n, 1, -1):
        thresholds[m - 1] = _threshold_below(obj, m, thresholds[m])

    level: Level = [(None, Digraph(1, (0,)))]
    for m in range(2, n + 1):
        level = _next_level(level, forbidden_len, obj, thresholds[m])

    if connected_only:
        level = [(data, g) for data, g in level if is_weakly_connected(g)]
    values = [measure(g) for _, g in level]
    best = max(values)
    # Only the members attaining the maximum need a label, to sort and emit them.
    forms = sorted(
        CanonicalForm(data) if data is not None else canonical_label(g)
        for (data, g), value in zip(level, values)
        if value == best
    )
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return ExtremalSearchReport(
        n=n,
        forbidden_len=forbidden_len,
        objective=obj,
        scope=scope,
        max_value=best,
        witness_forms=tuple(forms),
        elapsed_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# Isomorphism and canonical labelling


def _refine_colors(g: Digraph, ins: Sequence[int]) -> list[int]:
    """Iterated (outdegree, indegree) colour refinement of g, whose in-rows are ins; colours rank the classes.

    Each round re-keys a vertex by (colour, out-counts, in-counts), packed
    into one int as the module docstring describes.
    """
    n, rows = g.n, g.rows
    bits = n.bit_length()  # a field holds any neighbour count < n
    keys = [row.bit_count() << bits | into.bit_count() for row, into in zip(rows, ins)]
    distinct = 0
    while True:
        ranking = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        # A discrete colouring cannot split further and keeps its order.
        if len(ranking) in (distinct, n):
            return colors
        distinct = len(ranking)
        width = distinct * bits
        full = (1 << width) - 1
        # Colour 0 has the most significant field; words start at full and
        # lose one unit of a field per neighbour, so they are complemented.
        weight = [1 << (distinct - 1 - color) * bits for color in colors]
        outs, ins = [full] * n, [full] * n
        for u, row in enumerate(rows):
            while row:
                low = row & -row
                w = low.bit_length() - 1
                outs[u] -= weight[w]
                ins[w] -= weight[u]
                row ^= low
        keys = [(color << width | out) << width | into for color, out, into in zip(colors, outs, ins)]


class CanonicalForm(NamedTuple):
    """Isomorphism-invariant serialization: equal bytes iff isomorphic.

    data is the vertex count n in one byte, then each row in ROW_BYTES
    big-endian bytes; one struct call writes and reads the rows.
    """

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def to_digraph(self) -> Digraph:
        data = self.data
        if not data or len(data) != 1 + ROW_BYTES * data[0]:
            raise ValueError(f"canonical form data must be 1 + {ROW_BYTES}n bytes, n = data[0]; got {len(data)}")
        return Digraph(data[0], struct.unpack(f">{data[0]}{_ROW_CODE}", data[1:]))


def canonical_label(g: Digraph) -> CanonicalForm:
    """Minimum row serialization over refinement-compatible relabellings.

    Found by the lex-min partition search the module docstring describes.
    """
    if g.n > ISO_CAP:
        raise ValueError(f"canonical labelling is capped at n <= {ISO_CAP}, got {g.n}")
    return _canonical_label(g, in_rows(g))


def _canonical_label(g: Digraph, ins: Sequence[int]) -> CanonicalForm:
    """canonical_label of g, whose in-rows are ins."""
    n, rows = g.n, g.rows
    colors = _refine_colors(g, ins)
    classes = [0] * (max(colors) + 1)
    for v, color in enumerate(colors):
        classes[color] |= 1 << v
    best: list = []  # [rows, vertex at each position] of the least leaf so far
    autos: list[list[int]] = []

    def search(cells: list[int], cert: tuple[int, ...]) -> int:
        """Explore one node; return n, or a depth whose current child an automorphism covers."""
        i = len(cert)
        if len(cells) == n:
            # A discrete partition is a leaf: the remaining rows are forced.
            order = [cell.bit_length() - 1 for cell in cells]
            cert += _relabelled_rows(ins, order)[i:]
            if not best or cert < best[0]:
                best[:] = [cert, order]
            elif cert == best[0]:
                # An automorphism maps this leaf onto the best one, so the
                # subtree where their paths part repeats an explored sibling.
                autos.append([b for _, b in sorted(zip(order, best[1]))])
                return next(p for p, (a, b) in enumerate(zip(order, best[1])) if a != b)
            return n
        starts = list(itertools.accumulate((cell.bit_count() for cell in cells), initial=0))
        starts[i] += 1  # the candidate itself takes position i
        scored = []
        for y in _iter_bits(cells[i]):
            score, row = 0, rows[y]
            for c, s in zip(cells, starts):
                score += ((1 << (row & c).bit_count()) - 1) << s
            scored.append((score, y))
        least = min(scored)[0]
        cert += (least,)
        if best and cert > best[0][: i + 1]:
            return n
        explored = seen = 0
        stabilizer: list[list[int]] = []  # the automorphisms in autos[:seen] that fix the prefix
        closed = None  # (explored, len(stabilizer)) at the last closure
        for row, y in scored:
            if row != least:
                continue
            if explored:
                # Close the explored candidates under the automorphisms fixing
                # the prefix, again only when either has grown since.
                if seen < len(autos):
                    prefix = [cell.bit_length() - 1 for cell in cells[:i]]
                    stabilizer += [a for a in autos[seen:] if all(a[x] == x for x in prefix)]
                    seen = len(autos)
                if (explored, len(stabilizer)) != closed:
                    frontier = explored
                    while frontier:
                        frontier = sum({1 << a[v] for v in _iter_bits(frontier) for a in stabilizer}) & ~explored
                        explored |= frontier
                    closed = (explored, len(stabilizer))
                if explored >> y & 1:
                    continue
            bit, out = 1 << y, rows[y]
            child = cells[:i] + [bit]
            for cell in cells[i:]:
                cell &= ~bit
                if cell & out:
                    child.append(cell & out)
                if cell & ~out:
                    child.append(cell & ~out)
            back = search(child, cert)
            if back < i:
                return back
            explored |= bit
            # A twin z of y (rows and in-rows equal outside {y, z}; equal outdegrees
            # then make y -> z iff z -> y) is in y's orbit: (y z) fixes the prefix.
            for z in _iter_bits(cells[i] & ~explored):
                if not ((rows[z] ^ out) | (ins[z] ^ ins[y])) & ~(bit | 1 << z):
                    explored |= 1 << z
        return n

    search(classes, ())
    return CanonicalForm(bytes([n]) + struct.pack(f">{n}{_ROW_CODE}", *best[0]))


def _degree_triples(g: Digraph, ins: Sequence[int]) -> list[tuple[int, int, int]]:
    """Sorted (outdegree, indegree, digons at v) over g's vertices, ins its in-rows: an isomorphism invariant."""
    pairs = zip(g.rows, ins)
    return sorted((row.bit_count(), into.bit_count(), (row & into).bit_count()) for row, into in pairs)


def are_isomorphic(g: Digraph, h: Digraph) -> bool:
    """True iff g and h have the same canonical form.

    Digraphs whose degree triples differ are told apart without labelling;
    the labeller reuses the in-rows the triples were read from.
    """
    if g.n != h.n:
        raise ValueError(f"order mismatch: {g.n} vs {h.n}")
    if g.n > ISO_CAP:
        raise ValueError(f"isomorphism testing is capped at n <= {ISO_CAP}, got {g.n}")
    if g.e != h.e:
        return False
    g_ins, h_ins = in_rows(g), in_rows(h)
    if _degree_triples(g, g_ins) != _degree_triples(h, h_ins):
        return False
    return _canonical_label(g, g_ins) == _canonical_label(h, h_ins)
