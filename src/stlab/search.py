"""Brute-force enumeration oracle over all digraphs of small order.

Every loop-free digraph on n labelled vertices is one integer mask over
the n(n-1) ordered pairs, taken in row-major order skipping the diagonal
(bit u*(n-1) + (v if v < u else v - 1) is the arc (u, v)), so row u of
the adjacency matrix is the bit group [u*(n-1), (u+1)*(n-1)).

The mask space is cut into fixed 2^18-mask chunks regardless of worker
count.  Each chunk is swept by a row-split kernel: the chunk is a grid of
low x high halves cut at a row boundary (2^8 x 2^10 masks at n = 5,
2^10 x 2^8 at n = 6).  Outdegrees, digons and forbidden cycles that lie
inside one half are evaluated on that half alone and combined as an
outer sum; only digons and cycles that cross the split need an outer AND,
and crossing cycles are grouped by their low part so each group costs one.
Everything is small-integer numpy arithmetic, so the sweep is exact.

Each chunk reduces to (local max, attaining masks), and the merge takes
the global max and unions the witnesses, so reports are identical for any
number of workers.  Witnesses are deduplicated up to isomorphism with
orbit pruning: one pending witness is canonically labelled and all n!
relabellings of it leave the pending set, so canonical labelling runs
once per isomorphism class.

The canonical label is the minimum row serialization over all vertex
relabellings compatible with iterated (outdegree, indegree) colour
refinement: each colour class takes a block of consecutive positions, in
class order.  It is exact (no hashing heuristics) and found without
enumerating those relabellings, by a lex-min partition search with
automorphism pruning (McKay & Piperno, "Practical graph isomorphism, II",
2014).  Positions are filled in order; position i takes a vertex y from
the cell holding it.  The smallest row y can get puts its out-neighbours
at the lowest positions of every cell, so that row is known at once; only
the candidates with the least row are kept, y is individualised and every
cell is split into (out-neighbours of y, the rest).  A branch whose rows
already exceed the best leaf's is pruned.  Two leaves with equal rows give
an automorphism: the search returns to where their paths part, and skips
siblings in the orbit of an explored one under the automorphisms found so
far that fix the filled positions.  are_isomorphic compares canonical
forms.  ISO_CAP is 10; the 2-byte rows of CanonicalForm cap it at 16, which
an import-time check enforces.  On a 2-vCPU Intel Xeon VM (Python 3.11),
K10 and the empty 10-vertex digraph take about 2 ms, C10 about 0.5 ms.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from stlab.digraph import Digraph, _iter_bits, is_weakly_connected

ENUM_CAP = 6
ISO_CAP = 10
CHUNK_BITS = 18
OBJECTIVES = ("LE", "M1", "ARCS")
SCOPES = ("all", "connected_only")


# ---------------------------------------------------------------------------
# Mask encoding


def pair_order(n: int) -> list[tuple[int, int]]:
    """The fixed bit order: ordered pairs row-major, diagonal skipped."""
    return [(u, v) for u in range(n) for v in range(n) if v != u]


def pair_index(n: int, u: int, v: int) -> int:
    return u * (n - 1) + (v if v < u else v - 1)


def digraph_from_mask(n: int, mask: int) -> Digraph:
    w = n - 1
    group = (1 << w) - 1
    rows = []
    for u in range(n):
        grp = (mask >> (u * w)) & group
        rows.append((grp & ((1 << u) - 1)) | ((grp >> u) << (u + 1)))
    return Digraph(n, tuple(rows))


def mask_of_digraph(g: Digraph) -> int:
    w = g.n - 1
    mask = 0
    for u, row in enumerate(g.rows):
        grp = (row & ((1 << u) - 1)) | ((row >> (u + 1)) << u)
        mask |= grp << (u * w)
    return mask


def enumerate_digraphs(n: int):
    """Yield every loop-free digraph on n labelled vertices exactly once."""
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"enumeration is capped at n <= {ENUM_CAP}, got {n}")
    for mask in range(1 << (n * (n - 1))):
        yield digraph_from_mask(n, mask)


@lru_cache(maxsize=None)
def _pair_images(n: int) -> tuple[tuple[int, ...], ...]:
    """For every vertex permutation, the bit each pair index maps to."""
    pairs = pair_order(n)
    return tuple(
        tuple(pair_index(n, perm[u], perm[v]) for u, v in pairs)
        for perm in itertools.permutations(range(n))
    )


@lru_cache(maxsize=None)
def cycle_arc_masks(n: int, length: int) -> tuple[int, ...]:
    """Arc masks of every directed cycle of exactly ``length`` on n vertices.

    Each cycle appears once, anchored at its minimum vertex.  Empty when
    length > n (no such cycle fits).
    """
    if length < 2:
        raise ValueError(f"cycle length must be >= 2, got {length}")
    masks = []
    for anchor in range(n):
        for tail in itertools.permutations(range(anchor + 1, n), length - 1):
            seq = (anchor,) + tail
            m = 0
            for i in range(length):
                m |= 1 << pair_index(n, seq[i], seq[(i + 1) % length])
            masks.append(m)
    return tuple(masks)


# ---------------------------------------------------------------------------
# Vectorized sweep


@lru_cache(maxsize=None)
def _pop_table(bits: int) -> np.ndarray:
    return np.array([v.bit_count() for v in range(1 << bits)], dtype=np.int64)


@lru_cache(maxsize=None)
def _split_cycles(n: int, length: int, low_rows: int) -> tuple[tuple, tuple, tuple]:
    """Arc masks of the length-cycles, sorted by the halves of a row split.

    Rows below low_rows form the low half of a mask, the rest the high half.
    Returns (cycles inside the low half, cycles inside the high half,
    crossing cycles), the crossing ones cut into their low and high parts
    and grouped as (low part, high parts).
    """
    low_mask = (1 << (low_rows * (n - 1))) - 1
    low, high, crossing = [], [], {}
    for cm in cycle_arc_masks(n, length):
        if not cm & ~low_mask:
            low.append(cm)
        elif not cm & low_mask:
            high.append(cm)
        else:
            crossing.setdefault(cm & low_mask, []).append(cm & ~low_mask)
    return tuple(low), tuple(high), tuple((part, tuple(rest)) for part, rest in crossing.items())


def _contains(masks: np.ndarray, arc_mask: int) -> np.ndarray:
    return (masks & arc_mask) == arc_mask


def _contains_any(masks: np.ndarray, arc_masks: tuple[int, ...]) -> np.ndarray:
    hit = np.zeros(masks.shape, dtype=bool)
    for am in arc_masks:
        hit |= _contains(masks, am)
    return hit


def _twice(masks: np.ndarray, arc_mask: int) -> np.ndarray:
    return 2 * _contains(masks, arc_mask).astype(np.int16)


def _half_values(masks: np.ndarray, n: int, rows: range, digons: tuple, objective: str) -> np.ndarray:
    """Objective terms that depend on one half only: its rows and digons."""
    w = n - 1
    pop = _pop_table(w)
    values = np.zeros(masks.shape, dtype=np.int64)
    for u in rows:
        deg = pop[(masks >> (u * w)) & ((1 << w) - 1)]
        values += deg if objective == "ARCS" else deg * deg
    if objective == "LE":
        for dm in digons:
            values += 2 * _contains(masks, dm)
    # Every value is at most n(n-1)^2 + n(n-1) <= 180, so int16 is exact.
    return values.astype(np.int16)


def _scan_chunk(args: tuple) -> tuple[int | None, list[int], int]:
    """Reduce one aligned power-of-two mask range to (local max, attaining masks, count).

    The range is split at a row boundary into a grid of high x low halves,
    mask = lo + (h << low_bits) + l.  Outdegrees, digons and cycles inside
    one half are evaluated on that half alone; only crossing digons and
    crossing cycles need an outer operation over the whole grid.
    """
    n, lo, hi, forbidden_len, objective, connected_only = args
    searched = hi - lo
    w = n - 1
    # Split at the row boundary nearest the middle of the range's bits.
    low_rows = ((searched.bit_length() - 1) // w + 1) // 2 if w else 0
    low_bits = low_rows * w
    low = np.arange(1 << low_bits, dtype=np.int64)
    high = lo + (np.arange(searched >> low_bits, dtype=np.int64) << low_bits)

    low_cycles, high_cycles, crossing = _split_cycles(n, forbidden_len, low_rows)
    dead = _contains_any(high, high_cycles)[:, None] | _contains_any(low, low_cycles)
    for low_part, high_parts in crossing:
        dead |= _contains_any(high, high_parts)[:, None] & _contains(low, low_part)
    if dead.all():
        return (None, [], searched)

    low_digons, high_digons, crossing = _split_cycles(n, 2, low_rows)
    values = (
        _half_values(high, n, range(low_rows, n), high_digons, objective)[:, None]
        + _half_values(low, n, range(low_rows), low_digons, objective)
    )
    if objective == "LE":
        # Each half marks its arc of a crossing digon as 0 or 2; the AND adds 2.
        for low_part, (high_part,) in crossing:
            values += _twice(high, high_part)[:, None] & _twice(low, low_part)

    # Score free masks value + 1 and the rest 0, then walk the distinct
    # scores downwards; only connected_only ever goes past the first.
    scored = ((values + 1) * ~dead).ravel()
    while (top := int(scored.max())) > 0:
        hits = np.flatnonzero(scored == top)
        good = [
            int(i) + lo
            for i in hits
            if not connected_only or is_weakly_connected(digraph_from_mask(n, int(i) + lo))
        ]
        if good:
            return (top - 1, good, searched)
        scored[hits] = 0
    return (None, [], searched)


@dataclass(frozen=True)
class ExtremalSearchReport:
    """Outcome of one exhaustive extremal search.

    Witnesses are the canonical representatives of every isomorphism class
    attaining the maximum, sorted by canonical bytes, so reports are fully
    deterministic.  elapsed_ms is wall-clock bookkeeping only and is kept
    out of the canonical JSON rendering.
    """

    n: int
    forbidden_len: int
    objective: str
    scope: str
    max_value: int
    witnesses: tuple[Digraph, ...]
    searched_count: int
    elapsed_ms: int


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
    excluded.  n = 6 sweeps 2^30 masks and must be enabled with allow_slow.
    """
    obj = str(objective).upper()
    if obj not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    if forbidden_len < 2:
        raise ValueError(f"forbidden cycle length must be >= 2, got {forbidden_len}")
    if not 1 <= n <= ENUM_CAP:
        raise ValueError(f"search is capped at n <= {ENUM_CAP}, got {n}")
    if n == ENUM_CAP and not allow_slow:
        raise ValueError("n=6 sweeps 2^30 masks; enable it explicitly with allow_slow")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    start = time.perf_counter()
    total = 1 << (n * (n - 1))
    step = 1 << CHUNK_BITS
    tasks = [
        (n, lo, min(lo + step, total), forbidden_len, obj, scope == "connected_only")
        for lo in range(0, total, step)
    ]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_scan_chunk, tasks))
    else:
        results = [_scan_chunk(task) for task in tasks]

    best: int | None = None
    witness_masks: list[int] = []
    searched = 0
    for local_max, local_masks, count in results:
        searched += count
        if local_max is None:
            continue
        if best is None or local_max > best:
            best = local_max
            witness_masks = list(local_masks)
        elif local_max == best:
            witness_masks.extend(local_masks)
    if best is None:
        raise RuntimeError("no digraph satisfied the scope; this should be impossible")

    # Orbit pruning: canonicalise one pending witness, then drop its n!
    # relabellings, so canonical_label runs once per isomorphism class.
    unique: dict[bytes, CanonicalForm] = {}
    pending = set(witness_masks)
    for mask in witness_masks:
        if mask not in pending:
            continue
        form = canonical_label(digraph_from_mask(n, mask))
        unique[form.data] = form
        arcs = [i for i in range(n * (n - 1)) if mask >> i & 1]
        for image in _pair_images(n):
            pending.discard(sum(1 << image[i] for i in arcs))
    witnesses = tuple(unique[data].to_digraph() for data in sorted(unique))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return ExtremalSearchReport(
        n=n,
        forbidden_len=forbidden_len,
        objective=obj,
        scope=scope,
        max_value=int(best),
        witnesses=witnesses,
        searched_count=searched,
        elapsed_ms=elapsed_ms,
    )


# ---------------------------------------------------------------------------
# Isomorphism and canonical labelling

# CanonicalForm stores each row in ROW_BYTES bytes, one bit per vertex.
ROW_BYTES = 2
if ISO_CAP > 8 * ROW_BYTES:
    raise ImportError(f"ISO_CAP = {ISO_CAP} does not fit {ROW_BYTES}-byte canonical rows")


def _refine_colors(g: Digraph) -> list[int]:
    """Iterated (outdegree, indegree) colour refinement; colours rank the classes."""
    in_rows = [sum(1 << u for u in range(g.n) if g.rows[u] >> v & 1) for v in range(g.n)]
    keys = [(row.bit_count(), into.bit_count()) for row, into in zip(g.rows, in_rows)]
    distinct = 0
    while True:
        ranking = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        colors = [ranking[key] for key in keys]
        # A discrete colouring cannot split further and keeps its order.
        if len(ranking) in (distinct, g.n):
            return colors
        distinct = len(ranking)
        keys = [
            (color, tuple(sorted(colors[w] for w in _iter_bits(row))), tuple(sorted(colors[w] for w in _iter_bits(into))))
            for color, row, into in zip(colors, g.rows, in_rows)
        ]


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Isomorphism-invariant serialization: equal bytes iff isomorphic."""

    data: bytes

    def hex(self) -> str:
        return self.data.hex()

    def to_digraph(self) -> Digraph:
        n, w = self.data[0], ROW_BYTES
        return Digraph(n, tuple(int.from_bytes(self.data[1 + w * u : 1 + w * (u + 1)], "big") for u in range(n)))


def canonical_label(g: Digraph) -> CanonicalForm:
    """Minimum row serialization over refinement-compatible relabellings.

    Found by the lex-min partition search the module docstring describes.
    """
    n, rows = g.n, g.rows
    if n > ISO_CAP:
        raise ValueError(f"canonical labelling is capped at n <= {ISO_CAP}, got {n}")
    colors = _refine_colors(g)
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
            position = {v: p for p, v in enumerate(order)}
            cert += tuple(sum(1 << position[w] for w in _iter_bits(rows[v])) for v in order[i:])
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
        scored = [
            (sum(((1 << (rows[y] & c).bit_count()) - 1) << s for c, s in zip(cells, starts)), y)
            for y in _iter_bits(cells[i])
        ]
        least = min(scored)[0]
        cert += (least,)
        if best and cert > best[0][: i + 1]:
            return n
        explored = 0
        for row, y in scored:
            if row != least:
                continue
            if explored:
                # Close the explored candidates under the automorphisms fixing the prefix.
                prefix = [cell.bit_length() - 1 for cell in cells[:i]]
                stabilizer = [a for a in autos if all(a[x] == x for x in prefix)]
                frontier = explored
                while frontier:
                    frontier = sum({1 << a[v] for v in _iter_bits(frontier) for a in stabilizer}) & ~explored
                    explored |= frontier
                if explored >> y & 1:
                    continue
            child = cells[:i] + [1 << y]
            for cell in cells[i:]:
                cell &= ~(1 << y)
                child += [part for part in (cell & rows[y], cell & ~rows[y]) if part]
            back = search(child, cert)
            if back < i:
                return back
            explored |= 1 << y
        return n

    search(classes, ())
    return CanonicalForm(bytes([n]) + b"".join(row.to_bytes(ROW_BYTES, "big") for row in best[0]))


def are_isomorphic(g: Digraph, h: Digraph) -> bool:
    """True iff g and h have the same canonical form."""
    if g.n != h.n:
        raise ValueError(f"order mismatch: {g.n} vs {h.n}")
    if g.n > ISO_CAP:
        raise ValueError(f"isomorphism testing is capped at n <= {ISO_CAP}, got {g.n}")
    return g.e == h.e and canonical_label(g) == canonical_label(h)
