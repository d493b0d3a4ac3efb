import random
import signal

import pytest

from stlab.digraph import Digraph, build_digraph
from stlab.families import fnk_block_sizes

# Wall-clock bound per test.  The slowest tier-1 test takes under 2 s on a
# 2-vCPU VM, so only a hang reaches it: a broken extension loop in the
# descent, say, then fails its test instead of stalling the run.
TIME_BOUND_S = 60


def pytest_configure(config):
    config.addinivalue_line("markers", "time_bound(seconds): this test's wall-clock bound in place of TIME_BOUND_S")


@pytest.fixture(autouse=True)
def _time_bound(request):
    """Raise TimeoutError in a test still running after its bound; no bound where SIGALRM does not exist."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    marker = request.node.get_closest_marker("time_bound")
    seconds = marker.args[0] if marker else TIME_BOUND_S

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} ran past its time bound of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_digraph(rng: random.Random, n: int, p: float = 0.5) -> Digraph:
    arcs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < p
    ]
    return build_digraph(n, arcs)


def digraph_from_mask(n: int, mask: int) -> Digraph:
    """The digraph of one mask over the n(n-1) ordered pairs.

    Pairs are taken in row-major order skipping the diagonal: bit
    u*(n-1) + (v if v < u else v - 1) is the arc (u, v).
    """
    w = n - 1
    group = (1 << w) - 1
    rows = []
    for u in range(n):
        grp = (mask >> (u * w)) & group
        rows.append((grp & ((1 << u) - 1)) | ((grp >> u) << (u + 1)))
    return Digraph(n, tuple(rows))


def enumerate_digraphs(n: int):
    """Yield every loop-free digraph on n labelled vertices exactly once (2^(n(n-1)) of them)."""
    for mask in range(1 << (n * (n - 1))):
        yield digraph_from_mask(n, mask)


def naive_find_cycle(g: Digraph, length: int):
    """Reference detector: try every sequence of `length` distinct vertices."""
    import itertools

    for seq in itertools.permutations(range(g.n), length):
        if seq[0] != min(seq):
            continue
        if all(g.has_arc(seq[i], seq[(i + 1) % length]) for i in range(length)):
            return seq
    return None


def fnk_placement_degrees(n: int, k: int) -> list[tuple[int, ...]]:
    """Reference outdegree sequence of each member of enumerate_fnk_members(n, k).

    Materialised block by block from fnk_block_sizes: a vertex of the block
    starting at label s has outdegree n - 1 - s.
    """
    q, r = divmod(n, k)
    seqs = []
    for position in range(1, q + 2) if r else [None]:
        seq: list[int] = []
        for size in fnk_block_sizes(n, k, position):
            seq += [n - 1 - len(seq)] * size
        seqs.append(tuple(seq))
    return seqs


def naive_majorizes(x, y) -> bool:
    """Reference majorization: every prefix sum of x dominates y's and the totals agree."""
    sx = sy = 0
    for a, b in zip(x, y):
        sx += a
        sy += b
        if sx < sy:
            return False
    return sx == sy
