"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A pass builds its operations from a ``random.Random`` seeded with the
workload name, the run seed and the pass index, which then also shuffles the
order they run in.  Within a pass no operation
repeats another's arguments, and every pass runs in a fresh interpreter, so
a result cache inside the program cannot show a gain a CLI user would not
get.  Every operation is one public call into ``stlab`` (a CLI command runs
in-process through ``stlab.cli.main``).  Functions are looked up on their
modules at call time, so the tracer's wrappers see every call.  The checks
run after the timed phase and never inside a trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from stlab import cli, cycles, invariants, search
from stlab.digraph import Digraph, build_digraph, permute
from stlab.families import (
    bk01_compositions,
    gen_bk,
    gen_complete_digraph,
    gen_fnk,
    gen_transitive_tournament,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck, ex_m1_c3
from stlab.invariants import trace_L_squared

GOLDENS = Path(__file__).resolve().parent / "goldens"

VERIFY_COMMANDS = (
    ("verify", "thm1.3", "--n-max", "64"),
    ("verify", "thm1.4", "--n-max", "64"),
    ("verify", "thm1.5", "--n-max", "64"),
    ("verify", "lemma2.1", "--n-max", "64"),
    ("verify", "lemma3.1", "--n-max", "64", "--k-max", "12"),
    # thm1.6 stops at 24: bk01_compositions grows like Fibonacci(n/2).
    ("verify", "thm1.6", "--n-max", "24"),
)
TINY_VERIFY = {"thm1.5", "lemma2.1"}

SEARCH_COMMANDS = tuple(
    ("search", "--n", "5", "--forbid-cycle", str(length), "--objective", objective) + scope
    for length in range(2, 7)
    for objective in ("le", "m1", "arcs")
    for scope in ((), ("--connected-only",))
)
TINY_SEARCH = {("3", "m1"), ("6", "arcs")}

N6_COMMAND = ("search", "--n", "6", "--forbid-cycle", "3", "--objective", "le", "--jobs", "2", "--allow-slow")


@dataclass
class Context:
    """What a pass needs besides its seed: where goldens and scratch files live."""

    scratch: Path
    goldens: Path = GOLDENS
    jobs: int = 1
    tiny: bool = False


@dataclass
class Op:
    """One timed call.  ``key`` names its arguments; ``check`` returns a failure or None."""

    key: tuple
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]


@dataclass
class PassResult:
    """One pass.  ``op_s`` and ``op_cpu_s`` are indexed by op, in build order."""

    wall_s: float
    cpu_s: float
    op_s: list[float]
    op_cpu_s: list[float]
    attempted: int
    failed: int
    failures: list[str]


def golden_name(argv: tuple[str, ...]) -> str:
    """File name of a command's golden output, e.g. ``verify-thm1.3-n-max-64.txt``."""
    suffix = ".json" if argv[0] == "search" else ".txt"
    return "-".join(arg.lstrip("-") for arg in argv) + suffix


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _compare_golden(text: str, golden: Path) -> str | None:
    try:
        want = golden.read_text()
    except OSError as exc:
        return f"cannot read golden {golden.name}: {exc}"
    if text == want:
        return None
    got_lines, want_lines = text.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            return f"{golden.name} line {i}: got {a!r}, want {b!r}"
    return f"{golden.name}: got {len(got_lines)} lines, want {len(want_lines)}"


# ---------------------------------------------------------------------------
# verify_claims


def _verify_ops(rng: random.Random, ctx: Context) -> list[Op]:
    commands = [c for c in VERIFY_COMMANDS if not ctx.tiny or c[1] in TINY_VERIFY]
    ops = []
    for argv in commands:
        golden = ctx.goldens / golden_name(argv)

        def check(result, _results, golden=golden):
            code, text = result
            if code != 0:
                return f"{golden.name}: exit {code}"
            return _compare_golden(text, golden)

        ops.append(Op(argv, lambda argv=argv: run_cli(list(argv)), check))
    return ops


# ---------------------------------------------------------------------------
# search_grid


def closed_form_max(n: int, length: int, objective: str) -> int | None:
    """The paper's closed-form maximum for one search, where one exists."""
    if objective == "le":
        return ex_le_ck(n, length - 1).value
    if objective == "arcs":
        return ex_arcs_ck(n, length - 1).value
    if length == 3:
        return ex_m1_c3(n).value
    return None


def _check_search(argv: tuple[str, ...], out: Path, golden: Path, result) -> str | None:
    code, text = result
    if code != 0 or not text.startswith("max "):
        return f"{golden.name}: exit {code}, stdout {text[:80]!r}"
    try:
        report = out.read_text()
    except OSError as exc:
        return f"{golden.name}: no report written: {exc}"
    failure = _compare_golden(report, golden)
    if failure:
        return failure
    value = json.loads(report)["max_value"]
    args = dict(zip(argv[1::2], argv[2::2]))
    want = closed_form_max(int(args["--n"]), int(args["--forbid-cycle"]), args["--objective"])
    if want is not None and value != want:
        return f"{golden.name}: max {value}, closed form {want}"
    return None


def _search_ops(rng: random.Random, ctx: Context) -> list[Op]:
    commands = [c for c in SEARCH_COMMANDS if not ctx.tiny or (c[4], c[6]) in TINY_SEARCH]
    ops = []
    for argv in commands:
        name = golden_name(argv)
        out = ctx.scratch / name
        full = list(argv) + ["--jobs", str(ctx.jobs), "--out", str(out)]
        ops.append(
            Op(
                argv,
                lambda full=full: run_cli(full),
                lambda result, _r, argv=argv, out=out, golden=ctx.goldens / name: _check_search(
                    argv, out, golden, result
                ),
            )
        )
    return ops


def _n6_ops(rng: random.Random, ctx: Context) -> list[Op]:
    out = ctx.scratch / golden_name(N6_COMMAND)
    members = {search.canonical_label(gen_bk(parts)).data for parts in bk01_compositions(6)}

    def check(result, _results):
        code, text = result
        if code != 0:
            return f"n=6 sweep: exit {code}"
        report = json.loads(out.read_text())
        got = {bytes.fromhex(w["canonical"]) for w in report["witnesses"]}
        if report["max_value"] != ex_le_ck(6, 2).value or got != members:
            return f"n=6 sweep: max {report['max_value']}, {len(got)} witness classes"
        return None

    return [Op(N6_COMMAND, lambda: run_cli(list(N6_COMMAND) + ["--out", str(out)]), check)]


# ---------------------------------------------------------------------------
# Digraph inputs for cycles_scale and iso_canon


def relabel(g: Digraph, rng: random.Random) -> Digraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute(g, perm)


def random_digraph(n: int, density: float, rng: random.Random) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                rows[u] |= 1 << v
    return rows


def circulant(n: int, steps: tuple[int, ...]) -> Digraph:
    return build_digraph(n, [(u, (u + s) % n) for u in range(n) for s in steps])


def disjoint_union(g: Digraph, h: Digraph) -> Digraph:
    return Digraph(g.n + h.n, g.rows + tuple(row << g.n for row in h.rows))


def _certificate(g: Digraph) -> tuple:
    """Isomorphism invariants: degree pairs, digon count, weak-component count."""
    indeg = [sum(row >> v & 1 for row in g.rows) for v in range(g.n)]
    pairs = sorted((g.rows[v].bit_count(), indeg[v]) for v in range(g.n))
    digons = sum(g.rows[v] >> u & 1 for u in range(g.n) for v in range(g.n) if g.rows[u] >> v & 1)
    undirected = [g.rows[u] | sum(1 << w for w in range(g.n) if g.rows[w] >> u & 1) for u in range(g.n)]
    unseen, components = (1 << g.n) - 1, 0
    while unseen:
        reach = unseen & -unseen
        frontier = reach
        while frontier:
            grown = 0
            for u in range(g.n):
                if frontier >> u & 1:
                    grown |= undirected[u]
            frontier = grown & ~reach
            reach |= grown
        unseen &= ~reach
        components += 1
    return pairs, digons, components


def _certified_different(g: Digraph, h: Digraph) -> bool:
    return g.n != h.n or g.e != h.e or _certificate(g) != _certificate(h)


# ---------------------------------------------------------------------------
# cycles_scale


def _complete_chain_lengths(sizes: list[int]) -> frozenset[int]:
    """Cycle lengths of a forward-dominating chain of complete-digraph blocks."""
    return frozenset(range(2, max(sizes) + 1))


def _fnk_input(n: int, k: int, rng: random.Random) -> tuple[Digraph, frozenset[int]]:
    q, r = divmod(n, k)
    position = rng.randint(1, q + 1) if r else None
    sizes = [k] * q
    if r:
        sizes.insert(position - 1, r)
    return gen_fnk(n, k, position), _complete_chain_lengths(sizes)


def _bk_input(n: int, rng: random.Random) -> tuple[Digraph, frozenset[int]]:
    parts, left = [], n
    while left:
        parts.append(rng.choice([p for p in (2, 4, 6, 8) if p <= left]))
        left -= parts[-1]
    # Blocks are balanced bipartite, so a block of size p has the even lengths up to 2 * (p // 2).
    return gen_bk(parts), frozenset(range(2, 2 * (max(parts) // 2) + 1, 2))


def _planted_input(n: int, lengths: list[int], rng: random.Random) -> tuple[Digraph, frozenset[int]]:
    # Dense on purpose: at densities 0.3-0.5 the exact-length DFS for L = n/2 or n
    # ran past 2 s on 6 of 200 such inputs at n = 32, which no run length averages out.
    rows = random_digraph(n, rng.uniform(0.7, 0.9), rng)
    for length in lengths:
        cycle = rng.sample(range(n), length)
        for i, u in enumerate(cycle):
            rows[u] |= 1 << cycle[(i + 1) % length]
    return Digraph(n, tuple(rows)), frozenset(lengths)


def _check_cycle(g: Digraph, length: int, lengths: frozenset[int], exact: bool, witness) -> str | None:
    if witness is None:
        return f"missed a C{length} in an input whose cycle lengths include it" if length in lengths else None
    if exact and length not in lengths:
        return f"reported a C{length} in an input with cycle lengths {sorted(lengths)}"
    seq = witness.vertices
    if len(seq) != length or len(set(seq)) != length:
        return f"witness {seq} is not a simple cycle of length {length}"
    for i, u in enumerate(seq):
        v = seq[(i + 1) % length]
        if not 0 <= u < g.n or not 0 <= v < g.n or not g.rows[u] >> v & 1:
            return f"witness {seq} uses the missing arc ({u}, {v})"
    return None


def _check_measure(g: Digraph, bundle) -> str | None:
    want = trace_L_squared(g)
    return None if bundle.le == want else f"measure le {bundle.le} != trace(L^2) {want}"


def _cycles_ops(rng: random.Random, ctx: Context) -> list[Op]:
    ops = []
    for n in (16,) if ctx.tiny else (16, 32, 64):
        lengths = sorted({3, 4, 6, n // 2, n})
        inputs = []  # (digraph, its cycle lengths, whether those are all of them)
        for k in (2, 3, 5):
            inputs += [_fnk_input(n, k, rng) + (True,) for _ in range(6)]
        inputs += [_bk_input(n, rng) + (True,) for _ in range(6)]
        inputs += [(gen_transitive_tournament(n), frozenset(), True) for _ in range(3)]
        inputs.append((gen_complete_digraph(n), frozenset(range(2, n + 1)), True))
        inputs += [_planted_input(n, lengths, rng) + (False,) for _ in range(12)]
        for g, known, exact in inputs:
            g = relabel(g, rng)
            ops.append(
                Op(("measure", g), lambda g=g: invariants.measure(g), lambda b, _r, g=g: _check_measure(g, b))
            )
            for length in lengths:
                ops.append(
                    Op(
                        ("find", g, length),
                        lambda g=g, length=length: cycles.find_cycle_of_length(g, length),
                        lambda w, _r, g=g, length=length, known=known, exact=exact: _check_cycle(
                            g, length, known, exact, w
                        ),
                    )
                )
    return ops


# ---------------------------------------------------------------------------
# iso_canon


def _iso_ops(rng: random.Random, ctx: Context) -> list[Op]:
    """Canonical-labelling and isomorphism ops over pairs whose relation is known by construction.

    Each group is (base, non-isomorphic partner): two relabelled copies of the
    base must share a canonical form and test isomorphic; the partner, whose
    difference an invariant certifies, must test non-isomorphic.
    """
    groups: list[tuple[Digraph, Digraph]] = []
    symmetric = (6,) if ctx.tiny else (6, 7, 8)
    for n in symmetric:
        for steps in ((1,), (1, 2)):
            groups.append((circulant(n, steps), disjoint_union(circulant(3, steps), circulant(n - 3, steps))))
    for n in (8,) if ctx.tiny else (8, 9, 10):
        k = 4 if n % 3 == 0 else 3
        first, second = rng.sample(range(1, n // k + 2), 2)
        groups.append((gen_fnk(n, k, first), gen_fnk(n, k, second)))
        parts = bk01_compositions(n)
        rng.shuffle(parts)
        base = gen_bk(parts[0])
        groups.append((base, next(h for h in map(gen_bk, parts[1:]) if _certified_different(base, h))))
        tt = gen_transitive_tournament(n)
        rows = list(tt.rows)
        rows[0] &= ~(1 << (n - 1))
        rows[n - 1] |= 1
        groups.append((tt, Digraph(n, tuple(rows))))
    for _ in range(10 if ctx.tiny else 300):
        rows = random_digraph(10, rng.uniform(0.2, 0.6), rng)
        base = Digraph(10, tuple(rows))
        while True:
            u, v, x, y = rng.sample(range(10), 4)
            moved = list(rows)
            if not moved[u] >> v & 1 or moved[x] >> y & 1:
                continue
            moved[u] &= ~(1 << v)
            moved[x] |= 1 << y
            partner = Digraph(10, tuple(moved))
            if _certified_different(base, partner):
                break
        groups.append((base, partner))

    ops = []
    for base, partner in groups:
        a, b, c = relabel(base, rng), relabel(base, rng), relabel(partner, rng)
        while b == a:  # a symmetric base can relabel to itself; the two copies must differ
            b = relabel(base, rng)
        if not _certified_different(a, c):
            raise AssertionError("a partner is not certified non-isomorphic to its base")
        ops.append(Op(("canon", a), lambda a=a: search.canonical_label(a), lambda f, _r: None))
        ops.append(
            Op(
                ("canon", b),
                lambda b=b: search.canonical_label(b),
                lambda f, r, a=a: None if f == r[("canon", a)] else "relabelled copies got different canonical forms",
            )
        )
        ops.append(
            Op(
                ("iso", a, b),
                lambda a=a, b=b: search.are_isomorphic(a, b),
                lambda same, _r: None if same is True else "relabelled copies tested non-isomorphic",
            )
        )
        ops.append(
            Op(
                ("iso", a, c),
                lambda a=a, c=c: search.are_isomorphic(a, c),
                lambda same, _r: None if same is False else "certified non-isomorphic pair tested isomorphic",
            )
        )
    for n in symmetric:
        kd = gen_complete_digraph(n)
        rows = list(kd.rows)
        rows[0] &= ~2
        sparse = relabel(Digraph(n, tuple(rows)), rng)
        ops.append(
            Op(
                ("canon", kd),
                lambda kd=kd: search.canonical_label(kd),
                lambda f, _r, kd=kd: None if f.to_digraph() == kd else f"canonical form of K{kd.n} is not K{kd.n}",
            )
        )
        ops.append(
            Op(
                ("iso", kd, sparse),
                lambda kd=kd, sparse=sparse: search.are_isomorphic(kd, sparse),
                lambda same, _r: None if same is False else "K_n tested isomorphic to K_n minus an arc",
            )
        )
    return ops


BUILDERS: dict[str, Callable[[random.Random, Context], list[Op]]] = {
    "verify_claims": _verify_ops,
    "search_grid": _search_ops,
    "cycles_scale": _cycles_ops,
    "iso_canon": _iso_ops,
    "n6_sweep": _n6_ops,
}


def _cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload: str, seed: int, pass_index: int, ctx: Context, tracer=None) -> PassResult:
    """Build the pass's ops, time each one in a seeded order, then check every output."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    ops = BUILDERS[workload](rng, ctx)
    order = list(range(len(ops)))
    rng.shuffle(order)
    results: dict[tuple, object] = {}
    errors: dict[tuple, str] = {}
    op_s = [0.0] * len(ops)
    op_cpu_s = [0.0] * len(ops)
    if tracer is not None:
        tracer.install()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        for index in order:
            op = ops[index]
            if tracer is not None:
                tracer.op_id = index
            c0 = _cpu_s()
            t0 = time.perf_counter()
            try:
                results[op.key] = op.call()
            except Exception:  # an op that raises is a failed op, not a failed run
                errors[op.key] = traceback.format_exc(limit=3)
            op_s[index] = time.perf_counter() - t0
            op_cpu_s[index] = _cpu_s() - c0
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()

    failures = []
    for op in ops:
        if op.key in errors:
            failures.append(f"{op.key[0]}: raised {errors[op.key]}")
            continue
        try:
            failure = op.check(results[op.key], results)
        except Exception:
            failure = f"check raised {traceback.format_exc(limit=3)}"
        if failure:
            failures.append(f"{op.key[0]}: {failure}")
    return PassResult(wall, cpu, op_s, op_cpu_s, len(ops), len(failures), failures)
