"""Command-line surface.

Subcommands: gen, measure, free, formula, search, verify.  Exit codes are
stable for CI: 0 success/PASS, 1 verification failure, 2 usage error; an
input file that cannot be read and a --out that cannot be written are
usage errors too.  search and verify take --jobs, default 1; a value below
1 is a usage error on both, and any other value has no effect: the search
oracle runs in one process.  search needs --allow-slow for 6 <= n <= ISO_CAP,
since its cost grows steeply with n; verify's --oracle-cap is its opt-in.

Dispatch: ``COMMANDS`` holds each subcommand's help line and the function
that adds its arguments, and ``_build_parser`` builds the full parser from
it.  When argv[0] names a subcommand, ``main`` builds only that
subcommand's parser, with the prog the full parser gives it (``stlab
<name>``), and calls its ``parse_known_args(argv[1:])``.  This is exact:
the full parser's subparsers action takes every argument after the name,
options included, hands them to the same parser the same way, and adds
only ``command=<name>``, which ``set_defaults`` supplies here.  When
arguments are left over, the full parser parses argv again, so the error
names them in the top-level wording; any other argv (none, -h, an unknown
name, a leading option) goes to the full parser directly.  A parser lives
for one call only: building the one needed is the saving, not a cache.
"""

from __future__ import annotations

import argparse
import sys

from stlab.claims import TAGS, verify_theorem
from stlab.cycles import find_cycle_of_length
from stlab.digraph import Digraph
from stlab.families import (
    FAMILY_KINDS,
    FamilySpec,
    build_family,
    family_blocks,
    parse_family_spec,
)
from stlab.formulas import ex_arcs_ck, ex_le_ck, ex_m1_c3
from stlab.invariants import measure
from stlab.search import ISO_CAP, search_extremal
from stlab.serialize import (
    bundle_json,
    digraph_json,
    dumps,
    parse_arclist,
    render_arclist,
    render_dot,
    report_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _jobs(text: str) -> int:
    """The --jobs argument type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_input(text: str) -> Digraph:
    """Resolve a positional input: family spec string, '-' (stdin), or path."""
    if text.split(":", 1)[0] in FAMILY_KINDS and ":" in text:
        return build_family(parse_family_spec(text))
    if text == "-":
        return parse_arclist(sys.stdin.read())
    try:
        with open(text) as handle:
            arclist = handle.read()
    except (FileNotFoundError, NotADirectoryError):
        raise ValueError(f"no such file: {text} (family specs look like 'fnk:n=4,k=3,s=2')") from None
    return parse_arclist(arclist)


def _block_map(spec: FamilySpec) -> dict[int, int]:
    mapping = {}
    for idx, (start, stop) in enumerate(family_blocks(spec), start=1):
        for v in range(start, stop):
            mapping[v] = idx
    return mapping


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_family_spec(args.spec)
    g = build_family(spec)
    if args.format == "arcs":
        sys.stdout.write(render_arclist(g))
    elif args.format == "dot":
        sys.stdout.write(render_dot(g, _block_map(spec)))
    else:
        sys.stdout.write(dumps(digraph_json(g)))
    return EXIT_OK


def _cmd_measure(args: argparse.Namespace) -> int:
    g = _load_input(args.input)
    sys.stdout.write(dumps(bundle_json(measure(g))))
    return EXIT_OK


def _cmd_free(args: argparse.Namespace) -> int:
    g = _load_input(args.input)
    witness = find_cycle_of_length(g, args.len)
    if witness is None:
        print(f"C{args.len}-free")
        return EXIT_OK
    print(f"cycle of length {args.len} found:")
    for u, v in witness.arcs():
        print(f"{u} {v}")
    return EXIT_FAIL


def _cmd_formula(args: argparse.Namespace) -> int:
    if args.quantity == "ex_m1":
        # ex_m1 is the k = 2 claim (no directed 3-cycle); another k would be ignored.
        if args.k not in (None, 2):
            raise ValueError(f"ex_m1 is defined for k = 2 only, got --k {args.k}")
        value = ex_m1_c3(args.n)
    else:
        if args.k is None:
            raise ValueError(f"--k is required for {args.quantity}")
        fn = ex_le_ck if args.quantity == "ex_le" else ex_arcs_ck
        value = fn(args.n, args.k)
    payload = {
        "schema": 1,
        "quantity": args.quantity,
        "n": args.n,
        "k": args.k,
        "value": value.value,
        "numerator": value.numerator,
        "denominator": value.denominator,
        "source": value.source,
    }
    sys.stdout.write(dumps(payload))
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    # Above ISO_CAP the search's own error names the cap.
    if 6 <= args.n <= ISO_CAP and not args.allow_slow:
        raise ValueError(
            f"n={args.n} builds every isomorphism class above the descent thresholds, a count that "
            "grows steeply with n (n=8, L=2, ARCS builds all 6,880 tournament classes); "
            "enable it explicitly with --allow-slow"
        )
    report = search_extremal(
        args.n,
        args.forbid_cycle,
        args.objective,
        scope="connected_only" if args.connected_only else "all",
        jobs=args.jobs,
    )
    text = dumps(report_json(report))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(
            f"max {report.objective} = {report.max_value} over {report.searched_count} digraphs, "
            f"{len(report.witness_forms)} witness class(es), {report.elapsed_ms} ms -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    rows = verify_theorem(args.tag, args.n_max, k_max=args.k_max, oracle_cap=args.oracle_cap)
    header = f"{'tag':<9} {'n':>3} {'k':>3} {'formula':>10} {'generator':>10} {'oracle':>8} {'witness':>10}  status"
    print(header)
    print("-" * len(header))
    for row in rows:
        if row.oracle is not None:
            oracle = str(row.oracle)
        else:
            oracle = "skipped" if row.witness == "skipped" else "-"
        generator = "-" if row.generator is None else str(row.generator)
        status = "PASS" if row.ok else "FAIL"
        print(
            f"{row.tag:<9} {row.n:>3} {row.k:>3} {row.formula:>10} {generator:>10} "
            f"{oracle:>8} {row.witness:>10}  {status}"
        )
    for row in rows:
        if row.detail:
            print(f"{row.tag} n={row.n} k={row.k}: {row.detail}")
        for label, forms in (("missing", row.missing), ("extra", row.extra)):
            for form in forms:
                print(f"{row.tag} n={row.n} k={row.k}: {label} witness class")
                sys.stdout.write(render_arclist(form.to_digraph()))
    passed = sum(row.ok for row in rows)
    print(f"{passed}/{len(rows)} rows PASS")
    return EXIT_OK if passed == len(rows) else EXIT_FAIL


def _add_gen(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="family spec, e.g. fnk:n=4,k=3,s=2 | bk:parts=4+2+3 | tt:n=7 | kd:n=5")
    p.add_argument("--format", choices=("arcs", "dot", "json"), default="arcs")
    p.set_defaults(fn=_cmd_gen)


def _add_measure(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="arclist file, '-' for stdin, or a family spec")
    p.set_defaults(fn=_cmd_measure)


def _add_free(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="arclist file, '-' for stdin, or a family spec")
    p.add_argument("--len", type=int, required=True, help="cycle length to look for")
    p.set_defaults(fn=_cmd_free)


def _add_formula(p: argparse.ArgumentParser) -> None:
    p.add_argument("--quantity", choices=("ex_le", "ex_arcs", "ex_m1"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_formula)


def _add_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid-cycle", type=int, required=True, metavar="L")
    p.add_argument("--objective", choices=("le", "m1", "arcs"), required=True)
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=1, help="must be >= 1; has no effect")
    p.add_argument("--allow-slow", action="store_true", help="enable n >= 6, whose cost grows steeply with n")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=_cmd_search)


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("tag", choices=TAGS)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--oracle-cap", type=int, default=5)
    p.add_argument("--jobs", type=_jobs, default=1, help="must be >= 1; has no effect")
    p.set_defaults(fn=_cmd_verify)


# name -> (help line, function adding the subcommand's arguments), in help order.
COMMANDS = {
    "gen": ("generate a family member", _add_gen),
    "measure": ("exact invariants of a digraph", _add_measure),
    "free": ("check for a directed cycle of exact length", _add_free),
    "formula": ("evaluate a closed-form extremal value", _add_formula),
    "search": ("exhaustive extremal search at small order", _add_search),
    "verify": ("check a tagged claim over a grid of orders", _add_verify),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stlab",
        description="Extremal Laplacian energy of digraphs with forbidden directed cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse argv as ``_build_parser().parse_args`` does; a known subcommand builds only its own parser."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog=f"stlab {name}")
        COMMANDS[name][1](parser)
        parser.set_defaults(command=name)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
