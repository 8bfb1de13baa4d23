"""Command-line interface.

Subcommands: verify, search, exhaust, construct, closure, gen.  Exit codes:
0 = found/verified, 1 = not-found/invalid, 2 = undecided/infeasible.

File formats:
- coloring: line 1 "n r k"; line 2 = C(n,r) space-separated color ids in
  colex edge order; trailing newline.
- cycle: line 1 = n core vertices; line 2 = n hyperedge indices; optional
  line 3 = color id.
- graph: line 1 = vertex count; one "u v" pair per following line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .construct import constructive_find
from .graphs import Graph
from .hamilton import closure
from .harness import exhaustive_verify, find_mono_berge, gen_coloring
from .hypercore import BergeCycle, Coloring, HyperParams, verify_berge_cycle


def _load_coloring(path: str) -> Coloring:
    return Coloring.from_text(Path(path).read_text())


def _load_cycle(path: str) -> BergeCycle:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("cycle file needs a core line and an edge line")
    core = tuple(int(x) for x in lines[0].split())
    edges = tuple(int(x) for x in lines[1].split())
    color = int(lines[2]) if len(lines) > 2 else None
    return BergeCycle(core, edges, color)


def _load_graph(path: str) -> Graph:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("graph file is empty")
    n = int(lines[0].split()[0])
    edges = []
    for ln in lines[1:]:
        u, v = (int(x) for x in ln.split())
        edges.append((u, v))
    return Graph(n, edges)


def _cmd_verify(args) -> int:
    coloring = _load_coloring(args.coloring)
    cycle = _load_cycle(args.cycle)
    bad = verify_berge_cycle(cycle, coloring)
    if bad is None:
        print("valid")
        return 0
    print(f"invalid: {bad}")
    return 1


def _cmd_search(args) -> int:
    coloring = _load_coloring(args.coloring)
    report = find_mono_berge(coloring, budget=args.budget)
    print(json.dumps(report.to_json(), indent=2))
    return {"found": 0, "not-found": 1}.get(report.verdict, 2)


def _cmd_exhaust(args) -> int:
    try:
        params = HyperParams(args.n, args.r, args.k)
        report = exhaustive_verify(params, shards=args.shards, workers=args.workers)
    except ValueError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 2
    print(
        f"total {report.total}  success {report.success}  failure {report.failure}"
    )
    if args.out:
        report.dump_json(args.out)
        print(f"report written to {args.out}")
    return 0 if report.failure == 0 else 1


def _cmd_construct(args) -> int:
    coloring = _load_coloring(args.coloring)
    outcome = constructive_find(
        coloring,
        d_bound=args.d_bound,
        good_threshold=args.good_threshold,
    )
    if args.dump_bundle and outcome.bundle is not None:
        outcome.bundle.dump_json(args.dump_bundle)
        print(f"bundle written to {args.dump_bundle}")
    if outcome.found:
        cy = outcome.cycle
        print(f"found color {outcome.color}")
        print(" ".join(map(str, cy.core)))
        print(" ".join(map(str, cy.edges)))
        return 0
    print(f"not found (stage: {outcome.stage}) {outcome.detail}")
    return 1


def _cmd_closure(args) -> int:
    g = _load_graph(args.graph)
    closed = closure(g)
    print(closed.n)
    for u, v in closed.edges():
        print(f"{u} {v}")
    return 0


def _cmd_gen(args) -> int:
    params = HyperParams(args.n, args.r, args.k)
    classes = None
    if args.classes:
        classes = [int(x) for x in args.classes.split(",")]
    coloring = gen_coloring(
        params,
        args.scheme,
        color=args.color,
        seed=args.seed,
        classes=classes,
        digits=args.digits,
    )
    Path(args.out).write_text(coloring.to_text())
    print(f"coloring written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bergeham",
        description="Monochromatic Hamiltonian Berge-cycle toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a Berge-cycle certificate")
    p.add_argument("coloring")
    p.add_argument("cycle")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="search one coloring for a mono cycle")
    p.add_argument("coloring")
    p.add_argument("--budget", type=int, default=2_000_000)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("exhaust", help="sweep every coloring of K_n^r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_exhaust)

    p = sub.add_parser("construct", help="run the constructive pipeline")
    p.add_argument("coloring")
    p.add_argument("--d-bound", type=int, default=None)
    p.add_argument("--good-threshold", type=int, default=None)
    p.add_argument("--dump-bundle", metavar="PATH")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("closure", help="degree-sum closure of a graph")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("gen", help="generate a coloring file")
    p.add_argument("--scheme", required=True,
                   choices=["uniform", "random", "vertex-partition", "digits"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--color", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", help="comma-separated class id per vertex")
    p.add_argument("--digits", help="digit string cycled over the edges")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
