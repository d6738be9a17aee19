"""Batch command-line surface: ingest a map, solve, trace, and write artifacts.

Commands: abstract, pareto, infoplane, relax, validate, increments.  All
output is deterministic byte for byte: CSV floats use 12 significant digits
and timing columns stay zero unless --timings is passed.  Exit codes: 0 ok,
1 infeasible, inconsistent, or an exact search that hit its --node-limit,
2 I/O or format error, a negative or NaN floor, budget or step, or a
non-finite prior weight (argparse also exits 2 on a bad option).  A budget of
inf sets no rate limit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .increments import FLOAT_FMT, compute_increments, tree_information, write_increments_csv
from .pareto import DEFAULT_EPS_STEP, trace_pareto, write_pareto_csv
from .quadtree import MalformedTreeDocument, _coordinates, read_tree_json, write_tree_json
from .relaxation import relax_and_round, round_selection, solve_lp_relaxation
from .solver import (
    DEFAULT_NODE_LIMIT,
    TOL,
    ResourceLimitExceeded,
    solve_max_relevance,
    solve_min_rate,
)
from .world import load_pgm, load_prior, mutual_info_xy, render_abstraction

__all__ = ["main", "build_parser"]

INFEASIBLE_MESSAGE = "D̂ exceeds I(X;Y)"


def _fmt(value: float) -> str:
    return format(value, FLOAT_FMT)


def _load_world(args):
    world = load_pgm(args.input, invert=not args.no_invert)
    if args.prior:
        world = load_prior(args.prior, world)
    return world


def _display(value_nats: float, units: str) -> str:
    if units == "bits":
        return f"{_fmt(value_nats / math.log(2))} bits"
    return f"{_fmt(value_nats)} nats"


def cmd_abstract(args) -> int:
    world = _load_world(args)
    inc = compute_increments(world)
    info_xy = mutual_info_xy(world)
    # a bound in nats or as a fraction of I(X;Y); only min-rate can be infeasible
    name, solve = (("dhat", solve_min_rate) if args.mode == "min-rate"
                   else ("budget", solve_max_relevance))
    bound, frac = getattr(args, name), getattr(args, f"{name}_frac")
    if bound is None and frac is None:
        print(f"error: {args.mode} mode needs --{name} or --{name}-frac", file=sys.stderr)
        return 2
    if bound is None:
        # only a finite fraction >= 0 scales I(X;Y): an infinite one is no
        # limit and a negative or NaN one an error, even where I(X;Y) = 0
        bound = frac * info_xy if 0 <= frac < math.inf else frac
    result = solve(inc, bound, node_limit=args.node_limit)
    if result.status == "infeasible":
        print(INFEASIBLE_MESSAGE, file=sys.stderr)
        return 1
    selection = result.selection
    if args.out:
        write_tree_json(args.out, selection, result.i_x, result.i_y)
    if args.render:
        render_abstraction(args.render, world, selection)
    ratio = result.i_y / info_xy if info_xy > 0 else 0.0
    print(f"i_x: {_display(result.i_x, args.units)}")
    print(f"i_y: {_display(result.i_y, args.units)}")
    print(f"leaf_count: {selection.leaf_count}")
    print(f"relevance_ratio: {_fmt(ratio)}")
    print(f"leaf_fraction: {_fmt(selection.leaf_count / world.num_cells)}")
    return 0


def cmd_pareto(args) -> int:
    world = _load_world(args)
    inc = compute_increments(world)
    points = trace_pareto(inc, eps_step=args.eps_step, node_limit=args.node_limit)
    write_pareto_csv(args.out, points, include_timings=args.timings)
    print(f"traced {len(points)} Pareto points")
    return 0


def cmd_infoplane(args) -> int:
    world = _load_world(args)
    inc = compute_increments(world)
    info_xy = mutual_info_xy(world)
    grid = np.linspace(0.0, info_xy, args.sweep) if args.sweep > 1 else np.array([0.0])
    # every floor is solved before the file is opened, so a search that stops
    # at its node limit leaves no partial CSV behind
    rows = [["method", "d_hat", "i_x", "i_y", "met_constraint", "ms"]]
    for d_hat in grid:
        t0 = time.perf_counter()
        ilp = solve_min_rate(inc, float(d_hat), node_limit=args.node_limit)
        ilp_ms = (time.perf_counter() - t0) * 1e3
        rows.append([
            "ilp", _fmt(float(d_hat)), _fmt(ilp.i_x), _fmt(ilp.i_y),
            "true", _fmt(ilp_ms if args.timings else 0.0),
        ])
        t0 = time.perf_counter()
        rounded, met = relax_and_round(inc, float(d_hat), args.delta)
        lp_ms = (time.perf_counter() - t0) * 1e3
        rows.append([
            "relax-round", _fmt(float(d_hat)), _fmt(rounded.i_x), _fmt(rounded.i_y),
            "true" if met else "false", _fmt(lp_ms if args.timings else 0.0),
        ])
    with open(args.out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    print(f"wrote information-plane sweep of {grid.size} floors")
    return 0


def cmd_relax(args) -> int:
    world = _load_world(args)
    inc = compute_increments(world)
    if args.dhat > float(inc.delta_y.sum()) + TOL:
        print(INFEASIBLE_MESSAGE, file=sys.stderr)
        return 1
    zfrac, lp_objective = solve_lp_relaxation(inc, args.dhat)
    selection = round_selection(zfrac, args.delta)
    i_x, i_y = tree_information(selection, inc)
    met = i_y >= args.dhat - TOL
    if args.out:
        write_tree_json(args.out, selection, i_x, i_y)
    if args.frac_csv:
        with open(args.frac_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["depth", "morton", "z_frac"])
            values = zfrac.values
            depths, mortons = _coordinates(np.arange(values.size), world.depth_l)
            writer.writerows(zip(depths.tolist(), mortons.tolist(), map(_fmt, values.tolist())))
    print(f"lp_objective: {_fmt(lp_objective)} nats")
    print(f"i_x: {_fmt(i_x)} nats")
    print(f"i_y: {_fmt(i_y)} nats")
    print(f"met_constraint: {'true' if met else 'false'}")
    return 0


def cmd_validate(args) -> int:
    # the map comes first: its depth bounds the selection the document may build
    world = _load_world(args)
    try:
        selection, doc = read_tree_json(args.tree, depth_l=world.depth_l)
    except (json.JSONDecodeError, UnicodeDecodeError, MalformedTreeDocument) as exc:
        print(f"error: malformed tree document: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return 1
    inc = compute_increments(world)
    i_x, i_y = tree_information(selection, inc)
    if abs(i_x - doc["i_x_nats"]) > TOL or abs(i_y - doc["i_y_nats"]) > TOL:
        print(
            "inconsistent: stored information pair "
            f"({_fmt(doc['i_x_nats'])}, {_fmt(doc['i_y_nats'])}) vs recomputed "
            f"({_fmt(i_x)}, {_fmt(i_y)})",
            file=sys.stderr,
        )
        return 1
    print("consistent")
    return 0


def cmd_increments(args) -> int:
    world = _load_world(args)
    write_increments_csv(args.out, world)
    print(f"wrote {args.out}")
    return 0


def _add_input(parser):
    parser.add_argument("--input", required=True, help="square power-of-two PGM map")
    parser.add_argument(
        "--no-invert", action="store_true",
        help="map p(y=1|x) = gray/maxval instead of 1 - gray/maxval",
    )
    parser.add_argument("--prior", help="plain-text cell weights, one per line, row-major")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_node_limit(parser):
    parser.add_argument(
        "--node-limit", type=_positive_int, default=DEFAULT_NODE_LIMIT,
        help="exact-search node budget before a resource-limit failure",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoquad",
        description="Task-relevant multi-resolution quadtree abstractions of grid maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abstract", help="solve one abstraction program and write the tree")
    _add_input(p)
    p.add_argument("--mode", choices=["min-rate", "max-relevance"], required=True)
    p.add_argument("--dhat", type=float, help="relevance floor in nats")
    p.add_argument("--dhat-frac", type=float, help="relevance floor as a fraction of I(X;Y)")
    p.add_argument("--budget", type=float, help="rate budget in nats")
    p.add_argument("--budget-frac", type=float, help="rate budget as a fraction of I(X;Y)")
    p.add_argument("--out", help="tree JSON output path")
    p.add_argument("--render", help="rendered abstraction PGM output path")
    p.add_argument("--units", choices=["nats", "bits"], default="nats")
    _add_node_limit(p)
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("pareto", help="trace the Pareto frontier to CSV")
    _add_input(p)
    p.add_argument("--eps-step", type=float, default=DEFAULT_EPS_STEP,
                   help="adaptive sweep step in nats")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock stage timings (breaks byte determinism)")
    _add_node_limit(p)
    p.set_defaults(func=cmd_pareto)

    p = sub.add_parser("infoplane", help="sweep relevance floors, exact vs relax-and-round")
    _add_input(p)
    p.add_argument("--sweep", type=_positive_int, required=True,
                   help="number of floors in [0, I(X;Y)]")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--delta", type=float, default=0.5, help="rounding threshold")
    p.add_argument("--timings", action="store_true",
                   help="record wall-clock timings (breaks byte determinism)")
    _add_node_limit(p)
    p.set_defaults(func=cmd_infoplane)

    p = sub.add_parser("relax", help="LP relaxation plus threshold rounding")
    _add_input(p)
    p.add_argument("--dhat", type=float, required=True, help="relevance floor in nats")
    p.add_argument("--delta", type=float, default=0.5, help="rounding threshold")
    p.add_argument("--out", help="tree JSON output path")
    p.add_argument("--frac-csv", help="optional fractional-solution CSV for diagnosis")
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("validate", help="recheck a tree document against its map")
    p.add_argument("--tree", required=True, help="tree JSON path")
    _add_input(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("increments", help="dump per-candidate increments to CSV")
    _add_input(p)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_increments)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
