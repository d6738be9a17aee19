"""Tracing the Pareto-optimal compression/relevance pairs of a world.

Each traced point is the relevance-maximal tree among those at the minimal
rate meeting a relevance floor.  One min-rate solve gives it: several trees
can share the optimal rate while retaining different amounts of relevant
information, and the solver breaks rate ties within 1e-9 by the larger
relevance.  Sweeping the floor adaptively (next query = last achieved
relevance plus a small step) visits every achievable relevance level without
a grid.

Uniform priors read the whole frontier off the rate-class lattice: the root
table holds the maximal relevance of every integer rate class, so the classes
a floor can select are the strict prefix records of that one array.  All
records are reconstructed in batched level-by-level passes and the floor sweep
replays over them, with no solve per point.  Weighted priors run the sweep
with one min-rate search per point.
"""

from __future__ import annotations

import csv
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .increments import FLOAT_FMT, IncrementVectors, tree_information
from .quadtree import TreeSelection
from .solver import (
    DEFAULT_NODE_LIMIT,
    TOL,
    _lattice_for,
    _LatticeDP,
    solve_min_rate,
)

__all__ = [
    "ParetoPoint",
    "is_dominated",
    "pareto_point",
    "trace_pareto",
    "write_pareto_csv",
    "DEFAULT_EPS_STEP",
]

# Smallest step that still rules the previous point infeasible (the relevance
# floor is enforced within TOL).  Any two value pairs distinct beyond TOL are
# then both visited; pass a larger step to trade completeness for speed.
DEFAULT_EPS_STEP = 2 * TOL


@dataclass(frozen=True)
class ParetoPoint:
    """A (rate, relevance) pair on the frontier with a witnessing tree."""

    d_star: float
    d_hat_star: float
    selection: TreeSelection
    d_hat_query: float = 0.0
    stage1_ms: float = 0.0
    stage2_ms: float = 0.0


def is_dominated(a, b, tol: float = TOL) -> bool:
    """True iff b is at least as good as a in both coordinates and better in one."""
    a_ix, a_iy = a
    b_ix, b_iy = b
    return (
        b_ix <= a_ix + tol
        and b_iy >= a_iy - tol
        and (b_ix < a_ix - tol or b_iy > a_iy + tol)
    )


def pareto_point(inc: IncrementVectors, d_hat: float,
                 node_limit: int = DEFAULT_NODE_LIMIT) -> ParetoPoint:
    """Pareto-optimal value pair for one relevance floor.

    One min-rate solve finds the minimal rate D* meeting the floor, and its
    tie rule makes the tree the most relevant one at D*; stage1_ms is that
    solve and stage2_ms is 0.  The result dominates the floor:
    d_hat_star >= d_hat - 1e-9.
    """
    total = float(inc.delta_y.sum())
    if not d_hat >= 0:
        raise ValueError(f"negative d_hat: {d_hat}")
    if d_hat > total + TOL:
        raise ValueError(
            f"d_hat {d_hat!r} exceeds the total relevance I(X;Y) = {total!r}"
        )
    t0 = time.perf_counter()
    result = solve_min_rate(inc, d_hat, node_limit=node_limit)
    return ParetoPoint(
        d_star=result.i_x,
        d_hat_star=result.i_y,
        selection=result.selection,
        d_hat_query=d_hat,
        stage1_ms=(time.perf_counter() - t0) * 1e3,
    )


def trace_pareto(inc: IncrementVectors, eps_step: float = DEFAULT_EPS_STEP,
                 node_limit: int = DEFAULT_NODE_LIMIT) -> list[ParetoPoint]:
    """All Pareto-optimal value pairs, ascending, from (0, 0) up to full relevance.

    After a point achieving relevance v the next floor queried is v + eps_step,
    so every level distinguishable at eps_step resolution is visited; the value
    set is finite and the loop provably terminates.

    With a uniform prior the points come from the rate-class lattice and
    node_limit is unused; stage1_ms is then the point's record lookup and
    information sums, and stage2_ms the batched reconstruction its lookup
    started (0 when an earlier batch already held its tree).
    """
    if not eps_step > TOL:
        raise ValueError(
            f"eps_step must exceed the feasibility tolerance {TOL}, got {eps_step}"
        )
    lattice = _lattice_for(inc)
    if lattice is None:
        def point_at(query):
            return pareto_point(inc, query, node_limit=node_limit)
    else:
        point_at = _lattice_points(inc, lattice)
    total = float(inc.delta_y.sum())
    points: list[ParetoPoint] = []
    query = 0.0
    while True:
        point = point_at(query)
        if points and point.d_hat_star <= points[-1].d_hat_star + 1e-15:
            break  # floating-point guard; cannot happen for eps_step > tol
        points.append(point)
        if point.d_hat_star >= total - TOL:
            break
        query = min(point.d_hat_star + eps_step, total)
    return points


def _lattice_points(inc: IncrementVectors, lattice: _LatticeDP):
    """The per-floor point of trace_pareto, answered from the lattice root.

    The first class whose relevance meets a floor is always a strict prefix
    record of the root table (a class not above every cheaper one is beaten
    to the floor by one of them), and so is the argmax fallback that
    solve_min_rate takes.  Each point is that record's tree; records are
    reconstructed in batches starting at the first one a floor asks for.
    """
    root = lattice.root
    is_record = np.ones(root.size, dtype=bool)
    is_record[1:] = root[1:] > np.maximum.accumulate(root)[:-1]
    classes = np.flatnonzero(is_record)
    values = root[classes].tolist()
    first, trees = 0, np.zeros((0, inc.num_candidates), dtype=np.uint8)

    def point_at(query: float) -> ParetoPoint:
        nonlocal first, trees
        t0 = time.perf_counter()
        r = min(bisect_left(values, query - TOL), classes.size - 1)
        t1 = time.perf_counter()
        if not first <= r < first + len(trees):
            first = r
            trees = lattice.reconstruct_many(classes[r:r + lattice.batch_rows])
        t2 = time.perf_counter()
        selection = TreeSelection(trees[r - first].copy())
        i_x, i_y = tree_information(selection, inc)
        t3 = time.perf_counter()
        return ParetoPoint(
            d_star=i_x, d_hat_star=i_y, selection=selection, d_hat_query=query,
            stage1_ms=(t1 - t0 + t3 - t2) * 1e3, stage2_ms=(t2 - t1) * 1e3,
        )

    return point_at


def write_pareto_csv(path, points, include_timings: bool = False):
    """One row per traced point; timing columns are zeroed unless requested.

    Timings vary run to run, so deterministic output (the default) writes 0.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["d_hat_query", "i_x_nats", "i_y_nats", "leaf_count", "stage1_ms", "stage2_ms"]
        )
        for p in points:
            writer.writerow([
                format(p.d_hat_query, FLOAT_FMT),
                format(p.d_star, FLOAT_FMT),
                format(p.d_hat_star, FLOAT_FMT),
                p.selection.leaf_count,
                format(p.stage1_ms if include_timings else 0.0, FLOAT_FMT),
                format(p.stage2_ms if include_timings else 0.0, FLOAT_FMT),
            ])
