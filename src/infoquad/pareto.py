"""Tracing the Pareto-optimal compression/relevance pairs of a world.

Each traced point is the relevance-maximal tree among those at the minimal
rate meeting a relevance floor, which is what solve_min_rate returns for that
floor: several trees can share the optimal rate while retaining different
amounts of relevant information, and the solver breaks rate ties within 1e-9
by the larger relevance.  Sweeping the floor adaptively (next query = last
achieved relevance plus a small step) visits every achievable relevance level
without a grid.

The sweep makes no solve per point: it replays over the frontier's records,
cost ascending and relevance strictly rising, which one solver call gives for
either prior: the strict prefix records of the rate-class lattice's root
table (the maximal relevance of every integer rate class) with a uniform
prior, and the root list of one unpruned Pareto-list merge with a weighted
one.  Records are reconstructed in batched level-by-level passes, and each
batch's leaf counts, packed bits and information sums are taken once for the
whole batch; per point the sweep only looks its record up.  A point holds
its tree as those packed bits, one bit per candidate, and unpacks a
TreeSelection only when its selection is read.  The CSV is written by
write_csv, the one writer of every CSV the package makes.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .increments import IncrementVectors, _information, write_csv
from .quadtree import TreeSelection
from .solver import DEFAULT_NODE_LIMIT, TOL, _frontier_records

__all__ = [
    "ParetoPoint",
    "is_dominated",
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
    """A (rate, relevance) pair on the frontier with its leaf count and a
    witnessing tree, held as the np.packbits bytes of its selection vector."""

    d_star: float
    d_hat_star: float
    leaf_count: int
    tree_bits: bytes
    num_candidates: int
    d_hat_query: float = 0.0
    stage1_ms: float = 0.0
    stage2_ms: float = 0.0

    @property
    def selection(self) -> TreeSelection:
        """The witnessing tree, unpacked afresh on every access."""
        bits = np.frombuffer(self.tree_bits, dtype=np.uint8)
        return TreeSelection(np.unpackbits(bits, count=self.num_candidates))


def is_dominated(a, b) -> bool:
    """True iff b is at least as good as a in both coordinates, within TOL,
    and better in one by more than TOL."""
    a_ix, a_iy = a
    b_ix, b_iy = b
    return (
        b_ix <= a_ix + TOL
        and b_iy >= a_iy - TOL
        and (b_ix < a_ix - TOL or b_iy > a_iy + TOL)
    )


def trace_pareto(inc: IncrementVectors, eps_step: float = DEFAULT_EPS_STEP,
                 node_limit: int = DEFAULT_NODE_LIMIT) -> list[ParetoPoint]:
    """All Pareto-optimal value pairs, ascending, from (0, 0) up to full relevance.

    After a point achieving relevance v the next floor queried is v + eps_step,
    so every level distinguishable at eps_step resolution is visited; the value
    set is finite and the loop provably terminates.

    The points are replayed over records: the lattice root's with a uniform
    prior, the root list of one unpruned merge, which node_limit bounds, with
    a weighted one.  Each reconstructed batch has its leaf counts, packed
    trees and information sums taken at once; a point then costs a record
    lookup, and builds no TreeSelection.  stage1_ms is a point's lookup, and
    stage2_ms the batch its lookup started: the trees' reconstruction, leaf
    counts, packed bits and sums (0 when an earlier batch already held its
    tree).
    """
    if not eps_step > TOL:
        raise ValueError(
            f"eps_step must exceed the feasibility tolerance {TOL}, got {eps_step}"
        )
    costs, values, reconstruct = _frontier_records(inc, node_limit)
    costs, values = costs.tolist(), values.tolist()
    total = float(inc.delta_y.sum())
    n = inc.num_candidates
    # the records reconstruct(first) gave, one tree per row; each batch's
    # leaf counts, packed bits and information sums are taken with it
    first = last = 0
    points: list[ParetoPoint] = []
    query, i_y = 0.0, None
    while True:
        # the first record meeting the floor within TOL (else the last), then,
        # as solve_min_rate breaks rate ties, the last within TOL of its cost;
        # a floor within TOL of 0 takes the empty tree
        t0 = time.perf_counter()
        r = min(bisect_left(values, query - TOL), len(values) - 1)
        if query - TOL > 0:
            r = bisect_right(costs, costs[r] + TOL) - 1
        t1 = t2 = time.perf_counter()
        if not first <= r < last:
            trees = reconstruct(r)
            first, last = r, r + len(trees)
            leaves = (1 + 3 * trees.sum(axis=1)).tolist()
            packed = np.packbits(trees, axis=1)
            # the next floor comes from these sums, not from the record's
            # value: the two can differ in the last bits
            i_xs, i_ys = (v.tolist() for v in _information(trees, inc))
            t2 = time.perf_counter()
        i = r - first
        if i_y is not None and i_ys[i] <= i_y + 1e-15:
            break  # floating-point guard; cannot happen for eps_step > tol
        i_y = i_ys[i]
        # positional, in field order: d_star, d_hat_star, leaf_count,
        # tree_bits, num_candidates, d_hat_query, stage1_ms, stage2_ms
        points.append(ParetoPoint(i_xs[i], i_y, leaves[i], packed[i].tobytes(), n, query,
                                  (t1 - t0) * 1e3, (t2 - t1) * 1e3))
        if i_y >= total - TOL:
            break
        query = min(i_y + eps_step, total)
    return points


def write_pareto_csv(path, points, include_timings: bool = False):
    """One row per traced point; timing columns are zeroed unless requested.

    Timings vary run to run, so deterministic output (the default) writes 0.
    """
    write_csv(
        path, ["d_hat_query", "i_x_nats", "i_y_nats", "leaf_count", "stage1_ms", "stage2_ms"],
        [[p.d_hat_query, p.d_star, p.d_hat_star, p.leaf_count,
          p.stage1_ms if include_timings else 0.0, p.stage2_ms if include_timings else 0.0]
         for p in points],
    )
