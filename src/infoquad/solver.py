"""Exact solvers for the tree-abstraction programs plus a small-world oracle.

Each program optimizes a linear objective over valid tree selections under
one information row:

  min-rate        minimize z . delta_x   subject to z . delta_y >= d_hat
  max-relevance   maximize z . delta_y   subject to z . delta_x <= budget

Validity (a child selected only with its parent) is built into every
engine: each builds its trees from the root down.

Non-uniform priors run both programs as one covering program,

  minimize c . z   subject to g . z >= need,

with min-rate as (delta_x, delta_y, d_hat) and max-relevance as
(-delta_y, -delta_x, -budget).  Negation is exact in floating point, so each
program makes the same comparisons as in its direct form.
Bounds come from the Lagrangian dual of the row over the tree-validity
polytope.  For a fixed multiplier lam the inner problem is a minimum-weight
ancestor-closed subtree of c - lam * g, solved in one bottom-up pass.  The
dual is concave and piecewise linear in lam, and _parametric_dual finds its
optimum, the LP relaxation's value, by Newton steps between two bracketing
subtrees (the generalized BFOS pruning sequence).  A greedy seed within
1e-9 of it is certified and returned.  Otherwise the seed's cost caps one
exact engine: Pareto lists of (c, g) points (Nemhauser & Ullmann, Mgmt.
Sci. 1969) merged bottom-up over the lattice's half-level layout, as in the
tree-knapsack DP of Johnson & Niemi (Math. OR 1983), where a point stays
only while trees through it can still meet the row within that cost.  The
root is a query on its two pair lists.  The Pareto trace runs the same merges
once without a prune and through the root's own node level, whose list is
then the whole frontier.

Feasibility tolerance is 1e-9 everywhere.  A solve takes the least c . z
and, among trees within 1e-9 of it, the largest g . z: smaller rate before
larger relevance for min-rate, larger relevance before smaller rate for
max-relevance.  A min-rate solve therefore returns a most relevant tree
among those of minimal rate, which is a Pareto point: the frontier trace
needs no second program.  Among trees tied on both values the lists keep the
first point met, the empty point before any other (so a subtree of zero
mass stays unsplit), and the root the first pair its query meets.  Like the
lattice's, that choice need not be brute_force_solve's, which takes the
lexicographically smallest selection vector.

Uniform priors get a better algorithm entirely.  There every node at depth d
costs exactly 4^(l-1-d) units of ln(4)/4^(l-1) nats, so the rate objective is
integer-valued and max-plus merges tabulate the maximal relevance at every
attainable rate class.  The tables form binary half-levels: a node's children
merge in pairs, and the two pairs merge into the node.  Both programs then
reduce to a query on the root's two pair merges plus a reconstruction, with
no search: min-rate asks for the first class whose relevance meets the floor,
max-relevance for the cheapest class within 1e-9 of the best one under the
budget, and the tables it builds stop at the budget's class.  Only the Pareto
trace reads the whole root table.  Rate classes are at least ln(4)/4^(l-1)
nats apart (3.4e-4 at depth 7), so the 1e-9 feasibility tolerance never
straddles two classes.  A merged class splits at the smallest index where
its two halves sum largest, the sum the merge stored; among tied trees that
need not give the lexicographically smallest one.  One scan, _first_max,
finds it: the trace's tabulation as it merges, keeping the indices for its
batches to gather, and a one-shot solve for its one tree.  Both engines read
their trees back by one top-down walk, _walk, which splits each row's point
(a class, or a list point and the two points it sums) into points of the
two rows below it and marks the nodes each node level selects.
"""

from __future__ import annotations

import heapq
import time
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .increments import IncrementVectors, tree_information
from .quadtree import (TreeSelection, _drop_orphans, depth_from_candidate_count,
                       depth_offset, num_candidates)

__all__ = [
    "TOL",
    "DEFAULT_NODE_LIMIT",
    "SolveResult",
    "ResourceLimitExceeded",
    "solve_min_rate",
    "solve_max_relevance",
    "enumerate_valid_selections",
    "brute_force_solve",
    "count_valid_selections",
]

TOL = 1e-9
DEFAULT_NODE_LIMIT = 50_000_000

# Newton slacks: a subtree within _FLOOR_SLACK of a row's bound keeps the row,
# and a closure within _DUAL_SLACK of the bracket lines does not lie below
# them.  Without them subtrees tied at the optimal multiplier make the steps
# cycle.
_FLOOR_SLACK = 1e-12    # relative to the row's total
_DUAL_SLACK = 1e-14     # relative to the magnitude of a dual line


class ResourceLimitExceeded(RuntimeError):
    """The exact solve hit its work limit before proving optimality."""


def _check_bound(name: str, value: float) -> None:
    """Reject a floor or budget that is negative or NaN."""
    if not value >= 0:
        raise ValueError(f"{name} must be a non-negative number, got {value}")


@dataclass(frozen=True)
class SolveResult:
    selection: TreeSelection
    i_x: float
    i_y: float
    objective: float
    status: str                 # "optimal" or "infeasible"
    # the list points the weighted merges made, pair sums and empty points; 0
    # for lattice, trivial and certified-seed solves
    nodes_explored: int
    wall_time_ms: float


def _offsets(depth_l: int) -> list[int]:
    return [depth_offset(d) for d in range(depth_l + 1)]


def _closure_best(w: np.ndarray, depth_l: int) -> np.ndarray:
    """best[..., t]: least weight of an ancestor-closed subset of t's subtree
    containing t, for a weight vector w or for each row of a (K, n) matrix."""
    off = _offsets(depth_l)
    best = w.copy()
    for d in range(depth_l - 2, -1, -1):
        kids = np.minimum(best[..., off[d + 1]:off[d + 2]], 0.0)
        best[..., off[d]:off[d + 1]] += kids.reshape(w.shape[:-1] + (-1, 4)).sum(axis=-1)
    return best


def _parametric_dual(c, g, bound, depth_l):
    """Optimal multiplier of the Lagrangian dual of the covering program
    min c.z s.t. g.z >= bound over valid selections.

    Each subtree Z gives the dual line lam * (bound - g.Z) + c.Z, and the
    dual is their lower envelope, whose breakpoints are the generalized BFOS
    pruning sequence (Chou, Lookabaugh & Gray, IEEE Trans. IT 1989).  Newton
    steps on it start from the empty and the full tree as brackets, lo
    missing the row and hi keeping it, step to where their lines cross, and
    stop once the closure there does not lie below them; one closure pass
    per step.

    Returns (lam, value, lo, hi): the multiplier, the dual value evaluated at
    it (a valid bound whatever lam is), and the two bracket masks.  When the
    empty and the full tree both keep the row, lam is 0.
    """
    total = float(g.sum())
    slack = _FLOOR_SLACK * max(abs(total), 1.0)
    empty = (np.zeros(c.size, dtype=bool), 0.0, 0.0)
    full = (np.ones(c.size, dtype=bool), float(c.sum()), total)
    (lo, x_lo, y_lo), (hi, x_hi, y_hi) = (full, empty) if bound <= slack else (empty, full)
    if y_lo >= bound - slack:
        return 0.0, min(float(_closure_best(c, depth_l)[0]), 0.0), lo, hi
    for _ in range(c.size + 2):
        lam = (x_hi - x_lo) / (y_hi - y_lo)
        line = lam * (bound - y_lo) + x_lo
        best = _closure_best(c - lam * g, depth_l)
        # the least-weight closure: negative nodes with all ancestors in
        mask = _drop_orphans(best < 0.0, depth_l)
        x_c, y_c = float(c[mask].sum()), float(g[mask].sum())
        if lam * (bound - y_c) + x_c >= line - _DUAL_SLACK * (1.0 + abs(x_hi) + lam * abs(y_hi)):
            return lam, lam * bound + min(float(best[0]), 0.0), lo, hi
        if y_c >= bound - slack:
            hi, x_hi, y_hi = mask, x_c, y_c
        else:
            lo, x_lo, y_lo = mask, x_c, y_c
    raise RuntimeError("parametric closure did not converge")


def _seed(c, g, need) -> np.ndarray:
    """Greedy feasible selection for min c.z s.t. g.z >= need.

    Items with g > 0 or c < 0 are visited cheapest per unit of |g| first.
    Each one's chain (the item plus its unselected ancestors) is added while
    the row is unmet, or when the item has c < 0 and the chain keeps the row.
    A trim pass then drops selection leaves with c >= 0, priciest first,
    whenever the row can spare them.
    """
    n = c.size
    take = np.flatnonzero((g > 0) | (c < 0))
    with np.errstate(divide="ignore"):
        order = take[np.argsort(c[take] / np.abs(g[take]), kind="stable")]
    cs, gs = c.tolist(), g.tolist()
    z = [False] * n
    covered = 0.0
    for idx in order.tolist():
        met = covered >= need
        if z[idx] or (met and cs[idx] >= 0):
            continue
        chain, gain, t = [], 0.0, idx
        while t >= 0 and not z[t]:
            chain.append(t)
            gain += gs[t]
            t = (t - 1) >> 2 if t else -1
        if len(chain) >= 8:
            # numpy sums fewer than 8 terms left to right, as the loop does,
            # and 8 or more pairwise; the seed keeps numpy's bits
            gain = float(g[chain].sum())
        if met and covered + gain < need:
            continue
        for t in chain:
            z[t] = True
        covered += gain
    if covered < need:  # numerical remainder: take everything
        z = [True] * n
        covered = float(g.sum())
    sel_idx = np.flatnonzero(z)
    child_count = np.bincount((sel_idx[sel_idx > 0] - 1) >> 2, minlength=n).tolist()
    heap = [(-cs[i], i) for i in sel_idx.tolist() if not child_count[i] and cs[i] >= 0]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        if covered - gs[idx] >= need:
            z[idx] = False
            covered -= gs[idx]
            if idx:
                parent = (idx - 1) >> 2
                child_count[parent] -= 1
                if not child_count[parent] and cs[parent] >= 0:
                    heapq.heappush(heap, (-cs[parent], parent))
    return np.array(z, dtype=np.uint8)


def _pack_bits(z) -> bytes:
    return np.packbits(np.asarray(z, dtype=np.uint8)).tobytes()


_BLOCK = 8192       # list points generated, pruned and filtered at a time
# the Lagrangian prunes' multipliers, in units of the dual's optimal one
_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0)


def _frontier(pts) -> np.ndarray:
    """Indices of the columns (row, c, g, ...) of pts that no point of their
    row dominates, by row, then c ascending with g strictly rising; of exact
    ties the first.  Complex numbers sort and compare lexicographically: a
    stable sort of row + i c orders each row by c, a running maximum of
    row + i g stays within each row, and of equal c the last kept is best."""
    key = pts[0] + 1j * pts[1]
    order = np.argsort(key, kind="stable")
    rise = (pts[0] + 1j * pts[2])[order]
    keep = np.ones(order.size, dtype=bool)
    np.greater(rise[1:], np.maximum.accumulate(rise[:-1]), out=keep[1:])
    order = order[keep]
    key = key[order]
    keep = np.ones(order.size, dtype=bool)
    np.not_equal(key[:-1], key[1:], out=keep[:-1])
    return order[keep]


def _root_pick(c0, g0, cA, gA, cB, gB, need):
    """The root's tree from its two pair lists: (i, j) for the root plus
    points i and j, () for the empty tree, None when no tree meets need.
    The least cost c* pairs some i with its first partner j meeting need; of
    the trees within TOL of c*, the one of largest g, the first met."""
    empty = 0.0 >= need
    if not (cA.size and cB.size):
        return () if empty else None
    jf = _first_partner(g0, gA, gB, need)
    ok = jf < cB.size
    c_star = min((c0 + (cA[ok] + cB[jf[ok]])).min(initial=np.inf), 0.0 if empty else np.inf)
    if c_star == np.inf:
        return None
    # per i, the last partner within c* + TOL, from the lists read backwards
    jw = cB.size - 1 - _first_partner(-c0, -cA, -cB[::-1], -(c_star + TOL))
    i = np.flatnonzero(jw >= 0)
    gains = g0 + (gA[i] + gB[jw[i]])
    if empty and c_star >= -TOL and not (gains > 0.0).any():
        return ()
    t = i[np.argmax(gains)]
    return int(t), int(jw[t])


def _solve_covering(c, g, need, node_limit, depth_l):
    """(z, work) of min c.z s.t. g.z >= need.  The greedy seed is returned
    when the dual optimum certifies it, when its one candidate makes it
    exact, or when no other tree comes within TOL of its cost; otherwise the
    Pareto lists' optimum.

    A list point survives while g plus the most the rest adds reaches need,
    c plus the least the rest adds stays within the seed's cost + TOL, and,
    but for the empty point, c - lam g plus out_lam(row) stays within that
    cost less lam * need for each multiplier lam, where out_lam(row) is the
    least c - lam g a tree holding the row adds outside it.
    """
    seed_z = _seed(c, g, need)
    lam_star, bound, _, _ = _parametric_dual(c, g, need, depth_l)
    worst = float(c @ seed_z)
    if worst <= bound + TOL or depth_l == 1:
        return seed_z, 0
    off = _offsets(depth_l)
    n, cap = c.size, worst + TOL
    lam = lam_star * np.array(_MULTIPLIERS)
    # per unit (the candidates, then the finest cells) and row: minus the most
    # its subtree adds to g, the least it adds to c, and per lam the least it
    # adds to c - lam g
    best = _closure_best(np.vstack((-np.maximum(g, 0.0), np.minimum(c, 0.0), c - lam[:, None] * g)),
                         depth_l)
    inside = np.zeros((best.shape[0], 4 * n + 1))
    inside[:, :n] = np.minimum(best, 0.0)
    hold = best     # hold[:, t]: the least a tree holding t adds to each row
    for d in range(1, depth_l):
        hold[:, off[d]:off[d + 1]] += (np.repeat(hold[:, off[d - 1]:off[d]], 4, axis=1)
                                       - inside[:, off[d]:off[d + 1]])
    # per row, bounds on its points' (-g, c, c - lam g): node rows at unit - 1,
    # then pair rows at 4n + (first unit - 1) / 2.  The first two rows hold no
    # positive weight, so their best tree holding a row is the whole tree.
    units = inside[:, 1:]
    ins = np.hstack((units, units.reshape(units.shape[0], -1, 2).sum(axis=2)))
    held = np.repeat(hold, 4, axis=1)       # unit t's parent's hold at t - 1
    held = np.hstack((held, held[:, ::2]))
    caps = np.array([-need, cap, *(cap - lam * need)])
    bounds = caps[:, None] - (held - ins)
    coef_c, coef_g = np.array([[0.0, 1.0, *np.ones(lam.size)], [1.0, 0.0, *lam]])[:, :, None]

    def keep(h, r, val, empty):
        d = (h + 1) // 2
        first = 4 * n + (off[d] - 1) // 2 if h % 2 else off[d] - 1
        lhs = coef_c * val[0]
        lhs -= coef_g * val[1]
        lhs[2:, empty] = -np.inf    # the empty point skips the Lagrangian bounds
        return (lhs <= bounds[:, first + r]).all(axis=0)

    pts, levels, work = _merge_lists(c, g, depth_l, node_limit, keep)
    s = int(np.searchsorted(pts[0], 1))
    pick = _root_pick(c[0], g[0], pts[1, :s], pts[2, :s], pts[1, s:], pts[2, s:], need)
    if pick is None:
        return seed_z, work
    # the root's own level holds the one picked point: the root plus the pair
    levels.insert(0, np.array([[pick[0], s + pick[1]] if pick else [-1, -1], [-1, -1]]))
    return _walk(depth_l, np.zeros(1, dtype=np.intp), lambda h, at: levels[h][at, 0] >= 0,
                 lambda h, at: levels[h][at])[0], work


def _merge_lists(c, g, depth_l, node_limit, keep=None):
    """(pts, levels, work) of the Pareto lists merged up the half-level
    layout: each row's points (c, g), c ascending and g strictly rising but
    in the deepest rows, each with the two points below it sums (-1, -1 for
    the empty point).  With keep(h, r, val, empty), the mask of half-level
    h's points a solve keeps, the merges stop at the root's pair level, else
    at its node level.  pts holds the top level's (row, c, g, summed points),
    levels, top first, each level's summed points as intp rows, then a row
    (-1, -1) that point -1 reads; work counts the points made, checked
    against node_limit before each block."""
    off = _offsets(depth_l)
    own = np.stack((c, g))
    # the deepest candidates' rows, unpruned: the empty point, then the node
    m = 4 ** (depth_l - 1)
    pts = np.zeros((5, 2 * m))      # rows: row, c, g, and the two summed points
    pts[0] = np.arange(2 * m) // 2
    pts[1:3, 1::2] = own[:, off[-2]:]
    pts[3:5, ::2] = -1
    start = np.arange(0, 2 * m + 1, 2)
    levels, work = [np.vstack((pts[3:5].T, [[-1, -1]])).astype(np.intp)], 0
    for h in range(2 * depth_l - 3, -1 if keep is None else 0, -1):
        # a row covers one depth-d node (node levels) or two siblings
        d, node = (h + 1) // 2, 1 - h % 2
        a0, a1 = start[:-1:2], start[1::2]
        pb = start[2::2] - a1
        step = np.maximum(pb, 1)
        cum = np.zeros(2 ** h + 1, dtype=np.intp)
        np.cumsum((a1 - a0) * pb + node, out=cum[1:])
        base, own_l = cum[:-1] + node, own[:, off[d]:off[d] + 2 ** h]
        vals = np.zeros((2, pts.shape[1] + 1))    # the empty point reads the pad
        vals[:, :-1] = pts[1:3]
        parts, carry = [], np.zeros((5, 0))
        for lo in range(0, int(cum[-1]), _BLOCK):
            hi = min(lo + _BLOCK, int(cum[-1]))
            if work + hi - lo > node_limit:
                raise ResourceLimitExceeded(f"node limit of {node_limit} list points reached; "
                                            "raise node_limit to continue the exact solve")
            work += hi - lo
            p = np.arange(lo, hi)
            r = np.searchsorted(cum, p, side="right") - 1
            i, j = np.divmod(p - base[r], step[r])
            empty = i < 0
            i += a0[r]
            j += a1[r]
            new = np.empty((5, hi - lo))
            new[0], new[3], new[4] = r, i, j
            val = np.add(vals[:, i], vals[:, j], out=new[1:3])
            if node:
                val += own_l[:, r]
                val[:, empty] = 0.0
                new[3:5, empty] = -1
            if keep is not None:
                new = new[:, keep(h, r, val, empty)]
            new = np.concatenate((carry, new), axis=1)
            new = new[:, _frontier(new)]
            # the last row's points wait for the next block when the row goes on
            cut = np.searchsorted(new[0], r[-1]) if cum[r[-1] + 1] > hi else new.shape[1]
            if cut:     # a copy: a view would keep the whole block alive
                parts.append(new[:, :cut].copy())
            carry = new[:, cut:]
        pts = np.concatenate(parts + [carry], axis=1)
        start = np.searchsorted(pts[0], np.arange(2 ** h + 1))
        levels.append(np.vstack((pts[3:5].T, [[-1, -1]])).astype(np.intp))
    return pts, levels[::-1], work


def _walk(depth_l, at, held, split) -> np.ndarray:
    """The trees of the root's points at as uint8 rows, read from the root
    down: per half-level h, split(h, at) gives the points of rows 2r and
    2r + 1 below that row r's points split into, along a last axis of two,
    and on node levels held(h, at) marks the nodes they select."""
    off = _offsets(depth_l)
    z = np.zeros((at.size, num_candidates(depth_l)), dtype=np.uint8)
    at = at.reshape(-1, 1)
    for h in range(2 * depth_l - 1):
        if h % 2 == 0:
            mark = held(h, at)
            z[:, off[h // 2]:off[h // 2 + 1]] = mark
            if h == 2 * depth_l - 2 or not mark.any():
                break
        at = split(h, at).reshape(at.shape[0], -1)
    return z


def _frontier_records(inc: IncrementVectors, node_limit: int):
    """(costs, values, reconstruct) of the frontier of rate against
    relevance, costs ascending and values strictly rising from the empty
    tree: the strict prefix records of the lattice's root table with a
    uniform prior, rate classes as costs, else the root list of one unpruned
    merge, which node_limit bounds.  reconstruct(r) gives the trees of a
    batch of records from record r on, _BATCH_ELEMENTS tree entries at most.
    The records hold the first class meeting any floor, and the argmax
    fallback that solve_min_rate takes."""
    batch = max(1, _BATCH_ELEMENTS // max(inc.num_candidates, 1))
    lattice = _lattice_for(inc)
    if lattice is not None:
        rec, values = _rises(lattice.root)
        return rec, values, lambda r: lattice.reconstruct_many(rec[r:r + batch])
    depth_l = depth_from_candidate_count(inc.num_candidates)
    if depth_l == 0:
        return np.zeros(1), np.zeros(1), lambda r: np.zeros((1, 0), dtype=np.uint8)
    pts, levels, _ = _merge_lists(inc.delta_x, inc.delta_y, depth_l, node_limit)
    rec = _frontier(pts)    # a depth-1 root list is not filtered by a merge
    return pts[1, rec], pts[2, rec], lambda r: _walk(
        depth_l, rec[r:r + batch], lambda h, at: levels[h][at, 0] >= 0, lambda h, at: levels[h][at])


_NEG = -1e300
_BATCH_ELEMENTS = 1 << 20   # tree entries per batch of a frontier's reconstruction
_MERGE_ELEMENTS = 1 << 16   # sums per block of a max-plus merge


def _maxplus(U: np.ndarray, V: np.ndarray, width: int | None = None, split: bool = False):
    """Row-wise max-plus convolution out[n, k] = max_i U[n, i] + V[n, k - i],
    for every k below width (default: every k); with split, (out, first),
    where first[n, k] is the smallest i at which that maximum is attained.

    The i are taken in blocks of B.  A block's (B, q) sums, padded with _NEG
    to q + B columns and read back as B rows of q + B - 1, hold sum (i, j) in
    column i - i0 + j, so one max over the rows merges the block.  The
    first maximizer lies in the last block that beat the entry on a strict
    >, so the split notes that block's i0 and then scans that block alone
    with _first_max; with one block, the first maximizer of its sums.
    """
    rows, p = U.shape
    q = V.shape[1]
    width = p + q - 1 if width is None else min(width, p + q - 1)
    out = np.full((rows, width), _NEG)
    noted = np.zeros((rows, width), dtype=np.intp) if split else None
    block = max(1, _MERGE_ELEMENTS // (rows * q))
    for i0 in range(0, min(p, width), block):
        b = min(block, p - i0)
        sums = np.empty((rows, b, q + b))
        sums[:, :, q:] = _NEG
        np.add(U[:, i0:i0 + b, None], V[:, None, :], out=sums[:, :, :q])
        skew = sums.reshape(rows, -1)[:, :b * (q + b - 1)].reshape(rows, b, q + b - 1)
        span = min(q + b - 1, width - i0)
        best = skew[:, :, :span].max(axis=1)
        if split:
            np.copyto(noted[:, i0:i0 + span], i0, where=best > out[:, i0:i0 + span])
        np.maximum(out[:, i0:i0 + span], best, out=out[:, i0:i0 + span])
    if not split:
        return out
    if block >= p:      # one block: the first maximizers of its sums
        return out, skew[:, :, :width].argmax(axis=1)
    n, k = np.divmod(np.arange(rows * width), width)
    noted = noted.ravel()
    return out, _first_max(U, V, n, k, noted, noted + (block - 1)).reshape(rows, width)


def _first_max(U, V, n, k, lo=0, hi=None) -> np.ndarray:
    """Per entry e, the smallest i of lo[e]..hi[e] (default: every i) that
    indexes both rows and maximizes U[n[e], i] + V[n[e], k[e] - i], the float
    additions of _maxplus; an empty window reads i = max(lo, k - (q - 1))."""
    p, q = U.shape[1], V.shape[1]
    lo = np.maximum(lo, k - (q - 1))
    hi = np.minimum(k, p - 1 if hi is None else np.minimum(hi, p - 1))
    count = np.maximum(hi - lo + 1, 1)
    start = np.cumsum(count) - count
    step = np.arange(int(count.sum()))
    left_pos = np.repeat(n * p + lo - start, count)
    left_pos += step
    right_pos = np.repeat(n * q + k - lo + start, count)
    right_pos -= step
    sums = U.take(left_pos)
    sums += V.take(right_pos)
    hit = np.flatnonzero(sums == np.repeat(np.maximum.reduceat(sums, start), count))
    return hit[np.searchsorted(hit, start)] - start + lo


class _LatticeDP:
    """Exact-rate-class relevance tables for worlds with depth-uniform rate costs.

    The tables are one list L of half-levels.  L[2d][m, k] is the maximal
    relevance of an ancestor-closed selection of the subtree rooted at (d, m)
    whose integer rate cost is exactly k (cost unit: the depth-(l-1)
    increment; a depth-d node costs kd = 4^(l-1-d) units).  L[2d+1] holds
    depth d's pair merges: row 2m merges children 0 and 1 of node m, and row
    2m+1 children 2 and 3.  L[2l] holds the finest cells, which are no
    candidates, as the single class 0.  Each half-level is the max-plus merge
    of row pairs 2r and 2r+1 of the one below it; a node level then holds 0,
    the empty tree, at class 0, _NEG below kd, and the node's relevance plus
    the merge from kd on.  Any entry traces back to a selection by splitting
    it at the smallest class of its first half where its two halves sum
    largest.

    Tables are built on demand, up to the largest root class k_cap asked for
    so far.  A node whose ancestors cost A units in all takes no class above
    k_cap - A in a root class up to k_cap, so each level is clipped there,
    and a level whose clip is below its node cost is the single class 0.
    Every clipped entry is its full table's entry bit for bit: the maximum of
    the same sums.

    The root table L[0] is built only when read; the Pareto trace reads it.
    That tabulation also keeps, per half-level h, the split table S[h] of
    each merged entry (the columns of a node level start at kd), which a
    reconstruction then gathers; without it, a reconstruction scans the two
    halves of each entry it splits.  One-shot solves query the root's pair
    merges L[1] instead, and keep no split table.  With pm the
    prefix maxima of L[1][1] and r the root's relevance, the root reaches a
    value v by class k0 + i + j (k0 the root's cost) exactly when
    r + (L[1][0][i'] + L[1][1][j']) >= v for some i' <= i, j' <= j, which is
    r + (L[1][0][i'] + pm[j]) >= v: the sums the root table holds, evaluated
    as it evaluates them, and monotone in j.  So a cheapest class pairs a
    rise of the prefix maxima of L[1][0] with one of L[1][1]; per rise of the
    first, a searchsorted over the second's guesses its partner, and exact
    steps on those float sums correct the guess.
    """

    def __init__(self, delta_y: np.ndarray, depth_l: int, unit: float):
        self.depth_l = depth_l
        self.unit = unit
        self.b = delta_y
        self.root_cost = 4 ** (depth_l - 1)
        self.full_widths = [(depth_l - d) * 4 ** (depth_l - 1 - d) + 1 for d in range(depth_l)]
        self.top = self.full_widths[0] - 1     # the class of the whole tree
        self.k_cap = -1                         # nothing tabulated yet
        self.rises = None                       # _rises of both L[1] rows, once read
        self.S = None                           # the split tables, once the root is read

    def tabulate(self, k_cap: int, split: bool = False) -> None:
        """Build the tables that root classes up to k_cap read, unless the
        tables already reach that far; with split, every table through the
        root's, with its split table.  Classes below the root's own cost
        hold only the empty tree and read none."""
        if k_cap < self.root_cost or (k_cap <= self.k_cap and (self.S is not None or not split)):
            return
        depth_l = self.depth_l
        self.k_cap = k_cap
        self.widths = []
        ancestors = 0
        for d in range(depth_l):
            self.widths.append(min(self.full_widths[d], k_cap - ancestors + 1))
            ancestors += 4 ** (depth_l - 1 - d)
        self.L: list[np.ndarray] = [None] * (2 * depth_l) + [np.zeros((4 ** depth_l, 1))]
        self.S = [None] * (2 * depth_l) if split else None
        for h in range(2 * depth_l - 1, -1 if split else 0, -1):
            self._merge(h)
        self.rises = None

    def _merge(self, h: int) -> None:
        """Half-level h from the row pairs of half-level h + 1."""
        d = h // 2
        kd, width = 4 ** (self.depth_l - 1 - d), self.widths[d]
        if width <= kd:     # no class up to the cap selects a depth-d node
            self.L[h] = np.zeros((2 ** h, 1))
            return
        below = self.L[h + 1]
        merge = _maxplus(below[0::2], below[1::2], width - kd, self.S is not None)
        if self.S is not None:
            merge, first = merge
            self.S[h] = first.astype(np.int32)     # half the gathers' memory traffic
        if h % 2:
            self.L[h] = merge
            return
        node = np.full((merge.shape[0], kd + merge.shape[1]), _NEG)
        node[:, 0] = 0.0
        node[:, kd:] = self.b[depth_offset(d):depth_offset(d + 1), None] + merge
        self.L[h] = node

    @property
    def root(self) -> np.ndarray:
        """The full root table, tabulated with the split tables."""
        self.tabulate(self.top, split=True)
        return self.L[0][0]

    def best_value(self, k_cap: int) -> float:
        """The largest value of the root table in classes 0..k_cap."""
        j_cap = k_cap - self.root_cost
        if j_cap < 0:
            return 0.0      # the root alone costs more: only the empty tree fits
        self.tabulate(k_cap)
        m12, m34 = self.L[1]
        pm = np.maximum.accumulate(m34)
        i = np.arange(min(m12.size, j_cap + 1))
        tail = self.b[0] + (m12[i] + pm[np.minimum(j_cap - i, pm.size - 1)]).max()
        return max(0.0, float(tail))

    def first_class(self, value: float, k_cap: int) -> int | None:
        """The first class in 0..k_cap whose root table value reaches value,
        None when none does."""
        if 0.0 >= value:
            return 0
        j_cap = k_cap - self.root_cost
        if j_cap < 0:
            return None
        self.tabulate(k_cap)
        # an entry of either half below an earlier one starts no cheapest pair;
        # the rises are kept until the tables are rebuilt
        if self.rises is None:
            self.rises = tuple(map(_rises, self.L[1]))
        (i, u), (j, w) = self.rises
        last = j.size - 1
        r = _first_partner(self.b[0], u, w, value)
        # an i whose first reaching partner lies past the cap has none below it
        k = (i + j[np.minimum(r, last)])[r <= last]
        k = k[k <= j_cap]
        return self.root_cost + int(k.min()) if k.size else None

    def reconstruct_many(self, k_targets) -> np.ndarray:
        """The tree of each tabulated root class in k_targets, as the rows of
        one uint8 matrix, by _walk over all of a half-level's rows at once: a
        node is selected where its class is positive, its class less its own
        cost splits between its pair merges, and a pair's class between its
        two children.  The splits are gathered from the split tables when
        the root's tabulation kept them, else found by _first_max's scans,
        whose size grows with every class split: callers without the tables
        pass a single class."""
        depth_l = self.depth_l

        def split(h, k):
            if h % 2 == 0:
                k = np.maximum(k - 4 ** (depth_l - 1 - h // 2), 0)
            rows = np.arange(k.shape[1], dtype=np.int32)
            if self.S is None:
                below = self.L[h + 1]
                first = _first_max(below[0::2], below[1::2], np.broadcast_to(rows, k.shape).ravel(),
                                   k.ravel()).reshape(k.shape)
            else:
                first = self.S[h].take(rows * self.S[h].shape[1] + k)
            return np.stack((first, k - first), axis=-1)

        return _walk(depth_l, np.asarray(k_targets, dtype=np.int32), lambda h, k: k > 0, split)


def _first_partner(base, u, w, value) -> np.ndarray:
    """Per entry of u, the first index r of the ascending w at which
    base + (u + w[r]) >= value, w.size where none does: a searchsorted guess,
    then exact steps on those float sums."""
    last = w.size - 1

    def reaches(r):
        return base + (u + w[np.minimum(r, last)]) >= value

    r = np.searchsorted(w, value - base - u)
    while np.any(step := (r <= last) & ~reaches(r)):
        r += step
    while np.any(step := (r > 0) & reaches(r - 1)):
        r -= step
    return r


def _rises(v: np.ndarray):
    """The positions where the prefix maxima of v rise, and v there."""
    at = np.flatnonzero(np.diff(np.maximum.accumulate(v), prepend=-np.inf))
    return at, v[at]


# the rate-class lattice (or None) of each increments object, held only while
# that object lives; it keeps the tables of the largest class cap asked for
_LATTICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _lattice_for(inc: IncrementVectors) -> _LatticeDP | None:
    """The rate-class lattice when delta_x is depth-uniform with the exact
    4-to-1 depth scaling, None otherwise; one per increments object, which
    tabulates as far as the solves on it ask."""
    if inc not in _LATTICES:
        a = inc.delta_x
        depth_l = depth_from_candidate_count(a.size)
        unit = float(a[depth_offset(depth_l - 1)]) if depth_l else 0.0
        uniform = unit > 0
        for d in range(depth_l):
            level = a[depth_offset(d):depth_offset(d + 1)]
            expected = unit * 4 ** (depth_l - 1 - d)
            if np.ptp(level) != 0.0 or abs(float(level[0]) - expected) > 1e-14 * expected:
                uniform = False
        _LATTICES[inc] = _LatticeDP(inc.delta_y, depth_l, unit) if uniform else None
    return _LATTICES[inc]


def _result_from_z(z, inc: IncrementVectors, problem, nodes, t0, status="optimal") -> SolveResult:
    """The result of selection z for problem "min-rate" (objective i_x) or
    "max-relevance" (objective i_y); an "infeasible" one has a NaN objective."""
    selection = TreeSelection(z)
    i_x, i_y = tree_information(selection, inc)
    objective = i_x if problem == "min-rate" else i_y
    if status == "infeasible":
        objective = float("nan")
    return SolveResult(
        selection, i_x, i_y, objective, status, nodes,
        (time.perf_counter() - t0) * 1e3,
    )


def solve_min_rate(inc: IncrementVectors, d_hat: float,
                   node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Most compressed valid tree with relevance at least d_hat (within 1e-9).

    Returns status "infeasible" when d_hat exceeds the total available
    relevance; otherwise the objective is exact up to the feasibility
    tolerance.
    """
    _check_bound("d_hat", d_hat)
    t0 = time.perf_counter()
    a, b = inc.delta_x, inc.delta_y
    depth_l = depth_from_candidate_count(a.size)
    total_b = float(b.sum())
    if d_hat > total_b + TOL:
        return _result_from_z(np.zeros(a.size, np.uint8), inc, "min-rate", 0, t0, "infeasible")
    need = d_hat - TOL
    if need <= 0 or a.size == 0:
        return _result_from_z(np.zeros(a.size, np.uint8), inc, "min-rate", 0, t0)
    lattice = _lattice_for(inc)
    if lattice is not None:
        # a floor above the root's maximum, which summation-order dust can leave
        # an ulp short of the total, takes the first class holding that maximum
        k = lattice.first_class(min(need, lattice.best_value(lattice.top)), lattice.top)
        return _result_from_z(lattice.reconstruct_many([k])[0], inc, "min-rate", 0, t0)
    z, nodes = _solve_covering(a, b, need, node_limit, depth_l)
    return _result_from_z(z, inc, "min-rate", nodes, t0)


def solve_max_relevance(inc: IncrementVectors, budget_d: float,
                        node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Most relevant valid tree with rate at most budget_d (within 1e-9).

    Always feasible: the root tree costs nothing.
    """
    _check_bound("budget", budget_d)
    t0 = time.perf_counter()
    a, b = inc.delta_x, inc.delta_y
    depth_l = depth_from_candidate_count(a.size)
    if a.size == 0:
        return _result_from_z(np.zeros(0, np.uint8), inc, "max-relevance", 0, t0)
    cap = budget_d + TOL
    lattice = _lattice_for(inc)
    if lattice is not None:
        # min before int, so that an infinite budget takes the top class
        k_cap = int(min(cap / lattice.unit + 1e-9, lattice.top))
        # the cheapest class within TOL of the best: a dearer class can win
        # the argmax by summation-order dust alone.  Below the root's own
        # cost only the empty tree fits, and nothing is tabulated.
        k = lattice.first_class(lattice.best_value(k_cap) - TOL, k_cap)
        return _result_from_z(lattice.reconstruct_many([k])[0], inc, "max-relevance", 0, t0)
    z, nodes = _solve_covering(-b, -a, -cap, node_limit, depth_l)
    return _result_from_z(z, inc, "max-relevance", nodes, t0)


@lru_cache(maxsize=8)
def _selection_matrix(depth_l: int) -> np.ndarray:
    """All valid selections of a depth-l tree as rows, all-zeros row first."""
    if depth_l == 0:
        out = np.zeros((1, 0), dtype=np.uint8)
    elif depth_l == 1:
        out = np.array([[0], [1]], dtype=np.uint8)
    else:
        sub = _selection_matrix(depth_l - 1)
        count, nsub = sub.shape
        n = (4 ** depth_l - 1) // 3
        # candidate (d', m') of subtree k sits at full index off(d'+1) + k*4^d' + m'
        maps = []
        for k in range(4):
            pieces = [
                depth_offset(dp + 1) + k * 4 ** dp + np.arange(4 ** dp)
                for dp in range(depth_l - 1)
            ]
            maps.append(np.concatenate(pieces) if pieces else np.zeros(0, np.int64))
        combos = np.indices((count,) * 4).reshape(4, -1).T
        out = np.zeros((1 + combos.shape[0], n), dtype=np.uint8)
        out[1:, 0] = 1
        for k in range(4):
            out[1:, maps[k]] = sub[combos[:, k]]
    out.setflags(write=False)
    return out


def count_valid_selections(depth_l: int) -> int:
    """f(0) = 1, f(d) = 1 + f(d-1)^4."""
    count = 1
    for _ in range(depth_l):
        count = 1 + count ** 4
    return count


def enumerate_valid_selections(depth_l: int):
    """Yield every valid selection exactly once; capped at depth 3.

    Beyond depth 3 the space grows as f(d) = 1 + f(d-1)^4 (f(4) is roughly
    4.9e19), so exhaustive enumeration is refused.
    """
    if depth_l < 0:
        raise ValueError(f"negative depth_l: {depth_l}")
    if depth_l > 3:
        raise ValueError(
            f"enumeration capped at depth 3: depth {depth_l} has "
            f"{count_valid_selections(depth_l)} valid selections (combinatorial blowup)"
        )
    for row in _selection_matrix(depth_l):
        yield TreeSelection(row)


def brute_force_solve(inc: IncrementVectors, problem: str, bound: float) -> SolveResult:
    """Exhaustive-scan oracle.  It breaks ties within 1e-9 as the solvers do
    and takes the lexicographically smallest of the trees tied on both values.

    problem is "min-rate" or "max-relevance"; bound is the matching d_hat or
    budget.
    """
    t0 = time.perf_counter()
    depth_l = depth_from_candidate_count(inc.num_candidates)
    if depth_l > 3:
        raise ValueError("brute force capped at depth 3 (combinatorial blowup)")
    Z = _selection_matrix(depth_l)
    ix = Z @ inc.delta_x
    iy = Z @ inc.delta_y
    if problem == "min-rate":
        _check_bound("d_hat", bound)
        feasible = iy >= bound - TOL
        if not feasible.any():
            return _result_from_z(Z[0], inc, problem, 0, t0, "infeasible")
        candidates = np.flatnonzero(feasible)
        best_obj = ix[candidates].min()
        candidates = candidates[ix[candidates] <= best_obj + TOL]
        best_iy = iy[candidates].max()
        candidates = candidates[iy[candidates] >= best_iy - TOL]
    elif problem == "max-relevance":
        _check_bound("budget", bound)
        feasible = ix <= bound + TOL
        candidates = np.flatnonzero(feasible)
        best_obj = iy[candidates].max()
        candidates = candidates[iy[candidates] >= best_obj - TOL]
        best_ix = ix[candidates].min()
        candidates = candidates[ix[candidates] <= best_ix + TOL]
    else:
        raise ValueError(f"unknown problem kind: {problem!r}")
    winner = min(candidates, key=lambda i: _pack_bits(Z[i]))
    return _result_from_z(Z[winner], inc, problem, len(Z), t0)
