"""Exact solvers for the tree-abstraction programs plus a small-world oracle.

Each program optimizes a linear objective over valid tree selections under
one information row:

  min-rate        minimize z . delta_x   subject to z . delta_y >= d_hat
  max-relevance   maximize z . delta_y   subject to z . delta_x <= budget

Validity (a child selected only with its parent) is built into the search:
a candidate is branched on only once its parent is selected, so every
explored assignment is a tree.

Non-uniform priors run both programs as one covering search,

  minimize c . z   subject to g . z >= need,

with min-rate as (delta_x, delta_y, d_hat) and max-relevance as
(-delta_y, -delta_x, -budget).  Negation is exact in floating point, so each
program makes the same comparisons as in its direct form, and one greedy
seed serves both.
Bounds come from the Lagrangian dual of the row over the tree-validity
polytope.  For a fixed multiplier lam the inner problem is a minimum-weight
ancestor-closed subtree of c - lam * g, solved in one bottom-up pass.  The
dual is concave and piecewise linear in lam, and _parametric_dual finds its
optimum by Newton steps between two bracketing subtrees (the generalized
BFOS pruning sequence), a few closure passes in all.  That optimum is the
root bound: the LP relaxation's value at the search's floor (the LP
relaxation uses the same routine), which no other multiplier's value
exceeds.  A greedy seed whose cost is within 1e-9 of it is certified and
returned without search.  Only otherwise is the ladder built: because the
duals of the remaining subproblems drift as the search fixes the shallow
backbone, bounds are evaluated on a geometric ladder of multipliers around
the root-optimal one (every multiplier gives a valid bound), tabulated in
one closure pass over all of them; the fractional-knapsack critical ratio
is one of the ladder anchors, so the per-node bound dominates the plain
knapsack bound as well.
Per search node the bound update is a single K-vector operation.

Feasibility tolerance is 1e-9 everywhere; ties within it are broken by
smaller c . z, then larger g . z: smaller rate before larger relevance for
min-rate, larger relevance before smaller rate for max-relevance.  Among
trees tied on both, the search and brute_force_solve take the
lexicographically smallest selection vector.  A min-rate solve therefore
returns a most relevant tree among those of minimal rate, which is a Pareto
point: the frontier trace needs no second program.

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
straddles two classes.  The reconstruction splits each merged class at the
smallest index where its two halves sum largest, the sum the merge stored;
among tied trees that need not give the lexicographically smallest one.
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

_LADDER_SPAN = 10     # multipliers cover anchor * 2^[-span, span]
_LADDER_STEPS = 29
# Newton slacks: a subtree within _FLOOR_SLACK of a row's bound keeps the row,
# and a closure within _DUAL_SLACK of the bracket lines does not lie below
# them.  Without them subtrees tied at the optimal multiplier make the steps
# cycle.
_FLOOR_SLACK = 1e-12    # relative to the row's total
_DUAL_SLACK = 1e-14     # relative to the magnitude of a dual line


class ResourceLimitExceeded(RuntimeError):
    """Search hit its node-exploration limit before proving optimality."""


@dataclass(frozen=True)
class SolveResult:
    selection: TreeSelection
    i_x: float
    i_y: float
    objective: float
    status: str                 # "optimal" or "infeasible"
    nodes_explored: int
    wall_time_ms: float


def _offsets(depth_l: int) -> list[int]:
    return [depth_offset(d) for d in range(depth_l + 1)]


def _subtree_sums(vec: np.ndarray, depth_l: int) -> np.ndarray:
    """sums[..., t] = vec summed over t and all of t's descendant candidates,
    for a vector or for each row of a matrix."""
    off = _offsets(depth_l)
    out = vec.astype(np.float64)
    for d in range(depth_l - 2, -1, -1):
        kids = out[..., off[d + 1]:off[d + 2]]
        out[..., off[d]:off[d + 1]] += kids.reshape(vec.shape[:-1] + (-1, 4)).sum(axis=-1)
    return out


def _closure_best(w: np.ndarray, depth_l: int) -> np.ndarray:
    """best[..., t]: least weight of an ancestor-closed subset of t's subtree
    containing t, for a weight vector w or for each row of a (K, n) matrix."""
    off = _offsets(depth_l)
    best = w.copy()
    for d in range(depth_l - 2, -1, -1):
        kids = np.minimum(best[..., off[d + 1]:off[d + 2]], 0.0)
        best[..., off[d]:off[d + 1]] += kids.reshape(w.shape[:-1] + (-1, 4)).sum(axis=-1)
    return best


def _knapsack_ratio(c, g, bound) -> float:
    """Critical price of the fractional covering knapsack min c.u s.t.
    g.u >= bound, 0 <= u <= 1, for g of one sign: the smallest breakpoint
    c/g at which the items with c - lam*g < 0 cover the bound.

    The greedy takes items cheapest per unit of |g| first, which is the
    order in which they turn negative as lam rises (g > 0) or falls (g < 0).
    The price is the ratio of the item at which its coverage crosses the
    bound; 0 when the empty selection covers the bound and no item uncovers
    it, and the last item's ratio when the bound is out of reach.
    """
    sel = g != 0
    if not np.any(sel):
        return 0.0
    c, g = c[sel], g[sel]
    ratio = c / g
    order = np.argsort(c / np.abs(g), kind="stable")
    start = 0.0 >= bound
    cross = np.flatnonzero((np.cumsum(g[order]) >= bound) != start)
    if cross.size:
        return float(ratio[order[cross[0]]])
    return 0.0 if start else float(ratio[order[-1]])


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


def _ladder(c, g, bound, lam_star, depth_l):
    """Lower-bound ladder (lam, G, D1) of the covering program
    min {c.z : g.z >= bound} over valid selections: the (K,) multipliers,
    and per candidate r the K-vectors by which a branch moves the frontier
    gain sum, D1[r] for value 1 and -G[r] for value 0.

    The multipliers are a geometric grid around the larger of the dual's
    optimal multiplier lam_star and the fractional-knapsack critical ratio,
    plus both anchors.  All their closures come from one pass over a (K, n)
    weight matrix, one row per multiplier, so each row sums exactly as a
    single-vector pass would.
    """
    anchors = (lam_star, _knapsack_ratio(c, g, bound))
    grid = max(*anchors, 1e-9) * np.exp2(np.linspace(-_LADDER_SPAN, _LADDER_SPAN, _LADDER_STEPS))
    lam = np.unique(np.concatenate([grid, [a for a in anchors if a > 0]]))
    w = c - lam[:, None] * g
    best = _closure_best(w, depth_l)
    gain = np.minimum(best, 0.0)
    return lam, np.ascontiguousarray(gain.T), np.ascontiguousarray((best - w - gain).T)


def _seed(c, g, need) -> np.ndarray:
    """Greedy feasible selection for min c.z s.t. g.z >= need.

    Items with g > 0 or c < 0 are visited cheapest per unit of |g| first.
    Each one's chain (the item plus its unselected ancestors) is added while
    the row is unmet, or when the item has c < 0 and the chain keeps the row.
    A trim pass then drops selection leaves with c >= 0, priciest first,
    whenever the row can spare them.
    """
    n = c.size
    z = np.zeros(n, dtype=bool)
    take = np.flatnonzero((g > 0) | (c < 0))
    with np.errstate(divide="ignore"):
        order = take[np.argsort(c[take] / np.abs(g[take]), kind="stable")]
    covered = 0.0
    for idx in order.tolist():
        met = covered >= need
        if z[idx] or (met and c[idx] >= 0):
            continue
        chain = []
        t = idx
        while t >= 0 and not z[t]:
            chain.append(t)
            t = (t - 1) >> 2 if t else -1
        gain = g[chain].sum()
        if met and covered + gain < need:
            continue
        z[chain] = True
        covered += gain
    if covered < need:  # numerical remainder: take everything
        z[:] = True
        covered = float(g.sum())
    sel_idx = np.flatnonzero(z)
    child_count = np.bincount((sel_idx[sel_idx > 0] - 1) >> 2, minlength=n)
    heap = [(-float(c[i]), i) for i in sel_idx.tolist() if not child_count[i] and c[i] >= 0]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        if covered - g[idx] >= need:
            z[idx] = False
            covered -= float(g[idx])
            if idx:
                parent = (idx - 1) >> 2
                child_count[parent] -= 1
                if not child_count[parent] and c[parent] >= 0:
                    heapq.heappush(heap, (-float(c[parent]), parent))
    return z.astype(np.uint8)


def _pack_bits(z) -> bytes:
    return np.packbits(np.asarray(z, dtype=np.uint8)).tobytes()


class _Incumbent:
    __slots__ = ("c", "g", "pack", "z")

    def __init__(self, c, g, z):
        self.c = c
        self.g = g
        self.pack = _pack_bits(z)
        self.z = np.asarray(z, dtype=np.uint8).copy()


def _better(fc, fg, pack_fn, inc: _Incumbent) -> bool:
    """Smaller c, then larger g, then the lexicographically smaller selection."""
    if fc < inc.c - TOL:
        return True
    if fc > inc.c + TOL:
        return False
    if fg > inc.g + TOL:
        return True
    if fg < inc.g - TOL:
        return False
    return pack_fn() < inc.pack


_ENTER, _BRANCH, _UNDO = range(3)   # the search's task kinds


def _search(c, g, need, ladder, seed_z, node_limit, depth_l):
    """Depth-first exact search of min c.z s.t. g.z >= need from the seed
    selection seed_z as first incumbent; returns (z, nodes_explored).

    Candidates are decided in canonical order among the currently available
    ones (children enter the queue only once their parent is selected), the
    seed's value is branched first, and a subtree is pruned when the
    undecided candidates cannot bring g.z up to need, or when its dual
    bound cannot tie the incumbent within tolerance.  A candidate whose
    whole subtree has c = g = 0 stays 0 undecided: selecting it changes
    neither sum and only makes the selection lexicographically larger.

    The search runs from an explicit stack of tasks: enter the decision at
    a queue position, take one value of a candidate, and undo a taken 1.  A
    branch's prunes are tested when it is popped, so the second value of a
    candidate is judged against the incumbent its sibling's subtree left.
    """
    n = c.size
    # per candidate, the most it can add to g.z and the least it can add to
    # c.z; alone and summed over its subtree
    clipped = np.stack([np.maximum(g, 0.0), np.minimum(c, 0.0)])
    g_up, c_dn = clipped.tolist()
    sub_g_up, sub_c_dn = _subtree_sums(clipped, depth_l).tolist()
    cL, gL = c.tolist(), g.tolist()
    lam, G, D1 = ladder
    live = (_subtree_sums((c != 0) | (g != 0), depth_l) > 0).tolist()
    inner = depth_offset(depth_l - 1)   # candidates with candidate children
    live_kids = [tuple(k for k in range(4 * r + 1, 4 * r + 5) if live[k])
                 for r in range(inner)] + [()] * (n - inner)

    best = _Incumbent(float(c @ seed_z), float(g @ seed_z), seed_z)
    seed_first = seed_z.tolist()

    zcur = [0] * n
    pending = [0] if live[0] else []
    nodes = 0
    # rest_up: the most the undecided candidates can add to g.z; rest_c: the
    # least they can add to c.z
    stack = [(_ENTER, 0, 0.0, 0.0, G[0].copy(), sub_g_up[0], sub_c_dn[0])]
    while stack:
        task = stack.pop()
        if task[0] == _UNDO:
            _, r, saved_len = task
            del pending[saved_len:]
            zcur[r] = 0
            continue
        if task[0] == _ENTER:
            _, pi, fc, fg, s, rest_up, rest_c = task
            if pi == len(pending):
                if fg >= need and _better(fc, fg, lambda: _pack_bits(zcur), best):
                    best = _Incumbent(fc, fg, zcur)
                continue
            nodes += 2
            if nodes > node_limit:
                raise ResourceLimitExceeded(
                    f"node-exploration limit of {node_limit} reached; "
                    "raise node_limit to continue the exact search"
                )
            r = pending[pi]
            first = seed_first[r]
            stack.append((_BRANCH, pi, r, 1 - first, fc, fg, s, rest_up, rest_c))
            stack.append((_BRANCH, pi, r, first, fc, fg, s, rest_up, rest_c))
            continue
        _, pi, r, v, fc, fg, s, rest_up, rest_c = task
        if v:
            fc += cL[r]
            fg += gL[r]
            rest_up -= g_up[r]
            rest_c -= c_dn[r]
        else:
            rest_up -= sub_g_up[r]
            rest_c -= sub_c_dn[r]
        if fg + rest_up < need:
            continue
        s = s + D1[r] if v else s - G[r]
        worst = best.c + TOL
        if fc + rest_c > worst or fc + float((lam * (need - fg) + s).max()) > worst:
            continue
        if v:
            zcur[r] = 1
            stack.append((_UNDO, r, len(pending)))
            pending.extend(live_kids[r])
        stack.append((_ENTER, pi + 1, fc, fg, s, rest_up, rest_c))
    return best.z, nodes


def _solve_covering(c, g, need, node_limit, depth_l):
    """(z, nodes_explored) of min c.z s.t. g.z >= need: the greedy seed when
    the dual optimum certifies it, else the search's optimum."""
    seed_z = _seed(c, g, need)
    lam_star, root_bound, _, _ = _parametric_dual(c, g, need, depth_l)
    if float(c @ seed_z) <= root_bound + TOL:
        return seed_z, 0
    ladder = _ladder(c, g, need, lam_star, depth_l)
    return _search(c, g, need, ladder, seed_z, node_limit, depth_l)


_NEG = -1e300
_BATCH_ELEMENTS = 1 << 20   # entries per split scan in a batched reconstruction
_MERGE_ELEMENTS = 1 << 16   # sums per block of a max-plus merge


def _maxplus(U: np.ndarray, V: np.ndarray, width: int | None = None) -> np.ndarray:
    """Row-wise max-plus convolution out[n, k] = max_i U[n, i] + V[n, k - i],
    for every k below width (default: every k).

    The i are taken in blocks of B.  A block's (B, q) sums, padded with _NEG
    to q + B columns and read back as B rows of q + B - 1, hold sum (i, j) in
    column i - i0 + j, so one max over the rows merges the block.
    """
    rows, p = U.shape
    q = V.shape[1]
    width = p + q - 1 if width is None else min(width, p + q - 1)
    out = np.full((rows, width), _NEG)
    block = max(1, _MERGE_ELEMENTS // (rows * q))
    for i0 in range(0, min(p, width), block):
        b = min(block, p - i0)
        sums = np.empty((rows, b, q + b))
        sums[:, :, q:] = _NEG
        np.add(U[:, i0:i0 + b, None], V[:, None, :], out=sums[:, :, :q])
        skew = sums.reshape(rows, -1)[:, :b * (q + b - 1)].reshape(rows, b, q + b - 1)
        span = min(q + b - 1, width - i0)
        np.maximum(out[:, i0:i0 + span], skew[:, :, :span].max(axis=1),
                   out=out[:, i0:i0 + span])
    return out


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
    it where its two halves sum largest.

    Tables are built on demand, up to the largest root class k_cap asked for
    so far.  A node whose ancestors cost A units in all takes no class above
    k_cap - A in a root class up to k_cap, so each level is clipped there,
    and a level whose clip is below its node cost is the single class 0.
    Every clipped entry is its full table's entry bit for bit: the maximum of
    the same sums.

    The root table L[0] is built only when read; the Pareto trace reads it.
    One-shot solves query the root's pair merges L[1] instead.  With pm the
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
        # per row: its tree, and split scans of at most 4^d * width(L[2d+1])
        # entries at depth d
        per_row = max([num_candidates(depth_l)] + [
            4 ** d * (2 * self.full_widths[d + 1] - 1) for d in range(depth_l - 1)])
        self.batch_rows = max(1, _BATCH_ELEMENTS // per_row)

    def tabulate(self, k_cap: int) -> None:
        """Build the tables that root classes up to k_cap read, unless the
        tables already reach that far.  Classes below the root's own cost
        hold only the empty tree and read none."""
        if k_cap <= self.k_cap or k_cap < self.root_cost:
            return
        depth_l = self.depth_l
        self.k_cap = k_cap
        self.widths = []
        ancestors = 0
        for d in range(depth_l):
            self.widths.append(min(self.full_widths[d], k_cap - ancestors + 1))
            ancestors += 4 ** (depth_l - 1 - d)
        self.L: list[np.ndarray] = [None] * (2 * depth_l) + [np.zeros((4 ** depth_l, 1))]
        for h in range(2 * depth_l - 1, 0, -1):
            self._merge(h)

    def _merge(self, h: int) -> None:
        """Half-level h from the row pairs of half-level h + 1."""
        d = h // 2
        kd, width = 4 ** (self.depth_l - 1 - d), self.widths[d]
        if width <= kd:     # no class up to the cap selects a depth-d node
            self.L[h] = np.zeros((2 ** h, 1))
            return
        below = self.L[h + 1]
        merge = _maxplus(below[0::2], below[1::2], width - kd)
        if h % 2:
            self.L[h] = merge
            return
        node = np.full((merge.shape[0], kd + merge.shape[1]), _NEG)
        node[:, 0] = 0.0
        node[:, kd:] = self.b[depth_offset(d):depth_offset(d + 1), None] + merge
        self.L[h] = node

    @property
    def root(self) -> np.ndarray:
        """The full root table."""
        self.tabulate(self.top)
        if self.L[0] is None:
            self._merge(0)
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
        m12, m34 = self.L[1]
        # an entry of either half below an earlier one starts no cheapest pair
        i, u = _rises(m12)
        j, w = _rises(m34)
        last = j.size - 1

        def reaches(r):     # the root table's own float sums
            return self.b[0] + (u + w[np.minimum(r, last)]) >= value

        # a float guess of each i's first rise of L[1][1], then exact steps to it
        r = np.searchsorted(w, value - self.b[0] - u)
        while np.any(step := (r <= last) & ~reaches(r)):
            r += step
        while np.any(step := (r > 0) & reaches(r - 1)):
            r -= step
        # an i whose first reaching partner lies past the cap has none below it
        k = (i + j[np.minimum(r, last)])[r <= last]
        k = k[k <= j_cap]
        return self.root_cost + int(k.min()) if k.size else None

    def reconstruct_many(self, k_targets) -> np.ndarray:
        """The tree of each tabulated root class in k_targets, as the rows of
        one uint8 matrix.  Callers pass at most batch_rows classes, so that
        the split scans hold no more than about _BATCH_ELEMENTS entries.

        Per level, the active (row, node, class) triples are deduplicated
        over (node, class), since rows often share subtrees.  Each distinct
        node entry is split into its pair merges' classes, and each of those
        into its two children's classes.
        """
        depth_l = self.depth_l
        k_targets = np.asarray(k_targets, dtype=np.int64)
        z = np.zeros((k_targets.size, num_candidates(depth_l)), dtype=np.uint8)
        row = np.flatnonzero(k_targets)
        m = np.zeros(row.size, dtype=np.int64)
        k = k_targets[row]
        for d in range(depth_l):
            z[row, depth_offset(d) + m] = 1
            if d == depth_l - 1 or not row.size:
                break
            width = self.widths[d]
            keys, inverse = np.unique(m * width + k, return_inverse=True)
            um, uk = np.divmod(keys, width)
            j = uk - 4 ** (depth_l - 1 - d)
            j12 = _first_split(self.L[2 * d + 1], um, j)
            pairs = np.stack([2 * um, 2 * um + 1], axis=1).ravel()
            jp = np.stack([j12, j - j12], axis=1).ravel()
            first = _first_split(self.L[2 * d + 2], pairs, jp)
            kids = np.stack([first, jp - first], axis=1).reshape(-1, 4)[inverse].ravel()
            keep = kids > 0
            row = np.repeat(row, 4)[keep]
            m = (4 * m[:, None] + np.arange(4)).ravel()[keep]
            k = kids[keep]
        return z


def _rises(v: np.ndarray):
    """The positions where the prefix maxima of v rise, and v there."""
    at = np.flatnonzero(np.diff(np.maximum.accumulate(v), prepend=-np.inf))
    return at, v[at]


def _first_split(table, rows, k) -> np.ndarray:
    """Per entry i, the smallest j at which
    table[2 rows[i], j] + table[2 rows[i] + 1, k[i] - j] is largest.

    That largest sum is the entry _maxplus merged from the two rows: both
    make the same float additions, and max is exact.
    """
    p = table.shape[1]
    lo = np.maximum(k - (p - 1), 0)
    count = np.minimum(k, p - 1) - lo + 1
    start = np.cumsum(count) - count
    step = np.arange(int(count.sum()))
    left_pos = np.repeat(2 * rows * p + lo - start, count)
    left_pos += step
    right_pos = np.repeat((2 * rows + 1) * p + k - lo + start, count)
    right_pos -= step
    sums = table.take(left_pos)
    sums += table.take(right_pos)
    hit = np.flatnonzero(sums == np.repeat(np.maximum.reduceat(sums, start), count))
    return hit[np.searchsorted(hit, start)] - start + lo


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


def _result_from_z(z, inc: IncrementVectors, problem, nodes, t0) -> SolveResult:
    """The result of selection z for problem "min-rate" (objective i_x) or
    "max-relevance" (objective i_y)."""
    selection = TreeSelection(np.asarray(z, dtype=np.uint8))
    i_x, i_y = tree_information(selection, inc)
    objective = i_x if problem == "min-rate" else i_y
    return SolveResult(
        selection, i_x, i_y, objective, "optimal", nodes,
        (time.perf_counter() - t0) * 1e3,
    )


def _infeasible_result(inc: IncrementVectors, t0) -> SolveResult:
    selection = TreeSelection(np.zeros(inc.num_candidates, dtype=np.uint8))
    return SolveResult(
        selection, 0.0, 0.0, float("nan"), "infeasible", 0,
        (time.perf_counter() - t0) * 1e3,
    )


def solve_min_rate(inc: IncrementVectors, d_hat: float,
                   node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Most compressed valid tree with relevance at least d_hat (within 1e-9).

    Returns status "infeasible" when d_hat exceeds the total available
    relevance; otherwise the objective is exact up to the feasibility
    tolerance.
    """
    if not d_hat >= 0:
        raise ValueError(f"negative d_hat: {d_hat}")
    t0 = time.perf_counter()
    a, b = inc.delta_x, inc.delta_y
    depth_l = depth_from_candidate_count(a.size)
    total_b = float(b.sum())
    if d_hat > total_b + TOL:
        return _infeasible_result(inc, t0)
    need = d_hat - TOL
    if need <= 0 or a.size == 0:
        return _result_from_z(np.zeros(a.size, np.uint8), inc, "min-rate", 0, t0)
    lattice = _lattice_for(inc)
    if lattice is not None:
        k = lattice.first_class(need, lattice.top)
        if k is None:
            # summation-order dust can leave the full-coverage class an ulp
            # short of a floor that sits right at the feasibility edge: take
            # the first class holding the root's maximum
            k = lattice.first_class(lattice.best_value(lattice.top), lattice.top)
        return _result_from_z(lattice.reconstruct_many([k])[0], inc, "min-rate", 0, t0)
    z, nodes = _solve_covering(a, b, need, node_limit, depth_l)
    return _result_from_z(z, inc, "min-rate", nodes, t0)


def solve_max_relevance(inc: IncrementVectors, budget_d: float,
                        node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Most relevant valid tree with rate at most budget_d (within 1e-9).

    Always feasible: the root tree costs nothing.
    """
    if not budget_d >= 0:
        raise ValueError(f"negative budget: {budget_d}")
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
    """Exhaustive-scan oracle, ties broken exactly like the search solvers.

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
        if not bound >= 0:
            raise ValueError(f"negative d_hat: {bound}")
        feasible = iy >= bound - TOL
        if not feasible.any():
            return _infeasible_result(inc, t0)
        candidates = np.flatnonzero(feasible)
        best_obj = ix[candidates].min()
        candidates = candidates[ix[candidates] <= best_obj + TOL]
        best_iy = iy[candidates].max()
        candidates = candidates[iy[candidates] >= best_iy - TOL]
    elif problem == "max-relevance":
        if not bound >= 0:
            raise ValueError(f"negative budget: {bound}")
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
