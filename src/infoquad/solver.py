"""Exact solvers for the two tree-abstraction programs plus a small-world oracle.

Both programs optimize a linear objective over valid tree selections:

  min-rate        minimize z . delta_x   subject to z . delta_y >= d_hat
  max-relevance   maximize z . delta_y   subject to z . delta_x <= budget

plus an equality variant (z . delta_x pinned to a value attained by some tree)
used by the Pareto trace.  Validity (a child selected only with its parent) is
built into the search: a candidate is branched on only once its parent is
selected, so every explored assignment is a tree.

Bounds come from the Lagrangian dual of the single information constraint over
the tree-validity polytope.  For a fixed multiplier the inner problem is a
min/max ancestor-closed-subtree weighting, solved in one bottom-up pass, and
the dual value at the maximizing multiplier equals the LP-relaxation optimum.
Because the duals of the remaining subproblems drift as the search fixes the
shallow backbone, bounds are evaluated on a geometric ladder of multipliers
around the root-optimal one (every multiplier gives a valid bound); the
fractional-knapsack critical ratio is one of the ladder anchors, so the
per-node bound dominates the plain knapsack bound as well.  Per search node
the bound update is a single K-vector operation.

Feasibility tolerance is 1e-9 everywhere; ties within it are broken by smaller
rate, then larger relevance, then the lexicographically smallest selection
vector.  Rate plateaus are endemic (under a uniform prior all same-depth nodes
share one rate increment), so inside a rate tie the search additionally bounds
the achievable relevance and prunes plateau regions that cannot improve the
tie-break.

Uniform priors get a better algorithm entirely.  There every node at depth d
costs exactly 4^(l-1-d) units of ln(4)/4^(l-1) nats, so the rate objective is
integer-valued and one bottom-up max-plus convolution per world tabulates the
maximal relevance at every attainable rate class.  All three programs then
reduce to table lookups plus a deterministic reconstruction, with no search;
rate classes are at least ln(4)/4^(l-1) nats apart (3.4e-4 at depth 7), so the
1e-9 feasibility tolerance never straddles two classes.  The depth-first
search remains the exact path for non-uniform priors.
"""

from __future__ import annotations

import heapq
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .increments import IncrementVectors
from .quadtree import (TreeSelection, depth_from_candidate_count, depth_offset,
                       num_candidates)

__all__ = [
    "TOL",
    "DEFAULT_NODE_LIMIT",
    "SolveResult",
    "ResourceLimitExceeded",
    "solve_min_rate",
    "solve_max_relevance",
    "solve_equality_max_relevance",
    "enumerate_valid_selections",
    "brute_force_solve",
    "count_valid_selections",
]

TOL = 1e-9
DEFAULT_NODE_LIMIT = 50_000_000

_MIN_RATE = 0
_MAX_REL = 1
_BAND_MAX = 2

_LADDER_SPAN = 10     # multipliers cover anchor * 2^[-span, span]
_LADDER_STEPS = 29


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
    """sums[t] = vec summed over t and all of t's descendant candidates."""
    off = _offsets(depth_l)
    out = vec.astype(np.float64).copy()
    for d in range(depth_l - 2, -1, -1):
        out[off[d]:off[d + 1]] += out[off[d + 1]:off[d + 2]].reshape(-1, 4).sum(axis=1)
    return out


def _closure_best(w: np.ndarray, depth_l: int, sign: int) -> np.ndarray:
    """best[t]: extremal weight of ancestor-closed subsets of t's subtree containing t."""
    off = _offsets(depth_l)
    clip = np.minimum if sign < 0 else np.maximum
    best = w.copy()
    for d in range(depth_l - 2, -1, -1):
        kids = clip(best[off[d + 1]:off[d + 2]], 0.0).reshape(-1, 4).sum(axis=1)
        best[off[d]:off[d + 1]] += kids
    return best


def _closure_mask(best: np.ndarray, depth_l: int, sign: int) -> np.ndarray:
    """Members of the optimal closure: strict-sign nodes with all ancestors in."""
    off = _offsets(depth_l)
    strict = best < 0.0 if sign < 0 else best > 0.0
    mask = np.zeros(best.size, dtype=bool)
    if best.size:
        mask[0] = strict[0]
    for d in range(1, depth_l):
        parents = np.repeat(mask[off[d - 1]:off[d]], 4)
        mask[off[d]:off[d + 1]] = strict[off[d]:off[d + 1]] & parents
    return mask


def _knapsack_ratio_cover(a, b, need) -> float:
    """Critical price of the fractional covering knapsack min a.u s.t. b.u >= need."""
    if need <= 0:
        return 0.0
    sel = b > 0
    if not np.any(sel):
        return 0.0
    ratio = a[sel] / b[sel]
    order = np.argsort(ratio, kind="stable")
    cover = np.cumsum(b[sel][order])
    idx = min(int(np.searchsorted(cover, need)), order.size - 1)
    return float(ratio[order[idx]])


def _knapsack_ratio_pack(a, b, cap) -> float:
    """Critical price of the fractional packing knapsack max b.u s.t. a.u <= cap."""
    sel = a > 0
    if not np.any(sel):
        return 0.0
    ratio = b[sel] / a[sel]
    order = np.argsort(-ratio, kind="stable")
    usage = np.cumsum(a[sel][order])
    idx = int(np.searchsorted(usage, cap, side="right"))
    if idx >= order.size:
        return 0.0
    return float(ratio[order[idx]])


class _Ladder:
    """Per-multiplier closure-gain tables, laid out for vector bound updates.

    For branch value 1 the frontier gain sum moves by D1[r]; for value 0 it
    moves by -G[r].  lam is the (K,) multiplier vector, root_bound the dual
    bound of the untouched problem.
    """

    __slots__ = ("lam", "G", "D1", "root_bound")

    def __init__(self, lam, G, D1, root_bound):
        self.lam = lam
        self.G = np.ascontiguousarray(G)
        self.D1 = np.ascontiguousarray(D1)
        self.root_bound = root_bound


def _ternary_lambda(evaluate, lam_hi, maximize, iters=80):
    lo, hi = 0.0, lam_hi
    best_lam, best_val = 0.0, evaluate(0.0)
    cmp = (lambda p, q: p > q) if maximize else (lambda p, q: p < q)
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v1, v2 = evaluate(m1), evaluate(m2)
        if cmp(v1, best_val):
            best_lam, best_val = m1, v1
        if cmp(v2, best_val):
            best_lam, best_val = m2, v2
        if cmp(v2, v1):
            lo = m1
        else:
            hi = m2
    return best_lam, best_val


def _ladder_multipliers(anchors) -> np.ndarray:
    base = max(max(anchors), 1e-9)
    grid = base * np.exp2(np.linspace(-_LADDER_SPAN, _LADDER_SPAN, _LADDER_STEPS))
    lams = np.unique(np.concatenate([grid, [a for a in anchors if a > 0]]))
    return lams


def _cover_ladder(a, b, need, depth_l) -> _Ladder:
    """Lower-bound ladder for min {a.z : b.z >= need} over valid selections."""

    def dual(lam):
        best = _closure_best(a - lam * b, depth_l, -1)
        return lam * need + float(min(best[0], 0.0))

    lam_hi = 1.0
    for _ in range(200):
        best = _closure_best(a - lam_hi * b, depth_l, -1)
        if b[_closure_mask(best, depth_l, -1)].sum() >= need:
            break
        lam_hi *= 2.0
    lam_star, root_bound = _ternary_lambda(dual, lam_hi, maximize=True)
    lams = _ladder_multipliers([lam_star, _knapsack_ratio_cover(a, b, need)])
    G = np.empty((a.size, lams.size))
    D1 = np.empty_like(G)
    for k, lam in enumerate(lams):
        w = a - lam * b
        best = _closure_best(w, depth_l, -1)
        gain = np.minimum(best, 0.0)
        G[:, k] = gain
        D1[:, k] = best - w - gain
        root_bound = max(root_bound, lam * need + float(gain[0]))
    return _Ladder(lams, G, D1, max(root_bound, 0.0))


def _pack_ladder(b, a, cap, depth_l) -> _Ladder:
    """Upper-bound ladder for max {b.z : a.z <= cap} over valid selections."""

    def dual(lam):
        best = _closure_best(b - lam * a, depth_l, +1)
        return lam * cap + float(max(best[0], 0.0))

    lam_hi = 1.0
    for _ in range(200):
        best = _closure_best(b - lam_hi * a, depth_l, +1)
        if a[_closure_mask(best, depth_l, +1)].sum() <= cap:
            break
        lam_hi *= 2.0
    lam_star, root_bound = _ternary_lambda(dual, lam_hi, maximize=False)
    lams = _ladder_multipliers([lam_star, _knapsack_ratio_pack(a, b, cap)])
    G = np.empty((a.size, lams.size))
    D1 = np.empty_like(G)
    for k, lam in enumerate(lams):
        w = b - lam * a
        best = _closure_best(w, depth_l, +1)
        gain = np.maximum(best, 0.0)
        G[:, k] = gain
        D1[:, k] = best - w - gain
        root_bound = min(root_bound, lam * cap + float(gain[0]))
    return _Ladder(lams, G, D1, root_bound)


def _chain_cost(idx, selected, a, b):
    """Cost/coverage of adding idx plus its unselected ancestors."""
    chain = []
    t = idx
    while t >= 0 and not selected[t]:
        chain.append(t)
        t = (t - 1) >> 2 if t else -1
    return chain, a[chain].sum(), b[chain].sum()


def _seed_cover(a, b, need, depth_l) -> np.ndarray:
    """Greedy feasible selection for the covering problem: best-ratio chains,
    then a trim pass dropping removable nodes the coverage slack allows."""
    n = a.size
    z = np.zeros(n, dtype=bool)
    if need <= 0:
        return z.astype(np.uint8)
    ratio = np.full(n, np.inf)
    pos = b > 0
    ratio[pos] = a[pos] / b[pos]
    order = np.argsort(ratio, kind="stable")
    covered = 0.0
    for idx in order:
        if covered >= need:
            break
        if not pos[idx] or z[idx]:
            continue
        chain, _, gain = _chain_cost(int(idx), z, a, b)
        z[chain] = True
        covered += gain
    if covered < need:  # numerical remainder: take everything
        z[:] = True
        covered = float(b.sum())
    # trim selection leaves whose relevance the slack can spare, priciest first
    child_count = np.zeros(n, dtype=np.int64)
    sel_idx = np.flatnonzero(z)
    for idx in sel_idx:
        if idx:
            child_count[(idx - 1) >> 2] += 1
    removable = [int(i) for i in sel_idx if child_count[i] == 0]
    heap = [(-float(a[i]), i) for i in removable]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        if not z[idx] or child_count[idx]:
            continue
        if covered - b[idx] >= need:
            z[idx] = False
            covered -= float(b[idx])
            if idx:
                parent = (idx - 1) >> 2
                child_count[parent] -= 1
                if child_count[parent] == 0:
                    heapq.heappush(heap, (-float(a[parent]), parent))
    return z.astype(np.uint8)


def _seed_pack(b, a, cap, depth_l) -> np.ndarray:
    """Greedy feasible selection for the packing problem: best-ratio chains
    that fit the remaining budget."""
    n = a.size
    z = np.zeros(n, dtype=bool)
    ratio = np.full(n, -1.0)
    pos = b > 0
    with np.errstate(divide="ignore"):
        ratio[pos] = np.where(a[pos] > 0, b[pos] / np.where(a[pos] > 0, a[pos], 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")
    used = 0.0
    for idx in order:
        if ratio[idx] < 0:
            break
        if z[idx]:
            continue
        chain, cost, _ = _chain_cost(int(idx), z, a, b)
        if used + cost <= cap:
            z[chain] = True
            used += cost
    return z.astype(np.uint8)


def _pack_bits(z) -> bytes:
    return np.packbits(np.asarray(z, dtype=np.uint8)).tobytes()


class _Incumbent:
    __slots__ = ("obj", "ix", "iy", "pack", "z")

    def __init__(self, obj, ix, iy, z):
        self.obj = obj
        self.ix = ix
        self.iy = iy
        self.pack = _pack_bits(z)
        self.z = np.asarray(z, dtype=np.uint8).copy()


def _better_min_rate(fa, fb, pack_fn, inc: _Incumbent) -> bool:
    if fa < inc.obj - TOL:
        return True
    if fa > inc.obj + TOL:
        return False
    if fb > inc.iy + TOL:
        return True
    if fb < inc.iy - TOL:
        return False
    return pack_fn() < inc.pack


def _better_max(fb, fa, pack_fn, inc: _Incumbent) -> bool:
    if fb > inc.obj + TOL:
        return True
    if fb < inc.obj - TOL:
        return False
    if fa < inc.ix - TOL:
        return True
    if fa > inc.ix + TOL:
        return False
    return pack_fn() < inc.pack


def _search(mode, a, b, lo_bound, hi_bound, ladder, seed_z, node_limit, depth_l,
            tie_ladder=None):
    """Depth-first exact search; returns (incumbent or None, nodes_explored).

    Candidates are decided in canonical order among the currently available
    ones (children enter the queue only once their parent is selected), the
    seed's value is branched first, and a subtree is pruned only when its dual
    bound cannot tie the incumbent within tolerance.  In min-rate mode a
    second ladder bounds the relevance achievable inside a rate tie.
    """
    n = a.size
    suba = _subtree_sums(a, depth_l).tolist()
    subb = _subtree_sums(b, depth_l).tolist()
    aL, bL = a.tolist(), b.tolist()
    lam, G, D1 = ladder.lam, ladder.G, ladder.D1
    if tie_ladder is not None:
        t_lam, t_G, t_D1 = tie_ladder.lam, tie_ladder.G, tie_ladder.D1

    incumbent: list[_Incumbent | None] = [None]
    if seed_z is not None:
        fa = float(a @ seed_z)
        fb = float(b @ seed_z)
        obj = fa if mode == _MIN_RATE else fb
        incumbent[0] = _Incumbent(obj, fa, fb, seed_z)

    zcur = [0] * n
    pending = [0] if n else []
    seed_first = seed_z.tolist() if seed_z is not None else [0] * n
    nodes = [0]

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * n + 10_000))

    def consider(fa, fb):
        best = incumbent[0]
        if mode == _MIN_RATE:
            if fb < lo_bound:
                return
            if best is None or _better_min_rate(fa, fb, lambda: _pack_bits(zcur), best):
                incumbent[0] = _Incumbent(fa, fa, fb, zcur)
        else:
            if mode == _BAND_MAX and fa < lo_bound:
                return
            if best is None or _better_max(fb, fa, lambda: _pack_bits(zcur), best):
                incumbent[0] = _Incumbent(fb, fa, fb, zcur)

    def rec(pi, fa, fb, s, sa, sb, t):
        if pi == len(pending):
            consider(fa, fb)
            return
        r = pending[pi]
        nodes[0] += 2
        if nodes[0] > node_limit:
            raise ResourceLimitExceeded(
                f"node-exploration limit of {node_limit} reached; "
                "raise node_limit to continue the exact search"
            )
        first = seed_first[r]
        for v in (first, 1 - first):
            if v:
                fa2 = fa + aL[r]
                fb2 = fb + bL[r]
                s2 = s + D1[r]
                sa2 = sa - aL[r]
                sb2 = sb - bL[r]
            else:
                fa2, fb2 = fa, fb
                s2 = s - G[r]
                sa2 = sa - suba[r]
                sb2 = sb - subb[r]
            if tie_ladder is not None:
                t2 = t + t_D1[r] if v else t - t_G[r]
            else:
                t2 = t
            best = incumbent[0]
            if mode == _MIN_RATE:
                if fb2 + sb2 < lo_bound:
                    continue
                if best is not None:
                    lb = fa2 + float(np.max(lam * (lo_bound - fb2) + s2))
                    if lb < fa2:
                        lb = fa2
                    if lb > best.obj + TOL:
                        continue
                    if tie_ladder is not None and lb >= best.obj - TOL:
                        # subtree can at best tie the rate; bound its relevance
                        cap_tie = best.obj + TOL
                        iy_ub = fb2 + float(np.min(t_lam * (cap_tie - fa2) + t2))
                        if iy_ub > fb2 + sb2:
                            iy_ub = fb2 + sb2
                        if iy_ub <= best.iy + TOL:
                            continue
            else:
                if fa2 > hi_bound:
                    continue
                if mode == _BAND_MAX and fa2 + sa2 < lo_bound:
                    continue
                if best is not None:
                    ub = fb2 + float(np.min(lam * (hi_bound - fa2) + s2))
                    if ub > fb2 + sb2:
                        ub = fb2 + sb2
                    if ub < best.obj - TOL:
                        continue
            zcur[r] = v
            saved_len = len(pending)
            if v:
                child = 4 * r + 1
                if child + 3 < n:
                    pending.extend((child, child + 1, child + 2, child + 3))
            rec(pi + 1, fa2, fb2, s2, sa2, sb2, t2)
            del pending[saved_len:]
            zcur[r] = 0

    if n:
        tie0 = t_G[0].copy() if tie_ladder is not None else None
        rec(0, 0.0, 0.0, G[0].copy(), suba[0], subb[0], tie0)
    else:
        consider(0.0, 0.0)
    return incumbent[0], nodes[0]


_NEG = -1e300
_BATCH_ELEMENTS = 1 << 20   # entries per split scan in a batched reconstruction


def _maxplus(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Row-wise max-plus convolution: out[n, k] = max_i U[n, i] + V[n, k - i]."""
    rows, p = U.shape
    q = V.shape[1]
    out = np.full((rows, p + q - 1), _NEG)
    for i in range(p):
        np.maximum(out[:, i:i + q], U[:, i:i + 1] + V, out=out[:, i:i + q])
    return out


class _LatticeDP:
    """Exact-rate-class relevance tables for worlds with depth-uniform rate costs.

    T[d][m, k] is the maximal relevance of an ancestor-closed selection of the
    subtree rooted at (d, m) whose integer rate cost is exactly k (cost unit:
    the depth-(l-1) increment; a depth-d node costs 4^(l-1-d) units).  The
    intermediate pairwise merges are kept so any table entry can be
    deterministically traced back to a selection.
    """

    def __init__(self, inc: IncrementVectors, depth_l: int, unit: float):
        self.depth_l = depth_l
        self.unit = unit
        b = inc.delta_y
        self.T: list[np.ndarray] = [None] * depth_l
        self.M12: list[np.ndarray] = [None] * depth_l
        self.M34: list[np.ndarray] = [None] * depth_l
        self.MALL: list[np.ndarray] = [None] * depth_l
        for d in range(depth_l - 1, -1, -1):
            bd = b[depth_offset(d):depth_offset(d + 1)]
            kd = 4 ** (depth_l - 1 - d)
            if d == depth_l - 1:
                td = np.full((bd.size, 2), _NEG)
                td[:, 0] = 0.0
                td[:, 1] = bd
            else:
                child = self.T[d + 1].reshape(bd.size, 4, -1)
                m12 = _maxplus(child[:, 0], child[:, 1])
                m34 = _maxplus(child[:, 2], child[:, 3])
                mall = _maxplus(m12, m34)
                td = np.full((bd.size, kd + mall.shape[1]), _NEG)
                td[:, 0] = 0.0
                td[:, kd:] = bd[:, None] + mall
                self.M12[d], self.M34[d], self.MALL[d] = m12, m34, mall
            self.T[d] = td
        self.root = self.T[0][0]
        # per row: its tree, and split scans of at most 4^d * width(M12[d])
        # entries at depth d
        per_row = max([num_candidates(depth_l)] + [
            4 ** d * self.M12[d].shape[1] for d in range(depth_l - 1)])
        self.batch_rows = max(1, _BATCH_ELEMENTS // per_row)

    def reconstruct(self, k_target: int) -> np.ndarray:
        """Selection vector achieving root table entry k_target, smallest
        child-split indices first (deterministic)."""
        return self.reconstruct_many([k_target])[0]

    def reconstruct_many(self, k_targets) -> np.ndarray:
        """reconstruct(k) for each k, as the rows of one uint8 matrix.

        Rows are traced level by level in batches of batch_rows, so the
        split scans never hold more than about _BATCH_ELEMENTS entries.
        """
        k_targets = np.asarray(k_targets, dtype=np.int64)
        out = np.zeros((k_targets.size, num_candidates(self.depth_l)), dtype=np.uint8)
        for lo in range(0, k_targets.size, self.batch_rows):
            self._trace_rows(k_targets[lo:lo + self.batch_rows], out[lo:lo + self.batch_rows])
        return out

    def _trace_rows(self, k_targets: np.ndarray, z: np.ndarray) -> None:
        """Mark in z the nodes of each row's tree.

        Per level, the active (row, node, class) triples are deduplicated
        over (node, class), since rows often share subtrees, and each distinct
        entry is split into its four children's classes at once.
        """
        depth_l = self.depth_l
        row = np.flatnonzero(k_targets)
        m = np.zeros(row.size, dtype=np.int64)
        k = k_targets[row]
        for d in range(depth_l):
            z[row, depth_offset(d) + m] = 1
            if d == depth_l - 1 or not row.size:
                break
            width = self.T[d].shape[1]
            keys, inverse = np.unique(m * width + k, return_inverse=True)
            um, uk = np.divmod(keys, width)
            j_all = uk - 4 ** (depth_l - 1 - d)
            m12, m34 = self.M12[d], self.M34[d]
            j12 = _first_split(m12, um, m34, um, j_all, self.MALL[d][um, j_all])
            j34 = j_all - j12
            child = self.T[d + 1]
            base = 4 * um
            j0 = _first_split(child, base, child, base + 1, j12, m12[um, j12])
            j2 = _first_split(child, base + 2, child, base + 3, j34, m34[um, j34])
            kids = np.stack([j0, j12 - j0, j2, j34 - j2], axis=1)[inverse].ravel()
            keep = kids > 0
            row = np.repeat(row, 4)[keep]
            m = (4 * m[:, None] + np.arange(4)).ravel()[keep]
            k = kids[keep]


def _first_split(left, left_rows, right, right_rows, k, value) -> np.ndarray:
    """Per entry i, the smallest j with
    left[left_rows[i], j] + right[right_rows[i], k[i] - j] == value[i].

    This is the addition _maxplus made, so the equality is exact.
    """
    p, q = left.shape[1], right.shape[1]
    lo = np.maximum(k - (q - 1), 0)
    count = np.minimum(k, p - 1) - lo + 1
    start = np.cumsum(count) - count
    step = np.arange(int(count.sum()))
    left_pos = np.repeat(left_rows * p + lo - start, count)
    left_pos += step
    right_pos = np.repeat(right_rows * q + k - lo + start, count)
    right_pos -= step
    sums = left.take(left_pos)
    sums += right.take(right_pos)
    hit = np.flatnonzero(sums == np.repeat(value, count))
    first = np.append(hit, step.size)[np.searchsorted(hit, start)]
    if np.any(first >= start + count):
        raise AssertionError("lattice reconstruction failed to split a table entry")
    return first - start + lo


def _lattice_for(inc: IncrementVectors) -> _LatticeDP | None:
    """Build (and memoize) the rate-class tables when delta_x is depth-uniform
    with the exact 4-to-1 depth scaling; None otherwise."""
    cached = getattr(inc, "_lattice_dp", False)
    if cached is not False:
        return cached
    lattice = None
    a = inc.delta_x
    depth_l = depth_from_candidate_count(a.size)
    if depth_l >= 1:
        unit = float(a[depth_offset(depth_l - 1)])
        if unit > 0:
            ok = True
            for d in range(depth_l):
                level = a[depth_offset(d):depth_offset(d + 1)]
                expected = unit * 4 ** (depth_l - 1 - d)
                if np.ptp(level) != 0.0 or abs(float(level[0]) - expected) > 1e-14 * expected:
                    ok = False
                    break
            if ok:
                lattice = _LatticeDP(inc, depth_l, unit)
    object.__setattr__(inc, "_lattice_dp", lattice)
    return lattice


def _result_from_z(z, inc: IncrementVectors, mode, nodes, t0) -> SolveResult:
    selection = TreeSelection(np.asarray(z, dtype=np.uint8))
    zf = selection.z.astype(np.float64)
    i_x = float(zf @ inc.delta_x)
    i_y = float(zf @ inc.delta_y)
    objective = i_x if mode == _MIN_RATE else i_y
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
    if d_hat < 0:
        raise ValueError(f"negative d_hat: {d_hat}")
    t0 = time.perf_counter()
    a, b = inc.delta_x, inc.delta_y
    depth_l = depth_from_candidate_count(a.size)
    total_b = float(b.sum())
    if d_hat > total_b + TOL:
        return _infeasible_result(inc, t0)
    need = d_hat - TOL
    if need <= 0 or a.size == 0:
        return _result_from_z(np.zeros(a.size, np.uint8), inc, _MIN_RATE, 0, t0)
    lattice = _lattice_for(inc)
    if lattice is not None:
        hits = np.flatnonzero(lattice.root >= need)
        # summation-order dust can leave the full-coverage class an ulp short
        # of a floor that sits right at the feasibility edge
        k = int(hits[0]) if hits.size else int(np.argmax(lattice.root))
        return _result_from_z(lattice.reconstruct(k), inc, _MIN_RATE, 0, t0)
    seed = _seed_cover(a, b, need, depth_l)
    ladder = _cover_ladder(a, b, need, depth_l)
    seed_obj = float(a @ seed)
    if seed_obj <= ladder.root_bound + TOL:
        return _result_from_z(seed, inc, _MIN_RATE, 0, t0)
    tie_ladder = _pack_ladder(b, a, seed_obj + TOL, depth_l)
    best, nodes = _search(_MIN_RATE, a, b, need, np.inf, ladder, seed, node_limit,
                          depth_l, tie_ladder=tie_ladder)
    return _result_from_z(best.z, inc, _MIN_RATE, nodes, t0)


def solve_max_relevance(inc: IncrementVectors, budget_d: float,
                        node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Most relevant valid tree with rate at most budget_d (within 1e-9).

    Always feasible: the root tree costs nothing.
    """
    if budget_d < 0:
        raise ValueError(f"negative budget: {budget_d}")
    t0 = time.perf_counter()
    a, b = inc.delta_x, inc.delta_y
    depth_l = depth_from_candidate_count(a.size)
    if a.size == 0:
        return _result_from_z(np.zeros(0, np.uint8), inc, _MAX_REL, 0, t0)
    cap = budget_d + TOL
    lattice = _lattice_for(inc)
    if lattice is not None:
        k_cap = min(int((cap / lattice.unit) + 1e-9), lattice.root.size - 1)
        feasible = lattice.root[:k_cap + 1]
        k = int(np.argmax(feasible))  # first maximum: smaller rate on ties
        return _result_from_z(lattice.reconstruct(k), inc, _MAX_REL, 0, t0)
    seed = _seed_pack(b, a, cap, depth_l)
    ladder = _pack_ladder(b, a, cap, depth_l)
    seed_obj = float(b @ seed)
    if ladder.root_bound <= seed_obj + TOL:
        return _result_from_z(seed, inc, _MAX_REL, 0, t0)
    best, nodes = _search(_MAX_REL, a, b, -np.inf, cap, ladder, seed, node_limit, depth_l)
    return _result_from_z(best.z, inc, _MAX_REL, nodes, t0)


def solve_equality_max_relevance(inc: IncrementVectors, d_star: float,
                                 node_limit: int = DEFAULT_NODE_LIMIT,
                                 seed_selection: TreeSelection | None = None) -> SolveResult:
    """Most relevant valid tree whose rate equals d_star within the tolerance band.

    d_star must be attained by some valid tree (callers obtain it from
    solve_min_rate; its selection makes a good seed).  If several distinct
    attained rates fall inside one band the band is shrunk tenfold until the
    maximizer sits on d_star itself, with a floor of 1e-12.
    """
    t0 = time.perf_counter()
    a, b = inc.delta_x, inc.delta_y
    depth_l = depth_from_candidate_count(a.size)
    seed = None
    if seed_selection is not None:
        seed = seed_selection.z.astype(np.uint8)
        if abs(float(a @ seed) - d_star) > TOL:
            raise ValueError("seed selection does not attain d_star within tolerance")
    if a.size == 0:
        if abs(d_star) > TOL:
            raise ValueError(f"no valid selection attains rate {d_star!r}")
        return _result_from_z(np.zeros(0, np.uint8), inc, _BAND_MAX, 0, t0)
    lattice = _lattice_for(inc)
    if lattice is not None:
        # the tolerance band around an attained rate contains exactly one class
        k = int(round(d_star / lattice.unit))
        if (not 0 <= k < lattice.root.size
                or abs(k * lattice.unit - d_star) > TOL
                or lattice.root[k] <= _NEG / 2):
            raise ValueError(
                f"no valid selection attains rate {d_star!r} within tolerance"
            )
        return _result_from_z(lattice.reconstruct(k), inc, _BAND_MAX, 0, t0)
    band = TOL
    total_nodes = 0
    while True:
        lo, hi = d_star - band, d_star + band
        ladder = _pack_ladder(b, a, hi, depth_l)
        if seed is not None and ladder.root_bound <= float(b @ seed) + TOL:
            result = _result_from_z(seed, inc, _BAND_MAX, total_nodes, t0)
        else:
            best, nodes = _search(_BAND_MAX, a, b, lo, hi, ladder, seed,
                                  node_limit, depth_l)
            total_nodes += nodes
            if best is None:
                raise ValueError(
                    f"no valid selection attains rate {d_star!r} within {band!r}"
                )
            result = _result_from_z(best.z, inc, _BAND_MAX, total_nodes, t0)
        if abs(result.i_x - d_star) <= 1e-12 or band <= 1e-12:
            return result
        band = max(band / 10.0, 1e-12)


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

    problem is "min-rate", "max-relevance" or "equality"; bound is the
    matching d_hat, budget or pinned rate.
    """
    t0 = time.perf_counter()
    depth_l = depth_from_candidate_count(inc.num_candidates)
    if depth_l > 3:
        raise ValueError("brute force capped at depth 3 (combinatorial blowup)")
    Z = _selection_matrix(depth_l)
    ix = Z @ inc.delta_x
    iy = Z @ inc.delta_y
    if problem == "min-rate":
        if bound < 0:
            raise ValueError(f"negative d_hat: {bound}")
        feasible = iy >= bound - TOL
        if not feasible.any():
            return _infeasible_result(inc, t0)
        candidates = np.flatnonzero(feasible)
        best_obj = ix[candidates].min()
        candidates = candidates[ix[candidates] <= best_obj + TOL]
        best_iy = iy[candidates].max()
        candidates = candidates[iy[candidates] >= best_iy - TOL]
        mode = _MIN_RATE
    elif problem == "max-relevance":
        if bound < 0:
            raise ValueError(f"negative budget: {bound}")
        feasible = ix <= bound + TOL
        candidates = np.flatnonzero(feasible)
        best_obj = iy[candidates].max()
        candidates = candidates[iy[candidates] >= best_obj - TOL]
        best_ix = ix[candidates].min()
        candidates = candidates[ix[candidates] <= best_ix + TOL]
        mode = _MAX_REL
    elif problem == "equality":
        feasible = np.abs(ix - bound) <= TOL
        if not feasible.any():
            raise ValueError(f"no valid selection attains rate {bound!r}")
        candidates = np.flatnonzero(feasible)
        best_obj = iy[candidates].max()
        candidates = candidates[iy[candidates] >= best_obj - TOL]
        best_ix = ix[candidates].min()
        candidates = candidates[ix[candidates] <= best_ix + TOL]
        mode = _BAND_MAX
    else:
        raise ValueError(f"unknown problem kind: {problem!r}")
    winner = min(candidates, key=lambda i: _pack_bits(Z[i]))
    return _result_from_z(Z[winner], inc, mode, len(Z), t0)
