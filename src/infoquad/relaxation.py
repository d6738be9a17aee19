"""LP relaxation of the min-rate program and threshold rounding back to a tree.

Over the integral tree-validity polytope the Lagrangian dual of the one
relevance row is exact.  For a multiplier lam each ancestor-closed subtree Z
gives the dual line lam * (d_hat - Z.delta_y) + Z.delta_x; the breakpoints of
their lower envelope are the generalized BFOS pruning sequence (Chou,
Lookabaugh & Gray, IEEE Trans. IT 1989).  Newton steps on that envelope, the
routine the search's bounds use too, find the optimum: the convex combination
of two nested subtrees on the floor.
Thresholding such a precedence-feasible vector always yields a valid tree, but
not always one that still meets the floor, so relax_and_round reports a flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .increments import IncrementVectors
from .quadtree import TreeSelection, _drop_orphans, _orphans, depth_from_candidate_count
from .solver import TOL, SolveResult, _FLOOR_SLACK, _parametric_dual, _result_from_z

__all__ = [
    "FractionalSelection",
    "solve_lp_relaxation",
    "round_selection",
    "relax_and_round",
]

_PRECEDENCE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class FractionalSelection:
    """Relaxed selection vector with entries in [0, 1] up to solver slack."""

    z: np.ndarray

    def __post_init__(self):
        z = np.ascontiguousarray(self.z, dtype=np.float64)
        depth_from_candidate_count(z.size)
        if np.any(z < -_PRECEDENCE_SLACK) or np.any(z > 1.0 + _PRECEDENCE_SLACK):
            raise ValueError("fractional entries must lie in [0, 1] up to 1e-9")
        if _orphans(z, _PRECEDENCE_SLACK).size:
            raise ValueError("fractional selection violates precedence beyond 1e-9")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def depth_l(self) -> int:
        return depth_from_candidate_count(self.z.size)

    @property
    def values(self) -> np.ndarray:
        """Entries clamped to [0, 1]."""
        return np.clip(self.z, 0.0, 1.0)


def solve_lp_relaxation(inc: IncrementVectors, d_hat: float) -> tuple[FractionalSelection, float]:
    """Optimal point of the relaxed min-rate program and its objective value."""
    if not d_hat >= 0:
        raise ValueError(f"negative d_hat: {d_hat}")
    total = float(inc.delta_y.sum())
    if d_hat > total + TOL:
        raise ValueError(
            f"infeasible d_hat: {d_hat!r} exceeds total relevance {total!r}"
        )
    n = inc.num_candidates
    d_hat = min(d_hat, total)
    if n == 0 or d_hat <= _FLOOR_SLACK * max(total, 1.0):
        return FractionalSelection(np.zeros(n)), 0.0
    depth_l = depth_from_candidate_count(n)
    _, _, lo, hi = _parametric_dual(inc.delta_x, inc.delta_y, d_hat, depth_l)
    y_lo, y_hi = float(inc.delta_y[lo].sum()), float(inc.delta_y[hi].sum())
    theta = min(max((d_hat - y_lo) / (y_hi - y_lo), 0.0), 1.0)
    z = lo + theta * (hi.astype(np.float64) - lo)
    return FractionalSelection(z), float(inc.delta_x @ z)


def round_selection(zfrac: FractionalSelection, delta: float) -> TreeSelection:
    """Threshold at delta: z >= delta selects the node; always yields a valid tree.

    Monotonicity of the threshold preserves exact precedence; entries that sit
    within solver slack of their parent are forced back under it so validity
    holds unconditionally.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    z = (zfrac.values >= delta).astype(np.uint8)
    return TreeSelection(_drop_orphans(z, zfrac.depth_l))


def relax_and_round(inc: IncrementVectors, d_hat: float,
                    delta: float = 0.5) -> tuple[SolveResult, bool]:
    """Relax, threshold at delta, and report whether the relevance floor survived.

    The returned result carries the rounded tree's exact information pair; the
    flag (not an exception) states whether i_y >= d_hat - 1e-9 still holds.
    """
    t0 = time.perf_counter()
    zfrac, _ = solve_lp_relaxation(inc, d_hat)
    selection = round_selection(zfrac, delta)
    result = _result_from_z(selection.z, inc, "min-rate", 0, t0)
    return result, bool(result.i_y >= d_hat - TOL)
