"""Scalar information measures and encoder-level tree information.

All quantities are in nats, with the conventions 0*log(0) = 0 and
0*log(0/0) = 0 so that zero-mass outcomes contribute nothing.

direct_tree_information evaluates both mutual-information double sums straight
from the deterministic encoder of a tree selection.  It deliberately shares no
code with the incremental decomposition in `increments`, so the two can check
each other.
"""

from __future__ import annotations

import numpy as np

from .quadtree import TreeSelection, _leaf_ranges
from .world import WorldMap, NORMALIZATION_TOL

__all__ = ["entropy", "kl_divergence", "js_divergence", "direct_tree_information"]


def _check_probvec(p: np.ndarray, name: str = "distribution"):
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if np.any(p < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{name} is unnormalized: sums to {p.sum()!r}")


def entropy(p) -> float:
    """Shannon entropy -sum p_i ln p_i of a probability vector, in nats."""
    p = np.asarray(p, dtype=np.float64)
    _check_probvec(p)
    pos = p[p > 0]
    return float(-(pos * np.log(pos)).sum())


def kl_divergence(p, q) -> float:
    """KL divergence sum p_i ln(p_i / q_i); requires q_i = 0 => p_i = 0."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    _check_probvec(p, "p")
    _check_probvec(q, "q")
    if np.any((q == 0) & (p > 0)):
        raise ValueError("support violation: p puts mass where q is zero")
    mask = p > 0
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def js_divergence(weights, dists) -> float:
    """Jensen-Shannon divergence of the rows of `dists` under `weights`.

    Computed through the mixture identity H(sum_i w_i d_i) - sum_i w_i H(d_i),
    which stays finite when some rows put zero mass on outcomes the mixture
    covers.  Rows with zero weight are ignored entirely.
    """
    w = np.asarray(weights, dtype=np.float64)
    d = np.asarray(dists, dtype=np.float64)
    if d.ndim != 2 or w.ndim != 1 or d.shape[0] != w.size:
        raise ValueError(f"shape mismatch: weights {w.shape} vs dists {d.shape}")
    _check_probvec(w, "weights")
    active = w > 0
    w, d = w[active], d[active]
    for i, row in enumerate(d):
        _check_probvec(row, f"dists[{i}]")
    mix = w @ d
    row_pos = d > 0
    row_entropies = -np.where(row_pos, d * np.log(np.where(row_pos, d, 1.0)), 0.0).sum(axis=1)
    value = entropy(mix) - float(w @ row_entropies)
    return 0.0 if -1e-12 < value < 0.0 else float(value)


def direct_tree_information(world: WorldMap, selection: TreeSelection) -> tuple[float, float]:
    """(I(T;X), I(T;Y)) of a tree selection from its deterministic encoder.

    Builds p(t), p(t,x) and p(t,y) by aggregating p(x,y) over each leaf region
    and evaluates both mutual-information double sums term by term.
    """
    if selection.depth_l != world.depth_l:
        raise ValueError(
            f"selection depth_l {selection.depth_l} does not match world {world.depth_l}"
        )
    _, leaf_lo, leaf_hi = _leaf_ranges(selection)
    p_x = world.cell_prior
    joint_xy = p_x[:, None] * world.cell_relevance
    p_y = joint_xy.sum(axis=0)
    p_t = np.add.reduceat(p_x, leaf_lo)
    p_ty = np.add.reduceat(joint_xy, leaf_lo)

    # p(t,x) = p(x) for the cells of leaf t, zero elsewhere
    xmask = p_x > 0
    cell_p_t = np.repeat(p_t, leaf_hi - leaf_lo)[xmask]
    px = p_x[xmask]
    i_x = float((px * np.log(px / (cell_p_t * px))).sum())
    ymask = p_ty > 0
    p_t_p_y = (p_t[:, None] * p_y)[ymask]
    i_y = float((p_ty[ymask] * np.log(p_ty[ymask] / p_t_p_y)).sum())
    i_x = 0.0 if -1e-12 < i_x < 0.0 else i_x
    i_y = 0.0 if -1e-12 < i_y < 0.0 else i_y
    return i_x, i_y
