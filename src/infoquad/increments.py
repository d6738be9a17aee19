"""Per-node statistics and the increment vectors that linearize tree information.

Expanding a node t adds p(t)*H(Pi) of rate and p(t)*JS_Pi(child relevances) of
relevant information, where Pi is the children's share of the parent's mass.
Summing the increments of the selected nodes therefore reproduces the
encoder-level information of any valid tree, which turns both objectives into
plain dot products against the selection vector.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .infotheory import js_divergence
from .quadtree import NodeId, TreeSelection, depth_offset, num_candidates
from .world import WorldMap

__all__ = [
    "NodeStats",
    "TreeStats",
    "IncrementVectors",
    "compute_node_stats",
    "node_delta_x",
    "node_delta_y",
    "compute_increments",
    "tree_information",
    "increment_rows",
    "write_increments_csv",
    "MASS_TOL",
    "FLOAT_FMT",
]

MASS_TOL = 1e-9
FLOAT_FMT = ".12g"  # every CSV float: 12 significant digits, byte-deterministic


@dataclass(frozen=True)
class NodeStats:
    """Mass p(t) and relevance p(y|t) of one node; relevance is None at zero mass."""

    mass: float
    relevance: np.ndarray | None


@dataclass(frozen=True, eq=False)
class TreeStats:
    """Masses and joint vectors p(t, y) for every node, grouped by depth."""

    depth_l: int
    masses: list[np.ndarray]   # masses[d] has shape (4^d,)
    joints: list[np.ndarray]   # joints[d] has shape (4^d, |Y|)

    def node(self, node_id: NodeId) -> NodeStats:
        mass = float(self.masses[node_id.depth][node_id.morton])
        if mass <= 0:
            return NodeStats(mass, None)
        return NodeStats(mass, self.joints[node_id.depth][node_id.morton] / mass)

    def children(self, node_id: NodeId) -> list[NodeStats]:
        return [self.node(c) for c in node_id.children()]


def compute_node_stats(world: WorldMap) -> TreeStats:
    """Aggregate p(t) and p(t, y) bottom-up over every node of the full tree."""
    masses = [None] * (world.depth_l + 1)
    joints = [None] * (world.depth_l + 1)
    masses[world.depth_l] = world.cell_prior.copy()
    joints[world.depth_l] = world.cell_prior[:, None] * world.cell_relevance
    for d in range(world.depth_l - 1, -1, -1):
        masses[d] = masses[d + 1].reshape(-1, 4).sum(axis=1)
        joints[d] = joints[d + 1].reshape(-1, 4, world.y_alphabet_size).sum(axis=1)
    return TreeStats(world.depth_l, masses, joints)


def _check_mass(parent: NodeStats, children) -> np.ndarray:
    child_mass = np.array([c.mass for c in children], dtype=np.float64)
    if abs(child_mass.sum() - parent.mass) > MASS_TOL:
        raise ValueError(
            f"mass mismatch: children sum to {child_mass.sum()!r}, parent is {parent.mass!r}"
        )
    return child_mass


def node_delta_x(parent: NodeStats, children) -> float:
    """Rate gained by expanding the node: p(t) * H(Pi), zero at zero mass."""
    child_mass = _check_mass(parent, children)
    if parent.mass <= 0:
        return 0.0
    pos = child_mass[child_mass > 0]
    return float(-(pos * np.log(pos / parent.mass)).sum())


def node_delta_y(parent: NodeStats, children) -> float:
    """Relevant information gained by expanding the node: p(t) * JS_Pi(children)."""
    child_mass = _check_mass(parent, children)
    if parent.mass <= 0:
        return 0.0
    keep = child_mass > 0
    if keep.sum() <= 1:
        return 0.0
    weights = child_mass[keep] / child_mass[keep].sum()
    dists = np.vstack([c.relevance for c, k in zip(children, keep) if k])
    return parent.mass * js_divergence(weights, dists)


def _weighted_entropy(joint: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """g = -sum_y p(t,y) ln(p(t,y)/p(t)) = p(t) H(p(y|t)), zero at zero mass.

    The division form cancels exactly when a parent's children are identical
    (their conditionals are bit-equal), so homogeneous regions get increment
    zero rather than rounding dust.
    """
    pos = joint > 0
    safe = np.where(pos, joint, 1.0)
    ratio = safe / np.where(mass > 0, mass, 1.0)[:, None]
    return -np.where(pos, joint * np.log(ratio), 0.0).sum(axis=1)


@dataclass(frozen=True, eq=False)
class IncrementVectors:
    """Rate and relevance increments over interior candidates, canonical order."""

    delta_x: np.ndarray
    delta_y: np.ndarray

    def __post_init__(self):
        dx = np.ascontiguousarray(self.delta_x, dtype=np.float64)
        dy = np.ascontiguousarray(self.delta_y, dtype=np.float64)
        if dx.shape != dy.shape or dx.ndim != 1:
            raise ValueError(f"increment shape mismatch: {dx.shape} vs {dy.shape}")
        dx.setflags(write=False)
        dy.setflags(write=False)
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "delta_y", dy)

    @property
    def num_candidates(self) -> int:
        return self.delta_x.size


def compute_increments(world: WorldMap) -> IncrementVectors:
    """Both increment vectors in one bottom-up pass, O(4^l * |Y|).

    Vectorized equivalent of applying node_delta_x / node_delta_y at every
    candidate: delta_x through p(t)ln p(t) - sum_c p(c)ln p(c), delta_y through
    the mixture-entropy form of the weighted JS divergence, written on the
    joint vectors p(t, y) so zero-mass children drop out without special cases.
    """
    stats = compute_node_stats(world)
    n = num_candidates(world.depth_l)
    delta_x = np.zeros(n)
    delta_y = np.zeros(n)
    g = [_weighted_entropy(joint, mass) for joint, mass in zip(stats.joints, stats.masses)]
    for d in range(world.depth_l):
        parent_mass = stats.masses[d]
        child_mass = stats.masses[d + 1].reshape(-1, 4)
        # p(t) H(Pi) = -sum_c p(c) ln(p(c)/p(t))
        pos = child_mass > 0
        ratio = np.where(pos, child_mass, 1.0) / np.where(parent_mass > 0, parent_mass, 1.0)[:, None]
        dx = -np.where(pos, child_mass * np.log(ratio), 0.0).sum(axis=1)
        dy = g[d] - g[d + 1].reshape(-1, 4).sum(axis=1)
        lo, hi = depth_offset(d), depth_offset(d + 1)
        dx = np.maximum(dx, 0.0)
        # JS <= H(Pi) exactly; keep the float results on the right side of it
        delta_x[lo:hi] = dx
        delta_y[lo:hi] = np.minimum(np.maximum(dy, 0.0), dx)
    return IncrementVectors(delta_x, delta_y)


def tree_information(selection: TreeSelection, inc: IncrementVectors) -> tuple[float, float]:
    """(I(T;X), I(T;Y)) of a valid selection as dot products with the increments."""
    z = selection.z
    if z.size != inc.num_candidates:
        raise ValueError(
            f"length mismatch: selection has {z.size} candidates, "
            f"increments have {inc.num_candidates}"
        )
    zf = z.astype(np.float64)
    return float(zf @ inc.delta_x), float(zf @ inc.delta_y)


def increment_rows(world: WorldMap):
    """Per-candidate rows (depth, morton, mass, delta_x, delta_y, free).

    `free` marks zero-mass candidates: selecting them changes neither
    information total.
    """
    stats = compute_node_stats(world)
    inc = compute_increments(world)
    rows = []
    i = 0
    for d in range(world.depth_l):
        for m in range(4 ** d):
            mass = float(stats.masses[d][m])
            rows.append(
                (d, m, mass, float(inc.delta_x[i]), float(inc.delta_y[i]), mass <= 0.0)
            )
            i += 1
    return rows


def write_increments_csv(path, world: WorldMap):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "morton", "mass", "delta_x_nats", "delta_y_nats", "free"])
        for d, m, mass, dx, dy, free in increment_rows(world):
            writer.writerow(
                [d, m, format(mass, FLOAT_FMT), format(dx, FLOAT_FMT),
                 format(dy, FLOAT_FMT), "true" if free else "false"]
            )
