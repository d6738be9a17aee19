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

from .quadtree import TreeSelection, _coordinates, depth_offset, num_candidates
from .world import WorldMap

__all__ = [
    "TreeStats",
    "IncrementVectors",
    "compute_node_stats",
    "compute_increments",
    "tree_information",
    "increment_rows",
    "write_increments_csv",
    "write_csv",
    "FLOAT_FMT",
]

FLOAT_FMT = ".12g"  # every CSV and printed float: 12 significant digits, byte-deterministic


@dataclass(frozen=True, eq=False)
class TreeStats:
    """Masses and joint vectors p(t, y) for every node, grouped by depth."""

    depth_l: int
    masses: list[np.ndarray]   # masses[d] has shape (4^d,)
    joints: list[np.ndarray]   # joints[d] has shape (4^d, |Y|)


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

    Every candidate's p(t) H(Pi) and p(t) JS_Pi(child relevances) at once:
    delta_x through p(t)ln p(t) - sum_c p(c)ln p(c), delta_y through the
    mixture-entropy form of the weighted JS divergence, written on the joint
    vectors p(t, y) so zero-mass children drop out without special cases.
    """
    stats = compute_node_stats(world)
    n = num_candidates(world.depth_l)
    delta_x = np.zeros(n)
    delta_y = np.zeros(n)
    g = [_weighted_entropy(joint, mass) for joint, mass in zip(stats.joints, stats.masses)]
    for d in range(world.depth_l):
        # p(t) H(Pi) = -sum_c p(c) ln(p(c)/p(t))
        dx = np.maximum(_weighted_entropy(stats.masses[d + 1].reshape(-1, 4), stats.masses[d]), 0.0)
        dy = g[d] - g[d + 1].reshape(-1, 4).sum(axis=1)
        lo, hi = depth_offset(d), depth_offset(d + 1)
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
    i_x, i_y = _information(z[None], inc)
    return float(i_x[0]), float(i_y[0])


def _information(z: np.ndarray, inc: IncrementVectors) -> tuple[np.ndarray, np.ndarray]:
    """The two dot products of tree_information for each row of a 0/1
    matrix of the increments' width, unchecked; the package's one
    information sum.  A stack of 1 x n by n x 1 products takes one vector
    dot per row, so each row's sums are bit for bit those of the row alone,
    whatever else the batch holds."""
    zf = z.astype(np.float64)[:, None, :]
    return (zf @ inc.delta_x[:, None]).ravel(), (zf @ inc.delta_y[:, None]).ravel()


def increment_rows(world: WorldMap):
    """Per-candidate rows (depth, morton, mass, delta_x, delta_y, free).

    `free` marks zero-mass candidates: selecting them changes neither
    information total.
    """
    inc = compute_increments(world)
    # candidates are the depth-major nodes above the finest cells
    mass = np.concatenate(compute_node_stats(world).masses)[:inc.num_candidates]
    depths, mortons = _coordinates(np.arange(inc.num_candidates), world.depth_l)
    return list(zip(depths.tolist(), mortons.tolist(), mass.tolist(), inc.delta_x.tolist(),
                    inc.delta_y.tolist(), (mass <= 0.0).tolist()))


def write_increments_csv(path, world: WorldMap):
    write_csv(path, ["depth", "morton", "mass", "delta_x_nats", "delta_y_nats", "free"],
              increment_rows(world))


def write_csv(path, header, rows):
    """Write a header and rows as CSV with csv's \\r\\n line ends: floats as
    FLOAT_FMT, booleans as true/false and any other cell as csv writes it.
    Each column is formatted at once; when every column holds only floats,
    booleans or ints, whose text needs no quoting, the rows are joined
    without the csv module."""
    formatted = [_format_column(cells) for cells in zip(*rows)]
    columns = [cells for _, cells in formatted]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if all(plain for plain, _ in formatted):
            fh.writelines(",".join(row) + "\r\n" for row in zip(*columns))
        else:
            writer.writerows(zip(*columns))


def _format_column(cells):
    """(plain, cells): a column's cells as write_csv writes them, formatted
    by one formatter when they are all floats, all booleans or all ints."""
    kinds = set(map(type, cells))
    if all(issubclass(t, float) for t in kinds):
        return True, list(map(f"{{:{FLOAT_FMT}}}".format, cells))
    if kinds == {bool}:
        return True, ["true" if v else "false" for v in cells]
    if kinds == {int}:
        return True, list(map(str, cells))
    return False, [format(v, FLOAT_FMT) if isinstance(v, float)
                   else ("true" if v else "false") if isinstance(v, bool) else v for v in cells]
