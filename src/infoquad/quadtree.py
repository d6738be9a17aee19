"""Quadtree addressing over 2^l x 2^l grids and validity of tree selections.

Nodes are addressed by (depth, morton): depth 0 is the root covering the whole
grid, depth l the finest cells.  The Morton (Z-order) index interleaves row and
column bits, so the children of (d, m) are (d+1, 4m) .. (d+1, 4m+3) and the
descendant cells of any node occupy one contiguous Morton range.

A multi-resolution tree is encoded by a binary vector z over the interior-node
candidates (all nodes with depth < l) in depth-major, Morton-minor order.  The
vector is a valid tree iff every selected node's parent is selected; the
selected set then determines the leaf partition of the grid.  With this
ordering, candidate index arithmetic is that of an implicit 4-ary heap:
children of candidate i are candidates 4i+1 .. 4i+4 (when they exist).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NodeId",
    "TreeSelection",
    "num_candidates",
    "depth_offset",
    "candidate_index",
    "candidate_at",
    "depth_from_candidate_count",
    "interior_candidates",
    "expandable_parents",
    "is_valid_selection",
    "leaves_of",
    "leaf_spans",
    "encoder_of",
    "selection_from_nodes",
    "morton_interleave",
    "morton_deinterleave",
    "morton_permutation",
    "write_tree_json",
    "read_tree_json",
    "MalformedTreeDocument",
]


@dataclass(frozen=True, order=True)
class NodeId:
    """Address of a quadtree node: depth in [0, l] and Z-order index at that depth."""

    depth: int
    morton: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError(f"negative depth: {self.depth}")
        # a shift, not 4 ** depth: a hostile depth costs no power
        if self.morton < 0 or self.morton >> 2 * self.depth:
            raise ValueError(
                f"morton index {self.morton} out of range for depth {self.depth}"
            )

    def children(self) -> tuple["NodeId", "NodeId", "NodeId", "NodeId"]:
        d, m = self.depth + 1, 4 * self.morton
        return tuple(NodeId(d, m + k) for k in range(4))

    def parent(self) -> "NodeId":
        if self.depth == 0:
            raise ValueError("root node has no parent")
        return NodeId(self.depth - 1, self.morton >> 2)


def num_candidates(depth_l: int) -> int:
    """Number of interior-node candidates of the full tree: (4^l - 1) / 3."""
    if depth_l < 0:
        raise ValueError(f"negative depth_l: {depth_l}")
    return (4 ** depth_l - 1) // 3


def depth_offset(depth: int) -> int:
    """Canonical index of node (depth, 0); equals the candidate count above it."""
    return (4 ** depth - 1) // 3


def candidate_index(node: NodeId) -> int:
    return depth_offset(node.depth) + node.morton


def candidate_at(index: int) -> NodeId:
    """Inverse of candidate_index."""
    if index < 0:
        raise ValueError(f"negative candidate index: {index}")
    depth = 0
    while depth_offset(depth + 1) <= index:
        depth += 1
    return NodeId(depth, index - depth_offset(depth))


def depth_from_candidate_count(n: int) -> int:
    """Recover l from the candidate count (4^l - 1) / 3, rejecting other lengths."""
    depth_l = (3 * n + 1).bit_length() // 2  # 3n + 1 = 4^l has 2l + 1 bits
    if not (n >= 0 and num_candidates(depth_l) == n):
        raise ValueError(f"{n} is not a full candidate count (4^l - 1)/3")
    return depth_l


@dataclass(frozen=True, eq=False)
class TreeSelection:
    """Binary indicator vector over interior-node candidates, canonical order."""

    z: np.ndarray

    def __post_init__(self):
        # a frozen copy: the caller's array stays writable
        z = _binary_vector(self.z, copy=True)
        depth_from_candidate_count(z.size)  # reject non-quadtree lengths
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def depth_l(self) -> int:
        return depth_from_candidate_count(self.z.size)

    @property
    def num_selected(self) -> int:
        return int(self.z.sum())

    @property
    def leaf_count(self) -> int:
        # each expansion replaces one leaf with four
        return 1 + 3 * self.num_selected

    def selected_nodes(self) -> list[NodeId]:
        depths, mortons = _coordinates(np.flatnonzero(self.z), self.depth_l)
        return list(map(NodeId, depths.tolist(), mortons.tolist()))

    def __eq__(self, other):
        return isinstance(other, TreeSelection) and np.array_equal(self.z, other.z)

    def __repr__(self):
        return f"TreeSelection(depth_l={self.depth_l}, selected={self.num_selected})"


def interior_candidates(depth_l: int) -> list[NodeId]:
    """All nodes with depth < l in depth-major, Morton-minor order."""
    if depth_l < 0:
        raise ValueError(f"negative depth_l: {depth_l}")
    return [
        NodeId(d, m) for d in range(depth_l) for m in range(4 ** d)
    ]


def expandable_parents(depth_l: int) -> set[NodeId]:
    """Candidates whose children are also candidates: all nodes with depth <= l-2."""
    if depth_l < 0:
        raise ValueError(f"negative depth_l: {depth_l}")
    return {NodeId(d, m) for d in range(max(depth_l - 1, 0)) for m in range(4 ** d)}


def _binary_vector(values, copy: bool = False) -> np.ndarray:
    """values as a contiguous uint8 vector, checked before the cast: one
    dimension, and every entry exactly 0 or 1.  With copy, never the caller's
    memory."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise ValueError("selection vector must be one-dimensional")
    if values.size and not np.all((values == 0) | (values == 1)):
        raise ValueError("selection entries must be 0 or 1")
    return np.array(values, np.uint8) if copy else np.ascontiguousarray(values, np.uint8)


def _as_z(selection, depth_l=None) -> np.ndarray:
    z = selection.z if isinstance(selection, TreeSelection) else _binary_vector(selection)
    if depth_l is not None and z.size != num_candidates(depth_l):
        raise ValueError(
            f"selection length mismatch: got {z.size}, "
            f"expected {num_candidates(depth_l)} for depth_l={depth_l}"
        )
    return z


def is_valid_selection(selection, depth_l: int) -> bool:
    """True iff z[child] <= z[parent] for every parent/child candidate pair."""
    return not _orphans(_as_z(selection, depth_l)).size


def _orphans(z: np.ndarray, slack=0) -> np.ndarray:
    """Ascending candidate indices whose entry exceeds their parent's by more
    than slack; the parent of candidate i is (i - 1) // 4."""
    children = np.arange(1, z.size)
    return children[z[1:] > z[(children - 1) >> 2] + slack]


def _drop_orphans(z: np.ndarray, depth_l: int) -> np.ndarray:
    """Clear in place, top-down, every entry of a 0/1 or boolean vector whose
    parent is clear, so that the rest forms a valid tree; returns z."""
    for d in range(1, depth_l):
        parents = z[depth_offset(d - 1):depth_offset(d)]
        z[depth_offset(d):depth_offset(d + 1)] &= np.repeat(parents, 4)
    return z


def _coordinates(indices: np.ndarray, depth_l: int) -> tuple[np.ndarray, np.ndarray]:
    """(depth, morton) arrays of candidate indices below num_candidates(depth_l)."""
    offsets = depth_offset(np.arange(depth_l + 1))
    depths = np.searchsorted(offsets, indices, side="right") - 1
    return depths, indices - offsets[depths]


def _leaf_depths(z: np.ndarray, depth_l: int) -> np.ndarray:
    """Depth of the leaf covering each finest cell, Morton-ordered: in a valid
    selection, the number of the cell's ancestors that are selected."""
    cells = np.arange(4 ** depth_l)
    depths = np.zeros(cells.size, dtype=np.int64)
    for d in range(depth_l):
        depths += z[depth_offset(d) + (cells >> 2 * (depth_l - d))]
    return depths


def _leaf_ranges(selection) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(depth, lo, hi) arrays of the leaves of a valid selection, in ascending
    order of their finest-cell Morton ranges [lo, hi), which tile [0, 4^l).
    Raises on an invalid selection."""
    z = _as_z(selection)
    depth_l = depth_from_candidate_count(z.size)
    if not is_valid_selection(z, depth_l):
        raise ValueError("invalid selection: child selected without its parent")
    depths = _leaf_depths(z, depth_l)
    widths = 4 ** (depth_l - depths)
    lo = np.flatnonzero(np.arange(depths.size) % widths == 0)
    return depths[lo], lo, lo + widths[lo]


def leaf_spans(selection: TreeSelection) -> list[tuple[NodeId, int, int]]:
    """Leaves of the selection with their finest-cell Morton ranges [lo, hi).

    Leaves are returned in ascending Morton range order, so the ranges tile
    [0, 4^l) exactly.  Raises on an invalid selection.
    """
    depths, lo, hi = _leaf_ranges(selection)
    return [(NodeId(d, s // (e - s)), s, e)
            for d, s, e in zip(depths.tolist(), lo.tolist(), hi.tolist())]


def leaves_of(selection: TreeSelection) -> set[NodeId]:
    """Leaf node set of a valid selection; the leaf regions partition the grid."""
    return {node for node, _, _ in leaf_spans(selection)}


def encoder_of(selection: TreeSelection) -> list[NodeId]:
    """Deterministic encoder: finest cell (by Morton index) -> containing leaf."""
    mapping: list[NodeId] = []
    for node, lo, hi in leaf_spans(selection):
        mapping += [node] * (hi - lo)
    return mapping


def selection_from_nodes(depth_l: int, nodes) -> TreeSelection:
    """Build a TreeSelection from a collection of selected NodeIds."""
    z = np.zeros(num_candidates(depth_l), dtype=np.uint8)
    for node in nodes:
        if node.depth >= depth_l:
            raise ValueError(f"node {node} is not an interior candidate at depth_l={depth_l}")
        z[candidate_index(node)] = 1
    return TreeSelection(z)


def morton_interleave(rows, cols, depth_l: int):
    """Morton index of (row, col) positions on a 2^l grid; row bits are the high bits."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    m = np.zeros_like(rows)
    for k in range(depth_l):
        m |= ((rows >> k) & 1) << (2 * k + 1)
        m |= ((cols >> k) & 1) << (2 * k)
    return m


def morton_deinterleave(mortons, depth_l: int):
    """Inverse of morton_interleave: Morton index -> (row, col)."""
    mortons = np.asarray(mortons, dtype=np.int64)
    rows = np.zeros_like(mortons)
    cols = np.zeros_like(mortons)
    for k in range(depth_l):
        rows |= ((mortons >> (2 * k + 1)) & 1) << k
        cols |= ((mortons >> (2 * k)) & 1) << k
    return rows, cols


def morton_permutation(depth_l: int) -> np.ndarray:
    """perm[morton] = row-major flat index, for reordering 2^l x 2^l rasters."""
    side = 2 ** depth_l
    rows, cols = morton_deinterleave(np.arange(side * side), depth_l)
    return rows * side + cols


def write_tree_json(path, selection: TreeSelection, i_x_nats: float, i_y_nats: float):
    """Write the tree document: depth_l, the selected nodes as [depth, morton]
    pairs in canonical order, leaf_count and the information pair, as the
    bytes json.dump writes at indent=1, plus a newline."""
    depths, mortons = _coordinates(np.flatnonzero(selection.z), selection.depth_l)
    # json's indented encoder is pure Python: it writes the short frame, and
    # the node list, one entry per selected node, is formatted here
    nodes = ",\n".join(f"  [\n   {d},\n   {m}\n  ]"
                       for d, m in zip(depths.tolist(), mortons.tolist()))
    selected = f"[\n{nodes}\n ]" if nodes else "[]"
    frame = json.dumps({"depth_l": selection.depth_l, "selected": 0,
                        "leaf_count": selection.leaf_count,
                        "i_x_nats": float(i_x_nats), "i_y_nats": float(i_y_nats)}, indent=1)
    with open(path, "w") as fh:
        fh.write(frame.replace('"selected": 0,', f'"selected": {selected},', 1) + "\n")


class MalformedTreeDocument(ValueError):
    """A tree document whose JSON shape is not the one write_tree_json writes."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _is_node_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair)) for pair in value
    )


_TREE_FIELDS = (("depth_l", _is_int), ("selected", _is_node_list), ("leaf_count", _is_int),
                ("i_x_nats", _is_finite), ("i_y_nats", _is_finite))


def read_tree_json(path, depth_l: int) -> tuple[TreeSelection, dict]:
    """Load and validate a tree document for a map of depth depth_l; rejects
    invalid selections.

    A document of the wrong shape raises MalformedTreeDocument, a subclass of
    the ValueError raised for a well-formed one that is not a valid tree.
    A document of another depth than depth_l raises ValueError before its
    selection, which grows as 4^depth, is allocated, so the document's own
    depth never sizes an allocation.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise MalformedTreeDocument("tree document is not a JSON object")
    for key, well_formed in _TREE_FIELDS:
        if key not in doc:
            raise MalformedTreeDocument(f"tree document missing key {key!r}")
        if not well_formed(doc[key]):
            raise MalformedTreeDocument(f"tree document has a malformed {key!r}")
    if doc["depth_l"] != depth_l:
        raise ValueError(
            f"tree depth_l {doc['depth_l']} does not match map depth_l {depth_l}"
        )
    # checked on the Python ints, depth first: a hostile depth or Morton index
    # never reaches a power, an int64 conversion or an allocation
    for d, m in doc["selected"]:
        if not (0 <= d < depth_l and 0 <= m < 4 ** d):
            raise ValueError(f"node (depth={d}, morton={m}) out of range for depth_l={depth_l}")
    nodes = np.array(doc["selected"], dtype=np.int64).reshape(-1, 2)
    z = np.zeros(num_candidates(depth_l), dtype=np.uint8)
    z[depth_offset(nodes[:, 0]) + nodes[:, 1]] = 1
    selection = TreeSelection(z)
    bad = _orphans(z)
    if bad.size:
        (d,), (m,) = _coordinates(bad[:1], depth_l)
        raise ValueError(
            f"tree document is not a valid selection: node (depth={d}, morton={m}) "
            f"selected without its parent (depth={d - 1}, morton={m >> 2})"
        )
    if doc["leaf_count"] != selection.leaf_count:
        raise ValueError(
            f"tree document leaf_count {doc['leaf_count']} does not match "
            f"selection ({selection.leaf_count})"
        )
    return selection, doc
