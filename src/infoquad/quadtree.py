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
from dataclasses import dataclass, field

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
    "tree_to_json",
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
        if not 0 <= self.morton < 4 ** self.depth:
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
    depth_l, count = 0, 0
    while count < n:
        depth_l += 1
        count = num_candidates(depth_l)
    if count != n:
        raise ValueError(f"{n} is not a full candidate count (4^l - 1)/3")
    return depth_l


@dataclass(frozen=True, eq=False)
class TreeSelection:
    """Binary indicator vector over interior-node candidates, canonical order."""

    z: np.ndarray

    def __post_init__(self):
        z = np.ascontiguousarray(self.z, dtype=np.uint8)
        if z.ndim != 1:
            raise ValueError("selection vector must be one-dimensional")
        if z.size and not np.all((z == 0) | (z == 1)):
            raise ValueError("selection entries must be 0 or 1")
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
        return [candidate_at(int(i)) for i in np.flatnonzero(self.z)]

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


def _as_z(selection, depth_l=None) -> np.ndarray:
    if isinstance(selection, TreeSelection):
        z = selection.z
    else:
        z = np.ascontiguousarray(selection, dtype=np.uint8)
    if depth_l is not None and z.size != num_candidates(depth_l):
        raise ValueError(
            f"selection length mismatch: got {z.size}, "
            f"expected {num_candidates(depth_l)} for depth_l={depth_l}"
        )
    return z


def is_valid_selection(selection, depth_l: int) -> bool:
    """True iff z[child] <= z[parent] for every parent/child candidate pair."""
    z = _as_z(selection, depth_l)
    for d in range(1, depth_l):
        parents = z[depth_offset(d - 1):depth_offset(d)]
        children = z[depth_offset(d):depth_offset(d + 1)]
        if np.any(children > np.repeat(parents, 4)):
            return False
    return True


def leaf_spans(selection: TreeSelection) -> list[tuple[NodeId, int, int]]:
    """Leaves of the selection with their finest-cell Morton ranges [lo, hi).

    Leaves are returned in ascending Morton range order, so the ranges tile
    [0, 4^l) exactly.  Raises on an invalid selection.
    """
    z = _as_z(selection)
    depth_l = depth_from_candidate_count(z.size)
    if not is_valid_selection(z, depth_l):
        raise ValueError("invalid selection: child selected without its parent")
    n = z.size
    spans = []
    stack = [NodeId(0, 0)]
    while stack:
        node = stack.pop()
        idx = candidate_index(node)
        if node.depth < depth_l and z[idx]:
            stack.extend(reversed(node.children()))
        else:
            width = 4 ** (depth_l - node.depth)
            spans.append((node, node.morton * width, (node.morton + 1) * width))
    return spans


def leaves_of(selection: TreeSelection) -> set[NodeId]:
    """Leaf node set of a valid selection; the leaf regions partition the grid."""
    return {node for node, _, _ in leaf_spans(selection)}


def encoder_of(selection: TreeSelection) -> list[NodeId]:
    """Deterministic encoder: finest cell (by Morton index) -> containing leaf."""
    z = _as_z(selection)
    depth_l = depth_from_candidate_count(z.size)
    mapping: list[NodeId] = [None] * (4 ** depth_l)
    for node, lo, hi in leaf_spans(selection):
        mapping[lo:hi] = [node] * (hi - lo)
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


def tree_to_json(selection: TreeSelection, i_x_nats: float, i_y_nats: float) -> dict:
    """Tree document: selected nodes in canonical order plus its information pair."""
    return {
        "depth_l": selection.depth_l,
        "selected": [[n.depth, n.morton] for n in selection.selected_nodes()],
        "leaf_count": selection.leaf_count,
        "i_x_nats": float(i_x_nats),
        "i_y_nats": float(i_y_nats),
    }


def write_tree_json(path, selection: TreeSelection, i_x_nats: float, i_y_nats: float):
    with open(path, "w") as fh:
        json.dump(tree_to_json(selection, i_x_nats, i_y_nats), fh, indent=1)
        fh.write("\n")


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


def read_tree_json(path, depth_l: int | None = None) -> tuple[TreeSelection, dict]:
    """Load and validate a tree document; rejects invalid selections.

    A document of the wrong shape raises MalformedTreeDocument, a subclass of
    the ValueError raised for a well-formed one that is not a valid tree.
    Given depth_l (the map's depth), a document of another depth raises
    ValueError before its selection, which grows as 4^depth, is allocated.
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
    if depth_l is not None and doc["depth_l"] != depth_l:
        raise ValueError(
            f"tree depth_l {doc['depth_l']} does not match map depth_l {depth_l}"
        )
    depth_l = doc["depth_l"]
    nodes = [NodeId(d, m) for d, m in doc["selected"]]
    selection = selection_from_nodes(depth_l, nodes)
    if not is_valid_selection(selection, depth_l):
        bad = _first_violation(selection.z, depth_l)
        raise ValueError(
            "tree document is not a valid selection: node "
            f"(depth={bad[1].depth}, morton={bad[1].morton}) selected without its "
            f"parent (depth={bad[0].depth}, morton={bad[0].morton})"
        )
    if doc["leaf_count"] != selection.leaf_count:
        raise ValueError(
            f"tree document leaf_count {doc['leaf_count']} does not match "
            f"selection ({selection.leaf_count})"
        )
    return selection, doc


def _first_violation(z: np.ndarray, depth_l: int) -> tuple[NodeId, NodeId]:
    """First (parent, child) pair with z[child] > z[parent], canonical order."""
    for d in range(1, depth_l):
        parents = z[depth_offset(d - 1):depth_offset(d)]
        children = z[depth_offset(d):depth_offset(d + 1)]
        bad = np.flatnonzero(children > np.repeat(parents, 4))
        if bad.size:
            m = int(bad[0])
            return NodeId(d - 1, m >> 2), NodeId(d, m)
    raise ValueError("selection has no precedence violation")
