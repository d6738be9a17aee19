"""Shared world builders and random generators for the test suite."""

import json

import numpy as np
import pytest

import infoquad as iq


def quadrant_world():
    """4x4 world, uniform prior, relevance 1 on Morton cells 0 and 2 only.

    Frozen facts: I(X;Y) = 0.37677016125643675, the cheapest tree retaining
    all of it is [1,1,0,0,0] with rate 1.7328679513998633.
    """
    p1 = np.zeros(16)
    p1[[0, 2]] = 1.0
    return iq.world_from_cells(2, np.column_stack([1.0 - p1, p1]))


def random_world(rng, depth_l, binary=False, uniform_prior=True, zero_prior=False,
                 y_size=2):
    cells = 4 ** depth_l
    if y_size == 2:
        p1 = rng.integers(0, 2, cells).astype(float) if binary else rng.random(cells)
        relevance = np.column_stack([1.0 - p1, p1])
    else:
        raw = rng.random((cells, y_size))
        relevance = raw / raw.sum(axis=1, keepdims=True)
    prior = None
    if not uniform_prior:
        weights = rng.random(cells)
        if zero_prior:
            weights[rng.random(cells) < 0.25] = 0.0
        if weights.sum() == 0:
            weights[0] = 1.0
        prior = weights / weights.sum()
    return iq.world_from_cells(depth_l, relevance, prior)


def blob_world(rng, depth_l, zero_weight=False, zero_quadrant=False):
    """Weighted binary world of a few smooth relevant blobs plus pixel noise,
    quantized to 8-bit gray levels, with log-normal cell weights; with
    zero_weight a quarter of the cells weigh nothing, with zero_quadrant the
    cells of the first Morton quadrant (the top-left one) do."""
    side = 2 ** depth_l
    yy, xx = np.mgrid[0:side, 0:side] + 0.5
    field = rng.normal(0.0, 0.05, (side, side))
    for _ in range(6):
        cy, cx = rng.uniform(0, side, 2)
        width = rng.uniform(side / 16, side / 4)
        field += rng.uniform(0.3, 1.0) * np.exp(
            -((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width * width))
    weights = np.exp(rng.normal(0.0, 0.5, (side, side)))
    if zero_weight:
        weights[rng.random((side, side)) < 0.25] = 0.0
    if zero_quadrant:
        weights[:side // 2, :side // 2] = 0.0
    return iq.world_from_grid(np.rint(255 * np.clip(field, 0.0, 1.0)) / 255, weights)


def random_valid_selection(rng, depth_l, p_expand=0.6):
    """Top-down random tree: each available candidate selected with p_expand."""
    n = (4 ** depth_l - 1) // 3
    z = np.zeros(n, dtype=np.uint8)
    stack = [0] if n else []
    while stack:
        i = stack.pop()
        if rng.random() < p_expand:
            z[i] = 1
            child = 4 * i + 1
            if child + 3 < n:
                stack.extend((child, child + 1, child + 2, child + 3))
    return iq.TreeSelection(z)


def random_monotone_fractional(rng, depth_l):
    """Random vector satisfying the exact parent>=child precedence invariant."""
    from infoquad.quadtree import depth_offset

    n = (4 ** depth_l - 1) // 3
    z = np.zeros(n)
    if n:
        z[0] = rng.random()
    for d in range(1, depth_l):
        parents = z[depth_offset(d - 1):depth_offset(d)]
        scale = rng.random(4 ** d)
        z[depth_offset(d):depth_offset(d + 1)] = np.repeat(parents, 4) * scale
    return z


def _reference_lp(inc, cost, row, rhs, lower):
    """min cost.z s.t. row.z <= rhs, z_child - z_parent <= 0 for every
    parent/child candidate pair and lower <= z <= 1, by HiGHS dual simplex;
    skips the calling test when scipy is missing."""
    sp = pytest.importorskip("scipy.sparse")
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = inc.num_candidates
    children = np.arange(1, n)
    parents = (children - 1) // 4
    rows = np.arange(children.size)
    prec = sp.csr_matrix(
        (np.concatenate([np.ones(rows.size), -np.ones(rows.size)]),
         (np.concatenate([rows, rows]), np.concatenate([children, parents]))),
        shape=(rows.size, n),
    )
    a_ub = sp.vstack([sp.csr_matrix(row[None, :]), prec], format="csr")
    b_ub = np.zeros(a_ub.shape[0])
    b_ub[0] = rhs
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=np.column_stack([lower, np.ones(n)]), method="highs-ds")
    assert res.status == 0, res.message
    return float(res.fun)


def reference_lp_objective(inc, d_hat):
    """Relaxed min-rate optimum from a general LP solver, for cross-checks.

    At the full floor HiGHS can call the relevance row infeasible by
    rounding, so there the row is replaced by its exact equivalent: every
    candidate with delta_y > 0 is fixed to 1.
    """
    lower = np.zeros(inc.num_candidates)
    if d_hat >= float(inc.delta_y.sum()):
        lower[inc.delta_y > 0] = 1.0
        d_hat = 0.0
    return _reference_lp(inc, inc.delta_x, -inc.delta_y, -d_hat, lower)


def reference_pack_lp_objective(inc, budget):
    """Relaxed max-relevance optimum, max delta_y.z s.t. delta_x.z <= budget,
    from a general LP solver."""
    return -_reference_lp(inc, -inc.delta_y, inc.delta_x, budget,
                          np.zeros(inc.num_candidates))


def reference_knapsack_ratio_cover(a, b, need):
    """Critical price of the fractional covering knapsack min a.u s.t.
    b.u >= need.  A reference for the covering-form _knapsack_ratio."""
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


def reference_knapsack_ratio_pack(a, b, cap):
    """Critical price of the fractional packing knapsack max b.u s.t.
    a.u <= cap.  A reference for _knapsack_ratio(-b, -a, -cap)."""
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


def _reference_chain(idx, selected):
    chain, t = [], idx
    while t >= 0 and not selected[t]:
        chain.append(t)
        t = (t - 1) >> 2 if t else -1
    return chain


def reference_seed_cover(a, b, need):
    """Greedy selection for min a.z s.t. b.z >= need: chains of the items
    with b > 0 in ascending order of a/b until the floor is met, then a trim
    of the priciest removable leaves.  A reference for _seed(a, b, need)."""
    import heapq

    n = a.size
    z = np.zeros(n, dtype=bool)
    if need <= 0:
        return z.astype(np.uint8)
    ratio = np.full(n, np.inf)
    pos = b > 0
    ratio[pos] = a[pos] / b[pos]
    covered = 0.0
    for idx in np.argsort(ratio, kind="stable"):
        if covered >= need:
            break
        if not pos[idx] or z[idx]:
            continue
        chain = _reference_chain(int(idx), z)
        z[chain] = True
        covered += b[chain].sum()
    if covered < need:
        z[:] = True
        covered = float(b.sum())
    child_count = np.zeros(n, dtype=np.int64)
    sel_idx = np.flatnonzero(z)
    for idx in sel_idx:
        if idx:
            child_count[(idx - 1) >> 2] += 1
    heap = [(-float(a[i]), int(i)) for i in sel_idx if child_count[i] == 0]
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


def reference_seed_pack(b, a, cap):
    """Greedy selection for max b.z s.t. a.z <= cap: chains of the items with
    b > 0 in descending order of b/a, each taken when it fits the remaining
    budget.  A reference for _seed(-b, -a, -cap)."""
    n = a.size
    z = np.zeros(n, dtype=bool)
    ratio = np.full(n, -1.0)
    pos = b > 0
    with np.errstate(divide="ignore"):
        ratio[pos] = np.where(a[pos] > 0, b[pos] / np.where(a[pos] > 0, a[pos], 1.0), np.inf)
    used = 0.0
    for idx in np.argsort(-ratio, kind="stable"):
        if ratio[idx] < 0:
            break
        if z[idx]:
            continue
        chain = _reference_chain(int(idx), z)
        cost = a[chain].sum()
        if used + cost <= cap:
            z[chain] = True
            used += cost
    return z.astype(np.uint8)


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def reference_reconstruct(lattice, k_target):
    """One node at a time, the tree behind root class k_target of a rate-class
    lattice: each split is the smallest j at which the two merged rows of the
    half-level below sum largest.  The reference for the batched
    reconstruction."""
    from infoquad.quadtree import depth_offset, num_candidates

    def split(left, right, k):
        best = None
        for j in range(max(0, k - (right.size - 1)), min(left.size - 1, k) + 1):
            if best is None or left[j] + right[k - j] > best:
                best, first = left[j] + right[k - j], j
        return first

    depth_l = lattice.depth_l
    z = np.zeros(num_candidates(depth_l), dtype=np.uint8)
    stack = [(0, 0, int(k_target))]
    while stack:
        d, m, k = stack.pop()
        if k == 0:
            continue
        z[depth_offset(d) + m] = 1
        if d == depth_l - 1:
            continue
        j_all = k - 4 ** (depth_l - 1 - d)
        pairs, child = lattice.L[2 * d + 1], lattice.L[2 * d + 2]
        j12 = split(pairs[2 * m], pairs[2 * m + 1], j_all)
        j0 = split(child[4 * m], child[4 * m + 1], j12)
        j2 = split(child[4 * m + 2], child[4 * m + 3], j_all - j12)
        stack += [(d + 1, 4 * m, j0), (d + 1, 4 * m + 1, j12 - j0),
                  (d + 1, 4 * m + 2, j2), (d + 1, 4 * m + 3, j_all - j12 - j2)]
    return z


# Hand-made depth-2 tree documents: (selected, leaf_count, the exception
# read_tree_json raises, the exit code of validate against a 4x4 map).  The
# exceptions and codes are the ones of the reader that built a NodeId per entry.
READER_CASES = {
    "bool-entry": ([[True, 0]], 4, iq.MalformedTreeDocument, 2),
    "negative-depth": ([[-1, 0]], 4, ValueError, 1),
    "negative-morton": ([[0, -1]], 4, ValueError, 1),
    "morton-out-of-range": ([[0, 0], [1, 4]], 7, ValueError, 1),
    "morton-beyond-int64": ([[0, 2**70]], 4, ValueError, 1),
    "node-at-depth-l": ([[0, 0], [2, 0]], 7, ValueError, 1),
    "hostile-depth": ([[40_000_000, 0]], 4, ValueError, 1),
    "duplicate-node": ([[0, 0], [0, 0]], 4, None, 1),  # read fine; stale information
    "orphan-child": ([[1, 0]], 4, ValueError, 1),
    "wrong-leaf-count": ([[0, 0]], 3, ValueError, 1),
}


def reader_case_document(selected, leaf_count):
    return json.dumps({"depth_l": 2, "selected": selected, "leaf_count": leaf_count,
                       "i_x_nats": 0.0, "i_y_nats": 0.0})


def reference_direct_tree_information(world, selection):
    """direct_tree_information as a loop over the leaves, one slice each."""
    p_x = world.cell_prior
    joint_xy = p_x[:, None] * world.cell_relevance
    p_y = joint_xy.sum(axis=0)
    i_x = i_y = 0.0
    for _, lo, hi in reference_leaf_spans(selection):
        p_t = p_x[lo:hi].sum()
        if p_t <= 0:
            continue
        px = p_x[lo:hi][p_x[lo:hi] > 0]
        i_x += float((px * np.log(px / (p_t * px))).sum())
        p_ty = joint_xy[lo:hi].sum(axis=0)
        ymask = p_ty > 0
        i_y += float((p_ty[ymask] * np.log(p_ty[ymask] / (p_t * p_y[ymask]))).sum())
    return i_x, i_y


def reference_leaf_spans(selection):
    """Leaves of a valid selection with their Morton ranges, by a depth-first
    walk over NodeIds.  The reference for the vectorized leaf_spans."""
    from infoquad.quadtree import NodeId, candidate_index

    depth_l = selection.depth_l
    spans, stack = [], [NodeId(0, 0)]
    while stack:
        node = stack.pop()
        if node.depth < depth_l and selection.z[candidate_index(node)]:
            stack.extend(reversed(node.children()))
        else:
            width = 4 ** (depth_l - node.depth)
            spans.append((node, node.morton * width, (node.morton + 1) * width))
    return spans


def reference_render(path, world, selection, maxval=None):
    """render_abstraction one leaf at a time, writing one pixel at a time.
    The reference for the per-depth render."""
    from infoquad.quadtree import morton_permutation

    maxval = world.maxval if maxval is None else int(maxval)
    p1 = world.cell_relevance[:, 1]
    fill = np.empty(world.num_cells, dtype=np.float64)
    for _, lo, hi in reference_leaf_spans(selection):
        mass = world.cell_prior[lo:hi].sum()
        if mass > 0:
            value = float(world.cell_prior[lo:hi] @ p1[lo:hi]) / mass
        else:
            value = float(p1[lo:hi].mean())
        fill[lo:hi] = value
    grays = np.rint(maxval * (1.0 - fill)).astype(np.int64)
    grid = np.empty(world.num_cells, dtype=np.int64)
    grid[morton_permutation(world.depth_l)] = grays
    with open(path, "w") as fh:
        fh.write(f"P2\n{world.side} {world.side}\n{maxval}\n")
        for row in grid.reshape(world.side, world.side):
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def reference_write_tree_json(path, selection, i_x_nats, i_y_nats):
    """The tree document through candidate_at and json.dump(indent=1).  The
    reference for the direct writer."""
    from infoquad.quadtree import candidate_at

    nodes = [candidate_at(int(i)) for i in np.flatnonzero(selection.z)]
    doc = {
        "depth_l": selection.depth_l,
        "selected": [[n.depth, n.morton] for n in nodes],
        "leaf_count": selection.leaf_count,
        "i_x_nats": float(i_x_nats),
        "i_y_nats": float(i_y_nats),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
