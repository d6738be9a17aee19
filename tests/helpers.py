"""Shared world builders and random generators for the test suite."""

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


def reference_lp_objective(inc, d_hat):
    """Relaxed min-rate optimum from a general LP solver, for cross-checks.

    One relevance row plus one precedence row z_child - z_parent <= 0 per
    parent/child candidate pair, solved by HiGHS dual simplex; skips the
    calling test when scipy is missing.  At the full floor HiGHS can call the
    relevance row infeasible by rounding, so there the row is replaced by its
    exact equivalent: every candidate with delta_y > 0 is fixed to 1.
    """
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
    a_ub = sp.vstack([sp.csr_matrix(-inc.delta_y[None, :]), prec], format="csr")
    b_ub = np.zeros(a_ub.shape[0])
    lower = np.zeros(n)
    if d_hat >= float(inc.delta_y.sum()):
        lower[inc.delta_y > 0] = 1.0
    else:
        b_ub[0] = -d_hat
    res = linprog(inc.delta_x, A_ub=a_ub, b_ub=b_ub,
                  bounds=np.column_stack([lower, np.ones(n)]), method="highs-ds")
    assert res.status == 0, res.message
    return float(res.fun)


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def reference_reconstruct(lattice, k_target):
    """One node at a time, the tree behind root class k_target of a rate-class
    lattice: each split is the smallest j whose two halves add up to the
    merged table entry.  The reference for the batched reconstruction."""
    from infoquad.quadtree import depth_offset, num_candidates

    def split(left, right, k, value):
        for j in range(max(0, k - (right.size - 1)), min(left.size - 1, k) + 1):
            if left[j] + right[k - j] == value:
                return j
        raise AssertionError("no split reproduces the table entry")

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
        m12, m34 = lattice.M12[d][m], lattice.M34[d][m]
        j12 = split(m12, m34, j_all, lattice.MALL[d][m][j_all])
        child = lattice.T[d + 1]
        j0 = split(child[4 * m], child[4 * m + 1], j12, m12[j12])
        j2 = split(child[4 * m + 2], child[4 * m + 3], j_all - j12, m34[j_all - j12])
        stack += [(d + 1, 4 * m, j0), (d + 1, 4 * m + 1, j12 - j0),
                  (d + 1, 4 * m + 2, j2), (d + 1, 4 * m + 3, j_all - j12 - j2)]
    return z
