import numpy as np
import pytest

import infoquad as iq
from infoquad.increments import increment_rows
from infoquad.quadtree import NodeId
from helpers import (NodeStats, blob_world, child_stats, node_delta_x, node_delta_y, node_stats,
                     quadrant_world, random_valid_selection, random_world)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906
LN16 = 2.772588722239781


def test_node_stats_uniform_masses():
    world = random_world(np.random.default_rng(0), 1)
    stats = iq.compute_node_stats(world)
    assert node_stats(stats, NodeId(0, 0)).mass == pytest.approx(1.0, abs=1e-12)
    assert [node_stats(stats, NodeId(1, m)).mass for m in range(4)] == pytest.approx([0.25] * 4)


def test_node_stats_mixture():
    world = iq.world_from_cells(1, np.column_stack([[0, 1, 0, 1], [1, 0, 1, 0]]))
    root = node_stats(iq.compute_node_stats(world), NodeId(0, 0))
    assert root.relevance.tolist() == pytest.approx([0.5, 0.5])


def test_node_stats_two_level_mixture():
    world = quadrant_world()
    stats = iq.compute_node_stats(world)
    quad0 = node_stats(stats, NodeId(1, 0))
    assert quad0.mass == pytest.approx(0.25, abs=1e-12)
    assert quad0.relevance[1] == pytest.approx(0.5, abs=1e-12)
    root = node_stats(stats, NodeId(0, 0))
    assert root.mass == pytest.approx(1.0, abs=1e-12)
    assert root.relevance[1] == pytest.approx(0.125, abs=1e-12)


def test_node_stats_zero_mass_placeholder():
    prior = np.array([0.5, 0.5] + [0.0] * 14)
    world = random_world(np.random.default_rng(1), 2)
    world = iq.world_from_cells(2, world.cell_relevance, prior)
    stats = iq.compute_node_stats(world)
    assert node_stats(stats, NodeId(1, 1)).relevance is None
    assert node_stats(stats, NodeId(1, 1)).mass == 0.0


def test_node_delta_x_cases():
    children = [NodeStats(0.25, np.array([0.5, 0.5])) for _ in range(4)]
    assert node_delta_x(NodeStats(1.0, np.array([0.5, 0.5])), children) == pytest.approx(
        LN4, abs=1e-12
    )
    zero = [NodeStats(0.0, None) for _ in range(4)]
    assert node_delta_x(NodeStats(0.0, None), zero) == 0.0
    small = [NodeStats(0.0625, np.array([1.0, 0.0])) for _ in range(4)]
    assert node_delta_x(NodeStats(0.25, np.array([1.0, 0.0])), small) == pytest.approx(
        0.25 * LN4, abs=1e-12
    )


def test_node_delta_x_mass_mismatch():
    children = [NodeStats(0.3, np.array([1.0, 0.0])) for _ in range(4)]
    with pytest.raises(ValueError, match="mass mismatch"):
        node_delta_x(NodeStats(1.0, np.array([1.0, 0.0])), children)


def test_node_delta_y_cases():
    same = [NodeStats(0.25, np.array([0.3, 0.7])) for _ in range(4)]
    assert node_delta_y(NodeStats(1.0, np.array([0.3, 0.7])), same) == 0.0

    split = [NodeStats(0.25, np.array([1.0, 0.0])), NodeStats(0.25, np.array([1.0, 0.0])),
             NodeStats(0.25, np.array([0.0, 1.0])), NodeStats(0.25, np.array([0.0, 1.0]))]
    assert node_delta_y(NodeStats(1.0, np.array([0.5, 0.5])), split) == pytest.approx(
        LN2, abs=1e-12
    )

    quarter = [NodeStats(0.0625, np.array([0.0, 1.0])), NodeStats(0.0625, np.array([1.0, 0.0])),
               NodeStats(0.0625, np.array([0.0, 1.0])), NodeStats(0.0625, np.array([1.0, 0.0]))]
    assert node_delta_y(NodeStats(0.25, np.array([0.5, 0.5])), quarter) == pytest.approx(
        0.25 * LN2, abs=1e-12
    )


def test_compute_increments_checkerboard_l1():
    world = iq.world_from_cells(1, np.column_stack([[0, 1, 0, 1], [1, 0, 1, 0]]))
    inc = iq.compute_increments(world)
    assert inc.delta_x.tolist() == pytest.approx([LN4], abs=1e-12)
    assert inc.delta_y.tolist() == pytest.approx([LN2], abs=1e-12)


def test_compute_increments_homogeneous_has_zero_relevance():
    world = iq.world_from_cells(1, np.tile([0.4, 0.6], (4, 1)))
    inc = iq.compute_increments(world)
    assert inc.delta_y.tolist() == [0.0]


def test_compute_increments_quadrant_world_zeros():
    inc = iq.compute_increments(quadrant_world())
    # relevance increment positive only at root and quadrant 0
    assert inc.delta_y[0] > 0 and inc.delta_y[1] > 0
    assert inc.delta_y[2:].tolist() == [0.0, 0.0, 0.0]
    assert inc.delta_y[0] == pytest.approx(0.20348336611645043, abs=1e-12)
    assert inc.delta_y[1] == pytest.approx(0.25 * LN2, abs=1e-12)


def test_vectorized_increments_match_per_node_ops():
    rng = np.random.default_rng(12)
    for _ in range(10):
        depth_l = int(rng.integers(1, 4))
        world = random_world(rng, depth_l, uniform_prior=False, zero_prior=True,
                             y_size=int(rng.integers(2, 4)))
        inc = iq.compute_increments(world)
        stats = iq.compute_node_stats(world)
        for i, node in enumerate(iq.interior_candidates(depth_l)):
            parent = node_stats(stats, node)
            children = child_stats(stats, node)
            assert inc.delta_x[i] == pytest.approx(
                node_delta_x(parent, children), abs=1e-12)
            assert inc.delta_y[i] == pytest.approx(
                node_delta_y(parent, children), abs=1e-12)


def test_increment_invariants():
    rng = np.random.default_rng(13)
    for _ in range(25):
        depth_l = int(rng.integers(1, 4))
        world = random_world(rng, depth_l, uniform_prior=bool(rng.integers(0, 2)),
                             zero_prior=True)
        inc = iq.compute_increments(world)
        assert np.all(inc.delta_y >= 0.0)
        assert np.all(inc.delta_y <= inc.delta_x)
        stats = iq.compute_node_stats(world)
        for i, node in enumerate(iq.interior_candidates(depth_l)):
            if node_stats(stats, node).mass == 0.0:
                assert inc.delta_x[i] == 0.0


def test_full_tree_totals():
    rng = np.random.default_rng(14)
    for _ in range(25):
        depth_l = int(rng.integers(1, 4))
        world = random_world(rng, depth_l, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        h_x = iq.entropy(world.cell_prior)
        assert inc.delta_x.sum() == pytest.approx(h_x, abs=1e-9)
        assert inc.delta_y.sum() == pytest.approx(iq.mutual_info_xy(world), abs=1e-9)


def test_tree_information_examples():
    world = quadrant_world()
    inc = iq.compute_increments(world)
    root = iq.TreeSelection(np.zeros(5, np.uint8))
    assert iq.tree_information(root, inc) == (0.0, 0.0)
    full = iq.TreeSelection(np.ones(5, np.uint8))
    i_x, _ = iq.tree_information(full, inc)
    assert i_x == pytest.approx(LN16, abs=1e-9)
    sel = iq.TreeSelection(np.array([1, 1, 0, 0, 0], np.uint8))
    i_x, i_y = iq.tree_information(sel, inc)
    assert i_x == pytest.approx(1.7328679513998633, abs=1e-9)
    assert i_y == pytest.approx(0.37677016125643675, abs=1e-9)


def test_tree_information_length_mismatch():
    inc = iq.compute_increments(quadrant_world())
    with pytest.raises(ValueError, match="length mismatch"):
        iq.tree_information(iq.TreeSelection(np.zeros(1, np.uint8)), inc)


def test_decomposition_identity_master():
    rng = np.random.default_rng(15)
    for _ in range(40):
        depth_l = int(rng.integers(1, 4))
        world = random_world(rng, depth_l, binary=bool(rng.integers(0, 2)),
                             uniform_prior=bool(rng.integers(0, 2)), zero_prior=True)
        inc = iq.compute_increments(world)
        sel = random_valid_selection(rng, depth_l, p_expand=rng.random())
        fast = iq.tree_information(sel, inc)
        slow = iq.direct_tree_information(world, sel)
        assert fast[0] == pytest.approx(slow[0], abs=1e-9)
        assert fast[1] == pytest.approx(slow[1], abs=1e-9)


def test_increments_invariant_under_prior_rescale():
    rng = np.random.default_rng(16)
    world = random_world(rng, 2)
    weights = rng.random(16)
    from infoquad.world import prior_from_weights

    a = iq.compute_increments(prior_from_weights(weights, world))
    b = iq.compute_increments(prior_from_weights(8.0 * weights, world))
    assert np.array_equal(a.delta_x, b.delta_x)
    assert np.array_equal(a.delta_y, b.delta_y)


def test_increment_rows_and_csv(tmp_path):
    prior = np.array([0.5, 0.5] + [0.0] * 14)
    world = iq.world_from_cells(2, quadrant_world().cell_relevance, prior)
    rows = increment_rows(world)
    assert len(rows) == 5
    assert [r[:2] for r in rows] == [(0, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
    free = [r[5] for r in rows]
    assert free == [False, False, True, True, True]
    # the per-candidate loop the rows are gathered in place of
    world3 = blob_world(np.random.default_rng(3), 3, zero_quadrant=True)
    stats, inc = iq.compute_node_stats(world3), iq.compute_increments(world3)
    nodes = [(d, m) for d in range(3) for m in range(4 ** d)]
    assert increment_rows(world3) == [
        (d, m, float(stats.masses[d][m]), float(inc.delta_x[i]), float(inc.delta_y[i]),
         float(stats.masses[d][m]) <= 0.0) for i, (d, m) in enumerate(nodes)]
    path = tmp_path / "inc.csv"
    iq.write_increments_csv(path, world)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "depth,morton,mass,delta_x_nats,delta_y_nats,free"
    assert len(lines) == 6


def test_write_csv_formats_each_cell_as_its_type(tmp_path):
    """Columns of floats (numpy's included), booleans, other cells, and
    columns that mix them, each cell written as the per-cell rule says."""
    from infoquad.increments import FLOAT_FMT, write_csv

    rows = [[0.1, True, 3, "a,b", 1.0, np.float64(2.5)],
            [1 / 3, False, 4, "c", 2, True],
            [np.float64(1e-20), True, -5, "", False, "x"]]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["f", "b", "i", "s", "mix", "any"], rows)

    def cell(v):
        if isinstance(v, float):
            return format(v, FLOAT_FMT)
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)

    lines = ["f,b,i,s,mix,any"] + [",".join(f'"{c}"' if "," in c else c for c in map(cell, row))
                                   for row in rows]
    assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
    write_csv(path, ["only"], [])
    assert path.read_bytes() == b"only\r\n"


@pytest.mark.parametrize("call,message", [
    (lambda: iq.IncrementVectors(np.zeros(5), np.zeros(4)), r"^increment shape mismatch: \(5,\) vs \(4,\)$"),
    (lambda: iq.IncrementVectors(np.zeros((1, 5)), np.zeros((1, 5))),
     r"^increment shape mismatch: \(1, 5\) vs \(1, 5\)$"),
], ids=["lengths", "two-dimensional"])
def test_increments_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
