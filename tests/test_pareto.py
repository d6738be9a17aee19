from functools import lru_cache

import numpy as np
import pytest

import infoquad as iq
from infoquad import pareto
from infoquad.solver import _lattice_for
from helpers import quadrant_world, random_world, reference_reconstruct

QUAD_I_XY = 0.37677016125643675
QUAD_RATE = 1.7328679513998633
LN4 = 1.3862943611198906


@lru_cache(maxsize=None)
def all_selections(depth_l):
    """Every valid selection of a depth-l tree, one float row each."""
    return np.stack([sel.z for sel in iq.enumerate_valid_selections(depth_l)]).astype(float)


def oracle_pareto_values(inc, depth_l):
    """Dominance filter over full enumeration: the reference value set.

    A pair is dropped when some pair is_dominated it: one cheaper by more than
    the tolerance and not less relevant beyond it, or one at most as costly
    within the tolerance and more relevant beyond it.
    """
    Z = all_selections(depth_l)
    ix, iy = Z @ inc.delta_x, Z @ inc.delta_y
    order = np.argsort(ix, kind="stable")
    sorted_ix, best_iy = ix[order], np.maximum.accumulate(iy[order])
    cheaper = np.searchsorted(sorted_ix, ix - 1e-9, side="left")
    no_dearer = np.searchsorted(sorted_ix, ix + 1e-9, side="right")
    best_cheaper = np.where(cheaper > 0, best_iy[np.maximum(cheaper - 1, 0)], -np.inf)
    dominated = (best_cheaper >= iy - 1e-9) | (best_iy[no_dearer - 1] > iy + 1e-9)
    kept = sorted(zip(ix[~dominated].tolist(), iy[~dominated].tolist()))
    unique = []
    for value in kept:
        if not unique or abs(value[0] - unique[-1][0]) > 1e-9 \
                or abs(value[1] - unique[-1][1]) > 1e-9:
            unique.append(value)
    return unique


def test_is_dominated_examples():
    assert iq.is_dominated((2, 1), (1, 1))      # same relevance, more compression
    assert not iq.is_dominated((1, 1), (1, 1))  # equal points never dominate
    assert not iq.is_dominated((1, 2), (2, 1))  # incomparable pair


def test_is_dominated_strictness():
    assert iq.is_dominated((1, 1), (1, 2))       # same rate, more relevance
    assert iq.is_dominated((2, 1), (1, 2))       # better in both
    assert not iq.is_dominated((1, 2), (1, 1))   # worse relevance


def test_pareto_point_origin():
    inc = iq.compute_increments(quadrant_world())
    point = iq.pareto_point(inc, 0.0)
    assert (point.d_star, point.d_hat_star) == (0.0, 0.0)
    assert point.selection.num_selected == 0


def test_pareto_point_full_relevance():
    inc = iq.compute_increments(quadrant_world())
    point = iq.pareto_point(inc, QUAD_I_XY)
    assert point.d_star == pytest.approx(QUAD_RATE, abs=1e-9)
    assert point.d_hat_star == pytest.approx(QUAD_I_XY, abs=1e-9)
    assert point.d_hat_star >= QUAD_I_XY - 1e-9


def test_pareto_point_rejects_excess_floor():
    inc = iq.compute_increments(quadrant_world())
    with pytest.raises(ValueError, match="exceeds"):
        iq.pareto_point(inc, QUAD_I_XY + 0.05)


def test_pareto_point_repairs_min_rate_solution():
    # at the tied optimal rate the point must pick the more relevant tree
    inc = iq.compute_increments(quadrant_world())
    point = iq.pareto_point(inc, 0.1)
    assert point.d_star == pytest.approx(LN4, abs=1e-9)
    assert point.d_hat_star == pytest.approx(0.20348336611645043, abs=1e-9)


def test_trace_no_relevance_single_point():
    world = iq.world_from_cells(1, np.tile([0.25, 0.75], (4, 1)))
    inc = iq.compute_increments(world)
    points = iq.trace_pareto(inc)
    assert len(points) == 1
    assert (points[0].d_star, points[0].d_hat_star) == (0.0, 0.0)


def test_trace_depth_one_two_points():
    world = iq.world_from_grid([[1, 0], [0, 1]])
    inc = iq.compute_increments(world)
    points = iq.trace_pareto(inc)
    assert len(points) == 2
    assert points[0].d_star == 0.0
    assert points[1].d_star == pytest.approx(inc.delta_x[0], abs=1e-12)
    assert points[1].d_hat_star == pytest.approx(inc.delta_y[0], abs=1e-12)


def test_trace_matches_oracle_on_random_worlds():
    rng = np.random.default_rng(40)
    for trial in range(25):
        depth_l = int(rng.integers(1, 3))
        world = random_world(
            rng, depth_l,
            binary=trial % 3 == 0,
            uniform_prior=bool(rng.integers(0, 2)),
        )
        inc = iq.compute_increments(world)
        traced = [(p.d_star, p.d_hat_star) for p in iq.trace_pareto(inc)]
        expected = oracle_pareto_values(inc, depth_l)
        assert len(traced) == len(expected)
        for got, want in zip(traced, expected):
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)


def test_trace_structure_properties():
    rng = np.random.default_rng(41)
    for _ in range(10):
        world = random_world(rng, 2, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        points = iq.trace_pareto(inc)
        values = [(p.d_star, p.d_hat_star) for p in points]
        # strictly increasing in both coordinates, ends at full relevance
        assert values[0] == (0.0, 0.0)
        assert values[-1][1] == pytest.approx(float(inc.delta_y.sum()), abs=1e-9)
        for a, b in zip(values, values[1:]):
            assert b[0] > a[0] and b[1] > a[1]
        # pairwise non-domination
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    assert not iq.is_dominated(a, b)
        # the staircase jump: nothing strictly between the origin and the
        # root expansion on the rate axis
        root_rate = float(inc.delta_x[0])
        assert not any(0.0 < v[0] < root_rate - 1e-9 for v in values)


def test_trace_rejects_bad_step():
    inc = iq.compute_increments(quadrant_world())
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError, match="eps_step"):
            iq.trace_pareto(inc, eps_step=bad)


def test_min_rate_solutions_weakly_dominated_by_trace():
    # some traced point at the rate of every min-rate optimum covers it
    rng = np.random.default_rng(42)
    for _ in range(10):
        world = random_world(rng, 2, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        points = iq.trace_pareto(inc)
        total = float(inc.delta_y.sum())
        for frac in (0.2, 0.5, 0.8):
            result = iq.solve_min_rate(inc, frac * total)
            matches = [p for p in points if abs(p.d_star - result.i_x) <= 1e-9]
            assert matches, "every optimal rate is a traced rate"
            assert matches[0].d_hat_star >= result.i_y - 1e-9


def test_pareto_csv_written_sorted(tmp_path):
    inc = iq.compute_increments(quadrant_world())
    points = iq.trace_pareto(inc)
    path = tmp_path / "pareto.csv"
    iq.write_pareto_csv(path, points)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "d_hat_query,i_x_nats,i_y_nats,leaf_count,stage1_ms,stage2_ms"
    assert len(lines) == len(points) + 1
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates == sorted(rates)
    # timings zeroed by default for reproducible bytes
    assert all(line.split(",")[4] == "0" for line in lines[1:])


def point_by_point_trace(inc, eps_step):
    """The floor sweep with one pareto_point (one min-rate solve) per point."""
    total = float(inc.delta_y.sum())
    points = [iq.pareto_point(inc, 0.0)]
    while points[-1].d_hat_star < total - 1e-9:
        point = iq.pareto_point(inc, min(points[-1].d_hat_star + eps_step, total))
        if point.d_hat_star <= points[-1].d_hat_star + 1e-15:
            break
        points.append(point)
    return points


@pytest.mark.parametrize("depth_l, seed", [(4, 0), (4, 1), (5, 2)])
@pytest.mark.parametrize("eps_step", [iq.pareto.DEFAULT_EPS_STEP, 0.002])
def test_lattice_trace_equals_two_stage_trace(depth_l, seed, eps_step):
    world = random_world(np.random.default_rng(seed), depth_l, binary=seed == 1)
    inc = iq.compute_increments(world)
    assert _lattice_for(inc) is not None
    got = iq.trace_pareto(inc, eps_step=eps_step)
    want = point_by_point_trace(inc, eps_step)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.d_star, g.d_hat_star, g.d_hat_query) == (w.d_star, w.d_hat_star, w.d_hat_query)
        assert g.selection == w.selection


@pytest.mark.parametrize("depth_l, binary", [(1, False), (3, True), (5, False), (5, True)])
def test_batched_reconstruction_matches_node_by_node(depth_l, binary):
    # binary maps leave many equal table entries, so the split tie-break matters
    world = random_world(np.random.default_rng(depth_l), depth_l, binary=binary)
    inc = iq.compute_increments(world)
    lattice = _lattice_for(inc)
    attainable = np.flatnonzero(lattice.root > -1e299)
    ks = attainable[::max(1, attainable.size // 60)]
    batched = lattice.reconstruct_many(ks)
    for k, row in zip(ks, batched):
        assert np.array_equal(row, reference_reconstruct(lattice, k))
        assert np.array_equal(row, lattice.reconstruct_many([k])[0])


def test_weighted_trace_uses_the_solvers_and_matches_oracle(monkeypatch):
    """One min-rate solve per traced point (plus at most one that the
    floating-point guard discards), and the oracle's value pairs, on weighted
    i.i.d., binary (many tied rates) and zero-weight worlds."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_min_rate(*args, **kwargs)

    solve_min_rate = pareto.solve_min_rate
    monkeypatch.setattr(pareto, "solve_min_rate", counted)
    rng = np.random.default_rng(43)
    uniform = iq.compute_increments(random_world(rng, 3))
    iq.trace_pareto(uniform)
    assert calls == []  # the lattice answers uniform priors alone
    for depth_l in (1, 2, 3):
        for kind in ("iid", "binary", "zero-weight") * 3:
            inc = iq.compute_increments(random_world(
                rng, depth_l, binary=kind == "binary", uniform_prior=False,
                zero_prior=kind == "zero-weight"))
            calls.clear()
            points = iq.trace_pareto(inc)
            # a lone candidate of positive rate is depth-uniform: the lattice answers
            assert (_lattice_for(inc) is None) == (depth_l > 1)
            assert len(calls) == 0 if depth_l == 1 else len(points) <= len(calls) <= len(points) + 1
            expected = oracle_pareto_values(inc, depth_l)
            assert len(points) == len(expected)
            for p, want in zip(points, expected):
                assert p.d_star == pytest.approx(want[0], abs=1e-9)
                assert p.d_hat_star == pytest.approx(want[1], abs=1e-9)
