import numpy as np
import pytest

import infoquad as iq
from infoquad.relaxation import FractionalSelection
from infoquad.solver import _parametric_dual
from helpers import (
    blob_world,
    quadrant_world,
    random_monotone_fractional,
    random_world,
    reference_lp_objective,
)


@pytest.fixture(scope="module")
def quad_inc():
    return iq.compute_increments(quadrant_world())


def test_lp_zero_floor_is_all_zeros(quad_inc):
    frac, objective = iq.solve_lp_relaxation(quad_inc, 0.0)
    assert objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(frac.values, 0.0, atol=1e-9)


def test_lp_full_floor_is_all_ones():
    rng = np.random.default_rng(30)
    world = random_world(rng, 2)  # continuous: every delta_y > 0
    inc = iq.compute_increments(world)
    assert np.all(inc.delta_y > 0)
    frac, objective = iq.solve_lp_relaxation(inc, float(inc.delta_y.sum()))
    assert np.allclose(frac.values, 1.0, atol=1e-7)
    assert objective == pytest.approx(float(inc.delta_x.sum()), abs=1e-7)


def test_lp_rejects_infeasible_floor(quad_inc):
    with pytest.raises(ValueError, match="infeasible"):
        iq.solve_lp_relaxation(quad_inc, float(quad_inc.delta_y.sum()) + 0.1)


def test_lp_lower_bounds_ilp():
    rng = np.random.default_rng(31)
    for _ in range(30):
        depth_l = int(rng.integers(1, 3))
        world = random_world(rng, depth_l, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        total = float(inc.delta_y.sum())
        for frac_level in (0.25, 0.5, 0.9):
            d_hat = frac_level * total
            _, lp_obj = iq.solve_lp_relaxation(inc, d_hat)
            ilp = iq.brute_force_solve(inc, "min-rate", d_hat)
            assert lp_obj <= ilp.objective + 1e-9


def test_round_selection_examples():
    frac = FractionalSelection(np.array([0.7, 0.4, 0.4, 0.4, 0.4]))
    assert iq.round_selection(frac, 0.5).z.tolist() == [1, 0, 0, 0, 0]
    # integral vectors are fixed points for any threshold
    ones = FractionalSelection(np.ones(5))
    zeros = FractionalSelection(np.zeros(5))
    for delta in (0.01, 0.5, 1.0):
        assert iq.round_selection(ones, delta).z.tolist() == [1] * 5
        assert iq.round_selection(zeros, delta).z.tolist() == [0] * 5


def test_round_selection_threshold_is_inclusive():
    frac = FractionalSelection(np.array([0.5, 0.5, 0.5, 0.5, 0.5]))
    assert iq.round_selection(frac, 0.5).z.tolist() == [1] * 5


def test_round_selection_rejects_bad_delta(quad_inc):
    frac = FractionalSelection(np.zeros(5))
    for delta in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="delta"):
            iq.round_selection(frac, delta)


def test_fractional_selection_validation():
    with pytest.raises(ValueError, match="precedence"):
        FractionalSelection(np.array([0.2, 0.8, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FractionalSelection(np.array([1.2, 0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FractionalSelection(np.array([np.nan, 0.0, 0.0, 0.0, 0.0]))
    for shape in ((1, 5), (5, 1), (2, 5)):
        with pytest.raises(ValueError, match="one-dimensional"):
            FractionalSelection(np.zeros(shape))
    with pytest.raises(ValueError, match="not a full candidate count"):
        FractionalSelection(np.zeros(4))


def _lower_hull(points):
    """The vertices of the lower convex hull of (relevance, rate) points
    given in ascending relevance: Andrew's monotone chain."""
    hull = []
    for p in points:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  <= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    return hull


@pytest.mark.parametrize("make_world,vertices", [
    (lambda: random_world(np.random.default_rng(1), 4), 15),
    (lambda: random_world(np.random.default_rng(3), 4), 8),
    (lambda: random_world(np.random.default_rng(4), 4, binary=True), 2),
    (lambda: blob_world(np.random.default_rng(3), 4), 61),
    (lambda: random_world(np.random.default_rng(2), 4, uniform_prior=False), 13),
], ids=["uniform-1", "uniform-3", "uniform-binary-4", "weighted-blob-3", "weighted-2"])
def test_lp_value_is_the_lower_hull_of_the_exact_frontier(make_world, vertices):
    # the tree-validity polytope is integral, so the relaxed min-rate value at
    # any floor is the lower convex hull of the exact frontier: exact at its
    # vertices and linear between them, and never above a frontier point
    inc = iq.compute_increments(make_world())
    points = [(p.d_hat_star, p.d_star) for p in iq.trace_pareto(inc)]
    hull = _lower_hull(points)
    assert len(hull) == vertices
    assert hull[0] == (0.0, 0.0) and hull[-1] == points[-1]
    checks = hull + [((y0 + y1) / 2, (x0 + x1) / 2) for (y0, x0), (y1, x1) in zip(hull, hull[1:])]
    for d_hat, rate in checks:
        assert iq.solve_lp_relaxation(inc, d_hat)[1] == pytest.approx(rate, abs=1e-9)
    for d_hat, rate in points:
        assert iq.solve_lp_relaxation(inc, d_hat)[1] <= rate + 1e-9


@pytest.mark.parametrize("kind", ["uniform", "blob", "iid"])
@pytest.mark.parametrize("depth_l", [2, 3, 4, 5])
def test_rounding_returns_a_dual_bracket(kind, depth_l):
    """The LP point is lo + theta (hi - lo) for _parametric_dual's nested
    brackets lo and hi, so thresholding at delta returns hi when theta >=
    delta and lo otherwise: rounding only reaches vertices of the lower
    convex hull of the frontier."""
    rng = np.random.default_rng(110 + depth_l)
    world = (blob_world(rng, depth_l) if kind == "blob"
             else random_world(rng, depth_l, uniform_prior=kind == "uniform"))
    inc = iq.compute_increments(world)
    total = float(inc.delta_y.sum())
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        d_hat = frac * total
        _, _, lo, hi = _parametric_dual(inc.delta_x, inc.delta_y, d_hat, depth_l)
        assert not (lo & ~hi).any()
        z = iq.solve_lp_relaxation(inc, d_hat)[0].z
        assert np.all(z[lo] == 1.0) and np.all(z[~hi] == 0.0)
        thetas = np.unique(z[hi & ~lo])
        assert thetas.size <= 1
        for delta in (0.25, 0.5, 0.75):
            result, _ = iq.relax_and_round(inc, d_hat, delta)
            take_hi = thetas.size and thetas[0] >= delta
            assert np.array_equal(result.selection.z, (hi if take_hi else lo).astype(np.uint8))


def test_rounding_always_valid_property():
    rng = np.random.default_rng(32)
    for _ in range(300):
        depth_l = int(rng.integers(1, 4))
        frac = FractionalSelection(random_monotone_fractional(rng, depth_l))
        for delta in (0.01, 0.25, 0.5, 0.75, 1.0):
            rounded = iq.round_selection(frac, delta)
            assert iq.is_valid_selection(rounded, depth_l)


def test_rounding_monotone_in_delta():
    rng = np.random.default_rng(33)
    for _ in range(50):
        depth_l = int(rng.integers(1, 4))
        frac = FractionalSelection(random_monotone_fractional(rng, depth_l))
        coarse = iq.round_selection(frac, 0.9).z
        fine = iq.round_selection(frac, 1e-9).z
        assert np.all(coarse <= fine)


def test_relax_and_round_zero_floor(quad_inc):
    result, met = iq.relax_and_round(quad_inc, 0.0)
    assert met is True
    assert result.selection.num_selected == 0
    assert result.objective == 0.0


def test_relax_and_round_integral_vertices_match_exact():
    # random floors bind the relevance row and come out fractional, so check
    # the floors that force integral vertices: zero and the full total
    rng = np.random.default_rng(34)
    hits = 0
    for _ in range(12):
        depth_l = int(rng.integers(1, 3))
        world = random_world(rng, depth_l, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        for d_hat in (0.0, float(inc.delta_y.sum())):
            frac, _ = iq.solve_lp_relaxation(inc, d_hat)
            if np.all(np.abs(frac.values - np.round(frac.values)) < 1e-9):
                hits += 1
                exact = iq.solve_min_rate(inc, d_hat)
                result, met = iq.relax_and_round(inc, d_hat, 0.5)
                assert result.objective == pytest.approx(exact.objective, abs=1e-9)
                assert met is True
    assert hits > 0  # integral vertices do occur at these floors


def test_relax_and_round_integral_vertex_quadrant_world(quad_inc):
    # at the full-relevance floor only [1,1,0,0,0] covers the relevant mass
    d_hat = float(quad_inc.delta_y.sum())
    frac, lp_obj = iq.solve_lp_relaxation(quad_inc, d_hat)
    rounded = iq.round_selection(frac, 0.5)
    assert rounded.z.tolist() == [1, 1, 0, 0, 0]
    exact = iq.solve_min_rate(quad_inc, d_hat)
    assert lp_obj == pytest.approx(exact.objective, abs=1e-7)
    result, met = iq.relax_and_round(quad_inc, d_hat, 0.5)
    assert met is True
    assert result.objective == pytest.approx(exact.objective, abs=1e-9)


def test_relax_and_round_flag_matches_recomputation():
    rng = np.random.default_rng(35)
    fractional_seen = False
    unmet_seen = False
    for _ in range(60):
        depth_l = int(rng.integers(1, 3))
        world = random_world(rng, depth_l, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        d_hat = rng.random() * float(inc.delta_y.sum())
        frac, _ = iq.solve_lp_relaxation(inc, d_hat)
        if np.any(np.abs(frac.values - np.round(frac.values)) > 1e-6):
            fractional_seen = True
        result, met = iq.relax_and_round(inc, d_hat, 0.5)
        _, i_y = iq.tree_information(result.selection, inc)
        assert met == (i_y >= d_hat - 1e-9)
        if not met:
            unmet_seen = True
    assert fractional_seen  # fractional vertices do occur
    assert unmet_seen  # and rounding does sometimes miss the floor


def test_lp_solution_respects_box_and_precedence():
    rng = np.random.default_rng(36)
    world = random_world(rng, 3, uniform_prior=False)
    inc = iq.compute_increments(world)
    frac, _ = iq.solve_lp_relaxation(inc, 0.7 * float(inc.delta_y.sum()))
    values = frac.values
    assert np.all(values >= 0.0) and np.all(values <= 1.0)
    from infoquad.quadtree import depth_offset

    for d in range(1, 3):
        parents = values[depth_offset(d - 1):depth_offset(d)]
        children = values[depth_offset(d):depth_offset(d + 1)]
        assert np.all(children <= np.repeat(parents, 4) + 1e-9)


@pytest.mark.parametrize("uniform_prior", [True, False], ids=["uniform", "weighted"])
@pytest.mark.parametrize("depth_l", [1, 2, 3, 4, 5])
def test_lp_matches_reference_solver(depth_l, uniform_prior):
    rng = np.random.default_rng(37 + 2 * depth_l + uniform_prior)
    for _ in range(3):
        world = random_world(rng, depth_l, uniform_prior=uniform_prior,
                             zero_prior=not uniform_prior)
        inc = iq.compute_increments(world)
        total = float(inc.delta_y.sum())
        for d_hat in (0.0, total, *(f * total for f in (0.05, 0.3, 0.5, 0.77, 0.999))):
            frac, objective = iq.solve_lp_relaxation(inc, d_hat)
            assert objective == pytest.approx(reference_lp_objective(inc, d_hat), abs=1e-9)
            assert float(inc.delta_y @ frac.z) >= d_hat - 1e-9
            assert float(inc.delta_x @ frac.z) == pytest.approx(objective, abs=1e-12)
