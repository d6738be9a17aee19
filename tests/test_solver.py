import gc
import sys
import weakref

import numpy as np
import pytest

import infoquad as iq
from infoquad import solver
from infoquad.quadtree import depth_offset
from infoquad.solver import TOL, _knapsack_ratio, _ladder, _lattice_for, _parametric_dual, _seed
from helpers import (blob_world, quadrant_world, random_world, reference_knapsack_ratio_cover,
                     reference_knapsack_ratio_pack, reference_pack_lp_objective,
                     reference_reconstruct, reference_seed_cover, reference_seed_pack)

LN2 = 0.6931471805599453
QUAD_I_XY = 0.37677016125643675
QUAD_RATE = 1.7328679513998633


@pytest.fixture(scope="module")
def quad_inc():
    return iq.compute_increments(quadrant_world())


def test_min_rate_zero_floor_returns_root(quad_inc):
    result = iq.solve_min_rate(quad_inc, 0.0)
    assert result.status == "optimal"
    assert result.objective == 0.0
    assert result.selection.num_selected == 0


def test_min_rate_full_relevance(quad_inc):
    result = iq.solve_min_rate(quad_inc, QUAD_I_XY)
    assert result.status == "optimal"
    assert result.selection.z.tolist() == [1, 1, 0, 0, 0]
    assert result.objective == pytest.approx(QUAD_RATE, abs=1e-9)
    oracle = iq.brute_force_solve(quad_inc, "min-rate", QUAD_I_XY)
    assert result.objective == pytest.approx(oracle.objective, abs=1e-9)


def test_min_rate_infeasible_above_total(quad_inc):
    result = iq.solve_min_rate(quad_inc, QUAD_I_XY + 0.1)
    assert result.status == "infeasible"


def test_min_rate_rejects_negative(quad_inc):
    for bad in (-0.5, float("nan")):
        for solve in (iq.solve_min_rate, iq.pareto_point, iq.solve_lp_relaxation,
                      lambda inc, d: iq.brute_force_solve(inc, "min-rate", d)):
            with pytest.raises(ValueError, match="negative"):
                solve(quad_inc, bad)


def test_max_relevance_zero_budget(quad_inc):
    result = iq.solve_max_relevance(quad_inc, 0.0)
    assert result.objective == 0.0
    assert result.selection.num_selected == 0


def test_max_relevance_unbounded_budget_all_positive():
    rng = np.random.default_rng(20)
    world = random_world(rng, 2)  # continuous intensities: all delta_y > 0
    inc = iq.compute_increments(world)
    assert np.all(inc.delta_y > 0)
    result = iq.solve_max_relevance(inc, float(inc.delta_x.sum()))
    assert result.selection.num_selected == inc.num_candidates
    assert result.objective == pytest.approx(iq.mutual_info_xy(world), abs=1e-9)


def test_max_relevance_tight_budget(quad_inc):
    # root expansion alone costs ln 4 > 1.0, so only the root tree fits
    result = iq.solve_max_relevance(quad_inc, 1.0)
    assert result.objective == 0.0
    assert result.selection.num_selected == 0


def test_max_relevance_rejects_negative(quad_inc):
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="negative"):
            iq.solve_max_relevance(quad_inc, bad)
        with pytest.raises(ValueError, match="negative"):
            iq.brute_force_solve(quad_inc, "max-relevance", bad)


def test_weighted_rate_tie_prefers_the_more_relevant_tree():
    # every quadrant holds a permutation of one prior, so expanding any of
    # them costs the same rate; quadrants 0 and 1 add relevance, 0 the more
    weights = np.array([4, 3, 2, 1, 3, 4, 1, 2, 2, 1, 4, 3, 1, 2, 3, 4], dtype=float)
    p1 = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4] + [0.5] * 8)
    world = iq.world_from_cells(2, np.column_stack([1.0 - p1, p1]), weights / weights.sum())
    inc = iq.compute_increments(world)
    assert _lattice_for(inc) is None
    assert inc.delta_x[1] == pytest.approx(inc.delta_x[2], abs=1e-12)
    assert inc.delta_y[1] > inc.delta_y[2] + 1e-3
    d_hat = float(inc.delta_y[0] + inc.delta_y[2])
    result = iq.solve_min_rate(inc, d_hat)
    assert result.nodes_explored > 0
    assert result.selection.z.tolist() == [1, 1, 0, 0, 0]
    assert result.selection == iq.brute_force_solve(inc, "min-rate", d_hat).selection


def test_enumeration_counts_and_cap():
    assert sum(1 for _ in iq.enumerate_valid_selections(1)) == 2
    assert sum(1 for _ in iq.enumerate_valid_selections(2)) == 17
    assert sum(1 for _ in iq.enumerate_valid_selections(3)) == 83522
    with pytest.raises(ValueError, match="blowup"):
        next(iq.enumerate_valid_selections(4))


def test_brute_force_caps_depth():
    world = random_world(np.random.default_rng(0), 1)
    inc = iq.compute_increments(world)
    assert iq.brute_force_solve(inc, "min-rate", 0.0).selection.num_selected == 0
    with pytest.raises(ValueError, match="unknown problem"):
        iq.brute_force_solve(inc, "nonsense", 0.0)


def test_knapsack_ratio_matches_the_cover_and_pack_references():
    """The covering-form ratio equals both direct forms exactly, with zero
    entries, ratios tied after rounding, and bounds at, between and above the
    greedy's partial sums."""
    rng = np.random.default_rng(28)
    for trial in range(2000):
        n = int(rng.integers(1, 10))
        a, b = rng.random(n), rng.random(n)
        if trial % 2:  # few distinct values: tied and rounding-tied ratios
            a, b = rng.integers(0, 4, n) * 0.1, rng.integers(0, 4, n) * 0.3
        a[rng.random(n) < 0.2] = 0.0
        b[rng.random(n) < 0.2] = 0.0
        needs = [0.0, *(f * b.sum() for f in (0.3, 0.7, 1.0, 1.5)), b.sum() + 1e-12,
                 float(b[rng.random(n) < 0.5].sum())]
        caps = [0.0, *(f * a.sum() for f in (0.3, 0.7, 1.0, 1.5)), a.sum() - 1e-12,
                float(a[rng.random(n) < 0.5].sum())]
        for need, cap in zip(needs, caps):
            assert _knapsack_ratio(a, b, need) == reference_knapsack_ratio_cover(a, b, need)
            assert _knapsack_ratio(-b, -a, -cap) == reference_knapsack_ratio_pack(a, b, cap)


def test_solver_matches_oracle_on_random_worlds():
    rng = np.random.default_rng(21)
    for trial in range(40):
        depth_l = int(rng.integers(1, 4))
        world = random_world(
            rng, depth_l,
            binary=bool(rng.integers(0, 2)),
            uniform_prior=bool(rng.integers(0, 2)),
            zero_prior=bool(rng.integers(0, 2)),
        )
        inc = iq.compute_increments(world)
        total_y = float(inc.delta_y.sum())
        total_x = float(inc.delta_x.sum())
        for frac in (0.0, 0.4, 0.8, 1.0):
            mine = iq.solve_min_rate(inc, frac * total_y)
            oracle = iq.brute_force_solve(inc, "min-rate", frac * total_y)
            assert mine.status == oracle.status == "optimal"
            assert mine.objective == pytest.approx(oracle.objective, abs=1e-9)
            assert iq.is_valid_selection(mine.selection, depth_l)
            assert mine.i_y >= frac * total_y - 1e-9

            mine = iq.solve_max_relevance(inc, frac * total_x)
            oracle = iq.brute_force_solve(inc, "max-relevance", frac * total_x)
            assert mine.objective == pytest.approx(oracle.objective, abs=1e-9)
            assert iq.is_valid_selection(mine.selection, depth_l)


def test_both_solver_paths_are_exercised():
    rng = np.random.default_rng(22)
    uniform = iq.compute_increments(random_world(rng, 2, uniform_prior=True))
    skewed = iq.compute_increments(random_world(rng, 2, uniform_prior=False))
    assert _lattice_for(uniform) is not None
    assert _lattice_for(skewed) is None


def test_lattice_cache_lives_beside_the_increments():
    # one increments object serves a small budget, then a floor, then a
    # larger budget, then the frontier: its lattice widens its tables on
    # each request they cannot serve, and every answer is a fresh object's
    world = random_world(np.random.default_rng(27), 3)
    inc = iq.compute_increments(world)
    total_x, total_y = float(inc.delta_x.sum()), float(inc.delta_y.sum())
    calls = [
        lambda inc: iq.solve_max_relevance(inc, 0.4 * total_x).selection.z,
        lambda inc: iq.solve_min_rate(inc, 0.95 * total_y).selection.z,
        lambda inc: iq.solve_max_relevance(inc, 0.8 * total_x).selection.z,
        lambda inc: [p.selection.z for p in iq.trace_pareto(inc)],
    ]
    for call in calls:
        assert np.array_equal(call(inc), call(iq.compute_increments(world)))
    assert set(vars(inc)) == {"delta_x", "delta_y"}
    lattice = _lattice_for(inc)
    assert lattice is not None and _lattice_for(inc) is lattice
    assert lattice.k_cap == lattice.top
    ref = weakref.ref(lattice)
    del inc, lattice
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("merge_elements", [1, 50, 1 << 16])
def test_blocked_maxplus_is_the_direct_merge(monkeypatch, merge_elements):
    monkeypatch.setattr(solver, "_MERGE_ELEMENTS", merge_elements)
    rng = np.random.default_rng(31)
    for rows, p, q in ((1, 1, 1), (3, 7, 5), (2, 13, 13), (5, 1, 9)):
        U, V = rng.random((rows, p)), rng.random((rows, q))
        U[rng.random(U.shape) < 0.3] = solver._NEG
        V[:, 1::3] = solver._NEG
        direct = np.full((rows, p + q - 1), solver._NEG)
        for i in range(p):
            for j in range(q):
                direct[:, i + j] = np.maximum(direct[:, i + j], U[:, i] + V[:, j])
        assert np.array_equal(solver._maxplus(U, V), direct)
        for width in (1, q, p + q - 2):
            assert np.array_equal(solver._maxplus(U, V, width), direct[:, :width])


def _quantized_world(rng, depth_l):
    p1 = np.rint(4 * rng.random(4 ** depth_l)) / 4
    return iq.world_from_cells(depth_l, np.column_stack([1.0 - p1, p1]))


def test_lattice_one_shot_solves_match_the_full_root_table():
    # every solve runs on fresh increments, so it tabulates only what its
    # floor or budget needs; the reference reads the whole root table and
    # reconstructs one node at a time
    fallbacks = 0
    for depth_l in (2, 3, 4, 5):
        rng = np.random.default_rng(40 + depth_l)
        for world in (random_world(rng, depth_l, binary=True), _quantized_world(rng, depth_l),
                      random_world(rng, depth_l)):
            inc = iq.compute_increments(world)
            lattice = _lattice_for(inc)
            root = lattice.root
            total_x, total_y = float(inc.delta_x.sum()), float(inc.delta_y.sum())
            # total_y + TOL is a floor at the feasibility edge
            for d_hat in [f * total_y for f in (0.0, 0.05, 0.3, 0.6, 0.85, 0.99, 1.0)] + [
                    total_y + TOL]:
                hits = np.flatnonzero(root >= d_hat - TOL)
                k = 0 if d_hat == 0 else int(hits[0]) if hits.size else int(np.argmax(root))
                fallbacks += d_hat > 0 and not hits.size
                mine = iq.solve_min_rate(iq.compute_increments(world), d_hat)
                assert np.array_equal(mine.selection.z, reference_reconstruct(lattice, k))
            root_nats = lattice.root_cost * lattice.unit
            for budget in [0.0, 0.5 * root_nats, root_nats] + [
                    f * total_x for f in (0.1, 0.25, 0.5, 0.9, 1.0, 2.0)]:
                k_cap = min(int((budget + TOL) / lattice.unit + 1e-9), root.size - 1)
                feasible = root[:k_cap + 1]
                k = int(np.flatnonzero(feasible >= feasible.max() - TOL)[0])
                fresh = iq.compute_increments(world)
                mine = iq.solve_max_relevance(fresh, budget)
                assert np.array_equal(mine.selection.z, reference_reconstruct(lattice, k))
                if k_cap < lattice.root_cost:
                    # only the empty tree fits, and no table is built
                    assert k == 0 and _lattice_for(fresh).k_cap == -1
    assert fallbacks  # some floor met no class and took the root's argmax


@pytest.mark.parametrize("depth_l", [1, 2, 3, 4, 5])
def test_lattice_half_levels_are_pair_merges(depth_l):
    world = random_world(np.random.default_rng(70 + depth_l), depth_l)
    full = _lattice_for(iq.compute_increments(world))
    assert np.array_equal(full.root, full.L[0][0])
    top, kds = full.top, [4 ** (depth_l - 1 - d) for d in range(depth_l)]
    for k_cap in (top, full.root_cost + (top - full.root_cost) // 3, (full.root_cost + top) // 2):
        lattice = full if k_cap == top else _lattice_for(iq.compute_increments(world))
        lattice.tabulate(k_cap)
        L = lattice.L
        assert len(L) == 2 * depth_l + 1
        assert np.array_equal(L[-1], np.zeros((4 ** depth_l, 1)))
        for h in range(2 * depth_l - 1, -1 if k_cap == top else 0, -1):
            d = h // 2
            kd = kds[d]
            width = min((depth_l - d) * kd + 1, k_cap - sum(kds[:d]) + 1)
            assert L[h].shape[0] == 2 ** h
            # a clipped table is its full table's prefix, bit for bit
            assert np.array_equal(L[h], full.L[h][:, :L[h].shape[1]])
            if width <= kd:
                assert np.array_equal(L[h], np.zeros((2 ** h, 1)))
                continue
            merge = solver._maxplus(L[h + 1][0::2], L[h + 1][1::2], width - kd)
            if h % 2:
                assert np.array_equal(L[h], merge)
                continue
            b = lattice.b[depth_offset(d):depth_offset(d + 1)]
            assert np.all(L[h][:, 0] == 0.0) and np.all(L[h][:, 1:kd] == solver._NEG)
            assert np.array_equal(L[h][:, kd:], b[:, None] + merge)


@pytest.mark.parametrize("depth_l", [1, 2, 3, 4])
def test_lattice_root_queries_read_the_root_table(depth_l):
    rng = np.random.default_rng(60 + depth_l)
    lattice = _lattice_for(iq.compute_increments(random_world(rng, depth_l)))
    root = lattice.root
    values = np.unique(root)
    values = np.concatenate([values, np.nextafter(values, np.inf), [-TOL, 0.0]])
    for k_cap in range(0, root.size, max(1, root.size // 24)):
        feasible = root[:k_cap + 1]
        assert lattice.best_value(k_cap) == feasible.max()
        for value in values:
            hits = np.flatnonzero(feasible >= value)
            assert lattice.first_class(value, k_cap) == (int(hits[0]) if hits.size else None)
    assert lattice.first_class(np.nextafter(root.max(), np.inf), lattice.top) is None
    assert lattice.first_class(lattice.best_value(lattice.top), lattice.top) == np.argmax(root)


def test_lattice_max_relevance_takes_the_cheapest_tied_class():
    # a dearer class beats the oracle's tree only by summation-order dust
    inc = iq.compute_increments(random_world(np.random.default_rng(6), 3, binary=True))
    budget = 0.5 * float(inc.delta_x.sum())
    mine = iq.solve_max_relevance(inc, budget)
    oracle = iq.brute_force_solve(inc, "max-relevance", budget)
    assert (mine.i_x, mine.i_y) == (oracle.i_x, oracle.i_y)


def test_min_rate_objective_monotone_in_floor():
    rng = np.random.default_rng(23)
    for uniform in (True, False):
        world = random_world(rng, 3, uniform_prior=uniform)
        inc = iq.compute_increments(world)
        total = float(inc.delta_y.sum())
        objectives = [
            iq.solve_min_rate(inc, f * total).objective for f in np.linspace(0, 1, 12)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_max_relevance_objective_monotone_in_budget():
    rng = np.random.default_rng(24)
    world = random_world(rng, 2, uniform_prior=False)
    inc = iq.compute_increments(world)
    total = float(inc.delta_x.sum())
    objectives = [
        iq.solve_max_relevance(inc, f * total).objective for f in np.linspace(0, 1, 12)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(objectives, objectives[1:]))


def test_formulation_duality():
    rng = np.random.default_rng(25)
    for _ in range(15):
        world = random_world(rng, 2, uniform_prior=bool(rng.integers(0, 2)))
        inc = iq.compute_increments(world)
        total = float(inc.delta_y.sum())
        for frac in (0.2, 0.6, 0.9):
            d_hat = frac * total
            rate = iq.solve_min_rate(inc, d_hat).i_x
            back = iq.solve_max_relevance(inc, rate)
            assert back.i_y >= d_hat - 1e-9


def test_node_limit_raises_distinct_error():
    rng = np.random.default_rng(26)
    world = random_world(rng, 3, uniform_prior=False)
    inc = iq.compute_increments(world)
    total = float(inc.delta_y.sum())
    with pytest.raises(iq.ResourceLimitExceeded):
        iq.solve_min_rate(inc, 0.61803 * total, node_limit=4)


def test_solve_result_information_consistency(quad_inc):
    result = iq.solve_min_rate(quad_inc, 0.5 * QUAD_I_XY)
    i_x, i_y = iq.tree_information(result.selection, quad_inc)
    assert result.i_x == i_x and result.i_y == i_y
    assert result.nodes_explored >= 0
    assert result.wall_time_ms >= 0.0


def test_depth_zero_world():
    world = iq.world_from_cells(0, np.array([[0.5, 0.5]]))
    inc = iq.compute_increments(world)
    assert inc.num_candidates == 0
    result = iq.solve_min_rate(inc, 0.0)
    assert result.status == "optimal" and result.objective == 0.0
    assert iq.solve_min_rate(inc, 0.5).status == "infeasible"
    assert iq.solve_max_relevance(inc, 1.0).objective == 0.0


@pytest.mark.parametrize("uniform_prior", [True, False], ids=["uniform", "weighted"])
@pytest.mark.parametrize("depth_l", [1, 2, 3, 4, 5])
def test_parametric_dual_values_are_lp_optima(depth_l, uniform_prior):
    """At its Newton multiplier the covering dual equals the relaxed min-rate
    optimum and the packing dual the relaxed max-relevance optimum."""
    rng = np.random.default_rng(90 + 2 * depth_l + uniform_prior)
    for _ in range(2):
        world = random_world(rng, depth_l, uniform_prior=uniform_prior,
                             zero_prior=not uniform_prior)
        inc = iq.compute_increments(world)
        a, b = inc.delta_x, inc.delta_y
        total_x, total_y = float(a.sum()), float(b.sum())
        for frac in (0.0, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0):
            d_hat = frac * total_y
            lam, cover, _, _ = _parametric_dual(a, b, d_hat, depth_l)
            assert lam >= 0.0
            assert cover == pytest.approx(iq.solve_lp_relaxation(inc, d_hat)[1], abs=1e-9)
            budget = frac * total_x
            lam, neg_pack, _, _ = _parametric_dual(-b, -a, -budget, depth_l)
            assert lam >= 0.0
            assert -neg_pack == pytest.approx(reference_pack_lp_objective(inc, budget), abs=1e-9)


def test_ladder_root_bound_never_beats_the_exact_optimum():
    rng = np.random.default_rng(91)
    for trial in range(16):
        depth_l = 1 + trial % 3
        inc = iq.compute_increments(random_world(
            rng, depth_l, uniform_prior=trial % 4 == 0, zero_prior=trial % 4 == 1))
        a, b = inc.delta_x, inc.delta_y
        total_x, total_y = float(a.sum()), float(b.sum())
        for frac in (0.1, 0.4, 0.7, 0.95, 1.0):
            d_hat = frac * total_y
            if d_hat > iq.TOL:
                exact = iq.brute_force_solve(inc, "min-rate", d_hat).objective
                assert _parametric_dual(a, b, d_hat - iq.TOL, depth_l)[1] <= exact + 1e-12
            budget = frac * total_x
            exact = iq.brute_force_solve(inc, "max-relevance", budget).objective
            assert -_parametric_dual(-b, -a, -(budget + iq.TOL), depth_l)[1] >= exact - 1e-12


def test_search_leaves_the_recursion_limit_alone(monkeypatch):
    """A depth-6 search decides more candidates on one path than the default
    recursion limit allows frames, and runs to its node limit without
    touching that limit."""
    def refuse(limit):
        raise AssertionError(f"the search set the recursion limit to {limit}")

    rng = np.random.default_rng(93)
    grid = rng.integers(0, 256, (64, 64)) / 255
    world = iq.world_from_grid(grid, rng.uniform(0.2, 1.0, (64, 64)))
    inc = iq.compute_increments(world)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    with pytest.raises(iq.ResourceLimitExceeded):
        iq.solve_min_rate(inc, 0.9 * iq.mutual_info_xy(world), node_limit=20_000)


def test_seed_matches_the_cover_and_pack_references():
    """The covering-form greedy seed equals both direct-form seeds exactly, on
    random vectors with zero entries and tied ratios and on weighted worlds
    with and without zero-weight cells."""
    rng = np.random.default_rng(94)
    cases = []
    for trial in range(800):
        n = int(rng.integers(1, 30))
        a, b = rng.random(n), rng.random(n)
        if trial % 2:  # few distinct values: tied and rounding-tied ratios
            a, b = rng.integers(0, 4, n) * 0.1, rng.integers(0, 4, n) * 0.3
        a[rng.random(n) < 0.2] = 0.0
        b[rng.random(n) < 0.2] = 0.0
        cases.append((a, b))
    for depth_l in (1, 2, 3, 4):
        for zero_prior in (False, True):
            for _ in range(4):
                inc = iq.compute_increments(random_world(
                    rng, depth_l, uniform_prior=False, zero_prior=zero_prior))
                cases.append((inc.delta_x, inc.delta_y))
    for a, b in cases:
        needs = [0.0, *(f * b.sum() for f in (0.3, 0.7, 0.9, 1.0)), b.sum() - iq.TOL,
                 float(b[rng.random(b.size) < 0.5].sum())]
        caps = [0.0, *(f * a.sum() for f in (0.05, 0.3, 0.7, 1.0)), a.sum() + iq.TOL,
                float(a[rng.random(a.size) < 0.5].sum())]
        for need, cap in zip(needs, caps):
            assert np.array_equal(_seed(a, b, need), reference_seed_cover(a, b, need))
            assert np.array_equal(_seed(-b, -a, -cap), reference_seed_pack(b, a, cap))


def test_search_skips_zero_mass_subtrees():
    # trees that differ only inside the weightless quadrant tie exactly
    world = blob_world(np.random.default_rng(1), 4, zero_quadrant=True)
    inc = iq.compute_increments(world)
    floor = 0.8 * iq.mutual_info_xy(world)
    result = iq.solve_min_rate(inc, floor, node_limit=20_000)
    assert result.i_y >= floor - 1e-9
    assert result.selection.z[1] == 0  # the quadrant's node (1, 0) stays unsplit


def test_search_effort_does_not_grow():
    """Summed search nodes over fixed depth-4 weighted worlds at the
    benchmark's floor and budget fractions; the bounds are the sums the
    covering search with one greedy seed explored when this test was made."""
    rng = np.random.default_rng(41)
    min_rate_nodes = max_relevance_nodes = 0
    for k in range(24):
        world = blob_world(rng, 4, zero_weight=k % 4 == 3)
        inc = iq.compute_increments(world)
        assert _lattice_for(inc) is None
        info = iq.mutual_info_xy(world)
        min_rate_nodes += iq.solve_min_rate(
            inc, (0.6, 0.7, 0.75, 0.8, 0.85)[k % 5] * info).nodes_explored
        max_relevance_nodes += iq.solve_max_relevance(
            inc, (5.0, 7.5, 10.0, 30.0, 60.0)[k % 5] * info).nodes_explored
    assert min_rate_nodes <= 15_532
    assert max_relevance_nodes <= 13_602


def test_certified_seed_builds_no_ladder(monkeypatch):
    """A solve whose seed the dual optimum certifies builds no ladder; a
    solve that searches builds exactly one, on the worlds and fractions of
    test_search_effort_does_not_grow."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _ladder(*args)

    monkeypatch.setattr(solver, "_ladder", counted)
    rng = np.random.default_rng(41)
    certified = 0
    for k in range(24):
        world = blob_world(rng, 4, zero_weight=k % 4 == 3)
        inc = iq.compute_increments(world)
        info = iq.mutual_info_xy(world)
        for solve, frac in ((iq.solve_min_rate, (0.6, 0.7, 0.75, 0.8, 0.85)[k % 5]),
                            (iq.solve_max_relevance, (5.0, 7.5, 10.0, 30.0, 60.0)[k % 5])):
            calls.clear()
            nodes = solve(inc, frac * info).nodes_explored
            assert len(calls) == (nodes > 0)
            certified += nodes == 0
    assert certified > 0
