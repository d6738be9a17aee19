import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import infoquad as iq
from infoquad import solver
from infoquad.quadtree import depth_offset
from infoquad.solver import TOL, _lattice_for, _parametric_dual, _seed
from helpers import (blob_world, quadrant_world, random_world, reference_first_split,
                     reference_ilp, reference_list_objective, reference_pack_lp_objective,
                     reference_pareto_values, reference_reconstruct, reference_seed_cover,
                     reference_seed_pack)

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906
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


def test_min_rate_tie_takes_the_more_relevant_tree(quad_inc):
    # the root's split alone, at rate ln 4, is the cheapest tree meeting 0.1
    result = iq.solve_min_rate(quad_inc, 0.1)
    assert result.i_x == pytest.approx(LN4, abs=1e-9)
    assert result.i_y == pytest.approx(0.20348336611645043, abs=1e-9)
    # a uniform prior gives every quadrant's split the same rate; quadrants 0
    # and 1 add relevance, 0 the more, so both trees meet the floor at the
    # optimal rate and the lattice must return the more relevant one
    p1 = np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4] + [0.5] * 8)
    inc = iq.compute_increments(iq.world_from_cells(2, np.column_stack([1.0 - p1, p1])))
    assert _lattice_for(inc) is not None
    assert inc.delta_x[1] == inc.delta_x[2]
    assert inc.delta_y[1] > inc.delta_y[2] + 1e-3
    d_hat = float(inc.delta_y[0] + inc.delta_y[2])
    result = iq.solve_min_rate(inc, d_hat)
    assert result.selection.z.tolist() == [1, 1, 0, 0, 0]
    assert result.selection == iq.brute_force_solve(inc, "min-rate", d_hat).selection


def test_min_rate_rejects_negative(quad_inc):
    for bad in (-0.5, float("nan")):
        for solve in (iq.solve_min_rate, iq.solve_lp_relaxation,
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


@pytest.mark.parametrize("call,message", [
    (lambda: list(iq.enumerate_valid_selections(-1)), r"^negative depth_l: -1$"),
    (lambda: list(iq.enumerate_valid_selections(4)), r"^enumeration capped at depth 3: depth 4 has "),
    (lambda: iq.brute_force_solve(iq.compute_increments(random_world(np.random.default_rng(0), 4)),
                                  "min-rate", 0.0),
     r"^brute force capped at depth 3 \(combinatorial blowup\)$"),
], ids=["enumerate-negative", "enumerate-deep", "brute-force-deep"])
def test_solver_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_depth_zero_enumeration_and_oracle():
    assert list(iq.enumerate_valid_selections(0)) == [iq.TreeSelection(np.zeros(0, np.uint8))]
    inc = iq.compute_increments(iq.world_from_cells(0, np.array([[0.25, 0.75]])))
    result = iq.brute_force_solve(inc, "max-relevance", 1.0)
    assert result.status == "optimal" and result.selection.z.size == 0
    assert result.objective == 0.0


@pytest.mark.parametrize("uniform_prior", [True, False], ids=["uniform", "weighted"])
@pytest.mark.parametrize("depth_l", [0, 1, 2, 3])
def test_infeasible_floor_gives_the_same_result_from_solver_and_oracle(depth_l, uniform_prior):
    inc = iq.compute_increments(random_world(np.random.default_rng(depth_l), depth_l,
                                             uniform_prior=uniform_prior))
    d_hat = float(inc.delta_y.sum()) + 2 * TOL
    for result in (iq.solve_min_rate(inc, d_hat), iq.brute_force_solve(inc, "min-rate", d_hat)):
        assert result.status == "infeasible"
        assert result.selection == iq.TreeSelection(np.zeros(inc.num_candidates, np.uint8))
        assert (result.i_x, result.i_y, result.nodes_explored) == (0.0, 0.0, 0)
        assert np.copysign(1.0, [result.i_x, result.i_y]).tolist() == [1.0, 1.0]
        assert np.isnan(result.objective)


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


@pytest.mark.parametrize("binary", [False, True], ids=["iid", "binary"])
@pytest.mark.parametrize("depth_l", [1, 2, 3, 4, 5, 6])
def test_recorded_splits_are_the_scanned_splits(depth_l, binary):
    """The split tables kept by the root's tabulation hold, on every live
    entry of every half-level, the smallest class of the first half at which
    the two halves sum largest, as a direct argmax per entry finds it, and
    so does the scan of a one-shot reconstruction.  Binary maps leave many
    tied sums."""
    world = random_world(np.random.default_rng(80 + depth_l), depth_l, binary=binary)
    lattice = _lattice_for(iq.compute_increments(world))
    lattice.root
    for h in range(2 * depth_l):
        kd = 0 if h % 2 else 4 ** (depth_l - 1 - h // 2)
        merged = lattice.L[h][:, kd:]
        assert lattice.S[h].shape == merged.shape
        rows, k = np.nonzero(merged > solver._NEG)
        assert rows.size
        want = reference_first_split(lattice.L[h + 1], rows, k)
        assert np.array_equal(lattice.S[h][rows, k], want)
        below = lattice.L[h + 1]
        assert np.array_equal(solver._first_max(below[0::2], below[1::2], rows, k), want)


@pytest.mark.parametrize("binary", [False, True], ids=["iid", "binary"])
def test_trace_batches_are_the_scanned_trees(monkeypatch, binary):
    """Every record's tree in the trace's gathered batches, at depth 5 and in
    batches of 7 trees, is the tree that a lattice without split tables
    scans for that class alone."""
    monkeypatch.setattr(solver, "_BATCH_ELEMENTS", 7 * 341)
    world = random_world(np.random.default_rng(90), 5, binary=binary)
    inc = iq.compute_increments(world)
    classes, _, reconstruct = solver._frontier_records(inc, solver.DEFAULT_NODE_LIMIT)
    batches = [reconstruct(r) for r in range(0, classes.size, 7)]
    assert {len(b) for b in batches[:-1]} == {7}
    scan = _lattice_for(iq.compute_increments(world))
    scan.tabulate(scan.top)
    assert scan.S is None and _lattice_for(inc).S is not None
    for k, tree in zip(classes, np.vstack(batches), strict=True):
        assert np.array_equal(tree, scan.reconstruct_many([k])[0])


@pytest.mark.parametrize("binary", [False, True], ids=["iid", "binary"])
@pytest.mark.parametrize("depth_l", [3, 4, 5])
def test_list_engine_matches_the_lattice(monkeypatch, depth_l, binary):
    """On uniform-prior worlds the Pareto lists, forced by hiding the
    lattice, trace the lattice's frontier: as many points, each within 1e-9
    in both values, and on i.i.d. maps, where no two trees tie on both
    values, the same trees.  At four floors the covering solve's tree has
    the lattice solve's rate and relevance within 1e-9."""
    rng = np.random.default_rng(120 + depth_l)
    for _ in range(4):
        inc = iq.compute_increments(random_world(rng, depth_l, binary=binary))
        floors = [f * float(inc.delta_y.sum()) for f in (0.3, 0.6, 0.9, 1.0)]
        want = iq.trace_pareto(inc)
        solves = [iq.solve_min_rate(inc, d_hat) for d_hat in floors]
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_lattice_for", lambda inc: None)
            got = iq.trace_pareto(inc)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.d_star == pytest.approx(w.d_star, abs=1e-9)
            assert g.d_hat_star == pytest.approx(w.d_hat_star, abs=1e-9)
            assert binary or g.tree_bits == w.tree_bits
        for d_hat, lattice in zip(floors, solves):
            z, _ = solver._solve_covering(inc.delta_x, inc.delta_y, d_hat - TOL,
                                          solver.DEFAULT_NODE_LIMIT, depth_l)
            i_x, i_y = iq.tree_information(iq.TreeSelection(z), inc)
            assert i_x == pytest.approx(lattice.i_x, abs=1e-9)
            assert i_y == pytest.approx(lattice.i_y, abs=1e-9)


def test_one_shot_solves_record_no_split(monkeypatch):
    """Min-rate and max-relevance solves, up to the full floor and an
    unbounded budget, tabulate with no split table; only the trace's root
    tabulation records one, once per half-level, and later solves reuse it."""
    recorded = []
    maxplus = solver._maxplus

    def counted(U, V, width=None, split=False):
        recorded.append(split)
        return maxplus(U, V, width, split)

    monkeypatch.setattr(solver, "_maxplus", counted)
    inc = iq.compute_increments(random_world(np.random.default_rng(95), 4))
    total_x, total_y = float(inc.delta_x.sum()), float(inc.delta_y.sum())
    for frac in (0.3, 0.9, 1.0):
        iq.solve_max_relevance(inc, frac * total_x)
        iq.solve_min_rate(inc, frac * total_y)
    iq.solve_max_relevance(inc, float("inf"))
    lattice = _lattice_for(inc)
    assert lattice.k_cap == lattice.top and lattice.S is None
    assert recorded and not any(recorded)
    del recorded[:]
    iq.trace_pareto(inc)
    assert recorded == [True] * 8 and lattice.S is not None
    iq.solve_min_rate(inc, 0.5 * total_y)
    assert recorded == [True] * 8


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
    random vectors with zero entries and tied ratios, on weighted worlds
    with and without zero-weight cells, and on chains of 5 to 8 candidates."""
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
    # both programs take first the chain from a costless candidate at depth
    # l - 1 up to the root; a floor or cap of exactly numpy's sum of it tells
    # apart any other order of summation, and at depth 8 numpy sums the 8
    # terms pairwise, not left to right
    for depth_l, trials in ((5, 3), (6, 3), (7, 3), (8, 10)):
        for _ in range(trials):
            a, b = rng.random(depth_offset(depth_l)), rng.random(depth_offset(depth_l))
            chain = [int(rng.integers(depth_offset(depth_l - 1), a.size))]
            while chain[-1]:
                chain.append((chain[-1] - 1) >> 2)
            a[chain[0]] = 0.0
            need, cap = float(b[chain].sum()), float(a[chain].sum())
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
    """Summed list points over fixed depth-4 weighted worlds at the
    benchmark's floor and budget fractions; the bounds are the sums the list
    engine generated when this test was made."""
    rng = np.random.default_rng(41)
    min_rate_work = max_relevance_work = 0
    for k in range(24):
        world = blob_world(rng, 4, zero_weight=k % 4 == 3)
        inc = iq.compute_increments(world)
        assert _lattice_for(inc) is None
        info = iq.mutual_info_xy(world)
        min_rate_work += iq.solve_min_rate(
            inc, (0.6, 0.7, 0.75, 0.8, 0.85)[k % 5] * info).nodes_explored
        max_relevance_work += iq.solve_max_relevance(
            inc, (5.0, 7.5, 10.0, 30.0, 60.0)[k % 5] * info).nodes_explored
    assert min_rate_work <= 87_194
    assert max_relevance_work <= 11_317


def test_certified_seed_merges_no_lists():
    """A solve whose seed the dual optimum certifies merges no lists and
    reports no work; every other solve reports the points it merged, on the
    worlds and fractions of test_search_effort_does_not_grow."""
    rng = np.random.default_rng(41)
    certified = 0
    for k in range(24):
        world = blob_world(rng, 4, zero_weight=k % 4 == 3)
        inc = iq.compute_increments(world)
        a, b = inc.delta_x, inc.delta_y
        info = iq.mutual_info_xy(world)
        d_hat = (0.6, 0.7, 0.75, 0.8, 0.85)[k % 5] * info
        budget = (5.0, 7.5, 10.0, 30.0, 60.0)[k % 5] * info
        for work, (c, g, need) in ((iq.solve_min_rate(inc, d_hat).nodes_explored,
                                    (a, b, d_hat - TOL)),
                                   (iq.solve_max_relevance(inc, budget).nodes_explored,
                                    (-b, -a, -(budget + TOL)))):
            seed_cost = float(c @ _seed(c, g, need))
            is_certified = seed_cost <= _parametric_dual(c, g, need, 4)[1] + TOL
            assert (work == 0) == is_certified
            certified += is_certified
    assert 0 < certified < 48


@pytest.mark.parametrize("kind", ["iid", "blob", "zero-weight", "zero-quadrant"])
def test_lists_match_an_unpruned_list_dp(kind):
    """The pruned lists' optimum equals a plain list DP's on depth-4 weighted
    worlds at the benchmark's floor and budget fractions, beyond the reach
    of the brute-force oracle."""
    rng = np.random.default_rng(("iid", "blob", "zero-weight", "zero-quadrant").index(kind) + 60)
    for _ in range(3):
        if kind == "iid":
            world = random_world(rng, 4, uniform_prior=False)
        else:
            world = blob_world(rng, 4, zero_weight=kind == "zero-weight",
                               zero_quadrant=kind == "zero-quadrant")
        inc = iq.compute_increments(world)
        assert _lattice_for(inc) is None
        values = reference_pareto_values(inc)
        info = iq.mutual_info_xy(world)
        for frac in (0.6, 0.7, 0.75, 0.8, 0.85):
            d_hat = frac * info
            result = iq.solve_min_rate(inc, d_hat)
            assert result.i_y >= d_hat - TOL
            assert result.objective == pytest.approx(
                reference_list_objective(values, "min-rate", d_hat), abs=1e-9)
        for frac in (5.0, 7.5, 10.0, 30.0, 60.0):
            budget = frac * info
            result = iq.solve_max_relevance(inc, budget)
            assert result.i_x <= budget + TOL
            assert result.objective == pytest.approx(
                reference_list_objective(values, "max-relevance", budget), abs=1e-9)


@pytest.mark.parametrize("kind, depth_l, problem, frac, seed", [
    ("uniform", 4, "min-rate", 0.8, 2), ("uniform", 4, "max-relevance", 0.3, 1),
    ("uniform", 5, "max-relevance", 0.6, 0), ("iid", 4, "min-rate", 0.8, 3),
    ("iid", 4, "max-relevance", 0.3, 4), ("iid", 5, "max-relevance", 0.1, 5),
    ("blob", 4, "min-rate", 0.95, 6), ("blob", 5, "min-rate", 0.5, 7),
    ("blob", 5, "min-rate", 0.8, 8), ("blob", 5, "max-relevance", 0.3, 9),
])
def test_solvers_meet_the_ilp_oracle(kind, depth_l, problem, frac, seed):
    """Past brute force's depth 3, each solve against the paper's integer
    program as HiGHS solves it, on uniform-prior, weighted i.i.d. and
    weighted blob worlds, in the covering form: when the ILP's tree meets the
    row under exact re-evaluation, the solver's tree costs no more, and it
    never costs less than the ILP's proven bound.  frac scales the total
    relevance into a floor, or the total rate into a budget."""
    rng = np.random.default_rng(110 + seed)
    if kind == "blob":
        world = blob_world(rng, depth_l)
    else:
        world = random_world(rng, depth_l, uniform_prior=kind == "uniform")
    inc = iq.compute_increments(world)
    assert (_lattice_for(inc) is not None) == (kind == "uniform")

    def covering(x, y):     # (cost, cover) of rate x and relevance y
        return (x, y) if problem == "min-rate" else (-y, -x)

    a, b = inc.delta_x, inc.delta_y
    if problem == "min-rate":
        d_hat = frac * float(b.sum())
        result, need = iq.solve_min_rate(inc, d_hat), d_hat - TOL
    else:
        budget = frac * float(a.sum())
        result, need = iq.solve_max_relevance(inc, budget), -(budget + TOL)
    z, dual_bound = reference_ilp(*covering(a, b), need)
    ilp_cost, ilp_cover = covering(*iq.tree_information(iq.TreeSelection(z), inc))
    cost, cover = covering(result.i_x, result.i_y)
    assert result.status == "optimal" and cover >= need
    if ilp_cover >= need:
        assert cost <= ilp_cost + 1e-9
    assert cost >= dual_bound - 1e-7


def _iid_weighted_32x32():
    """A 32x32 map of i.i.d. gray levels with log-normal cell weights."""
    rng = np.random.default_rng(95)
    grid = rng.integers(0, 256, (32, 32)) / 255
    return iq.world_from_grid(grid, np.exp(rng.normal(0.0, 0.5, (32, 32))))


def test_weighted_32x32_solves_exactly():
    world = _iid_weighted_32x32()
    inc = iq.compute_increments(world)
    assert _lattice_for(inc) is None
    d_hat = 0.8 * iq.mutual_info_xy(world)
    tracemalloc.start()
    try:
        result = iq.solve_min_rate(inc, d_hat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lists keep copies of their kept points, not views of whole blocks
    assert peak < 8 * 2 ** 20
    assert result.status == "optimal" and result.nodes_explored > 0
    assert result.i_y >= d_hat - TOL
    assert result.objective >= iq.solve_lp_relaxation(inc, d_hat)[1] - TOL


def test_node_limit_fails_before_a_block_passes_it(monkeypatch):
    """A 32x32 solve whose lists outgrow a small node_limit raises before it
    allocates the block that would pass the limit."""
    blocks = []

    class Spy:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, *args, **kwargs):
            blocks.append(shape[1])
            return np.empty(shape, *args, **kwargs)

    world = _iid_weighted_32x32()
    inc = iq.compute_increments(world)
    monkeypatch.setattr(solver, "np", Spy())
    with pytest.raises(iq.ResourceLimitExceeded):
        iq.solve_min_rate(inc, 0.8 * iq.mutual_info_xy(world), node_limit=3000)
    assert blocks and sum(blocks) <= 3000
