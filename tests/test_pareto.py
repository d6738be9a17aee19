from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np
import pytest

import infoquad as iq
from infoquad import pareto, solver
from infoquad.cli import main
from infoquad.solver import _lattice_for
from helpers import blob_world, quadrant_world, random_world, reference_reconstruct, write_text


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
    """The floor sweep with one min-rate solve per point, as
    (d_star, d_hat_star, d_hat_query, selection) tuples."""
    total = float(inc.delta_y.sum())
    points, query = [], 0.0
    while True:
        result = iq.solve_min_rate(inc, query)
        if points and result.i_y <= points[-1][1] + 1e-15:
            break
        points.append((result.i_x, result.i_y, query, result.selection))
        if result.i_y >= total - 1e-9:
            break
        query = min(result.i_y + eps_step, total)
    return points


def trace_world(kind, depth_l, seed):
    """A uniform world (binary at seed 1) or a weighted one of the given kind.
    "one-quadrant" puts the whole prior on the first quadrant, so the root is
    free, and "near-free" all but 1e-13 per cell, so the root's rate is
    within the 1e-9 tolerance of 0 but not 0."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return random_world(rng, depth_l, binary=seed == 1)
    if kind in ("one-quadrant", "near-free"):
        prior = np.full(4 ** depth_l, 0.0 if kind == "one-quadrant" else 1e-13)
        prior[:prior.size // 4] = rng.random(prior.size // 4)
        p1 = rng.random(prior.size)
        return iq.world_from_cells(depth_l, np.column_stack([1.0 - p1, p1]), prior / prior.sum())
    if kind in ("blob", "zero-quadrant"):
        return blob_world(rng, depth_l, zero_quadrant=kind == "zero-quadrant")
    return random_world(rng, depth_l, binary=kind == "binary", uniform_prior=False,
                        zero_prior=kind == "zero-weight")


@pytest.mark.parametrize("kind, depth_l, seed", [
    pytest.param("uniform", 4, 0, id="4-0"),
    pytest.param("uniform", 4, 1, id="4-1"),
    pytest.param("uniform", 5, 2, id="5-2"),
    ("iid", 0, 3), ("one-quadrant", 1, 4), ("iid", 1, 5), ("near-free", 2, 11), ("iid", 3, 6),
    ("binary", 3, 7), ("zero-weight", 3, 8), ("blob", 3, 9), ("zero-quadrant", 3, 10),
])
@pytest.mark.parametrize("eps_step", [iq.pareto.DEFAULT_EPS_STEP, 0.002])
def test_lattice_trace_equals_two_stage_trace(kind, depth_l, seed, eps_step):
    """The record replay, off the lattice root or the unpruned root list,
    equals the sweep of one min-rate solve per point in every value and tree,
    also on a world without candidates, on a depth-1 world whose lone
    candidate is free (its root list holds two tied points), and on one where
    a floor of 0 must take the empty tree over a root of rate below 1e-9."""
    inc = iq.compute_increments(trace_world(kind, depth_l, seed))
    # a lone candidate of positive rate is depth-uniform: the lattice answers
    on_lattice = kind == "uniform" or (kind == "iid" and depth_l == 1)
    assert (_lattice_for(inc) is not None) == on_lattice
    got = iq.trace_pareto(inc, eps_step=eps_step)
    want = point_by_point_trace(inc, eps_step)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.d_star, g.d_hat_star, g.d_hat_query, g.selection) == w


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


def test_trace_makes_no_solve_and_matches_oracle(monkeypatch):
    """trace_pareto reads every point off its records, with no min-rate
    solve for either prior, and finds the oracle's value pairs on weighted
    i.i.d., binary (many tied rates) and zero-weight worlds."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_min_rate(*args, **kwargs)

    solve_min_rate = solver.solve_min_rate
    assert not hasattr(pareto, "solve_min_rate")
    monkeypatch.setattr(solver, "solve_min_rate", counted)
    rng = np.random.default_rng(43)
    iq.trace_pareto(iq.compute_increments(random_world(rng, 3)))
    for depth_l in (1, 2, 3):
        for kind in ("iid", "binary", "zero-weight") * 3:
            inc = iq.compute_increments(random_world(
                rng, depth_l, binary=kind == "binary", uniform_prior=False,
                zero_prior=kind == "zero-weight"))
            points = iq.trace_pareto(inc)
            # a lone candidate of positive rate is depth-uniform: the lattice answers
            assert (_lattice_for(inc) is None) == (depth_l > 1)
            expected = oracle_pareto_values(inc, depth_l)
            assert len(points) == len(expected)
            for p, want in zip(points, expected):
                assert p.d_star == pytest.approx(want[0], abs=1e-9)
                assert p.d_hat_star == pytest.approx(want[1], abs=1e-9)
    assert calls == []


def test_weighted_trace_fails_fast_at_its_node_limit():
    world = blob_world(np.random.default_rng(44), 4)
    inc = iq.compute_increments(world)
    assert _lattice_for(inc) is None
    with pytest.raises(iq.ResourceLimitExceeded, match="node limit of 1000"):
        iq.trace_pareto(inc, node_limit=1000)


def pareto_inputs(tmp_path, weighted):
    """A 16x16 i.i.d. gray map (85 candidates), or an 8x8 one (21) with a
    log-normal prior file: the CLI arguments naming it, and its world."""
    side = 8 if weighted else 16
    rng = np.random.default_rng(side)
    pgm = tmp_path / f"iid{side}.pgm"
    write_text(pgm, f"P2\n{side} {side}\n255\n" + "\n".join(
        " ".join(map(str, row)) for row in rng.integers(0, 256, (side, side))) + "\n")
    args, world = ["--input", str(pgm)], iq.load_pgm(pgm)
    if weighted:
        prior = tmp_path / f"iid{side}.prior"
        write_text(prior, "\n".join(
            map(repr, np.exp(rng.normal(0, 0.5, side * side)).tolist())) + "\n")
        args, world = args + ["--prior", str(prior)], iq.load_prior(prior, world)
    return args, world


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform16", "weighted8"])
def test_cli_trace_builds_no_selection_per_point(tmp_path, monkeypatch, weighted):
    """A CLI pareto builds no TreeSelection, and takes its information sums
    unchecked, once per reconstructed batch, off the lattice and off the
    weighted lists; at these sizes one batch holds every point's tree."""
    args, _ = pareto_inputs(tmp_path, weighted)
    built, sums = [], []
    selection_class, information = pareto.TreeSelection, pareto._information

    def counted_selection(*a, **k):
        built.append(a)
        return selection_class(*a, **k)

    def counted_information(*a, **k):
        sums.append(a)
        return information(*a, **k)

    monkeypatch.setattr(pareto, "TreeSelection", counted_selection)
    monkeypatch.setattr(pareto, "_information", counted_information)
    out = tmp_path / "pareto.csv"
    assert main(["pareto", *args, "--out", str(out)]) == 0
    rows = len(out.read_text().splitlines()) - 1
    assert rows > 20
    assert built == []
    assert len(sums) == 1 and len(sums[0][0]) >= rows


@pytest.mark.parametrize("weighted, eps_step", [
    (False, iq.pareto.DEFAULT_EPS_STEP), (True, iq.pareto.DEFAULT_EPS_STEP), (False, 0.01),
], ids=["uniform16", "weighted8", "uniform16-coarse"])
def test_cli_csv_is_one_sweep_through_one_writer(tmp_path, weighted, eps_step):
    """The CLI's CSV is the library trace written by write_pareto_csv, byte
    for byte, and every point's leaf count and unpacked tree are those of a
    fresh reconstruction of the record its floor looks up.  No candidate
    count here is a multiple of 8, so the unpacking's count matters."""
    args, world = pareto_inputs(tmp_path, weighted)
    cli_csv, lib_csv = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main(["pareto", *args, "--eps-step", repr(eps_step), "--out", str(cli_csv)]) == 0
    inc = iq.compute_increments(world)
    assert inc.num_candidates % 8
    points = iq.trace_pareto(inc, eps_step=eps_step)
    iq.write_pareto_csv(lib_csv, points)
    assert cli_csv.read_bytes() == lib_csv.read_bytes()
    costs, values, reconstruct = solver._frontier_records(inc, solver.DEFAULT_NODE_LIMIT)
    costs, values = costs.tolist(), values.tolist()
    for p in points:
        q = p.d_hat_query
        r = min(bisect_left(values, q - solver.TOL), len(values) - 1)
        if q - solver.TOL > 0:
            r = bisect_right(costs, costs[r] + solver.TOL) - 1
        selection = p.selection
        assert selection == iq.TreeSelection(reconstruct(r)[0])
        assert p.leaf_count == selection.leaf_count
        assert (p.d_star, p.d_hat_star) == iq.tree_information(selection, inc)
        assert p.selection is not selection   # unpacked afresh, nothing cached
