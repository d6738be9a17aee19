"""Scaling probe: one call per layer per map depth, timed directly.

Runs only in the traced run and is not gated.  It tracks how each layer grows
with the map side (the lattice tabulation grows about 13x per depth, the LP
reaches seconds at 128x128) without repeating those sizes in every timed run.
Its maps have i.i.d. gray levels, the hard case for the LP and the search.
"""

from __future__ import annotations

import time
from pathlib import Path

from workloads import make_grays, make_weights, rng_for, write_p2, write_weights

UNIFORM_DEPTHS = range(4, 9)
LP_DEPTHS = range(4, 8)
WEIGHTED_DEPTHS = range(3, 5)
SMOKE_DEPTHS = range(2, 4)
PROBE_KEY = 7   # separates the probe's maps from the workloads' maps


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * 1e3


def _load(iq, workdir: Path, seed: int, depth: int, weighted: bool):
    rng = rng_for(seed, PROBE_KEY, depth, weighted)
    side = 2 ** depth
    pgm = workdir / f"probe-{'w' if weighted else 'u'}{depth}.pgm"
    write_p2(pgm, make_grays(rng, side, noise=True))
    world, load_ms = _timed(iq.load_pgm, pgm)
    if weighted:
        prior = pgm.with_suffix(".prior")
        write_weights(prior, make_weights(rng, side))
        world, prior_ms = _timed(iq.load_prior, prior, world)
        load_ms += prior_ms
    return world, load_ms


def probe(iq, workdir: Path, seed: int, smoke: bool) -> dict[str, float]:
    """Per-depth layer times (ms) and search node counts."""
    workdir.mkdir(parents=True, exist_ok=True)
    out: dict[str, float] = {}
    for depth in SMOKE_DEPTHS if smoke else UNIFORM_DEPTHS:
        world, load_ms = _load(iq, workdir, seed, depth, False)
        inc, inc_ms = _timed(iq.compute_increments, world)
        info = iq.mutual_info_xy(world)
        _, cold_ms = _timed(iq.solve_min_rate, inc, 0.9 * info)
        _, warm_ms = _timed(iq.solve_min_rate, inc, 0.5 * info)
        key = f"probe.uniform.d{depth}"
        out[f"{key}.load_pgm_ms"] = load_ms
        out[f"{key}.compute_increments_ms"] = inc_ms
        out[f"{key}.cold_solve_ms"] = cold_ms
        out[f"{key}.warm_solve_ms"] = warm_ms
        if depth in (SMOKE_DEPTHS if smoke else LP_DEPTHS):
            _, lp_ms = _timed(iq.solve_lp_relaxation, inc, 0.9 * info)
            out[f"probe.lp.d{depth}.solve_lp_relaxation_ms"] = lp_ms
    for depth in SMOKE_DEPTHS if smoke else WEIGHTED_DEPTHS:
        world, _ = _load(iq, workdir, seed, depth, True)
        inc = iq.compute_increments(world)
        result, ms = _timed(iq.solve_min_rate, inc, 0.9 * iq.mutual_info_xy(world))
        out[f"probe.weighted.d{depth}.solve_min_rate_ms"] = ms
        out[f"probe.weighted.d{depth}.search_nodes"] = float(result.nodes_explored)
    return out
