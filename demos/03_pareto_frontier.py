"""Tracing the full compression/relevance frontier.

A single minimal-rate solve need not be Pareto efficient: several trees can
share the optimal rate while keeping different amounts of relevant
information.  Each frontier point therefore chains two exact solves, and the
sweep visits every achievable value pair.  On a small world the result is
checked against brute-force enumeration of all 17 trees.
"""

from pathlib import Path

import numpy as np

import infoquad as iq

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# small world first: every frontier claim is checkable by enumeration
rng = np.random.default_rng(3)
p1 = rng.random(16)
world = iq.world_from_cells(2, np.column_stack([1 - p1, p1]))
inc = iq.compute_increments(world)

points = iq.trace_pareto(inc)
print(f"4x4 world: {len(points)} Pareto-optimal value pairs")
print("  rate (nats)   relevance (nats)   leaves")
for p in points:
    print(f"  {p.d_star:11.6f}   {p.d_hat_star:16.6f}   {p.leaf_count:6d}")

# enumeration cross-check: dominance-filter all 17 valid trees
pairs = [iq.tree_information(sel, inc) for sel in iq.enumerate_valid_selections(2)]
frontier = sorted(
    a for i, a in enumerate(pairs)
    if not any(iq.is_dominated(a, b) for j, b in enumerate(pairs) if j != i)
)
assert len(frontier) == len(points)
print("matches the dominance filter over all 17 valid trees")
print()

# the staircase: nothing exists between the origin and the root expansion
root_rate = float(inc.delta_x[0])
print(f"first jump: no tree has 0 < rate < {root_rate:.6f} (the root expansion)")
print()

# a bigger map, swept coarsely for speed, written as CSV
side = 32
grid = (rng.random((side, side)) < 0.4).astype(float)
big = iq.world_from_grid(grid)
big_inc = iq.compute_increments(big)
points = iq.trace_pareto(big_inc, eps_step=0.005)
iq.write_pareto_csv(OUT / "pareto_32.csv", points)
print(f"32x32 random map: traced {len(points)} points at 0.005-nat resolution "
      f"-> {OUT / 'pareto_32.csv'}")
for a, b in zip(points, points[1:]):
    assert b.d_star > a.d_star and b.d_hat_star > a.d_hat_star
print("frontier is strictly increasing in both coordinates")
