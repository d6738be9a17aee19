"""Worlds, distributions, and the information quantities they carry.

Builds a tiny map by hand, loads the same map from a PGM, and walks through
the global quantities (H(X), H(Y), I(X;Y)) and the per-node increments that
every solver in this package runs on.
"""

from pathlib import Path

import numpy as np

import infoquad as iq

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# An 4x4 map: a dark block in the top-left corner, light elsewhere.
# Intensities are p(y=1|x) after the default inversion (dark = relevant).
grid = np.array([
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
])
world = iq.world_from_grid(grid)
print(f"world: {world.side}x{world.side} cells, depth_l={world.depth_l}")
print(f"H(X)   = {iq.entropy(world.cell_prior):.6f} nats  (uniform prior)")
p_y = world.cell_prior @ world.cell_relevance
print(f"H(Y)   = {iq.entropy(p_y):.6f} nats  (p(y=1) = {p_y[1]:.3f})")
print(f"I(X;Y) = {iq.mutual_info_xy(world):.6f} nats")
print()

# The same map through the PGM file interface.
pgm = OUT / "block.pgm"
iq.write_pgm(pgm, world)
reloaded = iq.load_pgm(pgm)
assert np.array_equal(reloaded.cell_relevance, world.cell_relevance)
print(f"wrote and re-read {pgm.name}: bit-exact round trip")
print()

# Every node above the finest depth carries two increments: expanding it buys
# delta_x nats of rate and delta_y nats of relevant information.  Homogeneous
# regions have delta_y = 0: refining them reveals nothing about Y.
print("per-node increments (depth, morton, mass, delta_x, delta_y):")
stats = iq.compute_node_stats(world)
inc = iq.compute_increments(world)
for i, node in enumerate(iq.interior_candidates(world.depth_l)):
    mass = stats.masses[node.depth][node.morton]
    print(f"  ({node.depth}, {node.morton})  mass={mass:.4f}  "
          f"dx={inc.delta_x[i]:.6f}  dy={inc.delta_y[i]:.6f}")
print()
print(f"sum delta_x = {inc.delta_x.sum():.6f} = H(X)")
print(f"sum delta_y = {inc.delta_y.sum():.6f} = I(X;Y)")
print()

# Tree information is a dot product against these vectors, and it agrees with
# the mutual informations computed straight from the tree's encoder.
selection = iq.selection_from_nodes(2, [iq.NodeId(0, 0), iq.NodeId(1, 0)])
fast = iq.tree_information(selection, inc)
slow = iq.direct_tree_information(world, selection)
print(f"tree {selection}: increments give (I_X, I_Y) = ({fast[0]:.6f}, {fast[1]:.6f})")
print(f"                  encoder gives    (I_X, I_Y) = ({slow[0]:.6f}, {slow[1]:.6f})")
