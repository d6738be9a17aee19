"""Task-relevant multi-resolution quadtree abstractions of grid-world maps.

Given a grid map with a per-cell relevance distribution, this package finds
quadtrees that trade compression I(T;X) against retained relevant information
I(T;Y): exact solutions of both constrained programs, the Pareto frontier of
achievable value pairs, and an LP relaxation with threshold rounding.
"""

from .increments import (
    IncrementVectors,
    TreeStats,
    compute_increments,
    compute_node_stats,
    tree_information,
    write_increments_csv,
)
from .infotheory import direct_tree_information, entropy, js_divergence, kl_divergence
from .pareto import (
    DEFAULT_EPS_STEP,
    ParetoPoint,
    is_dominated,
    trace_pareto,
    write_pareto_csv,
)
from .quadtree import (
    MalformedTreeDocument,
    NodeId,
    TreeSelection,
    encoder_of,
    expandable_parents,
    interior_candidates,
    is_valid_selection,
    leaves_of,
    read_tree_json,
    selection_from_nodes,
    write_tree_json,
)
from .relaxation import (
    FractionalSelection,
    relax_and_round,
    round_selection,
    solve_lp_relaxation,
)
from .solver import (
    DEFAULT_NODE_LIMIT,
    TOL,
    ResourceLimitExceeded,
    SolveResult,
    brute_force_solve,
    count_valid_selections,
    enumerate_valid_selections,
    solve_max_relevance,
    solve_min_rate,
)
from .world import (
    WorldMap,
    load_pgm,
    load_prior,
    mutual_info_xy,
    render_abstraction,
    world_from_cells,
    world_from_grid,
    write_pgm,
)

__version__ = "0.1.0"

__all__ = [
    "WorldMap", "load_pgm", "load_prior", "mutual_info_xy", "render_abstraction",
    "world_from_cells", "world_from_grid", "write_pgm",
    "NodeId", "TreeSelection", "interior_candidates", "expandable_parents",
    "is_valid_selection", "leaves_of", "encoder_of", "selection_from_nodes",
    "read_tree_json", "write_tree_json", "MalformedTreeDocument",
    "entropy", "kl_divergence", "js_divergence", "direct_tree_information",
    "TreeStats", "IncrementVectors", "compute_node_stats", "compute_increments",
    "tree_information", "write_increments_csv",
    "SolveResult", "ResourceLimitExceeded", "solve_min_rate", "solve_max_relevance",
    "enumerate_valid_selections", "brute_force_solve", "count_valid_selections",
    "TOL", "DEFAULT_NODE_LIMIT",
    "FractionalSelection", "solve_lp_relaxation", "round_selection", "relax_and_round",
    "ParetoPoint", "is_dominated", "trace_pareto", "write_pareto_csv",
    "DEFAULT_EPS_STEP",
]
