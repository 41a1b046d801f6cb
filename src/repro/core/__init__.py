"""The paper's contribution: minimax-path scheduling for network logistics.

* :mod:`~repro.core.minimax` — the Appendix-A greedy tree algorithm: a
  Dijkstra variant whose path cost is the **maximum** edge weight, with
  the ε edge-equivalence rule that suppresses marginal detours;
* :mod:`~repro.core.paths` — tree walking, path extraction and path-cost
  evaluation;
* :mod:`~repro.core.epsilon` — ε selection policies (fixed, the paper's
  10 % rule, NWS-prediction-error-driven, measurement-variance-driven);
* :mod:`~repro.core.scheduler` — :class:`LogisticalScheduler`: builds MMP
  trees from a performance matrix, flattens them into depot route tables,
  and decides direct-versus-LSL per host pair;
* :mod:`~repro.core.baselines` — comparison algorithms: direct routing,
  additive-cost Dijkstra, widest-path, and a PSockets-style
  parallel-socket throughput model.
"""

from repro.core.minimax import MinimaxTree, build_mmp_tree
from repro.core.paths import extract_path, path_cost, tree_edges, tree_depths
from repro.core.epsilon import (
    EpsilonPolicy,
    FixedEpsilon,
    RelativeEpsilon,
    NwsErrorEpsilon,
    VarianceEpsilon,
)
from repro.core.scheduler import LogisticalScheduler, ScheduleDecision
from repro.core.baselines import (
    dijkstra_tree,
    widest_path_tree,
    direct_route,
    parallel_socket_bandwidth,
)

__all__ = [
    "MinimaxTree",
    "build_mmp_tree",
    "extract_path",
    "path_cost",
    "tree_edges",
    "tree_depths",
    "EpsilonPolicy",
    "FixedEpsilon",
    "RelativeEpsilon",
    "NwsErrorEpsilon",
    "VarianceEpsilon",
    "LogisticalScheduler",
    "ScheduleDecision",
    "dijkstra_tree",
    "widest_path_tree",
    "direct_route",
    "parallel_socket_bandwidth",
]
