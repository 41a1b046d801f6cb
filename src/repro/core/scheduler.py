"""The logistical scheduler: performance matrix in, forwarding routes out.

"The scheduling system takes a fully-connected map of the network as its
graph and produces a path tree from each node to all others.  For hop by
hop routing, the MMP tree is reduced to a list of destinations and the
next hop along the chosen path.  These destination/next hop tuples form a
'route table' that is consumed by the logistical depot and used to
control forwarding." (Section 4.2)

Two extensions flagged by the paper are implemented behind options:

* **host throughput as an edge** — "the scheduling algorithms can be
  trivially extended to include the path through the host as another
  edge whose bandwidth must be taken into account" (Section 6).  Pass
  ``host_bandwidth`` to cap relayed paths by each depot's forwarding
  capacity.
* **avoiding LSL when it would lose** — "in the cases where the
  performance failed to improve we should have avoided using LSL at all"
  (Section 4.2).  Pass ``min_gain`` to require the scheduled path to
  beat the direct edge by a margin before a depot route is issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.minimax import (
    CostGraph,
    MinimaxTree,
    build_mmp_forest,
    build_mmp_tree,
)
from repro.core.epsilon import EpsilonPolicy, RelativeEpsilon
from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class ScheduleDecision:
    """The scheduler's verdict for one (source, destination) pair.

    Attributes
    ----------
    route:
        Full host sequence, source first.  Length 2 means direct.
    use_lsl:
        True when the route traverses at least one depot.
    direct_cost:
        Cost (1/bandwidth) of the direct edge.
    scheduled_cost:
        Minimax cost of the chosen route.
    predicted_gain:
        ``direct_cost / scheduled_cost`` — the scheduler's expected
        speedup factor (1.0 for direct routes; > 1 when a depot route is
        predicted to win).
    """

    route: list[str]
    use_lsl: bool
    direct_cost: float
    scheduled_cost: float

    @property
    def predicted_gain(self) -> float:
        if self.scheduled_cost <= 0:
            return 1.0
        if not math.isfinite(self.direct_cost):
            return math.inf
        return self.direct_cost / self.scheduled_cost

    @property
    def depots(self) -> list[str]:
        """Intermediate hosts along the route."""
        return self.route[1:-1]


class _HostCappedGraph:
    """Cost view that charges each *intermediate* hop the depot's own
    forwarding limit: edge cost out of a depot is at least
    ``1 / host_bandwidth[depot]``.

    The source and sink are not capped — their host path is part of the
    application either way.
    """

    def __init__(self, graph: CostGraph, host_bandwidth: dict[str, float]):
        self._graph = graph
        self.hosts = list(graph.hosts)
        self._host_cost = {
            h: (1.0 / bw if bw > 0 else math.inf)
            for h, bw in host_bandwidth.items()
        }

    def cost(self, src: str, dst: str) -> float:
        base = self._graph.cost(src, dst)
        return max(base, self._host_cost.get(src, 0.0))

    def cost_matrix(self) -> np.ndarray:
        """Dense capped costs, aligned with :attr:`hosts` order.

        Only available when the wrapped graph exposes ``cost_matrix``
        (raises :class:`AttributeError` otherwise, like a missing
        method would).
        """
        base = self._graph.cost_matrix()
        caps = np.array([self._host_cost.get(h, 0.0) for h in self.hosts])
        return np.maximum(base, caps[:, None])


class LogisticalScheduler:
    """Builds MMP trees over a performance matrix and issues routes.

    Parameters
    ----------
    graph:
        Anything exposing ``hosts`` and ``cost(src, dst)`` — typically a
        :class:`repro.nws.matrix.PerformanceMatrix`.
    epsilon:
        Edge-equivalence policy or plain float; defaults to the paper's
        10 % rule.
    host_bandwidth:
        Optional per-host forwarding capacity (bytes/sec) applied to
        intermediate hops (the Section-6 extension).  Hosts absent from
        the mapping are uncapped.
    min_gain:
        Issue a depot route only when its predicted gain exceeds this
        factor (1.0 reproduces the paper's behaviour: any nominally
        better multi-hop path is used).
    depot_hosts:
        If given, only these hosts may serve as intermediate depots
        (the Abilene experiment restricts relaying to the POP depots).
    """

    def __init__(
        self,
        graph: CostGraph,
        epsilon: EpsilonPolicy | float | None = None,
        host_bandwidth: dict[str, float] | None = None,
        min_gain: float = 1.0,
        depot_hosts: set[str] | None = None,
    ) -> None:
        if epsilon is None:
            self._epsilon_policy: EpsilonPolicy = RelativeEpsilon()
        elif isinstance(epsilon, EpsilonPolicy):
            self._epsilon_policy = epsilon
        else:
            check_non_negative("epsilon", epsilon)
            self._epsilon_policy = RelativeEpsilon(epsilon)
        if min_gain < 1.0:
            raise ValueError(f"min_gain={min_gain} must be >= 1.0")
        self.min_gain = min_gain
        self._graph: CostGraph = (
            _HostCappedGraph(graph, host_bandwidth)
            if host_bandwidth
            else graph
        )
        self._base_graph = graph
        self.depot_hosts = set(depot_hosts) if depot_hosts is not None else None
        self._trees: dict[str, MinimaxTree] = {}
        self._route_tables: dict[str, tuple[float, dict[str, str]]] = {}
        self._dense: np.ndarray | None = None

    # -- tree management ----------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The ε currently produced by the policy."""
        return self._epsilon_policy.value()

    @property
    def hosts(self) -> list[str]:
        return list(self._graph.hosts)

    def tree(self, source: str) -> MinimaxTree:
        """The (cached) MMP tree rooted at ``source``."""
        cached = self._trees.get(source)
        if cached is None or cached.epsilon != self.epsilon:
            cached = build_mmp_tree(
                self._graph,
                source,
                self.epsilon,
                relay_nodes=self.depot_hosts,
                dense=self._dense_cost(),
            )
            self._trees[source] = cached
        return cached

    def invalidate(self) -> None:
        """Drop cached trees — call after the performance matrix changes.

        The paper re-ran the scheduler every 5 minutes in the PlanetLab
        experiment; the experiment harness calls this on each re-run.
        """
        self._trees.clear()
        self._route_tables.clear()
        self._dense = None

    def _dense_cost(self) -> np.ndarray | None:
        """Cached dense cost matrix fed to every tree build (or None)."""
        if self._dense is None and hasattr(self._graph, "cost_matrix"):
            try:
                self._dense = self._graph.cost_matrix()
            except AttributeError:
                return None
        return self._dense

    # -- decisions ------------------------------------------------------------
    def decide(self, source: str, dest: str) -> ScheduleDecision:
        """Route one pair: depot forwarding if predicted better, else direct."""
        if source == dest:
            raise ValueError("source and destination are the same host")
        return self._decision(self.tree(source), source, dest)

    def reroute(
        self, source: str, dest: str, avoid: set[str] | list[str]
    ) -> ScheduleDecision:
        """Recompute the minimax route with failed depots excluded.

        Failure recovery's scheduling half: when a depot stops answering
        mid-transfer, the session is re-issued over the best route that
        does not traverse any host in ``avoid``.  Endpoints cannot be
        avoided (a dead endpoint has no route at all); avoided hosts are
        only barred from serving as intermediate depots.  Falls back to
        the direct edge when no surviving depot route beats it.

        The route comes from a fresh MMP build over the surviving relay
        set, the paper's one scheduling algorithm, and its tree is never
        cached: fault handling must see the exclusion immediately, and
        the cache keeps serving the fault-free topology.  A rebuild is
        cheap next to the failure it answers: ≈ 1 ms at the paper's 142
        hosts and ≈ 4 ms at 500 on a 2-vCPU VM, against a failover whose
        smallest retry backoff is 50 ms.
        """
        avoid = set(avoid)
        if source in avoid or dest in avoid:
            raise ValueError(
                f"cannot avoid session endpoint(s): "
                f"{sorted(avoid & {source, dest})}"
            )
        relays = (
            self.depot_hosts
            if self.depot_hosts is not None
            else set(self._graph.hosts)
        )
        tree = build_mmp_tree(
            self._graph,
            source,
            self.epsilon,
            relay_nodes=relays - avoid,
            dense=self._dense_cost(),
        )
        return self._decision(tree, source, dest)

    def _decision(
        self, tree: MinimaxTree, source: str, dest: str
    ) -> ScheduleDecision:
        """Turn one MMP tree lookup into a schedule decision."""
        direct_cost = self._graph.cost(source, dest)
        if not tree.reached(dest):
            # no multi-hop route either; fall back to the direct edge
            return ScheduleDecision(
                route=[source, dest],
                use_lsl=False,
                direct_cost=direct_cost,
                scheduled_cost=direct_cost,
            )
        route = tree.path_to(dest)
        scheduled_cost = tree.cost_to(dest)
        gain = (
            direct_cost / scheduled_cost
            if scheduled_cost > 0 and math.isfinite(direct_cost)
            else math.inf
        )
        if len(route) > 2 and gain >= self.min_gain:
            return ScheduleDecision(
                route=route,
                use_lsl=True,
                direct_cost=direct_cost,
                scheduled_cost=scheduled_cost,
            )
        return ScheduleDecision(
            route=[source, dest],
            use_lsl=False,
            direct_cost=direct_cost,
            scheduled_cost=direct_cost,
        )

    def route(self, source: str, dest: str) -> list[str]:
        """Shorthand: the chosen host sequence for a pair."""
        return self.decide(source, dest).route

    # -- whole-matrix sweeps ---------------------------------------------------
    def _trees_for(self, sources: list[str]) -> list[MinimaxTree]:
        """Cached trees for ``sources``; missing ones are built together
        in one :func:`build_mmp_forest` call (a lone one by
        :meth:`tree`)."""
        eps = self.epsilon
        missing = [
            s
            for s in sources
            if (t := self._trees.get(s)) is None or t.epsilon != eps
        ]
        if len(missing) > 1:
            self._trees.update(
                build_mmp_forest(
                    self._graph,
                    missing,
                    eps,
                    relay_nodes=self.depot_hosts,
                    dense=self._dense_cost(),
                )
            )
        return [self.tree(s) for s in sources]

    def _use_lsl(self, sources: list[str]) -> np.ndarray:
        """``decide(s, d).use_lsl`` for every source row and host column.

        A pair is relayed when its destination was reached, its route
        leaves the source through a depot (``parent[d] != s``) and
        ``direct / scheduled >= min_gain``, with :meth:`_decision`'s
        guards: a non-positive scheduled or non-finite direct cost
        counts as an infinite gain.  The diagonal is False.
        """
        hosts = self._graph.hosts
        trees = self._trees_for(sources)
        inf = math.inf
        scheduled = np.array(
            [[t.cost.get(h, inf) for h in hosts] for t in trees]
        )
        relayed = np.array(
            [
                [t.parent.get(h, s) != s for h in hosts]
                for s, t in zip(sources, trees)
            ],
            dtype=bool,
        ).reshape(len(sources), len(hosts))
        dense = self._dense_cost()
        if dense is not None:
            index = {h: i for i, h in enumerate(hosts)}
            direct = dense[[index[s] for s in sources]]
        else:
            direct = np.array(
                [[self._graph.cost(s, d) for d in hosts] for s in sources]
            )
        gain = np.divide(
            direct,
            scheduled,
            out=np.full(direct.shape, inf),
            where=(scheduled > 0) & np.isfinite(direct),
        )
        return relayed & (gain >= self.min_gain)

    # -- route tables ---------------------------------------------------------
    def route_table(self, node: str) -> dict[str, str]:
        """Destination → next-hop entries for ``node``'s depot.

        Walks the MMP tree rooted at ``node`` exactly as Section 4.2
        describes.  Destinations whose decision is direct map to
        themselves.

        The flattening is memoized: the tree's first hops are computed
        in one pass (:meth:`MinimaxTree.first_hops`) and the finished
        table is cached per node until :meth:`invalidate` or an ε
        change.
        """
        return self._tables([node])[0]

    def all_route_tables(self) -> dict[str, dict[str, str]]:
        """Route tables for every host (one scheduler sweep)."""
        hosts = list(self._graph.hosts)
        return dict(zip(hosts, self._tables(hosts)))

    def _tables(self, nodes: list[str]) -> list[dict[str, str]]:
        """Copies of the memoized route tables of ``nodes``; stale ones
        are rebuilt from one :meth:`_use_lsl` sweep, a relayed
        destination mapping to its first hop."""
        eps = self.epsilon
        stale = [
            h
            for h in nodes
            if (hit := self._route_tables.get(h)) is None or hit[0] != eps
        ]
        if stale:
            hosts = self._graph.hosts
            for node, row in zip(stale, self._use_lsl(stale).tolist()):
                hops = self.tree(node).first_hops()
                self._route_tables[node] = (
                    eps,
                    {
                        dest: hops[dest] if relay else dest
                        for dest, relay in zip(hosts, row)
                        if dest != node
                    },
                )
        return [dict(self._route_tables[h][1]) for h in nodes]

    # -- statistics -------------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of ordered pairs given a depot route.

        The paper: "The scheduler identified better routes via depots for
        26 % of the total number of paths in the system."  Equal to
        counting ``decide(src, dst).use_lsl`` over every ordered pair,
        computed as one sweep: the missing trees are built as one MMP
        forest and the decisions are array operations.
        """
        hosts = list(self._graph.hosts)
        total = len(hosts) * (len(hosts) - 1)
        if not total:
            return 0.0
        return int(self._use_lsl(hosts).sum()) / total

    def lsl_pairs(self) -> list[tuple[str, str]]:
        """All ordered pairs for which a depot route was issued.

        Equal to filtering every ordered pair by ``decide(src,
        dst).use_lsl``, in host order, but computed as one sweep like
        :meth:`coverage`.
        """
        hosts = list(self._graph.hosts)
        src, dst = np.nonzero(self._use_lsl(hosts))
        return [(hosts[s], hosts[d]) for s, d in zip(src.tolist(), dst.tolist())]
