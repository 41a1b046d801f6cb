"""The Minimax Path (MMP) tree algorithm — the paper's Appendix A.

The cost of a path is the weight of its heaviest edge
(``max(cost(i, j) | (i, j) in P)``), so the optimal route from a source is
the one whose worst hop is least bad: exactly the right objective when
path throughput is dominated by the slowest pipelined sublink.

The algorithm is Dijkstra with a different relaxation::

    relax_cost = max(edge(new, other), cost[new])
    if relax_cost * (1 + epsilon) < cost[other]:
        adopt new as other's parent

The ε term is the paper's **edge equivalence**: an alternative route is
adopted only when it is more than an ε fraction better than the incumbent,
which keeps measurement jitter from manufacturing spurious multi-hop
detours (Figures 7 → 8).  With ε = 0 this is the textbook minimax tree and
is optimal; with ε > 0 the tree is within a factor ``(1 + ε)`` of optimal
on every path, trading that slack for stability.

Complexity is ``O(E log V)`` per tree with the lazy heap of
:func:`build_mmp_tree`; the paper's fully connected graphs make
``E = V²``.  The scheduler's sweeps need a tree from every host (the
route-table refresh of Section 4.2), and :func:`build_mmp_forest`
builds them all in lockstep: ``V`` iterations, each one settling a node
per source with array operations over ``(sources, hosts)``, so
``O(S·V²)`` element work in ``O(V)`` numpy calls instead of ``S·V``
Python-level heap pops.  At PlanetLab scale (112 hosts, a 2-vCPU VM)
it builds the 112 trees in ≈ 11 ms against ≈ 110 ms for 112 heap
builds, but a one-source lockstep build is slower than the heap, so
single trees (``decide``, ``reroute``, ``repro schedule``) stay on
:func:`build_mmp_tree`.  The two builders produce equal trees; a
property test pins them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.util.validation import check_non_negative


class CostGraph(Protocol):
    """What the tree builder needs from a graph: hosts and edge costs."""

    hosts: list[str]

    def cost(self, src: str, dst: str) -> float:
        """Weight of the directed edge ``src -> dst`` (``inf`` if absent)."""
        ...  # pragma: no cover - protocol


@dataclass
class MinimaxTree:
    """The tree of best (minimax, ε-damped) paths from one start node.

    Attributes
    ----------
    start:
        Root node.
    parent:
        Predecessor of each reached node on its best path; the root is
        its own parent (as in the paper's pseudo-code).
    cost:
        Minimax cost of the best path to each reached node (0 for the
        root).  Unreachable nodes are absent from both maps.
    epsilon:
        The edge-equivalence fraction used to build the tree.
    """

    start: str
    parent: dict[str, str]
    cost: dict[str, float]
    epsilon: float = 0.0
    _first_hops: dict[str, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def reached(self, node: str) -> bool:
        """True if ``node`` is connected to the root."""
        return node in self.parent

    def path_to(self, dest: str) -> list[str]:
        """The host sequence from the root to ``dest`` (inclusive).

        Raises
        ------
        KeyError
            If ``dest`` was never reached.
        """
        if dest not in self.parent:
            raise KeyError(f"{dest!r} not reached from {self.start!r}")
        path = [dest]
        node = dest
        while node != self.start:
            node = self.parent[node]
            path.append(node)
            if len(path) > len(self.parent) + 1:  # pragma: no cover
                raise RuntimeError("cycle in parent pointers")
        path.reverse()
        return path

    def cost_to(self, dest: str) -> float:
        """Minimax cost of the chosen path to ``dest`` (inf if unreached)."""
        return self.cost.get(dest, math.inf)

    def next_hop(self, dest: str) -> str:
        """First hop out of the root toward ``dest``.

        This is what a depot's route table stores.
        """
        path = self.path_to(dest)
        if len(path) == 1:
            return self.start
        return path[1]

    def first_hops(self) -> dict[str, str]:
        """First hop out of the root for *every* reached node, in one pass.

        Equivalent to ``{d: self.next_hop(d) for d in reached}`` but
        flattens the whole tree with path-compression instead of one
        root-ward walk per destination, and memoizes the result — this
        is the route-table flattening of Section 4.2, done once per
        tree instead of once per (depot, destination) lookup.  Callers
        must treat the returned mapping as read-only.
        """
        if self._first_hops is not None:
            return self._first_hops
        hops: dict[str, str] = {self.start: self.start}
        for node in self.parent:
            if node in hops:
                continue
            stack: list[str] = []
            cur = node
            while cur != self.start and cur not in hops:
                stack.append(cur)
                cur = self.parent[cur]
                if len(stack) > len(self.parent):  # pragma: no cover
                    raise RuntimeError("cycle in parent pointers")
            # cur is either the root (next stack entry is a direct child
            # of the root, i.e. its own first hop) or a node whose hop
            # is already known.
            base = None if cur == self.start else hops[cur]
            for n in reversed(stack):
                if base is None:
                    base = n
                hops[n] = base
        self._first_hops = hops
        return hops

    def __len__(self) -> int:
        return len(self.parent)


def build_mmp_tree(
    graph: CostGraph,
    start: str,
    epsilon: float = 0.0,
    relay_nodes: set[str] | None = None,
    dense: np.ndarray | None = None,
) -> MinimaxTree:
    """Build the MMP tree from ``start`` over all of ``graph``.

    Parameters
    ----------
    graph:
        Anything exposing ``hosts`` and ``cost(src, dst)`` — typically a
        :class:`repro.nws.matrix.PerformanceMatrix`.  A graph that also
        has ``cost_matrix()`` has its edges read from that, one row per
        settled node; its entries must equal ``cost`` bit for bit.
    start:
        Root node; must be one of ``graph.hosts``.
    epsilon:
        Edge-equivalence fraction.  The paper uses 0.1 ("if the evaluated
        edge was not 10 % better than the previous edge, then it was not
        added to the path").
    relay_nodes:
        If given, only these nodes may appear as *intermediate* hops;
        every other node is a leaf of the tree.  Used for the Abilene
        experiment, where only the POP depots forward.
    dense:
        A precomputed ``graph.cost_matrix()``, aligned with
        ``graph.hosts``, to spare the build recomputing it.

    Returns
    -------
    MinimaxTree
        Parent pointers and minimax costs for every reachable node.
    """
    check_non_negative("epsilon", epsilon)
    hosts = list(graph.hosts)
    if start not in hosts:
        raise KeyError(f"start node {start!r} not in graph")

    one = 1.0 + epsilon
    inf = math.inf
    idx = {h: i for i, h in enumerate(hosts)}
    # each settled node's out-edges are relaxed as one array row: of the
    # dense cost matrix when the graph has one (its entries equal
    # ``cost`` bit for bit), else of ``graph.cost`` over the unsettled
    # nodes
    if dense is None:
        dense = _dense_of(graph)
    parent: dict[str, str] = {start: start}
    cost: dict[str, float] = {start: 0.0}
    # best cost offered so far; -inf once settled, so a settled node
    # is never offered a hop and its stale heap entries are skipped
    best = np.full(len(hosts), inf)
    best[idx[start]] = 0.0

    # lazy-deletion heap of (tentative cost, node)
    heap: list[tuple[float, str]] = [(0.0, start)]
    while heap:
        node_cost, node = heapq.heappop(heap)
        ni = idx[node]
        if node_cost > best[ni]:
            continue  # stale entry
        best[ni] = -inf
        cost[node] = node_cost
        if (
            relay_nodes is not None
            and node != start
            and node not in relay_nodes
        ):
            continue  # may be reached, but never forwards
        if dense is not None:
            row = dense[ni]
        else:
            row = np.array(
                [
                    graph.cost(node, h) if b > -inf else inf
                    for h, b in zip(hosts, best.tolist())
                ]
            )
        relax = np.maximum(row, node_cost)
        # Appendix A: adopt only if more than epsilon-fraction better;
        # an absent edge (inf or nan) never compares better
        for j in np.flatnonzero(relax * one < best).tolist():  # host order
            if row[j] == -inf:
                continue  # no finite edge either
            other = hosts[j]
            relax_cost = float(relax[j])
            best[j] = relax_cost
            parent[other] = node
            heapq.heappush(heap, (relax_cost, other))

    return MinimaxTree(start=start, parent=parent, cost=cost, epsilon=epsilon)


def build_mmp_forest(
    graph: CostGraph,
    sources: list[str] | None = None,
    epsilon: float = 0.0,
    relay_nodes: set[str] | None = None,
    dense: np.ndarray | None = None,
) -> dict[str, MinimaxTree]:
    """The MMP tree from every one of ``sources``, built in lockstep.

    Each tree equals ``build_mmp_tree(graph, source, epsilon,
    relay_nodes)`` in ``parent`` (insertion order included) and ``cost``
    (bit for bit, in settle order).  Instead of one heap per source, every iteration settles one node per
    source over ``(sources, hosts)`` arrays: each source pops its
    unsettled reached node with the least ``(best, host name)`` — the
    heap's order — and relaxes that node's cost row with the same
    ``max(row, cost) * (1 + ε) < best`` test.  A single tree is faster
    from the heap builder; a sweep over many sources is faster here.

    ``sources`` defaults to every host.  ``dense`` may carry a
    precomputed ``graph.cost_matrix()``; a graph without one is built
    one source at a time by :func:`build_mmp_tree`.
    """
    check_non_negative("epsilon", epsilon)
    hosts = list(graph.hosts)
    sources = list(dict.fromkeys(hosts if sources is None else sources))
    missing = set(sources).difference(hosts)
    if missing:
        raise KeyError(f"start node {min(missing)!r} not in graph")
    if dense is None:
        dense = _dense_of(graph)
    if dense is None or not sources:
        return {
            s: build_mmp_tree(graph, s, epsilon, relay_nodes=relay_nodes)
            for s in sources
        }

    n = len(hosts)
    inf = math.inf
    one = 1.0 + epsilon
    # columns (and rows) run in host-name order, so argmin's first
    # minimum is the heap's (cost, name) tie-break
    order = sorted(range(n), key=hosts.__getitem__)
    names = [hosts[i] for i in order]
    orig = np.array(order, dtype=np.intp)  # name position -> host index
    rank = {h: p for p, h in enumerate(names)}
    cost_p = np.asarray(dense, dtype=float)[np.ix_(orig, orig)]
    # a -inf edge never adopts (the heap builder skips it); as nan it
    # fails the relaxation test like any absent edge
    cost_p[cost_p == -inf] = math.nan
    fwd = (
        None
        if relay_nodes is None
        else np.array([h in relay_nodes for h in names])
    )

    n_src = len(sources)
    rows = np.arange(n_src)
    src_p = np.array([rank[s] for s in sources], dtype=np.intp)
    # best offer so far (-inf once settled, as in build_mmp_tree); key
    # is the pop key, inf once settled
    best = np.full((n_src, n), inf)
    best[rows, src_p] = 0.0
    key = best.copy()
    par = np.full((n_src, n), -1, dtype=np.intp)
    par[rows, src_p] = src_p
    # iteration of each node's first adoption: the parent dict's order
    first = np.full((n_src, n), n + 1, dtype=np.intp)
    first[rows, src_p] = -1
    settle_v: list[np.ndarray] = []
    settle_c: list[np.ndarray] = []

    for k in range(n):
        v = key.argmin(axis=1)
        c = key[rows, v]
        if not (c < inf).any():
            break  # every source has settled all it can reach
        settle_v.append(v)
        settle_c.append(c)
        key[rows, v] = inf
        best[rows, v] = -inf
        if fwd is not None:
            # a node that may not relay settles but offers nothing
            c = np.where(fwd[v] | (v == src_p), c, math.nan)
        relax = np.maximum(cost_p[v], c[:, None])
        # adoptions as flat (source, node) positions, in row-major order
        at = np.flatnonzero((relax * one if epsilon else relax) < best)
        if not at.size:
            continue
        s_i = at // n
        vals = relax.ravel()[at]
        best.ravel()[at] = vals
        key.ravel()[at] = vals
        par.ravel()[at] = v[s_i]
        first.ravel()[at] = np.minimum(first.ravel()[at], k)

    settle_order = np.array(settle_v).T.tolist()  # per source
    settle_cost = np.array(settle_c).T
    counts = (settle_cost < inf).sum(axis=1).tolist()
    settle_cost = settle_cost.tolist()
    # reached nodes by first adoption, ties in host-index order (the
    # heap builder's relaxation order)
    reach = np.argsort(first * n + orig, axis=1, kind="stable").tolist()
    par_l = par.tolist()

    forest: dict[str, MinimaxTree] = {}
    for s, source in enumerate(sources):
        m = counts[s]
        parents = par_l[s]
        settles = [names[p] for p in settle_order[s][:m]]
        forest[source] = MinimaxTree(
            start=source,
            parent={
                names[p]: names[parents[p]] for p in reach[s][:m]
            },
            cost=dict(zip(settles, settle_cost[s][:m])),
            epsilon=epsilon,
        )
    return forest


def _dense_of(graph: CostGraph) -> np.ndarray | None:
    """``graph.cost_matrix()`` when available, else None."""
    matfn = getattr(graph, "cost_matrix", None)
    if matfn is None:
        return None
    try:
        return matfn()
    except AttributeError:
        return None  # wrapper over a matrix-less graph
