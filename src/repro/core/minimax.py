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
:func:`build_mmp_tree`.  The two builders produce equal trees and
traces; a property test pins them.

Failure recovery needs the same tree minus a handful of depots, and a
full rebuild per failover is the scheduler's hot path (ROADMAP item 3).
:func:`build_mmp_tree` therefore records a :class:`BuildTrace` — the
chronological list of successful adoptions — and
:func:`repair_mmp_tree` replays it: only nodes whose adoption history
is transitively touched by the avoided depots ("tainted" nodes) are
re-run against the graph; everything else is copied from the original
tree unchanged.  The repair is exact, not approximate — a verification
step re-taints any clean node that a repaired node could newly reach
(the ε filter makes costs non-monotone under node removal), and the
property suite pins repair output to a from-scratch rebuild.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections.abc import Callable
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


class BuildTrace:
    """Execution record of one MMP tree build.

    ``events`` is the chronological list of successful adoptions as
    ``(offerer_settle_cost, offerer, adoptee, relax_cost)`` tuples; an
    offer is made the moment its offerer settles, so
    ``(offerer_settle_cost, offerer)`` is the event's position in the
    run's total settle order (heap ties break on the node name).
    ``settles`` is the exact settle (pop) order of the run.  It is not
    derivable from the costs: with tied final costs the heap's order
    depends on *when* entries were pushed, so a repair that replays
    clean nodes must interleave live events into this recorded order,
    not into a ``(cost, name)`` sort.  ``relay_nodes`` preserves the
    forwarding restriction the tree was built under so a repair can
    subtract the avoided hosts from it.

    ``events`` may be given as a zero-argument callable instead of a
    list: :func:`build_mmp_forest` records its adoptions as arrays and
    turns them into tuples only when a trace is first read.
    """

    def __init__(
        self,
        relay_nodes: frozenset[str] | None,
        events: list[tuple[float, str, str, float]]
        | Callable[[], list[tuple[float, str, str, float]]],
        settles: list[str],
    ) -> None:
        self.relay_nodes = relay_nodes
        self._events = events
        self.settles = settles
        self._offerers: frozenset[str] | None = None

    @property
    def events(self) -> list[tuple[float, str, str, float]]:
        """The adoption record (materialized on first read)."""
        if callable(self._events):
            self._events = self._events()
        return self._events

    @property
    def offerers(self) -> frozenset[str]:
        """Every node that placed at least one winning offer (cached)."""
        if self._offerers is None:
            self._offerers = frozenset(ev[1] for ev in self.events)
        return self._offerers


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
    trace:
        Build-time adoption record consumed by :func:`repair_mmp_tree`;
        ``None`` on hand-built trees and on trees a repair replayed
        (repairing those falls back to a full rebuild).  Excluded from
        equality.
    """

    start: str
    parent: dict[str, str]
    cost: dict[str, float]
    epsilon: float = 0.0
    trace: BuildTrace | None = field(default=None, repr=False, compare=False)
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
    dense = _dense_of(graph)
    parent: dict[str, str] = {start: start}
    cost: dict[str, float] = {start: 0.0}
    # best cost offered so far; -inf once settled, so a settled node
    # is never offered a hop and its stale heap entries are skipped
    best = np.full(len(hosts), inf)
    best[idx[start]] = 0.0
    events: list[tuple[float, str, str, float]] = []
    settles: list[str] = []

    # lazy-deletion heap of (tentative cost, node)
    heap: list[tuple[float, str]] = [(0.0, start)]
    while heap:
        node_cost, node = heapq.heappop(heap)
        ni = idx[node]
        if node_cost > best[ni]:
            continue  # stale entry
        best[ni] = -inf
        settles.append(node)
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
            events.append((node_cost, node, other, relax_cost))
            heapq.heappush(heap, (relax_cost, other))

    trace = BuildTrace(
        relay_nodes=(
            frozenset(relay_nodes) if relay_nodes is not None else None
        ),
        events=events,
        settles=settles,
    )
    return MinimaxTree(
        start=start, parent=parent, cost=cost, epsilon=epsilon, trace=trace
    )


def build_mmp_forest(
    graph: CostGraph,
    sources: list[str] | None = None,
    epsilon: float = 0.0,
    relay_nodes: set[str] | None = None,
    dense: np.ndarray | None = None,
) -> dict[str, MinimaxTree]:
    """The MMP tree from every one of ``sources``, built in lockstep.

    Each tree equals ``build_mmp_tree(graph, source, epsilon,
    relay_nodes)`` in ``parent`` (insertion order included), ``cost``
    (bit for bit, in settle order) and ``trace`` (events and settles);
    the trace's events are turned into tuples only when first read.
    Instead of one heap per source, every iteration settles one node per
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
    adopt_k: list[np.ndarray] = []
    adopt_s: list[np.ndarray] = []
    adopt_j: list[np.ndarray] = []
    adopt_val: list[np.ndarray] = []

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
        s_i, j_i = np.divmod(at, n)
        vals = relax.ravel()[at]
        best.ravel()[at] = vals
        key.ravel()[at] = vals
        par.ravel()[at] = v[s_i]
        first.ravel()[at] = np.minimum(first.ravel()[at], k)
        adopt_k.append(np.full(at.size, k, dtype=np.intp))
        adopt_s.append(s_i)
        adopt_j.append(j_i)
        adopt_val.append(vals)

    settle_order = np.array(settle_v).T.tolist()  # per source
    settle_cost = np.array(settle_c).T
    counts = (settle_cost < inf).sum(axis=1).tolist()
    settle_cost = settle_cost.tolist()
    # reached nodes by first adoption, ties in host-index order (the
    # heap builder's relaxation order)
    reach = np.argsort(first * n + orig, axis=1, kind="stable").tolist()
    par_l = par.tolist()
    relay = frozenset(relay_nodes) if relay_nodes is not None else None
    log = _AdoptionLog(
        names, orig, settle_order, settle_cost,
        adopt_k, adopt_s, adopt_j, adopt_val,
    )

    forest: dict[str, MinimaxTree] = {}
    for s, source in enumerate(sources):
        m = counts[s]
        settled = settle_order[s][:m]
        parents = par_l[s]
        settles = [names[p] for p in settled]
        forest[source] = MinimaxTree(
            start=source,
            parent={
                names[p]: names[parents[p]] for p in reach[s][:m]
            },
            cost=dict(zip(settles, settle_cost[s][:m])),
            epsilon=epsilon,
            trace=BuildTrace(
                relay_nodes=relay,
                events=functools.partial(log.events, s),
                settles=settles,
            ),
        )
    return forest


class _AdoptionLog:
    """A forest's adoptions as arrays, split into per-source event
    lists on demand (the first read sorts them all at once)."""

    def __init__(
        self, names, orig, settle_order, settle_cost, ks, ss, js, vals
    ) -> None:
        self._names = names
        self._orig = orig
        self._settle_order = settle_order
        self._settle_cost = settle_cost
        self._raw = (ks, ss, js, vals)
        self._split: list[tuple[list, list, list]] | None = None

    def events(self, s: int) -> list[tuple[float, str, str, float]]:
        """Source ``s``'s adoptions in build order, as trace tuples."""
        if self._split is None:
            self._split = self._sort()
        ks, js, vals = self._split[s]
        names = self._names
        order = self._settle_order[s]
        costs = self._settle_cost[s]
        return [
            (costs[k], names[order[k]], names[j], val)
            for k, j, val in zip(ks, js, vals)
        ]

    def _sort(self) -> list[tuple[list, list, list]]:
        ks, ss, js, vals = (
            np.concatenate(a) if a else np.zeros(0, dtype=dt)
            for a, dt in zip(self._raw, (np.intp,) * 3 + (float,))
        )
        # by source, then settle, then host index (relaxation order)
        perm = np.lexsort((self._orig[js], ks, ss))
        ks, ss, js, vals = ks[perm], ss[perm], js[perm], vals[perm]
        n_src = len(self._settle_order)
        cuts = np.searchsorted(ss, np.arange(n_src + 1)).tolist()
        ks, js, vals = ks.tolist(), js.tolist(), vals.tolist()
        return [
            (ks[a:b], js[a:b], vals[a:b]) for a, b in zip(cuts, cuts[1:])
        ]


def repair_mmp_tree(
    graph: CostGraph,
    tree: MinimaxTree,
    avoid: set[str] | frozenset[str] | list[str],
    dense: np.ndarray | None = None,
) -> MinimaxTree:
    """The tree ``build_mmp_tree`` would produce with ``avoid`` barred
    from forwarding — computed by repairing ``tree`` instead of
    rebuilding from scratch.

    Equivalent to ``build_mmp_tree(graph, tree.start, tree.epsilon,
    relay_nodes=R - avoid)`` where ``R`` is the relay set the tree was
    built under (all hosts when unrestricted), but the work scales with
    the number of nodes whose adoption history the avoided depots
    actually touched, not with the graph.  Avoided hosts may still be
    *reached* (as leaves); they just never forward — exactly the
    semantics of :meth:`LogisticalScheduler.reroute`.

    The graph must be unchanged since the tree was built (the same
    contract as the scheduler's tree cache).  ``dense`` may carry a
    precomputed ``graph.cost_matrix()`` aligned with ``graph.hosts`` to
    spare the repair the dense-matrix rebuild; entries must equal
    ``graph.cost`` bit-for-bit.  Trees without a build trace (hand-made,
    or replayed by an earlier repair) fall back to a full rebuild, as
    does any repair whose tainted region grows past half the graph.
    """
    avoid = set(avoid)
    start = tree.start
    trace = tree.trace
    if trace is not None:
        seed = (avoid - {start}) & trace.offerers
        if not seed:
            # no avoided host ever placed a winning offer, so barring
            # them from forwarding changes nothing: the original tree
            # stands
            return tree
    hosts = list(graph.hosts)
    if trace is not None and trace.relay_nodes is not None:
        relay_new = set(trace.relay_nodes) - avoid
    else:
        relay_new = set(hosts) - avoid
    if trace is None:
        return build_mmp_tree(
            graph, start, tree.epsilon, relay_nodes=relay_new
        )

    events = trace.events

    if dense is None:
        dense = _dense_of(graph)
    for _ in range(len(hosts) + 1):
        # taint closure: one chronological pass suffices, because a
        # node's own offers are always later events than the adoptions
        # that tainted it
        tainted = set(seed)
        for _, offerer, adoptee, _ in events:
            if offerer in tainted:
                tainted.add(adoptee)
        if 2 * len(tainted) > len(hosts):
            break  # repair would touch most of the graph anyway
        out = _replay_tainted(graph, tree, tainted, relay_new, dense)
        if isinstance(out, MinimaxTree):
            return out
        seed.update(out)  # verification re-tainted clean nodes; widen
    return build_mmp_tree(graph, start, tree.epsilon, relay_nodes=relay_new)


def _dense_of(graph: CostGraph) -> np.ndarray | None:
    """``graph.cost_matrix()`` when available, else None."""
    matfn = getattr(graph, "cost_matrix", None)
    if matfn is None:
        return None
    try:
        return matfn()
    except AttributeError:
        return None  # wrapper over a matrix-less graph


def _replay_tainted(
    graph: CostGraph,
    tree: MinimaxTree,
    tainted: set[str],
    relay_new: set[str],
    dense: np.ndarray | None,
) -> MinimaxTree | list[str]:
    """Re-run the MMP construction for ``tainted`` nodes only.

    Clean nodes (everything else) behave identically in the original
    run and the hypothetical rebuild: their adoptions all came from
    clean offerers (guaranteed by the taint closure), so their settle
    order, costs and outgoing offers are read straight off the recorded
    trace.  Tainted nodes run live Dijkstra mechanics — against the
    scripted offers of clean forwarders and against each other — with
    live settles merged into the *recorded* clean settle sequence.  The
    merge is exact: a live entry ``(b, v)`` pops before the next
    recorded clean settle ``(c, w)`` iff ``(b, v) < (c, w)``, which is
    precisely how the real heap would order them, because a clean
    node's final entry is always pushed during an earlier clean settle.

    Every offer a live node makes toward a clean node is checked
    against that node's replayed best-so-far; a hit means the clean
    node's rebuild would diverge after all (the ε filter makes costs
    non-monotone under node removal), and the hit names are returned so
    the caller can widen the taint set and retry.
    """
    start, eps = tree.start, tree.epsilon
    one = 1.0 + eps
    inf = math.inf
    hosts = list(graph.hosts)
    idx = {h: i for i, h in enumerate(hosts)}
    cost_orig, parent_orig = tree.cost, tree.parent
    trace = tree.trace

    # the recorded clean settle sequence, in true pop order
    clean_seq = [(cost_orig[w], w) for w in trace.settles if w not in tainted]

    # replayed clean state, one array slot per non-root clean node:
    # inf = not yet reached, -inf = settled (can never adopt again),
    # anything else = current best.  This doubles as the verification
    # bound — an exact one, since replay tracks the merged order.
    ver_name = [w for w in hosts if w not in tainted and w != start]
    vpos = {w: i for i, w in enumerate(ver_name)}
    if dense is not None:
        ver_idx = np.array([idx[w] for w in ver_name], dtype=np.intp)
    best_arr = np.full(len(ver_name), inf)

    # recorded adoptions grouped by offerer; clean adoptees only — the
    # tainted ones are re-derived live from the graph
    adopt_by: dict[str, list[tuple[int, float]]] = {}
    for _, offerer, adoptee, val in trace.events:
        if adoptee not in tainted:
            adopt_by.setdefault(offerer, []).append((vpos[adoptee], val))

    tainted_list = sorted(tainted)
    tpos = {v: i for i, v in enumerate(tainted_list)}
    if dense is not None:
        t_idx = np.array([idx[v] for v in tainted_list], dtype=np.intp)

    # Scripted offer from clean forwarder z to v is max(edge(z, v),
    # cost(z)), delivered the moment z settles.  Only strict running
    # minima can ever win: once an offer of value m has been delivered,
    # best[v] <= m*(1+eps) forever, so a later offer succeeds only if
    # strictly below m.  Each stream collapses to its prefix-minima
    # subsequence, keyed by position in the clean settle sequence.
    fwd_ci = [
        ci
        for ci, (_, z) in enumerate(clean_seq)
        if z == start or z in relay_new
    ]
    fwd_cost = np.array([clean_seq[ci][0] for ci in fwd_ci])
    if dense is not None:
        fwd_idx = np.array(
            [idx[clean_seq[ci][1]] for ci in fwd_ci], dtype=np.intp
        )
    deliver_at: dict[int, list[tuple[str, float]]] = {}
    for v in tainted_list:
        if dense is not None:
            vals = np.maximum(dense[fwd_idx, idx[v]], fwd_cost)
        else:
            vals = np.array(
                [
                    max(graph.cost(clean_seq[ci][1], v), clean_seq[ci][0])
                    for ci in fwd_ci
                ]
            )
        if not vals.size:
            continue
        run_min = np.minimum.accumulate(vals)
        prior = np.concatenate(([inf], run_min[:-1]))
        for j in np.nonzero(vals < prior)[0]:
            deliver_at.setdefault(fwd_ci[int(j)], []).append(
                (v, float(vals[j]))
            )

    best = {v: inf for v in tainted_list}
    bests = np.full(len(tainted_list), inf)
    par: dict[str, str] = {}
    new_cost: dict[str, float] = {}
    settled: set[str] = set()
    heap: list[tuple[float, str]] = []  # live tainted candidates

    ci = 0
    n_clean = len(clean_seq)
    while True:
        while heap and (
            heap[0][1] in settled or heap[0][0] > best[heap[0][1]]
        ):
            heapq.heappop(heap)  # stale
        have_clean = ci < n_clean
        if not heap and not have_clean:
            break
        if have_clean and (
            not heap or clean_seq[ci] < (heap[0][0], heap[0][1])
        ):
            # next event: a recorded clean settle
            _, z = clean_seq[ci]
            for p, val in adopt_by.get(z, ()):
                best_arr[p] = val  # replayed clean adoption
            pz = vpos.get(z)
            if pz is not None:
                best_arr[pz] = -inf  # z settles
            for v, val in deliver_at.get(ci, ()):
                if v not in settled and val * one < best[v]:
                    best[v] = val
                    bests[tpos[v]] = val
                    par[v] = z
                    heapq.heappush(heap, (val, v))
            ci += 1
            continue
        # next event: a live tainted settle
        b, v = heapq.heappop(heap)
        settled.add(v)
        new_cost[v] = b
        bests[tpos[v]] = -inf
        if v not in relay_new:
            continue  # reached, but barred from forwarding
        # live offers to the remaining tainted nodes
        if dense is not None:
            row = dense[idx[v], t_idx]
        else:
            row = np.array([graph.cost(v, w) for w in tainted_list])
        vals = np.maximum(row, b)
        for h in np.nonzero(vals * one < bests)[0]:
            w = tainted_list[int(h)]
            val = float(vals[h])
            best[w] = val
            bests[h] = val
            par[w] = v
            heapq.heappush(heap, (val, w))
        # verification: would this repaired node's offer beat any clean
        # node's replayed best right now?  best_arr is exact, so any
        # hit is a true divergence
        if dense is not None:
            vrow = dense[idx[v], ver_idx]
        else:
            vrow = np.array([graph.cost(v, w) for w in ver_name])
        hit = np.nonzero(np.maximum(vrow, b) * one < best_arr)[0]
        if hit.size:
            return [ver_name[int(h)] for h in hit]

    parent_new: dict[str, str] = {}
    cost_new: dict[str, float] = {}
    for node, c in cost_orig.items():
        if node not in tainted:
            cost_new[node] = c
            parent_new[node] = parent_orig[node]
    for v in settled:
        cost_new[v] = new_cost[v]
        parent_new[v] = par[v]
    return MinimaxTree(
        start=start, parent=parent_new, cost=cost_new, epsilon=eps
    )
