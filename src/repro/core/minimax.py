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

Complexity is ``O(E log V)`` with the lazy heap used here; the paper's
fully connected graphs make ``E = V²``.

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
class BuildTrace:
    """Execution record of one :func:`build_mmp_tree` run.

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
    """

    relay_nodes: frozenset[str] | None
    events: list[tuple[float, str, str, float]]
    settles: list[str]
    _offerers: frozenset[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
