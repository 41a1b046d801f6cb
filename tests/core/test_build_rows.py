"""The tree builder's row-fed relaxation equals a per-edge one.

:func:`build_mmp_tree` relaxes a settled node's out-edges as one row:
of ``graph.cost_matrix()`` when the graph has one, else of
``graph.cost`` over the unsettled nodes.  Both must build the same tree,
``parent`` in insertion order and ``cost`` in settle order, and both
must match the textbook loop of Appendix A, one ``graph.cost`` call per
edge (:func:`_per_edge_build`).  The matrices are tie-rich (a two- or
three-value bandwidth pool) and have missing entries.
"""

from __future__ import annotations

import heapq
import itertools
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.minimax import build_mmp_tree
from repro.core.scheduler import _HostCappedGraph
from repro.nws.matrix import PerformanceMatrix


class _CostOnly:
    """A view of a graph exposing only ``hosts`` and ``cost``."""

    def __init__(self, graph) -> None:
        self.hosts = list(graph.hosts)
        self.cost = graph.cost


def _per_edge_build(graph, start, epsilon, relay_nodes):
    """Appendix A with one ``graph.cost`` call per edge (the reference)."""
    hosts = list(graph.hosts)
    parent, cost = {start: start}, {start: 0.0}
    best = {h: math.inf for h in hosts}
    best[start] = 0.0
    done = set()
    heap = [(0.0, start)]
    while heap:
        node_cost, node = heapq.heappop(heap)
        if node in done or node_cost > best[node]:
            continue
        done.add(node)
        cost[node] = node_cost
        if relay_nodes is not None and node != start and node not in relay_nodes:
            continue
        for other in hosts:
            if other in done:
                continue
            edge = graph.cost(node, other)
            if not math.isfinite(edge):
                continue
            relax = max(edge, node_cost)
            if relax * (1.0 + epsilon) < best[other]:
                best[other] = relax
                parent[other] = node
                heapq.heappush(heap, (relax, other))
    return parent, cost


class _DictCosts:
    """A matrix-less graph whose costs may be nan or +-inf."""

    def __init__(self, hosts, costs) -> None:
        self.hosts = list(hosts)
        self._costs = costs

    def cost(self, src, dst):
        return self._costs.get((src, dst), math.inf)


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    hosts = [f"h{i}" for i in range(n)]
    pool = draw(st.sampled_from([(1.0, 2.0), (1.0, 2.0, 4.0), (3.0, 7.0)]))
    pm = PerformanceMatrix(hosts)
    for a, b in itertools.permutations(hosts, 2):
        bw = draw(st.sampled_from((None,) + pool))  # None: missing (NaN)
        if bw is not None:
            pm.set_bandwidth(a, b, bw)
    start = draw(st.sampled_from(hosts))
    epsilon = draw(st.sampled_from([0.0, 0.1]))
    relay = draw(st.none() | st.sets(st.sampled_from(hosts)))
    caps = draw(
        st.dictionaries(st.sampled_from(hosts), st.sampled_from(pool))
    )
    return pm, start, epsilon, relay, caps


def _ordered(parent, cost):
    """``parent`` and ``cost`` as item lists, so dict order counts."""
    return list(parent.items()), repr(list(cost.items()))


def _assert_same_build(graph, start, epsilon, relay):
    rows = build_mmp_tree(graph, start, epsilon, relay_nodes=relay)
    edges = build_mmp_tree(_CostOnly(graph), start, epsilon, relay_nodes=relay)
    assert _ordered(rows.parent, rows.cost) == _ordered(edges.parent, edges.cost)
    reference = _per_edge_build(graph, start, epsilon, relay)
    assert _ordered(rows.parent, rows.cost) == _ordered(*reference)


@given(_cases())
def test_matrix_rows_equal_per_edge_costs(case):
    pm, start, epsilon, relay, _ = case
    _assert_same_build(pm, start, epsilon, relay)


@given(_cases())
def test_capped_rows_equal_per_edge_costs(case):
    pm, start, epsilon, relay, caps = case
    _assert_same_build(_HostCappedGraph(pm, caps), start, epsilon, relay)


@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just([f"h{i}" for i in range(n)]),
            st.lists(
                st.sampled_from(
                    [0.5, 1.0, 2.0, math.inf, -math.inf, math.nan]
                ),
                min_size=n * n,
                max_size=n * n,
            ),
        )
    ),
    st.sampled_from([0.0, 0.1]),
)
def test_non_finite_costs_are_no_edges(case, epsilon):
    hosts, flat = case
    n = len(hosts)
    costs = {
        (a, b): flat[i * n + j]
        for (i, a), (j, b) in itertools.product(enumerate(hosts), repeat=2)
    }
    graph = _DictCosts(hosts, costs)
    tree = build_mmp_tree(graph, hosts[0], epsilon)
    assert _ordered(tree.parent, tree.cost) == _ordered(
        *_per_edge_build(graph, hosts[0], epsilon, None)
    )
