"""Rerouting around failed depots, against an independent oracle.

:meth:`LogisticalScheduler.reroute` bars the avoided hosts from
forwarding and rebuilds the tree.  The oracle never passes a relay set:
it runs :meth:`LogisticalScheduler.decide` on a view of the graph whose
avoided hosts have every out-edge at ``inf``, so they still settle in
the tree but never offer a hop.  The property tests generate tie-rich
random meshes (small bandwidth pools make equal minimax costs common)
and random avoid sets, including ones that disconnect the destination.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minimax import build_mmp_tree
from repro.core.scheduler import LogisticalScheduler
from repro.nws.matrix import PerformanceMatrix

from tests.core.graphs import DictGraph


def _random_matrix(
    n: int, seed: int, density: float, pool: tuple[float, ...]
) -> PerformanceMatrix:
    """A random directed mesh over a small bandwidth pool (tie-rich)."""
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(n)]
    pm = PerformanceMatrix(hosts)
    for a, b in itertools.permutations(hosts, 2):
        if rng.random() < density:
            pm.set_bandwidth(a, b, rng.choice(pool))
    return pm


def _random_dict_graph(
    n: int, seed: int, density: float, pool: tuple[float, ...]
) -> DictGraph:
    """Same meshes without ``cost_matrix`` — the per-edge cost path."""
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(n)]
    costs = {}
    for a, b in itertools.permutations(hosts, 2):
        if rng.random() < density:
            costs[(a, b)] = 1.0 / rng.choice(pool)
    return DictGraph(hosts, costs)


class _Barred:
    """``graph`` with every out-edge of the ``barred`` hosts at ``inf``."""

    def __init__(self, graph, barred) -> None:
        self._graph = graph
        self.hosts = list(graph.hosts)
        self._barred = set(barred)

    def cost(self, src: str, dst: str) -> float:
        return math.inf if src in self._barred else self._graph.cost(src, dst)

    def cost_matrix(self) -> np.ndarray:
        """Raises :class:`AttributeError` when ``graph`` has no matrix."""
        m = np.array(self._graph.cost_matrix(), dtype=float)
        m[[i for i, h in enumerate(self.hosts) if h in self._barred]] = math.inf
        return m


mesh_params = st.tuples(
    st.integers(min_value=3, max_value=9),  # hosts
    st.integers(min_value=0, max_value=10**6),  # seed
    st.sampled_from([0.3, 0.6, 1.0]),  # density
    st.sampled_from([(1.0, 2.0), (1.0, 2.0, 4.0)]),  # bandwidth pool
    st.sampled_from([0.0, 0.1, 0.3]),  # epsilon
)


def _mesh(params, dense):
    n, seed, density, pool, _ = params
    if dense:
        return _random_matrix(n, seed, density, pool)
    return _random_dict_graph(n, seed, density, pool)


class TestRerouteMatchesBarredGraph:
    @given(
        params=mesh_params,
        avoid_bits=st.integers(min_value=0, max_value=2**9 - 1),
        restrict=st.booleans(),
        dense=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_relay_restriction_equals_barred_graph(
        self, params, avoid_bits, restrict, dense
    ):
        """Random mesh, random avoid set (possibly disconnecting),
        optional relay restriction, both graph flavours: removing hosts
        from ``relay_nodes`` builds the tree of the barred graph."""
        graph = _mesh(params, dense)
        n, seed, eps = params[0], params[1], params[4]
        hosts = graph.hosts
        start = hosts[seed % n]
        relay = (
            {h for i, h in enumerate(hosts) if (seed >> i) & 1} | {start}
            if restrict
            else None
        )
        # avoid set from the bitmask; never the start node
        avoid = {
            h
            for i, h in enumerate(hosts)
            if (avoid_bits >> i) & 1 and h != start
        }
        relay_new = (set(relay) if relay is not None else set(hosts)) - avoid
        rebuilt = build_mmp_tree(graph, start, eps, relay_nodes=relay_new)
        oracle = build_mmp_tree(
            _Barred(graph, avoid), start, eps, relay_nodes=relay
        )
        assert list(rebuilt.parent.items()) == list(oracle.parent.items())
        assert repr(list(rebuilt.cost.items())) == repr(
            list(oracle.cost.items())
        )

    @given(
        params=mesh_params,
        avoid_bits=st.integers(min_value=0, max_value=2**9 - 1),
        dense=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_reroute_equals_decide_on_barred_graph(
        self, params, avoid_bits, dense
    ):
        """End to end: ``reroute`` decisions equal ``decide`` on the
        barred graph, including host caps, min_gain and depot sets."""
        graph = _mesh(params, dense)
        n, seed, eps = params[0], params[1], params[4]
        hosts = graph.hosts
        rng = random.Random(seed ^ 0xBEEF)
        src, dst = rng.sample(hosts, 2)
        kwargs = {"epsilon": eps}
        if rng.random() < 0.5:
            kwargs["host_bandwidth"] = {
                h: rng.choice([0.5, 1.0, 8.0])
                for h in rng.sample(hosts, rng.randint(1, n))
            }
        if rng.random() < 0.3:
            kwargs["min_gain"] = 1.2
        if rng.random() < 0.3:
            kwargs["depot_hosts"] = set(rng.sample(hosts, rng.randint(0, n)))
        avoid = {
            h
            for i, h in enumerate(hosts)
            if (avoid_bits >> i) & 1 and h not in (src, dst)
        }
        rerouted = LogisticalScheduler(graph, **kwargs).reroute(src, dst, avoid)
        oracle = LogisticalScheduler(_Barred(graph, avoid), **kwargs)
        assert rerouted == oracle.decide(src, dst)


class TestRerouteEdgeCases:
    def _line_graph(self):
        # a -1- b -1- c plus a weak direct edge a-c: relaying via b wins
        return DictGraph(
            ["a", "b", "c"],
            {
                ("a", "b"): 1.0,
                ("b", "a"): 1.0,
                ("b", "c"): 1.0,
                ("c", "b"): 1.0,
                ("a", "c"): 10.0,
                ("c", "a"): 10.0,
            },
        )

    def test_avoiding_the_relay_falls_back_to_direct(self):
        sched = LogisticalScheduler(self._line_graph(), epsilon=0.0)
        assert sched.decide("a", "c").route == ["a", "b", "c"]
        decision = sched.reroute("a", "c", {"b"})
        assert decision.route == ["a", "c"]  # the weak direct edge
        assert decision.scheduled_cost == 10.0

    def test_disconnecting_avoid_set_unreaches_dest(self):
        # no direct a-c edge at all: avoiding b strands c entirely
        g = DictGraph(
            ["a", "b", "c"],
            {
                ("a", "b"): 1.0,
                ("b", "a"): 1.0,
                ("b", "c"): 1.0,
                ("c", "b"): 1.0,
            },
        )
        assert build_mmp_tree(g, "a").reached("c")
        assert not build_mmp_tree(g, "a", relay_nodes={"a", "c"}).reached("c")
        decision = LogisticalScheduler(g).reroute("a", "c", {"b"})
        assert decision.route == ["a", "c"]
        assert not decision.use_lsl
        assert decision.scheduled_cost == math.inf

    def test_scheduler_falls_back_to_direct_when_disconnected(self):
        pm = PerformanceMatrix(["a", "b", "c"])
        pm.set_bandwidth("a", "b", 10.0)
        pm.set_bandwidth("b", "c", 10.0)
        pm.set_bandwidth("a", "c", 1.0)
        sched = LogisticalScheduler(pm, epsilon=0.0)
        assert sched.decide("a", "c").use_lsl
        decision = sched.reroute("a", "c", {"b"})
        assert decision.route == ["a", "c"]
        assert not decision.use_lsl
        oracle = LogisticalScheduler(_Barred(pm, {"b"}), epsilon=0.0)
        assert decision == oracle.decide("a", "c")

    def test_large_avoid_set_matches_barred_graph(self):
        # avoid most forwarders of a larger mesh than the property
        # tests draw
        pm = _random_matrix(12, 77, 1.0, (1.0, 2.0))
        src, dst = pm.hosts[0], pm.hosts[-1]
        avoid = set(pm.hosts[1:9])
        decision = LogisticalScheduler(pm, epsilon=0.1).reroute(
            src, dst, avoid
        )
        oracle = LogisticalScheduler(_Barred(pm, avoid), epsilon=0.1)
        assert decision == oracle.decide(src, dst)

    def test_avoiding_endpoints_is_rejected(self):
        pm = _random_matrix(4, 5, 1.0, (1.0, 2.0))
        sched = LogisticalScheduler(pm)
        a, b, c = pm.hosts[:3]
        with pytest.raises(ValueError, match="endpoint"):
            sched.reroute(a, b, {a})
        with pytest.raises(ValueError, match="endpoint"):
            sched.reroute(a, b, {b, c})

    def test_reroute_does_not_poison_the_tree_cache(self):
        pm = _random_matrix(6, 9, 1.0, (1.0, 2.0, 4.0))
        sched = LogisticalScheduler(pm, epsilon=0.1)
        src, dst = pm.hosts[0], pm.hosts[-1]
        before = sched.decide(src, dst)
        sched.reroute(src, dst, {pm.hosts[1], pm.hosts[2]})
        assert sched.decide(src, dst) == before


class TestRouteTableMemoization:
    def test_first_hops_matches_next_hop(self):
        pm = _random_matrix(9, 21, 0.6, (1.0, 2.0, 4.0))
        tree = build_mmp_tree(pm, pm.hosts[0], 0.1)
        hops = tree.first_hops()
        for dest in tree.parent:
            if dest != tree.start:
                assert hops[dest] == tree.next_hop(dest)
        assert hops is tree.first_hops()  # memoized

    def test_route_table_cached_and_consistent_with_decide(self):
        pm = _random_matrix(8, 33, 1.0, (1.0, 2.0, 4.0))
        sched = LogisticalScheduler(pm, epsilon=0.1, min_gain=1.1)
        node = pm.hosts[0]
        table = sched.route_table(node)
        for dest, hop in table.items():
            decision = sched.decide(node, dest)
            expected = decision.route[1] if decision.use_lsl else dest
            assert hop == expected
        # cache hit returns an equal but independent mapping
        again = sched.route_table(node)
        assert again == table
        again[pm.hosts[1]] = "poisoned"
        assert sched.route_table(node) == table

    def test_invalidate_clears_route_table_cache(self):
        pm = _random_matrix(5, 3, 1.0, (1.0, 2.0))
        sched = LogisticalScheduler(pm, epsilon=0.1)
        node = pm.hosts[0]
        sched.route_table(node)
        assert node in sched._route_tables
        sched.invalidate()
        assert not sched._route_tables
        assert sched._dense is None

    def test_dense_cache_matches_scalar_costs(self):
        pm = _random_matrix(7, 11, 0.6, (1.0, 2.0, 4.0))
        sched = LogisticalScheduler(
            pm, host_bandwidth={pm.hosts[2]: 0.5, pm.hosts[3]: 4.0}
        )
        dense = sched._dense_cost()
        hosts = sched.hosts
        for i, a in enumerate(hosts):
            for j, b in enumerate(hosts):
                if i == j:
                    continue
                expected = sched._graph.cost(a, b)
                got = float(dense[i, j])
                assert got == expected or (
                    math.isinf(got) and math.isinf(expected)
                )
