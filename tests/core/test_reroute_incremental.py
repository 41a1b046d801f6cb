"""Differential suite pinning incremental reroute to the full rebuild.

:func:`repair_mmp_tree` promises *exact* equivalence — parent pointers
and float costs identical to ``build_mmp_tree`` over the reduced relay
set, not merely equal path costs.  The property tests here generate
tie-rich random meshes (small bandwidth pools make equal minimax costs
common, which is where the settle-order bookkeeping can go wrong) and
random avoid sets, including ones that disconnect the destination or
sever most of the graph (driving the repair into its full-rebuild
fallback).
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minimax import build_mmp_tree, repair_mmp_tree
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
    """Same meshes without ``cost_matrix`` — the scalar repair path."""
    rng = random.Random(seed)
    hosts = [f"h{i}" for i in range(n)]
    costs = {}
    for a, b in itertools.permutations(hosts, 2):
        if rng.random() < density:
            costs[(a, b)] = 1.0 / rng.choice(pool)
    return DictGraph(hosts, costs)


mesh_params = st.tuples(
    st.integers(min_value=3, max_value=9),  # hosts
    st.integers(min_value=0, max_value=10**6),  # seed
    st.sampled_from([0.3, 0.6, 1.0]),  # density
    st.sampled_from([(1.0, 2.0), (1.0, 2.0, 4.0)]),  # bandwidth pool
    st.sampled_from([0.0, 0.1, 0.3]),  # epsilon
)


class TestRepairMatchesRebuild:
    @given(
        params=mesh_params,
        avoid_bits=st.integers(min_value=0, max_value=2**9 - 1),
        restrict=st.booleans(),
        dense=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_repair_equals_rebuild(
        self, params, avoid_bits, restrict, dense
    ):
        """Random mesh, random avoid set (possibly disconnecting),
        optional relay restriction, both graph flavours."""
        n, seed, density, pool, eps = params
        graph = (
            _random_matrix(n, seed, density, pool)
            if dense
            else _random_dict_graph(n, seed, density, pool)
        )
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
        tree = build_mmp_tree(graph, start, eps, relay_nodes=relay)
        relay_new = (set(relay) if relay is not None else set(hosts)) - avoid
        oracle = build_mmp_tree(graph, start, eps, relay_nodes=relay_new)
        repaired = repair_mmp_tree(graph, tree, avoid)
        assert repaired.parent == oracle.parent
        assert repaired.cost == oracle.cost

    @given(
        params=mesh_params,
        avoid_bits=st.integers(min_value=0, max_value=2**9 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_scheduler_reroute_paths_agree(self, params, avoid_bits):
        """End to end: ``reroute(incremental=True)`` decisions equal the
        from-scratch oracle, including host caps and min_gain."""
        n, seed, density, pool, eps = params
        pm = _random_matrix(n, seed, density, pool)
        hosts = pm.hosts
        rng = random.Random(seed ^ 0xBEEF)
        src, dst = rng.sample(hosts, 2)
        kwargs = {}
        if rng.random() < 0.5:
            kwargs["host_bandwidth"] = {
                h: rng.choice([0.5, 1.0, 8.0])
                for h in rng.sample(hosts, rng.randint(1, n))
            }
        if rng.random() < 0.3:
            kwargs["min_gain"] = 1.2
        sched = LogisticalScheduler(pm, epsilon=eps, **kwargs)
        avoid = {
            h
            for i, h in enumerate(hosts)
            if (avoid_bits >> i) & 1 and h not in (src, dst)
        }
        fast = sched.reroute(src, dst, avoid)
        slow = sched.reroute(src, dst, avoid, incremental=False)
        assert fast == slow


class TestRepairEdgeCases:
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

    def test_empty_avoid_returns_cached_tree_object(self):
        g = self._line_graph()
        tree = build_mmp_tree(g, "a")
        assert repair_mmp_tree(g, tree, set()) is tree

    def test_avoiding_a_leaf_returns_cached_tree_object(self):
        # c never forwards in a's tree, so avoiding it changes nothing
        g = self._line_graph()
        tree = build_mmp_tree(g, "a")
        assert tree.parent["c"] == "b"
        assert repair_mmp_tree(g, tree, {"c"}) is tree

    def test_avoiding_the_relay_falls_back_to_direct(self):
        g = self._line_graph()
        tree = build_mmp_tree(g, "a")
        repaired = repair_mmp_tree(g, tree, {"b"})
        oracle = build_mmp_tree(g, "a", relay_nodes={"a", "c"})
        assert repaired.parent == oracle.parent
        assert repaired.cost == oracle.cost
        assert repaired.parent["c"] == "a"  # the weak direct edge

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
        tree = build_mmp_tree(g, "a")
        assert tree.reached("c")
        repaired = repair_mmp_tree(g, tree, {"b"})
        assert not repaired.reached("c")
        oracle = build_mmp_tree(g, "a", relay_nodes={"a", "c"})
        assert repaired.parent == oracle.parent
        assert repaired.cost == oracle.cost

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
        assert decision == sched.reroute("a", "c", {"b"}, incremental=False)

    def test_traceless_tree_falls_back_to_rebuild(self):
        g = self._line_graph()
        tree = build_mmp_tree(g, "a")
        tree.trace = None  # simulate a hand-built tree
        repaired = repair_mmp_tree(g, tree, {"b"})
        oracle = build_mmp_tree(g, "a", relay_nodes={"a", "c"})
        assert repaired.parent == oracle.parent
        assert repaired.cost == oracle.cost

    def test_repaired_tree_is_itself_repairable_via_fallback(self):
        # repaired trees carry no trace; a second repair must still be
        # exact (it re-derives from scratch)
        n, seed = 8, 1234
        pm = _random_matrix(n, seed, 1.0, (1.0, 2.0, 4.0))
        start = pm.hosts[0]
        tree = build_mmp_tree(pm, start, 0.1)
        once = repair_mmp_tree(pm, tree, {pm.hosts[1]})
        twice = repair_mmp_tree(pm, once, {pm.hosts[1], pm.hosts[2]})
        oracle = build_mmp_tree(
            pm,
            start,
            0.1,
            relay_nodes=set(pm.hosts) - {pm.hosts[1], pm.hosts[2]},
        )
        assert twice.parent == oracle.parent
        assert twice.cost == oracle.cost

    def test_large_avoid_set_takes_dense_fallback(self):
        # avoid most forwarders: the taint region crosses the half-graph
        # threshold and the full rebuild must still match exactly
        n, seed = 12, 77
        pm = _random_matrix(n, seed, 1.0, (1.0, 2.0))
        start = pm.hosts[0]
        tree = build_mmp_tree(pm, start, 0.1)
        avoid = set(pm.hosts[1:9])
        oracle = build_mmp_tree(
            pm, start, 0.1, relay_nodes=set(pm.hosts) - avoid
        )
        repaired = repair_mmp_tree(pm, tree, avoid)
        assert repaired.parent == oracle.parent
        assert repaired.cost == oracle.cost

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
        # the cached fault-free tree still carries its trace
        assert sched.tree(src).trace is not None


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
