"""The all-source MMP forest and the scheduler's array sweeps.

:func:`build_mmp_forest` settles one node per source per iteration over
``(sources, hosts)`` arrays.  Every tree it returns must equal
:func:`build_mmp_tree` from the same source in ``parent`` (insertion
order included) and in ``cost`` (compared by ``repr`` as an item list,
so settle order, ``-0.0`` and the last bit count).
The matrices are tie-rich, carry ``±inf``, ``nan`` and signed-zero
edges, and name hosts so that sort order differs from index order,
since the heap breaks cost ties on the host name.

The scheduler's sweeps (:meth:`lsl_pairs`, :meth:`coverage`,
:meth:`all_route_tables`) build trees as one forest and decide with
array operations; they must equal a per-pair ``decide`` loop.  The
block probe :meth:`CliqueAggregator.observe_block` must equal one
``observe`` per value, and reject a bad block whole.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.minimax import build_mmp_forest, build_mmp_tree
from repro.core.scheduler import LogisticalScheduler
from repro.nws.matrix import CliqueAggregator, PerformanceMatrix

#: names whose sorted order is unrelated to the order they are drawn in
_NAMES = ["m", "b", "zz", "a10", "a2", "Q", "c", "a", "y1", "_x"]


class _Dense:
    """A graph with a dense cost matrix (entries equal ``cost``)."""

    def __init__(self, hosts, matrix) -> None:
        self.hosts = list(hosts)
        self._m = np.array(matrix, dtype=float)
        self._i = {h: i for i, h in enumerate(self.hosts)}

    def cost(self, src, dst):
        return float(self._m[self._i[src], self._i[dst]])

    def cost_matrix(self):
        return self._m.copy()


class _CostOnly:
    """A view of a graph exposing only ``hosts`` and ``cost``."""

    def __init__(self, graph) -> None:
        self.hosts = list(graph.hosts)
        self.cost = graph.cost


@st.composite
def _dense_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    hosts = draw(st.permutations(_NAMES))[:n]
    pool = draw(
        st.sampled_from(
            [
                (1.0, 2.0),
                (1.0, 2.0, 4.0),
                (0.5, 1.0, 2.0, math.inf, -math.inf, math.nan),
                (0.0, -0.0, 1.0, 1.05, math.inf),
            ]
        )
    )
    flat = draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
    return _Dense(hosts, np.array(flat).reshape(n, n))


def _relays(hosts):
    return st.none() | st.sets(st.sampled_from(hosts))


def _same_tree(forest_tree, heap_tree):
    assert list(forest_tree.parent.items()) == list(heap_tree.parent.items())
    assert repr(list(forest_tree.cost.items())) == repr(
        list(heap_tree.cost.items())
    )
    assert forest_tree.epsilon == heap_tree.epsilon


@given(_dense_graphs(), st.sampled_from([0.0, 0.1]), st.data())
def test_forest_equals_per_source_heap_builds(graph, epsilon, data):
    relay = data.draw(_relays(graph.hosts))
    sources = data.draw(
        st.none() | st.lists(st.sampled_from(graph.hosts), max_size=10)
    )
    forest = build_mmp_forest(graph, sources, epsilon, relay_nodes=relay)
    expected = graph.hosts if sources is None else list(dict.fromkeys(sources))
    assert list(forest) == expected
    for source in expected:
        _same_tree(
            forest[source],
            build_mmp_tree(graph, source, epsilon, relay_nodes=relay),
        )


@given(_dense_graphs(), st.sampled_from([0.0, 0.1]), st.data())
def test_forest_without_cost_matrix_builds_per_source(graph, epsilon, data):
    relay = data.draw(_relays(graph.hosts))
    forest = build_mmp_forest(_CostOnly(graph), None, epsilon, relay)
    for source in graph.hosts:
        _same_tree(
            forest[source], build_mmp_tree(graph, source, epsilon, relay)
        )


def test_forest_rejects_unknown_source_and_negative_epsilon():
    graph = _Dense(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(KeyError):
        build_mmp_forest(graph, ["a", "nope"])
    with pytest.raises(ValueError):
        build_mmp_forest(graph, None, -0.1)
    assert build_mmp_forest(graph, []) == {}


def test_forest_matches_heap_at_planetlab_scale():
    rng = np.random.default_rng(5)
    n = 60
    hosts = [f"h{i}" for i in rng.permutation(n)]
    # few distinct values: many ties for the name tie-break to settle
    graph = _Dense(hosts, rng.choice([1.0, 2.0, 3.0, np.inf], size=(n, n)))
    relay = set(hosts[::3])
    forest = build_mmp_forest(graph, None, 0.1, relay_nodes=relay)
    for source in hosts:
        _same_tree(forest[source], build_mmp_tree(graph, source, 0.1, relay))


# -- scheduler sweeps ---------------------------------------------------------


@st.composite
def _matrices(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    hosts = draw(st.permutations(_NAMES))[:n]
    pool = draw(st.sampled_from([(1.0, 2.0), (1.0, 2.0, 4.0), (3.0, 7.0)]))
    pm = PerformanceMatrix(hosts)
    for a, b in itertools.permutations(hosts, 2):
        bw = draw(st.sampled_from((None,) + pool))  # None: missing (NaN)
        if bw is not None:
            pm.set_bandwidth(a, b, bw)
    return pm


def _scheduler_kwargs(data, hosts):
    return dict(
        epsilon=data.draw(st.sampled_from([0.0, 0.1])),
        # 2.0 is a gain the pools below produce exactly
        min_gain=data.draw(st.sampled_from([1.0, 1.5, 2.0])),
        depot_hosts=data.draw(_relays(hosts)),
    )


def _assert_sweeps_equal_decide_loop(make):
    """Sweeps of one scheduler equal a per-pair loop over a fresh one."""
    swept, looped = make(), make()
    hosts = list(looped.hosts)
    decisions = {
        (s, d): looped.decide(s, d) for s in hosts for d in hosts if s != d
    }
    pairs = [pair for pair, dec in decisions.items() if dec.use_lsl]
    total = len(decisions)
    assert swept.lsl_pairs() == pairs
    assert swept.coverage() == (len(pairs) / total if total else 0.0)
    assert swept.all_route_tables() == {
        s: {
            d: decisions[s, d].route[1] if decisions[s, d].use_lsl else d
            for d in hosts
            if d != s
        }
        for s in hosts
    }
    # the tables are memoized per node; a lone lookup agrees
    for s in hosts:
        assert make().route_table(s) == swept.route_table(s)


@given(_matrices(), st.data())
def test_sweeps_equal_decide_loop_on_performance_matrix(pm, data):
    kwargs = _scheduler_kwargs(data, pm.hosts)
    _assert_sweeps_equal_decide_loop(lambda: LogisticalScheduler(pm, **kwargs))


@given(_matrices(), st.data())
def test_sweeps_equal_decide_loop_on_host_capped_graph(pm, data):
    kwargs = _scheduler_kwargs(data, pm.hosts)
    caps = data.draw(
        st.dictionaries(
            st.sampled_from(pm.hosts), st.sampled_from([0.0, 1.0, 2.0, 4.0])
        )
    )
    _assert_sweeps_equal_decide_loop(
        lambda: LogisticalScheduler(pm, host_bandwidth=caps, **kwargs)
    )


@given(_dense_graphs(), st.data())
def test_sweeps_equal_decide_loop_on_cost_only_graph(graph, data):
    kwargs = _scheduler_kwargs(data, graph.hosts)
    _assert_sweeps_equal_decide_loop(
        lambda: LogisticalScheduler(_CostOnly(graph), **kwargs)
    )


@given(_dense_graphs(), st.data())
def test_sweeps_equal_decide_loop_on_dense_graph(graph, data):
    kwargs = _scheduler_kwargs(data, graph.hosts)
    _assert_sweeps_equal_decide_loop(
        lambda: LogisticalScheduler(graph, **kwargs)
    )


def test_sweep_trees_serve_reroute():
    """Reroutes from a forest-warmed scheduler equal a fresh one's."""
    rng = np.random.default_rng(11)
    n = 12
    hosts = [f"h{i}" for i in range(n)]
    pm = PerformanceMatrix(hosts)
    for a, b in itertools.permutations(hosts, 2):
        pm.set_bandwidth(a, b, float(rng.choice([1.0, 2.0, 5.0, 9.0])))
    swept = LogisticalScheduler(pm)
    swept.lsl_pairs()
    fresh = LogisticalScheduler(pm)
    for src, dst, avoid in [("h0", "h5", {"h3"}), ("h4", "h1", {"h2", "h7"})]:
        assert swept.reroute(src, dst, avoid) == fresh.reroute(
            src, dst, avoid
        )


# -- block probes ---------------------------------------------------------------

_SITES = {"a1": "a", "a2": "a", "b1": "b", "c1": "c"}

_blocks = st.lists(
    st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    min_size=1,
    max_size=20,
)


def _state(agg):
    return repr(
        [
            (agg.forecast(s, d), agg.prediction_error(s, d))
            for s, d in itertools.permutations(sorted(_SITES), 2)
        ]
    )


_HOST_PAIRS = list(itertools.permutations(sorted(_SITES), 2))


@given(st.lists(st.tuples(st.sampled_from(_HOST_PAIRS), _blocks), max_size=6))
def test_block_observe_equals_per_value_observe(feeds):
    one, block = CliqueAggregator(_SITES), CliqueAggregator(_SITES)
    for (src, dst), values in feeds:
        for value in values:
            one.observe(src, dst, value)
        block.observe_block(src, dst, np.array(values))
    assert _state(block) == _state(one)
    assert block.stream_count() == one.stream_count()


@given(
    _blocks,
    _blocks,
    st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
    st.data(),
)
def test_bad_block_raises_and_changes_nothing(before, block, bad, data):
    agg = CliqueAggregator(_SITES)
    agg.observe_block("a1", "b1", np.array(before))
    agg.observe("a1", "c1", 5.0)
    state = _state(agg)
    at = data.draw(st.integers(min_value=0, max_value=len(block)))
    block = block[:at] + [bad] + block[at:]
    with pytest.raises(ValueError):
        agg.observe_block("a1", "b1", np.array(block))
    with pytest.raises(ValueError):
        agg.observe_block("a2", "c1", np.array(block))  # a new stream
    assert _state(agg) == state
    assert agg.stream_count() == 2


def test_block_observe_rejects_non_numeric_and_ignores_empty():
    agg = CliqueAggregator(_SITES)
    for values in (np.array([True, True]), np.array([[1.0, 2.0]]), ["1.0"]):
        with pytest.raises(ValueError):
            agg.observe_block("a1", "b1", values)
    agg.observe_block("a1", "b1", np.array([]))
    assert agg.stream_count() == 0
