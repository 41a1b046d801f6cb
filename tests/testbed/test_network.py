"""Testbed abstraction tests."""

import math

import pytest

from repro.net.topology import Topology
from repro.testbed.network import Testbed, gateway_name


def tiny_testbed(**overrides):
    """Two sites, three hosts, explicit link numbers."""
    topo = Topology()
    gw_a, gw_b = gateway_name("a.edu"), gateway_name("b.edu")
    topo.add_host("h1.a.edu", socket_buffer=64 << 10)
    topo.add_host("h2.a.edu", socket_buffer=64 << 10)
    topo.add_host("h3.b.edu", socket_buffer=64 << 10)
    topo.add_host(gw_a)
    topo.add_host(gw_b)
    topo.add_symmetric_link("h1.a.edu", gw_a, 0.0002, 12.5e6)
    topo.add_symmetric_link("h2.a.edu", gw_a, 0.0002, 12.5e6)
    topo.add_symmetric_link("h3.b.edu", gw_b, 0.0002, 12.5e6)
    topo.add_symmetric_link(gw_a, gw_b, 0.02, 6e6, loss_rate=1e-4)
    kwargs = dict(
        hosts=["h1.a.edu", "h2.a.edu", "h3.b.edu"],
        site_of={
            "h1.a.edu": "a.edu",
            "h2.a.edu": "a.edu",
            "h3.b.edu": "b.edu",
        },
        topology=topo,
        gateway_routes={
            ("a.edu", "b.edu"): [gw_a, gw_b],
            ("b.edu", "a.edu"): [gw_b, gw_a],
        },
    )
    kwargs.update(overrides)
    return Testbed(**kwargs)


class TestConstruction:
    def test_missing_site_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            tiny_testbed(site_of={"h1.a.edu": "a.edu"})

    def test_default_depots_are_all_hosts(self):
        tb = tiny_testbed()
        assert set(tb.depot_hosts) == set(tb.hosts)

    def test_default_endpoints_exclude_dedicated_depots(self):
        tb = tiny_testbed(depot_hosts=["h2.a.edu"])
        assert set(tb.endpoint_hosts) == {"h1.a.edu", "h3.b.edu"}

    def test_all_depots_means_all_endpoints(self):
        tb = tiny_testbed()
        assert set(tb.endpoint_hosts) == set(tb.hosts)


class TestSublinkSpec:
    def test_inter_site_composes_links(self):
        tb = tiny_testbed()
        spec = tb.sublink_spec("h1.a.edu", "h3.b.edu")
        assert spec.rtt == pytest.approx(2 * (0.0002 + 0.02 + 0.0002))
        assert spec.bandwidth == pytest.approx(6e6)
        assert spec.loss_rate == pytest.approx(1e-4)

    def test_intra_site_through_gateway(self):
        tb = tiny_testbed()
        spec = tb.sublink_spec("h1.a.edu", "h2.a.edu")
        assert spec.rtt == pytest.approx(2 * 2 * 0.0002)
        assert spec.bandwidth == pytest.approx(12.5e6)

    def test_same_host_rejected(self):
        with pytest.raises(ValueError):
            tiny_testbed().sublink_spec("h1.a.edu", "h1.a.edu")

    def test_rate_cap_applies_to_either_end(self):
        tb = tiny_testbed(rate_cap={"h1.a.edu": 1e6})
        assert tb.sublink_spec("h1.a.edu", "h3.b.edu").bandwidth == 1e6
        assert tb.sublink_spec("h3.b.edu", "h1.a.edu").bandwidth == 1e6
        # uncapped pair unaffected
        assert tb.sublink_spec("h2.a.edu", "h3.b.edu").bandwidth == 6e6

    def test_buffers_come_from_endpoints(self):
        tb = tiny_testbed()
        spec = tb.sublink_spec("h1.a.edu", "h3.b.edu")
        assert spec.send_buffer == 64 << 10
        assert spec.recv_buffer == 64 << 10


class TestRouteSpecs:
    def test_per_hop_specs(self):
        tb = tiny_testbed()
        specs = tb.route_specs(["h1.a.edu", "h2.a.edu", "h3.b.edu"])
        assert len(specs) == 2

    def test_short_route_rejected(self):
        with pytest.raises(ValueError):
            tiny_testbed().route_specs(["h1.a.edu"])

    def test_forward_cap_hits_depot_adjacent_hops(self):
        tb = tiny_testbed(forward_cap={"h2.a.edu": 1e5})
        specs = tb.route_specs(["h1.a.edu", "h2.a.edu", "h3.b.edu"])
        assert specs[0].bandwidth == 1e5  # into the depot
        assert specs[1].bandwidth == 1e5  # out of the depot

    def test_endpoints_forward_cap_not_charged(self):
        tb = tiny_testbed(forward_cap={"h1.a.edu": 1e3, "h3.b.edu": 1e3})
        specs = tb.route_specs(["h1.a.edu", "h2.a.edu", "h3.b.edu"])
        # neither endpoint forwards, so their caps must not apply
        assert all(s.bandwidth > 1e3 for s in specs)


class TestSchedulerInputs:
    def test_true_bandwidth_positive_and_finite(self):
        tb = tiny_testbed()
        bw = tb.true_bandwidth("h1.a.edu", "h3.b.edu")
        assert 0 < bw < math.inf

    def test_true_bandwidth_window_limited_on_long_path(self):
        tb = tiny_testbed()
        spec = tb.sublink_spec("h1.a.edu", "h3.b.edu")
        # 64 KB window over ~40 ms: below the 6 Mbit wire? window rate:
        expected = min(spec.window_limit / spec.rtt, spec.bandwidth)
        assert tb.true_bandwidth("h1.a.edu", "h3.b.edu") <= expected * 1.01

    def test_site_pairs(self):
        tb = tiny_testbed()
        assert ("a.edu", "b.edu") in tb.site_pairs()
        assert len(tb.site_pairs()) == 2

    def test_hosts_at(self):
        tb = tiny_testbed()
        assert tb.hosts_at("a.edu") == ["h1.a.edu", "h2.a.edu"]


class TestTrueBandwidths:
    """The array pass equals :meth:`true_bandwidth` per pair, bit for bit."""

    @staticmethod
    def _assert_equal(tb, pairs):
        got = tb.true_bandwidths(pairs).tolist()
        assert repr(got) == repr([tb.true_bandwidth(s, d) for s, d in pairs])

    def test_tiny_testbed_every_pair(self):
        tb = tiny_testbed(rate_cap={"h3.b.edu": 1e5, "h1.a.edu": 3e6})
        self._assert_equal(
            tb, [(s, d) for s in tb.hosts for d in tb.hosts if s != d]
        )

    def test_generated_testbeds(self):
        from repro.testbed.abilene import abilene_testbed
        from repro.testbed.planetlab import PlanetLabConfig, generate_planetlab

        for tb in (
            generate_planetlab(PlanetLabConfig(n_sites=12), seed=3),
            abilene_testbed(seed=1),
        ):
            pairs = [(s, d) for s in tb.hosts for d in tb.hosts if s != d]
            self._assert_equal(tb, pairs[::7])

    def test_empty_and_invalid(self):
        tb = tiny_testbed(rate_cap={"h3.b.edu": -1.0})
        assert tb.true_bandwidths([]).size == 0
        with pytest.raises(ValueError):
            tb.true_bandwidths([("h1.a.edu", "h1.a.edu")])
        # a non-positive cap fails as the capped PathSpec would
        with pytest.raises(ValueError, match="bandwidth"):
            tb.true_bandwidth("h1.a.edu", "h3.b.edu")
        with pytest.raises(ValueError, match="bandwidth"):
            tb.true_bandwidths(
                [("h1.a.edu", "h2.a.edu"), ("h1.a.edu", "h3.b.edu")]
            )
