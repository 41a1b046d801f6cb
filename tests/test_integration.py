"""Cross-package integration tests.

These exercise whole pipelines the way a deployment would:

* sensors -> aggregation -> scheduler -> route-table validation;
* scheduler -> route tables -> a loopback depot -> byte-exact sessions
  (hop-by-hop forwarding mode, no source routes);
* campaign statistics versus a direct fluid-simulator replay of the
  same route decisions.
"""

import pytest

from repro.core.scheduler import LogisticalScheduler
from repro.core.validate import validate_scheduler
from repro.lsl.header import SessionHeader, new_session_id
from repro.lsl.routetable import RouteTable
from repro.lsl.socket_transport import DepotServer, SinkServer, send_session
from repro.net.simulator import NetworkSimulator
from repro.nws.matrix import CliqueAggregator
from repro.nws.sensor import SensorNetwork
from repro.testbed.experiment import CampaignConfig, run_campaign
from repro.testbed.planetlab import PlanetLabConfig, generate_planetlab
from repro.testbed.stats import group_cases
from repro.util.rng import RngStream
from repro.util.units import mb


@pytest.fixture(scope="module")
def small_testbed():
    return generate_planetlab(PlanetLabConfig(n_sites=12), seed=17)


class TestSensorsToScheduler:
    def test_full_pipeline_produces_valid_routes(self, small_testbed):
        """Probes from token cliques, aggregated per site pair, feed a
        scheduler whose route tables must be loop-free."""
        rng = RngStream(5, "probe-noise")

        def measure(src, dst):
            return small_testbed.true_bandwidth(src, dst) * float(
                rng.lognormal(0, 0.05)
            )

        sensors = SensorNetwork(small_testbed.site_of, measure, seed=2)
        aggregator = CliqueAggregator(small_testbed.site_of)
        # run long enough for several full inter-site token rounds
        inter = sensors.cliques[0]
        count = sensors.feed(aggregator, until=4 * inter.round_duration())
        assert count > 0

        matrix = aggregator.build_matrix()
        assert matrix.is_complete()

        scheduler = LogisticalScheduler(matrix)
        report = validate_scheduler(scheduler, max_stretch=None)
        assert report.ok, report.violations[:3]

    def test_probe_staleness_is_bounded(self, small_testbed):
        """Every site pair is re-probed at least once per token round."""
        sensors = SensorNetwork(
            small_testbed.site_of, lambda a, b: 1e6, seed=3
        )
        inter = sensors.cliques[0]
        records = inter.run_until(2 * inter.round_duration())
        pairs = {(r.src, r.dst) for r in records}
        n = len(inter.members)
        assert len(pairs) == n * (n - 1)


class TestSchedulerToDepotEngines:
    """Hop-by-hop forwarding (route tables, no source route) through a
    real depot on loopback sockets, end to end, byte for byte."""

    HOSTS = {
        # host name -> fake IPv4 (the wire format wants addresses)
        "src": "10.1.0.1",
        "depot": "10.1.0.2",
        "dst": "10.1.0.3",
    }

    def make_scheduler(self):
        from tests.core.graphs import DictGraph, symmetric

        ips = self.HOSTS
        graph = DictGraph(
            list(ips.values()),
            symmetric(
                {
                    (ips["src"], ips["depot"]): 1.0,
                    (ips["depot"], ips["dst"]): 1.0,
                    (ips["src"], ips["dst"]): 10.0,
                }
            ),
        )
        return LogisticalScheduler(graph, epsilon=0.0)

    def test_table_driven_forwarding(self):
        ips = self.HOSTS
        scheduler = self.make_scheduler()
        # the source's table sends the session to the depot first
        src_table = RouteTable.from_scheduler(scheduler, ips["src"])
        assert src_table.next_hop(ips["dst"]) == ips["depot"]
        # from the depot, dst is one hop: the default (direct) route
        depot_table = RouteTable.from_scheduler(scheduler, ips["depot"])
        assert not depot_table.is_relayed(ips["dst"])

        payload = RngStream(9).generator.bytes(100_000)
        with SinkServer() as sink:
            # the fake hosts live on loopback listeners; the depot's
            # table translates each next hop it would dial into one
            listener = {ips["dst"]: sink.address}
            host, port = listener[depot_table.next_hop(ips["dst"])]
            route_table = {ips["dst"]: f"{host}:{port}"}
            with DepotServer(route_table=route_table) as depot:
                listener[ips["depot"]] = depot.address
                # no source route: the depot must forward by its table
                header = SessionHeader(
                    session_id=new_session_id(),
                    src_ip=ips["src"],
                    dst_ip=ips["dst"],
                    src_port=5000,
                    dst_port=6000,
                )
                send_session(
                    payload, header, listener[src_table.next_hop(ips["dst"])]
                )
                assert sink.wait_for(header.hex_id) == payload
                arrived = sink.headers[header.hex_id]
        assert (arrived.dst_ip, arrived.dst_port) == (ips["dst"], 6000)


class TestCampaignVsFluidSimulator:
    """The campaign's analytic measurements must agree in *sign* with a
    fluid-simulator replay of the same route decisions (noise-free)."""

    def test_decisions_replay_consistently(self, small_testbed):
        result = run_campaign(
            small_testbed,
            CampaignConfig(
                iterations=1,
                max_cases=6,
                measure_noise_sigma=0.0,
                depot_load_median=1.0,
                depot_load_sigma=0.0,
            ),
            seed=21,
        )
        sim = NetworkSimulator(seed=4)
        size = mb(8)
        agree = 0
        total = 0
        for (src, dst), decision in list(result.decisions.items())[:4]:
            if not decision.use_lsl:
                continue
            total += 1
            direct_spec = small_testbed.sublink_spec(src, dst)
            relay_specs = small_testbed.route_specs(decision.route)
            d = sim.run_direct(direct_spec, size, record_trace=False)
            r = sim.run_relay(relay_specs, size, record_trace=False)
            analytic_cases = group_cases(
                [
                    m
                    for m in result.measurements
                    if (m.src, m.dst) == (src, dst) and m.size == size
                ]
            )
            if not analytic_cases:
                total -= 1
                continue
            analytic_wins = analytic_cases[0].speedup > 1.0
            fluid_wins = r.bandwidth > d.bandwidth
            agree += analytic_wins == fluid_wins
        assert total > 0
        # sign agreement on at least 3 of 4 replayed decisions
        assert agree >= total - 1
