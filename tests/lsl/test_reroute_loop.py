"""The reroute loop both failover senders share, exercised through each.

:class:`~repro.lsl.failover.FailoverSender` and
:class:`~repro.lsl.multicast_failover.MulticastFailoverSender` run the
same probe → breaker → reroute → resume loop; every case here runs
against both.  A *chain* case is the d1-d2-d3 relay of
``test_failover.failover_graph`` whose preferred route crosses d2; a
*tree* case is a root → mid → leaf staging tree whose leaf is staged
through mid.  Either way one relay (d2, mid) has a detour around it.
"""

import pytest

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.failover import FailoverSender, NoRouteLeft
from repro.lsl.faults import RetryPolicy
from repro.lsl.health import HealthMonitor
from repro.lsl.multicast import StagingTree
from repro.lsl.multicast_failover import MulticastFailoverSender
from repro.lsl.socket_transport import DepotServer, SinkServer
from repro.util.rng import RngStream

from tests.core.graphs import DictGraph, symmetric
from tests.lsl.test_failover import POLICY, failover_graph

#: Breakers forced open stay open for the whole test.
LONG_COOLDOWN = RetryPolicy(base_delay=60.0, max_delay=60.0, jitter=0.0)

KINDS = ("chain", "tree")


def payload_bytes(size=256 << 10):
    return RngStream(5, "reroute-loop/payload").generator.bytes(size)


def label(server):
    return f"127.0.0.1:{server.port}"


class Case:
    """Live servers plus a sender of one kind around one relay.

    ``deliver(payload)`` runs the sender and returns ``(tried,
    failovers, avoided)``: the relays dialed toward the detoured target,
    as the sender's report lists them, and the report's counters.
    ``detour`` is what ``tried`` must read when the relay is skipped.
    """

    def __init__(self, kind, max_failovers):
        names = ("d1", "d2", "d3", "sink") if kind == "chain" else (
            "root", "mid", "leaf"
        )
        self.servers = {
            name: SinkServer(name=name) if name == "sink"
            else DepotServer(name=name, retry=POLICY)
            for name in names
        }
        if kind == "chain":
            self.relay = "d2"
            endpoints = {n: s.address for n, s in self.servers.items()}
            self.health = HealthMonitor(endpoints, cooldown=LONG_COOLDOWN)
            self.sender = FailoverSender(
                LogisticalScheduler(failover_graph()), endpoints,
                source="src", dest="sink", retry=POLICY,
                health=self.health, max_failovers=max_failovers,
            )
            self.detour = [["src", "d1", "d3", "sink"]]
        else:
            self.relay = label(self.servers["mid"])
            root, mid, leaf = self.servers.values()
            tree = StagingTree(
                nodes=(
                    (-1, *root.address), (0, *mid.address), (1, *leaf.address)
                )
            )
            self.health = HealthMonitor(
                {label(s): s.address for s in self.servers.values()},
                cooldown=LONG_COOLDOWN,
            )
            self.sender = MulticastFailoverSender(
                tree, retry=POLICY, health=self.health,
                max_failovers=max_failovers,
            )
            self.detour = [[root.address]]

    def deliver(self, payload):
        if isinstance(self.sender, FailoverSender):
            report = self.sender.send(payload)
            assert self.servers["sink"].wait_for(report.session) == payload
            return report.routes, report.failovers, report.avoided
        staged = self.sender.stage(payload)
        for server in self.servers.values():
            assert server.held.get(staged.session) == payload
        leaf = self.servers["leaf"].address
        return staged.chains[leaf], staged.failovers, staged.avoided

    def close(self):
        for server in self.servers.values():
            server.kill()


@pytest.fixture
def case():
    cases = []

    def build(kind, max_failovers=3):
        cases.append(Case(kind, max_failovers))
        return cases[-1]

    yield build
    for built in cases:
        built.close()


@pytest.mark.parametrize("kind", KINDS)
class TestSharedLoop:
    def test_open_breaker_is_avoided_before_dialing(self, kind, case):
        live = case(kind)
        live.health.breaker(live.relay).force_open()
        tried, failovers, avoided = live.deliver(payload_bytes())
        assert tried == live.detour
        assert failovers == 0  # nothing failed; the relay was pre-avoided
        assert avoided == {live.relay}

    def test_open_breaker_spends_no_failover(self, kind, case):
        """Re-asking around an open breaker is not an attempt: with no
        failover budget at all the detour still carries the session."""
        live = case(kind, max_failovers=0)
        live.health.breaker(live.relay).force_open()
        tried, failovers, avoided = live.deliver(payload_bytes())
        assert tried == live.detour
        assert failovers == 0
        assert avoided == {live.relay}

    def test_direct_route_with_nothing_to_blame_raises(self, kind):
        """A dead target reached with no relay on the way gives up at
        once: there is no host to avoid, so no failover is spent."""
        dead = SinkServer(name="sink") if kind == "chain" else DepotServer()
        address = dead.address
        dead.close()
        if kind == "chain":
            graph = DictGraph(
                ["src", "sink"], symmetric({("src", "sink"): 1.0})
            )
            sender = FailoverSender(
                LogisticalScheduler(graph), {"sink": address},
                source="src", dest="sink", retry=POLICY,
            )
            run = sender.send
        else:
            sender = MulticastFailoverSender(
                StagingTree(nodes=((-1, *address),)), retry=POLICY
            )
            run = sender.stage
        with pytest.raises(NoRouteLeft, match=r"after 0 failover\(s\)"):
            run(b"x" * 1024)
