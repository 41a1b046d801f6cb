"""Mid-transfer failover: kill a depot, reroute, finish byte-exact.

The golden scenario is the acceptance case for this subsystem: a 3-depot
relay loses its middle depot mid-transfer, the sender diagnoses the
route, asks the scheduler for a reroute avoiding the dead host and the
session completes over the fallback with every surviving hop resuming
from its ledger.  ``GOLDEN_SEQUENCES`` pins the exact per-stream event
ordering; the equivalence test then requires the simulator mirror to
reproduce it event for event.
"""

import threading
import time

import pytest

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.failover import FailoverSender
from repro.lsl.faults import FaultKind, FaultPlan, FaultRule, RetryPolicy
from repro.lsl.header import new_session_id
from repro.lsl.health import BreakerState, HealthMonitor
from repro.lsl.socket_transport import DepotServer, SinkServer
from repro.net.simulator import NetworkSimulator
from repro.net.topology import PathSpec
from repro.obs.registry import Registry
from repro.obs.timeline import SessionTimeline
from repro.util.rng import RngStream

from tests.core.graphs import DictGraph, symmetric

PAYLOAD_SIZE = 8 << 20
FAIL_AFTER = 256 << 10

#: Fail-fast policy: the budget is spent on *reroutes*, not same-route
#: reconnects, which keeps the event sequences below exact.
POLICY = RetryPolicy(
    max_retries=0,
    base_delay=0.01,
    jitter=0.0,
    io_timeout=5.0,
    connect_timeout=2.0,
)

#: Per-(node, stream) event ordering for the golden scenario, identical
#: across the socket transport and the simulator.  Phase 1 runs until
#: d2 dies (connect/header_tx/first_byte everywhere, then the source's
#: error + failover); phase 2 resumes every surviving hop from its
#: ledger (second header exchange + resume) and carries the session to
#: completion (progress watermarks, eof, complete).
GOLDEN_SEQUENCES = {
    ("src", "down"): (
        "connect", "header_tx", "error", "failover",
        "connect", "header_tx", "resume", "complete",
    ),
    ("d1", "up"): (
        "header_rx", "first_byte", "header_rx", "resume",
        "progress", "progress", "progress", "eof",
    ),
    ("d1", "down"): (
        "connect", "header_tx", "connect", "header_tx", "resume",
        "complete",
    ),
    ("d2", "up"): ("header_rx", "first_byte"),
    ("d2", "down"): ("connect", "header_tx"),
    ("d3", "up"): (
        "header_rx", "first_byte", "header_rx", "resume",
        "progress", "progress", "progress", "eof",
    ),
    ("d3", "down"): (
        "connect", "header_tx", "connect", "header_tx", "resume",
        "complete",
    ),
    ("sink", "up"): (
        "header_rx", "first_byte", "header_rx", "resume",
        "progress", "progress", "progress", "eof",
    ),
}


def failover_graph():
    """src--d1--d2--d3--sink chain plus the d1--d3 shortcut the reroute
    uses once d2 is avoided (direct src--sink is far worse)."""
    return DictGraph(
        ["src", "d1", "d2", "d3", "sink"],
        symmetric(
            {
                ("src", "d1"): 1.0,
                ("d1", "d2"): 1.0,
                ("d2", "d3"): 1.0,
                ("d3", "sink"): 1.0,
                ("d1", "d3"): 2.0,
                ("src", "sink"): 10.0,
            }
        ),
    )


def payload_bytes(size=PAYLOAD_SIZE, seed=7):
    return RngStream(seed, "failover/payload").generator.bytes(size)


def make_relay(registry, timeline, fault_plan=None):
    """Three depots + sink sharing one registry/timeline/fault plan."""
    servers = {
        name: DepotServer(
            name=name,
            fault_plan=fault_plan,
            retry=POLICY,
            registry=registry,
            timeline=timeline,
        )
        for name in ("d1", "d2", "d3")
    }
    servers["sink"] = SinkServer(
        name="sink",
        fault_plan=fault_plan,
        registry=registry,
        timeline=timeline,
    )
    endpoints = {name: server.address for name, server in servers.items()}
    return servers, endpoints


class SettledHealthMonitor(HealthMonitor):
    """A monitor whose diagnosis waits for phase-1 bytes downstream.

    The bytes d2 forwarded before it died are already on their way to
    d3 and the sink.  A receiver thread that has not staged them by the
    time the rerouted session reaches it sees its stripe claimed afresh,
    drops them as superseded and resumes from zero, so the golden
    ``resume`` events of that hop vanish.  Diagnosis comes before every
    reroute, so waiting here pins the interleaving the scenario means:
    every surviving hop holds phase-1 bytes when phase 2 starts.
    """

    def __init__(self, *args, timeline, downstream, **kwargs):
        super().__init__(*args, **kwargs)
        self._timeline = timeline
        self._downstream = set(downstream)

    def diagnose(self, names=None):
        deadline = time.monotonic() + 10.0
        while self._downstream - {
            e.node
            for e in self._timeline.events()
            if e.event == "first_byte" and e.stream == "up"
        }:
            assert time.monotonic() < deadline, "phase-1 bytes never landed"
            time.sleep(0.001)
        return super().diagnose(names)


class TestGoldenFailover:
    def run_golden(self):
        """The acceptance scenario on real sockets; returns everything
        the assertions need."""
        registry = Registry()
        timeline = SessionTimeline()
        # d2 dies mid-stream after 256 KB, then refuses every reconnect
        # (and every probe) — a depot that crashed and stayed down
        plan = FaultPlan(
            [
                FaultRule("d2", FaultKind.DROP, after_bytes=FAIL_AFTER),
                FaultRule(
                    "d2",
                    FaultKind.REFUSE,
                    times=1000,
                    after_fired=("d2", FaultKind.DROP),
                ),
            ]
        )
        servers, endpoints = make_relay(registry, timeline, plan)
        payload = payload_bytes()
        try:
            health = SettledHealthMonitor(
                endpoints,
                probe_timeout_s=1.0,
                failure_threshold=1,
                cooldown=POLICY,
                registry=registry,
                timeline=timeline,
                downstream=("d3", "sink"),
            )
            sender = FailoverSender(
                LogisticalScheduler(failover_graph()),
                endpoints,
                source="src",
                dest="sink",
                retry=POLICY,
                health=health,
                source_name="src",
                registry=registry,
                timeline=timeline,
                fault_plan=plan,
            )
            report = sender.send(payload)
            delivered = servers["sink"].wait_for(report.session)
        finally:
            for server in servers.values():
                server.kill()
        return report, delivered, payload, registry, timeline, plan

    def test_session_completes_byte_exact_over_the_reroute(self):
        report, delivered, payload, _, _, plan = self.run_golden()
        assert delivered == payload
        assert report.failovers == 1
        assert report.routes == [
            ["src", "d1", "d2", "d3", "sink"],
            ["src", "d1", "d3", "sink"],
        ]
        assert report.avoided == {"d2"}
        assert report.send.payload_bytes == PAYLOAD_SIZE
        # both rules actually fired, in order: the kill then the refusal
        assert plan.fired[:2] == [
            ("d2", FaultKind.DROP),
            ("d2", FaultKind.REFUSE),
        ]

    def test_event_sequences_match_the_golden_schema(self):
        report, _, _, _, timeline, _ = self.run_golden()
        assert timeline.sequences(report.session) == GOLDEN_SEQUENCES

    def test_failover_surfaces_in_metrics_and_timeline(self):
        report, _, _, registry, timeline, _ = self.run_golden()
        failovers = registry.counter(
            "lsl_failovers_total", labels={"node": "src"}
        )
        assert failovers.value == 1
        # the diagnosis probe tripped d2's breaker open, exported live
        assert registry.gauge(
            "lsl_breaker_state", labels={"target": "d2"}
        ).value == BreakerState.OPEN.value
        assert registry.counter(
            "lsl_breaker_transitions_total",
            labels={"target": "d2", "to": "open"},
        ).value == 1
        events = [
            e
            for e in timeline.events(report.session)
            if e.event == "failover"
        ]
        assert len(events) == 1
        assert events[0].node == "src"
        assert events[0].detail == "avoid=d2"

    def test_simulator_reproduces_identical_event_ordering(self):
        """The acceptance equivalence: the virtual-time mirror of the
        same scenario emits the same per-stream sequences."""
        timeline = SessionTimeline()
        sim = NetworkSimulator(seed=1)
        spec = PathSpec(rtt=0.02, bandwidth=1e7)
        result = sim.run_relay_with_failover(
            primary_paths=[spec] * 4,
            fallback_paths=[spec] * 3,
            size=PAYLOAD_SIZE,
            fail_sublink=1,
            fail_after_bytes=FAIL_AFTER,
            primary_names=["src", "d1", "d2", "d3", "sink"],
            fallback_names=["src", "d1", "d3", "sink"],
            timeline=timeline,
            session="sim-golden",
        )
        assert timeline.sequences("sim-golden") == GOLDEN_SEQUENCES
        assert result.failovers == 1
        assert result.failed_node == "d2"
        assert result.fallback_route == ["src", "d1", "d3", "sink"]
        # anonymous (session-less) stream errors land on the same nodes
        # in both stacks: each receiver that lost its upstream
        anon = {
            (e.node, e.stream)
            for e in timeline.events()
            if e.event == "error" and e.session == ""
        }
        assert anon == {
            ("d1", "up"), ("d2", "up"), ("d3", "up"), ("sink", "up"),
        }


class TestRealKill:
    def test_killed_middle_depot_fails_over(self):
        """Same scenario with an actual server kill() instead of an
        injected fault plan: timings are real, so only the outcome and
        the failover markers are asserted, not exact sequences."""
        registry = Registry()
        timeline = SessionTimeline()
        servers, endpoints = make_relay(registry, timeline)
        payload = payload_bytes(32 << 20, seed=11)
        session_id = new_session_id()
        session = session_id.hex()

        def kill_when_flowing():
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if servers["sink"].staged_bytes(session) >= (1 << 20):
                    servers["d2"].kill()
                    return
                time.sleep(0.0005)

        killer = threading.Thread(target=kill_when_flowing)
        try:
            sender = FailoverSender(
                LogisticalScheduler(failover_graph()),
                endpoints,
                source="src",
                dest="sink",
                retry=POLICY,
                source_name="src",
                registry=registry,
                timeline=timeline,
            )
            killer.start()
            report = sender.send(payload, session_id=session_id)
            delivered = servers["sink"].wait_for(session)
        finally:
            killer.join(timeout=35.0)
            for server in servers.values():
                server.kill()
        assert delivered == payload
        assert report.failovers == 1
        assert report.avoided == {"d2"}
        assert report.routes[-1] == ["src", "d1", "d3", "sink"]
        failover_events = [
            e for e in timeline.events(session) if e.event == "failover"
        ]
        assert [e.detail for e in failover_events] == ["avoid=d2"]


class TestFailoverSenderEdges:
    def test_constructor_validation(self):
        graph = DictGraph(
            ["src", "sink"], symmetric({("src", "sink"): 1.0})
        )
        scheduler = LogisticalScheduler(graph)
        with pytest.raises(ValueError):
            FailoverSender(scheduler, {}, source="src", dest="sink")
        with pytest.raises(ValueError):
            FailoverSender(
                scheduler,
                {"sink": ("127.0.0.1", 1)},
                source="src",
                dest="sink",
                max_failovers=-1,
            )
