"""Failover-aware multicast staging over real sockets.

The :class:`MulticastFailoverSender` replicates one payload down a
depot tree, parents before children, so each branch streams from its
nearest complete ancestor's retained ledger.  These tests pin the three
load-bearing behaviours: ancestor replay (deep nodes cost the source
zero payload bytes), per-branch re-grafting when a depot dies
mid-staging (siblings undisturbed), and the claim-ticket path — a
tree-staged session is an ordinary parked session any node can serve
through the async pickup protocol.
"""

import socket
import threading
import time

import pytest

from repro.core.scheduler import LogisticalScheduler
from repro.lsl.failover import NoRouteLeft
from repro.lsl.faults import FaultKind, FaultPlan, FaultRule, RetryPolicy
from repro.lsl.multicast import StagingTree
from repro.lsl.multicast_failover import MulticastFailoverSender
from repro.obs.timeline import SessionTimeline
from repro.lsl.socket_transport import DepotServer, fetch_pickup
from repro.util.rng import RngStream

from tests.core.graphs import DictGraph, symmetric

POLICY = RetryPolicy(
    max_retries=1,
    base_delay=0.01,
    multiplier=1.5,
    max_delay=0.05,
    jitter=0.0,
    io_timeout=5.0,
    connect_timeout=2.0,
)


def payload_bytes(size, seed=31):
    return RngStream(seed, "mc-failover/payload").generator.bytes(size)


def make_depots(names):
    return {name: DepotServer(name=name, retry=POLICY) for name in names}


def make_tree(servers, parents):
    """Build a StagingTree over live depot listeners.

    ``servers`` is an ordered list; ``parents[i]`` indexes it (-1 for
    the root).
    """
    return StagingTree(
        nodes=tuple(
            (parents[i], "127.0.0.1", servers[i].port)
            for i in range(len(servers))
        )
    )


def kill_all(servers):
    for server in servers:
        server.kill()


def dead_address():
    """A loopback address nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return ("127.0.0.1", port)


class TestHealthyStaging:
    def test_every_node_parks_a_byte_exact_copy(self):
        payload = payload_bytes(200_000)
        depots = make_depots(["root", "relay", "leaf", "side"])
        servers = list(depots.values())
        try:
            # root -> relay -> leaf, root -> side
            tree = make_tree(servers, [-1, 0, 1, 0])
            sender = MulticastFailoverSender(tree, retry=POLICY)
            staged = sender.stage(payload, chunk_size=16 << 10)
            held = {
                name: depot.held.get(staged.session)
                for name, depot in depots.items()
            }
        finally:
            kill_all(servers)
        assert staged.failovers == 0
        assert staged.avoided == set()
        assert all(copy == payload for copy in held.values()), held.keys()
        # healthy branches try exactly one ancestor chain each
        assert all(len(chains) == 1 for chains in staged.chains.values())

    def test_deep_node_replays_from_ancestor_ledger(self):
        """The tentpole economy: a deep delivery re-crosses zero payload
        bytes upstream — the nearest staged ancestor replays its ledger."""
        payload = payload_bytes(150_000)
        depots = make_depots(["root", "mid", "deep"])
        servers = list(depots.values())
        try:
            tree = make_tree(servers, [-1, 0, 1])
            sender = MulticastFailoverSender(tree, retry=POLICY)
            staged = sender.stage(payload, chunk_size=16 << 10)
            deep_copy = depots["deep"].held.get(staged.session)
        finally:
            kill_all(servers)
        assert deep_copy == payload
        reports = list(staged.delivered.values())
        # the root ingests the payload once; both descendants ride the
        # retained ledgers, costing the source nothing
        assert reports[0].high_water == len(payload)
        assert reports[1].high_water == 0
        assert reports[2].high_water == 0

    def test_striped_staging_is_byte_exact(self):
        payload = payload_bytes(300_000)
        depots = make_depots(["root", "left", "right"])
        servers = list(depots.values())
        try:
            tree = make_tree(servers, [-1, 0, 0])
            sender = MulticastFailoverSender(
                tree, retry=POLICY, stripes=3, stripe_block=8 << 10
            )
            staged = sender.stage(payload, chunk_size=16 << 10)
            held = [d.held.get(staged.session) for d in servers]
        finally:
            kill_all(servers)
        assert staged.stripes == 3
        assert all(copy == payload for copy in held)
        # one connection per stripe on every healthy hop
        assert all(
            r.attempts == 3 for r in staged.delivered.values()
        ), staged.delivered


    def test_empty_payload_rejected(self):
        sender = MulticastFailoverSender(
            StagingTree(nodes=((-1, *dead_address()),)), retry=POLICY
        )
        with pytest.raises(ValueError, match="non-empty"):
            sender.stage(b"")


class TestMidStagingKill:
    def test_orphan_regrafts_to_surviving_ancestor(self):
        """Kill the relay once it holds the session; its child must
        replay from the root while the root's other branch is untouched."""
        payload = payload_bytes(4 << 20)
        depots = make_depots(["root", "relay", "side", "orphan"])
        servers = list(depots.values())
        # ascending delivery order: root, relay, side, orphan
        tree = make_tree(servers, [-1, 0, 0, 1])
        timeline = SessionTimeline()
        sender = MulticastFailoverSender(
            tree, retry=POLICY, max_failovers=2, timeline=timeline
        )

        def killer():
            # trigger on the *side* branch parking its copy: delivery is
            # sequential, so by then the relay's branch is fully acked
            # (killing between the relay's park and its final ack would
            # fail the relay's own branch instead of orphaning its child)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if depots["side"].held:
                    depots["relay"].kill()
                    return
                time.sleep(0.0005)

        thread = threading.Thread(target=killer, name="relay-killer")
        thread.start()
        try:
            staged = sender.stage(payload, chunk_size=16 << 10)
        finally:
            thread.join()
            kill_all(servers)
        assert staged.failovers == 1
        orphan_addr = tree.address_of(3)
        chains = staged.chains[orphan_addr]
        assert len(chains) == 2
        # first try went through the relay, the re-graft skips it
        assert len(chains[0]) == 2
        assert chains[1] == [tree.address_of(0)]
        assert depots["orphan"].held.get(staged.session) == payload
        assert depots["side"].held.get(staged.session) == payload
        events = [
            e for e in timeline.events() if e.event == "failover"
        ]
        assert len(events) == 1
        assert "branch=" in events[0].detail
        assert "avoid=" in events[0].detail

    def test_dead_branch_exhausts_regraft_budget(self):
        depots = make_depots(["root"])
        servers = list(depots.values())
        try:
            tree = StagingTree(
                nodes=(
                    (-1, "127.0.0.1", servers[0].port),
                    (0, *dead_address()),
                )
            )
            sender = MulticastFailoverSender(
                tree,
                retry=RetryPolicy(
                    max_retries=0,
                    base_delay=0.01,
                    jitter=0.0,
                    io_timeout=2.0,
                    connect_timeout=0.5,
                ),
                max_failovers=1,
            )
            with pytest.raises(NoRouteLeft):
                sender.stage(payload_bytes(10_000))
        finally:
            kill_all(servers)


class TestSchedulerRegraft:
    def test_orphan_regrafts_through_an_off_tree_depot(self):
        """With a scheduler attached, the orphan of a dead relay is
        re-grafted over ``scheduler.reroute``'s chain, which here runs
        through a depot outside the tree."""
        payload = payload_bytes(600_000)
        # the relay dies (refusing every connection and probe) while the
        # side branch, staged just before the orphan, is streaming
        plan = FaultPlan(
            [
                FaultRule("side", FaultKind.STALL, after_bytes=1),
                FaultRule(
                    "relay",
                    FaultKind.REFUSE,
                    times=1000,
                    after_fired=("side", FaultKind.STALL),
                ),
            ]
        )
        names = ["root", "relay", "side", "orphan", "spare"]
        depots = {
            name: DepotServer(name=name, retry=POLICY, fault_plan=plan)
            for name in names
        }
        servers = list(depots.values())
        # root -> relay -> orphan, root -> side; spare is off the tree
        tree = make_tree(servers[:4], [-1, 0, 0, 1])
        graph = DictGraph(
            ["source", *names],
            symmetric(
                {
                    ("source", "root"): 1.0,
                    ("root", "relay"): 1.0,
                    ("root", "side"): 1.0,
                    ("relay", "orphan"): 1.0,
                    ("root", "spare"): 2.0,
                    ("spare", "orphan"): 2.0,
                    ("source", "orphan"): 10.0,
                }
            ),
        )
        timeline = SessionTimeline()
        sender = MulticastFailoverSender(
            tree,
            retry=POLICY,
            max_failovers=1,
            scheduler=LogisticalScheduler(graph),
            host_names={d.address: name for name, d in depots.items()},
            timeline=timeline,
            fault_plan=plan,
        )
        try:
            staged = sender.stage(payload, chunk_size=16 << 10)
            held = {
                name: depot.held.get(staged.session)
                for name, depot in depots.items()
            }
        finally:
            kill_all(servers)
        root, relay, spare = (
            depots[n].address for n in ("root", "relay", "spare")
        )
        assert staged.chains[depots["orphan"].address] == [
            [root, relay],
            [root, spare],
        ]
        assert staged.failovers == 1
        assert staged.avoided == {"relay"}
        assert held["orphan"] == payload
        assert held["side"] == payload
        # the spare forwarded the orphan's copy; it parks nothing
        assert held["spare"] is None
        [event] = [e for e in timeline.events() if e.event == "failover"]
        assert event.detail == "branch=orphan avoid=relay"


class TestClaimTicketPickup:
    def test_tree_staged_session_serves_async_pickup(self):
        """Satellite: a session deposited through a staging tree is an
        ordinary parked session — any node serves it via the pickup
        protocol, and the claim pops that node's copy only."""
        payload = payload_bytes(120_000)
        depots = make_depots(["root", "leaf-a", "leaf-b"])
        servers = list(depots.values())
        try:
            tree = make_tree(servers, [-1, 0, 0])
            sender = MulticastFailoverSender(tree, retry=POLICY)
            staged = sender.stage(payload, chunk_size=16 << 10)
            session_id = bytes.fromhex(staged.session)
            got = fetch_pickup(
                ("127.0.0.1", depots["leaf-a"].port), session_id
            )
            # the claim is per node: leaf-a's ticket is spent, but the
            # other copies are still parked
            leftover = depots["leaf-a"].held.get(staged.session)
            sibling = depots["leaf-b"].held.get(staged.session)
        finally:
            kill_all(servers)
        assert got == payload
        assert leftover is None
        assert sibling == payload

    def test_pickup_of_unknown_session_yields_no_bytes(self):
        # the depot refuses server-side (and logs it); the client gets a
        # ValueError, never a partial or foreign payload
        depots = make_depots(["root"])
        servers = list(depots.values())
        try:
            with pytest.raises(ValueError, match="refused the claim"):
                fetch_pickup(("127.0.0.1", depots["root"].port), bytes(16))
        finally:
            kill_all(servers)
