"""Multicast staging tree tests."""

import pytest

from repro.lsl.failover import NoRouteLeft
from repro.lsl.faults import RetryPolicy
from repro.lsl.multicast import StagingTree, staging_time_model
from repro.lsl.multicast_failover import MulticastFailoverSender
from repro.lsl.options import MulticastTreeOption
from repro.lsl.socket_transport import DepotServer
from repro.net.topology import PathSpec


ROOT = ("10.0.0.1", 9000)
LEFT = ("10.0.0.2", 9000)
RIGHT = ("10.0.0.3", 9000)
DEEP = ("10.0.0.4", 9000)


#: Fail-fast policy for the loopback staging tests.
POLICY = RetryPolicy(
    max_retries=0,
    base_delay=0.01,
    jitter=0.0,
    io_timeout=5.0,
    connect_timeout=0.5,
)


def staging_tree(root, left, right, deep) -> StagingTree:
    """Root with two children; the left child has one of its own."""
    return StagingTree.from_parent_map(
        root, {root: [left, right], left: [deep]}
    )


def simple_tree() -> StagingTree:
    return staging_tree(ROOT, LEFT, RIGHT, DEEP)


class TestStagingTree:
    def test_from_parent_map_structure(self):
        t = simple_tree()
        assert t.root == ROOT
        assert len(t) == 4
        assert t.children_of(0) == [1, 2]

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            StagingTree.from_parent_map(ROOT, {ROOT: [LEFT, LEFT]})

    def test_unreachable_adjacency_key_rejected(self):
        # a children_of key that never connects to the root used to be
        # silently dropped, losing its whole subtree from the wire tree
        with pytest.raises(ValueError, match="unreachable"):
            StagingTree.from_parent_map(
                ROOT, {ROOT: [LEFT], RIGHT: [DEEP]}
            )

    def test_wide_tree_builds_in_bfs_order(self):
        hosts = [(f"10.1.{i // 200}.{i % 200}", 9000) for i in range(600)]
        t = StagingTree.from_parent_map(ROOT, {ROOT: hosts})
        assert len(t) == 601
        assert t.children_of(0) == list(range(1, 601))

    def test_option_roundtrip(self):
        t = simple_tree()
        restored = StagingTree.from_option(
            MulticastTreeOption(nodes=t.to_option().nodes)
        )
        assert restored.nodes == t.nodes

    def test_leaves(self):
        t = simple_tree()
        leaf_addrs = {t.address_of(i) for i in t.leaves()}
        assert leaf_addrs == {RIGHT, DEEP}

    def test_path_to(self):
        t = simple_tree()
        deep_idx = next(
            i for i in range(len(t)) if t.address_of(i) == DEEP
        )
        path = [t.address_of(i) for i in t.path_to(deep_idx)]
        assert path == [ROOT, LEFT, DEEP]


class TestSimulateStaging:
    """Staging ``simple_tree``'s shape over loopback depots."""

    def test_every_node_receives_full_payload(self):
        payload = bytes(range(256)) * 500
        depots = [DepotServer(retry=POLICY) for _ in range(4)]
        try:
            tree = staging_tree(*(depot.address for depot in depots))
            staged = MulticastFailoverSender(tree, retry=POLICY).stage(payload)
            received = {
                depot.address: depot.held.get(staged.session)
                for depot in depots
            }
        finally:
            for depot in depots:
                depot.kill()
        assert set(staged.delivered) == set(received)
        for copy in received.values():
            assert copy == payload

    def test_missing_depot_raises(self):
        depots = [DepotServer(retry=POLICY) for _ in range(4)]
        try:
            tree = staging_tree(*(depot.address for depot in depots))
            depots[3].kill()  # the deep node's depot is gone
            sender = MulticastFailoverSender(
                tree, retry=POLICY, max_failovers=1
            )
            with pytest.raises(NoRouteLeft):
                sender.stage(b"x")
            # the deep node is last in delivery order: the live nodes
            # were staged before its branch ran out of routes
            assert all(depot.held for depot in depots[:3])
        finally:
            for depot in depots:
                depot.kill()


class TestStagingTimeModel:
    def path_spec_of(self, a, b):
        return PathSpec.from_mbit(40, 100)

    def test_single_branch_matches_relay_model(self):
        from repro.models.relay import relay_transfer_time

        t = StagingTree.from_parent_map(ROOT, {ROOT: [LEFT]})
        size = 4 << 20
        expected = relay_transfer_time(
            [self.path_spec_of(ROOT, LEFT)], size
        )
        assert staging_time_model(t, self.path_spec_of, size) == pytest.approx(
            expected
        )

    def test_deepest_branch_dominates(self):
        shallow = StagingTree.from_parent_map(ROOT, {ROOT: [LEFT, RIGHT]})
        deep = simple_tree()
        size = 4 << 20
        assert staging_time_model(
            deep, self.path_spec_of, size
        ) > staging_time_model(shallow, self.path_spec_of, size)

    def test_root_only_tree_rejected(self):
        # a root-only tree has no edges to stage over: the old model
        # silently returned 0.0, hiding a degenerate tree from callers
        t = StagingTree.from_parent_map(ROOT, {})
        with pytest.raises(ValueError, match="no edges"):
            staging_time_model(t, self.path_spec_of, 1 << 20)

    def test_missing_edge_spec_names_the_edge(self):
        def gappy(a, b):
            if b == DEEP:
                return None
            return self.path_spec_of(a, b)

        with pytest.raises(ValueError, match=r"10\.0\.0\.4"):
            staging_time_model(simple_tree(), gappy, 1 << 20)

    def test_striped_staging_beats_single_on_lossy_tree(self):
        lossy = PathSpec.from_mbit(60, 200, loss_rate=1e-3)
        single = staging_time_model(
            simple_tree(), lambda a, b: lossy, 32 << 20
        )
        striped = staging_time_model(
            simple_tree(), lambda a, b: lossy, 32 << 20, stripes=4
        )
        assert striped < single

    def test_striping_hurts_tiny_payloads(self):
        # below the crossover the (N-1) serialized handshake RTTs
        # dominate any aggregation win
        lossy = PathSpec.from_mbit(60, 200, loss_rate=1e-3)
        single = staging_time_model(
            simple_tree(), lambda a, b: lossy, 64 << 10
        )
        striped = staging_time_model(
            simple_tree(), lambda a, b: lossy, 64 << 10, stripes=4
        )
        assert striped > single
