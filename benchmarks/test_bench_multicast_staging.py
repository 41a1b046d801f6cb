"""Staging-tree shapes for synchronous multicast (Section 2, ref [33]).

The LSL header's multicast option stages one data set to many sites.
This bench compares tree shapes for an 8-site staging job: a star from
the source, a chain, and a balanced binary tree.  Pipelining makes
depth remarkably cheap — a node forwards while it receives, so each
extra level adds only a ramp-and-latency offset, not a full transfer
time.  The 7-deep chain therefore lands within a few percent of the
1-deep star, and every shape crushes sequential unicast.
"""

import pytest

from repro.lsl.multicast import StagingTree, staging_time_model
from repro.net.topology import PathSpec
from repro.report.tables import TextTable
from repro.util.units import mb


ADDRS = [(f"10.0.0.{i + 1}", 9000) for i in range(8)]
EDGE = PathSpec.from_mbit(30, 100, loss_rate=5e-5)
SIZE = mb(64)


def star() -> StagingTree:
    return StagingTree.from_parent_map(ADDRS[0], {ADDRS[0]: ADDRS[1:]})


def chain() -> StagingTree:
    return StagingTree.from_parent_map(
        ADDRS[0], {ADDRS[i]: [ADDRS[i + 1]] for i in range(len(ADDRS) - 1)}
    )


def binary() -> StagingTree:
    children = {}
    for i in range(len(ADDRS)):
        kids = [ADDRS[j] for j in (2 * i + 1, 2 * i + 2) if j < len(ADDRS)]
        if kids:
            children[ADDRS[i]] = kids
    return StagingTree.from_parent_map(ADDRS[0], children)


def test_staging_tree_shapes(benchmark):
    def compute():
        return {
            "star": staging_time_model(star(), lambda a, b: EDGE, SIZE),
            "chain": staging_time_model(chain(), lambda a, b: EDGE, SIZE),
            "binary": staging_time_model(binary(), lambda a, b: EDGE, SIZE),
        }

    times = benchmark(compute)

    table = TextTable(["tree shape", "staging time (s)", "max depth"])
    for name, tree in [("star", star()), ("chain", chain()), ("binary", binary())]:
        depth = max(len(tree.path_to(leaf)) - 1 for leaf in tree.leaves())
        table.add_row([name, times[name], depth])
    print("\nMulticast staging-tree shapes (64 MB to 8 sites)\n" + table.render())

    # pipelining: the 7-deep chain costs far less than 7x the 1-deep star
    assert times["chain"] < 3 * times["star"]
    # the balanced tree is within a small factor of the star
    assert times["binary"] < 2 * times["star"]
    # every shape beats 7 sequential unicast transfers
    sequential = 7 * staging_time_model(
        StagingTree.from_parent_map(ADDRS[0], {ADDRS[0]: [ADDRS[1]]}),
        lambda a, b: EDGE,
        SIZE,
    )
    for t in times.values():
        assert t < sequential


def test_staging_replication_is_byte_exact_at_scale(benchmark):
    """End-to-end depot check: a binary staging tree of loopback
    depots replicates a multi-megabyte payload exactly."""
    from repro.lsl.multicast_failover import MulticastFailoverSender
    from repro.lsl.socket_transport import DepotServer
    from repro.util.rng import RngStream

    payload = RngStream(17).generator.bytes(2 << 20)

    def run():
        depots = [DepotServer(name=f"stage-{i}") for i in range(len(ADDRS))]
        try:
            tree = StagingTree(
                nodes=tuple(
                    (parent, "127.0.0.1", depots[i].port)
                    for i, (parent, _, _) in enumerate(binary().nodes)
                )
            )
            staged = MulticastFailoverSender(tree).stage(payload)
            return [depot.held.get(staged.session) for depot in depots]
        finally:
            for depot in depots:
                depot.close()

    received = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(received) == len(ADDRS)
    assert all(copy == payload for copy in received)
