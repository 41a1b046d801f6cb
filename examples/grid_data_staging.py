#!/usr/bin/env python3
"""Grid data staging: move a dataset from a producer site to a compute
site over a scheduled depot path, then stage it to several replicas with
the multicast tree option.

This is the workload the paper's introduction motivates: a Grid job
whose input data lives far from the machines that will crunch it.

Run:  python examples/grid_data_staging.py
"""

from repro import (
    CliqueAggregator,
    LogisticalScheduler,
    NetworkSimulator,
    mb,
)
from repro.lsl.multicast import StagingTree, staging_time_model
from repro.lsl.multicast_failover import MulticastFailoverSender
from repro.lsl.socket_transport import DepotServer
from repro.testbed.abilene import abilene_testbed
from repro.util.rng import RngStream
from repro.util.units import format_rate


def main() -> None:
    # ---- the environment: 10 universities + 11 Abilene POP depots --------
    testbed = abilene_testbed(seed=1)

    # ---- NWS probing: build the performance matrix ------------------------
    aggregator = CliqueAggregator(testbed.site_of)
    rng = RngStream(7, "probes")
    for src_site, dst_site in testbed.site_pairs():
        a = testbed.hosts_at(src_site)[0]
        b = testbed.hosts_at(dst_site)[0]
        true = testbed.true_bandwidth(a, b)
        for _ in range(8):
            aggregator.observe(a, b, true * float(rng.lognormal(0, 0.05)))

    scheduler = LogisticalScheduler(
        aggregator.build_matrix(),
        depot_hosts=set(testbed.depot_hosts),
    )

    # pick the producer/consumer pair the scheduler expects to help most
    producer, consumer = max(
        (
            (a, b)
            for a in testbed.endpoint_hosts
            for b in testbed.endpoint_hosts
            if a != b
        ),
        key=lambda pair: scheduler.decide(*pair).predicted_gain,
    )
    decision = scheduler.decide(producer, consumer)
    print(f"staging from {producer} to {consumer}")
    print(f"scheduled route: {' -> '.join(decision.route)}")
    print(f"predicted gain : {decision.predicted_gain:.2f}x")

    # ---- simulate the staging transfer ------------------------------------
    size = mb(128)
    sim = NetworkSimulator(seed=2)
    direct_spec = testbed.sublink_spec(producer, consumer)
    d = sim.run_direct(direct_spec, size, record_trace=False)
    if decision.use_lsl:
        specs = testbed.route_specs(decision.route)
        r = sim.run_relay(specs, size, record_trace=False)
        print(f"direct   : {d.duration:6.1f} s ({format_rate(d.bandwidth)})")
        print(f"scheduled: {r.duration:6.1f} s ({format_rate(r.bandwidth)})")
        print(f"measured speedup: {r.bandwidth / d.bandwidth:.2f}x")
    else:
        print(f"direct is already optimal: {d.duration:.1f} s")

    # ---- replicate to three more sites with a staging tree ----------------
    # one loopback depot per site: the consumer is the tree's root
    replicas = testbed.depot_hosts[:3]
    depots = [DepotServer(name=host) for host in [consumer, *replicas]]
    try:
        tree = StagingTree.from_parent_map(
            depots[0].address,
            {depots[0].address: [d.address for d in depots[1:]]},
        )
        payload = bytes(RngStream(3).generator.bytes(1 << 20))  # a 1 MB sample
        staged = MulticastFailoverSender(tree).stage(payload)
        received = [depot.held.get(staged.session) for depot in depots]
    finally:
        for depot in depots:
            depot.close()
    ok = all(copy == payload for copy in received)
    print(f"\nstaged 1 MB sample to {len(received)} sites, byte-exact: {ok}")

    t = staging_time_model(
        tree,
        lambda a, b: testbed.sublink_spec(consumer, replicas[0]),
        size,
    )
    print(f"estimated synchronous staging time for 128 MB: {t:.1f} s")


if __name__ == "__main__":
    main()
