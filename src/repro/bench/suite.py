"""The fixed benchmark suite behind ``repro bench``.

The workloads cover the subsystems whose performance the project
promises (ROADMAP item 3): minimax tree construction, rerouting
around failed depots, the fluid simulator's batch step rate (scalar and
vectorized), loopback socket-relay throughput, chaos episode
wall-clock, multicast staging with striped sublinks (including the
striped-vs-single crossover the relay model predicts), and the
full-tree whole-program lint.  Every workload is seeded and fixed-size
so two runs on the same machine measure the same work; ``smoke=True``
shrinks each to a couple of seconds total for CI and the tier-1 smoke
test.

Metric names are stable identifiers (``--compare`` joins on them); add
new metrics freely, but never rename or repurpose one.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable, Iterable
from pathlib import Path

from repro.bench.results import BenchReport, BenchResult, now_iso
from repro.util.rng import RngStream


def _bench_minimax(smoke: bool) -> list[BenchResult]:
    """Tree build + reroute latency on a dense random mesh.

    A reroute is one MMP build over the surviving relay set, so its
    latency is gated against a fresh :meth:`LogisticalScheduler.tree`
    build of the same source: ``reroute.rebuild_vs_build`` stays near 1
    and drops if a reroute starts doing more than one build's work.
    """
    from repro.core.scheduler import LogisticalScheduler
    from repro.nws.matrix import PerformanceMatrix

    n = 120 if smoke else 500
    reroutes = 10 if smoke else 40
    rng = RngStream(7, "bench/minimax")
    hosts = [f"d{i:03d}" for i in range(n)]
    pm = PerformanceMatrix(hosts)
    pool = [1.0, 2.0, 4.0, 8.0, 16.0]
    for a in hosts:
        for b in hosts:
            if a is not b:
                pm.set_bandwidth(a, b, float(rng.choice(pool)))

    sched = LogisticalScheduler(pm, epsilon=0.1)
    t0 = time.perf_counter()
    sched.tree(hosts[0])
    build_s = time.perf_counter() - t0

    src, dst = hosts[0], hosts[-1]
    candidates = [h for h in hosts if h not in (src, dst)]
    builds: list[float] = []
    reroute_s: list[float] = []
    for _ in range(reroutes):
        sched._trees.pop(src)  # a fresh build, on the cached matrix
        t0 = time.perf_counter()
        sched.tree(src)
        builds.append(time.perf_counter() - t0)
        k = int(rng.integers(1, 4))
        avoid = {str(h) for h in rng.choice(candidates, size=k, replace=False)}
        t0 = time.perf_counter()
        sched.reroute(src, dst, avoid)
        reroute_s.append(time.perf_counter() - t0)

    build_med = statistics.median(builds)
    reroute_med = statistics.median(reroute_s)
    params = {"hosts": n, "epsilon": 0.1}
    return [
        BenchResult(
            name=f"minimax.build.n{n}",
            value=build_s * 1e3,
            unit="ms",
            kind="latency",
            higher_is_better=False,
            params=params,
        ),
        BenchResult(
            name=f"reroute.rebuild.n{n}",
            value=reroute_med * 1e3,
            unit="ms",
            kind="latency",
            higher_is_better=False,
            params={**params, "avoided_depots": "1-3", "samples": reroutes},
        ),
        BenchResult(
            name=f"reroute.rebuild_vs_build.n{n}",
            value=build_med / reroute_med if reroute_med > 0 else 0.0,
            unit="x",
            kind="ratio",
            higher_is_better=True,
            params={**params, "samples": reroutes},
        ),
    ]


def _sim_specs(flows: int, size_mb: float, rng: RngStream):
    """A campaign-sweep-shaped batch: ``flows`` one-depot relays of the
    same payload over narrowly jittered paths.

    Co-terminating chains are the batch engine's target workload (a
    campaign repeats one transfer size across many host pairs), and the
    jitter keeps every lane numerically distinct so the run still
    exercises per-lane state rather than degenerate identical arrays.
    """
    from repro.net.topology import PathSpec
    from repro.net.vectorized import BatchSpec
    from repro.util.units import mb

    specs = []
    for _ in range(flows):
        paths = tuple(
            PathSpec.from_mbit(
                rtt_ms=rng.uniform(55, 65),
                mbit_per_sec=rng.uniform(90, 110),
            )
            for _ in range(2)
        )
        specs.append(BatchSpec(paths=paths, size=int(mb(size_mb))))
    return specs


def _bench_simulator(smoke: bool) -> list[BenchResult]:
    """Fluid batch step rate, scalar versus vectorized.

    Rate is flow-steps per second: each chain contributes one step per
    dt tick it was in flight, so the number of flow-steps is identical
    on both paths (the results are pinned bit-equal by the equivalence
    suite) and the ratio isolates pure engine overhead.
    """
    from repro.net.simulator import NetworkSimulator

    dt = 0.01
    size_mb = 4.0 if smoke else 32.0
    flow_counts = (10, 100) if smoke else (10, 100, 1000)
    out: list[BenchResult] = []
    speedup_by_flows: dict[int, float] = {}
    for flows in flow_counts:
        specs = _sim_specs(flows, size_mb, RngStream(flows, "bench/sim"))
        rates: dict[str, float] = {}
        for label, vectorized in (("scalar", False), ("vectorized", True)):
            sim = NetworkSimulator(dt=dt, seed=0)
            t0 = time.perf_counter()
            results = sim.run_batch(specs, vectorized=vectorized)
            wall = time.perf_counter() - t0
            flow_steps = sum(int(r.duration / dt) + 1 for r in results)
            rates[label] = flow_steps / wall if wall > 0 else 0.0
            out.append(
                BenchResult(
                    name=f"sim.steprate.{label}.f{flows}",
                    value=rates[label],
                    unit="flow-steps/s",
                    kind="throughput",
                    higher_is_better=True,
                    params={"flows": flows, "dt": dt, "size_mb": size_mb},
                )
            )
        speedup_by_flows[flows] = (
            rates["vectorized"] / rates["scalar"]
            if rates["scalar"] > 0
            else 0.0
        )
    top = max(flow_counts)
    out.append(
        BenchResult(
            name=f"sim.steprate.speedup.f{top}",
            value=speedup_by_flows[top],
            unit="x",
            kind="ratio",
            higher_is_better=True,
            params={"flows": top, "dt": dt, "size_mb": size_mb},
        )
    )
    return out


def _bench_transport(smoke: bool) -> list[BenchResult]:
    """Loopback relay throughput through one real-socket depot."""
    from repro.lsl.header import SessionHeader, new_session_id
    from repro.lsl.socket_transport import (
        DepotServer,
        SinkServer,
        send_session,
    )

    size = (256 << 10) if smoke else (8 << 20)
    payload = RngStream(11, "bench/transport").generator.bytes(size)
    sink = SinkServer(name="bench-sink")
    depot = DepotServer(name="bench-depot")
    try:
        header = SessionHeader(
            session_id=new_session_id(),
            src_ip="127.0.0.1",
            dst_ip="127.0.0.1",
            src_port=0,
            dst_port=sink.port,
        )
        t0 = time.perf_counter()
        send_session(payload, header, depot.address, chunk_size=64 << 10)
        got = sink.wait_for(header.hex_id, timeout=60.0)
        wall = time.perf_counter() - t0
        if got != payload:  # pragma: no cover - would be a transport bug
            raise RuntimeError("relay delivered a corrupted payload")
    finally:
        depot.kill()
        sink.kill()
    return [
        BenchResult(
            name="transport.relay.throughput",
            value=size / wall if wall > 0 else 0.0,
            unit="bytes/s",
            kind="throughput",
            higher_is_better=True,
            params={"payload_bytes": size, "depots": 1},
        )
    ]


def _bench_chaos(smoke: bool) -> list[BenchResult]:
    """Mean wall-clock of a seeded simulator chaos episode."""
    from repro.testbed.chaos import ChaosConfig, run_chaos

    episodes = 2 if smoke else 5
    config = ChaosConfig(
        episodes=episodes,
        seed=13,
        stacks=("simulator",),
        max_size=(64 << 10) if smoke else (512 << 10),
    )
    report = run_chaos(config)
    if not report.ok:  # pragma: no cover - would be a chaos regression
        raise RuntimeError(
            "chaos soak violated invariants: "
            + "; ".join(report.violations)
        )
    mean_s = statistics.fmean(e.duration_s for e in report.episodes)
    return [
        BenchResult(
            name="chaos.episode.wall",
            value=mean_s * 1e3,
            unit="ms",
            kind="wall",
            higher_is_better=False,
            params={"episodes": episodes, "stack": "simulator", "seed": 13},
        )
    ]


def _bench_multicast(smoke: bool) -> list[BenchResult]:
    """Striped-relay model numbers plus a real multicast staging wall.

    The model metrics are deterministic (no timing in them): the
    striped-vs-single speedup on a lossy WAN relay at a payload well
    above the crossover, and the crossover size itself — the smallest
    payload at which N stripes beat one stream, the number the striping
    feature exists to move.  The wall metric stages a payload down a
    4-node depot tree on real loopback sockets with 2 stripes per hop
    through :class:`~repro.lsl.multicast_failover.
    MulticastFailoverSender`.
    """
    from repro.lsl.multicast import StagingTree, staging_time_model
    from repro.lsl.multicast_failover import MulticastFailoverSender
    from repro.lsl.socket_transport import DepotServer
    from repro.models.relay import (
        relay_transfer_time,
        striped_crossover_size,
        striped_relay_transfer_time,
    )
    from repro.net.topology import PathSpec

    stripes = 4
    wan = PathSpec.from_mbit(rtt_ms=60, mbit_per_sec=200, loss_rate=1e-3)
    paths = [wan, wan]
    size = (8 << 20) if smoke else (64 << 20)
    single_s = relay_transfer_time(paths, size)
    striped_s = striped_relay_transfer_time(paths, size, stripes)
    crossover = striped_crossover_size(paths, stripes)
    model_params = {
        "rtt_ms": 60,
        "mbit_per_sec": 200,
        "loss_rate": 1e-3,
        "hops": len(paths),
        "stripes": stripes,
        "payload_bytes": size,
    }

    # deterministic staging-time model over a fixed 7-node binary tree
    tree = StagingTree(
        nodes=tuple(
            (parent, "10.0.0.1", 5000 + i)
            for i, parent in enumerate((-1, 0, 0, 1, 1, 2, 2))
        )
    )
    staging_s = staging_time_model(
        tree, lambda a, b: wan, size, stripes=stripes
    )

    wall_size = (128 << 10) if smoke else (2 << 20)
    payload = RngStream(17, "bench/multicast").generator.bytes(wall_size)
    servers = [DepotServer(name=f"bench-mc{i}") for i in range(4)]
    try:
        sock_tree = StagingTree(
            nodes=tuple(
                (parent, "127.0.0.1", servers[i].port)
                for i, parent in enumerate((-1, 0, 1, 0))
            )
        )
        sender = MulticastFailoverSender(sock_tree, stripes=2)
        t0 = time.perf_counter()
        staged = sender.stage(payload, chunk_size=64 << 10)
        wall = time.perf_counter() - t0
        for server in servers:  # pragma: no branch
            if server.held.get(staged.session) != payload:
                raise RuntimeError(  # pragma: no cover - transport bug
                    f"node {server.name} holds a corrupted staged copy"
                )
    finally:
        for server in servers:
            server.kill()
    return [
        BenchResult(
            name=f"multicast.striped.speedup.x{stripes}",
            value=single_s / striped_s if striped_s > 0 else 0.0,
            unit="x",
            kind="ratio",
            higher_is_better=True,
            params=model_params,
        ),
        BenchResult(
            name=f"multicast.striped.crossover.x{stripes}",
            value=crossover,
            unit="bytes",
            kind="latency",
            higher_is_better=False,
            params={k: v for k, v in model_params.items()
                    if k != "payload_bytes"},
        ),
        BenchResult(
            name="multicast.staging.model",
            value=staging_s * 1e3,
            unit="ms",
            kind="latency",
            higher_is_better=False,
            params={**model_params, "tree_nodes": len(tree)},
        ),
        BenchResult(
            name="multicast.stage.wall",
            value=wall * 1e3,
            unit="ms",
            kind="wall",
            higher_is_better=False,
            params={
                "tree_nodes": 4,
                "stripes": 2,
                "payload_bytes": wall_size,
            },
        ),
    ]


def _bench_lint(smoke: bool) -> list[BenchResult]:
    """Full-tree ``repro lint`` wall-clock, all 17 rules.

    The whole-program rules (RPR013+) add a project pass — call graph,
    lock graph and protocol replay over every module — on top of the
    per-file walks, so this is the analysis engine's worst case.  The
    tree is the installed ``repro`` package itself: fixed size, and the
    same code CI lints.
    """
    import repro
    from repro.analysis import run_paths
    from repro.analysis.walker import load_module

    tree = Path(repro.__file__).parent
    passes = 1 if smoke else 3
    walls: list[float] = []
    findings = 0
    for _ in range(passes):
        t0 = time.perf_counter()
        result = run_paths([tree])
        walls.append(time.perf_counter() - t0)
        findings = len(result.findings)
    t0 = time.perf_counter()
    for path in sorted(tree.rglob("*.py")):
        load_module(path)
    parse_s = time.perf_counter() - t0
    return [
        BenchResult(
            name="lint.fulltree.wall",
            value=statistics.median(walls) * 1e3,
            unit="ms",
            kind="wall",
            higher_is_better=False,
            params={"findings": findings, "passes": passes},
        ),
        BenchResult(
            name="lint.fulltree.parse",
            value=parse_s * 1e3,
            unit="ms",
            kind="wall",
            higher_is_better=False,
            params={},
        ),
    ]


#: name -> runner; ``repro bench --only`` selects by these keys.
WORKLOADS: dict[str, Callable[[bool], list[BenchResult]]] = {
    "minimax": _bench_minimax,
    "simulator": _bench_simulator,
    "transport": _bench_transport,
    "chaos": _bench_chaos,
    "multicast": _bench_multicast,
    "lint": _bench_lint,
}


def run_suite(
    smoke: bool = False,
    only: Iterable[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Run the (selected) fixed suite and return its report.

    Raises :class:`KeyError` for an unknown ``--only`` name so typos
    fail loudly instead of silently benchmarking nothing.
    """
    names = list(only) if only is not None else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        raise KeyError(
            f"unknown workload(s) {unknown}; available: {list(WORKLOADS)}"
        )
    results: list[BenchResult] = []
    for name in names:
        if progress is not None:
            progress(name)
        results.extend(WORKLOADS[name](smoke))
    return BenchReport(
        created=now_iso(),
        suite="smoke" if smoke else "full",
        results=tuple(results),
    )
