"""Chaos soak harness: randomized fault schedules, checked invariants.

The fault battery in ``tests/lsl/test_faults.py`` pins *specific*
scenarios; this module complements it with *volume*: seeded random
episodes, each a fresh relay chain — or, with ``topology="multicast"``,
a fresh randomized staging tree — with a randomized
:class:`~repro.lsl.faults.FaultPlan` (refusals, mid-stream kills,
corrupt headers, stalled depots; tree episodes add mid-staging depot
deaths and random striping), run against the socket transport and/or
the fluid simulator, with end-to-end integrity invariants checked
after every episode:

* every completed transfer is byte-exact (delivered == sent, which
  also rules out duplicated or reordered ranges — the payload is
  pseudo-random, so any ledger double-append would corrupt it);
* a failed transfer failed *cleanly*
  (:class:`~repro.lsl.faults.RetryExhausted`), never silently;
* connection attempts stay within the retry policy's budget;
* retransmitted bytes never exceed what the attempt count allows;
* no ``lsl:*`` thread survives the episode (servers close fully).

Every episode derives from ``ChaosConfig.seed`` through named
:class:`~repro.util.rng.RngStream` children, so a failing episode
replays exactly from its seed and index — the report records both.

Run it via :func:`run_chaos` or the ``repro chaos`` CLI; CI smokes a
short seeded soak, and the ``chaos``-marked pytest soak runs longer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.lsl.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    RetryExhausted,
    RetryPolicy,
)
from repro.util.rng import RngStream
from repro.util.validation import check_positive, check_positive_int

#: Stacks an episode can run against.
STACKS = ("socket", "simulator")

#: Topologies an episode can exercise: a linear relay chain, or a
#: randomized multicast staging tree with a mid-staging depot kill.
TOPOLOGIES = ("relay", "multicast")

#: Fault kinds the schedule generator draws from.
_KINDS = (
    FaultKind.DROP,
    FaultKind.REFUSE,
    FaultKind.STALL,
    FaultKind.CORRUPT_HEADER,
)


@dataclass(frozen=True)
class ChaosConfig:
    """Parameters of one chaos soak.

    Attributes
    ----------
    episodes:
        Episodes per stack.
    seed:
        Root seed; episode ``i`` derives every choice from the child
        stream ``episode{i}``.
    stacks:
        Which stacks to soak (subset of :data:`STACKS`).
    depots:
        Relay chain length (intermediate depots) for socket episodes.
    min_size, max_size:
        Payload size bounds in bytes.
    max_faults:
        Upper bound on injected rules per episode (at least one is
        always injected — a chaos run without faults soaks nothing).
    max_retries:
        Per-sublink retry budget; kept above the per-rule firing count
        so most episodes recover, while stacked rules can still
        exhaust it (both outcomes are valid, only *unclean* failures
        are violations).
    topology:
        ``"relay"`` soaks linear chains (the original battery);
        ``"multicast"`` soaks randomized staging trees — socket
        episodes drive :class:`~repro.lsl.multicast_failover.
        MulticastFailoverSender` under a random fault plan and random
        striping, simulator episodes kill a random ancestor depot
        mid-staging and check the orphan resumed from its watermark
        while earlier deliveries stayed untouched.
    tree_nodes:
        Node count of each randomized multicast tree (root included).
    """

    episodes: int = 5
    seed: int = 0
    stacks: tuple[str, ...] = STACKS
    depots: int = 2
    min_size: int = 64 << 10
    max_size: int = 1 << 20
    max_faults: int = 3
    max_retries: int = 4
    topology: str = "relay"
    tree_nodes: int = 4

    def __post_init__(self) -> None:
        check_positive_int("episodes", self.episodes)
        check_positive_int("depots", self.depots)
        check_positive_int("min_size", self.min_size)
        check_positive_int("max_size", self.max_size)
        check_positive_int("max_faults", self.max_faults)
        check_positive("max_retries", self.max_retries)
        if self.max_size < self.min_size:
            raise ValueError(
                f"max_size={self.max_size} < min_size={self.min_size}"
            )
        unknown = set(self.stacks) - set(STACKS)
        if unknown:
            raise ValueError(f"unknown stack(s) {sorted(unknown)}")
        if not self.stacks:
            raise ValueError("at least one stack is required")
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; "
                f"choose from {TOPOLOGIES}"
            )
        if self.tree_nodes < 2:
            raise ValueError(
                f"tree_nodes={self.tree_nodes} needs at least a root "
                f"and one branch"
            )


@dataclass
class EpisodeResult:
    """One episode's outcome and integrity verdict.

    ``violations`` is the point of the harness: empty means every
    invariant held — *including* for episodes that (cleanly) failed.
    """

    index: int
    stack: str
    size: int
    faults: list[str]
    delivered: bool
    error: str = ""
    attempts: int = 0
    retransmitted: float = 0.0
    duration_s: float = 0.0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosReport:
    """Aggregate outcome of :func:`run_chaos`."""

    config: ChaosConfig
    episodes: list[EpisodeResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.episodes)

    @property
    def violations(self) -> list[str]:
        return [
            f"episode {e.index} ({e.stack}, seed={self.config.seed}): {v}"
            for e in self.episodes
            for v in e.violations
        ]

    def summary(self) -> str:
        """One line per episode plus the verdict, for the CLI."""
        lines = []
        for e in self.episodes:
            outcome = "delivered" if e.delivered else f"failed ({e.error})"
            verdict = "ok" if e.ok else "VIOLATED: " + "; ".join(e.violations)
            lines.append(
                f"[{e.stack} #{e.index}] {e.size} B, "
                f"faults=[{', '.join(e.faults) or 'none'}], {outcome}, "
                f"attempts={e.attempts}, {verdict}"
            )
        total = len(self.episodes)
        bad = sum(1 for e in self.episodes if not e.ok)
        lines.append(
            f"{total} episode(s), {total - bad} clean, {bad} violated "
            f"(seed={self.config.seed})"
        )
        return "\n".join(lines)


def _leaked_lsl_threads() -> list[str]:
    return sorted(
        t.name for t in threading.enumerate() if t.name.startswith("lsl:")
    )


def _make_plan(
    rng: RngStream, sites: list[str], config: ChaosConfig
) -> tuple[FaultPlan, list[str]]:
    """A randomized fault schedule over ``sites`` plus its description."""
    n_rules = int(rng.integers(1, config.max_faults + 1))
    rules: list[FaultRule] = []
    labels: list[str] = []
    for _ in range(n_rules):
        site = str(rng.choice(sites))
        kind = _KINDS[int(rng.integers(0, len(_KINDS)))]
        if kind is FaultKind.REFUSE and site == "source":
            kind = FaultKind.CORRUPT_HEADER  # sources do not accept
        after = int(rng.integers(0, config.min_size))
        times = int(rng.integers(1, 3))
        delay = float(rng.uniform(0.005, 0.03))
        rules.append(
            FaultRule(
                site=site,
                kind=kind,
                after_bytes=after,
                delay=delay,
                times=times,
            )
        )
        labels.append(f"{kind.value}@{site}x{times}")
    return FaultPlan(rules), labels


def _payload(rng: RngStream, size: int) -> bytes:
    return rng.generator.bytes(size)


def _socket_episode(
    index: int, rng: RngStream, config: ChaosConfig
) -> EpisodeResult:
    """One randomized transfer over a real loopback relay chain."""
    from repro.lsl.socket_transport import (
        DepotServer,
        SinkServer,
        route_header,
        send_session,
    )

    size = int(rng.integers(config.min_size, config.max_size + 1))
    depot_names = [f"chaos-d{i}" for i in range(config.depots)]
    sites = ["source", *depot_names, "chaos-sink"]
    plan, labels = _make_plan(rng, sites, config)
    policy = RetryPolicy(
        max_retries=config.max_retries,
        base_delay=0.01,
        multiplier=1.5,
        max_delay=0.05,
        jitter=0.25,
        io_timeout=5.0,
        connect_timeout=5.0,
        seed=config.seed + index,
    )
    result = EpisodeResult(
        index=index, stack="socket", size=size, faults=labels, delivered=False
    )
    payload = _payload(rng.child("payload"), size)
    t0 = time.monotonic()
    sink = SinkServer(name="chaos-sink", fault_plan=plan)
    depots = [
        DepotServer(name=name, fault_plan=plan, retry=policy)
        for name in depot_names
    ]
    try:
        header, first_hop = route_header(
            sink.address, [d.address for d in depots]
        )
        try:
            report = send_session(
                payload,
                header,
                first_hop,
                chunk_size=16 << 10,
                retry=policy,
                fault_plan=plan,
            )
        except RetryExhausted as exc:
            result.error = f"RetryExhausted: {exc}"
        except Exception as exc:  # invariant: only clean failures
            result.error = f"{type(exc).__name__}: {exc}"
            result.violations.append(
                f"unclean failure {type(exc).__name__}: {exc}"
            )
        else:
            result.attempts = report.attempts
            result.retransmitted = report.retransmitted
            got = sink.wait_for(header.hex_id, timeout=30.0)
            result.delivered = True
            if got != payload:
                result.violations.append(
                    f"payload mismatch: sent {size} bytes, "
                    f"delivered {len(got)}"
                )
            if report.attempts > policy.max_retries + 1:
                result.violations.append(
                    f"attempts {report.attempts} exceed budget "
                    f"{policy.max_retries + 1}"
                )
            if report.retransmitted > size * report.attempts:
                result.violations.append(
                    f"retransmitted {report.retransmitted} exceeds "
                    f"{report.attempts} attempt(s) x {size} bytes"
                )
    finally:
        for server in (*depots, sink):
            server.kill()
    result.duration_s = time.monotonic() - t0
    leaked = _leaked_lsl_threads()
    if leaked:
        result.violations.append(f"leaked threads: {', '.join(leaked)}")
    return result


def _simulator_episode(
    index: int, rng: RngStream, config: ChaosConfig
) -> EpisodeResult:
    """One randomized faulted transfer through the fluid model."""
    from repro.net.simulator import NetworkSimulator, SublinkFault
    from repro.net.topology import PathSpec

    size = int(rng.integers(config.min_size, config.max_size + 1))
    n_sublinks = config.depots + 1
    paths = [
        PathSpec(
            rtt=float(rng.uniform(0.01, 0.08)),
            bandwidth=float(rng.uniform(2e6, 2e7)),
        )
        for _ in range(n_sublinks)
    ]
    n_faults = int(rng.integers(1, config.max_faults + 1))
    faults = [
        SublinkFault(
            sublink=int(rng.integers(0, n_sublinks)),
            after_bytes=float(rng.integers(0, size)),
            times=int(rng.integers(1, 3)),
        )
        for _ in range(n_faults)
    ]
    labels = [
        f"cut@sublink{f.sublink}x{f.times}@{int(f.after_bytes)}B"
        for f in faults
    ]
    policy = RetryPolicy(
        max_retries=config.max_retries,
        base_delay=0.05,
        multiplier=2.0,
        max_delay=1.0,
        jitter=0.25,
        seed=config.seed + index,
    )
    result = EpisodeResult(
        index=index, stack="simulator", size=size, faults=labels,
        delivered=False,
    )
    t0 = time.monotonic()
    sim = NetworkSimulator(seed=config.seed + index)
    outcome = sim.run_relay_with_faults(
        paths, size, faults, retry=policy, max_time=7200.0
    )
    result.duration_s = time.monotonic() - t0
    result.attempts = outcome.retries + 1
    result.retransmitted = outcome.retransmitted_bytes
    result.delivered = outcome.completed
    if not outcome.completed:
        result.error = "retry budget exhausted"
    budget = sum(f.times for f in faults)
    if outcome.retries > budget:
        result.violations.append(
            f"{outcome.retries} retries exceed the {budget} injected cuts"
        )
    if outcome.retransmitted_bytes > size * (outcome.retries + 1):
        result.violations.append(
            f"retransmitted {outcome.retransmitted_bytes:.0f} bytes exceed "
            f"{outcome.retries + 1} attempt(s) x {size}"
        )
    if outcome.completed and outcome.duration < outcome.clean_duration:
        result.violations.append(
            f"faulted duration {outcome.duration:.3f}s beat the clean run "
            f"{outcome.clean_duration:.3f}s"
        )
    return result


def _random_parents(rng: RngStream, n_nodes: int) -> list[int]:
    """A random parents-before-children tree shape (index 0 = root)."""
    return [-1] + [int(rng.integers(0, i)) for i in range(1, n_nodes)]


def _multicast_socket_episode(
    index: int, rng: RngStream, config: ChaosConfig
) -> EpisodeResult:
    """One randomized staging tree on real sockets, under a fault plan.

    A :class:`~repro.lsl.multicast_failover.MulticastFailoverSender`
    replicates a random payload down a random ``tree_nodes``-node tree
    (random striping) while a randomized fault schedule fires at the
    source and the depots.  The relay invariants carry over per branch,
    plus the multicast-specific one: *every* tree node must end up
    holding a byte-exact parked copy under the shared session id.
    """
    from repro.lsl.failover import NoRouteLeft
    from repro.lsl.multicast import StagingTree
    from repro.lsl.multicast_failover import MulticastFailoverSender
    from repro.lsl.socket_transport import DepotServer

    size = int(rng.integers(config.min_size, config.max_size + 1))
    parents = _random_parents(rng.child("tree"), config.tree_nodes)
    stripes = int(rng.choice((1, 2)))
    names = [f"mc-n{i}" for i in range(config.tree_nodes)]
    plan, labels = _make_plan(rng, ["source", *names], config)
    labels.append(f"tree={','.join(map(str, parents))}x{stripes}stripe")
    policy = RetryPolicy(
        max_retries=config.max_retries,
        base_delay=0.01,
        multiplier=1.5,
        max_delay=0.05,
        jitter=0.25,
        io_timeout=5.0,
        connect_timeout=5.0,
        seed=config.seed + index,
    )
    result = EpisodeResult(
        index=index, stack="socket", size=size, faults=labels,
        delivered=False,
    )
    payload = _payload(rng.child("payload"), size)
    t0 = time.monotonic()
    servers = [
        DepotServer(name=name, fault_plan=plan, retry=policy)
        for name in names
    ]
    max_failovers = 2
    try:
        tree = StagingTree(
            nodes=tuple(
                (parents[i], "127.0.0.1", servers[i].port)
                for i in range(config.tree_nodes)
            )
        )
        sender = MulticastFailoverSender(
            tree,
            retry=policy,
            max_failovers=max_failovers,
            stripes=stripes,
            fault_plan=plan,
        )
        try:
            staged = sender.stage(payload, chunk_size=16 << 10)
        except (NoRouteLeft, RetryExhausted) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # invariant: only clean failures
            result.error = f"{type(exc).__name__}: {exc}"
            result.violations.append(
                f"unclean failure {type(exc).__name__}: {exc}"
            )
        else:
            result.delivered = True
            result.attempts = sum(
                r.attempts for r in staged.delivered.values()
            )
            result.retransmitted = sum(
                r.retransmitted for r in staged.delivered.values()
            )
            # a branch's winning chain stays within one send_session's
            # connect budget per stripe
            per_branch = stripes * (config.max_retries + 1)
            for addr, sent in staged.delivered.items():
                if sent.attempts > per_branch:
                    result.violations.append(
                        f"branch {addr} used {sent.attempts} connects, "
                        f"budget {per_branch}"
                    )
                if sent.retransmitted > size * sent.attempts:
                    result.violations.append(
                        f"branch {addr} retransmitted "
                        f"{sent.retransmitted} bytes over "
                        f"{sent.attempts} attempt(s) of {size}"
                    )
            for i, server in enumerate(servers):
                got = server.held.get(staged.session)
                if got != payload:
                    result.violations.append(
                        f"node {names[i]} holds "
                        f"{'nothing' if got is None else f'{len(got)} bytes'}"
                        f", expected {size} byte-exact"
                    )
    finally:
        for server in servers:
            server.kill()
    result.duration_s = time.monotonic() - t0
    leaked = _leaked_lsl_threads()
    if leaked:
        result.violations.append(f"leaked threads: {', '.join(leaked)}")
    return result


def _multicast_simulator_episode(
    index: int, rng: RngStream, config: ChaosConfig
) -> EpisodeResult:
    """One randomized staging tree in the fluid model, with a depot kill.

    Runs the same seeded tree twice through
    :meth:`~repro.net.simulator.NetworkSimulator.run_staging_with_failover`
    — once clean, once with a random ancestor depot dying mid-way through
    a random descendant's delivery — and checks that the orphan resumed
    from at least its staged watermark, that every node delivered *before*
    the kill has an identical timeline in both runs (sibling isolation),
    and that the recovery is visible as exactly one failover.
    """
    from repro.net.simulator import NetworkSimulator
    from repro.net.topology import PathSpec

    size = int(rng.integers(config.min_size, config.max_size + 1))
    n = config.tree_nodes
    parents = _random_parents(rng.child("tree"), n)
    stripes = int(rng.choice((1, 2)))
    names = [f"mc-n{i}" for i in range(n)]
    edge_rng = rng.child("edges")
    edge_paths = {
        (upstream, node): PathSpec(
            rtt=float(edge_rng.uniform(0.01, 0.08)),
            bandwidth=float(edge_rng.uniform(2e6, 2e7)),
        )
        for node in names
        for upstream in ["source", *names]
        if upstream != node
    }
    orphan_idx = int(rng.integers(1, n))
    ancestors = []
    j = parents[orphan_idx]
    while j >= 0:
        ancestors.append(j)
        j = parents[j]
    fail_idx = int(ancestors[int(rng.integers(0, len(ancestors)))])
    fail_after = float(rng.uniform(0.05, 0.4)) * size
    labels = [
        f"tree={','.join(map(str, parents))}x{stripes}stripe",
        f"kill@{names[fail_idx]}during{names[orphan_idx]}"
        f"@{int(fail_after)}B",
    ]
    result = EpisodeResult(
        index=index, stack="simulator", size=size, faults=labels,
        delivered=False,
    )
    t0 = time.monotonic()
    clean = NetworkSimulator(seed=config.seed + index).run_staging_with_failover(
        names, parents, edge_paths, size, stripes=stripes,
    )
    killed = NetworkSimulator(seed=config.seed + index).run_staging_with_failover(
        names, parents, edge_paths, size,
        fail_node=names[fail_idx],
        fail_during=names[orphan_idx],
        fail_after_bytes=fail_after,
        stripes=stripes,
    )
    result.duration_s = time.monotonic() - t0
    result.delivered = True
    result.attempts = 1 + killed.failovers
    if killed.failovers != 1:
        result.violations.append(
            f"expected exactly 1 failover, saw {killed.failovers}"
        )
    if killed.orphan != names[orphan_idx]:
        result.violations.append(
            f"orphan {killed.orphan!r} is not the interrupted branch "
            f"{names[orphan_idx]!r}"
        )
    if killed.resumed_from == names[fail_idx]:
        result.violations.append(
            f"orphan resumed from the dead depot {killed.resumed_from!r}"
        )
    if not (fail_after <= killed.staged_at_failover <= size):
        result.violations.append(
            f"staged watermark {killed.staged_at_failover:.0f} outside "
            f"[{fail_after:.0f}, {size}]"
        )
    if killed.handoff_time >= killed.node_times[names[orphan_idx]]:
        result.violations.append(
            "orphan completion does not follow the handoff"
        )
    for name in names[:orphan_idx]:
        if abs(killed.node_times[name] - clean.node_times[name]) > 1e-9:
            result.violations.append(
                f"pre-kill delivery to {name} perturbed: "
                f"{killed.node_times[name]:.6f}s vs clean "
                f"{clean.node_times[name]:.6f}s"
            )
    times = [killed.node_times[name] for name in names]
    if any(b <= a for a, b in zip(times, times[1:])):
        result.violations.append(
            f"delivery times not strictly increasing: {times}"
        )
    return result


#: Episode runners per (topology, stack).
_RUNNERS = {
    "relay": {
        "socket": _socket_episode,
        "simulator": _simulator_episode,
    },
    "multicast": {
        "socket": _multicast_socket_episode,
        "simulator": _multicast_simulator_episode,
    },
}


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run the soak described by ``config`` and judge every episode."""
    config = config or ChaosConfig()
    root = RngStream(config.seed, "chaos")
    report = ChaosReport(config=config)
    runners = _RUNNERS[config.topology]
    index = 0
    for episode in range(config.episodes):
        for stack in config.stacks:
            rng = root.child(f"episode{episode}/{stack}")
            report.episodes.append(runners[stack](index, rng, config))
            index += 1
    return report
