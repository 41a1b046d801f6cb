"""High-level transfer runner over the fluid model.

:class:`NetworkSimulator` is the façade used by tests, examples and
benchmarks: give it path specs and a size, get back a
:class:`TransferResult` with the completion time, achieved bandwidth and
per-sublink sequence traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.depot_sim import RelayPipeline
from repro.net.tcp import TcpConfig
from repro.net.vectorized import BatchSpec, VectorizedBatch
from repro.net.topology import PathSpec
from repro.net.trace import SeqTrace
from repro.obs.timeline import (
    STREAM_DOWN,
    STREAM_UP,
    ProgressWatermarks,
    SessionTimeline,
)
from repro.util.rng import RngStream
from repro.util.units import bytes_per_sec_to_mbit_per_sec
from repro.util.validation import check_non_negative, check_positive


@dataclass
class TransferResult:
    """Outcome of one simulated transfer.

    Attributes
    ----------
    size:
        Transfer size in bytes.
    duration:
        Wall-clock (simulated) seconds from session open to last byte
        delivered at the sink application.
    traces:
        One :class:`SeqTrace` per TCP sublink, source side first.  A
        direct transfer has exactly one.
    loss_events:
        Total congestion events across all sublinks.
    depot_peaks:
        Peak buffer occupancy per depot (empty for direct transfers).
    """

    size: int
    duration: float
    traces: list[SeqTrace] = field(default_factory=list)
    loss_events: int = 0
    depot_peaks: list[float] = field(default_factory=list)

    @property
    def bandwidth(self) -> float:
        """Achieved end-to-end bandwidth in bytes/sec."""
        return self.size / self.duration

    @property
    def bandwidth_mbit(self) -> float:
        """Achieved end-to-end bandwidth in Mbit/sec."""
        return bytes_per_sec_to_mbit_per_sec(self.bandwidth)


@dataclass(frozen=True)
class SublinkFault:
    """A connection failure injected into one simulated sublink.

    Attributes
    ----------
    sublink:
        Index into the relay's path list (0 = the source-side sublink).
    after_bytes:
        The fault trips once the sublink has *delivered* this many bytes
        to its downstream store.
    times:
        How many consecutive reconnect attempts the fault also kills
        (1 = a single failure; larger values exercise retry exhaustion).
    """

    sublink: int
    after_bytes: float
    times: int = 1

    def __post_init__(self) -> None:
        check_non_negative("sublink", self.sublink)
        check_non_negative("after_bytes", self.after_bytes)
        check_positive("times", self.times)


@dataclass
class FaultedTransferResult(TransferResult):
    """A :class:`TransferResult` plus recovery accounting.

    Attributes
    ----------
    retransmitted_bytes:
        Bytes any sublink had to send more than once — the recovery
        cost in data.  With depot-resume this is one sublink's in-flight
        window; with a restart it is everything sent before the failure.
    clean_duration:
        Duration of the identical transfer with no fault injected.
    recovery_seconds:
        ``duration - clean_duration`` — the added time the failure cost.
    retries:
        Reconnect attempts across all sublinks.
    completed:
        False when the retry budget was exhausted before the payload
        arrived (``duration`` then covers the attempted window).
    per_sublink_retransmitted:
        Retransmitted bytes broken out per sublink.
    """

    retransmitted_bytes: float = 0.0
    clean_duration: float = 0.0
    recovery_seconds: float = 0.0
    retries: int = 0
    completed: bool = True
    per_sublink_retransmitted: list[float] = field(default_factory=list)


@dataclass
class StagingResult(TransferResult):
    """A :class:`TransferResult` for a multicast staging operation.

    ``size`` is the payload size (each node receives a full copy);
    ``duration`` is the virtual time at which the *last* node completed.

    Attributes
    ----------
    node_times:
        Virtual completion time of every tree node, in delivery order.
    failovers:
        Branch re-grafts performed (0 or 1 in this runner).
    failed_node:
        Name of the depot that died mid-staging ("" = clean run).
    orphan:
        Name of the node whose delivery was interrupted.
    resumed_from:
        The nearest surviving ancestor the orphan re-grafted to.
    staged_at_failover:
        Bytes the orphan held when its chain died — the watermark the
        re-grafted delivery resumed from.
    handoff_time:
        Virtual time of the failover.
    stripes:
        Striped sublinks per hop (1 = single stream).
    """

    node_times: dict[str, float] = field(default_factory=dict)
    failovers: int = 0
    failed_node: str = ""
    orphan: str = ""
    resumed_from: str = ""
    staged_at_failover: float = 0.0
    handoff_time: float = 0.0
    stripes: int = 1


@dataclass
class FailoverTransferResult(TransferResult):
    """A :class:`TransferResult` for a transfer that switched routes.

    Attributes
    ----------
    failovers:
        Route switches performed (this runner models exactly one).
    failed_node:
        Name of the depot that died mid-transfer.
    staged_at_failover:
        Bytes each surviving node had staged when the primary route was
        abandoned — the resume points the fallback route starts from.
    handoff_time:
        Virtual time at which the failover happened.
    primary_route, fallback_route:
        Node names of the two routes, source first.
    """

    failovers: int = 0
    failed_node: str = ""
    staged_at_failover: dict[str, float] = field(default_factory=dict)
    handoff_time: float = 0.0
    primary_route: list[str] = field(default_factory=list)
    fallback_route: list[str] = field(default_factory=list)


def default_node_names(n_sublinks: int) -> list[str]:
    """Node labels for an ``n_sublinks``-hop relay.

    ``["source", "depot0", ..., "sink"]`` — the same names the loopback
    transport tests use, so timelines from both stacks line up key for
    key.
    """
    if n_sublinks < 1:
        raise ValueError("a relay has at least one sublink")
    return (
        ["source"]
        + [f"depot{i}" for i in range(n_sublinks - 1)]
        + ["sink"]
    )


class _TimelineEmitter:
    """Mirrors a :class:`RelayPipeline`'s state into a session timeline.

    Watches the pipeline after every step and emits the same per-stream
    event sequences the socket transport records, on virtual time:
    each sublink's sender logs ``connect``/``header_tx`` when the
    sublink opens and ``complete`` when its last byte is acknowledged;
    each receiver logs ``header_rx``, ``first_byte``, quarter
    ``progress`` watermarks and ``eof`` as delivery advances.  Every
    record passes an explicit ``t`` so the timeline's wall clock is
    never consulted (virtual time only under ``net/``).

    With ``staged`` the emitter models a *resumed* leg (failover
    phase 2): each node starts from its carried-over byte position, so
    openings log ``resume`` on both sides of a sublink whose receiver
    already holds bytes (mirroring the ResumeOffset handshake),
    ``first_byte`` is suppressed at resumed receivers, and progress
    watermarks count absolute session bytes (``staged + delivered``)
    against ``total``, not this pipeline's remainder.
    """

    def __init__(
        self,
        pipeline: RelayPipeline,
        timeline: SessionTimeline,
        session: str = "",
        node_names: list[str] | None = None,
        staged: dict[str, float] | None = None,
        t_offset: float = 0.0,
        total: float | None = None,
    ) -> None:
        n = len(pipeline.flows)
        names = node_names or default_node_names(n)
        if len(names) != n + 1:
            raise ValueError(
                f"{n} sublinks need {n + 1} node names, got {len(names)}"
            )
        self._pipeline = pipeline
        self._timeline = timeline
        self._session = session
        self._nodes = list(names)
        self._t0 = t_offset
        self._total = float(total if total is not None else pipeline.size)
        self._staged = [
            float((staged or {}).get(name, 0.0)) for name in names
        ]
        self._opened = [False] * n
        # a resumed receiver saw its first byte on the abandoned route
        self._first = [self._staged[i + 1] > 0 for i in range(n)]
        self._eof = [False] * n
        self._complete = [False] * n
        self._marks = []
        for i in range(n):
            marks = ProgressWatermarks(self._total)
            marks.advance(self._staged[i + 1])
            self._marks.append(marks)

    def observe(self, now: float) -> None:
        """Emit every event the pipeline's state newly implies at ``now``."""
        size = self._pipeline.size
        record = self._timeline.record
        for i, flow in enumerate(self._pipeline.flows):
            sender, receiver = self._nodes[i], self._nodes[i + 1]
            base = self._staged[i + 1]
            if not self._opened[i] and now >= flow.start_time:
                t_open = self._t0 + flow.start_time
                for event in ("connect", "header_tx"):
                    record(
                        event, node=sender, stream=STREAM_DOWN,
                        session=self._session, t=t_open,
                    )
                if base > 0:
                    # sender side of the ResumeOffset handshake: the
                    # receiver acknowledged a nonzero staged prefix
                    record(
                        "resume", node=sender, stream=STREAM_DOWN,
                        session=self._session, t=t_open, nbytes=base,
                    )
                # the header rides ahead of the first data chunk
                t_rx = t_open + flow.path.one_way_delay
                record(
                    "header_rx", node=receiver, stream=STREAM_UP,
                    session=self._session, t=t_rx,
                )
                if base > 0:
                    record(
                        "resume", node=receiver, stream=STREAM_UP,
                        session=self._session, t=t_rx, nbytes=base,
                    )
                self._opened[i] = True
            if not self._opened[i]:
                continue
            delivered = flow.delivered
            absolute = min(base + delivered, self._total)
            if not self._first[i] and delivered > 0:
                record(
                    "first_byte", node=receiver, stream=STREAM_UP,
                    session=self._session, t=self._t0 + now,
                    nbytes=absolute,
                )
                self._first[i] = True
            if self._first[i]:
                for fraction, threshold in self._marks[i].advance(absolute):
                    record(
                        "progress", node=receiver, stream=STREAM_UP,
                        session=self._session, t=self._t0 + now,
                        nbytes=threshold, detail=f"{fraction:g}",
                    )
            if not self._eof[i] and delivered >= size - 0.5:
                record(
                    "eof", node=receiver, stream=STREAM_UP,
                    session=self._session, t=self._t0 + now,
                    nbytes=min(base + size, self._total),
                )
                self._eof[i] = True
            if not self._complete[i] and flow.acked >= size - 0.5:
                record(
                    "complete", node=sender, stream=STREAM_DOWN,
                    session=self._session, t=self._t0 + now,
                    nbytes=min(base + size, self._total),
                )
                self._complete[i] = True

    def resumed(self, sublink: int, now: float, at_bytes: float) -> None:
        """Log a depot-resume reconnect on ``sublink`` (fault runs)."""
        self._timeline.record(
            "resume", node=self._nodes[sublink], stream=STREAM_DOWN,
            session=self._session, t=now, nbytes=at_bytes,
        )

    def failed(self, sublink: int, now: float, detail: str) -> None:
        """Log retry exhaustion on ``sublink`` (fault runs)."""
        self._timeline.record(
            "error", node=self._nodes[sublink], stream=STREAM_DOWN,
            session=self._session, t=now, detail=detail,
        )


def choose_dt(paths: list[PathSpec]) -> float:
    """Pick a step size resolving the fastest RTT in the chain.

    One-twentieth of the smallest RTT resolves slow-start doubling well;
    the clamp keeps pathological inputs tractable.
    """
    dt = min(p.rtt for p in paths) / 20.0
    return min(max(dt, 1e-4), 0.01)


class NetworkSimulator:
    """Runs direct and depot-relayed transfers over the fluid TCP model.

    Parameters
    ----------
    config:
        TCP parameters applied to every connection.
    dt:
        Fixed step size in seconds; ``None`` selects per-transfer via
        :func:`choose_dt`.
    seed:
        Root seed for random loss mode.
    """

    def __init__(
        self,
        config: TcpConfig | None = None,
        dt: float | None = None,
        seed: int = 0,
    ) -> None:
        if dt is not None:
            check_positive("dt", dt)
        self.config = config or TcpConfig()
        self.dt = dt
        self._rng = RngStream(seed, "simulator")
        self._run_counter = 0

    def _next_rng(self) -> RngStream:
        self._run_counter += 1
        return self._rng.child(f"run{self._run_counter}")

    def run_direct(
        self,
        path: PathSpec,
        size: int,
        record_trace: bool = True,
        max_time: float = 3600.0,
        timeline: SessionTimeline | None = None,
        session: str = "",
        node_names: list[str] | None = None,
    ) -> TransferResult:
        """Transfer ``size`` bytes over a single end-to-end connection."""
        return self.run_relay(
            [path],
            size,
            record_trace=record_trace,
            max_time=max_time,
            timeline=timeline,
            session=session,
            node_names=node_names,
        )

    def run_relay(
        self,
        paths: list[PathSpec],
        size: int,
        depot_capacities: list[int] | None = None,
        record_trace: bool = True,
        max_time: float = 3600.0,
        configs: list[TcpConfig] | None = None,
        timeline: SessionTimeline | None = None,
        session: str = "",
        node_names: list[str] | None = None,
    ) -> TransferResult:
        """Transfer ``size`` bytes through ``len(paths) - 1`` depots.

        Depot storage defaults to the paper's budget (twice the sum of the
        adjacent kernel buffers; see
        :func:`~repro.net.depot_sim.default_depot_capacity`).  Per-sublink
        TCP parameters may be supplied via ``configs`` (kernels cache
        ``ssthresh`` per destination).  With a ``timeline`` the run also
        logs the schema events of ``docs/OBSERVABILITY.md`` on virtual
        time, under ``session`` and ``node_names`` (defaulting to
        :func:`default_node_names`).
        """
        pipeline = RelayPipeline(
            paths,
            size,
            config=self.config,
            depot_capacities=depot_capacities,
            rng=self._next_rng(),
            record_trace=record_trace,
            configs=configs,
        )
        emitter = (
            _TimelineEmitter(
                pipeline, timeline, session=session, node_names=node_names
            )
            if timeline is not None
            else None
        )
        dt = self.dt if self.dt is not None else choose_dt(paths)
        duration = pipeline.run(
            dt,
            max_time=max_time,
            observer=emitter.observe if emitter is not None else None,
        )
        traces = (
            [SeqTrace.from_flow(f) for f in pipeline.flows]
            if record_trace
            else []
        )
        return TransferResult(
            size=int(size),
            duration=duration,
            traces=traces,
            loss_events=pipeline.total_loss_events(),
            depot_peaks=[d.peak_occupancy for d in pipeline.depots],
        )

    def run_striped_relay(
        self,
        paths: list[PathSpec],
        size: int,
        stripes: int,
        depot_capacities: list[int] | None = None,
        max_time: float = 3600.0,
        configs: list[TcpConfig] | None = None,
    ) -> TransferResult:
        """Transfer ``size`` bytes over ``stripes`` parallel sublinks per hop.

        The fluid mirror of the socket transport's striped sessions:
        every hop's bandwidth and socket buffers split ``stripes`` ways
        (:func:`~repro.models.relay.stripe_share` — the loss-limited
        per-flow rate does *not* split, which is the aggregation win),
        each stripe carries an equal slice of the payload, and the
        serialized per-stripe resume handshakes stagger stripe ``k``'s
        start by ``k`` first-hop RTTs.  The transfer completes when the
        last stripe's slice drains.

        ``stripes == 1`` degenerates to :meth:`run_relay`.
        """
        from repro.models.relay import stripe_share

        check_positive("stripes", stripes)
        if stripes == 1:
            return self.run_relay(
                paths,
                size,
                depot_capacities=depot_capacities,
                record_trace=False,
                max_time=max_time,
                configs=configs,
            )
        shared = [stripe_share(p, stripes) for p in paths]
        slice_sizes = [
            size // stripes + (1 if k < size % stripes else 0)
            for k in range(stripes)
        ]
        dt = self.dt if self.dt is not None else choose_dt(shared)
        setup = paths[0].rtt
        duration = 0.0
        loss = 0
        peaks: list[float] = []
        for k, slice_size in enumerate(slice_sizes):
            pipeline = RelayPipeline(
                shared,
                max(1, slice_size),
                config=self.config,
                depot_capacities=depot_capacities,
                rng=self._next_rng(),
                record_trace=False,
                configs=configs,
            )
            dur = pipeline.run(dt, max_time=max_time)
            duration = max(duration, k * setup + dur)
            loss += pipeline.total_loss_events()
            if pipeline.depots:
                if not peaks:
                    peaks = [0.0] * len(pipeline.depots)
                # stripes share each depot, so occupancies add
                peaks = [
                    acc + d.peak_occupancy
                    for acc, d in zip(peaks, pipeline.depots)
                ]
        return TransferResult(
            size=int(size),
            duration=duration,
            loss_events=loss,
            depot_peaks=peaks,
        )

    def run_relay_with_faults(
        self,
        paths: list[PathSpec],
        size: int,
        faults: list[SublinkFault],
        retry=None,
        resume: bool = True,
        depot_capacities: list[int] | None = None,
        record_trace: bool = False,
        max_time: float = 3600.0,
        configs: list[TcpConfig] | None = None,
        timeline: SessionTimeline | None = None,
        session: str = "",
        node_names: list[str] | None = None,
    ) -> FaultedTransferResult:
        """Run a transfer with injected sublink failures and recovery.

        Quantifies the paper's staging corollary: with depot-resume
        (``resume=True``) a failed sublink refunds only its in-flight
        bytes to the upstream store and reconnects from the delivery
        point, so recovery cost is proportional to that sublink alone.
        With ``resume=False`` (plain TCP, single direct path only) the
        whole transfer restarts from byte zero.

        ``retry`` is a :class:`~repro.lsl.faults.RetryPolicy`; its
        deterministic backoff sets each reconnect delay, and exceeding
        ``max_retries`` on any sublink abandons the transfer
        (``completed=False``).  The same transfer is first run without
        faults to report ``clean_duration``/``recovery_seconds``.
        """
        from repro.lsl.faults import RetryPolicy

        policy = retry or RetryPolicy()
        if not resume and len(paths) > 1:
            raise ValueError(
                "restart-from-source recovery models a plain direct "
                "connection; relays recover with resume=True"
            )
        for fault in faults:
            if not (0 <= fault.sublink < len(paths)):
                raise ValueError(
                    f"fault targets sublink {fault.sublink} of "
                    f"{len(paths)} paths"
                )
        clean = self.run_relay(
            paths,
            size,
            depot_capacities=depot_capacities,
            record_trace=False,
            max_time=max_time,
            configs=configs,
        )
        pipeline = RelayPipeline(
            paths,
            size,
            config=self.config,
            depot_capacities=depot_capacities,
            rng=self._next_rng(),
            record_trace=record_trace,
            configs=configs,
        )
        emitter = (
            _TimelineEmitter(
                pipeline, timeline, session=session, node_names=node_names
            )
            if timeline is not None
            else None
        )
        recovery_rng = self._next_rng()
        dt = self.dt if self.dt is not None else choose_dt(paths)
        remaining = {i: f.times for i, f in enumerate(faults)}
        retries_per_sublink: dict[int, int] = {}
        completed = True
        retries = 0
        now = 0.0
        while not pipeline.complete:
            now += dt
            if now > max_time:
                raise RuntimeError(
                    f"faulted transfer of {size} bytes did not complete "
                    f"within {max_time}s simulated"
                )
            pipeline.step(now, dt)
            if emitter is not None:
                emitter.observe(now)
            for i, fault in enumerate(faults):
                if remaining[i] <= 0:
                    continue
                flow = pipeline.flows[fault.sublink]
                if flow.delivered < fault.after_bytes:
                    continue
                remaining[i] -= 1
                attempt = retries_per_sublink.get(fault.sublink, 0)
                retries_per_sublink[fault.sublink] = attempt + 1
                retries += 1
                if attempt >= policy.max_retries:
                    completed = False
                    if emitter is not None:
                        emitter.failed(
                            fault.sublink,
                            now,
                            f"retry budget exhausted after {attempt} "
                            f"attempts",
                        )
                    break
                flow.inject_failure(
                    now,
                    restart_delay=policy.delay(attempt),
                    resume=resume,
                    rng=recovery_rng.child(
                        f"sublink{fault.sublink}-retry{attempt}"
                    ),
                )
                if emitter is not None and resume:
                    emitter.resumed(fault.sublink, now, flow.delivered)
            if not completed:
                break
        duration = (
            pipeline._refine_completion_time(now, dt)
            if pipeline.complete
            else now
        )
        for flow in pipeline.flows:
            flow.drain(now + flow.path.rtt)
        if emitter is not None and completed:
            emitter.observe(now + max(p.rtt for p in paths))
        traces = (
            [SeqTrace.from_flow(f) for f in pipeline.flows]
            if record_trace
            else []
        )
        per_sublink = [flow.retransmitted for flow in pipeline.flows]
        return FaultedTransferResult(
            size=int(size),
            duration=duration,
            traces=traces,
            loss_events=pipeline.total_loss_events(),
            depot_peaks=[d.peak_occupancy for d in pipeline.depots],
            retransmitted_bytes=sum(per_sublink),
            clean_duration=clean.duration,
            recovery_seconds=duration - clean.duration,
            retries=retries,
            completed=completed,
            per_sublink_retransmitted=per_sublink,
        )

    def run_batch(
        self,
        specs: list[BatchSpec],
        vectorized: bool = True,
        record_trace: bool = False,
        max_time: float = 3600.0,
        timeline: SessionTimeline | None = None,
        sessions: list[str] | None = None,
        node_names: list[list[str] | None] | None = None,
    ) -> list[TransferResult]:
        """Run many independent transfers, optionally in numpy lockstep.

        Each :class:`~repro.net.vectorized.BatchSpec` is the argument
        set of one :meth:`run_relay` (or, when it carries faults, one
        :meth:`run_relay_with_faults`) call.  With ``vectorized=False``
        the specs dispatch to those scalar runners one at a time — the
        conformance oracle.  With ``vectorized=True`` (the default) the
        batch runs on :class:`~repro.net.vectorized.VectorizedBatch`:
        every chain is a pipeline of stores (source, depots, sink) and
        every sublink a cell moving bytes from store ``k`` to store
        ``k + 1``, and one step advances every (sublink, lane) cell at
        once — all deliveries, then all acks, then all sends computed
        from the pre-send stores.  A sublink's send reads only its own
        upstream store and its downstream store's occupancy and
        reservation, which the next sublink's send writes only after,
        so this order hands each float operation the operands the
        scalar runner does: results are *identical*, not merely close
        (pinned by ``tests/net/test_vectorized_equivalence.py`` and
        ``tests/net/test_batch_golden.py``).

        Per step the driver then feeds timeline emitters and applies
        due faults, and retires the lanes whose sink reached the
        transfer size during the step (the engine reports them, so no
        per-step scan of every lane is needed).

        The vectorized path supports ``loss_mode="deterministic"`` only
        and raises ``ValueError`` for random loss (whose per-flow RNG
        streams are inherently sequential).  ``sessions`` and
        ``node_names`` give each spec its timeline identity; give each
        spec a distinct session so per-session event sequences are
        independent of batch interleaving.  Results are returned in
        spec order: plain specs yield :class:`TransferResult`, faulted
        specs yield :class:`FaultedTransferResult` (including the
        hidden clean-twin run that prices ``recovery_seconds``).
        """
        from repro.lsl.faults import RetryPolicy

        specs = list(specs)
        if sessions is not None and len(sessions) != len(specs):
            raise ValueError("one session per spec required")
        if node_names is not None and len(node_names) != len(specs):
            raise ValueError("one node-name list per spec required")
        if not vectorized:
            results: list[TransferResult] = []
            for i, spec in enumerate(specs):
                session = sessions[i] if sessions is not None else ""
                names = node_names[i] if node_names is not None else None
                caps = (
                    list(spec.depot_capacities)
                    if spec.depot_capacities is not None
                    else None
                )
                cfgs = (
                    list(spec.configs) if spec.configs is not None else None
                )
                if spec.faults:
                    results.append(
                        self.run_relay_with_faults(
                            list(spec.paths),
                            spec.size,
                            list(spec.faults),
                            retry=spec.retry,
                            resume=spec.resume,
                            depot_capacities=caps,
                            record_trace=record_trace,
                            max_time=max_time,
                            configs=cfgs,
                            timeline=timeline,
                            session=session,
                            node_names=names,
                        )
                    )
                else:
                    results.append(
                        self.run_relay(
                            list(spec.paths),
                            spec.size,
                            depot_capacities=caps,
                            record_trace=record_trace,
                            max_time=max_time,
                            configs=cfgs,
                            timeline=timeline,
                            session=session,
                            node_names=names,
                        )
                    )
            return results

        engine_specs: list[BatchSpec] = []
        dts: list[float] = []
        flags: list[bool] = []
        twin_lane: dict[int, int] = {}
        for spec in specs:
            engine_specs.append(spec)
            dts.append(
                self.dt
                if self.dt is not None
                else choose_dt(list(spec.paths))
            )
            flags.append(record_trace)
        for i, spec in enumerate(specs):
            if spec.faults:
                # hidden clean twin pricing clean_duration, exactly like
                # the scalar runner's fault-free pre-run
                twin_lane[i] = len(engine_specs)
                engine_specs.append(
                    BatchSpec(
                        paths=spec.paths,
                        size=spec.size,
                        depot_capacities=spec.depot_capacities,
                        configs=spec.configs,
                    )
                )
                dts.append(dts[i])
                flags.append(False)
        # mirror the scalar runners' per-run RNG consumption so scalar
        # runs after a batch see the same child streams either way
        for spec in specs:
            for _ in range(3 if spec.faults else 1):
                self._next_rng()

        batch = VectorizedBatch(
            engine_specs,
            self.config,
            dts,
            max_time=max_time,
            record=flags,
        )
        emitters: dict[int, _TimelineEmitter] = {}
        if timeline is not None:
            for i in range(len(specs)):
                emitters[i] = _TimelineEmitter(
                    batch.pipeline_view(i),
                    timeline,
                    session=sessions[i] if sessions is not None else "",
                    node_names=(
                        node_names[i] if node_names is not None else None
                    ),
                )
        policies = {
            i: (spec.retry or RetryPolicy())
            for i, spec in enumerate(specs)
            if spec.faults
        }
        completed = {i: True for i in policies}

        while batch.cells.size:
            reached = batch.step_all()
            for lane, emitter in emitters.items():
                if batch.alive[lane]:
                    emitter.observe(float(batch.now[lane]))
            for lane, policy in policies.items():
                if not batch.alive[lane]:
                    continue
                spec = specs[lane]
                now_l = float(batch.now[lane])
                remaining = batch.fault_remaining[lane]
                per_sub = batch.fault_retries_per_sublink[lane]
                for fi, fault in enumerate(spec.faults):
                    if remaining[fi] <= 0:
                        continue
                    cell = batch.cell(lane, fault.sublink)
                    if float(batch.delivered[cell]) < fault.after_bytes:
                        continue
                    remaining[fi] -= 1
                    attempt = per_sub.get(fault.sublink, 0)
                    per_sub[fault.sublink] = attempt + 1
                    batch.fault_retries[lane] += 1
                    if attempt >= policy.max_retries:
                        completed[lane] = False
                        if lane in emitters:
                            emitters[lane].failed(
                                fault.sublink,
                                now_l,
                                f"retry budget exhausted after {attempt} "
                                f"attempts",
                            )
                        break
                    batch.inject_failure(
                        lane,
                        fault.sublink,
                        now_l,
                        restart_delay=policy.delay(attempt),
                        resume=spec.resume,
                    )
                    if lane in emitters and spec.resume:
                        emitters[lane].resumed(
                            fault.sublink,
                            now_l,
                            float(batch.delivered[cell]),
                        )
                if not completed[lane]:
                    # retry budget exhausted: freeze this lane now
                    if batch.received(lane) >= float(batch.sizes[lane]) - 0.5:
                        batch.durations[lane] = (
                            batch.refine_completion_time(lane)
                        )
                    else:
                        batch.durations[lane] = float(batch.now[lane])
                    batch.drain_chain(lane)
                    batch.retire(lane)
            for lane in reached:
                if not batch.complete(lane):
                    continue  # a restart rolled the sink back this step
                batch.durations[lane] = batch.refine_completion_time(lane)
                batch.drain_chain(lane)
                if lane in emitters:
                    emitters[lane].observe(
                        float(batch.now[lane]) + batch.max_rtt(lane)
                    )
                batch.retire(lane)

        results = []
        for i, spec in enumerate(specs):
            duration = float(batch.durations[i])
            traces = batch.traces(i) if record_trace else []
            loss = batch.total_loss_events(i)
            peaks = batch.depot_peaks(i)
            if spec.faults:
                per_sublink = batch.per_sublink_retransmitted(i)
                clean_duration = float(batch.durations[twin_lane[i]])
                results.append(
                    FaultedTransferResult(
                        size=int(spec.size),
                        duration=duration,
                        traces=traces,
                        loss_events=loss,
                        depot_peaks=peaks,
                        retransmitted_bytes=sum(per_sublink),
                        clean_duration=clean_duration,
                        recovery_seconds=duration - clean_duration,
                        retries=batch.fault_retries[i],
                        completed=completed[i],
                        per_sublink_retransmitted=per_sublink,
                    )
                )
            else:
                results.append(
                    TransferResult(
                        size=int(spec.size),
                        duration=duration,
                        traces=traces,
                        loss_events=loss,
                        depot_peaks=peaks,
                    )
                )
        return results

    def run_relay_with_failover(
        self,
        primary_paths: list[PathSpec],
        fallback_paths: list[PathSpec],
        size: int,
        fail_sublink: int,
        fail_after_bytes: float,
        primary_names: list[str] | None = None,
        fallback_names: list[str] | None = None,
        depot_capacities: list[int] | None = None,
        configs: list[TcpConfig] | None = None,
        fallback_configs: list[TcpConfig] | None = None,
        max_time: float = 3600.0,
        timeline: SessionTimeline | None = None,
        session: str = "",
    ) -> FailoverTransferResult:
        """One transfer that loses a depot mid-stream and reroutes.

        The virtual-time mirror of
        :class:`repro.lsl.failover.FailoverSender`: the primary route
        runs until the receiver of ``fail_sublink`` has taken in
        ``fail_after_bytes`` (and every node has seen payload), then
        that depot dies — every receiver's stream errors out (with no
        session attribution, matching the socket servers), the source
        records a session-scoped ``error`` and a ``failover``, and the
        transfer re-opens over ``fallback_paths`` with each surviving
        node resuming from the bytes it had staged.  Route diagnosis is
        instantaneous in virtual time (the real stack spends a few
        probe round-trips there).

        Nodes are matched between the two routes *by name*: a fallback
        node whose name appears in the primary route inherits its
        staged bytes (and logs ``resume``); an unnamed newcomer starts
        cold.  The fallback pipeline carries the bytes the sink still
        needs, so upstream re-sends of already-staged spans are not
        separately modelled.

        Raises
        ------
        ValueError
            When the failed node is an endpoint, still appears in the
            fallback route, or the primary transfer finishes before
            the fault can trip.
        """
        check_positive("fail_after_bytes", fail_after_bytes)
        names = primary_names or default_node_names(len(primary_paths))
        fnames = fallback_names or default_node_names(len(fallback_paths))
        if len(names) != len(primary_paths) + 1:
            raise ValueError(
                f"{len(primary_paths)} sublinks need "
                f"{len(primary_paths) + 1} primary names, got {len(names)}"
            )
        if len(fnames) != len(fallback_paths) + 1:
            raise ValueError(
                f"{len(fallback_paths)} sublinks need "
                f"{len(fallback_paths) + 1} fallback names, got {len(fnames)}"
            )
        if not (0 <= fail_sublink < len(primary_paths) - 1):
            raise ValueError(
                f"fail_sublink={fail_sublink} must target an intermediate "
                f"depot (0..{len(primary_paths) - 2}); the sink cannot be "
                f"failed over"
            )
        failed_node = names[fail_sublink + 1]
        if failed_node in fnames:
            raise ValueError(
                f"fallback route still traverses the failed depot "
                f"{failed_node!r}"
            )
        if (names[0], names[-1]) != (fnames[0], fnames[-1]):
            raise ValueError("both routes must share their endpoints")

        pipeline = RelayPipeline(
            primary_paths,
            size,
            config=self.config,
            depot_capacities=depot_capacities,
            rng=self._next_rng(),
            record_trace=False,
            configs=configs,
        )
        emitter = (
            _TimelineEmitter(
                pipeline, timeline, session=session, node_names=names
            )
            if timeline is not None
            else None
        )
        dt = (
            self.dt
            if self.dt is not None
            else choose_dt(list(primary_paths) + list(fallback_paths))
        )
        now = 0.0
        while True:
            now += dt
            if now > max_time:
                raise RuntimeError(
                    f"primary leg of {size} bytes did not reach the fault "
                    f"point within {max_time}s simulated"
                )
            pipeline.step(now, dt)
            if emitter is not None:
                emitter.observe(now)
            if pipeline.flows[fail_sublink].delivered >= fail_after_bytes and all(
                flow.delivered > 0 for flow in pipeline.flows
            ):
                break
            if pipeline.complete:
                raise ValueError(
                    f"transfer of {size} bytes completed before sublink "
                    f"{fail_sublink} delivered {fail_after_bytes} bytes; "
                    f"lower fail_after_bytes"
                )
        staged = {
            names[i + 1]: float(flow.delivered)
            for i, flow in enumerate(pipeline.flows)
        }
        if timeline is not None:
            for i in range(len(pipeline.flows)):
                # server-side errors carry no session id (the socket
                # transport's handlers record them before/outside any
                # session scope)
                timeline.record(
                    "error", node=names[i + 1], stream=STREAM_UP,
                    session="", t=now,
                    detail=f"{failed_node} died mid-stream",
                )
            timeline.record(
                "error", node=names[0], stream=STREAM_DOWN,
                session=session, t=now,
                detail=f"route through {failed_node} failed",
            )
            timeline.record(
                "failover", node=names[0], stream=STREAM_DOWN,
                session=session, t=now, detail=f"avoid={failed_node}",
            )
        handoff = now
        remaining = size - staged[names[-1]]
        fallback = RelayPipeline(
            fallback_paths,
            remaining,
            config=self.config,
            depot_capacities=depot_capacities,
            rng=self._next_rng(),
            record_trace=False,
            configs=fallback_configs,
        )
        emitter2 = (
            _TimelineEmitter(
                fallback,
                timeline,
                session=session,
                node_names=fnames,
                staged=staged,
                t_offset=handoff,
                total=size,
            )
            if timeline is not None
            else None
        )
        tail = fallback.run(
            dt,
            max_time=max_time - handoff,
            observer=emitter2.observe if emitter2 is not None else None,
        )
        return FailoverTransferResult(
            size=int(size),
            duration=handoff + tail,
            loss_events=(
                pipeline.total_loss_events() + fallback.total_loss_events()
            ),
            depot_peaks=[d.peak_occupancy for d in fallback.depots],
            failovers=1,
            failed_node=failed_node,
            staged_at_failover=staged,
            handoff_time=handoff,
            primary_route=list(names),
            fallback_route=list(fnames),
        )

    def run_staging_with_failover(
        self,
        node_names: list[str],
        parents: list[int],
        edge_paths: dict[tuple[str, str], PathSpec],
        size: int,
        fail_node: str | None = None,
        fail_during: str | None = None,
        fail_after_bytes: float = 0.0,
        stripes: int = 1,
        source_name: str = "source",
        max_time: float = 3600.0,
        timeline: SessionTimeline | None = None,
        session: str = "",
    ) -> StagingResult:
        """Multicast staging down a depot tree, with an optional depot kill.

        The virtual-time mirror of
        :class:`repro.lsl.multicast_failover.MulticastFailoverSender`:
        nodes are delivered parents-before-children, and because every
        already-staged ancestor holds a complete retained ledger, each
        delivery moves payload across exactly one edge — from the node's
        nearest surviving ancestor (the source, for the root).  Deliveries
        are sequential in virtual time, as the socket sender's are.

        ``node_names``/``parents`` describe the tree (``parents[0] ==
        -1``, parents before children); ``edge_paths`` maps
        ``(upstream_name, node_name)`` to the :class:`PathSpec` of that
        delivery edge and must cover ``(source_name, root)``, every tree
        edge, and any re-graft edge a failover needs.

        With ``fail_node`` given, that depot dies once the delivery to
        ``fail_during`` (a strict descendant) has moved
        ``fail_after_bytes`` payload bytes: the broken chain's nodes log
        server-side ``error`` events, the source logs a session-scoped
        ``error`` and a ``failover`` naming the branch and the avoided
        host, and the orphaned delivery resumes from its staged
        watermark via the nearest surviving ancestor.  Later deliveries
        route around the dead depot up front (the avoided set persists),
        so sibling branches simply never touch it.

        With ``stripes > 1`` each delivery runs as that many striped
        sublinks (:func:`~repro.models.relay.stripe_share` shares, one
        RTT of serialized handshake stagger per extra stripe); the
        timeline then mirrors one representative stripe per hop and
        byte thresholds are interpreted as absolute session bytes.
        """
        check_positive("size", size)
        check_positive("stripes", stripes)
        if len(node_names) != len(parents):
            raise ValueError("one parent index per node required")
        if not node_names:
            raise ValueError("the staging tree is empty")
        if parents[0] != -1:
            raise ValueError("node 0 must be the root (parent -1)")
        for i, parent in enumerate(parents[1:], start=1):
            if not (0 <= parent < i):
                raise ValueError(
                    f"node {i} references parent {parent} at or after itself"
                )
        if (fail_node is None) != (fail_during is None):
            raise ValueError(
                "fail_node and fail_during must be given together"
            )
        index_of = {name: i for i, name in enumerate(node_names)}
        if fail_node is not None:
            if fail_node not in index_of or fail_during not in index_of:
                raise ValueError(
                    f"fail_node {fail_node!r} and fail_during "
                    f"{fail_during!r} must name tree nodes"
                )
            check_positive("fail_after_bytes", fail_after_bytes)
            ancestor = parents[index_of[fail_during]]
            chain = set()
            while ancestor >= 0:
                chain.add(node_names[ancestor])
                ancestor = parents[ancestor]
            if fail_node not in chain:
                raise ValueError(
                    f"{fail_node!r} is not an ancestor of {fail_during!r}; "
                    f"its death would not orphan that branch"
                )

        def edge(a: str, b: str) -> PathSpec:
            path = edge_paths.get((a, b))
            if path is None:
                raise ValueError(f"no PathSpec for staging edge {a} -> {b}")
            return path

        from repro.models.relay import stripe_share

        def delivery_path(a: str, b: str) -> PathSpec:
            path = edge(a, b)
            return path if stripes == 1 else stripe_share(path, stripes)

        # representative-stripe slice of a byte quantity
        def rep(nbytes: float) -> float:
            return nbytes / stripes

        setup = float(stripes - 1)  # multiplied by the edge RTT below
        dead: set[str] = set()
        dt = self.dt if self.dt is not None else min(
            choose_dt([p]) for p in edge_paths.values()
        )
        result = StagingResult(size=int(size), duration=0.0, stripes=stripes)
        now = 0.0
        for i, name in enumerate(node_names):
            # nearest surviving ancestor streams this delivery
            j = parents[i]
            while j >= 0 and node_names[j] in dead:
                j = parents[j]
            upstream = node_names[j] if j >= 0 else source_name
            path = delivery_path(upstream, name)
            names = [upstream, name]
            killing = fail_node is not None and name == fail_during
            pipeline = RelayPipeline(
                [path],
                max(1.0, rep(size)),
                config=self.config,
                rng=self._next_rng(),
                record_trace=False,
            )
            emitter = (
                _TimelineEmitter(
                    pipeline, timeline, session=session,
                    node_names=names, t_offset=now,
                )
                if timeline is not None
                else None
            )
            if not killing:
                dur = pipeline.run(
                    dt,
                    max_time=max_time - now,
                    observer=(
                        emitter.observe if emitter is not None else None
                    ),
                )
                now += dur + setup * edge(upstream, name).rtt
                result.node_times[name] = now
                result.loss_events += pipeline.total_loss_events()
                continue
            # -- the depot kill: run until the fault point, hand off ----
            threshold = rep(fail_after_bytes)
            pnow = 0.0
            while True:
                pnow += dt
                if now + pnow > max_time:
                    raise RuntimeError(
                        f"staging did not reach the fault point within "
                        f"{max_time}s simulated"
                    )
                pipeline.step(pnow, dt)
                if emitter is not None:
                    emitter.observe(pnow)
                if pipeline.flows[0].delivered >= threshold:
                    break
                if pipeline.complete:
                    raise ValueError(
                        f"delivery to {name!r} completed before "
                        f"{fail_after_bytes} bytes; lower fail_after_bytes"
                    )
            staged = float(pipeline.flows[0].delivered)
            handoff = now + pnow
            dead.add(fail_node)
            # the orphan re-grafts to its nearest surviving ancestor
            j = parents[i]
            while j >= 0 and node_names[j] in dead:
                j = parents[j]
            survivor = node_names[j] if j >= 0 else source_name
            if timeline is not None:
                # server-side errors carry no session id (the socket
                # transport's handlers record them outside session scope)
                for broken in (fail_node, name):
                    timeline.record(
                        "error", node=broken, stream=STREAM_UP,
                        session="", t=handoff,
                        detail=f"{fail_node} died mid-staging",
                    )
                timeline.record(
                    "error", node=source_name, stream=STREAM_DOWN,
                    session=session, t=handoff,
                    detail=f"branch {name} through {fail_node} failed",
                )
                timeline.record(
                    "failover", node=source_name, stream=STREAM_DOWN,
                    session=session, t=handoff,
                    detail=f"branch={name} avoid={fail_node}",
                )
            regraft = delivery_path(survivor, name)
            fallback = RelayPipeline(
                [regraft],
                max(1.0, rep(size) - staged),
                config=self.config,
                rng=self._next_rng(),
                record_trace=False,
            )
            emitter2 = (
                _TimelineEmitter(
                    fallback,
                    timeline,
                    session=session,
                    node_names=[survivor, name],
                    staged={survivor: rep(size), name: staged},
                    t_offset=handoff,
                    total=rep(size),
                )
                if timeline is not None
                else None
            )
            tail = fallback.run(
                dt,
                max_time=max_time - handoff,
                observer=(
                    emitter2.observe if emitter2 is not None else None
                ),
            )
            now = handoff + tail + setup * edge(survivor, name).rtt
            result.node_times[name] = now
            result.loss_events += (
                pipeline.total_loss_events() + fallback.total_loss_events()
            )
            result.failovers += 1
            result.failed_node = fail_node
            result.orphan = name
            result.resumed_from = survivor
            result.staged_at_failover = min(staged * stripes, float(size))
            result.handoff_time = handoff
        result.duration = now
        return result

    def compare_recovery(
        self,
        direct_path: PathSpec,
        relay_paths: list[PathSpec],
        size: int,
        after_bytes: float,
        failed_sublink: int | None = None,
        retry=None,
        **kwargs,
    ) -> tuple[FaultedTransferResult, FaultedTransferResult]:
        """One mid-transfer failure, direct restart vs. depot-resume.

        The direct path restarts from byte zero (plain TCP); the relayed
        path resumes from the failed sublink's delivery point.  Returns
        ``(direct, relayed)`` faulted results — the raw material for the
        recovery-cost claim.  ``failed_sublink`` defaults to the middle
        sublink of the relay.
        """
        if failed_sublink is None:
            failed_sublink = len(relay_paths) // 2
        direct = self.run_relay_with_faults(
            [direct_path],
            size,
            [SublinkFault(0, after_bytes)],
            retry=retry,
            resume=False,
            **kwargs,
        )
        relayed = self.run_relay_with_faults(
            relay_paths,
            size,
            [SublinkFault(failed_sublink, after_bytes)],
            retry=retry,
            resume=True,
            **kwargs,
        )
        return direct, relayed

    def compare(
        self,
        direct_path: PathSpec,
        relay_paths: list[PathSpec],
        size: int,
        iterations: int = 1,
        **kwargs,
    ) -> tuple[list[TransferResult], list[TransferResult]]:
        """Run ``iterations`` of both the direct and relayed transfer.

        Returns ``(direct_results, relay_results)`` — the raw material for
        the paper's speedup metric (Eq. 1: ratio of average bandwidths).
        """
        direct = [
            self.run_direct(direct_path, size, **kwargs)
            for _ in range(iterations)
        ]
        relayed = [
            self.run_relay(relay_paths, size, **kwargs)
            for _ in range(iterations)
        ]
        return direct, relayed


def speedup(direct: list[TransferResult], relayed: list[TransferResult]) -> float:
    """The paper's Equation 1: mean scheduled bandwidth / mean direct.

    ``speedup > 1`` means the logistical route won.
    """
    if not direct or not relayed:
        raise ValueError("both result lists must be non-empty")
    mean_direct = sum(r.bandwidth for r in direct) / len(direct)
    mean_relay = sum(r.bandwidth for r in relayed) / len(relayed)
    return mean_relay / mean_direct
