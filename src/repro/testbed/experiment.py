"""Measurement campaigns: NWS probing, scheduling, measured transfers.

One campaign reproduces the Section-4.2 pipeline end to end:

1. **Probe** — per site pair, feed noisy bandwidth observations (around
   the testbed's ground truth) into a
   :class:`~repro.nws.matrix.CliqueAggregator`;
2. **Schedule** — build the performance matrix, run the
   :class:`~repro.core.scheduler.LogisticalScheduler` (ε = 10 % unless
   told otherwise), optionally restricted to designated depot hosts;
3. **Measure** — for every pair the scheduler routed through depots,
   take matched direct and scheduled measurements per size.  Transfer
   times come from the semi-analytic models over the testbed's *actual*
   path characteristics — including depot forwarding caps and
   administrative rate limits the scheduler never saw — perturbed by
   lognormal measurement noise.

Multi-round campaigns model the paper's closing observation about
scheduling frequency: ground truth drifts between rounds, and the
scheduler either re-runs each round (``reschedule=True``, the 5-minute
mode) or keeps its round-one routes (static mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.scheduler import LogisticalScheduler, ScheduleDecision
from repro.models.relay import relay_transfer_time
from repro.models.transfer_time import transfer_time
from repro.net.simulator import NetworkSimulator
from repro.net.tcp import TcpConfig
from repro.net.topology import PathSpec
from repro.net.vectorized import BatchSpec
from repro.nws.matrix import CliqueAggregator
from repro.testbed.network import Testbed
from repro.testbed.workload import WorkloadConfig
from repro.util.rng import RngStream
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MeasuredTransfer:
    """One measured transfer (the campaign's unit of data).

    Attributes
    ----------
    src, dst:
        Endpoints.
    size:
        Bytes.
    use_lsl:
        Scheduled forwarding (True) or direct (False).
    bandwidth:
        Observed bandwidth in bytes/sec (noise included).
    route:
        The host route actually used.
    round_index:
        Campaign round this measurement belongs to.
    """

    src: str
    dst: str
    size: int
    use_lsl: bool
    bandwidth: float
    route: tuple[str, ...]
    round_index: int = 0


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign parameters.

    Parameters
    ----------
    probes_per_pair:
        NWS observations fed per site pair before scheduling.
    probe_noise_sigma:
        Lognormal sigma of probe noise around ground truth.
    measure_noise_sigma:
        Lognormal sigma of measurement noise on transfers.
    iterations:
        Matched measurements per (pair, size, mode).
    max_cases:
        Ceiling on the number of scheduler-chosen pairs measured
        (sampling keeps big campaigns tractable); ``None`` = all.
    epsilon:
        Scheduler ε (the paper's 10 % by default).
    min_gain:
        Scheduler gain filter (1.0 = paper behaviour).
    workload:
        Size range configuration.
    rounds:
        Number of probe/schedule/measure rounds.
    reschedule:
        Recompute routes each round (True) or only in round one.
    drift_sigma:
        Per-round lognormal drift of each site pair's ground truth.
    depot_load_median, depot_load_sigma:
        Per-transfer lognormal factor (clipped at 1) applied to each
        intermediate depot's forwarding capacity — the transient
        virtualisation load the scheduler never sees.  ``median = 1``
        and ``sigma = 0`` disable it.
    probe_mode:
        ``"batch"`` feeds ``probes_per_pair`` observations per site pair
        directly; ``"sensors"`` runs NWS token-passing cliques
        (:mod:`repro.nws.sensor`) for ``sensor_rounds`` full inter-site
        token cycles — slower but faithful to how NWS actually probes.
    sensor_rounds:
        Token cycles to run in ``"sensors"`` mode.
    measure_engine:
        ``"model"`` prices transfers with the semi-analytic closed
        forms (fast, the default); ``"simulator"`` runs every measured
        transfer through the fluid :class:`~repro.net.simulator.
        NetworkSimulator`, one batch per round.
    simulate_vectorized:
        In ``"simulator"`` mode, run each round's batch in numpy
        lockstep (:meth:`~repro.net.simulator.NetworkSimulator.
        run_batch`) instead of one scalar simulation per case.  The
        durations are identical either way; vectorized is the fast
        path.
    """

    probes_per_pair: int = 16
    probe_noise_sigma: float = 0.05
    measure_noise_sigma: float = 0.30
    iterations: int = 3
    max_cases: int | None = 200
    epsilon: float = 0.1
    min_gain: float = 1.0
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    rounds: int = 1
    reschedule: bool = True
    drift_sigma: float = 0.0
    depot_load_median: float = 0.8
    depot_load_sigma: float = 0.35
    probe_mode: str = "batch"
    sensor_rounds: int = 4
    measure_engine: str = "model"
    simulate_vectorized: bool = True

    def __post_init__(self) -> None:
        check_positive("probes_per_pair", self.probes_per_pair)
        check_positive("iterations", self.iterations)
        check_positive("rounds", self.rounds)
        check_positive("sensor_rounds", self.sensor_rounds)
        if self.probe_mode not in ("batch", "sensors"):
            raise ValueError(f"probe_mode={self.probe_mode!r} not recognised")
        if self.measure_engine not in ("model", "simulator"):
            raise ValueError(
                f"measure_engine={self.measure_engine!r} not recognised"
            )
        if self.max_cases is not None:
            check_positive("max_cases", self.max_cases)


@dataclass
class CampaignResult:
    """Everything a campaign produced.

    Attributes
    ----------
    measurements:
        All measured transfers.
    coverage:
        Fraction of endpoint pairs the scheduler routed through depots
        (round one).
    lsl_pairs:
        The pairs measured (after sampling).
    decisions:
        Round-one scheduling decision per measured pair.
    """

    measurements: list[MeasuredTransfer]
    coverage: float
    lsl_pairs: list[tuple[str, str]]
    decisions: dict[tuple[str, str], ScheduleDecision]

    def __len__(self) -> int:
        return len(self.measurements)


class _DriftingTruth:
    """Ground-truth bandwidth with per-site-pair multiplicative drift."""

    def __init__(self, testbed: Testbed, rng: RngStream, sigma: float) -> None:
        self._testbed = testbed
        self._rng = rng
        self._sigma = sigma
        self._factor: dict[tuple[str, str], float] = {}

    def advance(self) -> None:
        if self._sigma <= 0:
            return
        for src_site, dst_site in self._testbed.site_pairs():
            key = (src_site, dst_site)
            prev = self._factor.get(key, 1.0)
            self._factor[key] = prev * float(
                self._rng.lognormal(0.0, self._sigma)
            )

    def factor(self, src: str, dst: str) -> float:
        key = (self._testbed.site_of[src], self._testbed.site_of[dst])
        return self._factor.get(key, 1.0)

    def bandwidth(self, src: str, dst: str) -> float:
        return self._testbed.true_bandwidth(src, dst) * self.factor(src, dst)

    def bandwidths(self, pairs: list[tuple[str, str]]) -> np.ndarray:
        """:meth:`bandwidth` of every pair, bit for bit, in one pass."""
        factors = np.array([self.factor(src, dst) for src, dst in pairs])
        return self._testbed.true_bandwidths(pairs) * factors

    def scale_spec(self, spec: PathSpec, src: str, dst: str) -> PathSpec:
        f = self.factor(src, dst)
        if f == 1.0:
            return spec
        return PathSpec(
            rtt=spec.rtt,
            bandwidth=spec.bandwidth * f,
            loss_rate=spec.loss_rate,
            send_buffer=spec.send_buffer,
            recv_buffer=spec.recv_buffer,
            name=spec.name,
        )


def _probe(
    testbed: Testbed,
    truth: _DriftingTruth,
    aggregator: CliqueAggregator,
    probes: int,
    sigma: float,
    rng: RngStream,
) -> None:
    """Feed noisy bandwidth observations, one representative host pair
    per site pair plus intra-site pairs."""
    # each site's first host in sorted order, as Testbed.hosts_at(site)[0]
    first_host: dict[str, str] = {}
    for host in sorted(testbed.site_of):
        first_host.setdefault(testbed.site_of[host], host)
    pairs = [(first_host[a], first_host[b]) for a, b in testbed.site_pairs()]
    # one block, drawn in the order of one draw per probe
    noise = rng.lognormal(0.0, sigma, size=(len(pairs), probes))
    samples = truth.bandwidths(pairs)[:, None] * noise
    for (src, dst), block in zip(pairs, samples):
        aggregator.observe_block(src, dst, block)


def _probe_with_sensors(
    testbed: Testbed,
    truth: _DriftingTruth,
    aggregator: CliqueAggregator,
    rounds: int,
    sigma: float,
    rng: RngStream,
    seed: int,
) -> None:
    """Probe through NWS token cliques instead of a flat batch.

    The inter-site clique's token must complete ``rounds`` full cycles
    so every ordered pair accumulates several forecasting samples.
    """
    from repro.nws.sensor import SensorNetwork

    def measure(src: str, dst: str) -> float:
        return truth.bandwidth(src, dst) * float(rng.lognormal(0.0, sigma))

    sensors = SensorNetwork(testbed.site_of, measure, seed=seed)
    inter = sensors.cliques[0]
    sensors.feed(aggregator, until=rounds * inter.round_duration())


def run_campaign(
    testbed: Testbed,
    config: CampaignConfig | None = None,
    seed: int = 0,
    tcp_config: TcpConfig | None = None,
) -> CampaignResult:
    """Execute a full probe/schedule/measure campaign.

    Returns raw measurements; aggregate with :mod:`repro.testbed.stats`.
    """
    config = config or CampaignConfig()
    tcp_config = tcp_config or TcpConfig()
    rng = RngStream(seed, "campaign")
    truth = _DriftingTruth(testbed, rng.child("drift"), config.drift_sigma)

    measurements: list[MeasuredTransfer] = []
    coverage = 0.0
    sampled_pairs: list[tuple[str, str]] = []
    decisions: dict[tuple[str, str], ScheduleDecision] = {}
    scheduler: LogisticalScheduler | None = None

    endpoint_set = set(testbed.endpoint_hosts)
    probe_rng = rng.child("probe")
    noise_rng = rng.child("noise")
    sample_rng = rng.child("sample")
    simulator = (
        NetworkSimulator(config=tcp_config)
        if config.measure_engine == "simulator"
        else None
    )

    for round_index in range(config.rounds):
        if round_index > 0:
            truth.advance()

        if scheduler is None or config.reschedule:
            aggregator = CliqueAggregator(testbed.site_of)
            if config.probe_mode == "sensors":
                _probe_with_sensors(
                    testbed,
                    truth,
                    aggregator,
                    config.sensor_rounds,
                    config.probe_noise_sigma,
                    probe_rng,
                    seed=seed + round_index,
                )
            else:
                _probe(
                    testbed,
                    truth,
                    aggregator,
                    config.probes_per_pair,
                    config.probe_noise_sigma,
                    probe_rng,
                )
            matrix = aggregator.build_matrix()
            scheduler = LogisticalScheduler(
                matrix,
                epsilon=config.epsilon,
                min_gain=config.min_gain,
                depot_hosts=set(testbed.depot_hosts),
            )

        if round_index == 0:
            # "Only routes where the scheduler chose to use depots were
            # measured."
            pairs = [
                (s, d)
                for (s, d) in scheduler.lsl_pairs()
                if s in endpoint_set and d in endpoint_set
            ]
            endpoint_pair_count = len(endpoint_set) * (len(endpoint_set) - 1)
            coverage = len(pairs) / endpoint_pair_count if endpoint_pair_count else 0.0
            if config.max_cases is not None and len(pairs) > config.max_cases:
                idx = sample_rng.choice(
                    len(pairs), size=config.max_cases, replace=False
                )
                pairs = [pairs[i] for i in sorted(idx)]
            sampled_pairs = pairs

        cases: list[_PreparedCase] = []
        sublinks: dict[tuple[str, ...], tuple[PathSpec, ...]] = {}
        for src, dst in sampled_pairs:
            decision = scheduler.decide(src, dst)
            if round_index == 0:
                decisions[(src, dst)] = decision
            for size in config.workload.sizes:
                for _ in range(config.iterations):
                    cases.append(
                        _prepare_case(
                            testbed, truth, src, dst, size,
                            use_lsl=False, route=(src, dst),
                            config=config, rng=noise_rng,
                            round_index=round_index, sublinks=sublinks,
                        )
                    )
                    route = tuple(decision.route) if decision.use_lsl else (src, dst)
                    cases.append(
                        _prepare_case(
                            testbed, truth, src, dst, size,
                            use_lsl=decision.use_lsl, route=route,
                            config=config, rng=noise_rng,
                            round_index=round_index, sublinks=sublinks,
                        )
                    )
        # one pricing pass per round: the whole round becomes a single
        # run_batch call in "simulator" mode
        measurements.extend(
            _finish_cases(cases, config, tcp_config, simulator)
        )

    return CampaignResult(
        measurements=measurements,
        coverage=coverage,
        lsl_pairs=sampled_pairs,
        decisions=decisions,
    )


def run_random_campaign(
    testbed: Testbed,
    n_requests: int = 2000,
    config: CampaignConfig | None = None,
    seed: int = 0,
    tcp_config: TcpConfig | None = None,
) -> CampaignResult:
    """The paper's literal Section-4.2 protocol, unbalanced and random.

    "Each depot was made to spawn a thread that initiated transfers to a
    random depot ... The test logic chose direct routing or LSL
    scheduled forwarding randomly" — so cases accumulate unequal sample
    counts, and "only routes where the scheduler chose to use depots
    were measured" filters the stream down to the interesting pairs.

    Use :func:`run_campaign` for the balanced design the statistics
    prefer; use this to check the protocol itself does not change the
    story.
    """
    from repro.testbed.workload import WorkloadGenerator

    check_positive("n_requests", n_requests)
    config = config or CampaignConfig()
    tcp_config = tcp_config or TcpConfig()
    rng = RngStream(seed, "random-campaign")
    truth = _DriftingTruth(testbed, rng.child("drift"), config.drift_sigma)

    aggregator = CliqueAggregator(testbed.site_of)
    _probe(
        testbed,
        truth,
        aggregator,
        config.probes_per_pair,
        config.probe_noise_sigma,
        rng.child("probe"),
    )
    scheduler = LogisticalScheduler(
        aggregator.build_matrix(),
        epsilon=config.epsilon,
        min_gain=config.min_gain,
        depot_hosts=set(testbed.depot_hosts),
    )

    generator = WorkloadGenerator(
        testbed.endpoint_hosts, config.workload, seed=seed
    )
    noise_rng = rng.child("noise")
    cases: list[_PreparedCase] = []
    sublinks: dict[tuple[str, ...], tuple[PathSpec, ...]] = {}
    decisions: dict[tuple[str, str], ScheduleDecision] = {}
    for request in generator.batch(n_requests):
        decision = decisions.get((request.src, request.dst))
        if decision is None:
            decision = scheduler.decide(request.src, request.dst)
            decisions[(request.src, request.dst)] = decision
        if not decision.use_lsl:
            continue  # only scheduler-chosen pairs are measured
        route = (
            tuple(decision.route)
            if request.use_lsl
            else (request.src, request.dst)
        )
        cases.append(
            _prepare_case(
                testbed, truth, request.src, request.dst, request.size,
                use_lsl=request.use_lsl, route=route,
                config=config, rng=noise_rng, round_index=0,
                sublinks=sublinks,
            )
        )

    simulator = (
        NetworkSimulator(config=tcp_config)
        if config.measure_engine == "simulator"
        else None
    )
    measurements = _finish_cases(cases, config, tcp_config, simulator)

    lsl_pairs = sorted({(m.src, m.dst) for m in measurements})
    endpoint_pairs = len(testbed.endpoint_hosts) * (
        len(testbed.endpoint_hosts) - 1
    )
    coverage = (
        sum(1 for d in decisions.values() if d.use_lsl) / len(decisions)
        if decisions
        else 0.0
    )
    return CampaignResult(
        measurements=measurements,
        coverage=coverage,
        lsl_pairs=lsl_pairs,
        decisions={
            pair: d for pair, d in decisions.items() if d.use_lsl
        },
    )


def _depot_load_factor(config: CampaignConfig, rng: RngStream) -> float:
    """Transient forwarding-capacity factor for one depot, one transfer."""
    if config.depot_load_sigma <= 0 and config.depot_load_median >= 1.0:
        return 1.0
    draw = config.depot_load_median * float(
        rng.lognormal(0.0, config.depot_load_sigma)
    )
    return min(1.0, draw)


@dataclass(frozen=True)
class _PreparedCase:
    """One measured transfer with its path specs and noise pre-drawn.

    Splitting preparation from pricing lets ``"simulator"`` mode hand a
    whole round's cases to :meth:`NetworkSimulator.run_batch` in one
    call while keeping every RNG draw (depot loads, then measurement
    noise, per case in campaign order) identical to the scalar flow.
    """

    src: str
    dst: str
    size: int
    use_lsl: bool
    route: tuple[str, ...]
    paths: tuple[PathSpec, ...]
    noise: float
    round_index: int


def _route_paths(
    testbed: Testbed,
    truth: _DriftingTruth,
    route: tuple[str, ...],
    memo: dict[tuple[str, ...], tuple[PathSpec, ...]],
) -> tuple[PathSpec, ...]:
    """Drift-scaled sublink specs of ``route``, memoized in ``memo``.

    A relayed route (three hosts or more) charges its depots their
    forwarding caps (:meth:`Testbed.route_specs`); a host pair is one
    :meth:`Testbed.sublink_spec`.  The memo must not outlive the round:
    drift moves the truth between rounds.
    """
    paths = memo.get(route)
    if paths is None:
        if len(route) > 2:
            specs = testbed.route_specs(list(route))
        else:
            specs = [testbed.sublink_spec(*route)]
        paths = memo[route] = tuple(
            truth.scale_spec(spec, a, b)
            for spec, (a, b) in zip(specs, zip(route, route[1:]))
        )
    return paths


def _prepare_case(
    testbed: Testbed,
    truth: _DriftingTruth,
    src: str,
    dst: str,
    size: int,
    use_lsl: bool,
    route: tuple[str, ...],
    config: CampaignConfig,
    rng: RngStream,
    round_index: int,
    sublinks: dict[tuple[str, ...], tuple[PathSpec, ...]],
) -> _PreparedCase:
    """One case; ``sublinks`` memoizes route specs for the round."""
    if use_lsl and len(route) > 2:
        specs = _route_paths(testbed, truth, route, sublinks)
        # transient load on each intermediate depot throttles both of
        # its adjacent sublinks
        loads = {
            depot: _depot_load_factor(config, rng) for depot in route[1:-1]
        }
        scaled = []
        for spec, (a, b) in zip(specs, zip(route, route[1:])):
            factor = min(loads.get(a, 1.0), loads.get(b, 1.0))
            if factor < 1.0:
                spec = PathSpec(
                    rtt=spec.rtt,
                    bandwidth=spec.bandwidth * factor,
                    loss_rate=spec.loss_rate,
                    send_buffer=spec.send_buffer,
                    recv_buffer=spec.recv_buffer,
                    name=spec.name,
                )
            scaled.append(spec)
        paths = tuple(scaled)
    else:
        paths = _route_paths(testbed, truth, (src, dst), sublinks)
    noise = float(rng.lognormal(0.0, config.measure_noise_sigma))
    return _PreparedCase(
        src=src,
        dst=dst,
        size=size,
        use_lsl=use_lsl,
        route=route,
        paths=paths,
        noise=noise,
        round_index=round_index,
    )


def _model_duration(case: _PreparedCase, tcp_config: TcpConfig) -> float:
    if len(case.paths) > 1:
        return relay_transfer_time(list(case.paths), case.size, tcp_config)
    return transfer_time(case.paths[0], case.size, tcp_config)


def _finish_cases(
    cases: list[_PreparedCase],
    config: CampaignConfig,
    tcp_config: TcpConfig,
    simulator: NetworkSimulator | None,
) -> list[MeasuredTransfer]:
    """Price prepared cases and attach their pre-drawn noise."""
    if not cases:
        return []
    if config.measure_engine == "simulator":
        assert simulator is not None
        results = simulator.run_batch(
            [BatchSpec(paths=case.paths, size=case.size) for case in cases],
            vectorized=config.simulate_vectorized,
            record_trace=False,
        )
        durations = [result.duration for result in results]
    else:
        # price each distinct (paths, size) once; the noise stays per case
        priced: dict[tuple[tuple[PathSpec, ...], int], float] = {}
        durations = []
        for case in cases:
            key = (case.paths, case.size)
            duration = priced.get(key)
            if duration is None:
                duration = priced[key] = _model_duration(case, tcp_config)
            durations.append(duration)
    return [
        MeasuredTransfer(
            src=case.src,
            dst=case.dst,
            size=case.size,
            use_lsl=case.use_lsl,
            bandwidth=(case.size / duration) * case.noise,
            route=case.route,
            round_index=case.round_index,
        )
        for case, duration in zip(cases, durations)
    ]
