"""Differential tests: the vectorized batch engine IS the scalar model.

The contract of ``NetworkSimulator.run_batch(vectorized=True)`` is not
"close to" the scalar simulator — it is *bit-exact*: batching
independent chains into numpy lockstep only reorders their interleaving
while every per-chain float operation stays the identical IEEE-754
double op.  These tests pin that contract over seeded random topologies
and fault plans, comparing every observable:

* transfer results (durations, loss events, depot peaks, retransmission
  and retry accounting, completion flags),
* per-sublink sequence traces, element for element,
* per-(node, stream) timeline event sequences — the same equivalence
  the sim-vs-socket tests assert in ``tests/net/test_sim_failover.py``
  and ``tests/lsl/test_failover.py``, here between the two simulator
  paths.

Any future "optimization" of either path that changes a single float
shows up here as a hard failure, which is the point: the scalar path is
the conformance oracle, the vectorized path is the speed.
"""

import random

import numpy as np
import pytest

from repro.lsl.faults import RetryPolicy
from repro.net.simulator import (
    FaultedTransferResult,
    NetworkSimulator,
    SublinkFault,
    TransferResult,
)
from repro.net.tcp import TcpConfig
from repro.net.topology import PathSpec
from repro.net.vectorized import BatchSpec, VectorizedBatch
from repro.obs.timeline import SessionTimeline

RTTS = [0.01, 0.02, 0.04, 0.08]
BANDWIDTHS = [2e6, 5e6, 1e7, 2e7]
LOSS_RATES = [0.0, 0.0005, 0.002]
SIZES = [256 << 10, 512 << 10, 1 << 20]


def random_spec(rng: random.Random) -> BatchSpec:
    """One random relay chain, possibly with a fault plan."""
    n = rng.choice([1, 1, 2, 2, 3])
    paths = tuple(
        PathSpec(
            rtt=rng.choice(RTTS),
            bandwidth=rng.choice(BANDWIDTHS),
            loss_rate=rng.choice(LOSS_RATES),
        )
        for _ in range(n)
    )
    faults: tuple = ()
    retry = None
    resume = True
    if rng.random() < 0.45:
        faults = tuple(
            SublinkFault(
                rng.randrange(n),
                rng.choice([32 << 10, 100 << 10]),
                times=rng.choice([1, 1, 2, 4]),
            )
            for _ in range(rng.choice([1, 2]))
        )
        retry = RetryPolicy(
            max_retries=rng.choice([1, 2, 3]),
            jitter=0.25,
            seed=rng.randrange(1000),
        )
        if n == 1 and rng.random() < 0.3:
            resume = False  # plain-TCP restart recovery (direct only)
    configs = None
    if rng.random() < 0.3:
        configs = tuple(
            TcpConfig(initial_ssthresh=rng.choice([None, 64 << 10, 1 << 20]))
            for _ in range(n)
        )
    caps = None
    if n > 1 and rng.random() < 0.3:
        caps = tuple(
            rng.choice([8 << 20, 16 << 20, 32 << 20]) for _ in range(n - 1)
        )
    return BatchSpec(
        paths=paths,
        size=rng.choice(SIZES),
        faults=faults,
        retry=retry,
        resume=resume,
        depot_capacities=caps,
        configs=configs,
    )


def clone_spec(spec: BatchSpec, seed: int) -> BatchSpec:
    """Fresh retry-policy instance so both runs see identical backoff."""
    retry = None
    if spec.retry is not None:
        retry = RetryPolicy(
            max_retries=spec.retry.max_retries, jitter=0.25, seed=seed
        )
    return BatchSpec(
        paths=spec.paths,
        size=spec.size,
        faults=spec.faults,
        retry=retry,
        resume=spec.resume,
        depot_capacities=spec.depot_capacities,
        configs=spec.configs,
    )


def run_both(specs, seed=0, record_trace=True, with_timeline=False):
    """Run the same batch through both paths; return results (+timelines)."""
    seeds = [17 * i + 3 for i in range(len(specs))]
    sessions = [f"s{i}" for i in range(len(specs))]
    tl_v = SessionTimeline() if with_timeline else None
    tl_s = SessionTimeline() if with_timeline else None
    vec = NetworkSimulator(seed=seed).run_batch(
        [clone_spec(s, seeds[i]) for i, s in enumerate(specs)],
        vectorized=True,
        record_trace=record_trace,
        timeline=tl_v,
        sessions=sessions if with_timeline else None,
    )
    scal = NetworkSimulator(seed=seed).run_batch(
        [clone_spec(s, seeds[i]) for i, s in enumerate(specs)],
        vectorized=False,
        record_trace=record_trace,
        timeline=tl_s,
        sessions=sessions if with_timeline else None,
    )
    return vec, scal, tl_v, tl_s, sessions


def assert_result_identical(a: TransferResult, b: TransferResult) -> None:
    assert type(a) is type(b)
    assert a.size == b.size
    assert a.duration == b.duration  # exact: same float ops, same order
    assert a.loss_events == b.loss_events
    assert a.depot_peaks == b.depot_peaks
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert ta.name == tb.name
        assert np.array_equal(ta.times, tb.times)
        assert np.array_equal(ta.acked, tb.acked)
    if isinstance(b, FaultedTransferResult):
        assert a.retransmitted_bytes == b.retransmitted_bytes
        assert a.clean_duration == b.clean_duration
        assert a.recovery_seconds == b.recovery_seconds
        assert a.retries == b.retries
        assert a.completed == b.completed
        assert a.per_sublink_retransmitted == b.per_sublink_retransmitted


class TestSeededRandomEquivalence:
    """The core differential sweep: random topologies + fault plans."""

    @pytest.mark.parametrize("trial", range(4))
    def test_results_and_traces_identical(self, trial):
        rng = random.Random(4100 + trial)
        specs = [random_spec(rng) for _ in range(6)]
        vec, scal, _, _, _ = run_both(specs, seed=trial)
        assert len(vec) == len(scal) == len(specs)
        for a, b in zip(vec, scal):
            assert_result_identical(a, b)

    @pytest.mark.parametrize("trial", range(2))
    def test_timeline_sequences_identical(self, trial):
        rng = random.Random(4300 + trial)
        specs = [random_spec(rng) for _ in range(5)]
        vec, scal, tl_v, tl_s, sessions = run_both(
            specs, seed=trial, with_timeline=True
        )
        for a, b in zip(vec, scal):
            assert_result_identical(a, b)
        for session in sessions:
            # per-(node, stream) ordered event names — the equivalence
            # currency shared with the sim-vs-socket tests
            assert tl_v.sequences(session) == tl_s.sequences(session)
            ev_v = [
                (e.event, e.node, e.stream, e.t, e.nbytes, e.detail)
                for e in tl_v.events(session)
            ]
            ev_s = [
                (e.event, e.node, e.stream, e.t, e.nbytes, e.detail)
                for e in tl_s.events(session)
            ]
            assert ev_v == ev_s

    def test_faulted_specs_exercise_every_recovery_shape(self):
        """A hand-built batch covering resume, restart and exhaustion."""
        path = PathSpec(rtt=0.02, bandwidth=1e7)
        lossy = PathSpec(rtt=0.04, bandwidth=5e6, loss_rate=0.001)
        specs = [
            # depot-resume recovery mid-relay
            BatchSpec(
                paths=(path, lossy),
                size=1 << 20,
                faults=(SublinkFault(1, 128 << 10),),
                retry=RetryPolicy(),
            ),
            # plain-TCP restart from byte zero (direct path)
            BatchSpec(
                paths=(path,),
                size=512 << 10,
                faults=(SublinkFault(0, 64 << 10),),
                retry=RetryPolicy(),
                resume=False,
            ),
            # retry exhaustion: more consecutive kills than the budget
            BatchSpec(
                paths=(path, path),
                size=1 << 20,
                faults=(SublinkFault(0, 32 << 10, times=5),),
                retry=RetryPolicy(max_retries=2, base_delay=0.01),
            ),
        ]
        vec, scal, tl_v, tl_s, sessions = run_both(
            specs, with_timeline=True
        )
        for a, b in zip(vec, scal):
            assert isinstance(a, FaultedTransferResult)
            assert_result_identical(a, b)
        assert vec[0].completed and vec[1].completed
        assert not vec[2].completed  # the exhaustion lane really aborted
        assert vec[0].retransmitted_bytes > 0
        for session in sessions:
            assert tl_v.sequences(session) == tl_s.sequences(session)


class TestBatchContract:
    """API-level contract of run_batch and BatchSpec."""

    def test_result_types_match_spec_shapes(self):
        path = PathSpec(rtt=0.02, bandwidth=1e7)
        specs = [
            BatchSpec(paths=(path,), size=256 << 10),
            BatchSpec(
                paths=(path, path),
                size=256 << 10,
                faults=(SublinkFault(0, 32 << 10),),
                retry=RetryPolicy(),
            ),
        ]
        results = NetworkSimulator().run_batch(specs)
        assert type(results[0]) is TransferResult
        assert isinstance(results[1], FaultedTransferResult)

    def test_empty_batch_returns_empty(self):
        assert NetworkSimulator().run_batch([]) == []

    def test_vectorized_rejects_random_loss_mode(self):
        spec = BatchSpec(
            paths=(PathSpec(rtt=0.02, bandwidth=1e7, loss_rate=0.01),),
            size=256 << 10,
            configs=(TcpConfig(loss_mode="random"),),
        )
        with pytest.raises(ValueError, match="deterministic"):
            NetworkSimulator().run_batch([spec], vectorized=True)
        # the scalar path still accepts random loss
        results = NetworkSimulator(seed=3).run_batch(
            [spec], vectorized=False
        )
        assert results[0].duration > 0

    def test_spec_validation(self):
        path = PathSpec(rtt=0.02, bandwidth=1e7)
        with pytest.raises(ValueError):
            BatchSpec(paths=(), size=1)
        with pytest.raises(ValueError):
            BatchSpec(paths=(path,), size=0)
        with pytest.raises(ValueError):  # configs length mismatch
            BatchSpec(paths=(path, path), size=1, configs=(TcpConfig(),))
        with pytest.raises(ValueError):  # restart recovery needs direct
            BatchSpec(paths=(path, path), size=1, resume=False)
        with pytest.raises(ValueError):  # fault beyond the chain
            BatchSpec(
                paths=(path,), size=1, faults=(SublinkFault(1, 0.0),)
            )

    def test_depot_capacity_validation(self):
        path = PathSpec(rtt=0.02, bandwidth=1e7)
        spec = BatchSpec(
            paths=(path, path), size=1 << 20, depot_capacities=(1,)
        )
        batch = VectorizedBatch([spec], TcpConfig(), [0.001])
        assert batch.depot_capacity[0, 0] == 1.0
        with pytest.raises(ValueError):
            VectorizedBatch(
                [
                    BatchSpec(
                        paths=(path, path, path),
                        size=1 << 20,
                        depot_capacities=(8 << 20,),
                    )
                ],
                TcpConfig(),
                [0.001],
            )

    def test_max_time_raises_like_the_scalar_path(self):
        spec = BatchSpec(
            paths=(PathSpec(rtt=0.02, bandwidth=1e3),), size=1 << 20
        )
        with pytest.raises(RuntimeError):
            NetworkSimulator().run_batch(
                [spec], vectorized=True, max_time=0.5
            )
        with pytest.raises(RuntimeError):
            NetworkSimulator().run_batch(
                [spec], vectorized=False, max_time=0.5
            )

    def test_batch_matches_individual_scalar_runs(self):
        """One batch result == the corresponding standalone runner call."""
        path_a = PathSpec(rtt=0.02, bandwidth=1e7)
        path_b = PathSpec(rtt=0.04, bandwidth=5e6, loss_rate=0.001)
        specs = [
            BatchSpec(paths=(path_a,), size=512 << 10),
            BatchSpec(paths=(path_a, path_b), size=1 << 20),
        ]
        batch = NetworkSimulator(seed=9).run_batch(
            specs, vectorized=True, record_trace=True
        )
        solo_direct = NetworkSimulator(seed=9).run_direct(
            path_a, 512 << 10, record_trace=True
        )
        solo_relay = NetworkSimulator(seed=9).run_relay(
            [path_a, path_b], 1 << 20, record_trace=True
        )
        assert batch[0].duration == solo_direct.duration
        assert batch[1].duration == solo_relay.duration
        assert batch[1].depot_peaks == solo_relay.depot_peaks
        for ta, tb in zip(batch[1].traces, solo_relay.traces):
            assert np.array_equal(ta.times, tb.times)
            assert np.array_equal(ta.acked, tb.acked)


BINDING_CAPS = [16 << 10, 32 << 10, 64 << 10, 128 << 10]


def binding_specs(rng: random.Random, chains: int = 9) -> list[BatchSpec]:
    """Mixed 1/2/3-sublink chains whose depot capacities bind.

    Chain ``j``'s sublink ``k`` is lossy exactly when ``j + k`` is even,
    so every sublink position carries both lossy and lossless cells.
    Capacities of 16-128 KiB sit far below the 256 KiB-1 MiB sizes, so
    a depot fills whenever its upstream outruns its downstream.
    """
    specs = []
    for j in range(chains):
        n = (1, 2, 3)[j % 3]
        paths = tuple(
            PathSpec(
                rtt=rng.choice(RTTS),
                bandwidth=rng.choice(BANDWIDTHS),
                loss_rate=(
                    rng.choice(LOSS_RATES[1:]) if (j + k) % 2 == 0 else 0.0
                ),
            )
            for k in range(n)
        )
        faults: tuple = ()
        retry = None
        if rng.random() < 0.3:
            faults = (SublinkFault(rng.randrange(n), 64 << 10),)
            retry = RetryPolicy(jitter=0.25, seed=rng.randrange(1000))
        specs.append(
            BatchSpec(
                paths=paths,
                size=rng.choice(SIZES),
                faults=faults,
                retry=retry,
                depot_capacities=tuple(
                    rng.choice(BINDING_CAPS) for _ in range(n - 1)
                ),
            )
        )
    return specs


class TestBindingDepotCapacity:
    """Full depots: the free-space path and cross-sublink read order.

    A depot's free space is read by its incoming sublink's send while
    its outgoing sublink's send takes from it, so these cases pin the
    order in which one step reads and writes neighbouring stores.
    """

    @pytest.mark.parametrize("trial", range(4))
    def test_results_and_traces_identical(self, trial):
        rng = random.Random(4700 + trial)
        specs = binding_specs(rng)
        vec, scal, _, _, _ = run_both(specs, seed=trial)
        for a, b in zip(vec, scal):
            assert_result_identical(a, b)
        filled = [
            peak >= cap
            for spec, result in zip(specs, vec)
            for peak, cap in zip(result.depot_peaks, spec.depot_capacities)
        ]
        assert any(filled)  # the trial really filled a depot

    def test_timeline_sequences_identical(self):
        rng = random.Random(4800)
        specs = binding_specs(rng, chains=6)
        vec, scal, tl_v, tl_s, sessions = run_both(
            specs, seed=1, with_timeline=True
        )
        for a, b in zip(vec, scal):
            assert_result_identical(a, b)
        for session in sessions:
            ev_v = [
                (e.event, e.node, e.stream, e.t, e.nbytes, e.detail)
                for e in tl_v.events(session)
            ]
            ev_s = [
                (e.event, e.node, e.stream, e.t, e.nbytes, e.detail)
                for e in tl_s.events(session)
            ]
            assert ev_v == ev_s


def test_delay_ring_matches_per_cell_deques():
    """The flat ring keeps per-cell FIFO order across wrap-around and growth."""
    from collections import deque

    from repro.net.vectorized import _Ring

    rng = random.Random(4900)
    cells = 5
    ring = _Ring(cells, 4)
    queues = [deque() for _ in range(cells)]
    clock = 0.0
    for _ in range(400):
        clock += 1.0
        idx = np.array(
            sorted(rng.sample(range(cells), rng.randint(1, cells)))
        )
        times = clock + np.array([rng.randint(0, 12) for _ in idx], float)
        amounts = np.array([rng.random() for _ in idx])
        ring.push(idx, times, amounts)
        for i, t, n in zip(idx.tolist(), times, amounts):
            queues[i].append((float(t), float(n)))
        due_at = np.full(cells, clock + rng.randint(-3, 3))
        popped = [[] for _ in range(cells)]
        for got, t, n in ring.due(np.arange(cells), due_at):
            for i, ti, ni in zip(got.tolist(), t, n):
                popped[i].append((float(ti), float(ni)))
        for i in range(cells):
            expect = []
            while queues[i] and queues[i][0][0] <= due_at[i]:
                expect.append(queues[i].popleft())
            assert popped[i] == expect
            assert ring.values(i) == list(queues[i])
    assert ring.cap > 4  # the ring grew on the way
