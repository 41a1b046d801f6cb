"""Golden pin for ``NetworkSimulator.run_batch``'s vectorized path.

Every field of every result — duration, depot peaks, loss events,
retransmitted bytes, retries, completion and clean duration, plus the
traces and timeline events where recorded — is hashed (SHA-256 over
``repr()``, arrays over their raw bytes) for two batches:

* the single simulator round of the Fig. 11 Abilene campaign
  (1 MiB transfers, four probes per pair, no probe noise or depot load);
* a seeded batch of mixed 1/2/3-sublink chains with fault plans,
  depot-resume and restart recovery, retry exhaustion, binding depot
  capacities, traces and a timeline.

The digests were recorded before the engine was rewritten around its
flat (sublink, lane) cell axis, so they pin that rewrite bit for bit:
any change in the order or grouping of a float operation moves them.
"""

import hashlib
import random

import numpy as np

from repro.lsl.faults import RetryPolicy
from repro.net.simulator import NetworkSimulator, SublinkFault
from repro.net.tcp import TcpConfig
from repro.net.topology import PathSpec
from repro.net.vectorized import BatchSpec
from repro.obs.timeline import SessionTimeline
from repro.testbed.abilene import abilene_testbed
from repro.testbed.experiment import CampaignConfig, run_campaign
from repro.testbed.workload import WorkloadConfig

ABILENE_SHA256 = (
    "635785b9518640cf20744faa09e9e5891923a1a796575db5f90a3787311addf0"
)
FAULTED_SHA256 = (
    "f18da5cdcf6bf30be1da4bed17ae81eadfb17820b8ee937b378aee4014e8b325"
)

FIELDS = (
    "size", "duration", "loss_events", "depot_peaks",
    "retransmitted_bytes", "clean_duration", "recovery_seconds",
    "retries", "completed", "per_sublink_retransmitted",
)


def _digest(results, timeline=None, sessions=()) -> str:
    h = hashlib.sha256()
    h.update(f"{len(results)}\n".encode())
    for result in results:
        h.update(type(result).__name__.encode())
        for name in FIELDS:
            h.update(f"|{name}={getattr(result, name, None)!r}".encode())
        for trace in result.traces:
            h.update(f"|{trace.name!r}".encode())
            h.update(np.ascontiguousarray(trace.times).tobytes())
            h.update(np.ascontiguousarray(trace.acked).tobytes())
        h.update(b"\n")
    for session in sessions:
        for e in timeline.events(session):
            h.update(
                repr((e.event, e.node, e.stream, e.t, e.nbytes, e.detail))
                .encode()
            )
    return h.hexdigest()


def _abilene_round_results(monkeypatch) -> list:
    batches = []
    run_batch = NetworkSimulator.run_batch

    def spy(self, specs, *args, **kwargs):
        results = run_batch(self, specs, *args, **kwargs)
        batches.append(results)
        return results

    monkeypatch.setattr(NetworkSimulator, "run_batch", spy)
    config = CampaignConfig(
        probes_per_pair=4,
        max_cases=None,
        iterations=1,
        measure_engine="simulator",
        probe_noise_sigma=0.0,
        depot_load_median=1.0,
        depot_load_sigma=0.0,
        workload=WorkloadConfig(max_exponent=1),
    )
    run_campaign(abilene_testbed(seed=1), config, seed=3)
    assert len(batches) == 1
    return batches[0]


def _faulted_specs() -> list[BatchSpec]:
    rng = random.Random(2323)
    specs = []
    for i in range(14):
        n = (1, 2, 3)[i % 3]
        paths = tuple(
            PathSpec(
                rtt=rng.choice([0.01, 0.02, 0.04, 0.08]),
                bandwidth=rng.choice([2e6, 5e6, 1e7, 2e7]),
                loss_rate=rng.choice([0.0, 0.0005, 0.002]),
            )
            for _ in range(n)
        )
        faults: tuple = ()
        retry = None
        resume = True
        if i % 2 == 0:
            faults = tuple(
                SublinkFault(
                    rng.randrange(n),
                    rng.choice([32 << 10, 100 << 10]),
                    times=rng.choice([1, 1, 2, 4]),
                )
                for _ in range(rng.choice([1, 2]))
            )
            retry = RetryPolicy(
                max_retries=rng.choice([2, 3, 3]),
                jitter=0.25,
                seed=rng.randrange(1000),
            )
            if n == 1 and i % 4 == 0:
                resume = False
        caps = None
        if n > 1 and i % 4 != 3:
            caps = tuple(
                rng.choice([16 << 10, 32 << 10, 64 << 10])
                for _ in range(n - 1)
            )
        configs = None
        if i % 5 == 1:
            configs = tuple(
                TcpConfig(initial_ssthresh=64 << 10) for _ in range(n)
            )
        specs.append(
            BatchSpec(
                paths=paths,
                size=rng.choice([256 << 10, 512 << 10, 1 << 20]),
                faults=faults,
                retry=retry,
                resume=resume,
                depot_capacities=caps,
                configs=configs,
            )
        )
    return specs


def test_abilene_round_golden(monkeypatch):
    results = _abilene_round_results(monkeypatch)
    assert len(results) > 100
    assert _digest(results) == ABILENE_SHA256


def test_faulted_batch_golden():
    specs = _faulted_specs()
    sessions = [f"g{i}" for i in range(len(specs))]
    timeline = SessionTimeline()
    results = NetworkSimulator(seed=5).run_batch(
        specs,
        record_trace=True,
        timeline=timeline,
        sessions=sessions,
    )
    assert any(not getattr(r, "completed", True) for r in results)
    assert _digest(results, timeline, sessions) == FAULTED_SHA256
