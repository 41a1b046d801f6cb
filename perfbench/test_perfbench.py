"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  Each
workload gets a short seeded pass, traced and untraced, whose metric names
and units must match ``BENCHMARK.json``; the correctness gates must fire.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import campaign  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import relay  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def _declared(key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_declared_workloads_are_the_ones_run():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(run.WORKLOADS)
    assert set(SPEC["workloads"]) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_pass_reports_every_metric(workload, trace):
    seed = SPEC["workloads"][workload]["default_seed"]
    result = run.run(workload, seed, 0.5, bool(trace), SPEC)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        for name in ("os.recv.wait_share", "os.sendall.wait_share"):
            assert 0 <= result["metrics"][name]["value"] <= 1, name


def test_joined_thread_is_not_the_callers_own_time():
    tracer = spans.Tracer()
    layers.install(tracer)

    def striped_like():
        worker = threading.Thread(target=time.sleep, args=(0.2,))
        worker.start()
        worker.join()

    try:
        tracer.wrap(striped_like, "caller")()
    finally:
        tracer.restore()
    caller = next(s for s in tracer.spans if s.name == "caller")
    assert caller.duration >= 0.2
    assert tracer.self_times()[caller.id] < 0.1


def test_spin_clock_samples_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.SpinClock()
    with clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one spin on entry, then one per interval
    assert len(clock.samples) >= 0.2 / hostspeed.INTERVAL_S / 2
    assert clock.slowdown == clock.spin_s / hostspeed.REFERENCE_SPIN_S > 0


def test_slowdown_during_an_operation_uses_the_spins_it_overlapped():
    clock = hostspeed.SpinClock()
    ref = hostspeed.REFERENCE_SPIN_S
    clock.samples = [ref, 2 * ref, 4 * ref]
    clock.ends = [1.0, 2.0, 3.0]
    assert clock.slowdown_during(1.5, 3.5) == 3.0
    # between two spins: the next one; after the last: the last one
    assert clock.slowdown_during(1.2, 1.3) == 2.0
    assert clock.slowdown_during(3.2, 3.3) == 4.0


def test_corrupted_payload_counts_as_failed(monkeypatch):
    take = relay.Sink.take

    def corrupting_take(self, hex_id, timeout):
        data = bytearray(take(self, hex_id, timeout))
        data[len(data) // 2] ^= 0xFF
        return bytes(data)

    monkeypatch.setattr(relay.Sink, "take", corrupting_take)
    topo = relay.Topology(depots=1)
    out = relay.Measured()
    payload = memoryview(bytes(range(256)) * 64)
    try:
        for mode in ("legacy", "resumable"):
            relay.send(topo, mode.encode().ljust(16, b"."), payload, mode, 1, out)
    finally:
        assert topo.close() == []
    assert (out.attempted, out.failed, out.items) == (2, 2, 0)
    assert all("corrupted" in e for e in out.errors)


def test_wrong_campaign_digest_fails_the_run():
    name = "campaign_abilene_sim"
    expect = dict(SPEC["workloads"][name]["expect"], digest="0" * 64)
    workload = campaign.CampaignWorkload(name, expect["seed"], expect)
    out = workload.measure(workload.setup(), 0.0)
    assert (out.attempted, out.failed, out.items) == (1, 1, 0)
    assert "digest" in out.errors[0]


@dataclass
class _Transfer:
    src: str = "a"
    dst: str = "b"
    size: int = 1 << 20
    use_lsl: bool = True
    bandwidth: float = 1e6
    route: tuple = ("a", "d", "b")


def test_campaign_check_without_digest_still_checks_outputs():
    expect = {"seed": 7, "count": 2, "digest": "unused"}
    good = [_Transfer(), _Transfer(bandwidth=2e6)]
    assert campaign.check(good, expect, seed=8) is None
    assert "expected 2" in campaign.check(good[:1], expect, seed=8)
    bad = [_Transfer(), _Transfer(bandwidth=math.nan)]
    assert "finite" in campaign.check(bad, expect, seed=8)
    assert "digest" in campaign.check(good, expect, seed=7)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "relay_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
