"""The repository benchmark: loopback LSL relays and ``repro campaign`` runs.

Run from the repository root::

    python3 perfbench/run.py --workload relay_bulk --seed 1 --seconds 10 --trace 0

Workloads (details and default seeds in ``perfbench/spec.json``):

* ``relay_bulk`` / ``relay_small`` — sessions through in-process depots
  to an in-process sink over loopback (:mod:`relay`);
* ``campaign_planetlab`` / ``campaign_abilene_sim`` — full campaign
  runs, priced by the analytic models or the fluid simulator
  (:mod:`campaign`).

Each invocation runs one workload in its own process, so its set-up time
and peak memory are its own.  Set-up (server bring-up, payload or testbed
generation, warm-up) is repeated before the measured loop and after it,
and the median is reported.  ``--trace 0``
measures untraced for ``--seconds`` and reports the end-to-end metrics.
Every time reported is scaled to the host's reference speed by a spin
timed throughout the same set-ups or loop (:mod:`hostspeed`), because the
CPUs of a shared virtual machine can swing by up to half for seconds.
``--trace 1`` measures the raw loopback rate, runs the same untraced loop,
then a traced one of equal length whose spans give the per-layer metrics
(:mod:`layers`); the difference between the two is the tracing overhead.
The spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_SPIN_S, SpinClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups timed on each side of an untraced measured loop: at least
#: SETUPS, and more until SETUP_SECONDS have passed, so that a set-up of a
#: few ms still gets a median of dozens
SETUPS = 4
SETUP_SECONDS = 0.25
#: workloads run on one CPU: their small sessions hand off between
#: threads so often that waiting for the hypervisor to run the other
#: virtual CPU swung them by 2-4x between runs
PINNED = ("relay_small",)
WORKLOADS = ("relay_bulk", "relay_small", "campaign_planetlab", "campaign_abilene_sim")


def make_workload(name: str, seed: int, spec: dict):
    """The workload object for ``name`` (imports the program lazily)."""
    if name in ("relay_bulk", "relay_small"):
        from relay import RelayWorkload

        return RelayWorkload(seed, bulk=name == "relay_bulk")
    from campaign import CampaignWorkload

    return CampaignWorkload(name, seed, spec["workloads"][name]["expect"])


def timed_setups(
    workload,
    count: int,
    seconds: float,
    errors: list[str],
    times: list[float],
    clock: SpinClock,
):
    """Set up under ``clock``, appending each time; returns the last state.

    Sets up ``count`` times, then again until ``seconds`` have passed.
    """
    state = None
    done = 0
    deadline = time.perf_counter() + seconds
    while done < count or time.perf_counter() < deadline:
        if state is not None:
            errors += workload.close(state)
        with clock:
            t0 = time.perf_counter()
            state = workload.setup()
            times.append(time.perf_counter() - t0)
        done += 1
    return state


def clocked_measure(workload, state, seconds: float):
    """One measured loop under its own :class:`SpinClock`.

    Returns what the loop measured, its slowdown, and the latency of each
    operation in ms, scaled by the slowdown while that operation ran.
    """
    with SpinClock() as clock:
        measured = workload.measure(state, seconds)
    latency_ms = [
        took * 1e3 / clock.slowdown_during(start, start + took)
        for start, took in zip(measured.starts, measured.latencies)
    ]
    return measured, clock.slowdown, latency_ms or [0.0]


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def run(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload; returns the result object printed as JSON."""
    import layers
    from layers import ratio
    from relay import loopback_MBps, peak_rss_MB

    workload = make_workload(name, seed, spec)
    errors: list[str] = []
    phases = []
    loopback = loopback_MBps() if trace else 0.0

    setups: list[float] = []
    setup_clock = SpinClock()
    count, floor = (1, 0.0) if trace else (SETUPS, SETUP_SECONDS)
    state = timed_setups(workload, count, floor, errors, setups, setup_clock)
    base, slowdown, latency_ms = clocked_measure(workload, state, seconds)
    errors += workload.close(state)
    phases.append(base)
    # as measured, then scaled to the host's reference speed
    raw_ops_per_s = ratio(base.items, base.wall)
    raw_goodput = ratio(base.payload_bytes, base.wall) / 1e6
    ops_per_s = raw_ops_per_s * slowdown
    if not trace:
        rss_MB = base.rss_MB or peak_rss_MB()
        # set-ups timed back to back all see the host at one moment; the
        # second half, a whole loop later, sees it at another
        state = timed_setups(
            workload, SETUPS, SETUP_SECONDS, errors, setups, setup_clock
        )
        errors += workload.close(state)
        setup_s = statistics.median(setups) / setup_clock.slowdown
        metrics = {
            "ops_per_s": (ops_per_s, "1/s"),
            "goodput_MBps": (raw_goodput * slowdown, "MB/s"),
            "latency_p50_ms": (statistics.median(latency_ms), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_MB": (rss_MB, "MB"),
        }
    else:
        from spans import Tracer

        tracer = Tracer()
        batches = layers.install(tracer)
        try:
            state = workload.setup()
            t0 = time.perf_counter()
            traced, traced_slowdown, _ = clocked_measure(workload, state, seconds)
            t1 = time.perf_counter()
            errors += workload.close(state)
        finally:
            tracer.restore()
        phases.append(traced)
        metrics = layers.layer_metrics(
            tracer,
            (t0, t1),
            batches,
            ops=traced.attempted,
            runs=traced.runs,
            payload_bytes=traced.payload_bytes,
        )
        relays = name.startswith("relay_")
        metrics.update(
            {
                "lsl.send.attempts_per_session": (
                    ratio(traced.attempts, traced.stripes), "count"
                ),
                "lsl.send.retransmitted_bytes": (traced.retransmitted, "B"),
                "os.loopback_MBps": (loopback, "MB/s"),
                # both rates as measured, moments apart
                "lsl.relay_vs_raw": (
                    ratio(raw_goodput, loopback) if relays else 0.0, "ratio"
                ),
                "latency_p99_ms": (p99(latency_ms), "ms"),
                "latency_samples": (len(base.latencies), "count"),
                "trace.overhead": (
                    ratio(
                        ops_per_s,
                        ratio(traced.items, traced.wall) * traced_slowdown,
                    )
                    - 1.0,
                    "fraction",
                ),
                "host.spin_us": (slowdown * REFERENCE_SPIN_S * 1e6, "us"),
                "ops_per_s.unscaled": (raw_ops_per_s, "1/s"),
            }
        )
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{name}.jsonl")

    attempted = sum(p.attempted for p in phases)
    # a server error that no session saw still marks the run incorrect
    failed = min(attempted, sum(p.failed for p in phases) + len(errors))
    for line in errors + [e for p in phases for e in p.errors]:
        print(f"error: {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload in PINNED and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
