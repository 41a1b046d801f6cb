"""``repro campaign`` workloads: ``campaign_planetlab`` and ``campaign_abilene_sim``.

An operation is one full campaign run (NWS probing, scheduling, pricing);
its throughput counts the transfers it priced.  No sockets are opened.

Every run is checked: the count of measurements, every bandwidth finite
and positive, and at the workload's default seed the digest of all
measurements recorded in ``spec.json``, so a change that alters the
campaign's numbers fails instead of looking faster.
"""

from __future__ import annotations

import hashlib
import math
import time

from repro.testbed import abilene, planetlab
from repro.testbed.experiment import CampaignConfig, run_campaign
from repro.testbed.workload import WorkloadConfig

from relay import Measured

#: name -> (testbed generator, testbed seed, campaign configuration)
CAMPAIGNS = {
    # `repro campaign` with its defaults
    "campaign_planetlab": (
        lambda seed: planetlab.generate_planetlab(seed=seed),
        42,
        CampaignConfig(max_cases=60, iterations=2),
    ),
    # The Fig. 11 Abilene testbed priced by the fluid simulator (one
    # vectorized run_batch per round).  Probe noise and transient depot
    # load are off: the batch runs until its slowest lane finishes, and
    # with them on the route the scheduler picks for a few near-tied
    # pairs flips with the seed and moves a run's cost by up to 1.6x.
    # Without them every seed prices the same routes; the seed draws the
    # measurement noise.  Four probes per pair and 1 MiB transfers keep
    # a run under a second, so a measured window holds a few dozen runs,
    # with the simulator still doing most of the work.
    "campaign_abilene_sim": (
        lambda seed: abilene.abilene_testbed(seed=seed),
        1,
        CampaignConfig(
            probes_per_pair=4,
            max_cases=None,
            iterations=1,
            measure_engine="simulator",
            probe_noise_sigma=0.0,
            depot_load_median=1.0,
            depot_load_sigma=0.0,
            workload=WorkloadConfig(max_exponent=1),
        ),
    ),
}


def digest(measurements) -> str:
    """SHA-256 over every measurement's src, dst, size, mode, route, bandwidth."""
    h = hashlib.sha256()
    for m in measurements:
        route = ">".join(m.route)
        h.update(
            f"{m.src}|{m.dst}|{m.size}|{int(m.use_lsl)}|{route}|"
            f"{m.bandwidth!r}\n".encode()
        )
    return h.hexdigest()


def check(measurements, expect: dict, seed: int) -> str | None:
    """Why a campaign's output is wrong, or ``None`` if it is right."""
    if len(measurements) != expect["count"]:
        return f"{len(measurements)} measurements, expected {expect['count']}"
    bad = [
        m for m in measurements
        if not (math.isfinite(m.bandwidth) and m.bandwidth > 0)
    ]
    if bad:
        return f"{len(bad)} measurements with a bandwidth not finite and positive"
    if seed == expect["seed"] and digest(measurements) != expect["digest"]:
        return "measurement digest differs from the one recorded for this seed"
    return None


class CampaignWorkload:
    """Runs one of :data:`CAMPAIGNS` back to back; campaign seed = ``seed``."""

    def __init__(self, name: str, seed: int, expect: dict) -> None:
        self.seed = seed
        self.expect = expect
        self.generate, self.testbed_seed, self.config = CAMPAIGNS[name]

    def setup(self):
        """Testbed generation (nothing else is reused between runs)."""
        return self.generate(self.testbed_seed)

    def measure(self, testbed, seconds: float) -> Measured:
        out = Measured()
        start = time.perf_counter()
        # Stop at whichever run boundary lies nearest the end of the
        # window (the mean run so far predicts the next): a planetlab run
        # takes about 12 s, so running "until the window is over" would
        # stretch a 25 s window to 36 s whenever two runs fall just short.
        while True:
            elapsed = time.perf_counter() - start
            if out.runs and elapsed * (1 + 0.5 / out.runs) >= seconds:
                break
            out.attempted += 1
            out.runs += 1
            t0 = time.perf_counter()
            try:
                result = run_campaign(testbed, self.config, seed=self.seed)
            except Exception as exc:  # noqa: BLE001 - a failed run is a data point
                out.fail(f"campaign raised {exc!r}")
                continue
            took = time.perf_counter() - t0
            reason = check(result.measurements, self.expect, self.seed)
            if reason is not None:
                out.fail(reason)
                continue
            out.wall += took
            out.starts.append(t0)
            out.latencies.append(took)
            out.payload_bytes += sum(m.size for m in result.measurements)
            out.items += len(result.measurements)
        return out

    def close(self, testbed) -> list[str]:
        return []
