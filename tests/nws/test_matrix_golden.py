"""Golden pin for the performance matrix a campaign's probe produces.

The benchmark's campaign digests pin the routes and prices a campaign
chooses, not the forecast bits behind them: a change to the last bits of
a mean forecast leaves most routes alone.  These digests hash ``repr()``
of every entry of :meth:`CliqueAggregator.build_matrix`'s bandwidth
matrix and of every host pair's :meth:`CliqueAggregator.prediction_error`
after two probes:

* the PlanetLab campaign probe (testbed seed 42, campaign seed 2: the
  ``campaign_planetlab`` benchmark workload's round one);
* a sensors-mode probe of a 15-site PlanetLab testbed, where token
  cliques interleave the streams' samples.

They were recorded with the per-stream selector aggregator, so they pin
the aggregator's forecasts and errors bit for bit.
"""

import hashlib

from repro.testbed.experiment import (
    CampaignConfig,
    _DriftingTruth,
    _probe,
    _probe_with_sensors,
)
from repro.testbed.planetlab import PlanetLabConfig, generate_planetlab
from repro.nws.matrix import CliqueAggregator
from repro.util.rng import RngStream

PLANETLAB_SHA256 = (
    "3e4983212cc2faa91103a82caf0195d770ba37f6c7ab7f3e64b291e04dc06a01"
)
SENSORS_SHA256 = (
    "cbb4fea80542f83c4daa98417754e6c7ad211cd1128fa6afd1aa54e7d244b193"
)


def _digest(aggregator: CliqueAggregator) -> str:
    h = hashlib.sha256()
    h.update(f"{aggregator.stream_count()}\n".encode())
    for value in aggregator.build_matrix().bandwidth_matrix().ravel():
        h.update(repr(float(value)).encode())
        h.update(b"\n")
    hosts = aggregator.hosts
    for src in hosts:
        for dst in hosts:
            if src != dst:
                h.update(repr(aggregator.prediction_error(src, dst)).encode())
                h.update(b"\n")
    return h.hexdigest()


def _round_one_streams(seed: int):
    # the streams run_campaign draws its round-one probe from
    rng = RngStream(seed, "campaign")
    return rng.child("drift"), rng.child("probe")


def test_planetlab_probe_matrix_pinned():
    testbed = generate_planetlab(seed=42)
    config = CampaignConfig(max_cases=60, iterations=2)
    drift_rng, probe_rng = _round_one_streams(2)
    truth = _DriftingTruth(testbed, drift_rng, config.drift_sigma)
    aggregator = CliqueAggregator(testbed.site_of)
    _probe(
        testbed,
        truth,
        aggregator,
        config.probes_per_pair,
        config.probe_noise_sigma,
        probe_rng,
    )
    assert _digest(aggregator) == PLANETLAB_SHA256


def test_sensors_probe_matrix_pinned():
    testbed = generate_planetlab(PlanetLabConfig(n_sites=15), seed=5)
    config = CampaignConfig(probe_mode="sensors", sensor_rounds=3)
    drift_rng, probe_rng = _round_one_streams(2)
    truth = _DriftingTruth(testbed, drift_rng, config.drift_sigma)
    aggregator = CliqueAggregator(testbed.site_of)
    _probe_with_sensors(
        testbed,
        truth,
        aggregator,
        config.sensor_rounds,
        config.probe_noise_sigma,
        probe_rng,
        seed=2,
    )
    assert _digest(aggregator) == SENSORS_SHA256
