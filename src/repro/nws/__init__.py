"""Network Weather Service substrate.

The paper's scheduler consumes a "performance topology": a fully-connected
matrix of predicted host-to-host bandwidth "generated from Network Weather
Service (NWS) forecasts using aggregation techniques" (its references [36]
and [34]).  This package reimplements that pipeline:

* :mod:`~repro.nws.series` — time-stamped measurement histories;
* :mod:`~repro.nws.forecasters` — the classic NWS predictor battery
  (last value, running/sliding means, medians, exponential smoothing);
* :mod:`~repro.nws.bank` — the NWS trick: run every predictor in
  parallel, track each one's error on the measurements that have already
  arrived, and answer with the current winner, batched over many
  streams.  The winner's error is also exposed — the paper suggests it
  as an automatic choice for the scheduler's ε;
* :mod:`~repro.nws.selector` — the same over a single stream;
* :mod:`~repro.nws.matrix` — the fully-connected performance matrix with
  site-level (clique) aggregation.
"""

from repro.nws.series import Measurement, MeasurementSeries
from repro.nws.forecasters import (
    Forecaster,
    LastValue,
    RunningMean,
    SlidingMean,
    SlidingMedian,
    ExponentialSmoothing,
    AdaptiveMean,
    TrimmedMean,
    default_battery,
)
from repro.nws.bank import ForecastBank
from repro.nws.selector import AdaptiveSelector, ForecastReport
from repro.nws.matrix import PerformanceMatrix, CliqueAggregator

__all__ = [
    "Measurement",
    "MeasurementSeries",
    "Forecaster",
    "LastValue",
    "RunningMean",
    "SlidingMean",
    "SlidingMedian",
    "ExponentialSmoothing",
    "AdaptiveMean",
    "TrimmedMean",
    "default_battery",
    "ForecastBank",
    "AdaptiveSelector",
    "ForecastReport",
    "PerformanceMatrix",
    "CliqueAggregator",
]
