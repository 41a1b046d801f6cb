"""Adaptive selector tests."""

import math

import numpy as np
import pytest

from repro.nws.forecasters import ExponentialSmoothing, LastValue, SlidingMean
from repro.nws.selector import AdaptiveSelector
from repro.util.rng import RngStream


class TestBasics:
    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveSelector(battery=[])

    def test_battery_needs_batched_forecasters(self):
        class Custom(LastValue):
            pass

        with pytest.raises(TypeError, match="Custom"):
            AdaptiveSelector(battery=[Custom()])

    def test_forecast_before_data_raises(self):
        with pytest.raises(ValueError):
            AdaptiveSelector().forecast()

    def test_predict_after_one_sample(self):
        s = AdaptiveSelector()
        s.update(5.0)
        assert s.predict() == pytest.approx(5.0)

    def test_samples_scored_counts_from_second(self):
        s = AdaptiveSelector()
        s.update(5.0)
        assert s.samples_scored == 0  # nothing predicted the first one
        s.update(6.0)
        assert s.samples_scored == 1

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -50.0, np.float64("nan")]
    )
    def test_rejects_non_finite_or_negative(self, bad):
        s = AdaptiveSelector()
        for v in (100.0, 120.0):
            s.update(v)
        before = (s.forecast(), s.error_table(), s.prediction_error())
        with pytest.raises(ValueError, match=repr(float(bad))):
            s.update(bad)
        # the bad sample touched no state
        assert (s.forecast(), s.error_table(), s.prediction_error()) == before
        s.update(110.0)
        assert s.samples_scored == 2
        assert math.isfinite(s.predict())

    def test_zero_is_a_valid_measurement(self):
        s = AdaptiveSelector()
        s.extend([0.0, 0.0, 0.0])
        assert s.predict() == 0.0


class TestSelection:
    def test_picks_last_value_for_random_walk(self):
        """On a random walk the last value is the best predictor; means
        lag behind."""
        rng = RngStream(1)
        s = AdaptiveSelector(
            battery=[LastValue(), SlidingMean(30)]
        )
        x = 100.0
        for _ in range(300):
            x += rng.normal(0, 1.0)
            s.update(x)
        assert s.forecast().forecaster == "last"

    def test_picks_mean_for_noisy_constant(self):
        """On iid noise around a constant, averaging beats last-value."""
        rng = RngStream(2)
        s = AdaptiveSelector(battery=[LastValue(), SlidingMean(30)])
        for _ in range(300):
            s.update(100.0 + rng.normal(0, 10.0))
        assert s.forecast().forecaster == "sw_mean_30"

    def test_error_table_has_all_forecasters(self):
        s = AdaptiveSelector()
        s.extend([1.0, 2.0, 3.0])
        table = s.error_table()
        assert len(table) >= 10
        assert all(v >= 0 for v in table.values())

    def test_winner_has_lowest_mse(self):
        s = AdaptiveSelector()
        rng = RngStream(5)
        s.extend(100 + rng.normal(0, 5, size=200))
        report = s.forecast()
        assert report.mse == pytest.approx(min(s.error_table().values()))


class TestPredictionError:
    def test_nan_before_scoring(self):
        s = AdaptiveSelector()
        assert math.isnan(s.prediction_error())
        s.update(5.0)
        assert math.isnan(s.prediction_error())

    def test_small_for_stable_stream(self):
        s = AdaptiveSelector()
        s.extend([100.0] * 50)
        assert s.prediction_error() == pytest.approx(0.0, abs=1e-9)

    def test_grows_with_noise(self):
        rng = RngStream(7)
        quiet, noisy = AdaptiveSelector(), AdaptiveSelector()
        quiet.extend(100 + rng.normal(0, 1, size=200))
        noisy.extend(100 + rng.normal(0, 25, size=200))
        assert noisy.prediction_error() > quiet.prediction_error()

    def test_is_relative(self):
        """Scaling the stream leaves the relative error invariant."""
        rng1, rng2 = RngStream(9), RngStream(9)
        a, b = AdaptiveSelector(), AdaptiveSelector()
        noise1 = rng1.normal(0, 5, size=300)
        noise2 = rng2.normal(0, 5, size=300)
        a.extend(100 + noise1)
        b.extend(10 * (100 + noise2))
        assert a.prediction_error() == pytest.approx(
            b.prediction_error(), rel=0.05
        )


class TestReport:
    def test_report_fields(self):
        s = AdaptiveSelector()
        s.extend([1.0, 2.0, 3.0, 4.0])
        r = s.forecast()
        assert isinstance(r.value, float)
        assert isinstance(r.forecaster, str)
        assert r.samples == 3
        assert r.mse >= 0 and r.mae >= 0
