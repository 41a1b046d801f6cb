"""Forecaster battery tests."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nws.forecasters import (
    AdaptiveMean,
    AdaptiveMedian,
    ExponentialSmoothing,
    LastValue,
    RunningMean,
    SlidingMean,
    SlidingMedian,
    StochasticGradient,
    TrimmedMean,
    _mean,
    _median_of_sorted,
    _std,
    default_battery,
)


ALL_CLASSES = [
    LastValue,
    RunningMean,
    lambda: SlidingMean(5),
    lambda: SlidingMedian(5),
    lambda: TrimmedMean(10),
    lambda: ExponentialSmoothing(0.3),
    lambda: AdaptiveMean(16),
    lambda: AdaptiveMedian(16),
    lambda: StochasticGradient(0.1),
]


class TestProtocol:
    @pytest.mark.parametrize("factory", ALL_CLASSES)
    def test_nan_before_data(self, factory):
        assert math.isnan(factory().predict())

    @pytest.mark.parametrize("factory", ALL_CLASSES)
    def test_constant_stream_predicted_exactly(self, factory):
        f = factory()
        for _ in range(20):
            f.update(7.5)
        assert f.predict() == pytest.approx(7.5)

    @pytest.mark.parametrize("factory", ALL_CLASSES)
    def test_prediction_within_data_range(self, factory):
        f = factory()
        vals = [3.0, 9.0, 6.0, 4.0, 8.0, 5.0]
        for v in vals:
            f.update(v)
        assert min(vals) <= f.predict() <= max(vals)


class TestLastValue:
    def test_tracks_latest(self):
        f = LastValue()
        f.update(1.0)
        f.update(42.0)
        assert f.predict() == 42.0


class TestRunningMean:
    def test_whole_history_mean(self):
        f = RunningMean()
        for v in (1.0, 2.0, 3.0, 4.0):
            f.update(v)
        assert f.predict() == pytest.approx(2.5)


class TestSlidingMean:
    def test_window_respected(self):
        f = SlidingMean(3)
        for v in (100.0, 1.0, 2.0, 3.0):
            f.update(v)
        assert f.predict() == pytest.approx(2.0)

    def test_partial_window(self):
        f = SlidingMean(10)
        f.update(4.0)
        f.update(6.0)
        assert f.predict() == pytest.approx(5.0)

    def test_rejects_zero_window(self):
        with pytest.raises(ValueError):
            SlidingMean(0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=5, max_size=40))
    def test_matches_numpy(self, vals):
        f = SlidingMean(5)
        for v in vals:
            f.update(v)
        assert f.predict() == pytest.approx(np.mean(vals[-5:]), rel=1e-9, abs=1e-9)


class TestSlidingMedian:
    def test_robust_to_outlier(self):
        f = SlidingMedian(5)
        for v in (10.0, 10.0, 1000.0, 10.0, 10.0):
            f.update(v)
        assert f.predict() == 10.0

    def test_matches_numpy(self):
        f = SlidingMedian(4)
        vals = [5.0, 1.0, 9.0, 3.0, 7.0]
        for v in vals:
            f.update(v)
        assert f.predict() == pytest.approx(np.median(vals[-4:]))


class TestTrimmedMean:
    def test_removes_extremes(self):
        f = TrimmedMean(8, trim=0.25)
        for v in (0.0, 100.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0):
            f.update(v)
        # sorted: 0,10,10,10,10,10,10,100 -> drop 2 each end -> all 10s
        assert f.predict() == pytest.approx(10.0)

    def test_rejects_bad_trim(self):
        with pytest.raises(ValueError):
            TrimmedMean(10, trim=0.6)


class TestExponentialSmoothing:
    def test_first_value_initialises(self):
        f = ExponentialSmoothing(0.3)
        f.update(10.0)
        assert f.predict() == 10.0

    def test_recurrence(self):
        f = ExponentialSmoothing(0.5)
        f.update(10.0)
        f.update(20.0)
        assert f.predict() == pytest.approx(15.0)

    def test_high_gain_tracks_faster(self):
        slow, fast = ExponentialSmoothing(0.05), ExponentialSmoothing(0.9)
        for v in [1.0] * 10 + [100.0] * 3:
            slow.update(v)
            fast.update(v)
        assert fast.predict() > slow.predict()

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            ExponentialSmoothing(1.5)


class TestAdaptiveMean:
    def test_shrinks_window_on_level_shift(self):
        f = AdaptiveMean(max_window=32)
        for _ in range(32):
            f.update(10.0)
        # a big level shift: the adaptive window should recover faster
        # than a plain 32-sample sliding mean
        plain = SlidingMean(32)
        for _ in range(32):
            plain.update(10.0)
        for _ in range(6):
            f.update(100.0)
            plain.update(100.0)
        assert abs(f.predict() - 100.0) < abs(plain.predict() - 100.0)

    def test_window_recovers(self):
        f = AdaptiveMean(max_window=8)
        for v in [10.0] * 8 + [100.0] + [100.0] * 30:
            f.update(v)
        assert f._window == 8  # back at max after a stable stretch


class TestStochasticGradient:
    def test_first_value_initialises(self):
        f = StochasticGradient()
        f.update(50.0)
        assert f.predict() == 50.0

    def test_gain_accelerates_on_trend(self):
        """On a steady ramp the adaptive gain lets GRAD track far closer
        than a fixed low-gain smoother."""
        grad = StochasticGradient(0.1)
        ewma = ExponentialSmoothing(0.1)
        x = 0.0
        for _ in range(50):
            x += 10.0
            grad.update(x)
            ewma.update(x)
        assert abs(grad.predict() - x) < abs(ewma.predict() - x)

    def test_gain_calms_on_alternating_noise(self):
        f = StochasticGradient(0.5)
        for i in range(40):
            f.update(100.0 + (10.0 if i % 2 else -10.0))
        assert f._gain < 0.5

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            StochasticGradient(0.0)


class TestAdaptiveMedian:
    def test_robust_to_single_outlier(self):
        f = AdaptiveMedian(max_window=16)
        for _ in range(16):
            f.update(10.0)
        f.update(10_000.0)
        assert f.predict() == pytest.approx(10.0)

    def test_level_shift_tracked_faster_than_plain_median(self):
        adaptive = AdaptiveMedian(max_window=32)
        plain = SlidingMedian(32)
        for _ in range(32):
            adaptive.update(10.0)
            plain.update(10.0)
        for _ in range(8):
            adaptive.update(100.0)
            plain.update(100.0)
        assert abs(adaptive.predict() - 100.0) <= abs(plain.predict() - 100.0)


class TestDefaultBattery:
    def test_nonempty_and_fresh(self):
        a = default_battery()
        b = default_battery()
        assert len(a) >= 10
        assert a[0] is not b[0]

    def test_unique_names(self):
        names = [f.name for f in default_battery()]
        assert len(names) == len(set(names))

    def test_all_implement_protocol(self):
        for f in default_battery():
            assert math.isnan(f.predict())
            f.update(5.0)
            assert not math.isnan(f.predict())


window_values = st.lists(
    st.one_of(
        st.floats(min_value=0, max_value=1e9),
        st.sampled_from([0.0, 1.0, 2.5, 1e6]),  # exact ties
    ),
    min_size=1,
    max_size=300,  # past 128: numpy's recursive pairwise split
)


class TestNumpyParity:
    """The pure-Python window statistics equal numpy's bit for bit."""

    def test_every_length_to_300(self):
        # each summation regime: sequential, 8 accumulators, the split
        rng = random.Random(5)
        for n in range(1, 301):
            vals = [
                rng.uniform(0, 1e6) * rng.choice((1e-3, 1, 1e3))
                for _ in range(n)
            ]
            mu = _mean(vals)
            assert repr(mu) == repr(float(np.mean(vals))), n
            assert repr(_std(vals, mu)) == repr(float(np.std(vals))), n
            assert repr(_median_of_sorted(sorted(vals))) == repr(
                float(np.median(vals))
            ), n

    @given(window_values)
    def test_mean_and_std(self, vals):
        mu = _mean(vals)
        assert repr(mu) == repr(float(np.mean(vals)))
        assert repr(_std(vals, mu)) == repr(float(np.std(vals)))

    @given(window_values)
    def test_median(self, vals):
        assert repr(_median_of_sorted(sorted(vals))) == repr(
            float(np.median(vals))
        )
