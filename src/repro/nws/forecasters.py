"""The NWS forecaster battery.

Wolski's Network Weather Service (the paper's reference [36]) runs a
collection of cheap one-step-ahead predictors over every measurement
stream.  Each forecaster here implements the same tiny protocol:

* ``update(value)`` — absorb the next measurement;
* ``predict()`` — forecast the next one (``nan`` before any data).

The battery in :func:`default_battery` mirrors the classic NWS mix:
last value, running mean, sliding means and medians over several window
sizes, trimmed means, exponential smoothing at several gains, and an
adaptive-window mean.

These classes are the battery's description and its scalar reference.
Forecasting itself runs in :class:`~repro.nws.bank.ForecastBank`, which
builds one batched kernel per forecaster of a battery and steps every
measurement stream at once; its tests hold it to these classes bit for
bit.

Window statistics here are plain Python and reproduce numpy's float64
results bit for bit.  A median is a selection from the sorted window
(the mean of the two middle values for even windows), and every mean or
standard deviation adds in numpy's pairwise order
(:func:`_pairwise_sum`), so forecasts equal those of the numpy battery
that recorded the repository's campaign digests.
"""

from __future__ import annotations

import math
from collections import deque
from functools import reduce
from itertools import islice
from operator import add

from repro.util.validation import check_in_range, check_positive


def _pairwise_sum(a: list[float], lo: int, n: int) -> float:
    """Sum of ``a[lo:lo + n]`` in the order of numpy's float64 pairwise
    summation, so the result is bit-identical to numpy's.

    Under 8 terms numpy adds left to right; up to 128 it runs eight
    strided accumulators, combines them as a balanced tree and adds the
    remainder in order; above 128 it splits at ``n // 2`` rounded down
    to a multiple of 8 and recurses.
    """
    if n < 8:
        return reduce(add, islice(a, lo, lo + n), 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = a[lo : lo + 8]
        for i in range(lo + 8, end, 8):
            x0, x1, x2, x3, x4, x5, x6, x7 = a[i : i + 8]
            r0 += x0
            r1 += x1
            r2 += x2
            r3 += x3
            r4 += x4
            r5 += x5
            r6 += x6
            r7 += x7
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in a[end : lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


def _mean(a: list[float]) -> float:
    """numpy's mean of a non-empty list."""
    # numpy adds onto the reduction's identity, 0.0 (turning -0.0 to 0.0)
    return (0.0 + _pairwise_sum(a, 0, len(a))) / len(a)


def _std(a: list[float], mu: float) -> float:
    """numpy's (population) standard deviation, given ``mu = _mean(a)``."""
    sq = [(x - mu) * (x - mu) for x in a]
    return math.sqrt((0.0 + _pairwise_sum(sq, 0, len(sq))) / len(sq))


def _median_of_sorted(s: list[float]) -> float:
    """numpy's median of a non-empty, sorted list."""
    # numpy takes the mean of the middle one or two values
    h = len(s) // 2
    if len(s) % 2:
        return 0.0 + s[h]
    return (0.0 + s[h - 1] + s[h]) / 2.0


class Forecaster:
    """Base class: the one-step-ahead predictor protocol."""

    #: short label used in reports
    name: str = "base"

    def update(self, value: float) -> None:
        """Absorb the next measurement."""
        raise NotImplementedError

    def predict(self) -> float:
        """Forecast the next measurement (``nan`` before any data)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class LastValue(Forecaster):
    """Predict the next measurement as the previous one."""

    name = "last"

    def __init__(self) -> None:
        self._last = math.nan

    def update(self, value: float) -> None:
        self._last = value

    def predict(self) -> float:
        return self._last


class RunningMean(Forecaster):
    """Mean of the entire history (constant-space)."""

    name = "run_mean"

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def update(self, value: float) -> None:
        self._sum += value
        self._count += 1

    def predict(self) -> float:
        if self._count == 0:
            return math.nan
        return self._sum / self._count


class SlidingMean(Forecaster):
    """Mean over the last ``window`` measurements."""

    def __init__(self, window: int) -> None:
        check_positive("window", window)
        self.window = int(window)
        self.name = f"sw_mean_{self.window}"
        self._buf: deque[float] = deque(maxlen=self.window)
        self._sum = 0.0

    def update(self, value: float) -> None:
        if len(self._buf) == self.window:
            self._sum -= self._buf[0]
        self._buf.append(value)
        self._sum += value

    def predict(self) -> float:
        if not self._buf:
            return math.nan
        return self._sum / len(self._buf)


class SlidingMedian(Forecaster):
    """Median over the last ``window`` measurements (outlier-robust)."""

    def __init__(self, window: int) -> None:
        check_positive("window", window)
        self.window = int(window)
        self.name = f"sw_median_{self.window}"
        self._buf: deque[float] = deque(maxlen=self.window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> float:
        if not self._buf:
            return math.nan
        return _median_of_sorted(sorted(self._buf))


class TrimmedMean(Forecaster):
    """Mean over the last ``window`` values after dropping the extremes.

    ``trim`` is the fraction removed from *each* end.
    """

    def __init__(self, window: int, trim: float = 0.25) -> None:
        check_positive("window", window)
        check_in_range("trim", trim, 0.0, 0.49)
        self.window = int(window)
        self.trim = trim
        self.name = f"trim_mean_{self.window}"
        self._buf: deque[float] = deque(maxlen=self.window)

    def update(self, value: float) -> None:
        self._buf.append(value)

    def predict(self) -> float:
        if not self._buf:
            return math.nan
        data = sorted(self._buf)
        k = int(len(data) * self.trim)
        return _mean(data[k : len(data) - k] if len(data) > 2 * k else data)


class ExponentialSmoothing(Forecaster):
    """Classic EWMA: ``s <- g*value + (1-g)*s``."""

    def __init__(self, gain: float) -> None:
        check_in_range("gain", gain, 0.0, 1.0)
        self.gain = gain
        self.name = f"exp_{gain:g}"
        self._state = math.nan

    def update(self, value: float) -> None:
        if math.isnan(self._state):
            self._state = value
        else:
            self._state = self.gain * value + (1.0 - self.gain) * self._state

    def predict(self) -> float:
        return self._state


class AdaptiveMean(Forecaster):
    """Sliding mean whose window shrinks when the stream shifts level.

    After each measurement, the window is halved if the newest value sits
    more than ``threshold`` standard deviations from the current window
    mean — a cheap change-point reaction in the spirit of NWS's adaptive
    predictors.
    """

    def __init__(self, max_window: int = 64, threshold: float = 2.0) -> None:
        check_positive("max_window", max_window)
        check_positive("threshold", threshold)
        self.max_window = int(max_window)
        self.threshold = threshold
        self.name = f"adapt_mean_{self.max_window}"
        self._buf: deque[float] = deque(maxlen=self.max_window)
        self._window = self.max_window
        # (current window, its mean), kept until the next update
        self._recent: tuple[list[float], float] | None = None

    def _recent_mean(self) -> tuple[list[float], float]:
        if self._recent is None:
            recent = list(self._buf)[-self._window :]
            self._recent = (recent, _mean(recent))
        return self._recent

    def update(self, value: float) -> None:
        if len(self._buf) >= 4:
            recent, mu = self._recent_mean()
            sigma = _std(recent, mu)
            if sigma > 0 and abs(value - mu) > self.threshold * sigma:
                self._window = max(2, self._window // 2)
            elif self._window < self.max_window:
                self._window = min(self.max_window, self._window + 1)
        self._buf.append(value)
        self._recent = None

    def predict(self) -> float:
        if not self._buf:
            return math.nan
        return self._recent_mean()[1]


class StochasticGradient(Forecaster):
    """NWS's GRAD predictor: follow the error downhill.

    The state moves a ``gain`` fraction of the last prediction error:
    ``s <- s + gain * (value - s)``, but with the gain itself adapted —
    doubled (up to 1) after two same-sign errors, halved after a sign
    flip — so it accelerates on trends and calms on noise.
    """

    def __init__(self, initial_gain: float = 0.1) -> None:
        check_in_range("initial_gain", initial_gain, 1e-6, 1.0)
        self.initial_gain = initial_gain
        self.name = f"grad_{initial_gain:g}"
        self._state = math.nan
        self._gain = initial_gain
        self._last_sign = 0

    def update(self, value: float) -> None:
        if math.isnan(self._state):
            self._state = value
            return
        error = float(value) - self._state
        sign = int(error > 0) - int(error < 0)
        if sign != 0:
            if sign == self._last_sign:
                self._gain = min(1.0, self._gain * 2.0)
            else:
                self._gain = max(self.initial_gain / 16.0, self._gain / 2.0)
            self._last_sign = sign
        self._state += self._gain * error

    def predict(self) -> float:
        return self._state


class AdaptiveMedian(Forecaster):
    """Sliding median whose window shrinks on level shifts.

    The robust sibling of :class:`AdaptiveMean`: outliers cannot drag
    the forecast, and genuine regime changes still shorten the window.
    """

    def __init__(self, max_window: int = 64, threshold: float = 2.0) -> None:
        check_positive("max_window", max_window)
        check_positive("threshold", threshold)
        self.max_window = int(max_window)
        self.threshold = threshold
        self.name = f"adapt_median_{self.max_window}"
        self._buf: deque[float] = deque(maxlen=self.max_window)
        self._window = self.max_window
        # (current window, its median), kept until the next update
        self._recent: tuple[list[float], float] | None = None

    def _recent_median(self) -> tuple[list[float], float]:
        if self._recent is None:
            recent = list(self._buf)[-self._window :]
            self._recent = (recent, _median_of_sorted(sorted(recent)))
        return self._recent

    def update(self, value: float) -> None:
        if len(self._buf) >= 4:
            recent, center = self._recent_median()
            spread = _median_of_sorted(
                sorted([abs(x - center) for x in recent])
            ) * 1.4826  # MAD -> sigma
            if spread > 0 and abs(value - center) > self.threshold * spread:
                self._window = max(2, self._window // 2)
            elif self._window < self.max_window:
                self._window = min(self.max_window, self._window + 1)
        self._buf.append(value)
        self._recent = None

    def predict(self) -> float:
        if not self._buf:
            return math.nan
        return self._recent_median()[1]


def default_battery() -> list[Forecaster]:
    """The standard NWS-style predictor mix.

    A fresh list of fresh forecasters: last value; running mean; sliding
    means and medians over windows of 5, 10 and 30; a 25 %-trimmed mean
    over 30; exponential smoothing with gains 0.05, 0.1, 0.3 and 0.5;
    and an adaptive-window mean.
    """
    return [
        LastValue(),
        RunningMean(),
        SlidingMean(5),
        SlidingMean(10),
        SlidingMean(30),
        SlidingMedian(5),
        SlidingMedian(10),
        SlidingMedian(30),
        TrimmedMean(30, trim=0.25),
        ExponentialSmoothing(0.05),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.5),
        AdaptiveMean(64),
        AdaptiveMedian(64),
        StochasticGradient(0.1),
    ]
