"""The forecaster battery run over many measurement series at once.

NWS keeps one forecast stream per site pair (the paper's reference
[34]), and the streams are independent, so they batch.  A
:class:`ForecastBank` holds a battery's state for S series in arrays and
absorbs samples in *rounds*: one round gives each of a set of series its
next sample, scoring every forecaster's standing prediction against it
(the selector's predict → score step), updating every forecaster, and
predicting again — one pass of array operations whatever the number of
series.

State
-----
* one shared history ring per series, as long as the battery's largest
  window and stored twice over, so that every windowed forecaster reads
  a series' last *w* samples as one slice;
* per-forecaster state vectors (running and sliding sums, smoothing and
  gradient states and gains, adaptive windows);
* the selector's per-series squared and absolute error sums and count of
  scored samples, and each forecaster's prediction of the next sample.

Bit for bit
-----------
Each series' forecasts equal those of the scalar
:mod:`~repro.nws.forecasters` fed the same samples.  Medians are
selections from ``np.sort(axis=1)``; means and standard deviations are
row sums (``sum(axis=1)``) over C-contiguous rows, which numpy adds in
the pairwise order the scalar classes reproduce.  Rows of different
widths are never padded (a padding zero would move numpy's pairwise
grouping): rows are grouped by width instead.  The sliding mean keeps
its incremental subtract-then-add sum, and the winner is ``np.argmin``'s
first minimum, as ``min()`` picks it.  Samples must be finite and
non-negative; callers validate them.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from repro.nws.forecasters import (
    AdaptiveMean,
    AdaptiveMedian,
    ExponentialSmoothing,
    Forecaster,
    LastValue,
    RunningMean,
    SlidingMean,
    SlidingMedian,
    StochasticGradient,
    TrimmedMean,
    default_battery,
)


def _groups(m: np.ndarray):
    """``(value, index)`` for each distinct value of ``m``.

    ``index`` selects the positions holding that value (a plain slice
    when every position holds the same one).
    """
    lo = int(m[0])
    if len(m) == 1 or lo == m.min() == m.max():
        return [(lo, slice(None))]
    order = np.argsort(m, kind="stable")
    widths, starts = np.unique(m[order], return_index=True)
    bounds = [*starts[1:].tolist(), len(m)]
    return [
        (int(w), order[a:b])
        for w, a, b in zip(widths.tolist(), starts.tolist(), bounds)
    ]


def _median(s: np.ndarray) -> np.ndarray:
    """Row medians of a row-sorted array, as ``_median_of_sorted``."""
    h = s.shape[1] // 2
    if s.shape[1] % 2:
        return 0.0 + s[:, h]
    return (0.0 + s[:, h - 1] + s[:, h]) / 2.0


class _Kernel:
    """One forecaster of the battery, over every series of a bank.

    ``fields`` maps each per-series state vector to its initial value;
    the bank allocates them as attributes and grows them with the bank.
    ``width`` is how many past samples the forecaster reads from the
    history ring.
    """

    width = 0
    fields: dict[str, float] = {}

    def __init__(self, forecaster: Forecaster) -> None:
        pass

    def update(self, bank: ForecastBank, rows, n, v) -> None:
        """Absorb sample ``v`` into ``rows``, which held ``n`` samples.

        Runs before the sample enters the history ring.
        """

    def predict(self, bank: ForecastBank, rows, n) -> np.ndarray:
        """Next-sample predictions of ``rows``, which hold ``n`` ≥ 1 samples."""
        raise NotImplementedError


class _LastValue(_Kernel):
    def predict(self, bank, rows, n):
        return bank._last[rows]


class _RunningMean(_Kernel):
    def __init__(self, forecaster: RunningMean) -> None:
        self.fields = {"sum": 0.0}

    def update(self, bank, rows, n, v):
        self.sum[rows] += v

    def predict(self, bank, rows, n):
        return self.sum[rows] / n


class _SlidingMean(_Kernel):
    def __init__(self, forecaster: SlidingMean) -> None:
        self.width = forecaster.window
        self.fields = {"sum": 0.0}

    def update(self, bank, rows, n, v):
        s = self.sum[rows]
        full = n >= self.width
        if full.any():
            # the sample leaving the window, as deque.append would drop it
            oldest = bank._hist[rows, (n - self.width) % bank._ring]
            s = np.where(full, s - oldest, s)
        self.sum[rows] = s + v

    def predict(self, bank, rows, n):
        return self.sum[rows] / np.minimum(n, self.width)


class _SlidingMedian(_Kernel):
    def __init__(self, forecaster: SlidingMedian) -> None:
        self.width = forecaster.window

    def predict(self, bank, rows, n):
        out = np.empty(len(rows))
        for idx, s in bank._windows(np.minimum(n, self.width), sort=True):
            out[idx] = _median(s)
        return out


class _TrimmedMean(_Kernel):
    def __init__(self, forecaster: TrimmedMean) -> None:
        self.width = forecaster.window
        self.trim = forecaster.trim

    def predict(self, bank, rows, n):
        out = np.empty(len(rows))
        for idx, s in bank._windows(np.minimum(n, self.width), sort=True):
            m = s.shape[1]
            k = int(m * self.trim)
            if m > 2 * k:
                s = np.ascontiguousarray(s[:, k : m - k])
            out[idx] = s.sum(axis=1) / s.shape[1]
        return out


class _ExponentialSmoothing(_Kernel):
    def __init__(self, forecaster: ExponentialSmoothing) -> None:
        self.gain = forecaster.gain
        self.fields = {"state": math.nan}

    def update(self, bank, rows, n, v):
        s = self.state[rows]
        self.state[rows] = np.where(
            np.isnan(s), v, self.gain * v + (1.0 - self.gain) * s
        )

    def predict(self, bank, rows, n):
        return self.state[rows]


class _StochasticGradient(_Kernel):
    def __init__(self, forecaster: StochasticGradient) -> None:
        self.initial_gain = forecaster.initial_gain
        self.fields = {
            "state": math.nan,
            "gain": float(forecaster.initial_gain),
            "last_sign": 0.0,
        }

    def update(self, bank, rows, n, v):
        s, gain = self.state[rows], self.gain[rows]
        last_sign = self.last_sign[rows]
        first = np.isnan(s)
        err = v - s  # nan on a series' first sample, which only sets s
        sign = np.sign(err)
        signed = ~first & (sign != 0)  # a scored error with a sign
        same = signed & (sign == last_sign)
        gain = np.where(
            same,
            np.minimum(1.0, gain * 2.0),
            np.where(
                signed,
                np.maximum(self.initial_gain / 16.0, gain / 2.0),
                gain,
            ),
        )
        self.gain[rows] = gain
        self.last_sign[rows] = np.where(signed, sign, last_sign)
        self.state[rows] = np.where(first, v, s + gain * err)

    def predict(self, bank, rows, n):
        return self.state[rows]


class _Adaptive(_Kernel):
    """Shared shape of the adaptive-window mean and median.

    Predicting computes each series' window centre (mean or median) and
    spread (standard deviation or scaled MAD) and keeps both, since the
    next update tests the new sample against exactly that window.
    """

    #: whether :meth:`_center_spread` takes row-sorted windows
    sort = False

    def __init__(self, forecaster: AdaptiveMean | AdaptiveMedian) -> None:
        self.width = self.max_window = forecaster.max_window
        self.threshold = forecaster.threshold
        self.fields = {
            "window": forecaster.max_window,
            "center": math.nan,
            "spread": math.nan,
        }

    def _center_spread(self, win: np.ndarray):
        raise NotImplementedError

    def update(self, bank, rows, n, v):
        tested = np.minimum(n, self.max_window) >= 4
        if not tested.any():
            return
        window = self.window[rows]
        center, spread = self.center[rows], self.spread[rows]
        shifted = (
            tested
            & (spread > 0)
            & (np.abs(v - center) > self.threshold * spread)
        )
        grown = tested & ~shifted & (window < self.max_window)
        self.window[rows] = np.where(
            shifted,
            np.maximum(2, window // 2),
            np.where(grown, np.minimum(self.max_window, window + 1), window),
        )

    def predict(self, bank, rows, n):
        m = np.minimum(self.window[rows], n)
        center = np.empty(len(rows))
        spread = np.empty(len(rows))
        for idx, win in bank._windows(m, sort=self.sort):
            center[idx], spread[idx] = self._center_spread(win)
        self.center[rows] = center
        self.spread[rows] = spread
        return center


class _AdaptiveMean(_Adaptive):
    def _center_spread(self, win):
        m = win.shape[1]
        mu = win.sum(axis=1) / m
        dev = win - mu[:, None]
        return mu, np.sqrt((dev * dev).sum(axis=1) / m)


class _AdaptiveMedian(_Adaptive):
    sort = True

    def _center_spread(self, win):
        center = _median(win)
        dev = np.abs(win - center[:, None])
        dev.sort(axis=1)
        return center, _median(dev) * 1.4826  # MAD -> sigma


#: scalar forecaster class -> its kernel (exact types: a subclass may
#: change the arithmetic)
_KERNELS = {
    LastValue: _LastValue,
    RunningMean: _RunningMean,
    SlidingMean: _SlidingMean,
    SlidingMedian: _SlidingMedian,
    TrimmedMean: _TrimmedMean,
    ExponentialSmoothing: _ExponentialSmoothing,
    StochasticGradient: _StochasticGradient,
    AdaptiveMean: _AdaptiveMean,
    AdaptiveMedian: _AdaptiveMedian,
}


def _resized(a: np.ndarray, capacity: int, fill) -> np.ndarray:
    out = np.full((capacity, *a.shape[1:]), fill, dtype=a.dtype)
    out[: len(a)] = a
    return out


class ForecastBank:
    """A forecaster battery with MSE-adaptive selection over many series.

    Parameters
    ----------
    battery:
        Forecasters describing the battery (their own state is not
        read); defaults to :func:`repro.nws.forecasters.default_battery`.

    Raises
    ------
    ValueError
        If the battery is empty.
    TypeError
        If a forecaster is not one of the classes in
        :mod:`repro.nws.forecasters`.
    """

    def __init__(self, battery: list[Forecaster] | None = None) -> None:
        battery = battery if battery is not None else default_battery()
        if not battery:
            raise ValueError("battery must contain at least one forecaster")
        kernels = []
        for forecaster in battery:
            kernel = _KERNELS.get(type(forecaster))
            if kernel is None:
                raise TypeError(f"no batched form of {type(forecaster).__name__}")
            kernels.append(kernel(forecaster))
        self.names = [f.name for f in battery]
        self._kernels = kernels
        self._ring = max(k.width for k in kernels) or 1
        self._size = 0
        b = len(kernels)
        self._n = np.zeros(0, dtype=np.int64)  # samples absorbed
        self._last = np.zeros(0)
        self._scored = np.zeros(0, dtype=np.int64)
        # the ring twice over, so any window is one contiguous slice
        self._hist = np.zeros((0, 2 * self._ring))
        self._pred = np.zeros((0, b))  # each forecaster's next prediction
        self._sq_err = np.zeros((0, b))
        self._abs_err = np.zeros((0, b))
        for kernel in kernels:
            for name, fill in kernel.fields.items():
                dtype = np.int64 if isinstance(fill, int) else float
                setattr(kernel, name, np.zeros(0, dtype=dtype))
        self._pass: tuple | None = None  # (rows, samples) being predicted
        self._cache: dict[tuple, np.ndarray] = {}  # the pass's windows

    def add_series(self, count: int = 1) -> np.ndarray:
        """Start ``count`` empty series; returns their row indices."""
        start = self._size
        self._size += count
        if self._size > len(self._n):
            self._grow(max(self._size, 2 * len(self._n), 16))
        return np.arange(start, self._size)

    def _grow(self, capacity: int) -> None:
        self._n = _resized(self._n, capacity, 0)
        self._last = _resized(self._last, capacity, math.nan)
        self._scored = _resized(self._scored, capacity, 0)
        self._hist = _resized(self._hist, capacity, 0.0)
        self._pred = _resized(self._pred, capacity, math.nan)
        self._sq_err = _resized(self._sq_err, capacity, 0.0)
        self._abs_err = _resized(self._abs_err, capacity, 0.0)
        for kernel in self._kernels:
            for name, fill in kernel.fields.items():
                setattr(kernel, name, _resized(getattr(kernel, name), capacity, fill))

    # -- absorbing samples -------------------------------------------------
    def update(self, rows: np.ndarray, values: np.ndarray) -> None:
        """One round: series ``rows`` (distinct) each absorb one sample
        from the float array ``values``.

        Every forecaster's standing prediction is scored against the
        sample, every forecaster absorbs it, and predicts again.
        """
        n = self._n[rows]
        pred = self._pred[rows]
        has = pred == pred  # not nan: the forecaster has data
        err = pred - values[:, None]
        self._sq_err[rows] += np.where(has, err * err, 0.0)
        self._abs_err[rows] += np.where(has, np.abs(err), 0.0)
        self._scored[rows] += has.any(axis=1)
        for kernel in self._kernels:
            kernel.update(self, rows, n, values)
        at = n % self._ring
        self._hist[rows, at] = values
        self._hist[rows, at + self._ring] = values
        self._last[rows] = values
        n = n + 1
        self._n[rows] = n
        self._pass = (rows, n)
        self._cache.clear()
        pred = np.empty_like(pred)
        for j, kernel in enumerate(self._kernels):
            pred[:, j] = kernel.predict(self, rows, n)
        self._pred[rows] = pred

    def extend(self, rows, samples) -> None:
        """Series ``rows`` (distinct) absorb their ``samples`` in order.

        Round *k* gives every series that has a *k*-th sample that
        sample, so each series sees its own samples in order.
        """
        lengths = np.fromiter(map(len, samples), dtype=np.int64, count=len(samples))
        if not lengths.any():
            return
        order = np.argsort(-lengths, kind="stable")
        lengths = lengths[order]
        rows = np.asarray(rows, dtype=np.int64)[order]
        flat = np.fromiter(
            chain.from_iterable(samples[i] for i in order.tolist()),
            dtype=float,
            count=int(lengths.sum()),
        )
        values = np.zeros((len(rows), int(lengths[0])))
        values[np.arange(values.shape[1]) < lengths[:, None]] = flat
        # lengths run longest first, so round k's series are a prefix
        active = np.searchsorted(-lengths, -np.arange(values.shape[1]), "left")
        for k, count in enumerate(active.tolist()):
            self.update(rows[:count], values[:count, k])

    # -- windows of the current predict pass -----------------------------
    def _windows(self, m: np.ndarray, sort: bool) -> list:
        """``(index, window)`` groups: the last ``m`` samples of each of
        the pass's series, oldest first, or row-sorted if ``sort``.

        Series are grouped by width and ring position, so each group is
        one slice of the doubled ring.  A group spanning the whole pass
        is kept until the next pass: forecasters with the same window
        share it, and must not write to it.
        """
        rows, n = self._pass
        span = 2 * self._ring
        stop = n % self._ring + self._ring  # past the newest sample
        out = []
        for key, idx in _groups(m * span + stop):
            width, end = divmod(key, span)
            shared = isinstance(idx, slice)
            win = self._cache.get((width, end, sort)) if shared else None
            if win is None:
                win = self._hist[rows[idx], end - width : end]
                if sort:
                    win.sort(axis=1)
                if shared:
                    self._cache[width, end, sort] = win
            out.append((idx, win))
        return out

    # -- queries -----------------------------------------------------------
    def samples(self, row: int) -> int:
        """Samples absorbed by series ``row``."""
        return int(self._n[row])

    def samples_scored(self, row: int) -> int:
        """Samples of series ``row`` against which forecasts were scored."""
        return int(self._scored[row])

    def winners(self, rows: np.ndarray) -> np.ndarray:
        """Index of each series' lowest-MSE forecaster (0 before scoring)."""
        return np.where(
            self._scored[rows] > 0, np.argmin(self._sq_err[rows], axis=1), 0
        )

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """Each series' winning prediction (``nan`` before any sample)."""
        return self._pred[rows, self.winners(rows)]

    def report(self, row: int) -> tuple[float, int, float, float]:
        """``(prediction, winner, mse, mae)`` of series ``row``."""
        i = int(self.winners(np.array([row]))[0])
        n = max(int(self._scored[row]), 1)
        return (
            float(self._pred[row, i]),
            i,
            float(self._sq_err[row, i]) / n,
            float(self._abs_err[row, i]) / n,
        )

    def prediction_error(self, row: int) -> float:
        """Winner's relative error: ``MAE / last sample``.

        ``nan`` until a forecast has been scored; ``inf`` after a zero
        sample.
        """
        if self._scored[row] == 0:
            return math.nan
        last = float(self._last[row])
        if last == 0:
            return math.inf
        return self.report(row)[3] / abs(last)

    def error_table(self, row: int) -> dict[str, float]:
        """Per-forecaster MSE of series ``row``."""
        n = max(int(self._scored[row]), 1)
        return {
            name: err / n
            for name, err in zip(self.names, self._sq_err[row].tolist())
        }
