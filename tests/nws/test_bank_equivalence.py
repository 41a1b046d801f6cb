"""The batched forecast bank against the scalar forecasters, bit for bit.

Each series of a :class:`ForecastBank`, and each stream of a
:class:`CliqueAggregator`, must answer exactly as one scalar
``default_battery()`` raced by the plain scoring loop below: the same
forecasts, winners, MSE/MAE and relative errors, compared by ``repr()``
so that a last-bit difference fails.  The streams are ragged (0-200
samples, exact ties, constant runs, level shifts) and are fed in
interleaved pieces, with queries in between.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nws.bank import ForecastBank
from repro.nws.forecasters import default_battery
from repro.nws.matrix import CliqueAggregator


class _Reference:
    """One stream: the scalar battery and a plain-Python scoring loop."""

    def __init__(self) -> None:
        self.battery = default_battery()
        self.sq_err = [0.0] * len(self.battery)
        self.abs_err = [0.0] * len(self.battery)
        self.scored = 0
        self.last = math.nan

    def update(self, value: float) -> None:
        scored = False
        for i, forecaster in enumerate(self.battery):
            pred = forecaster.predict()
            if not math.isnan(pred):
                err = pred - value
                self.sq_err[i] += err * err
                self.abs_err[i] += abs(err)
                scored = True
        self.scored += scored
        for forecaster in self.battery:
            forecaster.update(value)
        self.last = value

    def report(self):
        i = 0
        if self.scored:
            i = min(range(len(self.battery)), key=self.sq_err.__getitem__)
        n = max(self.scored, 1)
        return (
            self.battery[i].predict(),
            i,
            self.sq_err[i] / n,
            self.abs_err[i] / n,
        )

    def prediction_error(self) -> float:
        if self.scored == 0:
            return math.nan
        if self.last == 0:
            return math.inf
        return self.report()[3] / abs(self.last)


def _stream(seed: int, mode: int, length: int, zeros: bool) -> list[float]:
    """A seeded stream: level shifts plus one of four sample shapes."""
    rng = random.Random(seed)
    level = rng.uniform(1.0, 1e4)
    out = []
    for _ in range(length):
        if rng.random() < 0.06:
            level *= rng.choice((0.1, 0.5, 2.0, 8.0))  # level shift
        if mode == 0:  # continuous noise
            x = level * (1.0 + rng.gauss(0.0, 0.25))
        elif mode == 1:  # quantised: many exact ties
            x = float(round(level * (1.0 + rng.gauss(0.0, 0.1)), -1))
        elif mode == 2:  # tiny alphabet: ties and zero-spread windows
            x = level * rng.choice((1.0, 1.0, 1.0, 1.5, 3.0))
        else:  # constant runs with rare outliers
            x = level * (7.0 if rng.random() < 0.03 else 1.0)
        x = abs(x)
        if zeros and rng.random() < 0.05:
            x = rng.choice((0.0, -0.0))
        elif x == 0.0:
            x = 1.0  # the aggregator takes positive samples only
        out.append(x)
    return out


def _streams(zeros):
    return st.builds(
        _stream,
        seed=st.integers(0, 2**32 - 1),
        mode=st.integers(0, 3),
        length=st.one_of(st.integers(0, 12), st.integers(0, 200)),
        zeros=zeros,
    )


def _pieces(data, values: list[float], phases: int) -> list[list[float]]:
    """``values`` cut into ``phases`` consecutive, possibly empty, pieces."""
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, len(values)),
                min_size=phases - 1,
                max_size=phases - 1,
            )
        )
    )
    bounds = [0, *cuts, len(values)]
    return [values[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=40)
@given(data=st.data())
def test_bank_series_match_scalar_battery(data):
    series = data.draw(
        st.lists(_streams(st.booleans()), min_size=1, max_size=5)
    )
    phases = data.draw(st.integers(1, 4))
    pieces = [_pieces(data, values, phases) for values in series]
    bank = ForecastBank()
    rows = bank.add_series(len(series))
    refs = [_Reference() for _ in series]
    for phase in range(phases):
        chunks = [p[phase] for p in pieces]
        if all(len(c) <= 1 for c in chunks):
            fed = [i for i, c in enumerate(chunks) if c]
            if fed:
                bank.update(rows[fed], np.array([chunks[i][0] for i in fed]))
        else:
            bank.extend(rows, chunks)
        for ref, chunk in zip(refs, chunks):
            for value in chunk:
                ref.update(value)
        for row, ref in zip(rows.tolist(), refs):
            assert bank.samples_scored(row) == ref.scored
            assert repr(bank.error_table(row)) == repr(
                {f.name: e / max(ref.scored, 1)
                 for f, e in zip(ref.battery, ref.sq_err)}
            )
            assert repr(bank.prediction_error(row)) == repr(ref.prediction_error())
            assert repr(bank.report(row)) == repr(ref.report())


# -- the aggregator ------------------------------------------------------------
SITE_OF = {"a1": "A", "a2": "A", "b1": "B", "c1": "C", "c2": "C"}
HOSTS = sorted(SITE_OF)
BAD = [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf]


def _key(src: str, dst: str):
    if SITE_OF[src] == SITE_OF[dst]:
        return (src, dst)
    return (SITE_OF[src], SITE_OF[dst])


def _check_aggregator(agg: CliqueAggregator, refs: dict) -> None:
    assert agg.stream_count() == len(refs)
    expected = {}
    for src in HOSTS:
        for dst in HOSTS:
            if src == dst:
                continue
            ref = refs.get(_key(src, dst))
            if ref is not None:
                want = ref.report()[0]
                err = ref.prediction_error()
            elif SITE_OF[src] == SITE_OF[dst]:
                want, err = agg.intra_site_bandwidth, math.nan
            else:
                want, err = math.nan, math.nan
            expected[src, dst] = want
            assert repr(agg.forecast(src, dst)) == repr(want)
            assert repr(agg.prediction_error(src, dst)) == repr(err)
    bw = agg.build_matrix().bandwidth_matrix()
    for i, src in enumerate(HOSTS):
        for j, dst in enumerate(HOSTS):
            if src == dst:
                assert bw[i, j] == math.inf
                continue
            want = expected[src, dst]
            if not (math.isfinite(want) and want > 0):
                want = math.nan
            assert repr(float(bw[i, j])) == repr(want)


@settings(max_examples=40)
@given(data=st.data())
def test_aggregator_matches_scalar_streams(data):
    pairs = [(s, d) for s in HOSTS for d in HOSTS]
    chosen = data.draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True)
    )
    series = {pair: data.draw(_streams(st.just(False))) for pair in chosen}
    # an interleaving that keeps each pair's samples in order
    order = [pair for pair, values in series.items() for _ in values]
    random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(order)
    queries = set(data.draw(st.lists(st.integers(0, len(order)), max_size=5)))
    bad = dict(
        data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(order)),
                    st.tuples(st.sampled_from(pairs), st.sampled_from(BAD)),
                ),
                max_size=3,
            )
        )
    )
    agg = CliqueAggregator(SITE_OF)
    refs: dict = {}
    position = {pair: 0 for pair in series}
    for step in range(len(order) + 1):
        if step in bad:
            (src, dst), value = bad[step]
            with pytest.raises(ValueError):
                agg.observe(src, dst, value)
        if step in queries:
            _check_aggregator(agg, refs)
        if step == len(order):
            break
        src, dst = pair = order[step]
        value = series[pair][position[pair]]
        position[pair] += 1
        agg.observe(src, dst, value)
        refs.setdefault(_key(src, dst), _Reference()).update(value)
    _check_aggregator(agg, refs)
