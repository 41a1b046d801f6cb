"""MSE-adaptive forecaster selection — the core NWS idea.

Every forecaster in the battery predicts each measurement *before* it
arrives; the selector keeps each predictor's mean-squared error (and mean
absolute error) over the stream so far and answers queries with the
current winner's prediction.

The winner's normalised error is exposed as
:meth:`AdaptiveSelector.prediction_error` because the paper proposes it
as an automatic ε for the scheduler: "Prediction error from the NWS and
variance of the measurement set are potentially good candidates for ε."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nws.bank import ForecastBank
from repro.nws.forecasters import Forecaster


@dataclass(frozen=True)
class ForecastReport:
    """One selector answer.

    Attributes
    ----------
    value:
        The winning forecaster's prediction.
    forecaster:
        Its label.
    mse:
        Its mean squared one-step-ahead error so far.
    mae:
        Its mean absolute error so far.
    samples:
        Number of measurements scored.
    """

    value: float
    forecaster: str
    mse: float
    mae: float
    samples: int


class AdaptiveSelector:
    """Runs a forecaster battery and answers with the lowest-MSE member.

    The one-series case of :class:`~repro.nws.bank.ForecastBank`, so a
    single stream and the clique aggregator's streams share one scoring
    loop.

    Parameters
    ----------
    battery:
        Forecasters to race; defaults to
        :func:`repro.nws.forecasters.default_battery`.
    """

    def __init__(self, battery: list[Forecaster] | None = None) -> None:
        self._bank = ForecastBank(battery)
        self._bank.add_series()  # the only series: row 0

    def update(self, value: float) -> None:
        """Score every forecaster against ``value``, then absorb it.

        Raises
        ------
        ValueError
            If ``value`` is NaN, infinite or negative; nothing is
            changed then.
        """
        self._bank.update(_ROW_0, np.array([_checked(value)], dtype=float))

    def extend(self, values) -> None:
        """Absorb an iterable of measurements in order.

        Measurements before a rejected one are absorbed.
        """
        good = []
        try:
            for v in values:
                good.append(_checked(v))
        finally:
            self._bank.extend(_ROW_0, [good])

    # -- queries -----------------------------------------------------------
    @property
    def samples_scored(self) -> int:
        """Measurements against which forecasts have been scored."""
        return self._bank.samples_scored(0)

    def forecast(self) -> ForecastReport:
        """Predict the next measurement with the current best forecaster.

        Raises
        ------
        ValueError
            If no measurements have been absorbed yet.
        """
        if self._bank.samples(0) == 0:
            raise ValueError("no measurements absorbed yet")
        value, i, mse, mae = self._bank.report(0)
        return ForecastReport(
            value=value,
            forecaster=self._bank.names[i],
            mse=mse,
            mae=mae,
            samples=self.samples_scored,
        )

    def predict(self) -> float:
        """Shorthand for ``forecast().value``."""
        return self.forecast().value

    def prediction_error(self) -> float:
        """Winner's relative error: ``MAE / last measurement``.

        Dimensionless and comparable to an ε fraction; ``nan`` until at
        least one forecast has been scored.
        """
        return self._bank.prediction_error(0)

    def error_table(self) -> dict[str, float]:
        """Per-forecaster MSE so far (for diagnostics and tests)."""
        return self._bank.error_table(0)


_ROW_0 = np.array([0])


def _checked(value: float) -> float:
    if not 0.0 <= value < math.inf:
        raise ValueError(
            f"measurement {value!r} is not a finite non-negative number"
        )
    return value
