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

from repro.nws.forecasters import Forecaster, default_battery


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

    Parameters
    ----------
    battery:
        Forecasters to race; defaults to
        :func:`repro.nws.forecasters.default_battery`.
    """

    def __init__(self, battery: list[Forecaster] | None = None) -> None:
        self._battery = battery if battery is not None else default_battery()
        if not self._battery:
            raise ValueError("battery must contain at least one forecaster")
        n = len(self._battery)
        self._sq_err = [0.0] * n
        self._abs_err = [0.0] * n
        self._scored = 0
        self._last_value = math.nan

    def update(self, value: float) -> None:
        """Score every forecaster against ``value``, then absorb it.

        Raises
        ------
        ValueError
            If ``value`` is NaN, infinite or negative; nothing is
            changed then.
        """
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"measurement {value!r} is not a finite non-negative number"
            )
        sq_err, abs_err = self._sq_err, self._abs_err
        any_scored = False
        for i, forecaster in enumerate(self._battery):
            pred = forecaster.predict()
            if pred == pred:  # not nan: the forecaster has data
                err = pred - value
                sq_err[i] += err * err
                abs_err[i] += abs(err)
                any_scored = True
        if any_scored:
            self._scored += 1
        for forecaster in self._battery:
            forecaster.update(value)
        self._last_value = value

    def extend(self, values) -> None:
        """Absorb an iterable of measurements in order."""
        for v in values:
            self.update(v)

    # -- queries -----------------------------------------------------------
    @property
    def samples_scored(self) -> int:
        """Measurements against which forecasts have been scored."""
        return self._scored

    def _winner_index(self) -> int:
        if self._scored == 0:
            return 0
        return min(range(len(self._battery)), key=lambda i: self._sq_err[i])

    def forecast(self) -> ForecastReport:
        """Predict the next measurement with the current best forecaster.

        Raises
        ------
        ValueError
            If no measurements have been absorbed yet.
        """
        if math.isnan(self._last_value):
            raise ValueError("no measurements absorbed yet")
        i = self._winner_index()
        n = max(self._scored, 1)
        return ForecastReport(
            value=self._battery[i].predict(),
            forecaster=self._battery[i].name,
            mse=self._sq_err[i] / n,
            mae=self._abs_err[i] / n,
            samples=self._scored,
        )

    def predict(self) -> float:
        """Shorthand for ``forecast().value``."""
        return self.forecast().value

    def prediction_error(self) -> float:
        """Winner's relative error: ``MAE / last measurement``.

        Dimensionless and comparable to an ε fraction; ``nan`` until at
        least one forecast has been scored.
        """
        if self._scored == 0 or math.isnan(self._last_value):
            return math.nan
        report = self.forecast()
        if self._last_value == 0:
            return math.inf
        return report.mae / abs(self._last_value)

    def error_table(self) -> dict[str, float]:
        """Per-forecaster MSE so far (for diagnostics and tests)."""
        n = max(self._scored, 1)
        return {
            f.name: self._sq_err[i] / n for i, f in enumerate(self._battery)
        }
