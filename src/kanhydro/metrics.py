"""Evaluation statistics for paired observed/simulated series.

R^2 here is the squared Pearson correlation (not 1 - SSres/SStot), and KGE is
the 2012 variant whose variability term is a ratio of coefficients of
variation computed with population standard deviations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, LengthMismatchError

MIN_POINTS = 2  # the fewest paired points a statistic is computed on


@dataclass(frozen=True)
class PairedSeries:
    observed: np.ndarray
    simulated: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=float)
        sim = np.asarray(self.simulated, dtype=float)
        if obs.shape != sim.shape or obs.ndim != 1:
            raise LengthMismatchError("observed and simulated must be equal-"
                                      "length 1-D vectors")
        if obs.size < MIN_POINTS:
            raise InvalidArgumentError(f"need at least {MIN_POINTS} points")
        if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(sim))):
            raise InvalidArgumentError("series values must be finite")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "simulated", sim)


def _as_series(s) -> PairedSeries:
    if isinstance(s, PairedSeries):
        return s
    obs, sim = s
    return PairedSeries(obs, sim)


def nse(s) -> float:
    """Nash-Sutcliffe efficiency: 1 - SSres / SS about the observed mean."""
    s = _as_series(s)
    obs, sim = s.observed, s.simulated
    denom = float(np.sum((obs - obs.mean()) ** 2))
    if denom <= 0.0:
        raise InvalidArgumentError("observed series has zero variance")
    return 1.0 - float(np.sum((obs - sim) ** 2)) / denom


def rmse(s) -> float:
    s = _as_series(s)
    return float(np.sqrt(np.mean((s.observed - s.simulated) ** 2)))


def _pearson(a, b) -> float:
    da, db = a - a.mean(), b - b.mean()
    denom = np.sqrt(float(da @ da) * float(db @ db))
    if denom <= 0.0:
        raise InvalidArgumentError("zero-variance input to correlation")
    return float(da @ db) / denom


def r_squared(s) -> float:
    """Squared Pearson correlation between observed and simulated."""
    s = _as_series(s)
    return _pearson(s.observed, s.simulated) ** 2


def kge(s) -> float:
    """Kling-Gupta efficiency, 2012 variant (CV-based variability ratio)."""
    s = _as_series(s)
    obs, sim = s.observed, s.simulated
    mo, ms = float(obs.mean()), float(sim.mean())
    if mo == 0.0 or ms == 0.0:
        raise InvalidArgumentError("KGE requires nonzero means")
    r = _pearson(obs, sim)
    beta = ms / mo
    cv_obs = float(obs.std()) / mo
    cv_sim = float(sim.std()) / ms
    if cv_obs == 0.0:
        raise InvalidArgumentError("observed series has zero variance")
    gamma = cv_sim / cv_obs
    return 1.0 - float(np.sqrt((r - 1.0) ** 2 + (beta - 1.0) ** 2
                               + (gamma - 1.0) ** 2))


def all_metrics(obs, sim) -> dict:
    """NSE, KGE, RMSE, and R^2 for one prediction series."""
    s = PairedSeries(obs, sim)
    return {"nse": nse(s), "kge": kge(s), "rmse": rmse(s),
            "r2": r_squared(s)}
