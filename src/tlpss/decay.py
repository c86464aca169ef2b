"""Time-decay weighting for edge recency.

Two decay modes map arrays of elapsed snapshot times to
residual-information weights, one vectorized function each:

* the adjusted sigmoid (:func:`asf_array`)
  ``w(x) = (1/(1 + exp(x/p - a)) + q) / (q + 1)``, which models an active
  phase, a decay phase, and a stable floor of ``q/(q+1)`` that old edges
  never drop below;
* a plain exponential ``exp(-theta * x)`` kept as a comparison mode.

:func:`decay_weights` picks the mode from its parameters.  Elapsed time
``x`` is measured in (real-valued) snapshot units, not raw timestamps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "DecayParams",
    "ExpDecayParams",
    "asf_array",
    "asf_floor",
    "asf_log_margin",
    "decay_weights",
    "decay_floor",
]


@dataclass(frozen=True)
class DecayParams:
    """Adjusted-sigmoid parameters: active-period scale ``p``, stable-floor
    control ``q``, and position offset ``a`` (default 5).

    ``q = 0`` is allowed and turns the stable floor off entirely, which in
    turn disables all latent-edge weights downstream.
    """

    p: float
    q: float
    a: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p > 0):
            raise ConfigError(f"p must be a positive real, got {self.p!r}")
        if not (math.isfinite(self.q) and self.q >= 0):
            raise ConfigError(f"q must be a non-negative real, got {self.q!r}")
        if not math.isfinite(self.a):
            raise ConfigError(f"a must be finite, got {self.a!r}")


@dataclass(frozen=True)
class ExpDecayParams:
    """Exponential-decay damping factor ``theta``, restricted to (0, 1)."""

    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and 0 < self.theta < 1):
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta!r}")


def _elapsed(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size and (not np.all(np.isfinite(x)) or np.any(x < 0)):
        raise ValueError("elapsed snapshot times must be finite and >= 0")
    return x


def asf_array(x: np.ndarray, params: DecayParams) -> np.ndarray:
    """Adjusted-sigmoid weights of edges that are ``x`` snapshots old.

    Strictly decreasing in ``x``, bounded in
    ``(q/(q+1), (1/(1+exp(-a)) + q)/(q+1)]``.  In float64 the value
    saturates at the lower bound once the sigmoid term underflows; use
    :func:`asf_log_margin` when the distance to the floor matters.
    """
    t = params.a - _elapsed(x) / params.p
    # branch on sign so no exp() argument is ever positive: no overflow
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return (out + params.q) / (params.q + 1.0)


def asf_floor(params: DecayParams) -> float:
    """Greatest lower bound ``q/(q+1)`` of the adjusted sigmoid."""
    return params.q / (params.q + 1.0)


def asf_log_margin(x: np.ndarray, params: DecayParams) -> np.ndarray:
    """``log(asf_array(x) - asf_floor)``, computed stably.

    The margin above the floor shrinks like ``exp(a - x/p)`` and underflows
    float64 long before it is mathematically zero; this log-space form stays
    finite and strictly decreasing for all finite ``x``, so order and
    positivity of the margin can be checked where :func:`asf_array`
    saturates.
    """
    t = params.a - _elapsed(x) / params.p
    return -np.logaddexp(0.0, -t) - math.log1p(params.q)


def decay_weights(elapsed: np.ndarray, params: DecayParams | ExpDecayParams) -> np.ndarray:
    """Weights for an array of elapsed snapshot times under either decay mode."""
    if isinstance(params, DecayParams):
        return asf_array(elapsed, params)
    return np.exp(-params.theta * _elapsed(elapsed))


def decay_floor(params: DecayParams | ExpDecayParams) -> float:
    """Lower bound of the decay mode: ``q/(q+1)`` for the adjusted sigmoid,
    0 for the exponential (it decays indefinitely, so latent edges get no
    weight under it)."""
    if isinstance(params, DecayParams):
        return asf_floor(params)
    return 0.0
