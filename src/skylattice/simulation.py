"""Synthetic data generators.

Two generators: a scalar exponential-autoregressive series with a functional
coefficient dip near zero (the classic EXPAR form), and a sensor-field
simulator with a separable mode (spatial amplitude times a shared AR(1)
temporal factor) and an advective mode (a Gaussian random field translated
across the layout while its Fourier modes decay and regenerate, which makes
the space-time covariance non-factorizable).

All randomness comes from ``numpy.random.default_rng`` (PCG64); a fixed seed
reproduces output bitwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import SensorLayout, SpatioTemporalField

#: marginal sd, temporal AR coefficient, small-scale noise fraction, ramp
#: sharpness, and cover-envelope strength per sky regime; calibrated for
#: qualitative contrast, not physical fidelity.  ``edge`` > 0 squashes the
#: latent Gaussian through a saturating nonlinearity, turning smooth
#: fluctuations into plateau-and-ramp structure (shadow edges); 0 leaves the
#: field Gaussian.  ``env`` > 0 modulates the advected signal's amplitude by
#: a slow lognormal envelope (cloud cover waxing and waning through the
#: window); both effects apply to the advective mode only.
REGIME_PARAMS = {
    "clear": {"sd": 1.0, "ar": 0.999, "noise_frac": 0.25, "edge": 0.0, "env": 0.0},
    "partly_cloudy": {"sd": 30.0, "ar": 0.97, "noise_frac": 0.08, "edge": 2.5, "env": 0.9},
    "overcast": {"sd": 18.0, "ar": 0.93, "noise_frac": 0.20, "edge": 0.8, "env": 0.4},
}
#: the sky regimes and field types, in the order ``simulate`` lists them
REGIMES = tuple(REGIME_PARAMS)
SIM_MODES = ("advective", "separable")

_N_FOURIER_MODES = 192


@dataclass(frozen=True)
class Expar2Config:
    """Order-2 exponential AR process with a Gaussian coefficient dip at 0.

    The recurrence is

        X_t = (LAG1_BASE + LAG1_DIP * exp(-DIP_DECAY * X_{t-1}^2)) * X_{t-1}
            + (LAG2_BASE + LAG2_DIP * exp(-DIP_DECAY * X_{t-1}^2)) * X_{t-2}
            + NOISE_SD * w_t,   w_t ~ N(0, 1)

    with fixed coefficients; ``n_times`` kept steps follow ``BURN_IN``
    discarded ones.  The two coefficients' magnitudes sum to at most 0.8
    for every X_{t-1}, so the recurrence cannot diverge.
    """

    LAG1_BASE = 0.5
    LAG1_DIP = -1.1
    LAG2_BASE = 0.3
    LAG2_DIP = -0.5
    DIP_DECAY = 50.0
    NOISE_SD = 0.2
    BURN_IN = 500

    n_times: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.n_times < 1:
            raise ValueError("n_times must be >= 1")


def expar2_true_curves(
    cfg: Expar2Config,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """True coefficient curves of the delay-absorbed form of the process.

    Written with u = X_{t-1} as the functional variable, the process is

        X_t = f_intercept(u) + f_lag2(u) * X_{t-2} + noise,

    where f_intercept(u) = (LAG1_BASE + LAG1_DIP e^{-DIP_DECAY u^2}) u
    absorbs the lag-1 term and f_lag2 is the lag-2 coefficient curve.  These
    are the targets the functional-coefficient fit should recover.
    """

    def f_intercept(u):
        u = np.asarray(u, dtype=float)
        return (cfg.LAG1_BASE + cfg.LAG1_DIP * np.exp(-cfg.DIP_DECAY * u * u)) * u

    def f_lag2(u):
        u = np.asarray(u, dtype=float)
        return cfg.LAG2_BASE + cfg.LAG2_DIP * np.exp(-cfg.DIP_DECAY * u * u)

    return f_intercept, f_lag2


def simulate_expar2(cfg: Expar2Config) -> np.ndarray:
    """Generate a mean-centered realization of the exponential AR(2) process.

    Starts from (0, 0), iterates through ``BURN_IN`` discarded steps plus
    ``n_times`` kept steps, and returns the kept block minus its mean.
    """
    rng = np.random.default_rng(cfg.seed)
    total = cfg.BURN_IN + cfg.n_times
    noise = cfg.NOISE_SD * rng.standard_normal(total)
    x = np.empty(total + 2)
    x[0] = x[1] = 0.0
    for t in range(total):
        u = x[t + 1]
        dip = math.exp(-cfg.DIP_DECAY * u * u)
        x[t + 2] = (
            (cfg.LAG1_BASE + cfg.LAG1_DIP * dip) * u
            + (cfg.LAG2_BASE + cfg.LAG2_DIP * dip) * x[t]
            + noise[t]
        )
    kept = x[2 + cfg.BURN_IN :]
    return kept - kept.mean()


@dataclass(frozen=True)
class FieldSimConfig:
    """Configuration for the sensor-field simulator.

    ``regime`` picks marginal sd, temporal AR coefficient, and noise fraction
    from :data:`REGIME_PARAMS`; ``ar_coeff`` overrides the regime's AR
    coefficient when set.  ``velocity`` is the cloud-motion vector in m/s
    (advective mode only).  ``diurnal_amplitude`` > 0 adds a smooth bell-shaped
    daily curve on top, producing a kind="raw" field for exercising the
    detrending pipeline; the default 0 yields kind="detrended".
    """

    layout: SensorLayout
    n_times: int
    dt_seconds: float = 30.0
    regime: str = "partly_cloudy"
    mode: str = "advective"
    velocity: tuple[float, float] = (3.0, 0.0)
    corr_length: float = 120.0
    ar_coeff: Optional[float] = None
    diurnal_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIME_PARAMS:
            raise ValueError(f"regime must be one of {sorted(REGIME_PARAMS)}")
        if self.mode not in SIM_MODES:
            raise ValueError(f"mode must be one of {list(SIM_MODES)}")
        if self.n_times < 2:
            raise ValueError("n_times must be >= 2")
        if self.dt_seconds <= 0:
            raise ValueError("dt_seconds must be > 0")
        if self.corr_length <= 0:
            raise ValueError("corr_length must be > 0")
        if self.ar_coeff is not None and not (0 <= self.ar_coeff < 1):
            raise ValueError("ar_coeff must lie in [0, 1)")
        if self.diurnal_amplitude < 0:
            raise ValueError("diurnal_amplitude must be >= 0")

    @property
    def resolved_ar(self) -> float:
        if self.ar_coeff is not None:
            return float(self.ar_coeff)
        return REGIME_PARAMS[self.regime]["ar"]


def _spatial_amplitudes(cfg: FieldSimConfig, rng: np.random.Generator) -> np.ndarray:
    # smooth positive-ish per-sensor amplitude field around 1
    xy = cfg.layout.xy
    d2 = np.sum((xy[:, None, :] - xy[None, :, :]) ** 2, axis=-1)
    cov = np.exp(-d2 / (2.0 * cfg.corr_length**2))
    cov[np.diag_indices_from(cov)] += 1e-10
    chol = np.linalg.cholesky(cov)
    return 1.0 + 0.3 * (chol @ rng.standard_normal(cfg.layout.n_sensors))


def _ar1_path(
    n: int, phi: float, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """Stationary unit-variance AR(1) path(s), shape (n,) or (size, n)."""
    shape = (n,) if size is None else (size, n)
    out = np.empty(shape)
    innov_sd = math.sqrt(1.0 - phi * phi)
    start = rng.standard_normal(shape[:-1] if size is not None else ())
    innov = rng.standard_normal(shape)
    out[..., 0] = start
    for t in range(1, n):
        out[..., t] = phi * out[..., t - 1] + innov_sd * innov[..., t]
    return out


def _sharpen(latent: np.ndarray, edge: float) -> np.ndarray:
    """Squash a unit-scale Gaussian path into plateau-and-ramp structure.

    ``tanh(edge * x)`` saturates the excursions so the series dwells near
    its extremes and transitions quickly between them, mimicking shadow
    edges sweeping a sensor; the output is rescaled to unit sd.  edge = 0
    is the identity.
    """
    if edge <= 0.0:
        return latent
    out = np.tanh(edge * latent)
    return out / max(float(out.std()), 1e-12)


def simulate_field(cfg: FieldSimConfig) -> SpatioTemporalField:
    """Generate a synthetic sensor field.

    Separable mode: Z[s, t] = sd * a_s * g_t + noise, with spatially
    correlated amplitudes a and a shared stationary AR(1) factor g with
    coefficient phi (ramp sharpening is an advective shadow-edge effect and
    is not applied).  The signal's covariance is a product of a spatial and
    a temporal part, and so is the field's between distinct sensors.  At
    spatial lag 0 it is not: the per-sensor noise is AR(1) with
    coefficient 0.5, so each sensor's autocovariance adds a term that decays
    as 0.5**u instead of phi**u, and the product form holds only when phi
    is 0.5.  Advective mode: a stationary Gaussian random
    field (random Fourier modes with squared-exponential spectrum at the
    configured correlation length) is translated across the layout at
    ``velocity`` while each mode's coefficients follow an AR(1) in time;
    the regime's ramp sharpening squashes the advected surface pointwise,
    and per-sensor AR noise is added.  The covariance does not factorize.

    Output timestamps are 0, dt, 2*dt, ...; the field kind is "detrended"
    unless a diurnal component is requested.
    """
    rng = np.random.default_rng(cfg.seed)
    params = REGIME_PARAMS[cfg.regime]
    sd, noise_frac = params["sd"], params["noise_frac"]
    edge = params["edge"]
    phi = cfg.resolved_ar
    S, T = cfg.layout.n_sensors, cfg.n_times

    if cfg.mode == "separable":
        a = _spatial_amplitudes(cfg, rng)
        g = _ar1_path(T, phi, rng)
        signal = sd * np.outer(a, g)
    else:
        step = math.hypot(*cfg.velocity) * cfg.dt_seconds
        if step > 2.0 * cfg.corr_length:
            warnings.warn(
                f"advection step {step:.0f} m exceeds twice the correlation "
                f"length {cfg.corr_length:.0f} m; the field decorrelates "
                "within one time step",
                stacklevel=2,
            )
        M = _N_FOURIER_MODES
        wavevecs = rng.standard_normal((M, 2)) / cfg.corr_length
        coef_cos = _ar1_path(T, phi, rng, size=M)
        coef_sin = _ar1_path(T, phi, rng, size=M)
        t_axis = np.arange(T) * cfg.dt_seconds
        # sensor positions in the frame moving with the clouds
        rel_x = cfg.layout.xy[:, 0][None, :] - cfg.velocity[0] * t_axis[:, None]
        rel_y = cfg.layout.xy[:, 1][None, :] - cfg.velocity[1] * t_axis[:, None]
        signal = np.empty((S, T))
        scale = math.sqrt(2.0 / M)
        for t in range(T):
            phase = wavevecs[:, 0][:, None] * rel_x[t] + wavevecs[:, 1][:, None] * rel_y[t]
            signal[:, t] = scale * (
                coef_cos[:, t] @ np.cos(phase) + coef_sin[:, t] @ np.sin(phase)
            )
        signal = sd * _sharpen(signal, edge)
        env = params["env"]
        if env > 0.0:
            # slow multiplicative envelope, normalized so the long-run
            # marginal sd stays at the regime value
            e = np.exp(env * _ar1_path(T, 0.995, rng))
            e /= math.sqrt(float(np.mean(e * e)))
            signal = signal * e[None, :]

    noise = sd * noise_frac * _ar1_path(T, 0.5, rng, size=S)
    values = signal + noise
    timestamps = np.arange(T) * cfg.dt_seconds

    kind = "detrended"
    if cfg.diurnal_amplitude > 0:
        day = max(timestamps[-1], cfg.dt_seconds)
        bell = np.sin(np.pi * timestamps / day) ** 2
        values = values + cfg.diurnal_amplitude * bell[None, :]
        kind = "raw"

    return SpatioTemporalField(cfg.layout, timestamps, values, kind)

