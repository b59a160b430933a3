"""Aggregate observables of the oscillating node: amplitude scaling, time
averages, and mixing-angle heatmaps.

The interesting control parameter is the amplitude ratio A = c1/(2 c2). The
node x(t) = (a/pi) arccos(-A cos(dw t)) swings between (a/pi) arccos(+-|A|),
so its excursion from the well center is (a/pi) arcsin|A|, and the
reflection x(t) + x(t + T/2) = a puts its time average at a/2. Averaging the
density over a beat period removes the interference term and leaves
|c1|^2 psi_1^2 + |c2|^2 psi_2^2. All of these are evaluated in closed form;
verify measures them independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .well import TwoStateSuperposition, WellConfig, _modes, _ret

__all__ = [
    "SweepSpec",
    "AmplitudeSweep",
    "PowerLawFit",
    "HeatmapGrid",
    "oscillation_amplitude",
    "amplitude_sweep",
    "fit_power_law",
    "time_avg_node_position",
    "time_avg_density",
    "heatmap",
]


@dataclass(frozen=True)
class SweepSpec:
    """Range of ratio values A for an amplitude sweep.

    spacing is "logarithmic" (default) or "linear"; endpoints are included.
    """

    a_min: float
    a_max: float
    count: int
    spacing: str = "logarithmic"

    def __post_init__(self) -> None:
        if not (0.0 < self.a_min < self.a_max <= 1.0):
            raise ValueError("need 0 < a_min < a_max <= 1")
        if self.count < 2:
            raise ValueError("need at least two sweep points")
        if self.spacing not in ("logarithmic", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def values(self) -> np.ndarray:
        if self.spacing == "logarithmic":
            return np.geomspace(self.a_min, self.a_max, self.count)
        return np.linspace(self.a_min, self.a_max, self.count)


@dataclass(frozen=True)
class AmplitudeSweep:
    """Measured (A, oscillation amplitude) pairs of one sweep."""

    entries: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class PowerLawFit:
    """Fit amplitude ~ coefficient * A**exponent with its log-space residual."""

    coefficient: float
    exponent: float
    rms_log_residual: float


@dataclass(frozen=True, eq=False)
class HeatmapGrid:
    """Time-averaged density on a (mixing angle, position) grid.

    values[i, j] is the average density at angle mix_values[i], position
    x_values[j]; each row is itself a normalized density profile.
    """

    x_values: np.ndarray
    mix_values: np.ndarray
    values: np.ndarray


def _check_ratio(ratio: float) -> float:
    ratio = float(ratio)
    if not math.isfinite(ratio):
        raise ValueError("ratio must be finite")
    if abs(ratio) > 1.0:
        raise ValueError("|ratio| > 1: the node leaves the well during the beat")
    return ratio


def oscillation_amplitude(cfg: WellConfig, ratio: float) -> float:
    """Half the peak-to-peak excursion of the node over one beat period.

    x(t) = (a/pi) arccos(-A cos(dw t)) swings by (a/pi) arcsin|A| about a/2,
    evaluated as such: the extrema (a/pi) arccos(+-|A|), near a/2, would
    cancel all digits of a small |A|.
    """
    return cfg.width_a / math.pi * math.asin(abs(_check_ratio(ratio)))


def amplitude_sweep(cfg: WellConfig, spec: SweepSpec) -> AmplitudeSweep:
    """Oscillation amplitude at every ratio in the spec."""
    entries = tuple((float(A), oscillation_amplitude(cfg, float(A))) for A in spec.values())
    return AmplitudeSweep(entries=entries)


def fit_power_law(sweep: AmplitudeSweep) -> PowerLawFit:
    """Least-squares power law through a sweep.

    A log-log ordinary least squares line seeds Gauss-Newton iterations for
    k * A**p against the raw amplitudes, which weights the large-amplitude
    end the way a direct fit to the curve should. The fit runs on the
    amplitudes divided by 2**e, e the binary exponent of the largest one, and
    k is scaled back by the same exact power of two, so the result does not
    drift with the well width. When the largest ratio is below 0.5 the ratios
    are divided likewise by 2**f, and k is scaled back by 2**(-f p), so a
    sweep of tiny ratios keeps its log-log seed finite; a sweep whose largest
    ratio lies in [0.5, 1] is fitted on its raw ratios. The quoted residual
    is the rms of log(data) - log(fit) on the raw amplitudes. Ratios so close
    together that the log-log line has no well-defined slope (polyfit's rank
    test) raise ValueError.
    """
    entries = np.asarray(sweep.entries, dtype=float)
    if entries.shape[0] < 3:
        raise ValueError("need at least three points to fit a power law")
    ratios = entries[:, 0]
    amps = entries[:, 1]
    if np.any(ratios <= 0.0) or np.any(amps <= 0.0):
        raise ValueError("power-law fit needs strictly positive data")

    # ldexp by a binary exponent is exact; unlike 2.0**e it has no overflow at e = 1024
    exp2 = math.frexp(float(amps.max()))[1]
    scaled = np.ldexp(amps, -exp2)
    r_max = float(ratios.max())
    exp2_r = math.frexp(r_max)[1] if r_max < 0.5 else 0
    x = np.ldexp(ratios, -exp2_r)
    log_r = np.log(x)
    # full=True returns polyfit's rank instead of warning on a deficient one
    (p, log_k), _, rank, _, _ = np.polyfit(log_r, np.log(scaled), 1, full=True)
    if rank < 2:
        raise ValueError(f"the ratios {float(ratios.min())!r} to {float(ratios.max())!r} "
                         f"are too close together to fit a power law")
    k = math.exp(log_k)
    for _ in range(100):  # converges in under 20 steps from the log-log seed
        model = k * np.power(x, p)
        jac = np.column_stack([model / k, model * log_r])
        (dk, dp), *_ = np.linalg.lstsq(jac, scaled - model, rcond=None)
        k, p = float(k + dk), float(p + dp)
        if abs(dk) <= 1e-15 * abs(k) and abs(dp) <= 1e-15 * max(abs(p), 1.0):
            break
    if not (k > 0.0 and math.isfinite(k) and math.isfinite(p)):
        raise ValueError("power-law fit did not converge to a usable model")
    # k A**p = k 2**(-exp2_r p) x**p, with the whole part of the exponent applied by ldexp
    shift = -exp2_r * p
    k = math.ldexp(k * 2.0 ** (shift - round(shift)), exp2 + round(shift))
    resid = np.log(amps) - np.log(k * np.power(ratios, p))
    return PowerLawFit(coefficient=k, exponent=p,
                       rms_log_residual=float(np.sqrt(np.mean(resid**2))))


def time_avg_node_position(cfg: WellConfig, ratio: float) -> float:
    """Node position averaged over one beat period: exactly a/2.

    The reflection x(t) + x(t + T/2) = a pairs every instant with one half a
    period later.
    """
    _check_ratio(ratio)
    return 0.5 * cfg.width_a


def time_avg_density(cfg: WellConfig, state: TwoStateSuperposition, x):
    """|Psi|^2 averaged over one beat period at position(s) x.

    The interference term oscillates at dw and averages to zero, which leaves
    |c1|^2 psi_1(x)^2 + |c2|^2 psi_2(x)^2.
    """
    p1, p2 = _modes(cfg, x)
    return _ret(abs(state.c1) ** 2 * p1**2 + abs(state.c2) ** 2 * p2**2)


def heatmap(cfg: WellConfig, x_count: int, mix_count: int) -> HeatmapGrid:
    """Time-averaged density over a grid of mixing angles theta in [0, pi/2].

    Row i uses the state (c1, c2) = (cos theta_i, sin theta_i), sweeping from
    the pure ground state to the pure first excited state; its average
    density is cos^2 theta_i psi_1^2 + sin^2 theta_i psi_2^2.
    """
    if x_count < 8 or mix_count < 8:
        raise ValueError("heatmap grid needs at least 8 points per axis")
    xs = np.linspace(0.0, cfg.width_a, x_count)
    thetas = np.linspace(0.0, math.pi / 2.0, mix_count)
    p1, p2 = _modes(cfg, xs)
    values = np.outer(np.cos(thetas) ** 2, p1**2) + np.outer(np.sin(thetas) ** 2, p2**2)
    return HeatmapGrid(x_values=xs, mix_values=thetas, values=values)
