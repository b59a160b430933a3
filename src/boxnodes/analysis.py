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

from .well import TwoStateSuperposition, WellConfig, eigenfunction, _ret

__all__ = [
    "SweepSpec",
    "AmplitudeSweep",
    "PowerLawFit",
    "HeatmapGrid",
    "oscillation_extrema",
    "oscillation_amplitude",
    "amplitude_sweep",
    "fit_power_law",
    "time_avg_node_position",
    "time_avg_density",
    "heatmap",
    "local_max_positions",
    "peak_separation",
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
    """Measured (A, oscillation amplitude) pairs for one spec."""

    entries: tuple[tuple[float, float], ...]
    spec: SweepSpec


@dataclass(frozen=True)
class PowerLawFit:
    """Fit amplitude ~ coefficient * A**exponent with its log-space residual."""

    coefficient: float
    exponent: float
    rms_log_residual: float

    def predict(self, ratio):
        return self.coefficient * np.power(np.asarray(ratio, dtype=float), self.exponent)


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


def oscillation_extrema(cfg: WellConfig, ratio: float) -> tuple[float, float]:
    """Minimum and maximum of the analytic node position over one beat period.

    As cos(dw t) runs over [-1, 1], x(t) = (a/pi) arccos(-A cos(dw t)) runs
    between (a/pi) arccos(|A|) and (a/pi) arccos(-|A|).
    """
    ratio = abs(_check_ratio(ratio))
    scale = cfg.width_a / math.pi
    return scale * math.acos(ratio), scale * math.acos(-ratio)


def oscillation_amplitude(cfg: WellConfig, ratio: float) -> float:
    """Half the peak-to-peak excursion of the node over one beat period."""
    lo, hi = oscillation_extrema(cfg, ratio)
    return 0.5 * (hi - lo)


def amplitude_sweep(cfg: WellConfig, spec: SweepSpec) -> AmplitudeSweep:
    """Oscillation amplitude at every ratio in the spec."""
    entries = tuple((float(A), oscillation_amplitude(cfg, float(A))) for A in spec.values())
    return AmplitudeSweep(entries=entries, spec=spec)


def fit_power_law(sweep: AmplitudeSweep) -> PowerLawFit:
    """Least-squares power law through a sweep.

    A log-log ordinary least squares line seeds Gauss-Newton iterations for
    k * A**p against the raw amplitudes, which weights the large-amplitude
    end the way a direct fit to the curve should. The quoted residual is the
    rms of log(data) - log(fit).
    """
    entries = np.asarray(sweep.entries, dtype=float)
    if entries.shape[0] < 3:
        raise ValueError("need at least three points to fit a power law")
    ratios = entries[:, 0]
    amps = entries[:, 1]
    if np.any(ratios <= 0.0) or np.any(amps <= 0.0):
        raise ValueError("power-law fit needs strictly positive data")

    log_r = np.log(ratios)
    p, log_k = np.polyfit(log_r, np.log(amps), 1)
    k = math.exp(log_k)
    for _ in range(100):  # converges in under 20 steps from the log-log seed
        model = k * np.power(ratios, p)
        jac = np.column_stack([model / k, model * log_r])
        (dk, dp), *_ = np.linalg.lstsq(jac, amps - model, rcond=None)
        k, p = float(k + dk), float(p + dp)
        if abs(dk) <= 1e-15 * abs(k) and abs(dp) <= 1e-15 * max(abs(p), 1.0):
            break
    if not (k > 0.0 and math.isfinite(k) and math.isfinite(p)):
        raise ValueError("power-law fit did not converge to a usable model")
    resid = np.log(amps) - np.log(k * np.power(ratios, p))
    return PowerLawFit(coefficient=k, exponent=p,
                       rms_log_residual=float(np.sqrt(np.mean(resid**2))))


def time_avg_node_position(cfg: WellConfig, ratio: float, n_samples: int = 1024) -> float:
    """Node position averaged over one beat period: exactly a/2.

    The reflection x(t) + x(t + T/2) = a pairs every instant with one half a
    period later. n_samples is still checked (even, at least 2) but no
    longer affects the result.
    """
    _check_ratio(ratio)
    if n_samples < 2 or n_samples % 2:
        raise ValueError("n_samples must be even and at least 2")
    return 0.5 * cfg.width_a


def time_avg_density(cfg: WellConfig, state: TwoStateSuperposition, x,
                     n_samples: int = 1024):
    """|Psi|^2 averaged over one beat period at position(s) x.

    The interference term oscillates at dw and averages to zero, which leaves
    |c1|^2 psi_1(x)^2 + |c2|^2 psi_2(x)^2. n_samples is still checked (at
    least 2) but no longer affects the result.
    """
    if n_samples < 2:
        raise ValueError("need at least two time samples")
    p1 = np.asarray(eigenfunction(cfg, 1, x))
    p2 = np.asarray(eigenfunction(cfg, 2, x))
    return _ret(abs(state.c1) ** 2 * p1**2 + abs(state.c2) ** 2 * p2**2)


def heatmap(cfg: WellConfig, x_count: int, mix_count: int,
            n_samples: int = 1024) -> HeatmapGrid:
    """Time-averaged density over a grid of mixing angles theta in [0, pi/2].

    Row i uses the state (c1, c2) = (cos theta_i, sin theta_i), sweeping from
    the pure ground state to the pure first excited state; its average
    density is cos^2 theta_i psi_1^2 + sin^2 theta_i psi_2^2. n_samples is
    still checked (at least 2) but no longer affects the result.
    """
    if x_count < 8 or mix_count < 8:
        raise ValueError("heatmap grid needs at least 8 points per axis")
    if n_samples < 2:
        raise ValueError("need at least two time samples")
    xs = np.linspace(0.0, cfg.width_a, x_count)
    thetas = np.linspace(0.0, math.pi / 2.0, mix_count)
    p1 = np.asarray(eigenfunction(cfg, 1, xs))
    p2 = np.asarray(eigenfunction(cfg, 2, xs))
    values = np.outer(np.cos(thetas) ** 2, p1**2) + np.outer(np.sin(thetas) ** 2, p2**2)
    return HeatmapGrid(x_values=xs, mix_values=thetas, values=values)


def local_max_positions(x_values, row) -> list[float]:
    """Positions of interior local maxima of a sampled profile.

    Assumes uniform x spacing. Isolated peaks are sharpened by a three-point
    parabolic fit; plateaus of equal values report their midpoint. Boundary
    samples never count as peaks.
    """
    x = np.asarray(x_values, dtype=float)
    y = np.asarray(row, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 3:
        raise ValueError("need matching 1-d arrays with at least 3 samples")
    h = x[1] - x[0]
    peaks: list[float] = []
    i = 1
    while i < y.size - 1:
        j = i
        while j + 1 < y.size and y[j + 1] == y[i]:
            j += 1
        if j < y.size - 1 and y[i] > y[i - 1] and y[j] > y[j + 1]:
            if i == j:
                denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
                off = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom != 0.0 else 0.0
                peaks.append(float(x[i] + off * h))
            else:
                peaks.append(float(0.5 * (x[i] + x[j])))
        i = j + 1
    return peaks


def peak_separation(x_values, row) -> float:
    """Distance between the outermost local maxima; 0.0 for a single peak."""
    peaks = local_max_positions(x_values, row)
    if len(peaks) < 2:
        return 0.0
    return max(peaks) - min(peaks)
