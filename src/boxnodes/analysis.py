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

from .well import TwoStateSuperposition, WellConfig, _count, _modes, _ret, _uniform_times

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
        if _count("count", self.count) < 2:
            raise ValueError("need at least two sweep points")
        if self.spacing not in ("logarithmic", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def values(self) -> np.ndarray:
        """np.geomspace(a_min, a_max, count), or np.linspace if "linear", bit for
        bit by their arithmetic without their call: np.log10 of each end alone, as
        geomspace calls it, evenly spaced, np.power(10.0, .), the exact ends."""
        a_min, a_max = float(self.a_min), float(self.a_max)
        if self.spacing == "linear":
            return _uniform_times(a_min, a_max, self.count)
        ratios = np.power(10.0, _uniform_times(float(np.log10(a_min)),
                                               float(np.log10(a_max)), self.count))
        ratios[0], ratios[-1] = a_min, a_max
        return ratios


@dataclass(frozen=True, eq=False)
class AmplitudeSweep:
    """Oscillation amplitudes of one sweep at its ratios A, both 1-D float
    arrays of one length; any other shapes raise ValueError."""

    ratios: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        ratios = np.asarray(self.ratios, dtype=float)
        amplitudes = np.asarray(self.amplitudes, dtype=float)
        if not (ratios.ndim == amplitudes.ndim == 1 and len(ratios) == len(amplitudes)):
            raise ValueError(f"a sweep needs 1-D ratios and amplitudes of one length, got "
                             f"shapes {ratios.shape} and {amplitudes.shape}")
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def entries(self) -> tuple[tuple[float, float], ...]:
        """One (A, amplitude) pair per ratio; kept while perfbench/ reads it."""
        return tuple(zip(self.ratios.tolist(), self.amplitudes.tolist()))


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
    """Oscillation amplitude at every ratio in the spec.

    SweepSpec keeps every ratio in [a_min, a_max], inside (0, 1]; each
    amplitude is (a/pi) asin A, bit for bit oscillation_amplitude's value
    there. math.asin, not np.arcsin, whose AVX-512 kernel gives other bits
    than libm.
    """
    values = spec.values()
    asin = np.fromiter(map(math.asin, values.tolist()), float, len(values))
    return AmplitudeSweep(ratios=values, amplitudes=cfg.width_a / math.pi * asin)


def fit_power_law(sweep: AmplitudeSweep) -> PowerLawFit:
    """Least-squares power law through a sweep.

    The fit minimises sum (k A**p - y)**2 over the raw amplitudes y, which
    weights the large-amplitude end the way a direct fit to the curve should.
    It solves by variable projection (Golub & Pereyra, SIAM J. Numer. Anal.
    10, 1973): with w = A**p the best coefficient for a fixed exponent is
    k(p) = sum(w y) / sum(w**2) in closed form, which leaves one equation in
    p, F(p) = sum(w y L) sum(w**2) - sum(w y) sum(w**2 L) = 0 with L = log A.
    Newton steps on F, each a few weighted sums, start from the y**2-weighted
    log-log line, the linearised optimum (k A**p - y is about
    y (log(k A**p) - log y)). The solve succeeds in one of two ways: a step
    below 1e-15 of p, or an F below the rounding of its terms. On data far
    from a power law a step is held to at most twice the Gauss-Newton step,
    and a step that would leave the bracket where F changes sign, or whose
    curvature is not finite and negative, bisects the bracket instead. The
    solve fails when it must bisect a bracket that is still open on one
    side, where p leaves the float range, or when 100 passes end without a
    stop, rather than return the p it has reached.

    The fit runs on the amplitudes divided by 2**e, e the binary exponent of
    the largest one, and k is scaled back by the same exact power of two, so
    the result does not drift with the well width. When the largest ratio is
    below 0.5 the ratios are divided likewise by 2**f, and k is scaled back
    by 2**(-f p), so a sweep of tiny ratios keeps w finite; a sweep whose
    largest ratio lies in [0.5, 1] is fitted on its raw ratios. The quoted
    residual is the rms of log(data) - (log k + p log A). A ratio or
    amplitude that is not finite or not positive, ratios so close together
    that the log-log line has no well-defined slope, a failed solve, and a
    solve whose k or residual is not finite raise ValueError. The slope test
    is numpy.polyfit's rank test in closed form: it fails when the smaller
    singular value of the column-scaled [L, 1] is at most n * eps times the
    larger.
    """
    ratios, amps = sweep.ratios, sweep.amplitudes
    if len(ratios) < 3:
        raise ValueError("need at least three points to fit a power law")
    # the extremes the fit needs validate it too: a NaN entry makes them NaN
    r_min, r_max = float(ratios.min()), float(ratios.max())
    y_min, y_max = float(amps.min()), float(amps.max())
    if not (0.0 < r_min and r_max < math.inf and 0.0 < y_min and y_max < math.inf):
        for name, column in (("ratio", ratios), ("amplitude", amps)):
            if not np.isfinite(column).all():
                bad = int(np.flatnonzero(~np.isfinite(column))[0])
                raise ValueError(f"power-law fit needs finite data: entry {bad} "
                                 f"has {name} {float(column[bad])!r}")
        raise ValueError("power-law fit needs strictly positive data")  # finite: some <= 0

    # ldexp by a binary exponent is exact; unlike 2.0**e it has no overflow at e = 1024
    exp2 = math.frexp(y_max)[1]
    scaled = np.ldexp(amps, -exp2)
    exp2_r = math.frexp(r_max)[1] if r_max < 0.5 else 0
    x = ratios if exp2_r == 0 else np.ldexp(ratios, -exp2_r)
    log_r = np.log(x)
    log_y = np.log(amps)  # finite where a scaled amplitude underflows to 0
    n = len(x)
    # F is the same for any origin of L, and loses the fewest digits when the sums
    # a1 and c, which cancel in it, are near zero: the origin is the mean of L under
    # y**2, which w**2 approaches at the optimum
    sq = scaled * scaled
    total = sq.sum()
    origin = float((sq * log_r).sum() / total)
    # the sums a, a1, a2 over w y and b, c, d over w**2 weight each term by 1,
    # L - origin and (L - origin)**2
    weights = np.empty((3, n))
    weights[0] = 1.0
    centred = np.subtract(log_r, origin, out=weights[1])
    np.multiply(centred, centred, out=weights[2])
    # polyfit's rank test: the column-scaled [L, 1] has singular values
    # sqrt(1 +- |cos|), cos the cosine of its columns, whose ratio is
    # sqrt(q) / (1 + |cos|) with q = 1 - cos**2 the spread of L over sum L**2
    _, sum_c, sum_c2 = weights.sum(axis=1).tolist()
    spread = sum_c2 - sum_c * sum_c / n
    sum_l2 = sum_c2 + origin * (2.0 * sum_c + n * origin)
    q = min(spread / sum_l2, 1.0) if spread > 0.0 else 0.0
    if math.sqrt(q) <= n * math.ulp(1.0) * (1.0 + math.sqrt(1.0 - q)):
        raise ValueError(f"the ratios {r_min!r} to {r_max!r} "
                         f"are too close together to fit a power law")
    # the seed: the log-log line weighted by y**2, about the same means
    sq_centred = sq * centred
    den = float((sq_centred * centred).sum())
    log_y_mean = float((sq * log_y).sum() / total)
    # den is 0 when every weight that does not underflow sits on one ratio: start at p = 0
    p = float((sq_centred * (log_y - log_y_mean)).sum()) / den if den > 0.0 else 0.0
    prod = np.empty((2, n))  # w y and w**2
    w_y, w_w = prod
    weighted = np.empty((2, 3, n))
    lo, hi = -math.inf, math.inf  # F > 0 at lo and F < 0 at hi: the optimum lies between
    # an overflow or NaN is not an error here: a step it spoils bisects, and a p it
    # leaves not finite fails at the check below
    with np.errstate(all="ignore"):
        for _ in range(100):  # converges in under 10 steps from the seed
            w = np.power(x, p)
            np.multiply(w, scaled, out=w_y)
            np.multiply(w, w, out=w_w)
            np.multiply(prod[:, None, :], weights, out=weighted)
            (a, a1, a2), (b, c, d) = weighted.sum(axis=2).tolist()
            f = a1 * b - a * c
            if abs(f) <= math.ulp(1.0) * (abs(a1 * b) + abs(a * c)):
                break  # F is rounding noise: no step can tell a better p
            if f > 0.0:
                lo = p
            else:
                hi = p
            # Newton's F' (its last term moves the origin back), capped so that a step
            # is at most twice the Gauss-Newton step, whose curvature
            # -a (b d - c**2) / b is never positive
            curv = min(a2 * b + a1 * c - 2.0 * a * d + 3.0 * origin * f,
                       -0.5 * a * (b * d - c * c) / b)
            tol = 1e-15 * max(abs(p), 1.0)
            # a curvature that is not finite and negative gives no step: bisect instead
            step = p - f / curv if -math.inf < curv < 0.0 else math.nan
            if not (lo < step < hi or abs(step - p) <= tol):
                step = 0.5 * (lo + hi)  # bisect; not finite while the bracket is open
            p, dp = step, abs(step - p)
            if not tol < dp < math.inf:  # converged, or a non-finite p the check below rejects
                break
        else:
            p = math.nan  # no stop in 100 passes: a failure, not the p reached
        k = a / b if b > 0.0 else math.nan
        # k A**p = k 2**shift x**p, with the whole part of shift applied by ldexp
        shift = -exp2_r * p
        try:
            k = math.ldexp(k * 2.0 ** (shift - round(shift)), exp2 + round(shift))
        except (OverflowError, ValueError):  # k past the float range, or p not finite
            k = math.nan
        rms = math.nan
        if 0.0 < k < math.inf:
            resid = log_y - (math.log(k) + p * (log_r if exp2_r == 0 else np.log(ratios)))
            rms = math.sqrt(float((resid * resid).sum()) / n)
    if not math.isfinite(rms):
        raise ValueError("power-law fit did not converge to a usable model")
    return PowerLawFit(coefficient=k, exponent=p, rms_log_residual=rms)


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
    squares = _modes(cfg, x)
    np.square(squares, out=squares)
    p1_sq, p2_sq = squares[0, ...], squares[1, ...]  # 0-d for a scalar x
    p1_sq *= abs(state.c1) ** 2
    p2_sq *= abs(state.c2) ** 2
    return _ret(np.add(p1_sq, p2_sq, out=p1_sq))


def heatmap(cfg: WellConfig, x_count: int, mix_count: int) -> HeatmapGrid:
    """Time-averaged density over a grid of mixing angles theta in [0, pi/2].

    Row i uses the state (c1, c2) = (cos theta_i, sin theta_i), sweeping from
    the pure ground state to the pure first excited state; its average
    density is cos^2 theta_i psi_1^2 + sin^2 theta_i psi_2^2.
    """
    if _count("x_count", x_count) < 8 or _count("mix_count", mix_count) < 8:
        raise ValueError("heatmap grid needs at least 8 points per axis")
    xs = _uniform_times(0.0, cfg.width_a, x_count)
    thetas = _uniform_times(0.0, math.pi / 2.0, mix_count)
    weights = np.empty((2, mix_count))
    np.cos(thetas, out=weights[0])
    np.sin(thetas, out=weights[1])
    np.square(weights, out=weights)
    # cos^2 and sin^2 as columns times psi_1^2 and psi_2^2 as rows
    terms = np.multiply(weights[:, :, None], np.square(_modes(cfg, xs))[:, None, :])
    return HeatmapGrid(x_values=xs, mix_values=thetas, values=np.add(terms[0], terms[1]))
