"""Locating and tracking the moving quasi-node of a two-state superposition.

A superposition of the two lowest well states has a near-zero of |Psi|^2 that
oscillates once per beat period. Three operational definitions of "the node"
are implemented and can be compared:

* analytic-formula: x(t) = (a/pi) arccos(-A cos(dw t)) with A = c1/(2 c2),
  valid for real coefficients; absent whenever |A cos(dw t)| > 1.
* real-part-zero: interior zeros of Re Psi(x, t).
* density-minimum: interior local minima of |Psi|^2.

Since psi_2 = 2 v psi_1 with v = cos(pi x / a), Re Psi is linear in v and
|Psi|^2 is (2/a)(1 - v^2) times a quadratic in v: the finders solve for v in
closed form and map back through x = (a/pi) arccos(v). Trajectories solve
all of their instants in one vectorised numpy pass (the density cubics of all
instants as one stacked eigenvalue problem); the single-instant finders run
the same code on one instant. The grid_n arguments of track_trajectory and
exact_zero_times are validated but have no effect on results.

True zeros of the complex wavefunction are rarer. For real coefficients they
need c1 + 2 c2 v e^{-i dw t} = 0, so they exist only where sin(dw t) = 0, and
only for 0 < |A| < 1 or c1 = 0; exact_zero_times lists them by that formula.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .well import (
    TwoStateSuperposition,
    WellConfig,
    beat_period,
    delta_omega,
    density_exact,
    omega,
)

__all__ = [
    "NodeKind",
    "NodeSample",
    "NodeTrajectory",
    "ratio_from_state",
    "analytic_node_position",
    "find_real_part_zeros",
    "find_density_minima",
    "exact_zero_times",
    "track_trajectory",
]

# fraction of |c| that the imaginary part may reach before a coefficient
# stops counting as real
_REAL_TOL = 1e-14


class NodeKind(str, Enum):
    ANALYTIC = "analytic-formula"
    REAL_PART_ZERO = "real-part-zero"
    DENSITY_MINIMUM = "density-minimum"


@dataclass(frozen=True)
class NodeSample:
    """Node position at one instant; position is None when no node exists."""

    t: float
    position: float | None


@dataclass(frozen=True, eq=False)
class NodeTrajectory:
    """Node positions (NaN where no node exists) of one state at the instants
    times, both float arrays, plus the ratio A when defined."""

    times: np.ndarray
    positions: np.ndarray
    config: WellConfig
    state: TwoStateSuperposition
    kind: NodeKind
    ratio: float | None

    @property
    def samples(self) -> tuple[NodeSample, ...]:
        """One NodeSample per instant, None for NaN; kept while perfbench/ reads it."""
        return tuple(NodeSample(t, None if math.isnan(x) else x)
                     for t, x in zip(self.times.tolist(), self.positions.tolist()))


def _require_real(state: TwoStateSuperposition) -> tuple[float, float]:
    for label, c in (("c1", state.c1), ("c2", state.c2)):
        if abs(c.imag) > _REAL_TOL * abs(c):
            raise ValueError(f"{label} must be real for this operation, got {c!r}")
    return state.c1.real, state.c2.real


def ratio_from_state(state: TwoStateSuperposition) -> float:
    """Amplitude ratio A = c1 / (2 c2) for a real-coefficient state.

    Raises ValueError for complex coefficients or c2 = 0 (no finite ratio).
    """
    c1, c2 = _require_real(state)
    if c2 == 0.0:
        raise ValueError("degenerate ratio: c2 = 0")
    ratio = c1 / (2.0 * c2)
    if not math.isfinite(ratio):
        raise ValueError(f"ratio overflow for c1={c1!r}, c2={c2!r}")
    return ratio


def _positions(cfg: WellConfig, v: np.ndarray) -> np.ndarray:
    """Map v = cos(pi x / a) back to x = (a/pi) arccos(v); NaN stays NaN.

    math.acos on Python floats, not np.arccos, which can differ from it by an
    ulp depending on the numpy build; written positions stay byte-stable.
    """
    return (cfg.width_a / math.pi) * np.array(list(map(math.acos, v.tolist())), dtype=float)


def _instant(t: float) -> np.ndarray:
    """A single time as the one-element array the batched helpers take."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t!r}")
    return np.array([t])


def _analytic_v(cfg: WellConfig, ratio: float, ts: np.ndarray) -> np.ndarray:
    """v = -A cos(dw t) at every time in ts, NaN where |v| > 1."""
    v = -ratio * np.cos(delta_omega(cfg) * ts)
    return np.where(np.abs(v) > 1.0, np.nan, v)


def _real_part_zero_v(cfg: WellConfig, c1: float, c2: float, ts: np.ndarray) -> np.ndarray:
    """v = -c1 cos(w1 t) / (2 c2 cos(w2 t)) at every time in ts, NaN outside (-1, 1).

    A zero denominator gives +-inf or NaN, which the range test rejects.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        v = -c1 * np.cos(omega(cfg, 1) * ts) / (2.0 * c2 * np.cos(omega(cfg, 2) * ts))
    return np.where((v > -1.0) & (v < 1.0), v, np.nan)


def _density_extrema(cfg: WellConfig, state: TwoStateSuperposition,
                     ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior extrema of |Psi|^2 at every time in ts, in the variable v = cos(pi x / a).

    |Psi|^2 = (2/a) f(v) with f(v) = (1 - v^2)(alpha + gamma v + beta v^2),
    alpha = |c1|^2, beta = 4 |c2|^2, gamma = 4 Re(c1 conj(c2) e^{i dw t}); only
    gamma depends on t. The extrema are the real roots in (-1, 1) of the cubic
    f'(v), found for all instants at once as the eigenvalues of stacked 3x3
    companion matrices (what np.roots does for one polynomial), and split by
    the sign of f''. Returns (v, curvature) of shape (len(ts), 3): roots
    sorted ascending with NaN in place of rejected ones, and f''(v).
    Since x -> v is strictly monotone inside the well, extrema in v are
    extrema in x.
    """
    alpha, beta = abs(state.c1) ** 2, 4.0 * abs(state.c2) ** 2
    if beta == 0.0:
        # pure psi_1: f = alpha (1 - v^2) has one extremum, a maximum at v = 0
        v = np.full((ts.size, 3), np.nan)
        v[:, 0] = 0.0
        return v, 0.0 * v - 2.0 * alpha
    cross = state.c1 * state.c2.conjugate()
    phase = delta_omega(cfg) * ts
    gamma = (4.0 * (cross.real * np.cos(phase) - cross.imag * np.sin(phase)))[:, None]
    # f' = d0 v^3 + d1 v^2 + d2 v + d3, with the coefficients of np.polyder(f)
    d0, d1, d2, d3 = -beta * 4.0, -gamma * 3.0, (beta - alpha) * 2.0, gamma
    companion = np.zeros((ts.size, 3, 3))
    companion[:, 0, 0] = -d1[:, 0] / d0
    companion[:, 0, 1] = -d2 / d0
    companion[:, 0, 2] = -d3[:, 0] / d0
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    v = np.where(roots.imag == 0.0, roots.real, np.nan)
    v.sort(axis=1)
    # A double root of f' (an inflection of f, e.g. a zero of |Psi|^2 that
    # reaches a wall) comes out as two real roots ~1e-8 apart or as a complex
    # pair; either way it is not an extremum.
    close = np.diff(v, axis=1) < 1e-6
    drop = ~((v > -1.0) & (v < 1.0))
    drop[:, 1:] |= close
    drop[:, :-1] |= close
    v[drop] = np.nan
    curvature = (d0 * 3.0 * v + d1 * 2.0) * v + d2
    return v, curvature


def analytic_node_position(cfg: WellConfig, ratio: float, t: float) -> float | None:
    """Closed-form node position (a/pi) arccos(-A cos(dw t)).

    Uses the principal arccos branch, so the result lies in [0, a]. Returns
    None at instants where |A cos(dw t)| > 1 and the node is off the domain.
    """
    if not math.isfinite(ratio):
        raise ValueError("ratio must be finite")
    x, = _positions(cfg, _analytic_v(cfg, ratio, _instant(t))).tolist()
    return None if math.isnan(x) else x


def find_real_part_zeros(cfg: WellConfig, state: TwoStateSuperposition,
                         t: float) -> list[float]:
    """Interior zeros of Re Psi(x, t) for a real-coefficient state.

    Re Psi = sqrt(2/a) sin(pi x / a) [c1 cos(w1 t) + 2 c2 cos(w2 t) v] with
    v = cos(pi x / a), so the only interior zero sits at v = -c1 cos(w1 t) /
    (2 c2 cos(w2 t)) when that lies in (-1, 1). Wall zeros are structural and
    are not reported. At instants where 2 c2 cos(w2 t) = 0, Re Psi either
    vanishes identically (no isolated zeros) or has no interior zero, and the
    list is empty.
    """
    c1, c2 = _require_real(state)
    x, = _positions(cfg, _real_part_zero_v(cfg, c1, c2, _instant(t))).tolist()
    return [] if math.isnan(x) else [x]


def find_density_minima(cfg: WellConfig, state: TwoStateSuperposition,
                        t: float) -> list[tuple[float, float]]:
    """Interior local minima of |Psi|^2 at time t, as (position, density) pairs.

    The minima are the roots in (-1, 1) of the cubic d/dv of the density in
    v = cos(pi x / a) with positive curvature, mapped back through
    x = (a/pi) arccos(v); complex coefficients are allowed. The walls, where
    the density always vanishes, are never reported.
    """
    v, curvature = _density_extrema(cfg, state, _instant(t))
    xs = sorted(_positions(cfg, v[0][curvature[0] > 0.0]).tolist())
    return [(x, float(density_exact(cfg, state, x, float(t)))) for x in xs]


def exact_zero_times(cfg: WellConfig, state: TwoStateSuperposition, period_count: int = 1,
                     grid_n: int = 1024, samples_per_period: int = 512) -> list[float]:
    """Times in [0, period_count * T] at which |Psi|^2 has a genuine interior zero.

    The coefficients must be real. A zero needs c1 + 2 c2 v e^{-i dw t} = 0
    with v = cos(pi x / a) in (-1, 1). For c1 = 0 (pure psi_2) the node at a/2
    is permanent, and the samples_per_period instants per period are returned.
    For 0 < |A| < 1, A = c1 / (2 c2), the zeros are the instants k T/2, where
    sin(dw t) = 0. Otherwise the list is empty: at |A| = 1 the zero touches a
    wall, which is not interior. grid_n is validated but has no effect.
    """
    c1, c2 = _require_real(state)
    if period_count < 1:
        raise ValueError("period_count must be at least 1")
    if grid_n < 16 or samples_per_period < 16:
        raise ValueError("scan resolution too small")
    T = beat_period(cfg)
    if c1 == 0.0:
        return np.linspace(0.0, period_count * T,
                           period_count * samples_per_period + 1).tolist()
    if abs(c1) < 2.0 * abs(c2):
        return [k * 0.5 * T for k in range(2 * period_count + 1)]
    return []


def track_trajectory(cfg: WellConfig, state: TwoStateSuperposition, kind: NodeKind,
                     t_start: float, t_end: float, n_samples: int,
                     grid_n: int = 2048) -> NodeTrajectory:
    """Sample the node position on a uniform time grid.

    kind selects among analytic-formula, real-part-zero and density-minimum;
    true zeros are isolated events in time, not a trackable curve, and are
    listed by exact_zero_times. Every kind has at most one node per instant, so
    the samples form a single curve without any continuity rule: Re Psi is
    linear in v, and |Psi|^2 >= 0 vanishes at both walls, so its interior
    critical points are one maximum or maximum, minimum, maximum. All
    instants are solved in one vectorised pass, by the same helpers as the
    single-instant finders, so every position equals what those return at
    its instant (NaN where they return None or an empty list). grid_n is
    validated for the numeric kinds but has no effect.
    """
    kind = NodeKind(kind)
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ValueError("need finite t_start < t_end")
    if n_samples < 2:
        raise ValueError("need at least two samples")

    ratio: float | None
    ts = np.linspace(t_start, t_end, n_samples)
    if kind is NodeKind.ANALYTIC:
        ratio = ratio_from_state(state)  # propagate the error: formula needs A
        v = _analytic_v(cfg, ratio, ts)
    else:
        if grid_n < 16:
            raise ValueError("grid_n too small to isolate nodes")
        try:
            ratio = ratio_from_state(state)
        except ValueError:
            ratio = None
        if kind is NodeKind.REAL_PART_ZERO:
            v = _real_part_zero_v(cfg, *_require_real(state), ts)
        else:
            # the minimum nearest x = 0 (largest v), as find_density_minima(...)[0]
            vs, curvature = _density_extrema(cfg, state, ts)
            v = np.fmax.reduce(np.where(curvature > 0.0, vs, np.nan), axis=1)

    return NodeTrajectory(times=ts, positions=_positions(cfg, v), config=cfg,
                          state=state, kind=kind, ratio=ratio)
