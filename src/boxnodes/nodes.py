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
closed form and map back through x = (a/pi) arccos(v).

True zeros of the complex wavefunction are rarer. For real coefficients they
exist only at instants with sin(dw t) = 0; exact_zero_times lists them.
"""
from __future__ import annotations

import cmath
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
    TRUE_ZERO = "true-zero"


@dataclass(frozen=True)
class NodeSample:
    """Node position at one instant; position is None when no node exists."""

    t: float
    position: float | None
    kind: NodeKind


@dataclass(frozen=True)
class NodeTrajectory:
    """A sequence of node samples for one state, plus the ratio A when defined."""

    samples: tuple[NodeSample, ...]
    config: WellConfig
    state: TwoStateSuperposition
    kind: NodeKind
    ratio: float | None

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def positions(self) -> np.ndarray:
        """Positions as an array with NaN standing in for absent samples."""
        return np.array(
            [math.nan if s.position is None else s.position for s in self.samples]
        )


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


def analytic_node_position(cfg: WellConfig, ratio: float, t: float) -> float | None:
    """Closed-form node position (a/pi) arccos(-A cos(dw t)).

    Uses the principal arccos branch, so the result lies in [0, a]. Returns
    None at instants where |A cos(dw t)| > 1 and the node is off the domain.
    """
    if not math.isfinite(ratio):
        raise ValueError("ratio must be finite")
    u = -ratio * math.cos(delta_omega(cfg) * t)
    if abs(u) > 1.0:
        return None
    return cfg.width_a / math.pi * math.acos(u)


def find_real_part_zeros(cfg: WellConfig, state: TwoStateSuperposition, t: float,
                         grid_n: int = 2048) -> list[float]:
    """Interior zeros of Re Psi(x, t) for a real-coefficient state.

    Re Psi = sqrt(2/a) sin(pi x / a) [c1 cos(w1 t) + 2 c2 cos(w2 t) v] with
    v = cos(pi x / a), so the only interior zero sits at v = -c1 cos(w1 t) /
    (2 c2 cos(w2 t)) when that lies in (-1, 1). Wall zeros are structural and
    are not reported. At instants where 2 c2 cos(w2 t) = 0, Re Psi either
    vanishes identically (no isolated zeros) or has no interior zero, and the
    list is empty. grid_n is validated but no longer affects the result.
    """
    c1, c2 = _require_real(state)
    if grid_n < 16:
        raise ValueError("grid_n too small to isolate zeros")
    t = float(t)
    q = 2.0 * c2 * math.cos(omega(cfg, 2) * t)
    if q == 0.0:
        return []
    v = -c1 * math.cos(omega(cfg, 1) * t) / q
    if not -1.0 < v < 1.0:
        return []
    return [cfg.width_a / math.pi * math.acos(v)]


def _density_extrema(cfg: WellConfig, state: TwoStateSuperposition,
                     t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior extrema of |Psi|^2 at time t, in the variable v = cos(pi x / a).

    |Psi|^2 = (2/a) f(v) with f(v) = (1 - v^2)(alpha + gamma v + beta v^2),
    alpha = |c1|^2, beta = 4 |c2|^2, gamma = 4 Re(c1 conj(c2) e^{i dw t}).
    Returns (v_min, v_max, f): the real roots of f' in (-1, 1) split by the
    sign of f'', and the coefficients of f for np.polyval. Since x -> v is
    strictly monotone inside the well, extrema in v are extrema in x.
    """
    cross = state.c1 * state.c2.conjugate() * cmath.exp(1j * delta_omega(cfg) * t)
    alpha, beta, gamma = abs(state.c1) ** 2, 4.0 * abs(state.c2) ** 2, 4.0 * cross.real
    f = np.array([-beta, -gamma, beta - alpha, gamma, alpha])
    df = np.polyder(f)
    roots = np.roots(df)
    v = np.sort(roots[roots.imag == 0.0].real)
    # A double root of f' (an inflection of f, e.g. a zero of |Psi|^2 that
    # reaches a wall) comes out of np.roots as two real roots ~1e-8 apart or
    # as a complex pair; either way it is not an extremum.
    close = np.diff(v) < 1e-6
    v = v[~(np.append(close, False) | np.insert(close, 0, False))]
    v = v[(v > -1.0) & (v < 1.0)]
    curvature = np.polyval(np.polyder(df), v)
    return v[curvature > 0.0], v[curvature < 0.0], f


def find_density_minima(cfg: WellConfig, state: TwoStateSuperposition, t: float,
                        grid_n: int = 2048) -> list[tuple[float, float]]:
    """Interior local minima of |Psi|^2 at time t, as (position, density) pairs.

    The minima are the roots in (-1, 1) of the cubic d/dv of the density in
    v = cos(pi x / a) with positive curvature, mapped back through
    x = (a/pi) arccos(v); complex coefficients are allowed. The walls, where
    the density always vanishes, are never reported. grid_n is validated but
    no longer affects the result.
    """
    if grid_n < 16:
        raise ValueError("grid_n too small to isolate minima")
    t = float(t)
    v_min, _, _ = _density_extrema(cfg, state, t)
    xs = sorted(cfg.width_a / math.pi * math.acos(float(v)) for v in v_min)
    return [(x, float(density_exact(cfg, state, x, t))) for x in xs]


def exact_zero_times(cfg: WellConfig, state: TwoStateSuperposition, period_count: int = 1,
                     grid_n: int = 1024, samples_per_period: int = 512,
                     rel_threshold: float = 1e-10) -> list[float]:
    """Times in [0, period_count * T] at which |Psi|^2 has a genuine interior zero.

    The coefficients must be real. A sampled time (samples_per_period per
    beat period) qualifies when the deepest interior density minimum is at
    most rel_threshold of the highest interior maximum; this is how the
    permanent node of pure psi_2 shows up at every sample. For 0 < |A| < 1,
    A = c1/(2 c2), the zeros at t = k T/2 are added exactly, so they are
    found whatever the sampling. For |A| >= 1 the list is empty: at |A| = 1
    the zero touches a wall, which is not an interior zero. grid_n is
    validated but no longer affects the result.
    """
    c1, c2 = _require_real(state)
    if period_count < 1:
        raise ValueError("period_count must be at least 1")
    if grid_n < 16 or samples_per_period < 16:
        raise ValueError("scan resolution too small")
    T = beat_period(cfg)

    times = []
    for t in np.linspace(0.0, period_count * T, period_count * samples_per_period + 1):
        v_min, v_max, f = _density_extrema(cfg, state, float(t))
        if v_min.size and v_max.size and \
                np.polyval(f, v_min).min() <= rel_threshold * np.polyval(f, v_max).max():
            times.append(float(t))
    if c1 != 0.0 and abs(c1) < 2.0 * abs(c2):
        times.extend(k * 0.5 * T for k in range(2 * period_count + 1))
    times.sort()

    deduped: list[float] = []
    for t in times:
        if not deduped or t - deduped[-1] > 1e-9 * T:
            deduped.append(t)
    return deduped


def track_trajectory(cfg: WellConfig, state: TwoStateSuperposition, kind: NodeKind,
                     t_start: float, t_end: float, n_samples: int,
                     grid_n: int = 2048) -> NodeTrajectory:
    """Sample the node position on a uniform time grid.

    kind selects among analytic-formula, real-part-zero and density-minimum;
    true zeros are isolated events in time, not a trackable curve, so that
    kind is rejected here. Every kind has at most one node per instant, so
    the samples form a single curve without any continuity rule: Re Psi is
    linear in v, and |Psi|^2 >= 0 vanishes at both walls, so its interior
    critical points are one maximum or maximum, minimum, maximum. grid_n is
    passed to the finders, which validate it but no longer depend on it.
    """
    kind = NodeKind(kind)
    if kind is NodeKind.TRUE_ZERO:
        raise ValueError("true-zero events are found by exact_zero_times, not tracked")
    if not t_end > t_start:
        raise ValueError("need t_end > t_start")
    if n_samples < 2:
        raise ValueError("need at least two samples")

    ratio: float | None
    if kind is NodeKind.ANALYTIC:
        ratio = ratio_from_state(state)  # propagate the error: formula needs A
    else:
        try:
            ratio = ratio_from_state(state)
        except ValueError:
            ratio = None

    samples: list[NodeSample] = []
    for t in np.linspace(t_start, t_end, n_samples):
        t = float(t)
        if kind is NodeKind.ANALYTIC:
            pos = analytic_node_position(cfg, ratio, t)
        elif kind is NodeKind.REAL_PART_ZERO:
            zeros = find_real_part_zeros(cfg, state, t, grid_n)
            pos = zeros[0] if zeros else None
        else:
            minima = find_density_minima(cfg, state, t, grid_n)
            pos = minima[0][0] if minima else None
        samples.append(NodeSample(t=t, position=pos, kind=kind))
    return NodeTrajectory(samples=tuple(samples), config=cfg, state=state,
                          kind=kind, ratio=ratio)
