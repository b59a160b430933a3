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
all of their instants in one vectorised numpy pass (the density minimum as
Viete's trigonometric middle root of the derivative cubic); the
single-instant finders run the same code on one instant. The grid_n
arguments of track_trajectory and exact_zero_times are validated but have
no effect on results.

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
    _check_phase,
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
    times, both float arrays."""

    times: np.ndarray
    positions: np.ndarray
    kind: NodeKind

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

    math.acos on Python floats, not np.arccos: numpy runs its own float64
    arccos kernel where the CPU has AVX-512 and matches libm elsewhere. With
    numpy 2.4.6 on an AVX-512 x86-64 host np.arccos differs from math.acos on
    94,170 of 1e6 uniform v, and on none with those CPU features disabled
    (NPY_DISABLE_CPU_FEATURES), so positions through np.arccos would depend on
    the CPU of the machine that writes them.
    """
    return (cfg.width_a / math.pi) * np.array(list(map(math.acos, v.tolist())), dtype=float)


def _instant(cfg: WellConfig, t: float) -> np.ndarray:
    """A single time as the one-element array the batched helpers take."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t!r}")
    _check_phase(cfg, t)
    return np.array([t])


def _analytic_v(cfg: WellConfig, ratio: float, ts: np.ndarray) -> np.ndarray:
    """v = -A cos(dw t) at every time in ts, NaN where |v| > 1."""
    v = -ratio * np.cos(delta_omega(cfg) * ts)
    return np.where(np.abs(v) > 1.0, np.nan, v)


def _real_part_zero_v(cfg: WellConfig, c1: float, c2: float, ts: np.ndarray) -> np.ndarray:
    """v = -c1 cos(w1 t) / (2 c2 cos(w2 t)) at every time in ts, NaN outside (-1, 1).

    A zero denominator or an overflowing quotient gives +-inf or NaN, which
    the range test rejects.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = -c1 * np.cos(omega(cfg, 1) * ts) / (2.0 * c2 * np.cos(omega(cfg, 2) * ts))
    return np.where((v > -1.0) & (v < 1.0), v, np.nan)


def _density_minimum_v(cfg: WellConfig, state: TwoStateSuperposition,
                       ts: np.ndarray) -> np.ndarray:
    """v = cos(pi x / a) of the interior minimum of |Psi|^2 at each time in ts, or NaN.

    |Psi|^2 = (2/a) f(v) with f(v) = (1 - v^2)(alpha + gamma v + beta v^2),
    alpha = |c1|^2, beta = 4 |c2|^2, gamma = 4 Re(c1 conj(c2) e^{i dw t}); only
    gamma depends on t. f' = -4 beta v^3 - 3 gamma v^2 + 2 (beta - alpha) v +
    gamma falls at both ends, so with three distinct real roots f has a
    maximum, a minimum and a maximum, and with one real root (or a double
    root, an inflection) f has no minimum. With g = gamma/beta, r = alpha/beta
    and v = y - g/4, f' = 0 becomes y^3 + p y + q = 0 with
    p = (r - 1)/2 - 3 g^2/16 and q = g (g^2 - 4 r - 4)/32. Three real roots
    exist exactly when 4p^3 + 27q^2 < 0, that is p < 0 and |u| < 1 with
    u = (3q/(2p)) sqrt(-3/p), and Viete's middle root is
    y = -2 sqrt(-p/3) sin(asin(u)/3). The minimum counts when it lies in
    (-1, 1). Since x -> v is strictly monotone inside the well, it is the
    minimum in x.

    asin runs through np.arcsin, which numpy 2.4.6 evaluates on its own
    kernel where the CPU has AVX-512: on such a host it differs from
    math.asin on 84,206 of 1e6 uniform values, and on none with those CPU
    features disabled (NPY_DISABLE_CPU_FEATURES). So the density-minimum
    positions, unlike the map v -> x in _positions, may differ in their last
    bits between CPUs. It stays: a switch to math.asin would move the gated
    minimum-kind files only on AVX-512 runners, so a declared byte diff
    would be wrong on every other runner.
    """
    # dividing by a power of two is exact and keeps alpha, beta and gamma
    # normal floats at any scale of the state
    c1, c2 = state.c1, state.c2
    scale = 2.0 ** -math.frexp(max(abs(c1.real), abs(c1.imag), abs(c2.real), abs(c2.imag)))[1]
    c1, c2 = c1 * scale, c2 * scale
    alpha, beta = abs(c1) ** 2, 4.0 * abs(c2) ** 2
    if beta == 0.0:
        # pure psi_1: f = alpha (1 - v^2) has its only extremum, a maximum, at v = 0
        return np.full(ts.shape, np.nan)
    cross = c1 * c2.conjugate()
    phase = delta_omega(cfg) * ts
    r = alpha / beta
    # with one real root (p >= 0 or |u| > 1) u or v is NaN, and so it is where
    # r, g or g^2 overflow for beta subnormal against alpha, whose middle root
    # lies far beyond the walls; the mask keeps no NaN
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        g = (4.0 / beta) * (cross.real * np.cos(phase) - cross.imag * np.sin(phase))
        p = 0.5 * (r - 1.0) - 0.1875 * (g * g)
        q = g * (g * g - 4.0 * (r + 1.0)) / 32.0
        u = 1.5 * q / p * np.sqrt(-3.0 / p)
        v = -2.0 * np.sqrt(-p / 3.0) * np.sin(np.arcsin(u) / 3.0) - 0.25 * g
    return np.where((np.abs(u) < 1.0) & (v > -1.0) & (v < 1.0), v, np.nan)


def analytic_node_position(cfg: WellConfig, ratio: float, t: float) -> float | None:
    """Closed-form node position (a/pi) arccos(-A cos(dw t)).

    Uses the principal arccos branch, so the result lies in [0, a]. Returns
    None at instants where |A cos(dw t)| > 1 and the node is off the domain.
    """
    if not math.isfinite(ratio):
        raise ValueError("ratio must be finite")
    x, = _positions(cfg, _analytic_v(cfg, ratio, _instant(cfg, t))).tolist()
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
    x, = _positions(cfg, _real_part_zero_v(cfg, c1, c2, _instant(cfg, t))).tolist()
    return [] if math.isnan(x) else [x]


def find_density_minima(cfg: WellConfig, state: TwoStateSuperposition,
                        t: float) -> list[tuple[float, float]]:
    """Interior local minima of |Psi|^2 at time t, as (position, density) pairs.

    There is at most one: the middle root of the cubic d/dv of the density in
    v = cos(pi x / a), when the cubic has three distinct real roots and that
    one lies in (-1, 1), mapped back through x = (a/pi) arccos(v). Complex
    coefficients are allowed. The walls, where the density always vanishes,
    are never reported.
    """
    x, = _positions(cfg, _density_minimum_v(cfg, state, _instant(cfg, t))).tolist()
    return [] if math.isnan(x) else [(x, float(density_exact(cfg, state, x, float(t))))]


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
    _check_phase(cfg, max(t_start, t_end, key=abs))

    ts = np.linspace(t_start, t_end, n_samples)
    if kind is NodeKind.ANALYTIC:
        v = _analytic_v(cfg, ratio_from_state(state), ts)
    else:
        if grid_n < 16:
            raise ValueError("grid_n too small to isolate nodes")
        if kind is NodeKind.REAL_PART_ZERO:
            v = _real_part_zero_v(cfg, *_require_real(state), ts)
        else:
            v = _density_minimum_v(cfg, state, ts)

    return NodeTrajectory(times=ts, positions=_positions(cfg, v), kind=kind)
