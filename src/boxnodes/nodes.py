"""Locating and tracking the moving quasi-node of a two-state superposition.

A superposition of the two lowest well states has a near-zero of |Psi|^2 that
oscillates once per beat period. Three operational definitions of "the node"
are implemented and can be compared:

* analytic-formula: x(t) = (a/pi) arccos(-A cos(dw t)) with A = c1/(2 c2),
  valid for real coefficients; absent whenever |A cos(dw t)| > 1.
* real-part-zero: interior zeros of Re Psi(x, t).
* density-minimum: interior local minima of |Psi|^2.

Since psi_2 = 2 v psi_1 with v = cos(pi x / a), Re Psi is linear in v and
|Psi|^2 is (8 |c2|^2 / a)(1 - v^2)(r + g v + v^2), so its minimum reads the
state only through r = |A|^2 and g = 2 Re(A e^{i dw t}) for the complex
A = c1 / (2 c2): the finders solve for v in closed form and map back
through x = (a/pi) arccos(v). Trajectories solve all of their instants in
one vectorised numpy pass (the density minimum as Viete's trigonometric
middle root of the derivative cubic, with np.arcsin, and without the
sin(dw t) term for a real A); node_position(cfg, state, kind, t) runs the
same code on one instant and returns None where a trajectory holds NaN: no
node at that instant. A trajectory's instants have np.linspace's bits. The
frequencies come from the well, which computes them once. The passes are
short, so the kernels keep their ufunc calls few and track_trajectory
checks its window in Python floats. The grid_n arguments of
track_trajectory and exact_zero_times are validated but have no effect on
results.

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
    _count,
    _uniform_times,
    beat_period,
)

__all__ = [
    "NodeKind",
    "NodeSample",
    "NodeTrajectory",
    "ratio_from_state",
    "node_position",
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
    times, both float arrays. The CLI writes positions as it is: a NaN
    becomes an empty CSV cell or a JSON null."""

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


def _analytic_v(cfg: WellConfig, ratio: float, ts: np.ndarray) -> np.ndarray:
    """v = -A cos(dw t) at every time in ts, NaN where |v| > 1."""
    v = -ratio * np.cos(cfg._dw * ts)
    return np.where(np.abs(v) > 1.0, np.nan, v)


def _real_part_zero_v(cfg: WellConfig, c1: float, c2: float, ts: np.ndarray) -> np.ndarray:
    """v = -c1 cos(w1 t) / (2 c2 cos(w2 t)) at every time in ts, NaN outside (-1, 1).

    A zero denominator or an overflowing quotient gives +-inf or NaN, which
    the range test rejects.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        v = -c1 * np.cos(cfg._omega_1 * ts) / (2.0 * c2 * np.cos(cfg._omega_2 * ts))
    return np.where(np.abs(v) < 1.0, v, np.nan)


def _density_minimum_v(cfg: WellConfig, ratio: complex, ts: np.ndarray) -> np.ndarray:
    """v = cos(pi x / a) of the interior minimum of |Psi|^2 at each time in ts, or NaN,
    for the complex amplitude ratio A = c1 / (2 c2).

    |Psi|^2 = (2/a)(1 - v^2) |c1 + 2 c2 v e^{-i dw t}|^2 = (8 |c2|^2 / a) f(v)
    with f(v) = (1 - v^2)(r + g v + v^2), r = |A|^2 and g = 2 Re(A e^{i dw t});
    only g depends on t. f' = -4 v^3 - 3 g v^2 + 2 (1 - r) v + g falls at
    both ends, so with three distinct real roots f has a maximum, a minimum
    and a maximum, and with one real root (or a double root, an inflection)
    f has no minimum. With v = y - g/4, f' = 0 becomes y^3 + p y + q = 0
    with p = (r - 1)/2 - 3 g^2/16 and q = g (g^2 - 4 r - 4)/32. Three real
    roots exist exactly when 4p^3 + 27q^2 < 0, that is p < 0 and |u| < 1
    with u = (3q/(2p)) sqrt(-3/p), and Viete's middle root is
    y = -2 sqrt(-p/3) sin(asin(u)/3). The minimum counts when it lies in
    (-1, 1). Since x -> v is strictly monotone inside the well, it is the
    minimum in x.

    g = 2 (Re A cos(dw t) - Im A sin(dw t)), and for a real A the sin term is
    skipped. Every other rounded operation is the plain expression's, in its
    order.

    asin runs through np.arcsin, which numpy 2.4.6 evaluates on its own
    kernel where the CPU has AVX-512: on such a host it differs from
    math.asin on 84,206 of 1e6 uniform values, and on none with those CPU
    features disabled (NPY_DISABLE_CPU_FEATURES). So the density-minimum
    positions, unlike the map v -> x in _positions, may differ in their last
    bits between CPUs. It stays: a switch to math.asin would move the gated
    minimum-kind files only on AVX-512 runners, so a declared byte diff
    would be wrong on every other runner.
    """
    phase = cfg._dw * ts
    # a product of Python floats overflows to inf without an error, where
    # abs(ratio) ** 2 would raise
    r = ratio.real * ratio.real + ratio.imag * ratio.imag
    # with one real root (p >= 0 or |u| > 1) u or v is NaN, and so it is where
    # A is infinite (c2 = 0, pure psi_1, whose only extremum is a maximum) or
    # r, g or g^2 overflow for a huge |A|, whose middle root lies far beyond
    # the walls; the mask keeps no NaN. On the few dozen instants of a
    # trajectory a ufunc call costs more than its arithmetic, so each
    # quantity is computed once
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # 2 Re A and 2 Im A are exact, so g has the bits of 2 (Re A cos - Im A sin)
        g = (2.0 * ratio.real) * np.cos(phase)
        # a real A has no sin term: x - 0 sin is x, but for the sign of a
        # zero x, which only sets the sign of a zero v, and acos(-0.0) == acos(0.0)
        if ratio.imag:
            g = g - (2.0 * ratio.imag) * np.sin(phase)
        gg = g * g
        p = 0.5 * (r - 1.0) - 0.1875 * gg
        q = g * (gg - 4.0 * (r + 1.0)) / 32.0
        u = 1.5 * q / p * np.sqrt(-3.0 / p)
        v = -2.0 * np.sqrt(p / -3.0) * np.sin(np.arcsin(u) / 3.0) - 0.25 * g
    return np.where((np.abs(u) < 1.0) & (np.abs(v) < 1.0), v, np.nan)


def _node_v(cfg: WellConfig, state: TwoStateSuperposition, kind: NodeKind,
            ts: np.ndarray) -> np.ndarray:
    """v = cos(pi x / a) of the node of the given kind at each time in ts, NaN where none."""
    if kind is NodeKind.ANALYTIC:
        return _analytic_v(cfg, ratio_from_state(state), ts)
    if kind is NodeKind.REAL_PART_ZERO:
        return _real_part_zero_v(cfg, *_require_real(state), ts)
    c2 = state.c2
    return _density_minimum_v(cfg, state.c1 / (2.0 * c2) if c2 else complex(math.inf), ts)


def node_position(cfg: WellConfig, state: TwoStateSuperposition, kind: NodeKind,
                  t: float) -> float | None:
    """Position of the node of the given kind (a NodeKind or its value) at time t.

    One instant of track_trajectory's solve, with its bits; None where it holds NaN.
    """
    kind = NodeKind(kind)
    t = float(t)
    _check_phase(cfg, t)  # also rejects inf and NaN
    x, = _positions(cfg, _node_v(cfg, state, kind, np.array([t]))).tolist()
    return None if math.isnan(x) else x


def exact_zero_times(cfg: WellConfig, state: TwoStateSuperposition, period_count: int = 1,
                     grid_n: int = 1024, samples_per_period: int = 512) -> np.ndarray:
    """Times in [0, period_count * T] at which |Psi|^2 has a genuine interior zero,
    as a float array.

    The coefficients must be real. A zero needs c1 + 2 c2 v e^{-i dw t} = 0
    with v = cos(pi x / a) in (-1, 1). For c1 = 0 (pure psi_2) the node at a/2
    is permanent, and the samples_per_period instants per period are returned.
    For 0 < |A| < 1, A = c1 / (2 c2), the zeros are the instants k T/2, where
    sin(dw t) = 0. Otherwise the array is empty: at |A| = 1 the zero touches a
    wall, which is not interior. A window whose end period_count * T is not
    a finite float raises ValueError, as does a count that is not an
    integer. grid_n is validated but has no effect.
    """
    c1, c2 = _require_real(state)
    if _count("period_count", period_count) < 1:
        raise ValueError("period_count must be at least 1")
    if _count("grid_n", grid_n) < 16 or _count("samples_per_period", samples_per_period) < 16:
        raise ValueError("scan resolution too small")
    T = beat_period(cfg)
    t_end = period_count * T
    if not math.isfinite(t_end):
        what = (f"the beat period T = {T!r} is not finite" if math.isinf(T) else
                f"period_count * T = {period_count!r} * {T!r} overflows")
        raise ValueError(f"{what} for {cfg._label()}")
    if c1 == 0.0:
        return _uniform_times(0.0, t_end, period_count * samples_per_period + 1)
    if abs(c1) < 2.0 * abs(c2):
        return np.arange(2 * period_count + 1, dtype=float) * 0.5 * T
    return np.empty(0)


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
    instants are solved in one vectorised pass, by the same helpers as
    node_position, so every position equals what it returns at its instant
    (NaN where it returns None). The window's width t_end - t_start must be
    a finite float. grid_n is validated for the numeric kinds but has no
    effect.
    """
    kind = NodeKind(kind)
    if not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
        raise ValueError("need finite t_start < t_end")
    t_start, t_end = float(t_start), float(t_end)
    if _count("n_samples", n_samples) < 2:
        raise ValueError("need at least two samples")
    _check_phase(cfg, max(t_start, t_end, key=abs))
    if not math.isfinite(t_end - t_start):
        raise ValueError(f"the window width t_end - t_start overflows for "
                         f"t_start={t_start!r}, t_end={t_end!r}")

    if kind is not NodeKind.ANALYTIC and _count("grid_n", grid_n) < 16:
        raise ValueError("grid_n too small to isolate nodes")

    ts = _uniform_times(t_start, t_end, n_samples)
    return NodeTrajectory(times=ts, positions=_positions(cfg, _node_v(cfg, state, kind, ts)),
                          kind=kind)
