"""Eigenstates and superposition densities for a particle in a 1D infinite square well.

The well occupies 0 <= x <= a with hard walls. Everything here is analytic:
stationary states are sqrt(2/a) sin(n pi x / a), energies are
n^2 pi^2 hbar^2 / (2 m a^2), and time evolution of a superposition is a sum
of phase factors exp(-i E_n t / hbar) on the expansion coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WellConfig",
    "TwoStateSuperposition",
    "eigenfunction",
    "energy",
    "omega",
    "delta_omega",
    "beat_period",
    "evaluate_psi",
    "density_exact",
    "density_closed_form",
    "norm_integral",
    "normalize",
]


@dataclass(frozen=True)
class WellConfig:
    """Geometry and physical constants of the well.

    Defaults give the dimensionless convention a = m = hbar = 1.
    """

    width_a: float = 1.0
    mass_m: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for label, value in (("well width a", self.width_a), ("mass m", self.mass_m),
                             ("hbar", self.hbar)):
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{label} must be positive and finite, got {value!r}")
        try:
            dw = delta_omega(self)
        except OverflowError:  # E_n = (n pi hbar / a)^2 / 2m exceeds the float range
            dw = math.inf
        if not (dw > 0.0 and math.isfinite(dw)):
            raise ValueError(
                f"beat frequency delta_omega = {dw!r} is not positive and finite for "
                f"a={self.width_a!r}, m={self.mass_m!r}, hbar={self.hbar!r}")


@dataclass(frozen=True)
class TwoStateSuperposition:
    """Coefficients (c1, c2) on the ground and first excited state.

    Coefficients are stored as complex numbers. The state need not be
    normalized, but it must not be the zero vector.
    """

    c1: complex
    c2: complex

    def __post_init__(self) -> None:
        for label in ("c1", "c2"):
            c = complex(getattr(self, label))
            if not cmath.isfinite(c):
                raise ValueError(f"{label} must be finite, got {c!r}")
            object.__setattr__(self, label, c)
        try:
            norm_sq = self.norm_sq()
        except OverflowError:  # a single |c|^2 overflows
            norm_sq = math.inf
        if not math.isfinite(norm_sq):  # or only their sum does
            raise ValueError(f"|c1|^2 + |c2|^2 overflows for c1={self.c1!r}, "
                             f"c2={self.c2!r}")
        if norm_sq == 0.0:
            raise ValueError("zero state: need |c1|^2 + |c2|^2 > 0")

    def norm_sq(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


def _check_index(n: int) -> int:
    if n != int(n) or int(n) < 1:
        raise ValueError(f"eigenstate index must be a positive integer, got {n!r}")
    return int(n)


def _check_position(cfg: WellConfig, x) -> None:
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > cfg.width_a):
        raise ValueError(f"position outside the well [0, {cfg.width_a}]")


def _ret(values):
    """Collapse 0-d arrays to plain Python scalars, pass arrays through."""
    arr = np.asarray(values)
    return arr.item() if arr.ndim == 0 else arr


def eigenfunction(cfg: WellConfig, n: int, x):
    """Normalized stationary state sqrt(2/a) sin(n pi x / a).

    Accepts scalar or array x inside [0, a]. The value at the walls is
    exactly 0.0, not a rounded sin(n pi).
    """
    n = _check_index(n)
    _check_position(cfg, x)
    a = cfg.width_a
    xs = np.asarray(x, dtype=float)
    raw = math.sqrt(2.0 / a) * np.sin(n * math.pi * xs / a)
    return _ret(np.where((xs == 0.0) | (xs == a), 0.0, raw))


def energy(cfg: WellConfig, n: int) -> float:
    """E_n = n^2 pi^2 hbar^2 / (2 m a^2)."""
    n = _check_index(n)
    return (n * math.pi * cfg.hbar / cfg.width_a) ** 2 / (2.0 * cfg.mass_m)


def omega(cfg: WellConfig, n: int) -> float:
    """Angular frequency E_n / hbar of the n-th stationary phase."""
    return energy(cfg, n) / cfg.hbar


def delta_omega(cfg: WellConfig) -> float:
    """Beat frequency omega_2 - omega_1 = 3 pi^2 hbar / (2 m a^2)."""
    return omega(cfg, 2) - omega(cfg, 1)


def beat_period(cfg: WellConfig) -> float:
    """Period 2 pi / delta_omega of every |Psi|^2 observable of a two-state mix."""
    return 2.0 * math.pi / delta_omega(cfg)


def evaluate_psi(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """Complex wavefunction c1 psi_1 e^{-i w1 t} + c2 psi_2 e^{-i w2 t}.

    x and t may be scalars or broadcastable arrays.
    """
    ts = np.asarray(t, dtype=float)
    out = state.c1 * eigenfunction(cfg, 1, x) * np.exp(-1j * omega(cfg, 1) * ts)
    out = out + state.c2 * eigenfunction(cfg, 2, x) * np.exp(-1j * omega(cfg, 2) * ts)
    return _ret(out)


def density_exact(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi(x, t)|^2 evaluated through the complex wavefunction."""
    psi = np.asarray(evaluate_psi(cfg, state, x, t))
    return _ret(psi.real**2 + psi.imag**2)


def density_closed_form(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi|^2 without complex arithmetic:

        |c1|^2 psi_1^2 + |c2|^2 psi_2^2 + 2 psi_1 psi_2 Re[c1 conj(c2) e^{i dw t}]

    Matches density_exact to near machine precision; the interference term
    carries the only time dependence, at the beat frequency dw.
    """
    p1 = np.asarray(eigenfunction(cfg, 1, x))
    p2 = np.asarray(eigenfunction(cfg, 2, x))
    cross = state.c1 * np.conj(state.c2)
    osc = np.real(cross * np.exp(1j * delta_omega(cfg) * np.asarray(t, dtype=float)))
    out = abs(state.c1) ** 2 * p1**2 + abs(state.c2) ** 2 * p2**2 + 2.0 * p1 * p2 * osc
    return _ret(out)


def norm_integral(cfg: WellConfig, state: TwoStateSuperposition, t: float = 0.0) -> float:
    """Integral of |Psi|^2 over the well by composite Simpson on 2048 intervals.

    Time evolution is unitary, so the result equals |c1|^2 + |c2|^2 at any t
    up to quadrature error (~1e-10). The sum runs in a fixed order, so the
    result is reproducible bit for bit.
    """
    n_intervals = 2048
    xs = np.linspace(0.0, cfg.width_a, n_intervals + 1)
    rho = density_exact(cfg, state, xs, float(t))
    odd = rho[1:-1:2].sum()
    even = rho[2:-1:2].sum()
    h = cfg.width_a / n_intervals
    return float((h / 3.0) * (rho[0] + rho[-1] + 4.0 * odd + 2.0 * even))


def normalize(state: TwoStateSuperposition) -> TwoStateSuperposition:
    """Rescale so |c1|^2 + |c2|^2 = 1. Relative phases are untouched."""
    s = math.sqrt(state.norm_sq())
    return TwoStateSuperposition(state.c1 / s, state.c2 / s)
