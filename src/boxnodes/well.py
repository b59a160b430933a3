"""Eigenstates and superposition densities for a particle in a 1D infinite square well.

The well occupies 0 <= x <= a with hard walls. Everything here is analytic:
stationary states are sqrt(2/a) sin(n pi x / a), energies are
n^2 pi^2 hbar^2 / (2 m a^2), and time evolution of a superposition is a sum
of phase factors exp(-i E_n t / hbar) on the expansion coefficients.

The density kernels share one private grid type. When it is built, it
checks the positions and the times once and computes every
state-independent factor of one (x, t) grid: the modes, the phases
e^{-i w1 t}, e^{-i w2 t} and e^{i dw t}, and the mode products.
evaluate_psi, density_exact, density_closed_form and norm_integral build one
grid per call; verify builds one per check and evaluates each random state
on it into work arrays it reuses.
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
        for field, label in (("width_a", "well width a"), ("mass_m", "mass m"),
                             ("hbar", "hbar")):
            # a plain float, so delta_omega below runs in Python floats and a
            # numpy scalar cannot raise an overflow warning before the check
            value = float(getattr(self, field))
            object.__setattr__(self, field, value)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{label} must be positive and finite, got {value!r}")
        dw = delta_omega(self)
        if not (dw > 0.0 and math.isfinite(dw)):
            raise ValueError(
                f"beat frequency delta_omega = {dw!r} is not positive and finite for "
                f"a={self.width_a!r}, m={self.mass_m!r}, hbar={self.hbar!r}")
        w2 = omega(self, 2)
        if not math.isfinite(w2):
            raise ValueError(
                f"the largest frequency omega_2 = {w2!r} is not finite for "
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


def _check_position(cfg: WellConfig, x) -> np.ndarray:
    """x as a float array, once it is known to lie in [0, a]."""
    xs = np.asarray(x, dtype=float)
    # count_nonzero takes half the time of .any() on the small arrays the
    # kernels see; NaN compares false, so it passes as before
    if np.count_nonzero(xs < 0.0) or np.count_nonzero(xs > cfg.width_a):
        raise ValueError(f"position outside the well [0, {cfg.width_a}]")
    return xs


def _walls(cfg: WellConfig, xs: np.ndarray) -> np.ndarray:
    return (xs == 0.0) | (xs == cfg.width_a)


def _mode(cfg: WellConfig, n: int, xs: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """sqrt(2/a) sin(n pi x / a) on checked positions, exactly 0.0 on the walls."""
    a = cfg.width_a
    return np.where(walls, 0.0, math.sqrt(2.0 / a) * np.sin(n * math.pi * xs / a))


def _modes(cfg: WellConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """psi_1 and psi_2 at x, with one position check and one wall mask."""
    xs = _check_position(cfg, x)
    walls = _walls(cfg, xs)
    return _mode(cfg, 1, xs, walls), _mode(cfg, 2, xs, walls)


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
    xs = _check_position(cfg, x)
    return _ret(_mode(cfg, n, xs, _walls(cfg, xs)))


def energy(cfg: WellConfig, n: int) -> float:
    """E_n = n^2 pi^2 hbar^2 / (2 m a^2), computed as hbar omega_n."""
    return cfg.hbar * omega(cfg, n)


def omega(cfg: WellConfig, n: int) -> float:
    """Angular frequency E_n / hbar = n^2 delta_omega / 3 of the n-th phase."""
    n = _check_index(n)
    return n * n * delta_omega(cfg) / 3.0


def delta_omega(cfg: WellConfig) -> float:
    """Beat frequency omega_2 - omega_1 = 3 pi^2 hbar / (2 m a^2).

    1.5 pi (pi hbar / a) / m / a is evaluated on the math.frexp mantissas
    of a, m and hbar, where no step leaves the normal range, and their binary
    exponents are applied once by math.ldexp. Scaling by a power of two is
    exact, so the bits equal the plain expression's wherever its steps are
    normal floats, and a normal dw is accurate to a few ulp even where
    pi hbar / a would overflow or be subnormal. It never raises: a dw beyond
    the float range gives inf, one below it 0 or a subnormal. WellConfig
    rejects 0, inf, and a dw whose omega_2 = 4 dw / 3 overflows.
    """
    ma, ea = math.frexp(cfg.width_a)
    mm, em = math.frexp(cfg.mass_m)
    mh, eh = math.frexp(cfg.hbar)
    try:
        return math.ldexp(1.5 * math.pi * (math.pi * mh / ma) / mm / ma, eh - em - 2 * ea)
    except OverflowError:
        return math.inf


def beat_period(cfg: WellConfig) -> float:
    """Period 2 pi / delta_omega of every |Psi|^2 observable of a two-state mix."""
    return 2.0 * math.pi / delta_omega(cfg)


def _check_phase(cfg: WellConfig, t) -> None:
    """Reject times t at which the largest phase omega_2 t is not finite.

    t may be a float or an array; the message names the first such time.
    """
    w2 = omega(cfg, 2)
    ts = np.asarray(t, dtype=float)
    # a product of Python floats overflows to inf without a warning, and a
    # NaN time makes the largest |t| NaN
    t_max = abs(float(ts)) if ts.ndim == 0 else float(np.abs(ts).max(initial=0.0))
    if not math.isfinite(w2 * t_max):
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ts.flat[np.flatnonzero(~np.isfinite(w2 * ts))[0]]
        raise ValueError(f"the phase omega_2 t is not finite at t={float(bad)!r} for "
                         f"a={cfg.width_a!r}, m={cfg.mass_m!r}, hbar={cfg.hbar!r}")


class _Grid:
    """The state-independent factors of the density kernels on one (x, t) grid.

    The positions and the times (omega_2 t must be finite) are checked and
    every factor is computed when the grid is built: the modes, the phases
    e^{-i w1 t}, e^{-i w2 t} and e^{i dw t}, and the mode products, so a
    loop over states computes each once. The methods evaluate one state.
    Given arrays of the grid's shape (ufunc out=), they write the full-grid
    result there, so such a loop allocates no full-grid temporary per state;
    without them, the ufuncs allocate the result, except in psi (see there).
    """

    def __init__(self, cfg: WellConfig, x, t) -> None:
        self.p1, self.p2 = _modes(cfg, x)
        ts = np.asarray(t, dtype=float)
        _check_phase(cfg, ts)
        # the shape of every full-grid result, and of the arrays passed as out
        self.shape = np.broadcast_shapes(self.p1.shape, ts.shape)
        self.phase1 = np.exp(-1j * omega(cfg, 1) * ts)
        self.phase2 = np.exp(-1j * omega(cfg, 2) * ts)
        self.beat = np.exp(1j * delta_omega(cfg) * ts)
        self.p1_sq = self.p1**2
        self.p2_sq = self.p2**2
        self.two_p1p2 = 2.0 * self.p1 * self.p2

    def psi(self, state: TwoStateSuperposition, out=None, tmp=None):
        """c1 psi_1 e^{-i w1 t} + c2 psi_2 e^{-i w2 t}; with complex arrays out
        and tmp, the result is written into out and tmp is overwritten."""
        if out is None:
            # numpy's operators, not its ufuncs: on 0-d input they run numpy's
            # scalar complex multiply, which differs from the ufunc loop in
            # the last bit on about 43% of random products (numpy 2.4,
            # x86-64), and the public kernels keep the scalar bits
            return state.c1 * self.p1 * self.phase1 + state.c2 * self.p2 * self.phase2
        np.multiply(state.c1 * self.p1, self.phase1, out=out)
        return np.add(out, np.multiply(state.c2 * self.p2, self.phase2, out=tmp), out=out)

    def density_exact(self, state: TwoStateSuperposition, out=None, psi=None, tmp=None):
        """|Psi|^2 through the complex wavefunction; with a float array out and
        complex arrays psi and tmp, the result is written into out and the
        other two are overwritten."""
        # a 0-d psi is made an array, so its imaginary part can be written
        z = np.asarray(self.psi(state, out=psi, tmp=tmp))
        return np.add(np.square(z.real, out=out), np.square(z.imag, out=z.imag), out=out)

    def density_closed_form(self, state: TwoStateSuperposition, out=None):
        """|c1|^2 psi_1^2 + |c2|^2 psi_2^2 + 2 psi_1 psi_2 Re[c1 conj(c2) e^{i dw t}];
        with a float array out, the result is written there."""
        osc = np.real(state.c1 * np.conj(state.c2) * self.beat)
        static = abs(state.c1) ** 2 * self.p1_sq + abs(state.c2) ** 2 * self.p2_sq
        return np.add(static, np.multiply(self.two_p1p2, osc, out=out), out=out)


_NORM_INTERVALS = 2048


def _norm_grid(cfg: WellConfig, t) -> _Grid:
    """The grid norm_integral integrates on: the 2049 Simpson nodes across the
    well along the last axis, one row per instant of t."""
    xs = np.linspace(0.0, cfg.width_a, _NORM_INTERVALS + 1)
    return _Grid(cfg, xs, np.asarray(t, dtype=float)[..., None])


def _simpson_norm(cfg: WellConfig, rho: np.ndarray) -> np.ndarray:
    """Composite Simpson integral over the last axis of a density on _norm_grid."""
    odd = rho[..., 1:-1:2].sum(axis=-1)
    even = rho[..., 2:-1:2].sum(axis=-1)
    h = cfg.width_a / _NORM_INTERVALS
    return (h / 3.0) * (rho[..., 0] + rho[..., -1] + 4.0 * odd + 2.0 * even)


def evaluate_psi(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """Complex wavefunction c1 psi_1 e^{-i w1 t} + c2 psi_2 e^{-i w2 t}.

    x and t may be scalars or broadcastable arrays.
    """
    return _ret(_Grid(cfg, x, t).psi(state))


def density_exact(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi(x, t)|^2 evaluated through the complex wavefunction."""
    return _ret(_Grid(cfg, x, t).density_exact(state))


def density_closed_form(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi|^2 without complex arithmetic:

        |c1|^2 psi_1^2 + |c2|^2 psi_2^2 + 2 psi_1 psi_2 Re[c1 conj(c2) e^{i dw t}]

    Matches density_exact to near machine precision; the interference term
    carries the only time dependence, at the beat frequency dw.
    """
    return _ret(_Grid(cfg, x, t).density_closed_form(state))


def norm_integral(cfg: WellConfig, state: TwoStateSuperposition, t=0.0):
    """Integral of |Psi|^2 over the well by composite Simpson on 2048 intervals.

    t may be a scalar (giving a float) or an array (giving its shape). Time
    evolution is unitary, so the result equals |c1|^2 + |c2|^2 at any t up to
    quadrature error (~1e-10). The density comes from the same grid type as
    density_exact, built on the Simpson nodes with one row per instant, so a
    caller that integrates many states can build that grid once and reuse
    it. The sum runs in a fixed order, so the result is reproducible bit for
    bit, and an array gives each instant's scalar bits.
    """
    return _ret(_simpson_norm(cfg, _norm_grid(cfg, t).density_exact(state)))


def normalize(state: TwoStateSuperposition) -> TwoStateSuperposition:
    """Rescale so |c1|^2 + |c2|^2 = 1. Relative phases are untouched."""
    s = math.sqrt(state.norm_sq())
    return TwoStateSuperposition(state.c1 / s, state.c2 / s)
