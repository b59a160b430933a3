"""Eigenstates and superposition densities for a particle in a 1D infinite square well.

The well occupies 0 <= x <= a with hard walls. Everything here is analytic:
stationary states are sqrt(2/a) sin(n pi x / a), energies are
n^2 pi^2 hbar^2 / (2 m a^2), and time evolution of a superposition is a sum
of phase factors exp(-i E_n t / hbar) on the expansion coefficients.

psi_1 and psi_2 come from one pass, stacked as two rows, with one ufunc
call per step. One NaN-skipping min and max check the positions, and reject
a well so wide that the phase n pi x overflows inside it; the wall mask runs
only when one of them lies on a wall. The density kernels share one private
grid type. When it is built, it checks the positions and the times once and
computes every state-independent factor of one (x, t) grid, each kept once:
the modes, the phases e^{-i w1 t} and e^{-i w2 t} and the mode squares,
each stacked on a first axis and padded to at least one grid axis, and
e^{i dw t} and 2 psi_1 psi_2. evaluate_psi, density_exact,
density_closed_form and norm_integral build one grid per call, and verify
one per check. The grid forms psi in one complex work array, as one product
of the coefficient-weighted modes and the phases and one sum of its halves;
its densities generator squares that sum in place through its float view
for each of a sequence of states, and density_exact is its one-state case.
No factor is a numpy scalar, so a scalar x or t runs the arithmetic of a
one-element array and gets its bits, as in every public kernel.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
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
        dw = _beat_frequency(self.width_a, self.mass_m, self.hbar)
        if not (dw > 0.0 and math.isfinite(dw)):
            raise ValueError(f"beat frequency delta_omega = {dw!r} is not positive and "
                             f"finite for {self._label()}")
        # kept for the kernels, which would otherwise compute them on every
        # call; not fields, so ==, hash, repr, replace and asdict see only
        # the three above
        object.__setattr__(self, "_dw", dw)
        w2 = omega(self, 2)
        if not math.isfinite(w2):
            raise ValueError(f"the largest frequency omega_2 = {w2!r} is not finite for "
                             f"{self._label()}")
        object.__setattr__(self, "_omega_1", omega(self, 1))
        object.__setattr__(self, "_omega_2", w2)
        if not math.isfinite(2.0 / self.width_a):  # a below 2/DBL_MAX, about 1.1e-308
            raise ValueError(f"the mode amplitude sqrt(2/a) is not finite for a={self.width_a!r}")

    def _label(self) -> str:
        """The well as error messages name it."""
        return f"a={self.width_a!r}, m={self.mass_m!r}, hbar={self.hbar!r}"


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
            if self.c1 or self.c2:  # a nonzero state whose |c|^2 are below the float range
                raise ValueError(f"|c1|^2 + |c2|^2 underflows to 0 for c1={self.c1!r}, "
                                 f"c2={self.c2!r}")
            raise ValueError("zero state: need |c1|^2 + |c2|^2 > 0")

    def norm_sq(self) -> float:
        return abs(self.c1) ** 2 + abs(self.c2) ** 2


def _check_index(n: int) -> int:
    """n as an int if it equals a positive integer; else a ValueError that names it."""
    try:
        if n == int(n) and n >= 1:
            return int(n)
    except (TypeError, ValueError, OverflowError):  # from int()
        pass
    raise ValueError(f"eigenstate index must be a positive integer, got {n!r}")


_MODE_N_PI = np.array([math.pi, 2.0 * math.pi])


def _modes(cfg: WellConfig, x, n_pi: np.ndarray = _MODE_N_PI) -> np.ndarray:
    """sqrt(2/a) sin(n pi x / a) at x, exactly 0.0 on the walls, for each n pi
    in n_pi, ascending (psi_1 and psi_2 by default), stacked on a new first
    axis; each step, (n pi) x, / a, sin and times sqrt(2/a), is one ufunc call
    for all.

    One NaN-skipping min and max check x: it must lie in [0, a], and the
    largest phase (n pi) x must be finite, which fails on a well wider than
    DBL_MAX / (2 pi), about 2.9e307, for psi_2 near the far wall; each
    raises ValueError. A NaN position passes and gives NaN. The wall mask
    runs only when the min or the max lies on a wall, so never for an empty
    or all-NaN x.
    """
    xs = np.asarray(x, dtype=float)
    a = cfg.width_a
    # fmin and fmax skip NaN: lo = inf and hi = -inf when nothing else is there
    lo = float(np.fmin.reduce(xs, axis=None, initial=math.inf))
    hi = float(np.fmax.reduce(xs, axis=None, initial=-math.inf))
    if lo < 0.0 or hi > a:
        raise ValueError(f"position outside the well [0, {a}]")
    # Python floats: inf, not an overflow warning
    if not n_pi.item(-1) * hi < math.inf:
        raise ValueError(f"the mode phase n pi x overflows at x={hi!r} "
                         f"in the well of width a={a!r}")
    modes = np.multiply.outer(n_pi, xs)
    modes /= a
    np.sin(modes, out=modes)
    modes *= math.sqrt(2.0 / a)
    if not (lo > 0.0 and hi < a):
        np.copyto(modes, 0.0, where=(xs == 0.0) | (xs == a))
    return modes


def _ret(values):
    """Collapse 0-d arrays to plain Python scalars, pass arrays through."""
    arr = np.asarray(values)
    return arr.item() if arr.ndim == 0 else arr


def eigenfunction(cfg: WellConfig, n: int, x):
    """Normalized stationary state sqrt(2/a) sin(n pi x / a).

    Accepts scalar or array x inside [0, a] at which n pi x is finite. The
    value at the walls is exactly 0.0, not a rounded sin(n pi). An n for
    which n pi is not a finite float raises ValueError.
    """
    n = _check_index(n)
    try:
        n_pi = n * math.pi
    except OverflowError:  # n itself is beyond the float range
        n_pi = math.inf
    if not math.isfinite(n_pi):
        raise ValueError("eigenstate index n is too large: n pi is not a finite float")
    return _ret(_modes(cfg, x, np.array([n_pi]))[0])


def energy(cfg: WellConfig, n: int) -> float:
    """E_n = n^2 pi^2 hbar^2 / (2 m a^2), computed as hbar omega_n."""
    return cfg.hbar * omega(cfg, n)


def omega(cfg: WellConfig, n: int) -> float:
    """Angular frequency E_n / hbar = n^2 delta_omega / 3 of the n-th phase.

    Evaluated on the math.frexp mantissa of dw, as delta_omega is, so it has
    the bits of n * n * dw / 3 wherever those steps are normal and is inf
    only beyond the float range."""
    n = _check_index(n)
    m, e = math.frexp(cfg._dw)
    try:
        return math.ldexp(n * n * m / 3.0, e)
    except OverflowError:
        return math.inf


def delta_omega(cfg: WellConfig) -> float:
    """Beat frequency omega_2 - omega_1 = 3 pi^2 hbar / (2 m a^2).

    1.5 pi (pi hbar / a) / m / a is evaluated on the math.frexp mantissas
    of a, m and hbar, where no step leaves the normal range, and their binary
    exponents are applied once by math.ldexp. Scaling by a power of two is
    exact, so the bits equal the plain expression's wherever its steps are
    normal floats, and a normal dw is accurate to a few ulp even where
    pi hbar / a would overflow or be subnormal. WellConfig computes it once,
    when it is built, and rejects a dw of 0 or inf, and one whose
    omega_2 = 4 dw / 3 overflows.
    """
    return cfg._dw


def _beat_frequency(a: float, m: float, hbar: float) -> float:
    """delta_omega's formula on the three fields; it never raises: a dw beyond
    the float range gives inf, one below it 0 or a subnormal."""
    ma, ea = math.frexp(a)
    mm, em = math.frexp(m)
    mh, eh = math.frexp(hbar)
    try:
        return math.ldexp(1.5 * math.pi * (math.pi * mh / ma) / mm / ma, eh - em - 2 * ea)
    except OverflowError:
        return math.inf


def beat_period(cfg: WellConfig) -> float:
    """Period 2 pi / delta_omega of every |Psi|^2 observable of a two-state mix."""
    return 2.0 * math.pi / cfg._dw


def _check_phase(cfg: WellConfig, t) -> None:
    """Reject times t at which the largest phase omega_2 t is not finite.

    t may be a float or an array; the message names the first such time.
    """
    w2 = cfg._omega_2
    if type(t) is float and math.isfinite(w2 * t):  # the common case, without numpy
        return
    ts = np.asarray(t, dtype=float)
    # a product of Python floats overflows to inf without a warning, and a
    # NaN time makes the largest |t| NaN
    t_max = abs(float(ts)) if ts.ndim == 0 else float(np.abs(ts).max(initial=0.0))
    if not math.isfinite(w2 * t_max):
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ts.flat[np.flatnonzero(~np.isfinite(w2 * ts))[0]]
        raise ValueError(f"the phase omega_2 t is not finite at t={float(bad)!r} "
                         f"for {cfg._label()}")


def _count(name: str, value) -> int:
    """value as an int if it is a Python or numpy integer; else a ValueError
    that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _uniform_times(t_start: float, t_end: float, n: int) -> np.ndarray:
    """np.linspace(t_start, t_end, n) for n >= 2 and a finite t_end - t_start,
    by numpy's own arithmetic, bit for bit, without its per-call cost: arange(n)
    times the step, or, where the step underflows to 0, divided by n - 1 and
    then times the width; plus t_start, and the last value set to t_end."""
    n = operator.index(n)
    div = n - 1
    delta = t_end - t_start
    ts = np.arange(n, dtype=float)
    step = delta / div
    if step == 0.0:
        ts /= div
        ts *= delta
    else:
        ts *= step
    ts += t_start
    ts[-1] = t_end
    return ts


class _Grid:
    """The state-independent factors of the density kernels on one (x, t) grid.

    The positions and the times (omega_2 t must be finite) are checked, and
    each factor is computed once, when the grid is built: the modes, the
    phases e^{-i w1 t}, e^{-i w2 t} and the mode squares, each stacked on a
    first axis and padded with unit axes to the grid's rank, at least one,
    in its own broadcast shape, never copied out to the full grid, and
    e^{i dw t} and 2 psi_1 psi_2, built from the padded stacks. No factor is
    a numpy scalar, so scalar x and t run the arithmetic of one-element
    arrays and get their bits. shape is the broadcast shape of x and t; the
    results keep at least one axis, and the public kernels reshape them to it.
    """

    def __init__(self, cfg: WellConfig, x, t) -> None:
        xs, ts = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        # the shape of every public result, and the rank, at least one, to
        # which the positions and the times are padded with unit axes, so
        # that the stacks broadcast against each other behind their common
        # first axis
        self.shape = np.broadcast_shapes(xs.shape, ts.shape)
        rank = max(len(self.shape), 1)
        self.modes = _modes(cfg, xs.reshape((1,) * (rank - xs.ndim) + xs.shape))
        _check_phase(cfg, ts)
        ts = ts.reshape((1,) * (rank - ts.ndim) + ts.shape)
        self.phases = np.stack([np.exp(-1j * cfg._omega_1 * ts), np.exp(-1j * cfg._omega_2 * ts)])
        self.beat = np.exp(1j * cfg._dw * ts)
        self.two_p1p2 = 2.0 * self.modes[0] * self.modes[1]
        self.squares = np.square(self.modes)

    def psi(self, state: TwoStateSuperposition, work=None) -> np.ndarray:
        """c1 psi_1 e^{-i w1 t} + c2 psi_2 e^{-i w2 t}: [c1, c2] times the modes,
        times the phases into work, and its halves added into work[0], which
        is returned. work is a complex array of the stacks' broadcast shape,
        made here when not given."""
        coeffs = np.array([state.c1, state.c2]).reshape(2, *(1,) * (self.modes.ndim - 1))
        work = np.multiply(coeffs * self.modes, self.phases, out=work)
        return np.add(work[0], work[1], out=work[0])

    def densities(self, states):
        """Yield (state, |Psi|^2) for each state, in one result array, yielded
        every time, and one work array for psi, both allocated once: psi's
        float view squared in place, and its even (real) and odd (imaginary)
        columns added into the result."""
        out = np.empty(np.broadcast_shapes(self.modes.shape[1:], self.phases.shape[1:]))
        work = np.empty((2, *out.shape), complex)
        for state in states:
            z = self.psi(state, work).view(float)
            np.square(z, out=z)
            yield state, np.add(z[..., 0::2], z[..., 1::2], out=out)

    def density_exact(self, state: TwoStateSuperposition) -> np.ndarray:
        """|Psi|^2 through the complex wavefunction: densities for one state."""
        return next(self.densities([state]))[1]

    def density_closed_form(self, state: TwoStateSuperposition, out=None) -> np.ndarray:
        """|c1|^2 psi_1^2 + |c2|^2 psi_2^2 + 2 psi_1 psi_2 Re[c1 conj(c2) e^{i dw t}];
        with a float array out of the grid's shape, the result is written there."""
        osc = np.real(state.c1 * np.conj(state.c2) * self.beat)
        static = abs(state.c1) ** 2 * self.squares[0] + abs(state.c2) ** 2 * self.squares[1]
        return np.add(static, np.multiply(self.two_p1p2, osc, out=out), out=out)


def _one_state(kernel, cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """kernel, a _Grid method, for one state on the grid of x and t, in their
    broadcast shape."""
    return _ret(kernel(grid := _Grid(cfg, x, t), state).reshape(grid.shape))


_NORM_INTERVALS = 2048


def _norm_grid(cfg: WellConfig, t) -> _Grid:
    """The grid norm_integral integrates on: the 2049 Simpson nodes across the
    well along the last axis, one row per instant of t."""
    xs = _uniform_times(0.0, cfg.width_a, _NORM_INTERVALS + 1)
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
    return _one_state(_Grid.psi, cfg, state, x, t)


def density_exact(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi(x, t)|^2 evaluated through the complex wavefunction."""
    return _one_state(_Grid.density_exact, cfg, state, x, t)


def density_closed_form(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi|^2 without complex arithmetic:

        |c1|^2 psi_1^2 + |c2|^2 psi_2^2 + 2 psi_1 psi_2 Re[c1 conj(c2) e^{i dw t}]

    Matches density_exact to near machine precision; the interference term
    carries the only time dependence, at the beat frequency dw.
    """
    return _one_state(_Grid.density_closed_form, cfg, state, x, t)


def norm_integral(cfg: WellConfig, state: TwoStateSuperposition, t=0.0):
    """Integral of |Psi|^2 over the well by composite Simpson on 2048 intervals.

    t may be a scalar (giving a float) or an array (giving its shape). Time
    evolution is unitary, so the result equals |c1|^2 + |c2|^2 at any t up to
    quadrature error (~1e-10). The density comes from the same grid type as
    density_exact, built on the Simpson nodes with one row per instant, so a
    caller that integrates many states can build that grid once and loop
    over them with its densities generator. The sum runs in a fixed order,
    so the result is reproducible bit for bit, and an array gives each
    instant's scalar bits.
    """
    return _ret(_simpson_norm(cfg, _norm_grid(cfg, t).density_exact(state)))


def normalize(state: TwoStateSuperposition) -> TwoStateSuperposition:
    """Rescale so |c1|^2 + |c2|^2 = 1. Relative phases are untouched."""
    c1, c2, norm_sq = state.c1, state.c2, state.norm_sq()
    if norm_sq < sys.float_info.min:
        # a subnormal |c1|^2 + |c2|^2 has lost digits; scaling the parts by a
        # power of two first is exact and makes it normal
        parts = (c1.real, c1.imag, c2.real, c2.imag)
        scale = 2.0 ** -math.frexp(max(map(abs, parts)))[1]
        re1, im1, re2, im2 = (part * scale for part in parts)
        c1, c2 = complex(re1, im1), complex(re2, im2)
        norm_sq = abs(c1) ** 2 + abs(c2) ** 2
    s = math.sqrt(norm_sq)
    return TwoStateSuperposition(c1 / s, c2 / s)
