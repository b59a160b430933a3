"""Eigenstates and superposition densities for a particle in a 1D infinite square well.

The well occupies 0 <= x <= a with hard walls. Everything here is analytic:
stationary states are sqrt(2/a) sin(n pi x / a), energies are
n^2 pi^2 hbar^2 / (2 m a^2), and time evolution of a superposition is a sum
of phase factors exp(-i E_n t / hbar) on the expansion coefficients.

psi_1 and psi_2 come from one pass, stacked as two rows, with one ufunc call
per step. One NaN-skipping min and max check the positions, and reject a
well so wide that the phase n pi x overflows inside it; the wall mask runs
only when one of them lies on a wall. The density kernels share one private
grid type. When it is built, it checks the positions and the times once and
computes every state-independent factor of one (x, t) grid, each kept once:
the modes, stacked on a first axis, and e^{i dw t}, each padded to at least
one grid axis. evaluate_psi, density_exact, density_closed_form and
norm_integral build one grid per call, and verify one per check. One
kernel, _static_density, weights the squared modes into
|c1|^2 psi_1^2 + |c2|^2 psi_2^2: the closed form's static term, which is
also the beat-period average of the density that analysis.time_avg_density
and analysis.heatmap return. A density depends on time only through the
relative phase: |Psi|^2 = |c1 psi_1 + c2 psi_2 e^{-i dw t}|^2, as the
global phase e^{-i w1 t} drops out. So the grid's densities generator forms
the wave psi_2 e^{-i dw t} once, on the full grid, and for each of a
sequence of states scales it by c2 into one complex work array, adds
c1 psi_1 and squares that sum in place through its float view;
density_exact is its one-state case. psi, the wavefunction itself, is
the global phase times the relative one: it builds e^{-i w1 t} alone and
forms e^{-i w2 t} as e^{-i w1 t} conj(e^{i dw t}), so every kernel reads
one relative phase. No factor is a numpy scalar, so a scalar x or t runs
the arithmetic of a one-element array and gets its bits, as in every public
kernel. A density is at most 4 (|c1|^2 + |c2|^2) / a; only where that
bound is not a finite float do the kernels that take a state run without
overflow warnings and test their result, raising ValueError where it
overflows.
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
            norm_sq = abs(self.c1) ** 2 + abs(self.c2) ** 2
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
        # kept for the density kernels' overflow test, which would otherwise
        # compute it on every call; not a field, as in WellConfig
        object.__setattr__(self, "_norm_sq", norm_sq)

    def norm_sq(self) -> float:
        """|c1|^2 + |c2|^2."""
        return self._norm_sq


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


def _static_density(squares: np.ndarray, w1, w2):
    """w1 psi_1^2 + w2 psi_2^2 from squares, psi_1^2 and psi_2^2 stacked on a
    first axis: each weight times its row, then their sum into the first
    product. The weights are floats or arrays that broadcast against a row;
    with 0-d rows the result is a numpy scalar.

    This is the beat-period average of the density of a state with
    |c1|^2 = w1 and |c2|^2 = w2, and the static part of its closed form.
    """
    static = w1 * squares[0, ...]
    static += w2 * squares[1, ...]
    return static


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
        with np.errstate(over="ignore"):
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
    each factor is computed once, when the grid is built: the modes, stacked
    on a first axis, and e^{i dw t}, each padded with unit axes to the
    grid's rank, at least one, in its own broadcast shape, never copied out
    to the full grid. The padded times stay for psi, which alone needs the
    global phase e^{-i w1 t}: psi is that phase times the relative one,
    e^{-i dw t} = conj(e^{i dw t}). No factor is a numpy scalar, so scalar
    x and t run the arithmetic of one-element arrays and get their bits.
    shape is the broadcast shape of x and t; the results keep at least one
    axis, and the public kernels reshape them to it. x and t that do not
    broadcast raise ValueError naming both shapes.
    """

    def __init__(self, cfg: WellConfig, x, t) -> None:
        xs, ts = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        # the shape of every public result, and the rank, at least one, to
        # which the positions and the times are padded with unit axes, so
        # that the factors broadcast against each other behind the modes'
        # first axis (np.broadcast takes a third of np.broadcast_shapes' time)
        try:
            self.shape = np.broadcast(xs, ts).shape
        except ValueError:
            raise ValueError(f"positions x of shape {xs.shape} and times t of shape "
                             f"{ts.shape} do not broadcast together") from None
        rank = max(len(self.shape), 1)
        self.modes = _modes(cfg, xs.reshape((1,) * (rank - xs.ndim) + xs.shape))
        _check_phase(cfg, ts)
        self._cfg, self._ts = cfg, ts.reshape((1,) * (rank - ts.ndim) + ts.shape)
        self.beat = np.exp(1j * cfg._dw * self._ts)

    def psi(self, state: TwoStateSuperposition) -> np.ndarray:
        """c1 psi_1 e^{-i w1 t} + c2 psi_2 e^{-i w2 t}, the global phase e^{-i w1 t}
        times the relative one: [c1, c2] times the modes, times the phases
        e^{-i w1 t} and e^{-i w1 t} conj(e^{i dw t}), and its halves added
        into the first. The densities share that e^{-i dw t}, so |psi|^2
        keeps to them however far w1 t and w2 t round apart."""
        phase = np.exp(-1j * self._cfg._omega_1 * self._ts)
        phases = np.stack([phase, phase * np.conj(self.beat)])
        coeffs = np.array([state.c1, state.c2]).reshape(2, *(1,) * (self.modes.ndim - 1))
        work = np.multiply(coeffs * self.modes, phases)
        return np.add(work[0], work[1], out=work[0])

    def _wave(self) -> np.ndarray:
        """psi_2 e^{-i dw t} on the full grid, in a fresh complex array: a
        complex copy of psi_2 times conj(e^{i dw t})."""
        return np.multiply(self.modes[1].astype(complex), np.conj(self.beat))

    def _density(self, state: TwoStateSuperposition, z: np.ndarray, out=None) -> np.ndarray:
        """|c1 psi_1 + z|^2, z = c2 psi_2 e^{-i dw t}: c1 psi_1 added into z,
        z's float view squared in place, and its even (real) and odd
        (imaginary) columns added into out."""
        z += state.c1 * self.modes[0]
        z = z.view(float)
        np.square(z, out=z)
        return np.add(z[..., 0::2], z[..., 1::2], out=out)

    def densities(self, states):
        """Yield (state, |Psi|^2) for each state, in one result array, yielded
        every time. |Psi|^2 = |c1 psi_1 + c2 psi_2 e^{-i dw t}|^2: the global
        phase e^{-i w1 t} drops out, so the wave psi_2 e^{-i dw t} is formed
        once, and each state costs c2 times it into one work array and the
        steps of _density."""
        wave = self._wave()
        work, out = np.empty_like(wave), np.empty(wave.shape)
        for state in states:
            yield state, self._density(state, np.multiply(wave, state.c2, out=work), out)

    def density_exact(self, state: TwoStateSuperposition) -> np.ndarray:
        """|Psi|^2 through the complex wavefunction, up to its global phase:
        densities for one state, with the wave scaled by c2 in place."""
        z = self._wave()
        z *= state.c2
        return self._density(state, z)

    def density_closed_form(self, state: TwoStateSuperposition) -> np.ndarray:
        """|c1|^2 psi_1^2 + |c2|^2 psi_2^2 + psi_1 psi_2 Re[2 c1 conj(c2) e^{i dw t}]:
        the oscillating term in a fresh array, and the static term added into
        it. The factor 2 scales the oscillating term, exactly, so the product
        of the modes stays within the 2/a that WellConfig keeps finite."""
        psi_1, psi_2 = self.modes
        rho = psi_1 * psi_2 * np.real(2.0 * state.c1 * np.conj(state.c2) * self.beat)
        rho += _static_density(np.square(self.modes), abs(state.c1) ** 2, abs(state.c2) ** 2)
        return rho


def _no_overflow(cfg: WellConfig, state: TwoStateSuperposition, bound: float, what: str,
                 x, kernel, *args):
    """kernel(*args), a result of state on cfg no step of which exceeds
    bound (|c1|^2 + |c2|^2) / a.

    Where that bound is a finite float nothing can overflow, and the kernel
    runs as it is. Elsewhere it runs without overflow warnings, and the
    result itself is tested, not the bound, which may lie far above it: a
    non-finite entry at a position x that is not NaN (any entry, for x None)
    raises ValueError naming what, the state and the well.
    """
    if state._norm_sq * (bound / cfg.width_a) < math.inf:
        return kernel(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        result = kernel(*args)
    finite = np.isfinite(result)
    if x is not None:
        finite |= np.isnan(np.asarray(x, dtype=float))
    if not finite.all():
        raise ValueError(f"{what} of c1={state.c1!r}, c2={state.c2!r} overflows "
                         f"for {cfg._label()}")
    return result


def _one_state(kernel, what: str, cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """kernel, a _Grid method, for one state on the grid of x and t, in their
    broadcast shape; what names the result in an overflow's ValueError.

    (|c1 psi_1| + |c2 psi_2|)^2 <= (|c1|^2 + |c2|^2)(psi_1^2 + psi_2^2)
    <= 4 (|c1|^2 + |c2|^2) / a bounds |Psi|^2 and every step of the kernels."""
    return _ret(_no_overflow(cfg, state, 4.0, what, x, lambda: kernel(
        grid := _Grid(cfg, x, t), state).reshape(grid.shape)))


_NORM_INTERVALS = 2048
# a Simpson sum's weights 1, 4, 2, ..., 4, 1 add up to 3 _NORM_INTERVALS, each
# on a density of at most 4 (|c1|^2 + |c2|^2) / a: the sum is at most this
# bound times (|c1|^2 + |c2|^2) / a
_NORM_SUM_BOUND = 12 * _NORM_INTERVALS


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
    return _one_state(_Grid.psi, "the wavefunction", cfg, state, x, t)


def density_exact(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi(x, t)|^2 evaluated through the complex wavefunction, up to its
    global phase: |c1 psi_1 + c2 psi_2 e^{-i dw t}|^2."""
    return _one_state(_Grid.density_exact, "the density", cfg, state, x, t)


def density_closed_form(cfg: WellConfig, state: TwoStateSuperposition, x, t):
    """|Psi|^2 without complex arithmetic:

        |c1|^2 psi_1^2 + |c2|^2 psi_2^2 + 2 psi_1 psi_2 Re[c1 conj(c2) e^{i dw t}]

    Matches density_exact to near machine precision; the interference term
    carries the only time dependence, at the beat frequency dw. It is formed
    as psi_1 psi_2 Re[2 c1 conj(c2) e^{i dw t}], whose factors stay within
    2/a and |c1|^2 + |c2|^2, so on a well narrower than 4/DBL_MAX it returns
    the density of a small state as density_exact does.
    """
    return _one_state(_Grid.density_closed_form, "the density", cfg, state, x, t)


def norm_integral(cfg: WellConfig, state: TwoStateSuperposition, t=0.0):
    """Integral of |Psi|^2 over the well by composite Simpson on 2048 intervals.

    t may be a scalar (giving a float) or an array (giving its shape). Time
    evolution is unitary, so the result equals |c1|^2 + |c2|^2 at any t up to
    quadrature error (~1e-10). The density is density_exact's, through the
    relative phase e^{-i dw t}, on the same grid type built on the Simpson
    nodes with one row per instant, so a caller that integrates many states
    can build that grid once, form its wave psi_2 e^{-i dw t} once, and loop
    over the states with its densities generator. The sum runs in a fixed order,
    so the result is reproducible bit for bit, and an array gives each
    instant's scalar bits. A Simpson sum that overflows, as it may on a well
    narrower than about 1.4e-304 or for a large state, raises ValueError.
    """
    return _ret(_no_overflow(cfg, state, _NORM_SUM_BOUND, "the Simpson norm", None,
                             lambda: _simpson_norm(cfg, _norm_grid(cfg, t).density_exact(state))))


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
