"""Self-check battery: every library-level invariant measured in one pass.

The battery is the table _CHECKS. Each entry is a measure followed by the
rows it feeds; a row is a check's name, its detail, the scale of its
tolerance ("length" multiplies the tolerance by a, "density" divides it by
a, 1 leaves it as it is) and its tolerance on the unit well. A measure is a
generator over one shared context (cfg, a, T, dw, the 256 positions xg and
the seeded generator rng) that yields, for every sample it takes, a tuple of
one error per row. run_verification drains the measures in table order, so a
given seed always produces the same printout, and reduces each row's errors
by one rule: the largest error, NaN if any is NaN, 0.0 before any sample. A
sample a measure cannot take, such as a NaN turning point or a missing node,
is NaN, so the rule fails it; NaN fails every tolerance. A detail may name
context fields in str.format fields, such as {dw!r}. Adding a check means
adding a measure and a row.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .analysis import (
    SweepSpec,
    amplitude_sweep,
    fit_power_law,
    oscillation_amplitude,
    time_avg_density,
    time_avg_node_position,
    heatmap,
)
from .nodes import (
    NodeKind,
    _analytic_v,
    _positions,
    _real_part_zero_v,
    node_position,
    track_trajectory,
)
from .well import (
    _NORM_SUM_BOUND,
    TwoStateSuperposition,
    WellConfig,
    _Grid,
    _norm_grid,
    _simpson_norm,
    beat_period,
    delta_omega,
    density_exact,
    eigenfunction,
    evaluate_psi,
    normalize,
)

__all__ = ["CheckResult", "run_verification"]

_Errors = Iterator[tuple[float, ...]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    detail: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail} (error={self.error:.3e}, tol={self.tol:.3e})"


def _worst(*errors: float) -> float:
    """max(errors), but NaN if one is: max() drops a NaN after its first argument."""
    return math.nan if any(map(math.isnan, errors)) else max(errors)


def _random_complex_states(rng: np.random.Generator, count: int) -> list[TwoStateSuperposition]:
    """count normalized states from one draw of 4 count normals: the stream,
    and the states, of count draws of standard_normal(2) + 1j * standard_normal(2)."""
    z = rng.standard_normal((count, 2, 2))
    return [normalize(TwoStateSuperposition(complex(re1, im1), complex(re2, im2)))
            for (re1, re2), (im1, im2) in z.tolist()]


# Each measure looks up the library names it calls as module globals when it
# runs, so a test can patch them here. The measures that evaluate random
# states on one (x, t) grid draw their states at once and build the grid and
# its work arrays in their own frame, so these go when the measure is drained,
# before the next one builds its own.

def _beat_frequency(ctx: SimpleNamespace) -> _Errors:
    # beat frequency against the closed form, in exact rationals rounded
    # once, so no intermediate such as a^2 can leave the float range;
    # imported here because fractions (with decimal) adds about 4 ms to
    # every import of the package, and only verify needs it
    from fractions import Fraction
    # the rounding cannot overflow: WellConfig accepts only a dw whose
    # omega_2 = 4 dw / 3 is finite, so dw is at most 0.75 DBL_MAX, and the
    # exact value lies within a few ulps of it
    expected = float(Fraction(3, 2) * Fraction(math.pi) ** 2 * Fraction(ctx.cfg.hbar)
                     / (Fraction(ctx.cfg.mass_m) * Fraction(ctx.a) ** 2))
    yield (abs(ctx.dw - expected) / expected,)


def _wall_zeros(ctx: SimpleNamespace) -> _Errors:
    walls = np.array([0.0, ctx.a])
    for _ in range(10):
        state, = _random_complex_states(ctx.rng, 1)
        t = float(ctx.rng.uniform(0.0, 2.0 * ctx.T))
        yield (np.max(np.abs(evaluate_psi(ctx.cfg, state, walls, t))),)


def _closed_form(ctx: SimpleNamespace) -> _Errors:
    # one |exact - closed| per state, its largest entry over the grid
    grid = _Grid(ctx.cfg, ctx.xg[:, None], np.linspace(0.0, ctx.T, 64)[None, :])
    for state, rho in grid.densities(_random_complex_states(ctx.rng, 50)):
        gap = np.subtract(rho, grid.density_closed_form(state), out=rho)
        yield (np.abs(gap, out=gap).max(),)


def _norms(ctx: SimpleNamespace) -> _Errors:
    grid = _norm_grid(ctx.cfg, np.linspace(0.0, ctx.T, 10))
    for state, rho in grid.densities(_random_complex_states(ctx.rng, 20)):
        norms = _simpson_norm(ctx.cfg, rho)
        yield np.max(np.abs(norms - state.norm_sq())), np.max(norms) - np.min(norms)


def _beat_periodicity(ctx: SimpleNamespace) -> _Errors:
    for _ in range(10):
        state, = _random_complex_states(ctx.rng, 1)
        t = float(ctx.rng.uniform(0.0, ctx.T))
        d1, d2 = density_exact(ctx.cfg, state, ctx.xg, np.array([[t], [t + ctx.T]]))
        yield (np.max(np.abs(d1 - d2)),)


def _stationary(ctx: SimpleNamespace) -> _Errors:
    for coeffs in ((1.0, 0.0), (0.0, 1.0)):
        profiles = density_exact(ctx.cfg, TwoStateSuperposition(*coeffs), ctx.xg,
                                 np.linspace(0.0, ctx.T, 7)[:, None])
        yield (np.max(profiles.max(axis=0) - profiles.min(axis=0)),)


def _node_count(ctx: SimpleNamespace) -> _Errors:
    # the number of n = 1..6 whose psi_n lacks exactly n-1 interior sign changes
    mismatches = 0
    xs_fine = np.linspace(0.0, ctx.a, 10_001)[1:-1]
    for n in range(1, 7):
        vals = eigenfunction(ctx.cfg, n, xs_fine)
        mismatches += int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)) != n - 1
    yield (mismatches,)


def _trajectory(ctx: SimpleNamespace) -> _Errors:
    # the analytic node of A = 0.5 over [0, T], [T, 2T] and [T/2, 3T/2]
    x_t, x_tT, x_half = (
        track_trajectory(ctx.cfg, TwoStateSuperposition(1.0, 1.0), NodeKind.ANALYTIC,
                         start * ctx.T, (start + 1.0) * ctx.T, 256).positions
        for start in (0.0, 1.0, 0.5))
    yield np.max(np.abs(x_tT - x_t)), np.max(np.abs(x_t + x_half - ctx.a))


def _amplitude(ctx: SimpleNamespace) -> _Errors:
    # the Re Psi zeros at t = 0 and T/2 of c1 = 2 A c2 are the turning points
    # of the node, half an excursion (a/pi) arcsin(A) either side of a/2; all
    # draws are solved in one pass by the helpers node_position runs
    draws = ctx.rng.uniform(0.01, 1.0, size=50)
    v = _real_part_zero_v(ctx.cfg, 2.0 * draws[:, None], 1.0, np.array([0.0, 0.5 * ctx.T]))
    turns = _positions(ctx.cfg, v.ravel()).reshape(v.shape)
    for A, (x_0, x_half) in zip(draws.tolist(), turns.tolist()):
        # oscillation_amplitude is (a/pi) arcsin A, so one term covers both
        yield (abs(0.5 * (x_0 - x_half) - oscillation_amplitude(ctx.cfg, A)),)


def _mean_position(ctx: SimpleNamespace) -> _Errors:
    # the time-averaged node position is the well center; an even grid of 256
    # instants (one period, end point dropped) pairs each instant with its
    # half-period reflection; all ratios are solved in one pass by the
    # helpers track_trajectory runs
    ratios = np.append(np.linspace(0.05, 0.95, 19), 0.99)
    v = _analytic_v(ctx.cfg, ratios[:, None], np.linspace(0.0, ctx.T, 257))
    tracks = _positions(ctx.cfg, v.ravel()).reshape(v.shape)[:, :-1]
    # the mean is taken on the positions times 2**-6 and scaled back, which is
    # exact: the positions lie in [0.045 a, 0.955 a], and a well that gets
    # here has 1.367e-304 <= a < DBL_MAX / (2 pi) (run_verification's guard
    # rejects narrower ones, _modes in the earlier checks wider ones), so each
    # scaled position stays 4.3 times above DBL_MIN and each sum of 256 of
    # them 1.6 times below DBL_MAX: nothing rounds, and a row whose plain
    # mean is finite keeps its bits
    means = np.mean(tracks * 2.0**-6, axis=1) * 2.0**6
    for A, sampled in zip(ratios.tolist(), means.tolist()):
        yield (abs(sampled - time_avg_node_position(ctx.cfg, A)),)


def _time_avg(ctx: SimpleNamespace) -> _Errors:
    # time averaging kills the interference term exactly: a midpoint rule
    # over one beat period is exact for a single harmonic
    t_mid = (np.arange(64) + 0.5) * (ctx.T / 64)
    grid = _Grid(ctx.cfg, ctx.xg[:, None], t_mid[None, :])
    for state, rho in grid.densities(_random_complex_states(ctx.rng, 5)):
        sampled = np.mean(rho, axis=1)
        yield (np.max(np.abs(time_avg_density(ctx.cfg, state, ctx.xg) - sampled)),)


def _heatmap_rows(ctx: SimpleNamespace) -> _Errors:
    grid = heatmap(ctx.cfg, 64, 16)
    yield (np.max(np.abs(np.trapezoid(grid.values, grid.x_values, axis=1) - 1.0)),)


def _special_times(ctx: SimpleNamespace) -> _Errors:
    # the three node notions agree where true zeros occur; a notion with no
    # node at one of these instants gives a NaN position, which fails the check
    state = TwoStateSuperposition(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    for t in (0.0, 0.5 * ctx.T, ctx.T):
        x_formula, x_re, x_min = (math.nan if x is None else x for x in
                                  (node_position(ctx.cfg, state, kind, t) for kind in NodeKind))
        yield (_worst(abs(x_re - x_formula), abs(x_min - x_formula)),
               float(density_exact(ctx.cfg, state, x_min, t)))


def _power_law(ctx: SimpleNamespace) -> _Errors:
    # amplitude sweep follows the fitted power law closely; the amplitude is a
    # length, so k scales with a while the exponent p is dimensionless
    ctx.fit = fit = fit_power_law(amplitude_sweep(ctx.cfg, SweepSpec(0.05, 1.0, 64)))
    yield (_worst(0.0, abs(fit.coefficient / ctx.a - 0.42) - 0.05,
                  abs(fit.exponent - 1.32) - 0.15),
           0.0 if 0.0 < fit.rms_log_residual < 0.3 else fit.rms_log_residual)


_CHECKS = (
    (_beat_frequency, ("delta-omega-formula",
                       "delta_omega = {dw!r} vs 3 pi^2 hbar / (2 m a^2), relative", 1, 1e-12)),
    (_wall_zeros, ("wall-boundary-zeros", "psi(0) and psi(a) for random states", 1, 0.0)),
    (_closed_form, ("closed-form-equivalence", "50 random complex states on a 256x64 grid",
                    "density", 1e-12)),
    (_norms, ("norm-value", "Simpson norm vs |c1|^2+|c2|^2, 20 random states", 1, 1e-8),
     ("norm-constancy", "norm spread over 10 times per state", 1, 1e-10)),
    (_beat_periodicity, ("density-beat-periodicity", "rho(x, t+T) vs rho(x, t)", "density",
                         1e-12)),
    (_stationary, ("stationary-eigenstate", "density variation of pure psi_1 and psi_2",
                   "density", 1e-13)),
    (_node_count, ("eigenfunction-node-count", "sign changes of psi_n, n = 1..6", 1, 0.0)),
    (_trajectory, ("trajectory-periodicity", "x(t+T) vs x(t) at A = 0.5", "length", 1e-12),
     ("trajectory-reflection", "x(t) + x(t+T/2) vs a at A = 0.5", "length", 1e-12)),
    (_amplitude, ("amplitude-arcsin", "Re Psi turning points vs oscillation amplitude and "
                  "(a/pi) arcsin A, 50 draws", "length", 1e-9)),
    (_mean_position, ("mean-node-position",
                      "sampled time average of x(t) vs a/2 for A up to 0.99", "length", 1e-9)),
    (_time_avg, ("time-avg-density-static-part",
                 "midpoint time average of the density vs stationary profile", "density", 1e-10)),
    (_heatmap_rows, ("heatmap-row-normalization", "trapezoid integral of 16 rows", 1, 1e-6)),
    (_special_times, ("special-time-agreement", "three node definitions at t = 0, T/2, T",
                      "length", 1e-8),
     ("special-time-zero-depth", "density at the common node", "density", 1e-10)),
    (_power_law, ("power-law-band", "fit k = {fit.coefficient!r}, p = {fit.exponent!r}", 1, 0.0),
     ("power-law-residual", "rms log residual = {fit.rms_log_residual!r}", 1, 0.0)),
)


def run_verification(cfg: WellConfig, seed: int = 0) -> list[CheckResult]:
    """Run every measure of _CHECKS in order and return one result per row."""
    a = cfg.width_a
    T = beat_period(cfg)
    if not math.isfinite(2.0 * T):
        raise ValueError(f"verify samples two beat periods, but 2T = {2.0 * T!r} is not "
                         f"finite for {cfg._label()}")
    # the largest intermediate of any check is a Simpson norm's weighted sum
    # on the density of a normalized state
    if not math.isfinite(peak := _NORM_SUM_BOUND / a):
        raise ValueError(f"verify's Simpson norm sums may reach {_NORM_SUM_BOUND}/a = "
                         f"{peak!r}, which is not finite for {cfg._label()}")
    ctx = SimpleNamespace(cfg=cfg, a=a, T=T, dw=delta_omega(cfg), xg=np.linspace(0.0, a, 256),
                          rng=np.random.default_rng(seed))
    results: list[CheckResult] = []
    for measure, *rows in _CHECKS:
        samples = list(measure(ctx))
        for i, (name, detail, scale, tol) in enumerate(rows):
            error = float(_worst(0.0, *(sample[i] for sample in samples)))
            tol = tol * a if scale == "length" else tol / a if scale == "density" else tol
            results.append(CheckResult(name, detail.format_map(vars(ctx)), error, tol))
    return results
