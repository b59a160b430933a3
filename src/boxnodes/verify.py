"""Self-check battery: every library-level invariant measured in one pass.

Each check reports the worst observed error against a fixed tolerance that
scales like the quantity it bounds (positions with a, densities with 1/a).
Randomized checks draw from a seeded generator, so a given seed always
produces the same printout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    analytic_node_position,
    find_density_minima,
    find_real_part_zeros,
    ratio_from_state,
    track_trajectory,
)
from .well import (
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


def _random_complex_state(rng: np.random.Generator) -> TwoStateSuperposition:
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return normalize(TwoStateSuperposition(c[0], c[1]))


def _density_work(grid: _Grid) -> dict[str, np.ndarray]:
    """Arrays for grid.density_exact(state, **work), the result in "out"."""
    return {"out": np.empty(grid.shape), "psi": np.empty(grid.shape, complex),
            "tmp": np.empty(grid.shape, complex)}


def run_verification(cfg: WellConfig, seed: int = 0) -> list[CheckResult]:
    """Run every invariant check and return one result per check."""
    rng = np.random.default_rng(seed)
    a = cfg.width_a
    T = beat_period(cfg)
    if not math.isfinite(2.0 * T):
        raise ValueError(f"verify samples two beat periods, but 2T = {2.0 * T!r} is not "
                         f"finite for a={a!r}, m={cfg.mass_m!r}, hbar={cfg.hbar!r}")
    dw = delta_omega(cfg)
    results: list[CheckResult] = []

    def add(name: str, detail: str, error: float, tol: float) -> None:
        results.append(CheckResult(name=name, detail=detail, error=float(error), tol=tol))

    # beat frequency against the closed form, in exact rationals rounded
    # once, so no intermediate such as a^2 can leave the float range;
    # imported here because fractions (with decimal) adds about 4 ms to
    # every import of the package, and only verify needs it
    from fractions import Fraction
    try:
        expected_dw = float(Fraction(3, 2) * Fraction(math.pi) ** 2 * Fraction(cfg.hbar)
                            / (Fraction(cfg.mass_m) * Fraction(a) ** 2))
        dw_err = abs(dw - expected_dw) / expected_dw
    except OverflowError:  # the exact value rounds past the largest float
        dw_err = math.inf
    add("delta-omega-formula",
        f"delta_omega = {dw!r} vs 3 pi^2 hbar / (2 m a^2), relative", dw_err, 1e-12)

    # wavefunction is exactly zero on the walls
    walls = np.array([0.0, a])
    worst = 0.0
    for _ in range(10):
        state = _random_complex_state(rng)
        t = float(rng.uniform(0.0, 2.0 * T))
        worst = max(worst, float(np.max(np.abs(evaluate_psi(cfg, state, walls, t)))))
    add("wall-boundary-zeros", "psi(0) and psi(a) for random states", worst, 0.0)

    # closed-form density equals the complex-arithmetic density; this check
    # and the norm and time-average checks each build one grid and its work
    # arrays, evaluate every state into them, and let both go before the next
    # check builds its own
    xg = np.linspace(0.0, a, 256)
    grid = _Grid(cfg, xg[:, None], np.linspace(0.0, T, 64)[None, :])
    work = _density_work(grid)
    d2 = np.empty(grid.shape)
    worst = 0.0
    for _ in range(50):
        state = _random_complex_state(rng)
        d1 = grid.density_exact(state, **work)
        np.subtract(d1, grid.density_closed_form(state, out=d2), out=d1)
        worst = max(worst, float(np.max(np.abs(d1, out=d1))))
    add("closed-form-equivalence", "50 random complex states on a 256x64 grid",
        worst, 1e-12 / a)
    del grid, work, d1, d2

    # Simpson norm equals |c1|^2 + |c2|^2 and does not drift in time
    grid = _norm_grid(cfg, np.linspace(0.0, T, 10))
    work = _density_work(grid)
    worst_norm = 0.0
    worst_spread = 0.0
    for _ in range(20):
        state = _random_complex_state(rng)
        norms = _simpson_norm(cfg, grid.density_exact(state, **work))
        worst_norm = max(worst_norm, float(np.max(np.abs(norms - state.norm_sq()))))
        worst_spread = max(worst_spread, float(np.max(norms) - np.min(norms)))
    add("norm-value", "Simpson norm vs |c1|^2+|c2|^2, 20 random states", worst_norm, 1e-8)
    add("norm-constancy", "norm spread over 10 times per state", worst_spread, 1e-10)
    del grid, work

    # the density repeats after one beat period
    worst = 0.0
    for _ in range(10):
        state = _random_complex_state(rng)
        t = float(rng.uniform(0.0, T))
        d1, d2 = density_exact(cfg, state, xg, np.array([[t], [t + T]]))
        worst = max(worst, float(np.max(np.abs(d1 - d2))))
    add("density-beat-periodicity", "rho(x, t+T) vs rho(x, t)", worst, 1e-12 / a)

    # pure eigenstates have static densities
    worst = 0.0
    for coeffs in ((1.0, 0.0), (0.0, 1.0)):
        state = TwoStateSuperposition(*coeffs)
        profiles = density_exact(cfg, state, xg, np.linspace(0.0, T, 7)[:, None])
        worst = max(worst, float(np.max(profiles.max(axis=0) - profiles.min(axis=0))))
    add("stationary-eigenstate", "density variation of pure psi_1 and psi_2", worst,
        1e-13 / a)

    # psi_n has exactly n-1 interior nodes
    mismatches = 0
    xs_fine = np.linspace(0.0, a, 10_001)[1:-1]
    for n in range(1, 7):
        vals = eigenfunction(cfg, n, xs_fine)
        crossings = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        if crossings != n - 1:
            mismatches += 1
    add("eigenfunction-node-count", "sign changes of psi_n, n = 1..6", mismatches, 0.0)

    # analytic trajectory: beat periodicity and half-period reflection
    def analytic_track(A: float, t_start: float, t_end: float, n: int) -> np.ndarray:
        state = TwoStateSuperposition(2.0 * A, 1.0)
        return track_trajectory(cfg, state, NodeKind.ANALYTIC, t_start, t_end, n).positions

    x_t = analytic_track(0.5, 0.0, T, 256)
    x_tT = analytic_track(0.5, T, 2.0 * T, 256)
    x_half = analytic_track(0.5, 0.5 * T, 1.5 * T, 256)
    add("trajectory-periodicity", "x(t+T) vs x(t) at A = 0.5",
        float(np.max(np.abs(x_tT - x_t))), 1e-12 * a)
    add("trajectory-reflection", "x(t) + x(t+T/2) vs a at A = 0.5",
        float(np.max(np.abs(x_t + x_half - a))), 1e-12 * a)

    # the Re Psi zeros at t = 0 and T/2 of c1 = 2 A c2 are the turning points
    # of the node, half an excursion (a/pi) arcsin(A) either side of a/2; all
    # draws are solved in one pass by the helpers find_real_part_zeros runs
    draws = rng.uniform(0.01, 1.0, size=50)
    v = _real_part_zero_v(cfg, 2.0 * draws[:, None], 1.0, np.array([0.0, 0.5 * T]))
    turns = _positions(cfg, v.ravel()).reshape(v.shape)
    worst = 0.0
    for A, (x_0, x_half) in zip(draws.tolist(), turns.tolist()):
        if math.isnan(x_0) or math.isnan(x_half):
            worst = math.inf
            break
        measured = 0.5 * (x_0 - x_half)
        # oscillation_amplitude is (a/pi) arcsin A, so one term covers both
        worst = max(worst, abs(measured - oscillation_amplitude(cfg, A)))
    add("amplitude-arcsin", "Re Psi turning points vs oscillation amplitude and "
        "(a/pi) arcsin A, 50 draws", worst, 1e-9 * a)

    # the time-averaged node position is the well center; an even grid of 256
    # instants (one period, end point dropped) pairs each instant with its
    # half-period reflection; all ratios are solved in one pass by the
    # helpers track_trajectory runs
    ratios = np.append(np.linspace(0.05, 0.95, 19), 0.99)
    v = _analytic_v(cfg, ratios[:, None], np.linspace(0.0, T, 257))
    tracks = _positions(cfg, v.ravel()).reshape(v.shape)
    worst = 0.0
    for A, x in zip(ratios.tolist(), tracks):
        sampled = np.mean(x[:-1])
        worst = max(worst, abs(sampled - time_avg_node_position(cfg, A)))
    add("mean-node-position", "sampled time average of x(t) vs a/2 for A up to 0.99",
        worst, 1e-9 * a)

    # time averaging kills the interference term exactly: a midpoint rule
    # over one beat period is exact for a single harmonic
    t_mid = (np.arange(64) + 0.5) * (T / 64)
    grid = _Grid(cfg, xg[:, None], t_mid[None, :])
    work = _density_work(grid)
    worst = 0.0
    for _ in range(5):
        state = _random_complex_state(rng)
        sampled = np.mean(grid.density_exact(state, **work), axis=1)
        avg = time_avg_density(cfg, state, xg)
        worst = max(worst, float(np.max(np.abs(avg - sampled))))
    add("time-avg-density-static-part", "midpoint time average of the density vs "
        "stationary profile", worst, 1e-10 / a)
    del grid, work

    # every heatmap row stays a normalized density profile
    grid = heatmap(cfg, 64, 16)
    row_norms = np.trapezoid(grid.values, grid.x_values, axis=1)
    add("heatmap-row-normalization", "trapezoid integral of 16 rows",
        float(np.max(np.abs(row_norms - 1.0))), 1e-6)

    # the three node notions agree where true zeros occur
    state = TwoStateSuperposition(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
    A = ratio_from_state(state)
    worst_pos = 0.0
    worst_rho = 0.0
    for t in (0.0, 0.5 * T, T):
        x_formula = analytic_node_position(cfg, A, t)
        # each finder returns at most one node, and these instants have one
        (x_re,) = find_real_part_zeros(cfg, state, t)
        ((x_min, rho_min),) = find_density_minima(cfg, state, t)
        worst_pos = max(worst_pos, abs(x_re - x_formula), abs(x_min - x_formula))
        worst_rho = max(worst_rho, rho_min)
    add("special-time-agreement", "three node definitions at t = 0, T/2, T",
        worst_pos, 1e-8 * a)
    add("special-time-zero-depth", "density at the common node", worst_rho, 1e-10 / a)

    # amplitude sweep follows the fitted power law closely; the amplitude is a
    # length, so k scales with a while the exponent p is dimensionless
    sweep = amplitude_sweep(cfg, SweepSpec(a_min=0.05, a_max=1.0, count=64))
    fit = fit_power_law(sweep)
    band_err = max(0.0, abs(fit.coefficient / a - 0.42) - 0.05,
                   abs(fit.exponent - 1.32) - 0.15)
    add("power-law-band", f"fit k = {fit.coefficient!r}, p = {fit.exponent!r}",
        band_err, 0.0)
    resid_err = 0.0 if 0.0 < fit.rms_log_residual < 0.3 else fit.rms_log_residual
    add("power-law-residual", f"rms log residual = {fit.rms_log_residual!r}",
        resid_err, 0.0)

    return results
