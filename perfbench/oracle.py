"""Closed-form references for every result the benchmark checks.

Nothing here imports boxnodes: each reference is derived from the physics of
two states in an infinite well of width a, where with v = cos(pi x / a)

    Re Psi = sqrt(2/a) sin(pi x / a) [c1 cos(w1 t) + 2 c2 cos(w2 t) v]
    |Psi|^2 = (2/a) (1 - v^2) (alpha + gamma v + beta v^2)

with alpha = |c1|^2, beta = 4 |c2|^2 and gamma = 4 Re(c1 conj(c2) e^{i dw t}).

Tolerances are those of the package's own tests, scaled by the well width a
for positions, by 1/a for densities and by the beat period T for times. Each
check returns a Verdict: the worst error per category in those units, and
the list of mismatches (an error over tolerance or a node present on one side
only).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# tolerances, in units of a (positions), T (times) or 1/a (densities)
TOL_REPART = 1e-9
TOL_MINIMUM = 1e-7
TOL_ZERO_TIME = 1e-9
TOL_AMPLITUDE = 1e-9
TOL_MEAN_POSITION = 1e-9
TOL_DENSITY = 1e-10
TOL_FIT = 1e-6

# the default sweep (0.05..1.0, 64 points, logarithmic) has a frozen fit at a = 1;
# the coefficient scales with a, the exponent does not
FROZEN_FIT = (0.412703874, 1.238436671)
DEFAULT_SPEC = (0.05, 1.0, 64, "logarithmic")

# instants where the closed form itself is ill-conditioned, skipped the same
# way tests/test_nodes.py skips them
_DEGENERATE_DENOM = 1e-6
_DEGENERATE_U = 1e-5
_NEAR_DOUBLE_ROOT = 1e-6


@dataclass(frozen=True)
class Well:
    a: float
    m: float
    hbar: float

    @property
    def omegas(self) -> tuple[float, float]:
        e1 = (math.pi * self.hbar / self.a) ** 2 / (2.0 * self.m)
        return e1 / self.hbar, 4.0 * e1 / self.hbar

    @property
    def period(self) -> float:
        w1, w2 = self.omegas
        return 2.0 * math.pi / (w2 - w1)


@dataclass
class Verdict:
    errors: dict[str, float] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    skipped: int = 0
    counts: Counter = field(default_factory=Counter)

    def error(self, category: str, err: float, tol: float, what: str) -> None:
        err = float(err)
        if not err <= tol:  # NaN counts as a mismatch
            self.mismatches.append(f"{what}: error {err:.3e} > {tol:.1e}")
        if not err <= self.errors.get(category, -1.0):
            self.errors[category] = err

    def mismatch(self, what: str) -> None:
        self.mismatches.append(what)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def psi_sq(well: Well, n: int, x) -> np.ndarray:
    return (2.0 / well.a) * np.sin(n * math.pi * np.asarray(x, dtype=float) / well.a) ** 2


@lru_cache(maxsize=1 << 16)
def repart_zero(well: Well, c1: float, c2: float, t: float):
    """Interior zero of Re Psi at t: a position, None when absent, or "skip"."""
    w1, w2 = well.omegas
    denom = 2.0 * c2 * math.cos(w2 * t)
    if abs(denom) < _DEGENERATE_DENOM:
        return "skip"
    u = -c1 * math.cos(w1 * t) / denom
    if abs(abs(u) - 1.0) <= _DEGENERATE_U:
        return "skip"
    return well.a / math.pi * math.acos(u) if abs(u) < 1.0 else None


@lru_cache(maxsize=1 << 16)
def density_minima(well: Well, c1: complex, c2: complex, t: float):
    """Interior minima of |Psi|^2 at t as sorted positions, or "skip".

    The minima are the roots in (-1, 1) of the derivative cubic
    -4 beta v^3 - 3 gamma v^2 + 2 (beta - alpha) v + gamma with positive
    curvature. Instants where two critical points nearly merge are skipped.
    """
    w1, w2 = well.omegas
    alpha = abs(c1) ** 2
    beta = 4.0 * abs(c2) ** 2
    gamma = 4.0 * (c1 * np.conj(c2) * np.exp(1j * (w2 - w1) * t)).real
    cubic = np.array([-4.0 * beta, -3.0 * gamma, 2.0 * (beta - alpha), gamma])
    scale = float(np.max(np.abs(cubic)))
    roots = np.roots(cubic)
    real = []
    for r in roots:
        if abs(r.imag) > _NEAR_DOUBLE_ROOT:
            continue
        v = float(r.real)
        for _ in range(3):  # Newton polish of the companion-matrix root
            d = np.polyval(np.polyder(cubic), v)
            if d == 0.0:
                break
            v -= np.polyval(cubic, v) / d
        real.append(v)
    real.sort()
    if any(b - a_ < _NEAR_DOUBLE_ROOT for a_, b in zip(real, real[1:])):
        return "skip"
    out = []
    for v in real:
        if not -1.0 < v < 1.0:
            continue
        curvature = -12.0 * beta * v * v - 6.0 * gamma * v + 2.0 * (beta - alpha)
        if abs(curvature) <= _NEAR_DOUBLE_ROOT * scale:
            return "skip"
        if curvature > 0.0:
            out.append(well.a / math.pi * math.acos(v))
    return tuple(sorted(out))


def zero_times(well: Well, c1: float, c2: float) -> list[float]:
    """True-zero instants of a real state over one beat period: t = k T / 2 when
    |A| < 1, none otherwise."""
    if abs(c1 / (2.0 * c2)) >= 1.0:
        return []
    return [0.5 * k * well.period for k in range(3)]


def analytic_position(well: Well, ratio: float, t: float):
    w1, w2 = well.omegas
    u = -ratio * math.cos((w2 - w1) * t)
    return None if abs(u) > 1.0 else well.a / math.pi * math.acos(u)


def amplitude(well: Well, ratio: float) -> float:
    return well.a / math.pi * math.asin(ratio)


def static_density(well: Well, c1: complex, c2: complex, x) -> np.ndarray:
    return abs(c1) ** 2 * psi_sq(well, 1, x) + abs(c2) ** 2 * psi_sq(well, 2, x)


def spec_values(a_min: float, a_max: float, count: int, spacing: str) -> np.ndarray:
    if spacing == "logarithmic":
        return np.exp(np.linspace(math.log(a_min), math.log(a_max), count))
    return np.linspace(a_min, a_max, count)


def power_law_fit(ratios, amps) -> tuple[float, float, float]:
    """Least-squares k * A**p through (ratios, amps) by Levenberg-Marquardt.

    Returns (k, p, rms log residual), seeded from the log-log line.
    """
    x = np.asarray(ratios, dtype=float)
    y = np.asarray(amps, dtype=float)
    p, logk = np.polyfit(np.log(x), np.log(y), 1)
    k = math.exp(logk)

    def cost(k_: float, p_: float) -> float:
        r = k_ * x**p_ - y
        return float(r @ r)

    c = cost(k, p)
    lam = 1e-3
    for _ in range(500):
        xp = x**p
        r = k * xp - y
        jac = np.column_stack([xp, k * xp * np.log(x)])
        hess = jac.T @ jac
        step = np.linalg.solve(hess + lam * np.diag(np.diag(hess)), -(jac.T @ r))
        trial = cost(k + step[0], p + step[1])
        if trial < c:
            k, p, c = k + step[0], p + step[1], trial
            lam = max(lam * 0.3, 1e-12)
            if abs(step[0]) <= 1e-15 * abs(k) and abs(step[1]) <= 1e-15 * max(abs(p), 1.0):
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    resid = np.log(y) - np.log(k * x**p)
    return k, p, float(np.sqrt(np.mean(resid**2)))


# ---- checks against the references -------------------------------------


def check_track(verdict: Verdict, well: Well, kind: str, c1, c2, samples) -> None:
    """samples: (t, position or None) pairs of a tracked trajectory."""
    for t, pos in samples:
        if kind == "real-part-zero":
            ref = repart_zero(well, c1.real, c2.real, t)
            category, tol = "repart", TOL_REPART
            ref = ref if ref is None or ref == "skip" else [ref]
        else:
            ref = density_minima(well, c1, c2, t)
            category, tol = "minimum", TOL_MINIMUM
        if ref == "skip":
            verdict.skipped += 1
            continue
        if not ref:
            if pos is not None:
                verdict.mismatch(f"{kind} t={t!r}: node at {pos!r}, reference has none")
            continue
        if pos is None:
            verdict.mismatch(f"{kind} t={t!r}: no node, reference has {ref!r}")
            continue
        err = min(abs(pos - r) for r in ref) / well.a
        verdict.error(category, err, tol, f"{kind} t={t!r}")


def check_zero_times(verdict: Verdict, well: Well, c1: float, c2: float, times) -> None:
    ref = zero_times(well, c1, c2)
    if len(ref) != len(times):
        verdict.mismatch(f"zero times: got {len(times)}, reference {len(ref)}")
        return
    T = well.period
    for got, want in zip(times, ref):
        verdict.error("zero_time", abs(got - want) / T, TOL_ZERO_TIME, f"zero time {want!r}")


def check_analytic_track(verdict: Verdict, well: Well, ratio: float, samples) -> None:
    for t, pos in samples:
        ref = analytic_position(well, ratio, t)
        if ref is None or pos is None:
            if (ref is None) != (pos is None):
                verdict.mismatch(f"analytic t={t!r}: got {pos!r}, reference {ref!r}")
            continue
        verdict.error("analytic", abs(pos - ref) / well.a, TOL_REPART, f"analytic t={t!r}")


def check_sweep(verdict: Verdict, well: Well, spec, entries) -> None:
    ratios = spec_values(*spec)
    if len(entries) != len(ratios):
        verdict.mismatch(f"sweep: {len(entries)} entries, spec has {len(ratios)}")
        return
    for (A, amp), want_A in zip(entries, ratios):
        if abs(A - want_A) > 1e-12 * want_A:
            verdict.mismatch(f"sweep ratio {A!r} != {want_A!r}")
        verdict.error("amplitude", abs(amp - amplitude(well, A)) / well.a,
                      TOL_AMPLITUDE, f"amplitude at A={A!r}")


def check_fit(verdict: Verdict, well: Well, spec, k: float, p: float) -> None:
    """The default spec must reproduce the frozen fit; any other spec must reach
    the least-squares optimum to a relative residual excess of TOL_FIT (the
    parameters themselves are only determined to ~1e-7 by a flat optimum)."""
    if tuple(spec) == DEFAULT_SPEC:
        verdict.error("fit", abs(k - FROZEN_FIT[0] * well.a) / well.a, TOL_FIT,
                      "fit coefficient")
        verdict.error("fit", abs(p - FROZEN_FIT[1]), TOL_FIT, "fit exponent")
        return
    x = spec_values(*spec)
    y = np.array([amplitude(well, A) for A in x])
    k_ref, p_ref, _ = power_law_fit(x, y)
    best = float(np.sum((k_ref * x**p_ref - y) ** 2))
    got = float(np.sum((k * x**p - y) ** 2))
    verdict.error("fit", (got - best) / best, TOL_FIT, "fit residual excess")


def check_mean_position(verdict: Verdict, well: Well, value: float) -> None:
    verdict.error("mean_position", abs(value - 0.5 * well.a) / well.a, TOL_MEAN_POSITION,
                  "mean node position")


def check_density(verdict: Verdict, well: Well, c1, c2, x, values) -> None:
    err = np.max(np.abs(np.asarray(values, dtype=float) - static_density(well, c1, c2, x)))
    verdict.error("density", float(err) * well.a, TOL_DENSITY, "time-averaged density")


def check_heatmap(verdict: Verdict, well: Well, x_count: int, mix_count: int,
                  x_values, mix_values, values) -> None:
    xs = np.linspace(0.0, well.a, x_count)
    thetas = np.linspace(0.0, math.pi / 2.0, mix_count)
    values = np.asarray(values, dtype=float)
    if values.shape != (mix_count, x_count):
        verdict.mismatch(f"heatmap shape {values.shape} != {(mix_count, x_count)}")
        return
    if np.max(np.abs(np.asarray(x_values) - xs)) > 1e-12 * well.a \
            or np.max(np.abs(np.asarray(mix_values) - thetas)) > 1e-12:
        verdict.mismatch("heatmap axes differ from the requested grid")
    ref = (np.cos(thetas)[:, None] ** 2 * psi_sq(well, 1, xs)[None, :]
           + np.sin(thetas)[:, None] ** 2 * psi_sq(well, 2, xs)[None, :])
    verdict.error("density", float(np.max(np.abs(values - ref))) * well.a, TOL_DENSITY,
                  "heatmap density")
