"""End-to-end acceptance battery.

Each test covers one numbered claim about the artifact, at its stated
tolerance, and prints a single PASS/FAIL line (visible with pytest -s).
The numbering is stable; do not reorder.
"""

import json
import math
import time

import numpy as np
import pytest

from boxnodes.analysis import (
    SweepSpec,
    amplitude_sweep,
    fit_power_law,
    heatmap,
    time_avg_node_position,
)
from boxnodes.cli import main
from boxnodes.nodes import analytic_node_position, ratio_from_state
from boxnodes.well import (
    TwoStateSuperposition,
    WellConfig,
    beat_period,
    delta_omega,
    density_closed_form,
    density_exact,
    eigenfunction,
    norm_integral,
)
from peaks import local_max_positions, peak_separation

CFG = WellConfig()
T = beat_period(CFG)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def golden_min(f, lo: float, hi: float, xtol: float) -> float:
    """Golden-section minimization of a unimodal function on [lo, hi].

    Returns the abscissa of the minimum to within xtol. It is the numeric
    oracle claim 08 checks the closed-form node position against.
    """
    x1 = lo + _INVPHI2 * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    while hi - lo > xtol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = lo + _INVPHI2 * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _report(number, claim, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {claim}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {claim}")


def test_01_difference_frequency():
    def body():
        assert abs(delta_omega(CFG) - 1.5 * math.pi**2) <= 1e-12

    _report(1, "delta_omega = 3*pi^2/2 within 1e-12", body)


def test_02_equal_mix_trajectory():
    def body():
        ratio = ratio_from_state(
            TwoStateSuperposition(1 / math.sqrt(2), 1 / math.sqrt(2)))
        assert ratio == 0.5
        ts = np.arange(256) * (T / 256)
        xs = np.array([analytic_node_position(CFG, ratio, t) for t in ts])
        assert abs(xs.min() - 1.0 / 3.0) <= 1e-9
        assert abs(xs.max() - 2.0 / 3.0) <= 1e-9
        for t in ts:
            drift = analytic_node_position(CFG, ratio, t + T) \
                - analytic_node_position(CFG, ratio, t)
            assert abs(drift) <= 1e-12

    _report(2, "equal mix sweeps [a/3, 2a/3] with period 2*pi/delta_omega", body)


def test_03_mean_node_position_centered():
    # The mean stays at a/2 for every |A| < 1, including arbitrarily close
    # to 1: x(t) + x(t + T/2) = a identically (arccos reflection), so any
    # drift seen near |A| = 1 in a sampled plot is quadrature error, not a
    # property of the formula.
    def body():
        ratios = [0.05 * k for k in range(1, 20)] + [0.99, 0.999999]
        for ratio in ratios:
            mean = time_avg_node_position(CFG, ratio)
            assert abs(mean - 0.5) <= 1e-9
            for k in range(128):
                t = k * (T / 256)
                pair = analytic_node_position(CFG, ratio, t) \
                    + analytic_node_position(CFG, ratio, t + T / 2)
                assert abs(pair - 1.0) <= 1e-12

    _report(3, "time-averaged node position = a/2 within 1e-9 up to |A|=0.999999",
            body)


def test_04_amplitude_power_law():
    def body():
        spec = SweepSpec(0.05, 1.0, 64, spacing="logarithmic")
        sweep = amplitude_sweep(CFG, spec)
        for ratio, amp in sweep.entries:
            assert abs(amp - math.asin(ratio) / math.pi) <= 1e-9
        fit = fit_power_law(sweep)
        assert abs(fit.coefficient - 0.42) <= 0.05
        assert abs(fit.exponent - 1.32) <= 0.15

    _report(4, "amplitude = (a/pi)*arcsin(A); fit k=0.42+/-0.05 p=1.32+/-0.15",
            body)


def test_05_heatmap_peak_structure():
    def body():
        grid = heatmap(CFG, x_count=64, mix_count=64)
        cell = 1.0 / 63.0
        ground = local_max_positions(grid.x_values, grid.values[0])
        assert len(ground) == 1
        assert abs(ground[0] - 0.5) <= cell
        excited = local_max_positions(grid.x_values, grid.values[-1])
        assert len(excited) == 2
        assert abs(excited[0] - 0.25) <= cell
        assert abs(excited[1] - 0.75) <= cell
        seps = [peak_separation(grid.x_values, row) for row in grid.values]
        for prev, cur in zip(seps, seps[1:]):
            assert cur >= prev - 1e-12

    _report(5, "heatmap peaks {a/2} -> {a/4, 3a/4}; separation non-decreasing",
            body)


def test_06_closed_form_equivalence():
    def body():
        rng = np.random.default_rng(412)
        xs = np.linspace(0.0, 1.0, 256)
        ts = np.arange(64) * (T / 64)
        worst = 0.0
        for _ in range(50):
            re, im = rng.standard_normal(2), rng.standard_normal(2)
            state = TwoStateSuperposition(complex(re[0], im[0]),
                                          complex(re[1], im[1]))
            for t in ts:
                diff = np.abs(np.asarray(density_closed_form(CFG, state, xs, t))
                              - np.asarray(density_exact(CFG, state, xs, t)))
                worst = max(worst, float(diff.max()))
        assert worst <= 1e-12

    _report(6, "closed form matches |psi|^2 within 1e-12 on 256x64, 50 states",
            body)


def test_07_norm_conservation():
    def body():
        rng = np.random.default_rng(77)
        ts = np.arange(10) * (T / 10)
        for _ in range(20):
            re, im = rng.standard_normal(2), rng.standard_normal(2)
            state = TwoStateSuperposition(complex(re[0], im[0]),
                                          complex(re[1], im[1]))
            norms = [norm_integral(CFG, state, t=t) for t in ts]
            for value in norms:
                assert abs(value - state.norm_sq()) <= 1e-8
            assert max(norms) - min(norms) <= 1e-10

    _report(7, "norm = |c1|^2+|c2|^2 within 1e-8, constant to 1e-10", body)


def test_08_true_zeros_only_at_special_times():
    # Brute-force scan: 2048 interior positions x 4096 times over one period.
    # Degenerate mixtures are excluded by construction: a vanishing c1 keeps
    # a near-permanent zero parked at a/2, and |A| within a few 1e-3 of 1
    # parks the node on a wall where the quadratic falloff of every state
    # dips below threshold; neither is the generic behavior under test.
    def body():
        t0 = time.monotonic()
        rng = np.random.default_rng(812)
        xs = np.linspace(0.0, 1.0, 2050)[1:-1]
        psi1 = np.asarray(eigenfunction(CFG, 1, xs))
        psi2 = np.asarray(eigenfunction(CFG, 2, xs))
        dw = delta_omega(CFG)
        ts = np.arange(4096) * (T / 4096)
        cos_ph = np.cos(dw * ts)
        special = np.abs(np.sin(dw * ts)) <= 1e-6

        for _ in range(20):
            theta = rng.uniform(0.15, math.pi / 2 - 0.15)
            c1 = math.cos(theta)
            c2 = float(rng.choice([-1.0, 1.0])) * math.sin(theta)
            ratio = c1 / (2.0 * c2)
            assert abs(abs(ratio) - 1.0) > 0.05
            state = TwoStateSuperposition(c1, c2)

            rho = (c1**2 * psi1**2 + c2**2 * psi2**2)[:, None] \
                + (2.0 * c1 * c2 * psi1 * psi2)[:, None] * cos_ph[None, :]
            hits = np.nonzero(rho <= 1e-10 * rho.max())[1]
            assert special[np.unique(hits)].all()

            if abs(ratio) <= 1.0:
                envelope = psi1**2 + psi2**2
                for k in (0, 2048):
                    t = float(ts[k])
                    i = int(np.argmin(rho[:, k] / envelope))
                    x_star = golden_min(
                        lambda x: float(density_exact(CFG, state, x, t)),
                        float(xs[max(i - 1, 0)]),
                        float(xs[min(i + 1, xs.size - 1)]),
                        1e-12)
                    expected = analytic_node_position(CFG, ratio, t)
                    assert abs(x_star - expected) <= 1e-8
                    assert density_exact(CFG, state, x_star, t) \
                        <= 1e-20 * rho.max()

        assert time.monotonic() - t0 < 30.0

    _report(8, "zeros only where |sin(dw t)| <= 1e-6, at the analytic position",
            body)


def test_09_eigenstate_node_count():
    def body():
        xs = np.linspace(0.0, 1.0, 10**4)[1:-1]
        for n in range(1, 7):
            values = np.asarray(eigenfunction(CFG, n, xs))
            flips = int(np.count_nonzero(np.diff(np.sign(values)) != 0))
            assert flips == n - 1

    _report(9, "psi_n shows n-1 interior sign changes for n = 1..6", body)


def test_10_cli_determinism(tmp_path):
    def body():
        t0 = time.monotonic()
        jobs = {
            "trajectory": (["trajectory", "--time-samples", "64"], "csv"),
            "sweep": (["amplitude-sweep", "--a-count", "16"], "json"),
            "avg": (["avg-position", "--a-count", "9"], "csv"),
            "heat": (["heatmap", "--grid", "16", "--mix-count", "8",
                      "--time-samples", "64"], "csv"),
        }
        for name, (args, ext) in jobs.items():
            first = tmp_path / f"{name}_1.{ext}"
            second = tmp_path / f"{name}_2.{ext}"
            assert main([*args, "--out", str(first)]) == 0
            assert main([*args, "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        sidecars = sorted(tmp_path.glob("sweep_*.fit.json"))
        assert len(sidecars) == 2
        assert sidecars[0].read_bytes() == sidecars[1].read_bytes()
        assert main(["verify"]) == 0
        assert time.monotonic() - t0 < 60.0

    _report(10, "subcommand reruns byte-identical; verify exits 0", body)
