"""End-to-end acceptance battery.

Each test covers one numbered claim about the artifact, at its stated
tolerance, and prints a single PASS/FAIL line (visible with pytest -s).
A claim that `verify` already checks asserts that check's result, so each
measurement has one copy. The numbering is stable; do not reorder.
"""

import functools
import math
import time

import numpy as np

from boxnodes.analysis import (
    SweepSpec,
    amplitude_sweep,
    heatmap,
    time_avg_node_position,
)
from boxnodes.cli import main
from boxnodes.nodes import NodeKind, node_position, ratio_from_state, track_trajectory
from boxnodes.verify import run_verification
from boxnodes.well import (
    TwoStateSuperposition,
    WellConfig,
    beat_period,
    delta_omega,
    density_exact,
    eigenfunction,
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


@functools.cache
def _verify_rows():
    """verify's checks on the unit well by name, run once on first use."""
    return {row.name: row for row in run_verification(CFG)}


def assert_verify_row(name: str, tol: float) -> None:
    """The verify check `name` passes, with its worst error within the claim's tol."""
    row = _verify_rows()[name]
    assert row.passed, row.format_line()
    assert row.error <= tol, row.format_line()


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
        state = TwoStateSuperposition(1 / math.sqrt(2), 1 / math.sqrt(2))
        assert ratio_from_state(state) == 0.5
        ts = np.arange(256) * (T / 256)
        xs = np.array([node_position(CFG, state, NodeKind.ANALYTIC, t) for t in ts])
        assert abs(xs.min() - 1.0 / 3.0) <= 1e-9
        assert abs(xs.max() - 2.0 / 3.0) <= 1e-9
        assert_verify_row("trajectory-periodicity", 1e-12)

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
            state = TwoStateSuperposition(2.0 * ratio, 1.0)  # c1 / (2 c2) == ratio exactly
            for k in range(128):
                t = k * (T / 256)
                pair = node_position(CFG, state, NodeKind.ANALYTIC, t) \
                    + node_position(CFG, state, NodeKind.ANALYTIC, t + T / 2)
                assert abs(pair - 1.0) <= 1e-12

    _report(3, "time-averaged node position = a/2 within 1e-9 up to |A|=0.999999",
            body)


def test_04_amplitude_power_law():
    def body():
        spec = SweepSpec(0.05, 1.0, 64, spacing="logarithmic")
        sweep = amplitude_sweep(CFG, spec)
        for ratio, amp in zip(sweep.ratios.tolist(), sweep.amplitudes.tolist()):
            assert abs(amp - math.asin(ratio) / math.pi) <= 1e-9
        # the band error is how far k or p lies outside its band
        assert_verify_row("power-law-band", 0.0)

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
        assert_verify_row("closed-form-equivalence", 1e-12)

    _report(6, "closed form matches |psi|^2 within 1e-12 on 256x64, 50 states",
            body)


def test_07_norm_conservation():
    def body():
        assert_verify_row("norm-value", 1e-8)
        assert_verify_row("norm-constancy", 1e-10)

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
                    expected = node_position(CFG, state, NodeKind.ANALYTIC, t)
                    assert abs(x_star - expected) <= 1e-8
                    assert density_exact(CFG, state, x_star, t) \
                        <= 1e-20 * rho.max()

        assert time.monotonic() - t0 < 30.0

    _report(8, "zeros only where |sin(dw t)| <= 1e-6, at the analytic position",
            body)


def test_09_eigenstate_node_count():
    def body():
        # the error is the number of n whose sign changes are not n - 1
        assert_verify_row("eigenfunction-node-count", 0)

    _report(9, "psi_n shows n-1 interior sign changes for n = 1..6", body)


def test_10_cli_determinism(tmp_path):
    def body():
        t0 = time.monotonic()
        jobs = {
            "trajectory": (["trajectory", "--time-samples", "64"], "csv"),
            "minimum": (["trajectory", "--kind", "minimum", "--time-samples", "8"], "csv"),
            "sweep": (["amplitude-sweep", "--a-count", "16"], "json"),
            "avg": (["avg-position", "--a-count", "9"], "csv"),
            "heat": (["heatmap", "--grid", "16", "--mix-count", "8"], "csv"),
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


def _repeats(positions: np.ndarray, lag: int, tol: float) -> bool:
    """Every instant has the node of the instant lag samples earlier: the same
    presence, and a position within tol."""
    present = ~np.isnan(positions)
    return bool(np.array_equal(present[lag:], present[:-lag])
                and np.all(np.abs(positions[lag:] - positions[:-lag])[present[lag:]] <= tol))


def test_11_numeric_node_periods():
    # The beat frequency measured from nodes found in Psi, not from the
    # analytic formula that contains dw by construction. |Psi|^2 depends on t
    # only through cos(dw t), so its minimum repeats after T = 2 pi / dw and is
    # mirrored, not repeated, after T/2. Re Psi of a real state is
    # c1 psi_1 cos(w1 t) + c2 psi_2 cos(w2 t) with w2 = 4 w1, so its zero
    # repeats only after 2 pi / w1 = 3T. Six periods are tracked, so that
    # every lag up to 3T compares three periods of instants.
    def body():
        per_period = 64
        rng = np.random.default_rng(1105)
        for _ in range(6):
            cfg = WellConfig(*np.exp(rng.uniform(math.log(0.3), math.log(3.0), 3)).tolist())
            period = beat_period(cfg)
            tol = 1e-12 * cfg.width_a
            c1 = 2.0 * float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.9))  # A = c1 / 2
            angle = rng.uniform(0.0, 2.0 * math.pi)
            phase = complex(math.cos(angle), math.sin(angle))
            tracks = [(NodeKind.DENSITY_MINIMUM, TwoStateSuperposition(c1, 1.0), 1),
                      (NodeKind.DENSITY_MINIMUM, TwoStateSuperposition(c1, phase), 1),
                      (NodeKind.REAL_PART_ZERO, TwoStateSuperposition(c1, 1.0), 3)]
            for kind, state, periods in tracks:
                positions = track_trajectory(cfg, state, kind, 0.0, 6.0 * period,
                                             6 * per_period + 1).positions
                lags = range(1, 3 * per_period + 1)
                smallest = next((lag for lag in lags if _repeats(positions, lag, tol)), None)
                assert smallest == periods * per_period, (cfg, state, kind, smallest)
                assert not _repeats(positions, per_period // 2, tol)

    _report(11, "numeric nodes repeat after T (density minimum) and 3T (Re Psi zero), "
            "to 1e-12*a", body)
