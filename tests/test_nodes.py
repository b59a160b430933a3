"""Node finders and trajectory tracking, checked against closed forms."""

import cmath
import math
import re
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxnodes import nodes
from boxnodes.nodes import (
    NodeKind,
    analytic_node_position,
    exact_zero_times,
    find_density_minima,
    find_real_part_zeros,
    ratio_from_state,
    track_trajectory,
)
from boxnodes.verify import run_verification
from boxnodes.well import (
    TwoStateSuperposition,
    WellConfig,
    beat_period,
    delta_omega,
    density_exact,
    omega,
)

UNIT = WellConfig()
T = beat_period(UNIT)
EQUAL_MIX = TwoStateSuperposition(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

ratios = st.floats(min_value=-0.999, max_value=0.999)
times = st.floats(min_value=0.0, max_value=3.0)


class TestRatio:
    def test_equal_mix(self):
        assert ratio_from_state(EQUAL_MIX) == pytest.approx(0.5, abs=1e-15)

    def test_three_four(self):
        assert ratio_from_state(TwoStateSuperposition(0.6, 0.8)) == pytest.approx(
            0.375, abs=1e-15)

    def test_degenerate_c2(self):
        with pytest.raises(ValueError, match="degenerate"):
            ratio_from_state(TwoStateSuperposition(1.0, 0.0))

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValueError, match="real"):
            ratio_from_state(TwoStateSuperposition(1.0j, 1.0))

    def test_negative_ratio(self):
        assert ratio_from_state(TwoStateSuperposition(-1.0, 1.0)) == -0.5


class TestAnalyticPosition:
    def test_equal_mix_start(self):
        # arccos(1/2) / pi = 1/3 of the width, measured from the far wall
        assert analytic_node_position(UNIT, 0.5, 0.0) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_equal_mix_half_period(self):
        t = math.pi / delta_omega(UNIT)
        assert analytic_node_position(UNIT, 0.5, t) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_zero_ratio_sits_at_center(self):
        for t in (0.0, 0.1, 0.7):
            assert analytic_node_position(UNIT, 0.0, t) == pytest.approx(0.5, abs=1e-15)

    def test_absent_when_ratio_large(self):
        assert analytic_node_position(UNIT, 1.5, 0.0) is None

    def test_large_ratio_present_mid_beat(self):
        # cos(dw t) passes through zero, so even A = 1.5 has windows of existence
        pos = analytic_node_position(UNIT, 1.5, 0.25 * T)
        assert pos is not None
        assert pos == pytest.approx(0.5, abs=1e-12)

    def test_nonfinite_ratio_rejected(self):
        with pytest.raises(ValueError):
            analytic_node_position(UNIT, math.inf, 0.0)

    def test_width_scaling(self):
        wide = WellConfig(width_a=3.0)
        assert analytic_node_position(wide, 0.5, 0.0) == pytest.approx(
            2.0, abs=1e-12)

    @given(ratios, times)
    @settings(max_examples=100)
    def test_stays_inside_the_well(self, A, t):
        pos = analytic_node_position(UNIT, A, t)
        assert pos is not None
        assert 0.0 <= pos <= 1.0

    @given(ratios, times)
    @settings(max_examples=100)
    def test_beat_periodicity(self, A, t):
        x1 = analytic_node_position(UNIT, A, t)
        x2 = analytic_node_position(UNIT, A, t + T)
        assert abs(x1 - x2) <= 1e-11

    @given(ratios, times)
    @settings(max_examples=100)
    def test_half_period_reflection(self, A, t):
        # arccos(-u) + arccos(u) = pi makes x(t) + x(t + T/2) = a
        x1 = analytic_node_position(UNIT, A, t)
        x2 = analytic_node_position(UNIT, A, t + 0.5 * T)
        assert abs(x1 + x2 - 1.0) <= 1e-11


class TestRealPartZeros:
    def test_equal_mix_start(self):
        zeros = find_real_part_zeros(UNIT, EQUAL_MIX, 0.0)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_equal_mix_half_period(self):
        zeros = find_real_part_zeros(UNIT, EQUAL_MIX, 0.5 * T)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_pure_excited_center(self):
        zeros = find_real_part_zeros(UNIT, TwoStateSuperposition(0.0, 1.0), 0.1)
        assert len(zeros) == 1
        assert zeros[0] == pytest.approx(0.5, abs=1e-10)

    def test_pure_ground_has_none(self):
        assert find_real_part_zeros(UNIT, TwoStateSuperposition(1.0, 0.0), 0.2) == []

    def test_complex_state_rejected(self):
        with pytest.raises(ValueError, match="real"):
            find_real_part_zeros(UNIT, TwoStateSuperposition(1.0j, 1.0), 0.0)

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_zeros_satisfy_closed_form(self, c1, c2, frac):
        """Every reported zero solves cos(pi x / a) = -c1 cos(w1 t) / (2 c2 cos(w2 t))."""
        state = TwoStateSuperposition(c1, c2)
        t = frac * T
        denom = 2.0 * c2 * math.cos(omega(UNIT, 2) * t)
        if abs(denom) < 1e-6:  # nearly degenerate instants are a separate regime
            return
        u = -c1 * math.cos(omega(UNIT, 1) * t) / denom
        zeros = find_real_part_zeros(UNIT, state, t)
        for z in zeros:
            assert abs(math.cos(math.pi * z) - u) <= 1e-9
        if abs(u) <= 1.0 - 1e-5:
            # an interior zero must then exist, and the finder must see it
            expected = math.acos(u) / math.pi
            assert any(abs(z - expected) <= 1e-9 for z in zeros)


class TestDensityMinima:
    def test_equal_mix_true_zero(self):
        minima = find_density_minima(UNIT, EQUAL_MIX, 0.0)
        assert len(minima) == 1
        x, rho = minima[0]
        assert x == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert rho <= 1e-8

    def test_equal_mix_quarter_period(self):
        # interference is switched off here; the mixed profile has one dip
        minima = find_density_minima(UNIT, EQUAL_MIX, 0.25 * T)
        assert len(minima) == 1
        x, rho = minima[0]
        assert x == pytest.approx(0.5, abs=1e-6)
        assert rho == pytest.approx(1.0, rel=1e-6)
        assert rho > 0.0

    def test_pure_excited_permanent_node(self):
        minima = find_density_minima(UNIT, TwoStateSuperposition(0.0, 1.0), 0.3)
        assert len(minima) == 1
        assert minima[0][0] == pytest.approx(0.5, abs=1e-8)
        assert minima[0][1] <= 1e-15

    def test_pure_ground_has_no_interior_minimum(self):
        assert find_density_minima(UNIT, TwoStateSuperposition(1.0, 0.0), 0.0) == []

    def test_complex_states_allowed(self):
        minima = find_density_minima(UNIT, TwoStateSuperposition(1.0j, 1.0), 0.0)
        assert all(0.0 < x < 1.0 and rho >= 0.0 for x, rho in minima)

    def test_matches_dense_scan(self):
        """Independent oracle: interior minima of a 20,001-point density scan.

        Instants where two critical points (or one and a wall) lie within a
        few cells of each other are skipped; the scan cannot separate them.
        """
        rng = np.random.default_rng(2024)
        cfg = WellConfig(width_a=1.7, mass_m=0.6, hbar=1.3)
        a = cfg.width_a
        n = 20_000
        h = a / n
        xs = np.linspace(0.0, a, n + 1)
        checked = 0
        for _ in range(200):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            state = TwoStateSuperposition(c[0], c[1])
            t = float(rng.uniform(0.0, beat_period(cfg)))
            rho = density_exact(cfg, state, xs, t)
            slope = np.sign(np.diff(rho))
            turns = np.flatnonzero(slope[:-1] != slope[1:]) + 1
            edges = np.concatenate(([0], turns, [n]))
            if np.any(np.diff(edges) < 8):
                continue
            checked += 1
            scan = [i for i in turns if slope[i - 1] < 0]
            found = find_density_minima(cfg, state, t)
            assert len(found) == len(scan)
            for i, (x, rho_min) in zip(scan, found):
                assert abs(x - xs[i]) <= h
                assert rho_min <= rho[i] * (1.0 + 1e-12)
        assert checked >= 180

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_minima_are_local_minima(self, frac):
        t = frac * T
        eps = 1e-4
        for x, rho in find_density_minima(UNIT, EQUAL_MIX, t):
            left = density_exact(UNIT, EQUAL_MIX, max(x - eps, 0.0), t)
            right = density_exact(UNIT, EQUAL_MIX, min(x + eps, 1.0), t)
            assert rho <= left + 1e-12
            assert rho <= right + 1e-12


class TestExactZeroTimes:
    def test_equal_mix_one_period(self):
        found = exact_zero_times(UNIT, EQUAL_MIX, period_count=1)
        expected = [0.0, 0.5 * T, T]
        assert len(found) == 3
        for got, want in zip(found, expected):
            assert got == pytest.approx(want, abs=1e-9)

    def test_equal_mix_two_periods(self):
        found = exact_zero_times(UNIT, EQUAL_MIX, period_count=2)
        assert len(found) == 5
        assert found[-1] == pytest.approx(2.0 * T, abs=1e-9)

    def test_dip_between_samples_is_refined(self):
        # an odd sample count puts T/2 exactly midway between two samples;
        # the zeros come from the formula, so no sample is needed there
        found = exact_zero_times(UNIT, EQUAL_MIX, period_count=1,
                                 samples_per_period=511)
        assert len(found) == 3
        assert found[1] == pytest.approx(0.5 * T, abs=1e-9)

    @pytest.mark.parametrize("c1", [1e-300, 1e-8, 1e-5, 1e-4])
    @pytest.mark.parametrize("kwargs", [{}, {"samples_per_period": 64}],
                             ids=["default", "64-samples"])
    def test_small_ratio_has_only_the_half_period_zeros(self, c1, kwargs):
        # near pure psi_2 the density is almost zero at a/2 at every instant,
        # but it vanishes only where sin(dw t) = 0
        found = exact_zero_times(UNIT, TwoStateSuperposition(c1, 1.0), **kwargs)
        assert found == [0.0, 0.5 * T, T]

    def test_zero_positions_follow_formula(self):
        # at sin(dw t) = 0 the zero sits at (a/pi) arccos(-+A)
        state = TwoStateSuperposition(0.6, 0.8)
        A = ratio_from_state(state)
        for k, t in enumerate(exact_zero_times(UNIT, state, period_count=1)):
            expected = analytic_node_position(UNIT, A, t)
            minima = find_density_minima(UNIT, state, t)
            x, rho = min(minima, key=lambda pair: pair[1])
            assert rho <= 1e-10
            assert x == pytest.approx(expected, abs=1e-7)

    def test_large_ratio_never_vanishes(self):
        # |A| = 3.05 > 1: the formula has no solution at the critical instants
        state = TwoStateSuperposition(0.987, 0.162)
        assert exact_zero_times(UNIT, state, period_count=1) == []

    @pytest.mark.parametrize("c1", [2.0, -2.0])
    def test_unit_ratio_touches_only_the_walls(self, c1):
        # |A| = 1: at t = k T/2 the zero sits on a wall, which is not interior
        assert exact_zero_times(UNIT, TwoStateSuperposition(c1, 1.0)) == []

    def test_pure_ground_never_vanishes(self):
        assert exact_zero_times(UNIT, TwoStateSuperposition(1.0, 0.0)) == []

    def test_pure_excited_always_vanishes(self):
        # the permanent node of psi_2 qualifies at every sampled instant
        found = exact_zero_times(UNIT, TwoStateSuperposition(0.0, 1.0))
        assert len(found) == 513
        assert found[0] == 0.0
        assert found[-1] == pytest.approx(T, abs=1e-12)

    def test_complex_state_rejected(self):
        with pytest.raises(ValueError, match="real"):
            exact_zero_times(UNIT, TwoStateSuperposition(1.0j, 1.0))

    def test_bad_period_count(self):
        with pytest.raises(ValueError):
            exact_zero_times(UNIT, EQUAL_MIX, period_count=0)


def _loop_density_minimum(cfg, state, t):
    """Smallest-x interior minimum of |Psi|^2 at one instant, by np.roots."""
    cross = state.c1 * state.c2.conjugate() * cmath.exp(1j * delta_omega(cfg) * t)
    alpha, beta, gamma = abs(state.c1) ** 2, 4.0 * abs(state.c2) ** 2, 4.0 * cross.real
    df = np.polyder(np.array([-beta, -gamma, beta - alpha, gamma, alpha]))
    roots = np.roots(df)
    v = np.sort(roots[roots.imag == 0.0].real)
    close = np.diff(v) < 1e-6
    v = v[~(np.append(close, False) | np.insert(close, 0, False))]
    v = v[(v > -1.0) & (v < 1.0)]
    v_min = v[np.polyval(np.polyder(df), v) > 0.0]
    return cfg.width_a / math.pi * math.acos(v_min.max()) if v_min.size else None


def _exact_minimum_v(alpha, beta, gamma):
    """Minimum of f(v) = (1 - v^2)(alpha + gamma v + beta v^2) in (-1, 1), in stdlib arithmetic.

    Works on the three floats exactly: the minimum is the middle root
    of f'(v) = -4 beta v^3 - 3 gamma v^2 + 2 (beta - alpha) v + gamma when its
    discriminant is positive (three distinct real roots) and that root lies
    in (-1, 1). Returns it as a Decimal good to about 45 digits, or None.
    """
    # over a common power-of-two denominator, which moves no root
    ratios = [x.as_integer_ratio() for x in (alpha, beta, gamma)]
    den = max(d for _, d in ratios)
    al, be, ga = (n * (den // d) for n, d in ratios)
    a, b, c, d = -4 * be, -3 * ga, 2 * (be - al), ga
    if a == 0 or (18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3
                  - 27 * a * a * d * d) <= 0:
        return None
    with localcontext() as ctx:
        ctx.prec = 60
        A, B, C, D = map(Decimal, (a, b, c, d))

        def f1(v):
            return ((A * v + B) * v + C) * v + D

        # f' rises between its two turning points, through the middle root
        s = (B * B - 3 * A * C).sqrt()
        lo, hi = sorted(((-B + s) / (3 * A), (-B - s) / (3 * A)))
        lo, hi = max(lo, Decimal(-1)), min(hi, Decimal(1))
        if not (lo < hi and f1(lo) < 0 < f1(hi)):
            return None
        v = (lo + hi) / 2
        for _ in range(200):  # Newton, kept inside the shrinking bracket
            fv = f1(v)
            if fv < 0:
                lo = v
            else:
                hi = v
            step = fv / ((3 * A * v + 2 * B) * v + C)
            if abs(step) < Decimal("1e-45") or hi - lo < Decimal("1e-45"):
                break
            v = v - step if lo < v - step < hi else (lo + hi) / 2
        return v


def _exact_density_minima(cfg, state, ts):
    """_exact_minimum_v at every time in ts, with gamma from numpy's cos and sin
    as the engine takes it."""
    cross = state.c1 * state.c2.conjugate()
    phase = delta_omega(cfg) * ts
    gammas = 4.0 * (cross.real * np.cos(phase) - cross.imag * np.sin(phase))
    alpha, beta = abs(state.c1) ** 2, 4.0 * abs(state.c2) ** 2
    return [_exact_minimum_v(alpha, beta, gamma) for gamma in gammas.tolist()]


def _position_error(cfg, x, v):
    """|x - (a/pi) arccos(v)| for a Decimal v, arccos taken to first order
    around float(v); the neglected terms are below 1e-30 here."""
    with localcontext() as ctx:
        ctx.prec = 60
        v_f = float(v)
        arccos = Decimal(math.acos(v_f)) + (Decimal(v_f) - v) / (1 - v * v).sqrt()
        return float(abs(Decimal(x) - Decimal(cfg.width_a) / Decimal(math.pi) * arccos))


class TestOneEngine:
    """A trajectory solves all of its instants in one vectorised pass; every
    sample must be exactly what the single-instant finder returns there."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(404)
        cases = []
        for _ in range(40):
            cfg = WellConfig(*np.exp(rng.uniform(math.log(0.1), math.log(10.0), 3)))
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            cases.append((cfg, TwoStateSuperposition(c[0], c[1])))
            c1, c2 = rng.standard_normal(2) * [1.0, 0.5]
            cases.append((cfg, TwoStateSuperposition(float(c1), float(c2))))
        # pure psi_2, pure psi_1, |A| = 1 both signs, and gamma = 0 at t = 0
        edge = [(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (-2.0, 1.0), (1.0j, 1.0)]
        cases += [(UNIT, TwoStateSuperposition(*c)) for c in edge]
        return cases

    def test_trajectory_samples_equal_the_single_instant_finders(self):
        counts = {"present": 0, "absent": 0}
        for cfg, state in self._cases():
            real = state.c1.imag == 0.0 and state.c2.imag == 0.0
            kinds = [NodeKind.DENSITY_MINIMUM]
            if real:
                kinds.append(NodeKind.REAL_PART_ZERO)
                if state.c2 != 0.0:
                    kinds.append(NodeKind.ANALYTIC)
            for kind in kinds:
                traj = track_trajectory(cfg, state, kind, 0.0, 1.5 * beat_period(cfg), 48)
                for t, x in zip(traj.times.tolist(), traj.positions.tolist()):
                    if kind is NodeKind.ANALYTIC:
                        want = analytic_node_position(cfg, ratio_from_state(state), t)
                    elif kind is NodeKind.REAL_PART_ZERO:
                        zeros = find_real_part_zeros(cfg, state, t)
                        want = zeros[0] if zeros else None
                    else:
                        minima = find_density_minima(cfg, state, t)
                        want = minima[0][0] if minima else None
                    assert x == want if want is not None else math.isnan(x), \
                        (cfg, state, kind, t)
                    counts["absent" if want is None else "present"] += 1
        assert counts["present"] > 1000 and counts["absent"] > 100

    def test_minimum_track_matches_a_per_instant_np_roots_loop(self):
        """Presence: one np.roots call per instant on the same cubic f'(v).
        Position: the 50-digit middle root of that cubic, within 3e-14 a.

        On these cases companion-matrix eigenvalues, as np.roots takes them,
        are off by up to 9.5e-14 a, and the trigonometric roots by 7.4e-15 a.
        """
        worst = 0.0
        for cfg, state in self._cases():
            traj = track_trajectory(cfg, state, NodeKind.DENSITY_MINIMUM,
                                    0.0, 1.5 * beat_period(cfg), 48)
            exact = _exact_density_minima(cfg, state, traj.times)
            for t, x, v in zip(traj.times.tolist(), traj.positions.tolist(), exact):
                want = _loop_density_minimum(cfg, state, t)
                assert math.isnan(x) == (want is None) == (v is None), (cfg, state, t)
                if v is not None:
                    worst = max(worst, _position_error(cfg, x, v) / cfg.width_a)
        assert worst <= 3e-14

    def test_wall_contact_minima_against_exact_roots(self):
        """|A| = 1 +- 10^-k puts a double root of f' next to a wall at t = k T/2,
        where floats cannot tell whether the minimum is inside. Count the
        instants where the engine and the exact middle root disagree on it.

        A rule that drops roots closer than 1e-6 disagrees at 160 instants,
        all of them minima it misses; the sign of the discriminant disagrees
        at 64.
        """
        disagree = 0
        for k in range(1, 16):
            for A in (1.0 + 10.0**-k, 1.0 - 10.0**-k, -1.0 - 10.0**-k, -1.0 + 10.0**-k):
                state = TwoStateSuperposition(2.0 * A, 1.0)
                traj = track_trajectory(UNIT, state, NodeKind.DENSITY_MINIMUM, 0.0, T, 257)
                halves = np.arange(5) * (0.5 * T)
                found = [math.isnan(x) for x in traj.positions.tolist()]
                found += [not find_density_minima(UNIT, state, t) for t in halves.tolist()]
                exact = _exact_density_minima(UNIT, state, np.append(traj.times, halves))
                disagree += sum(absent != (v is None) for absent, v in zip(found, exact))
        assert disagree <= 80

    @pytest.mark.parametrize("cfg", [UNIT, WellConfig(1.37, 0.6, 1.9)], ids=["a1", "a137"])
    def test_broadcast_solves_equal_the_public_finders(self, cfg):
        """verify solves all its draws at once: ratios down axis 0, instants
        along axis 1. Every position must have the bits the public finder
        returns for that one ratio (NaN where it returns none)."""
        rng = np.random.default_rng(1414)
        T_cfg = beat_period(cfg)
        draws = rng.uniform(0.01, 1.0, size=50)
        for ts in (np.array([0.0, 0.5 * T_cfg]), rng.uniform(0.0, 2.0 * T_cfg, size=2)):
            v = nodes._real_part_zero_v(cfg, 2.0 * draws[:, None], 1.0, ts)
            xs = nodes._positions(cfg, v.ravel()).reshape(v.shape)
            for A, row in zip(draws.tolist(), xs.tolist()):
                state = TwoStateSuperposition(2.0 * A, 1.0)
                for t, x in zip(ts.tolist(), row):
                    want = find_real_part_zeros(cfg, state, t)
                    assert ([] if math.isnan(x) else [x]) == want, (A, t)
        ratios = rng.uniform(-1.2, 1.2, size=20)
        v = nodes._analytic_v(cfg, ratios[:, None], np.linspace(0.0, T_cfg, 257))
        tracks = nodes._positions(cfg, v.ravel()).reshape(v.shape)
        assert np.isnan(tracks).any() and not np.isnan(tracks).all()
        for A, row in zip(ratios.tolist(), tracks):
            traj = track_trajectory(cfg, TwoStateSuperposition(2.0 * A, 1.0),
                                    NodeKind.ANALYTIC, 0.0, T_cfg, 257)
            assert row.tobytes() == traj.positions.tobytes(), A

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_time_rejected(self, t):
        for finder in (lambda: analytic_node_position(UNIT, 0.5, t),
                       lambda: find_real_part_zeros(UNIT, EQUAL_MIX, t),
                       lambda: find_density_minima(UNIT, EQUAL_MIX, t),
                       lambda: track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC,
                                                0.0, t, 4)):
            with pytest.raises(ValueError, match="finite"):
                finder()

    @pytest.mark.parametrize("width", [1.0, 1.37, 3e-100])
    def test_positions_are_math_acos(self, width):
        # the positions map v through libm's acos, not numpy's CPU-dependent arccos
        cfg = WellConfig(width_a=width)
        v = np.concatenate([np.random.default_rng(5).uniform(-1.0, 1.0, 4096),
                            [1.0, -1.0, 0.0, -0.0, math.nan]])
        want = np.array([(width / math.pi) * math.acos(x) for x in v.tolist()])
        assert nodes._positions(cfg, v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("t", [1e308, -1e308, 1.2e307])
    def test_overflowing_phase_rejected(self, t):
        # omega_2 t overflows at these finite times: each finder must name t
        # and the well, with no numpy warning ahead of the error
        state = TwoStateSuperposition(0.6, 0.8)
        for finder in (lambda: analytic_node_position(UNIT, 0.375, t),
                       lambda: find_real_part_zeros(UNIT, state, t),
                       lambda: find_density_minima(UNIT, state, t),
                       *(lambda kind=kind: track_trajectory(UNIT, state, kind,
                                                           min(0.0, t), max(0.0, t), 3)
                         for kind in NodeKind)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=re.escape(f"t={t!r} for a=1.0")):
                    finder()

    def test_pure_excited_zero_times_over_two_periods(self):
        found = exact_zero_times(UNIT, TwoStateSuperposition(0.0, 1.0), period_count=2)
        assert len(found) == 2 * 512 + 1
        assert found[-1] == pytest.approx(2.0 * T, abs=1e-12)


class TestScaleFree:
    """The physics depends on (a, m, hbar) only through a and dw, so every
    well whose dw and 2T are normal floats behaves like the unit well."""

    @given(st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-300.0, max_value=300.0),
           st.floats(min_value=-300.0, max_value=300.0))
    @settings(max_examples=25, deadline=None)
    def test_well_range(self, log_a, log_m, log_hbar):
        log_dw = math.log10(1.5 * math.pi**2) + log_hbar - log_m - 2.0 * log_a
        assume(-300.0 < log_dw < 300.0)
        assume(-300.0 < math.log10(4.0 * math.pi) - log_dw < 300.0)
        cfg = WellConfig(width_a=10.0**log_a, mass_m=10.0**log_m, hbar=10.0**log_hbar)
        # where every step of the plain expression is a normal float, the
        # frexp form keeps its bits
        steps = [math.pi * cfg.hbar]
        steps.append(steps[-1] / cfg.width_a)
        steps.append(1.5 * math.pi * steps[-1])
        steps.append(steps[-1] / cfg.mass_m)
        steps.append(steps[-1] / cfg.width_a)
        if all(sys.float_info.min <= step <= sys.float_info.max for step in steps):
            assert delta_omega(cfg) == steps[-1]
        failed = [r.format_line() for r in run_verification(cfg) if not r.passed]
        assert failed == []
        state = TwoStateSuperposition(0.6, 0.8)
        for kind in (NodeKind.ANALYTIC, NodeKind.DENSITY_MINIMUM):
            scaled = track_trajectory(cfg, state, kind, 0.0, beat_period(cfg), 64)
            unit = track_trajectory(UNIT, state, kind, 0.0, T, 64)
            assert np.max(np.abs(scaled.positions / cfg.width_a - unit.positions)) <= 1e-12

    def test_state_scale(self):
        """Node positions depend on (c1, c2) only up to a common factor. Every
        power of two 2**k that TwoStateSuperposition accepts keeps the bits
        of the unscaled state's positions, and raises no numpy warning."""
        rng = np.random.default_rng(1616)
        cfg = WellConfig(1.37, 0.6, 1.9)
        T_cfg = beat_period(cfg)
        complex_pairs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        cases = [(NodeKind.DENSITY_MINIMUM, *pair) for pair in complex_pairs.tolist()]
        cases += [(kind, *pair) for pair in rng.standard_normal((3, 2)).tolist()
                  for kind in (NodeKind.DENSITY_MINIMUM, NodeKind.REAL_PART_ZERO)]
        present = 0
        for kind, c1, c2 in cases:
            want = track_trajectory(cfg, TwoStateSuperposition(c1, c2), kind,
                                    0.0, T_cfg, 32).positions
            present += np.count_nonzero(~np.isnan(want))
            accepted = 0
            for k in range(-1074, 1024):
                scale = math.ldexp(1.0, k)
                try:
                    state = TwoStateSuperposition(c1 * scale, c2 * scale)
                except ValueError:  # a norm that overflows, or underflows to 0
                    continue
                accepted += 1
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = track_trajectory(cfg, state, kind, 0.0, T_cfg, 32).positions
                assert got.tobytes() == want.tobytes(), (kind, c1, c2, k)
            assert accepted > 1000
        assert present > 100


class TestTrackTrajectory:
    def test_analytic_equal_mix(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 9)
        xs = traj.positions
        assert xs[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert xs[4] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert xs[-1] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_string_kind_accepted(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, "analytic-formula", 0.0, T, 5)
        assert traj.kind is NodeKind.ANALYTIC

    def test_absent_windows_marked_none(self):
        # A = 1.5: node exists only while |cos(dw t)| <= 2/3
        state = TwoStateSuperposition(0.9, 0.3)
        traj = track_trajectory(UNIT, state, NodeKind.ANALYTIC, 0.0, T, 64)
        present = traj.positions[~np.isnan(traj.positions)]
        assert 0 < present.size < traj.positions.size
        assert math.isnan(traj.positions[0])  # t = 0 is a gap for A > 1
        assert np.all((present >= 0.0) & (present <= 1.0))

    def test_real_part_kind_agrees_at_special_times(self):
        # Re Psi = 0 tracks cos(w1 t)/cos(w2 t), not cos(dw t); the curves
        # intersect where sin(dw t) = 0 and split apart in between
        analytic = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 33)
        numeric = track_trajectory(UNIT, EQUAL_MIX, NodeKind.REAL_PART_ZERO,
                                   0.0, T, 33)
        diff = np.abs(analytic.positions - numeric.positions)
        assert diff[0] <= 1e-8 and diff[16] <= 1e-8 and diff[32] <= 1e-8
        assert np.nanmax(diff) > 1e-3

    def test_density_minimum_is_a_different_notion(self):
        analytic = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 17)
        minima = track_trajectory(UNIT, EQUAL_MIX, NodeKind.DENSITY_MINIMUM,
                                  0.0, T, 17)
        diff = np.abs(analytic.positions - minima.positions)
        # they coincide at the ends (true zeros) but not in between
        assert diff[0] <= 1e-8 and diff[-1] <= 1e-8
        assert np.nanmax(diff) > 1e-4

    def test_minimum_track_is_continuous(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.DENSITY_MINIMUM, 0.0, T, 64)
        xs = traj.positions
        steps = np.abs(np.diff(xs))
        assert np.all(np.isfinite(xs))
        assert np.nanmax(steps) < 0.05

    def test_pure_excited_minimum_constant(self):
        traj = track_trajectory(UNIT, TwoStateSuperposition(0.0, 1.0),
                                NodeKind.DENSITY_MINIMUM, 0.0, T, 8)
        assert np.all(np.abs(traj.positions - 0.5) <= 1e-8)

    def test_complex_state_minimum_kind_works(self):
        state = TwoStateSuperposition(1.0j / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        traj = track_trajectory(UNIT, state, NodeKind.DENSITY_MINIMUM, 0.0, T, 8)
        assert not np.all(np.isnan(traj.positions))

    def test_overflowing_real_part_ratio_is_silent(self):
        # c1 / c2 overflows to +-inf, which is no zero inside the well
        state = TwoStateSuperposition(1e150, 1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = track_trajectory(UNIT, state, NodeKind.REAL_PART_ZERO, 0.0, T, 64)
        assert np.all(np.isnan(traj.positions))

    def test_complex_state_real_part_kind_rejected(self):
        state = TwoStateSuperposition(1.0j, 1.0)
        with pytest.raises(ValueError, match="real"):
            track_trajectory(UNIT, state, NodeKind.REAL_PART_ZERO, 0.0, T, 4)

    def test_true_zero_kind_rejected(self):
        with pytest.raises(ValueError, match="true-zero"):
            track_trajectory(UNIT, EQUAL_MIX, "true-zero", 0.0, T, 4)

    def test_degenerate_analytic_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            track_trajectory(UNIT, TwoStateSuperposition(1.0, 0.0),
                             NodeKind.ANALYTIC, 0.0, T, 4)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 1.0, 0.5, 4)
        with pytest.raises(ValueError):
            track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 1)

    @pytest.mark.parametrize("state", [TwoStateSuperposition(2.0, 0.5),
                                       TwoStateSuperposition(0.48 + 0.36j, 0.5)],
                             ids=["gaps", "complex"])
    def test_arrays(self, state):
        real = state.c1.imag == 0.0 and state.c2.imag == 0.0
        kinds = [NodeKind.REAL_PART_ZERO, NodeKind.DENSITY_MINIMUM] if real else \
            [NodeKind.DENSITY_MINIMUM]
        gaps = []
        for kind in kinds:
            traj = track_trajectory(UNIT, state, kind, 0.0, 1.5 * T, 61)
            for arr in (traj.times, traj.positions):
                assert arr.dtype == np.float64 and arr.shape == (61,)
            absent = [s.position is None for s in traj.samples]
            assert np.array_equal(np.isnan(traj.positions), absent)
            assert [s.t for s in traj.samples] == traj.times.tolist()
            for t, x in zip(traj.times.tolist(), traj.positions.tolist()):
                if kind is NodeKind.REAL_PART_ZERO:
                    want = find_real_part_zeros(UNIT, state, t)
                else:
                    want = [pos for pos, _ in find_density_minima(UNIT, state, t)[:1]]
                assert want == ([] if math.isnan(x) else [x]), (kind, t)
            gaps += absent
        assert 0 < sum(gaps) < len(gaps)  # both NaN and finite positions occur

    def test_times_helper(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 5)
        ts = traj.times
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(T, rel=1e-15)
