"""Node finders and trajectory tracking, checked against closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxnodes.nodes import (
    NodeKind,
    analytic_node_position,
    exact_zero_times,
    find_density_minima,
    find_real_part_zeros,
    ratio_from_state,
    track_trajectory,
)
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
        # an odd sample count puts T/2 exactly midway between two samples,
        # forcing the golden-section refinement path to recover it
        found = exact_zero_times(UNIT, EQUAL_MIX, period_count=1,
                                 samples_per_period=511)
        assert len(found) == 3
        assert found[1] == pytest.approx(0.5 * T, abs=1e-9)

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
                for s in traj.samples:
                    if kind is NodeKind.ANALYTIC:
                        want = analytic_node_position(cfg, traj.ratio, s.t)
                    elif kind is NodeKind.REAL_PART_ZERO:
                        zeros = find_real_part_zeros(cfg, state, s.t)
                        want = zeros[0] if zeros else None
                    else:
                        minima = find_density_minima(cfg, state, s.t)
                        want = minima[0][0] if minima else None
                    assert s.position == want, (cfg, state, kind, s.t)
                    counts["absent" if want is None else "present"] += 1
        assert counts["present"] > 1000 and counts["absent"] > 100

    def test_minimum_track_matches_a_per_instant_np_roots_loop(self):
        """Reference: one np.roots call per instant on the same cubic f'(v).

        Real states share all arithmetic with the loop and must agree
        exactly; complex states take e^{i dw t} from numpy instead of cmath.
        """
        for cfg, state in self._cases():
            traj = track_trajectory(cfg, state, NodeKind.DENSITY_MINIMUM,
                                    0.0, 1.5 * beat_period(cfg), 48)
            real = state.c1.imag == 0.0 and state.c2.imag == 0.0
            tol = 0.0 if real else 1e-14 * cfg.width_a
            for s in traj.samples:
                want = _loop_density_minimum(cfg, state, s.t)
                assert (s.position is None) == (want is None), (cfg, state, s.t)
                if want is not None:
                    assert abs(s.position - want) <= tol, (cfg, state, s.t)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_nonfinite_time_rejected(self, t):
        for finder in (lambda: analytic_node_position(UNIT, 0.5, t),
                       lambda: find_real_part_zeros(UNIT, EQUAL_MIX, t),
                       lambda: find_density_minima(UNIT, EQUAL_MIX, t),
                       lambda: track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC,
                                                0.0, t, 4)):
            with pytest.raises(ValueError, match="finite"):
                finder()

    def test_pure_excited_zero_times_over_two_periods(self):
        found = exact_zero_times(UNIT, TwoStateSuperposition(0.0, 1.0), period_count=2)
        assert len(found) == 2 * 512 + 1
        assert found[-1] == pytest.approx(2.0 * T, abs=1e-12)


class TestTrackTrajectory:
    def test_analytic_equal_mix(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 9)
        assert traj.ratio == pytest.approx(0.5, abs=1e-15)
        xs = traj.positions()
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
        present = [s.position for s in traj.samples if s.position is not None]
        absent = [s for s in traj.samples if s.position is None]
        assert absent and present
        assert traj.samples[0].position is None  # t = 0 is a gap for A > 1
        assert all(0.0 <= x <= 1.0 for x in present)

    def test_real_part_kind_agrees_at_special_times(self):
        # Re Psi = 0 tracks cos(w1 t)/cos(w2 t), not cos(dw t); the curves
        # intersect where sin(dw t) = 0 and split apart in between
        analytic = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 33)
        numeric = track_trajectory(UNIT, EQUAL_MIX, NodeKind.REAL_PART_ZERO,
                                   0.0, T, 33)
        diff = np.abs(analytic.positions() - numeric.positions())
        assert diff[0] <= 1e-8 and diff[16] <= 1e-8 and diff[32] <= 1e-8
        assert np.nanmax(diff) > 1e-3

    def test_density_minimum_is_a_different_notion(self):
        analytic = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 17)
        minima = track_trajectory(UNIT, EQUAL_MIX, NodeKind.DENSITY_MINIMUM,
                                  0.0, T, 17)
        diff = np.abs(analytic.positions() - minima.positions())
        # they coincide at the ends (true zeros) but not in between
        assert diff[0] <= 1e-8 and diff[-1] <= 1e-8
        assert np.nanmax(diff) > 1e-4

    def test_minimum_track_is_continuous(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.DENSITY_MINIMUM, 0.0, T, 64)
        xs = traj.positions()
        steps = np.abs(np.diff(xs))
        assert np.all(np.isfinite(xs))
        assert np.nanmax(steps) < 0.05

    def test_pure_excited_minimum_constant(self):
        traj = track_trajectory(UNIT, TwoStateSuperposition(0.0, 1.0),
                                NodeKind.DENSITY_MINIMUM, 0.0, T, 8)
        assert traj.ratio == 0.0  # A = 0/(2 c2): the formula also predicts a/2
        for s in traj.samples:
            assert s.position == pytest.approx(0.5, abs=1e-8)

    def test_complex_state_minimum_kind_works(self):
        state = TwoStateSuperposition(1.0j / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        traj = track_trajectory(UNIT, state, NodeKind.DENSITY_MINIMUM, 0.0, T, 8)
        assert traj.ratio is None
        assert any(s.position is not None for s in traj.samples)

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

    def test_times_helper(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 5)
        ts = traj.times()
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(T, rel=1e-15)
