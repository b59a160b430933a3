"""Node finders and trajectory tracking, checked against closed forms."""

import cmath
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boxnodes import nodes
from boxnodes.nodes import (
    NodeKind,
    exact_zero_times,
    node_position,
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
import exact

UNIT = WellConfig()
T = beat_period(UNIT)
EQUAL_MIX = TwoStateSuperposition(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

ratios = st.floats(min_value=-0.999, max_value=0.999)
times = st.floats(min_value=0.0, max_value=3.0)


def _analytic(cfg, A, t):
    """The analytic node at ratio A, of the state (2A, 1) whose ratio is A exactly."""
    return node_position(cfg, TwoStateSuperposition(2.0 * A, 1.0), NodeKind.ANALYTIC, t)


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
        assert _analytic(UNIT, 0.5, 0.0) == pytest.approx(
            2.0 / 3.0, abs=1e-12)

    def test_equal_mix_half_period(self):
        t = math.pi / delta_omega(UNIT)
        assert _analytic(UNIT, 0.5, t) == pytest.approx(
            1.0 / 3.0, abs=1e-12)

    def test_zero_ratio_sits_at_center(self):
        for t in (0.0, 0.1, 0.7):
            assert _analytic(UNIT, 0.0, t) == pytest.approx(0.5, abs=1e-15)

    def test_absent_when_ratio_large(self):
        assert _analytic(UNIT, 1.5, 0.0) is None

    def test_large_ratio_present_mid_beat(self):
        # cos(dw t) passes through zero, so even A = 1.5 has windows of existence
        pos = _analytic(UNIT, 1.5, 0.25 * T)
        assert pos is not None
        assert pos == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("cfg", [UNIT, WellConfig(1.37, 0.6, 1.9)], ids=["a1", "a1.37"])
    def test_node_exactly_on_a_wall_is_present(self, cfg):
        # |A cos(dw t)| = 1 at t = 0, T/2 and T for A = +-1: the analytic node
        # sits on a wall, where the real-part zero's open range has none
        a, period = cfg.width_a, beat_period(cfg)
        for c1, walls in ((2.0, [a, 0.0, a]), (-2.0, [0.0, a, 0.0])):
            state = TwoStateSuperposition(c1, 1.0)
            assert [node_position(cfg, state, NodeKind.ANALYTIC, t)
                    for t in (0.0, 0.5 * period, period)] == walls
            assert node_position(cfg, state, NodeKind.REAL_PART_ZERO, 0.0) is None

    def test_nonfinite_ratio_rejected(self):
        # a ratio A enters as the state (2A, 1), which refuses a nonfinite A
        with pytest.raises(ValueError, match="c1"):
            TwoStateSuperposition(math.inf, 1.0)

    def test_width_scaling(self):
        wide = WellConfig(width_a=3.0)
        assert _analytic(wide, 0.5, 0.0) == pytest.approx(
            2.0, abs=1e-12)

    @given(ratios, times)
    @settings(max_examples=100)
    def test_stays_inside_the_well(self, A, t):
        pos = _analytic(UNIT, A, t)
        assert pos is not None
        assert 0.0 <= pos <= 1.0

    @given(ratios, times)
    @settings(max_examples=100)
    def test_beat_periodicity(self, A, t):
        x1 = _analytic(UNIT, A, t)
        x2 = _analytic(UNIT, A, t + T)
        assert abs(x1 - x2) <= 1e-11

    @given(ratios, times)
    @settings(max_examples=100)
    def test_half_period_reflection(self, A, t):
        # arccos(-u) + arccos(u) = pi makes x(t) + x(t + T/2) = a
        x1 = _analytic(UNIT, A, t)
        x2 = _analytic(UNIT, A, t + 0.5 * T)
        assert abs(x1 + x2 - 1.0) <= 1e-11


class TestRealPartZeros:
    def test_equal_mix_start(self):
        x = node_position(UNIT, EQUAL_MIX, NodeKind.REAL_PART_ZERO, 0.0)
        assert x == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_equal_mix_half_period(self):
        x = node_position(UNIT, EQUAL_MIX, NodeKind.REAL_PART_ZERO, 0.5 * T)
        assert x == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_pure_excited_center(self):
        x = node_position(UNIT, TwoStateSuperposition(0.0, 1.0), NodeKind.REAL_PART_ZERO, 0.1)
        assert x == pytest.approx(0.5, abs=1e-10)

    def test_pure_ground_has_none(self):
        state = TwoStateSuperposition(1.0, 0.0)
        assert node_position(UNIT, state, NodeKind.REAL_PART_ZERO, 0.2) is None

    def test_complex_state_rejected(self):
        with pytest.raises(ValueError, match="real"):
            node_position(UNIT, TwoStateSuperposition(1.0j, 1.0), NodeKind.REAL_PART_ZERO, 0.0)

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
        x = node_position(UNIT, state, NodeKind.REAL_PART_ZERO, t)
        if x is not None:
            assert abs(math.cos(math.pi * x) - u) <= 1e-9
        if abs(u) <= 1.0 - 1e-5:
            # an interior zero must then exist, and the finder must see it
            expected = math.acos(u) / math.pi
            assert x is not None and abs(x - expected) <= 1e-9


class TestDensityMinima:
    def test_equal_mix_true_zero(self):
        x = node_position(UNIT, EQUAL_MIX, NodeKind.DENSITY_MINIMUM, 0.0)
        assert x == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert density_exact(UNIT, EQUAL_MIX, x, 0.0) <= 1e-8

    def test_equal_mix_quarter_period(self):
        # interference is switched off here; the mixed profile has one dip
        x = node_position(UNIT, EQUAL_MIX, NodeKind.DENSITY_MINIMUM, 0.25 * T)
        assert x == pytest.approx(0.5, abs=1e-6)
        rho = density_exact(UNIT, EQUAL_MIX, x, 0.25 * T)
        assert rho == pytest.approx(1.0, rel=1e-6)
        assert rho > 0.0

    def test_pure_excited_permanent_node(self):
        state = TwoStateSuperposition(0.0, 1.0)
        x = node_position(UNIT, state, NodeKind.DENSITY_MINIMUM, 0.3)
        assert x == pytest.approx(0.5, abs=1e-8)
        assert density_exact(UNIT, state, x, 0.3) <= 1e-15

    def test_pure_ground_has_no_interior_minimum(self):
        state = TwoStateSuperposition(1.0, 0.0)
        assert node_position(UNIT, state, NodeKind.DENSITY_MINIMUM, 0.0) is None

    def test_matches_exact_middle_root(self):
        """200 seeded complex states and instants on one well: presence and
        position against the 60-digit middle root of the cubic."""
        rng = np.random.default_rng(2024)
        cfg = WellConfig(width_a=1.7, mass_m=0.6, hbar=1.3)
        worst, present = 0.0, 0
        for _ in range(200):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            state = TwoStateSuperposition(c[0], c[1])
            t = float(rng.uniform(0.0, beat_period(cfg)))
            x = node_position(cfg, state, NodeKind.DENSITY_MINIMUM, t)
            [v] = exact.density_minima(cfg, state, t)
            assert (x is None) == (v is None), (state, t)
            if v is not None:
                present += 1
                worst = max(worst, exact.position_error(cfg, x, v) / cfg.width_a)
        assert present >= 100
        assert worst <= 3e-14

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.8),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @example(0.37, 1.0, 0.0)  # the equal mix
    @settings(max_examples=30, deadline=None)
    def test_minima_are_local_minima(self, frac, r, phi):
        """A minimum of density_exact itself, for complex states (r e^{i phi}, 1)
        / sqrt(2): |z| = r / 2 <= 0.9 keeps it well clear of the walls and of
        the maxima beside it."""
        state = TwoStateSuperposition(cmath.rect(r, phi) / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        x = node_position(UNIT, state, NodeKind.DENSITY_MINIMUM, frac * T)
        if x is not None:
            left, rho, right = (density_exact(UNIT, state, x + dx, frac * T)
                                for dx in (-1e-4, 0.0, 1e-4))
            assert rho <= min(left, right) + 1e-12


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
        assert found.tolist() == [0.0, 0.5 * T, T]

    def test_zero_positions_follow_formula(self):
        # at sin(dw t) = 0 the zero sits at (a/pi) arccos(-+A)
        state = TwoStateSuperposition(0.6, 0.8)
        for t in exact_zero_times(UNIT, state, period_count=1):
            expected = node_position(UNIT, state, NodeKind.ANALYTIC, t)
            x = node_position(UNIT, state, NodeKind.DENSITY_MINIMUM, t)
            assert x == pytest.approx(expected, abs=1e-7)
            assert density_exact(UNIT, state, x, t) <= 1e-10

    def test_large_ratio_never_vanishes(self):
        # |A| = 3.05 > 1: the formula has no solution at the critical instants
        state = TwoStateSuperposition(0.987, 0.162)
        assert exact_zero_times(UNIT, state, period_count=1).tolist() == []

    @pytest.mark.parametrize("c1", [2.0, -2.0])
    def test_unit_ratio_touches_only_the_walls(self, c1):
        # |A| = 1: at t = k T/2 the zero sits on a wall, which is not interior
        assert exact_zero_times(UNIT, TwoStateSuperposition(c1, 1.0)).tolist() == []

    def test_pure_ground_never_vanishes(self):
        assert exact_zero_times(UNIT, TwoStateSuperposition(1.0, 0.0)).tolist() == []

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

    @pytest.mark.parametrize("c1", [0.6, 0.0, 2.0])
    def test_infinite_beat_period_rejected(self, c1):
        # dw is subnormal, so T = 2 pi / dw overflows: 0 * 0.5 * T was NaN
        cfg = WellConfig(1e158)
        assert beat_period(cfg) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"T = inf is not finite for a=1e\+158, m=1\.0"):
                exact_zero_times(cfg, TwoStateSuperposition(c1, 0.8))

    @pytest.mark.parametrize("c1, name, value", [
        (0.6, "period_count", 1.5), (0.0, "samples_per_period", 20.5),
        (0.6, "grid_n", None), (0.0, "period_count", None), (0.6, "grid_n", 1024.0),
    ])
    def test_counts_must_be_integers(self, c1, name, value):
        # period_count=1.5 and samples_per_period=20.5 reached range() and
        # _uniform_times, and None the < 16 comparison, each as a TypeError
        state = TwoStateSuperposition(c1, 0.8)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            exact_zero_times(UNIT, state, **{name: value})
        counts = {"period_count": np.int64(2), "grid_n": np.int32(64),
                  "samples_per_period": np.int64(16)}
        assert exact_zero_times(UNIT, state, **counts).tolist() == exact_zero_times(
            UNIT, state, period_count=2, grid_n=64, samples_per_period=16).tolist()

    @pytest.mark.parametrize("c1", [0.6, 0.0, 2.0])
    @pytest.mark.parametrize("name", ["grid_n", "samples_per_period"])
    def test_scan_resolution_below_16_rejected(self, c1, name):
        # grid_n has no effect, but both counts are still held to 16
        state = TwoStateSuperposition(c1, 0.8)
        with pytest.raises(ValueError, match=r"^scan resolution too small$"):
            exact_zero_times(UNIT, state, **{name: 15})
        assert exact_zero_times(UNIT, state, **{name: 16}).dtype == np.float64

    @pytest.mark.parametrize("c1", [0.6, 0.0, 2.0])
    def test_every_branch_returns_a_float_array(self, c1):
        # the half-period instants keep the bits of k * 0.5 * T in Python floats
        for cfg in (UNIT, WellConfig(1.37, 0.6, 1.9)):
            found = exact_zero_times(cfg, TwoStateSuperposition(c1, 0.8), period_count=3)
            assert isinstance(found, np.ndarray) and found.dtype == np.float64
            if c1 == 0.6:
                T_cfg = beat_period(cfg)
                assert found.tolist() == [k * 0.5 * T_cfg for k in range(7)]

    def test_many_periods_hold_one_float_array(self):
        # 2 * 10**6 + 1 instants: 16 MB as a float array, 62 MB as a list of floats
        state = TwoStateSuperposition(0.6, 0.8)
        exact_zero_times(UNIT, state)
        tracemalloc.start()
        try:
            found = exact_zero_times(UNIT, state, period_count=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found.shape == (2 * 10**6 + 1,)
        assert peak < 35 * 2**20

    @pytest.mark.parametrize("c1", [0.6, 0.0])
    def test_overflowing_window_rejected(self, c1):
        # T = 4.2e299 is finite, 1e9 T is not
        with pytest.raises(ValueError, match=r"period_count \* T = 1000000000 \* 4\.2"):
            exact_zero_times(WellConfig(1e150), TwoStateSuperposition(c1, 0.8), 10**9)


class TestUniformTimes:
    """A trajectory's instants are np.linspace's, computed without its per-call cost."""

    @staticmethod
    def _windows():
        rng = np.random.default_rng(2626)
        windows = []
        for _ in range(400):
            t_start = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
            t_end = t_start + float(10.0 ** rng.uniform(-300, 300))
            n = int(rng.choice([2, 3, 600, int(rng.integers(4, 1000))]))
            if t_end > t_start and math.isfinite(t_end - t_start):
                windows.append((t_start, t_end, n))
        # steps below the smallest subnormal, where numpy divides by n - 1
        # before it multiplies by the width
        windows += [(0.0, 5e-324, 5), (-5e-324, 5e-324, 5), (0.0, 1e-323, 7),
                    (5e-324, 1e-323, 600), (-1.0, 1.0, 2), (-3.0, -1.0, 3), (0.0, 1.0, 600)]
        return windows

    def test_linspace_bits(self):
        for t_start, t_end, n in self._windows():
            want = np.linspace(t_start, t_end, n)
            assert nodes._uniform_times(t_start, t_end, n).tobytes() == want.tobytes(), \
                (t_start, t_end, n)

    def test_subnormal_step_takes_numpys_branch(self):
        # 5e-324 / 4 rounds to 0, so arange times the step would lose ts[3]
        ts = nodes._uniform_times(0.0, 5e-324, 5)
        assert ts.tolist() == [0.0, 0.0, 0.0, 5e-324, 5e-324]
        assert (np.arange(5) * (5e-324 / 4))[3] == 0.0

    def test_trajectory_times(self):
        for t_start, t_end, n in self._windows()[::20]:
            traj = track_trajectory(WellConfig(hbar=1e-300), EQUAL_MIX, NodeKind.ANALYTIC,
                                    t_start, t_end, n)
            assert traj.times.tobytes() == np.linspace(t_start, t_end, n).tobytes()


class TestOneEngine:
    """A trajectory solves all of its instants in one vectorised pass; every
    sample must be exactly what node_position returns there."""

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
                    want = node_position(cfg, state, kind, t)
                    assert x == want if want is not None else math.isnan(x), \
                        (cfg, state, kind, t)
                    counts["absent" if want is None else "present"] += 1
        assert counts["present"] > 1000 and counts["absent"] > 100

    def test_minimum_track_matches_the_exact_middle_root(self):
        """Presence and position against the 60-digit middle root of the
        exact-input cubic f'(v), the position within 3e-14 a.

        On these cases companion-matrix eigenvalues, as np.roots takes them,
        are off by up to 9.5e-14 a, and the trigonometric roots by 7.4e-15 a.
        """
        worst, present = 0.0, 0
        for cfg, state in self._cases():
            traj = track_trajectory(cfg, state, NodeKind.DENSITY_MINIMUM,
                                    0.0, 1.5 * beat_period(cfg), 48)
            roots = exact.density_minima(cfg, state, traj.times)
            for t, x, v in zip(traj.times.tolist(), traj.positions.tolist(), roots):
                assert math.isnan(x) == (v is None), (cfg, state, t)
                if v is not None:
                    present += 1
                    worst = max(worst, exact.position_error(cfg, x, v) / cfg.width_a)
        assert present > 1000
        assert worst <= 3e-14

    def test_wall_contact_minima_against_exact_roots(self):
        """|A| = 1 +- 10^-k puts a double root of f' next to a wall at t = k T/2,
        where floats cannot tell whether the minimum is inside. Count the
        instants where the engine and the exact middle root disagree on it.

        A rule that drops roots closer than 1e-6 disagrees at 160 instants,
        all of them minima it misses; the sign of the discriminant disagrees
        at 64.
        """
        disagree = present = 0
        for k in range(1, 16):
            for A in (1.0 + 10.0**-k, 1.0 - 10.0**-k, -1.0 - 10.0**-k, -1.0 + 10.0**-k):
                state = TwoStateSuperposition(2.0 * A, 1.0)
                traj = track_trajectory(UNIT, state, NodeKind.DENSITY_MINIMUM, 0.0, T, 257)
                halves = np.arange(5) * (0.5 * T)
                found = [math.isnan(x) for x in traj.positions.tolist()]
                found += [node_position(UNIT, state, NodeKind.DENSITY_MINIMUM, t) is None
                          for t in halves.tolist()]
                roots = exact.density_minima(UNIT, state, np.append(traj.times, halves))
                disagree += sum(absent != (v is None) for absent, v in zip(found, roots))
                present += sum(v is not None for v in roots)
        assert disagree <= 80 and present > 250

    @pytest.mark.parametrize("cfg", [UNIT, WellConfig(1.37, 0.6, 1.9)], ids=["a1", "a137"])
    def test_broadcast_solves_equal_the_public_finders(self, cfg):
        """verify solves all its draws at once: ratios down axis 0, instants
        along axis 1. Every position must have the bits node_position
        returns for that one ratio (NaN where it returns None)."""
        rng = np.random.default_rng(1414)
        T_cfg = beat_period(cfg)
        draws = rng.uniform(0.01, 1.0, size=50)
        for ts in (np.array([0.0, 0.5 * T_cfg]), rng.uniform(0.0, 2.0 * T_cfg, size=2)):
            v = nodes._real_part_zero_v(cfg, 2.0 * draws[:, None], 1.0, ts)
            xs = nodes._positions(cfg, v.ravel()).reshape(v.shape)
            for A, row in zip(draws.tolist(), xs.tolist()):
                state = TwoStateSuperposition(2.0 * A, 1.0)
                for t, x in zip(ts.tolist(), row):
                    want = node_position(cfg, state, NodeKind.REAL_PART_ZERO, t)
                    assert (None if math.isnan(x) else x) == want, (A, t)
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
        for kind in NodeKind:
            for finder in (lambda: node_position(UNIT, EQUAL_MIX, kind, t),
                           lambda: track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, t, 4)):
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
        for kind in NodeKind:
            for finder in (lambda: node_position(UNIT, state, kind, t),
                           lambda: track_trajectory(UNIT, state, kind,
                                                    min(0.0, t), max(0.0, t), 3)):
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

    def test_minimum_depends_only_on_the_ratio(self):
        """The density minimum reads the state only through A = c1 / (2 c2):
        200 seeded complex states at common scales 10^-100 to 10^100 have the
        bits of (2A, 1) at every instant."""
        rng = np.random.default_rng(3939)
        cfg = WellConfig(1.37, 0.6, 1.9)
        T_cfg = beat_period(cfg)
        present = 0
        for _ in range(200):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            state = TwoStateSuperposition(*(c * 10.0 ** rng.uniform(-100, 100)).tolist())
            ratio = TwoStateSuperposition(2.0 * (state.c1 / (2.0 * state.c2)), 1.0)
            got, want = (track_trajectory(cfg, s, NodeKind.DENSITY_MINIMUM,
                                          0.0, T_cfg, 16).positions for s in (state, ratio))
            assert got.tobytes() == want.tobytes(), state
            present += np.count_nonzero(~np.isnan(got))
        assert present > 1000

    @pytest.mark.parametrize("c1, c2", [(1.0, 0.0), (1e150, 1e-150)], ids=["c2_0", "A5e299"])
    def test_minimum_absent_for_infinite_or_huge_ratio(self, c1, c2):
        # A = inf (pure psi_1) and an A whose |A|^2 overflows: no minimum at
        # any instant, and no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = track_trajectory(UNIT, TwoStateSuperposition(c1, c2),
                                    NodeKind.DENSITY_MINIMUM, 0.0, T, 32)
        assert np.isnan(traj.positions).all()

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
        assert node_position(UNIT, EQUAL_MIX, "analytic-formula", T) == traj.positions[-1]

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

    @pytest.mark.parametrize("kind", list(NodeKind))
    def test_sample_count_must_be_an_integer(self, kind):
        with pytest.raises(ValueError, match=r"^n_samples must be an integer, got 8\.0$"):
            track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, 8.0)
        for n in (np.int64(8), np.int32(8), 8):
            assert track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, n).times.shape == (8,)

    @pytest.mark.parametrize("name, value", [("n_samples", None), ("grid_n", None),
                                             ("grid_n", 2048.0)])
    @pytest.mark.parametrize("kind", [NodeKind.REAL_PART_ZERO, NodeKind.DENSITY_MINIMUM])
    def test_counts_must_be_integers(self, kind, name, value):
        # None reached the < 2 and < 16 comparisons as a TypeError
        counts = {"n_samples": 8, "grid_n": 64}
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, **{**counts, name: value})
        got = track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, np.int64(8), np.int32(64))
        want = track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, 8, 64)
        assert got.positions.tobytes() == want.positions.tobytes()

    @pytest.mark.parametrize("kind", [NodeKind.REAL_PART_ZERO, NodeKind.DENSITY_MINIMUM])
    def test_grid_below_16_rejected_for_the_numeric_kinds(self, kind):
        # grid_n has no effect, but the numeric kinds still hold it to 16
        with pytest.raises(ValueError, match=r"^grid_n too small to isolate nodes$"):
            track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, 8, grid_n=15)
        assert track_trajectory(UNIT, EQUAL_MIX, kind, 0.0, T, 8, grid_n=16).times.shape == (8,)

    def test_analytic_kind_takes_any_grid(self):
        got = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 8, grid_n=15)
        assert got.times.shape == (8,)

    @pytest.mark.parametrize("kind", list(NodeKind))
    def test_overflowing_window_width_rejected(self, kind):
        # both ends are finite and omega_2 t is finite at both in this well,
        # but t_end - t_start is inf: the instants were [nan, inf, 1.5e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"width .* t_start=-1\.5e\+308, t_end=1\.5e\+308"):
                track_trajectory(WellConfig(hbar=1e-300), TwoStateSuperposition(0.6, 0.8),
                                 kind, -1.5e308, 1.5e308, 3)

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
                want = node_position(UNIT, state, kind, t)
                assert want == (None if math.isnan(x) else x), (kind, t)
            gaps += absent
        assert 0 < sum(gaps) < len(gaps)  # both NaN and finite positions occur

    def test_times_helper(self):
        traj = track_trajectory(UNIT, EQUAL_MIX, NodeKind.ANALYTIC, 0.0, T, 5)
        ts = traj.times
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(T, rel=1e-15)
