"""Eigenstates, densities, and norms against hand-derived values."""

import cmath
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxnodes.analysis import heatmap, time_avg_density
from boxnodes.well import (
    TwoStateSuperposition,
    WellConfig,
    _Grid,
    _norm_grid,
    _simpson_norm,
    beat_period,
    delta_omega,
    density_closed_form,
    density_exact,
    eigenfunction,
    energy,
    evaluate_psi,
    norm_integral,
    normalize,
    omega,
)

UNIT = WellConfig()
EQUAL_MIX = TwoStateSuperposition(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

# strategies for well-scaled random inputs
coeffs = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False)
positions = st.floats(min_value=0.0, max_value=1.0)
times = st.floats(min_value=-10.0, max_value=10.0)


class TestConfig:
    def test_defaults_are_unit(self):
        assert UNIT.width_a == UNIT.mass_m == UNIT.hbar == 1.0

    @pytest.mark.parametrize("bad", [
        dict(width_a=0.0), dict(width_a=-1.0), dict(mass_m=0.0), dict(hbar=-2.0),
    ])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            WellConfig(**bad)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError, match="zero state"):
            TwoStateSuperposition(0.0, 0.0)

    def test_overflowing_norm_rejected(self):
        # each |c|^2 is finite, only their sum overflows
        with pytest.raises(ValueError, match="overflows"):
            TwoStateSuperposition(1e154, 1e154)

    def test_numpy_scalars_stored_as_floats(self):
        cfg = WellConfig(np.float64(2.0), np.float32(0.5), np.int64(3))
        assert [type(v) for v in (cfg.width_a, cfg.mass_m, cfg.hbar)] == [float] * 3
        assert cfg == WellConfig(2.0, 0.5, 3.0)

    def test_numpy_scalar_well_raises_only_its_value_error(self):
        # delta_omega overflows; in numpy float64 it also warned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beat frequency"):
                WellConfig(np.float64(1e-200), 1, 1)

    def test_overflowing_omega_2_rejected(self):
        # dw = 1.8e308 is finite, but omega_2 = 4 dw / 3 overflows
        assert math.isfinite(1.5 * math.pi**2 * 1.2e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"omega_2 = inf .* hbar=1\.2e\+307"):
                WellConfig(hbar=1.2e307)


class TestEigenfunction:
    def test_ground_state_peak(self):
        # sqrt(2) sin(pi/2) = sqrt(2)
        assert eigenfunction(UNIT, 1, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_first_excited_quarter(self):
        assert eigenfunction(UNIT, 2, 0.25) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_first_excited_center_node(self):
        assert abs(eigenfunction(UNIT, 2, 0.5)) < 1e-15

    def test_walls_exactly_zero(self):
        assert eigenfunction(UNIT, 3, 0.0) == 0.0
        assert eigenfunction(UNIT, 3, 1.0) == 0.0
        wide = WellConfig(width_a=2.5)
        assert eigenfunction(wide, 5, 2.5) == 0.0

    def test_width_scaling(self):
        wide = WellConfig(width_a=2.0)
        # psi scales as 1/sqrt(a) with the argument stretched
        assert eigenfunction(wide, 1, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_array_input(self):
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        vals = eigenfunction(UNIT, 1, xs)
        assert vals.shape == (4,)
        assert vals[0] == 0.0 and vals[3] == 0.0

    def test_out_of_well_rejected(self):
        with pytest.raises(ValueError):
            eigenfunction(UNIT, 1, -0.1)
        with pytest.raises(ValueError):
            eigenfunction(UNIT, 1, 1.1)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            eigenfunction(UNIT, 0, 0.5)
        with pytest.raises(ValueError):
            energy(UNIT, -3)

    @given(st.integers(min_value=1, max_value=8), positions)
    def test_bounded_by_normalization(self, n, x):
        assert abs(eigenfunction(UNIT, n, x)) <= math.sqrt(2.0) + 1e-12


class TestSpectrum:
    def test_ground_energy(self):
        assert energy(UNIT, 1) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)

    def test_first_excited_energy(self):
        assert energy(UNIT, 2) == pytest.approx(2.0 * math.pi**2, rel=1e-15)

    def test_quadratic_index_scaling(self):
        assert energy(UNIT, 6) == pytest.approx(36.0 * energy(UNIT, 1), rel=1e-13)

    def test_energy_width_scaling(self):
        assert energy(WellConfig(width_a=2.0), 1) == pytest.approx(
            energy(UNIT, 1) / 4.0, rel=1e-14)

    def test_omega_is_energy_over_hbar(self):
        cfg = WellConfig(width_a=1.3, mass_m=0.7, hbar=2.0)
        assert omega(cfg, 4) == pytest.approx(energy(cfg, 4) / 2.0, rel=1e-15)

    def test_delta_omega_unit_value(self):
        # 3 pi^2 / 2 for a = m = hbar = 1
        assert delta_omega(UNIT) == pytest.approx(14.804406601634037, abs=1e-12)

    @pytest.mark.parametrize("a, m, hbar", [(0.1, 1e12, 1e308), (1e100, 1e-300, 1e-220)],
                             ids=["pi-hbar-over-a-overflows", "pi-hbar-over-a-subnormal"])
    def test_delta_omega_needs_only_a_normal_result(self, a, m, hbar):
        # 1.5 pi^2 hbar / (m a^2) in exact rationals, float pi as in the code
        exact = (Fraction(3, 2) * Fraction(math.pi) ** 2 * Fraction(hbar)
                 / (Fraction(m) * Fraction(a) ** 2))
        dw = delta_omega(WellConfig(a, m, hbar))
        assert abs(Fraction(dw) - exact) <= 2 * Fraction(math.ulp(dw))

    def test_beat_period_unit_value(self):
        assert beat_period(UNIT) == pytest.approx(4.0 / (3.0 * math.pi), rel=1e-14)
        assert beat_period(UNIT) == pytest.approx(0.4244131815783876, abs=1e-14)


class TestWavefunction:
    def test_single_state_phase(self):
        state = TwoStateSuperposition(1.0, 0.0)
        t = 0.37
        expected = math.sqrt(2.0) * cmath.exp(-1j * omega(UNIT, 1) * t)
        assert evaluate_psi(UNIT, state, 0.5, t) == pytest.approx(expected, abs=1e-14)

    def test_equal_mix_center_t0(self):
        # psi_2 vanishes at the center, leaving c1 psi_1 = 1
        val = evaluate_psi(UNIT, EQUAL_MIX, 0.5, 0.0)
        assert val == pytest.approx(1.0 + 0.0j, abs=1e-15)

    @given(coeffs, coeffs, times)
    @settings(max_examples=60)
    def test_walls_stay_zero(self, c1, c2, t):
        state = TwoStateSuperposition(c1, c2)
        assert evaluate_psi(UNIT, state, 0.0, t) == 0.0
        assert evaluate_psi(UNIT, state, 1.0, t) == 0.0


class TestDensity:
    def test_equal_mix_quarter_t0(self):
        # 0.5 * 1 + 0.5 * 2 + 2 * 0.5 * 1 * sqrt(2) = 1.5 + sqrt(2)
        assert density_exact(UNIT, EQUAL_MIX, 0.25, 0.0) == pytest.approx(
            1.5 + math.sqrt(2.0), rel=1e-12)

    def test_equal_mix_quarter_half_period(self):
        t = math.pi / delta_omega(UNIT)
        assert density_exact(UNIT, EQUAL_MIX, 0.25, t) == pytest.approx(
            1.5 - math.sqrt(2.0), rel=1e-9)

    def test_true_zero_two_thirds(self):
        assert density_exact(UNIT, EQUAL_MIX, 2.0 / 3.0, 0.0) < 1e-15

    def test_center_is_time_independent(self):
        vals = [density_exact(UNIT, EQUAL_MIX, 0.5, t)
                for t in np.linspace(0.0, 1.0, 11)]
        assert max(vals) - min(vals) < 1e-13
        assert vals[0] == pytest.approx(1.0, rel=1e-12)

    def test_imaginary_coefficient_kills_cosine(self):
        # c1 c2* purely imaginary: interference term is sin(dw t), zero at t=0
        state = TwoStateSuperposition(1j / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
        assert density_exact(UNIT, state, 0.25, 0.0) == pytest.approx(1.5, rel=1e-12)

    @given(coeffs, coeffs, positions, times)
    @settings(max_examples=80)
    def test_closed_form_matches_exact(self, c1, c2, x, t):
        state = TwoStateSuperposition(c1, c2)
        d1 = density_exact(UNIT, state, x, t)
        d2 = density_closed_form(UNIT, state, x, t)
        assert d1 >= 0.0
        assert abs(d1 - d2) <= 1e-12 * max(1.0, state.norm_sq())

    @given(coeffs, coeffs, positions, times)
    @settings(max_examples=60)
    def test_beat_periodicity(self, c1, c2, x, t):
        state = TwoStateSuperposition(c1, c2)
        T = beat_period(UNIT)
        d1 = density_exact(UNIT, state, x, t)
        d2 = density_exact(UNIT, state, x, t + T)
        assert abs(d1 - d2) <= 1e-10 * max(1.0, state.norm_sq())

    def test_broadcasting_matches_scalar(self):
        xs = np.linspace(0.0, 1.0, 9)
        ts = np.linspace(0.0, 0.4, 5)
        grid = density_exact(UNIT, EQUAL_MIX, xs[:, None], ts[None, :])
        assert grid.shape == (9, 5)
        assert grid[3, 2] == pytest.approx(
            density_exact(UNIT, EQUAL_MIX, float(xs[3]), float(ts[2])), rel=1e-14)

    @pytest.mark.parametrize("cfg", [UNIT, WellConfig(3.0, 0.2, 5.0)])
    def test_time_column_matches_per_instant_calls(self, cfg):
        # verify stacks its instants into one call and prints the errors, so
        # a stacked call must give the bits of one call per instant
        state = TwoStateSuperposition(0.3 - 0.8j, 1.1 + 0.2j)
        xs = np.linspace(0.0, cfg.width_a, 256)
        ts = np.linspace(0.0, 2.0 * beat_period(cfg), 13)
        stacked = density_exact(cfg, state, xs, ts[:, None])
        assert stacked.shape == (13, 256)
        for row, t in zip(stacked, ts.tolist()):
            assert np.array_equal(row, density_exact(cfg, state, xs, t))


class TestTimeCheck:
    """The kernels reject a time whose largest phase omega_2 t is not finite,
    with the finders' message and no numpy warning ahead of it."""

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 1e308, -1.2e307])
    @pytest.mark.parametrize("kernel", [evaluate_psi, density_exact, density_closed_form])
    def test_scalar_time(self, kernel, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"omega_2 t is not finite at t={t!r} "
                                                           f"for a=1.0, m=1.0, hbar=1.0")):
                kernel(UNIT, EQUAL_MIX, 0.3, t)

    def test_norm_integral(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape("at t=inf for a=1.0")):
                norm_integral(UNIT, EQUAL_MIX, t=math.inf)

    def test_array_names_the_first_bad_time_as_a_float(self):
        ts = np.array([[0.0, 0.5], [-1e308, math.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in (evaluate_psi, density_exact, density_closed_form):
                with pytest.raises(ValueError, match=re.escape("at t=-1e+308 for")):
                    kernel(UNIT, EQUAL_MIX, 0.3, ts)
            with pytest.raises(ValueError, match=re.escape("at t=nan for")):
                norm_integral(UNIT, EQUAL_MIX, ts[1, ::-1])

    def test_largest_finite_phase_accepted(self):
        # omega_2 = 4 dw / 3 with 4 dw = 1.8e308, just below the overflow
        cfg = WellConfig(hbar=3e306)
        t = 1.0 / omega(cfg, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(density_exact(cfg, EQUAL_MIX, 0.3, t))
            assert math.isfinite(density_exact(cfg, EQUAL_MIX, 0.3, 0.0))


class TestNorm:
    @pytest.mark.parametrize("cfg", [UNIT, WellConfig(3.0, 0.2, 5.0)])
    def test_array_of_times_matches_per_instant_calls(self, cfg):
        state = TwoStateSuperposition(0.3 - 0.8j, 1.1 + 0.2j)
        ts = np.linspace(0.0, beat_period(cfg), 10)
        per_instant = [norm_integral(cfg, state, t) for t in ts.tolist()]
        assert all(type(v) is float for v in per_instant)
        batch = norm_integral(cfg, state, ts)
        assert batch.shape == (10,) and batch.tolist() == per_instant
        assert norm_integral(cfg, state, ts.reshape(2, 5)).ravel().tolist() == per_instant
        assert type(norm_integral(cfg, state, ts[3])) is float

    def test_unnormalized_state(self):
        state = TwoStateSuperposition(3.0, 4.0)
        assert norm_integral(UNIT, state) == pytest.approx(25.0, abs=1e-6)

    def test_normalized_state_any_time(self):
        for t in (0.0, 0.1, 0.3):
            assert norm_integral(UNIT, EQUAL_MIX, t) == pytest.approx(1.0, abs=1e-8)

    @given(coeffs, coeffs, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40)
    def test_norm_conserved(self, c1, c2, frac):
        state = normalize(TwoStateSuperposition(c1, c2))
        t = frac * beat_period(UNIT)
        assert abs(norm_integral(UNIT, state, t) - 1.0) <= 1e-8

    def test_normalize_example(self):
        out = normalize(TwoStateSuperposition(1.0 + 1.0j, 0.0))
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-15)
        assert out.c2 == 0.0
        assert abs(out.c1) == pytest.approx(1.0, abs=1e-15)

    def test_normalize_three_four(self):
        out = normalize(TwoStateSuperposition(3.0, 4.0))
        assert out.c1 == pytest.approx(0.6, abs=1e-15)
        assert out.c2 == pytest.approx(0.8, abs=1e-15)

    @given(coeffs, coeffs)
    @settings(max_examples=60)
    def test_normalize_preserves_phase(self, c1, c2):
        state = TwoStateSuperposition(c1, c2)
        out = normalize(state)
        assert abs(out.norm_sq() - 1.0) <= 1e-12
        # the coefficient ratio is untouched by rescaling
        if abs(c2) > 1e-6:
            assert out.c1 / out.c2 == pytest.approx(c1 / c2, rel=1e-10)


# The kernels as they were written before they shared one validated pair of
# modes: each mode validated and evaluated on its own.
def _scalar_or_array(values):
    out = np.asarray(values)
    return out.item() if out.ndim == 0 else out


def _ref_eigenfunction(cfg, n, x):
    a = cfg.width_a
    xs = np.asarray(x, dtype=float)
    raw = math.sqrt(2.0 / a) * np.sin(n * math.pi * xs / a)
    return _scalar_or_array(np.where((xs == 0.0) | (xs == a), 0.0, raw))


def _ref_evaluate_psi(cfg, state, x, t):
    ts = np.asarray(t, dtype=float)
    out = state.c1 * _ref_eigenfunction(cfg, 1, x) * np.exp(-1j * omega(cfg, 1) * ts)
    out = out + state.c2 * _ref_eigenfunction(cfg, 2, x) * np.exp(-1j * omega(cfg, 2) * ts)
    return _scalar_or_array(out)


def _ref_density_exact(cfg, state, x, t):
    psi = np.asarray(_ref_evaluate_psi(cfg, state, x, t))
    return _scalar_or_array(psi.real**2 + psi.imag**2)


def _ref_density_closed_form(cfg, state, x, t):
    p1 = np.asarray(_ref_eigenfunction(cfg, 1, x))
    p2 = np.asarray(_ref_eigenfunction(cfg, 2, x))
    cross = state.c1 * np.conj(state.c2)
    osc = np.real(cross * np.exp(1j * delta_omega(cfg) * np.asarray(t, dtype=float)))
    return _scalar_or_array(abs(state.c1) ** 2 * p1**2 + abs(state.c2) ** 2 * p2**2
                            + 2.0 * p1 * p2 * osc)


def _ref_time_avg_density(cfg, state, x):
    p1 = np.asarray(_ref_eigenfunction(cfg, 1, x))
    p2 = np.asarray(_ref_eigenfunction(cfg, 2, x))
    return _scalar_or_array(abs(state.c1) ** 2 * p1**2 + abs(state.c2) ** 2 * p2**2)


def _ref_heatmap_values(cfg, x_count, mix_count):
    xs = np.linspace(0.0, cfg.width_a, x_count)
    thetas = np.linspace(0.0, math.pi / 2.0, mix_count)
    p1 = np.asarray(_ref_eigenfunction(cfg, 1, xs))
    p2 = np.asarray(_ref_eigenfunction(cfg, 2, xs))
    return np.outer(np.cos(thetas) ** 2, p1**2) + np.outer(np.sin(thetas) ** 2, p2**2)


def _same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


KERNEL_WELLS = [UNIT, WellConfig(1.3, 0.7, 2.0)]
KERNEL_STATE = TwoStateSuperposition(0.6 - 0.3j, -0.5 + 0.55j)


def _kernel_positions(cfg):
    a = cfg.width_a
    rng = np.random.default_rng(11)
    return [rng.uniform(0.0, a, 97), np.array([0.0, -0.0, a, math.nan, 0.5 * a]),
            0.3 * a, -0.0, a, math.nan, np.asarray(0.7 * a), np.array([]),
            np.linspace(0.0, a, 256)[:, None]]


class TestKernelBits:
    @pytest.mark.parametrize("cfg", KERNEL_WELLS, ids=["a1", "a1.3"])
    def test_position_kernels_keep_their_bits(self, cfg):
        ts = np.linspace(0.0, 2.0 * beat_period(cfg), 64)
        for x in _kernel_positions(cfg):
            # times along the other axis: (256, 1) x (1, 64), or (64, 1) x (n,)
            t = ts[None, :] if np.ndim(x) == 2 else ts[:, None]
            for n in (1, 2):
                _same_bits(eigenfunction(cfg, n, x), _ref_eigenfunction(cfg, n, x))
            _same_bits(time_avg_density(cfg, KERNEL_STATE, x),
                       _ref_time_avg_density(cfg, KERNEL_STATE, x))
            for tt in (0.37, t):
                for got, want in ((evaluate_psi, _ref_evaluate_psi),
                                  (density_exact, _ref_density_exact),
                                  (density_closed_form, _ref_density_closed_form)):
                    _same_bits(got(cfg, KERNEL_STATE, x, tt),
                               want(cfg, KERNEL_STATE, x, tt))

    @pytest.mark.parametrize("cfg", KERNEL_WELLS, ids=["a1", "a1.3"])
    def test_heatmap_keeps_its_bits(self, cfg):
        _same_bits(heatmap(cfg, 64, 64).values, _ref_heatmap_values(cfg, 64, 64))

    def test_scalars_and_walls(self):
        cfg = KERNEL_WELLS[1]
        assert type(eigenfunction(cfg, 1, 0.4)) is float
        assert type(time_avg_density(cfg, KERNEL_STATE, np.asarray(0.4))) is float
        assert type(density_exact(cfg, KERNEL_STATE, 0.4, 0.1)) is float
        assert type(evaluate_psi(cfg, KERNEL_STATE, 0.4, 0.1)) is complex
        for n in (1, 2):
            assert math.copysign(1.0, eigenfunction(cfg, n, -0.0)) == 1.0
        assert not np.signbit(time_avg_density(cfg, KERNEL_STATE, -0.0))

    @pytest.mark.parametrize("x", [-1e-300, np.nextafter(1.3, 2.0), [math.nan, -1.0],
                                   np.array([[0.5], [1.4]])])
    def test_every_kernel_rejects_the_same_position(self, x):
        cfg = KERNEL_WELLS[1]
        kernels = [lambda: eigenfunction(cfg, 1, x), lambda: eigenfunction(cfg, 2, x),
                   lambda: evaluate_psi(cfg, KERNEL_STATE, x, 0.0),
                   lambda: density_exact(cfg, KERNEL_STATE, x, 0.0),
                   lambda: density_closed_form(cfg, KERNEL_STATE, x, 0.0),
                   lambda: time_avg_density(cfg, KERNEL_STATE, x)]
        for kernel in kernels:
            with pytest.raises(ValueError, match=r"^position outside the well \[0, 1\.3\]$"):
                kernel()

    def test_index_is_checked_before_position(self):
        with pytest.raises(ValueError, match="eigenstate index"):
            eigenfunction(UNIT, 0, -1.0)


class TestGridReuse:
    """verify evaluates its random states on one grid into arrays it reuses;
    each result must keep the one-shot kernel's bits, whatever the arrays
    held before."""

    @pytest.mark.parametrize("cfg", KERNEL_WELLS, ids=["a1", "a1.3"])
    @pytest.mark.parametrize("on_norm_grid", [False, True], ids=["256x64", "10x2049"])
    def test_reused_arrays_keep_the_one_shot_bits(self, cfg, on_norm_grid):
        a, T = cfg.width_a, beat_period(cfg)
        if on_norm_grid:  # the Simpson grid of norm-value and norm-constancy
            x, t = np.linspace(0.0, a, 2049), np.linspace(0.0, T, 10)[:, None]
            grid = _norm_grid(cfg, t[:, 0])
        else:  # the grid of closed-form-equivalence
            x, t = np.linspace(0.0, a, 256)[:, None], np.linspace(0.0, T, 64)[None, :]
            grid = _Grid(cfg, x, t)
        psi, tmp = np.full(grid.shape, complex(math.nan, math.nan)), np.empty(grid.shape, complex)
        rho, closed = np.full(grid.shape, math.nan), np.full(grid.shape, math.nan)
        rng = np.random.default_rng(5)
        for _ in range(3):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            state = TwoStateSuperposition(c[0], c[1])
            got = grid.psi(state, out=psi, tmp=tmp)
            assert got is psi
            _same_bits(got, evaluate_psi(cfg, state, x, t))
            got = grid.density_exact(state, out=rho, psi=psi, tmp=tmp)
            assert got is rho
            _same_bits(got, density_exact(cfg, state, x, t))
            if on_norm_grid:
                _same_bits(_simpson_norm(cfg, rho), norm_integral(cfg, state, t[:, 0]))
            got = grid.density_closed_form(state, out=closed)
            assert got is closed
            _same_bits(got, density_closed_form(cfg, state, x, t))
