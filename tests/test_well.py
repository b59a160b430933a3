"""Eigenstates, densities, and norms against hand-derived values."""

import cmath
import copy
import dataclasses
import importlib.util
import math
import pickle
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxnodes.analysis import heatmap, time_avg_density
from boxnodes.well import (
    TwoStateSuperposition,
    WellConfig,
    _beat_frequency,
    _Grid,
    _modes,
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
import exact

_spec = importlib.util.spec_from_file_location(
    "kernel_bits", Path(__file__).resolve().parents[1] / "scripts" / "kernel_bits.py")
kernel_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_bits)

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

    @pytest.mark.parametrize("c1, c2", [(1e-170, 1e-170), (0.0, 1e-170j), (-1e-200, 0.0)])
    def test_underflowing_norm_rejected(self, c1, c2):
        # a nonzero state whose |c1|^2 + |c2|^2 rounds to 0
        with pytest.raises(ValueError, match=r"^\|c1\|\^2 \+ \|c2\|\^2 underflows to 0 "
                                             r"for c1=.*, c2=.*$"):
            TwoStateSuperposition(c1, c2)

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

    @pytest.mark.parametrize("args", [(1e-308, 1e300, 1e-310), (1e-309, 1e300, 1e-312),
                                      (5e-324, 1e300, 1e-300)])
    def test_width_whose_mode_amplitude_overflows_rejected(self, args):
        # dw is finite on these wells, but 2/a is not, so sqrt(2/a) psi would
        # be inf, the time-averaged density inf and heatmap cells null
        assert not math.isfinite(2.0 / args[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(_beat_frequency(*args))
            with pytest.raises(ValueError, match=rf"sqrt\(2/a\) .* a={args[0]!r}$"):
                WellConfig(*args)

    def test_narrowest_width_accepted(self):
        # a width just above 2/DBL_MAX keeps finite modes
        a = math.nextafter(2.0 / sys.float_info.max, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = WellConfig(a, 1e300, 1e-310)
            assert math.isfinite(eigenfunction(cfg, 1, 0.5 * a))


class TestWideWell:
    """On a well wider than DBL_MAX / (2 pi), about 2.9e307, the phase 2 pi x
    of psi_2 overflows near the far wall: the kernels name x and the well
    in a ValueError instead of warning and returning NaN."""

    WIDE = WellConfig(1e308, 1e-300, 1e300)
    # 2 pi a is finite, 3 pi a is not
    EDGE = WellConfig(2.8e307, 1e-300, 1e300)

    def test_overflowing_phase_rejected(self):
        cfg, x = self.WIDE, [0.5e308, 1e308]
        kernels = [lambda: _modes(cfg, x), lambda: eigenfunction(cfg, 2, x),
                   lambda: evaluate_psi(cfg, EQUAL_MIX, x, 0.0),
                   lambda: density_exact(cfg, EQUAL_MIX, x, 0.0),
                   lambda: density_closed_form(cfg, EQUAL_MIX, x, 0.0),
                   lambda: norm_integral(cfg, EQUAL_MIX),
                   lambda: time_avg_density(cfg, EQUAL_MIX, x), lambda: heatmap(cfg, 8, 8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kernel in kernels:
                with pytest.raises(ValueError, match=r"phase .* x=1e\+308 .* a=1e\+308$"):
                    kernel()

    def test_phase_is_checked_at_the_largest_position(self):
        # the largest x at which 2 pi x is finite passes, the next float does not
        x = sys.float_info.max / (2.0 * math.pi)
        while math.isfinite(2.0 * math.pi * math.nextafter(x, math.inf)):
            x = math.nextafter(x, math.inf)
        while not math.isfinite(2.0 * math.pi * x):
            x = math.nextafter(x, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes = _modes(self.WIDE, [0.0, math.nan, x])
            assert np.isfinite(modes[:, ::2]).all() and np.isnan(modes[:, 1]).all()
            assert math.isfinite(eigenfunction(self.WIDE, 1, 2.0 * x))
            with pytest.raises(ValueError, match="phase"):
                _modes(self.WIDE, [math.nextafter(x, math.inf), 0.0])
            # psi_2 is finite on the whole of the narrower well, psi_3 is not
            assert math.isfinite(eigenfunction(self.EDGE, 2, 2.8e307))
            with pytest.raises(ValueError, match="phase"):
                eigenfunction(self.EDGE, 3, 2.8e307)

    def test_positions_without_a_phase_pass(self):
        # an empty or all-NaN x has no largest position
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _modes(self.WIDE, []).shape == (2, 0)
            assert np.isnan(time_avg_density(self.WIDE, EQUAL_MIX, [math.nan])).all()

    def test_widest_kernels_run_without_warnings(self):
        cfg = self.EDGE
        x = np.linspace(0.0, cfg.width_a, 65)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            avg = time_avg_density(cfg, EQUAL_MIX, x)
            grid = heatmap(cfg, 64, 64)
        assert np.isfinite(avg).all() and (avg[1:-1] > 0.0).all()
        assert np.isfinite(grid.values).all()


def _frequencies(cfg):
    """The frequencies a well keeps, as hex strings: dw, omega_1, omega_2."""
    return cfg._dw.hex(), cfg._omega_1.hex(), cfg._omega_2.hex()


# the seeded and extreme wells of the kernel sample that the byte gate pins
_WELLS = kernel_bits.WELLS


class TestCachedFrequencies:
    """WellConfig computes dw, omega_1 and omega_2 once, when it is built."""

    def test_equal_the_public_functions(self):
        # omega computes n^2 dw / 3 afresh from the kept dw, and dw afresh
        # from the three fields
        for cfg in _WELLS:
            assert _frequencies(cfg) == (delta_omega(cfg).hex(), omega(cfg, 1).hex(),
                                         omega(cfg, 2).hex()), cfg
            assert cfg._dw.hex() == _beat_frequency(cfg.width_a, cfg.mass_m,
                                                    cfg.hbar).hex(), cfg

    @pytest.mark.parametrize("cfg", _WELLS[-4:], ids=repr)
    def test_survive_copies(self, cfg):
        for twin in (dataclasses.replace(cfg), copy.copy(cfg), copy.deepcopy(cfg),
                     pickle.loads(pickle.dumps(cfg))):
            assert twin == cfg and _frequencies(twin) == _frequencies(cfg)
        moved = dataclasses.replace(cfg, hbar=0.5 * cfg.hbar)
        assert _frequencies(moved) == _frequencies(
            WellConfig(cfg.width_a, cfg.mass_m, 0.5 * cfg.hbar))
        assert _frequencies(moved) != _frequencies(cfg)

    def test_are_not_fields(self):
        cfg = WellConfig(1.37, 0.6, 1.9)
        assert [f.name for f in dataclasses.fields(cfg)] == ["width_a", "mass_m", "hbar"]
        assert repr(cfg) == "WellConfig(width_a=1.37, mass_m=0.6, hbar=1.9)"
        assert dataclasses.asdict(cfg) == {"width_a": 1.37, "mass_m": 0.6, "hbar": 1.9}
        assert hash(cfg) == hash((1.37, 0.6, 1.9))
        twin = WellConfig(1.37, 0.6, 1.9)
        object.__setattr__(twin, "_dw", 0.0)
        assert twin == cfg and hash(twin) == hash(cfg)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg._dw = 1.0


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

    @pytest.mark.parametrize("n", [math.inf, math.nan, None, 2.5, -math.inf],
                             ids=["inf", "nan", "none", "fraction", "minus-inf"])
    def test_non_integer_index_is_named(self, n):
        # int() of inf, NaN and None raised OverflowError, ValueError and
        # TypeError without naming the index
        message = rf"^eigenstate index must be a positive integer, got {re.escape(repr(n))}$"
        for kernel in (lambda: eigenfunction(UNIT, n, 0.5), lambda: omega(UNIT, n),
                       lambda: energy(UNIT, n)):
            with pytest.raises(ValueError, match=message):
                kernel()

    @pytest.mark.parametrize("n", [2.0, np.int64(2), np.int32(2), np.float64(2.0)])
    def test_integral_index_is_accepted(self, n):
        assert eigenfunction(UNIT, n, 0.3) == eigenfunction(UNIT, 2, 0.3)
        assert omega(UNIT, n) == omega(UNIT, 2) and energy(UNIT, n) == energy(UNIT, 2)

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

    def test_omega_equals_the_plain_expression(self):
        # n * n * dw / 3 keeps its bits wherever its steps are normal floats
        rng = np.random.default_rng(19)
        checked = 0
        for a, m, hbar in (10.0 ** rng.uniform(-150, 150, size=(3000, 3))).tolist():
            try:
                cfg = WellConfig(a, m, hbar)
            except ValueError:
                continue
            dw = delta_omega(cfg)
            for n in (1, 2, 3, 5):
                plain = n * n * dw
                if math.isfinite(plain) and plain / 3.0 >= sys.float_info.min:
                    assert omega(cfg, n).hex() == (plain / 3.0).hex()
                    checked += 1
        assert checked > 5000

    def test_delta_omega_unit_value(self):
        # 3 pi^2 / 2 for a = m = hbar = 1
        assert delta_omega(UNIT) == pytest.approx(14.804406601634037, abs=1e-12)

    @pytest.mark.parametrize("a, m, hbar", [(0.1, 1e12, 1e308), (1e100, 1e-300, 1e-220)],
                             ids=["pi-hbar-over-a-overflows", "pi-hbar-over-a-subnormal"])
    def test_delta_omega_needs_only_a_normal_result(self, a, m, hbar):
        dw = delta_omega(WellConfig(a, m, hbar))
        assert abs(Fraction(dw) - exact.delta_omega(a, m, hbar)) <= 2 * Fraction(math.ulp(dw))

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

    @pytest.mark.parametrize("kernel", [evaluate_psi, density_exact, density_closed_form])
    def test_shapes_that_do_not_broadcast_are_named(self, kernel):
        with pytest.raises(ValueError, match=re.escape(
                "positions x of shape (3,) and times t of shape (4,) do not broadcast")):
            kernel(UNIT, EQUAL_MIX, np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4))

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


class TestOverflow:
    """A kernel whose result overflows raises ValueError naming the state and
    the well, with no numpy warning."""

    # the bound 4/a overflows, and the equal mix's density with it
    NARROW = WellConfig(1.5e-308, 1e308, 1e-308)
    LARGE = (WellConfig(1e-100, 1e100, 1e-100), TwoStateSuperposition(1e150, 1e150))

    @pytest.mark.parametrize("kernel, what, cfg, state", [
        (density_exact, "the density", *LARGE),
        (density_closed_form, "the density", *LARGE),
        (lambda cfg, state, x, t: time_avg_density(cfg, state, x), "the time-averaged density",
         *LARGE),
        (density_exact, "the density", NARROW, EQUAL_MIX),
        (density_closed_form, "the density", NARROW, EQUAL_MIX),
    ], ids=["exact-c1e150", "closed_form-c1e150", "time_avg-c1e150", "exact-a1.5e-308",
            "closed_form-a1.5e-308"])
    def test_overflowing_density_raises(self, kernel, what, cfg, state):
        xs = np.linspace(0.0, cfg.width_a, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"{what} of c1={state.c1!r}, c2={state.c2!r} overflows for {cfg._label()}")):
                kernel(cfg, state, xs, 0.0)

    def test_narrow_well_without_overflow(self):
        # on a well narrower than 4/DBL_MAX, 2 psi_1 psi_2 is inf at a/4, yet
        # psi and the density of a small state are finite, and are returned
        # without a warning, by the closed form too, which puts the 2 on its
        # oscillating term. A NaN position still gives NaN
        cfg, state = self.NARROW, TwoStateSuperposition(1e-10, 1e-10)
        xs = [0.5 * cfg.width_a, 0.25 * cfg.width_a, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = evaluate_psi(cfg, state, xs, 0.0)
            rho = density_exact(cfg, state, xs, 0.0)
            closed = density_closed_form(cfg, state, xs, 0.0)
            avg = time_avg_density(cfg, state, xs)
        assert np.isfinite(psi[:2]).all() and np.isfinite(rho[:2]).all()
        assert closed[:2].tolist() == pytest.approx(rho[:2].tolist(), rel=1e-12, abs=0.0)
        assert np.isnan(rho[2]) and np.isnan(closed[2]) and np.isnan(avg[2])
        # sin(pi/2) = 1 and |sin(pi)| < 2e-16, so psi_1 = sqrt(2/a) and psi_2 is
        # about 0 there
        assert rho[0] == pytest.approx(2e-20 / cfg.width_a, rel=1e-12)
        assert avg[0] == pytest.approx(2e-20 / cfg.width_a, rel=1e-12)

    def test_closed_form_on_narrow_wells(self):
        # no factor of the closed form exceeds 2/a or |c1|^2 + |c2|^2, so on
        # wells narrower than 4/DBL_MAX it is finite, without a warning,
        # wherever the density is well inside the float range, and it agrees
        # with the density there within closed-form-equivalence's tolerance
        rng = np.random.default_rng(40)
        checked = 0
        for a in np.linspace(1.2e-308, 2.2e-308, 6).tolist():
            cfg = WellConfig(a, 1e308, 1e-308)
            for _ in range(8):
                c = rng.standard_normal(4) * 10.0 ** rng.uniform(-10.0, -0.5)
                state = TwoStateSuperposition(complex(c[0], c[1]), complex(c[2], c[3]))
                t = float(rng.uniform(0.0, beat_period(cfg)))
                for x in np.linspace(0.0, a, 33).tolist():
                    try:
                        rho = density_exact(cfg, state, x, t)
                    except ValueError:  # the density itself overflows
                        continue
                    if rho >= sys.float_info.max / 8.0:
                        continue
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        closed = density_closed_form(cfg, state, x, t)
                    assert math.isfinite(closed), (a, state, x)
                    assert abs(closed - rho) <= 1e-12 * (state.norm_sq() / a), (a, state, x)
                    checked += 1
        assert checked > 1000

    def test_large_state_psi_and_nan_positions(self):
        # psi of the large state stays below DBL_MAX, and a NaN position on
        # the overflow path gives NaN, not an error
        cfg, state = self.LARGE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = evaluate_psi(cfg, state, 0.5 * cfg.width_a, 0.0)
            assert math.isnan(time_avg_density(cfg, state, math.nan))
            assert math.isnan(density_exact(cfg, state, math.nan, 0.0))
        assert psi == pytest.approx(1e150 * math.sqrt(2e100), rel=1e-12)


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

    @pytest.mark.parametrize("cfg, state", [
        (WellConfig(1e-305, 1e308, 1e-308), EQUAL_MIX),
        (WellConfig(1.5e-308, 1e308, 1e-308), EQUAL_MIX),
        (WellConfig(1e-100, 1e100, 1e-100), TwoStateSuperposition(1e150, 1e150)),
    ], ids=["a1e-305", "a1.5e-308", "c1e150"])
    def test_overflowing_sum_raises(self, cfg, state):
        # a Simpson sum past DBL_MAX, on a narrow well or for a large state,
        # raises naming the state and the well, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"norm of c1={state.c1!r}, c2={state.c2!r} overflows for {cfg._label()}")):
                norm_integral(cfg, state)

    @pytest.mark.parametrize("a, norm", [(1.3670853786668245e-304, "0x1.ffffffffffffep-1"),
                                         (1e-303, "0x1.ffffffffffffcp-1")])
    def test_narrowest_wells_keep_their_bits(self, a, norm):
        # the bound 24576 (|c1|^2 + |c2|^2) / a overflows at the first width,
        # but the sums do not, so the norm is returned with its bits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm_integral(WellConfig(a, 1e308, 1e-308), EQUAL_MIX).hex() == norm

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

    @pytest.mark.parametrize("c1, c2", [(1e-161, 1e-161), (1e-160, 1e-160),
                                        (3e-162 + 2e-161j, -1e-161j)])
    def test_normalize_state_with_subnormal_norm(self, c1, c2):
        # |c1|^2 + |c2|^2 is subnormal; dividing by its root gave norm_sq()
        # 1.012 for the first state and 1.000011 for the second
        out = normalize(TwoStateSuperposition(c1, c2))
        assert abs(out.norm_sq() - 1.0) <= 4 * math.ulp(1.0)

    def test_normalize_keeps_the_bits_of_normal_states(self):
        rng = np.random.default_rng(34)
        for scale in (1.0, 1e-150, 1e150):
            for re1, im1, re2, im2 in (rng.standard_normal((200, 4)) * scale).tolist():
                state = TwoStateSuperposition(complex(re1, im1), complex(re2, im2))
                s = math.sqrt(state.norm_sq())
                out = normalize(state)
                for got, want in ((out.c1, state.c1 / s), (out.c2, state.c2 / s)):
                    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    @given(coeffs, coeffs)
    @settings(max_examples=60)
    def test_normalize_preserves_phase(self, c1, c2):
        state = TwoStateSuperposition(c1, c2)
        out = normalize(state)
        assert abs(out.norm_sq() - 1.0) <= 1e-12
        # the coefficient ratio is untouched by rescaling
        if abs(c2) > 1e-6:
            assert out.c1 / out.c2 == pytest.approx(c1 / c2, rel=1e-10)


def _same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


KERNEL_WELLS = [UNIT, WellConfig(1.3, 0.7, 2.0)]
KERNEL_STATE = TwoStateSuperposition(0.6 - 0.3j, -0.5 + 0.55j)


class TestKernelBits:
    """Each kernel's bits are pinned by scripts/kernel_bits.py through the
    byte gate; these tests pin the types and shapes, what the kernels
    accept and reject, and that the stacked modes are eigenfunction's."""

    @pytest.mark.parametrize("cfg", KERNEL_WELLS, ids=["a1", "a1.3"])
    def test_types_and_shapes(self, cfg):
        # a scalar or 0-d position gives a Python scalar and an array
        # position an array of its shape; times along a new first axis add
        # that axis to the result
        xs, with_nan = kernel_bits.edge_positions(cfg.width_a, np.random.default_rng(27))
        ts = np.linspace(0.0, 2.0 * beat_period(cfg), 5)
        for x in xs + with_nan:
            results = [(eigenfunction(cfg, n, x), float) for n in (1, 2, 3)] + [
                (time_avg_density(cfg, KERNEL_STATE, x), float),
                (evaluate_psi(cfg, KERNEL_STATE, x, 0.37), complex),
                (density_exact(cfg, KERNEL_STATE, x, 0.37), float),
                (density_closed_form(cfg, KERNEL_STATE, x, 0.37), float)]
            for got, dtype in results:
                if np.ndim(x) == 0:
                    assert type(got) is dtype
                else:
                    assert type(got) is np.ndarray and got.dtype == dtype
                    assert got.shape == np.shape(x)
            t = ts.reshape(-1, *(1,) * np.ndim(x))
            for kernel, dtype in ((evaluate_psi, complex), (density_exact, float),
                                  (density_closed_form, float)):
                got = kernel(cfg, KERNEL_STATE, x, t)
                assert got.dtype == dtype and got.shape == (5, *np.shape(x))

    def test_stacked_modes_keep_each_rows_bits(self):
        # _modes evaluates psi_1 and psi_2 in one pass, stacked on a new first
        # axis: each row keeps the bits of eigenfunction's one-mode pass, on
        # seeded and extreme wells, for scalar, 1-D and 2-D x, x = a, x = +-0.0
        # and NaN
        rng = np.random.default_rng(26)
        for cfg in _WELLS:
            a = cfg.width_a
            xs, with_nan = kernel_bits.edge_positions(a, rng)
            for x in xs + with_nan + [rng.uniform(0.0, a, 33), rng.uniform(0.0, a, (5, 7))]:
                modes = _modes(cfg, x)
                assert modes.shape == (2, *np.shape(x))
                for n in (1, 2):
                    _same_bits(np.asarray(modes[n - 1]), np.asarray(eigenfunction(cfg, n, x)))

    def test_heatmap_keeps_its_bits_on_seeded_wells(self):
        # both axes are np.linspace's
        rng = np.random.default_rng(27)
        for cfg in _WELLS:
            x_count, mix_count = (int(n) for n in rng.integers(8, 100, 2))
            grid = heatmap(cfg, x_count, mix_count)
            assert grid.values.shape == (mix_count, x_count) and grid.values.dtype == float
            _same_bits(grid.x_values, np.linspace(0.0, cfg.width_a, x_count))
            _same_bits(grid.mix_values, np.linspace(0.0, math.pi / 2.0, mix_count))

    def test_scalars_and_walls(self):
        cfg = KERNEL_WELLS[1]
        assert type(eigenfunction(cfg, 1, 0.4)) is float
        assert type(time_avg_density(cfg, KERNEL_STATE, np.asarray(0.4))) is float
        assert type(density_exact(cfg, KERNEL_STATE, 0.4, 0.1)) is float
        assert type(evaluate_psi(cfg, KERNEL_STATE, 0.4, 0.1)) is complex
        for n in (1, 2):
            assert math.copysign(1.0, eigenfunction(cfg, n, -0.0)) == 1.0
        assert not np.signbit(time_avg_density(cfg, KERNEL_STATE, -0.0))

    @pytest.mark.parametrize("kernel, in_x, in_t", [
        (lambda cfg, state, x, t: eigenfunction(cfg, 2, x), True, False),
        (lambda cfg, state, x, t: evaluate_psi(cfg, state, x, t), True, True),
        (lambda cfg, state, x, t: density_exact(cfg, state, x, t), True, True),
        (lambda cfg, state, x, t: density_closed_form(cfg, state, x, t), True, True),
        (lambda cfg, state, x, t: norm_integral(cfg, state, t), False, True),
        (lambda cfg, state, x, t: time_avg_density(cfg, state, x), True, False),
    ], ids=["eigenfunction", "evaluate_psi", "density_exact", "density_closed_form",
            "norm_integral", "time_avg_density"])
    def test_scalar_gets_the_one_element_arrays_bits(self, kernel, in_x, in_t):
        # on every well of the kernel sample, each scalar or 0-d position
        # and a scalar time give the bits of the same value as a one-element
        # array, in every argument the kernel takes
        rng = np.random.default_rng(37)
        for cfg in kernel_bits.WELLS:
            xs, _ = kernel_bits.edge_positions(cfg.width_a, rng)
            c = rng.standard_normal(4)
            state = TwoStateSuperposition(complex(c[0], c[1]), complex(c[2], c[3]))
            t = float(rng.uniform(0.0, 1.0)) * min(beat_period(cfg), 1e300)
            for x in (x for x in xs if np.ndim(x) == 0):
                scalar = np.array([kernel(cfg, state, x, t)])
                if in_x:
                    _same_bits(scalar, kernel(cfg, state, np.reshape(x, 1), t))
                if in_t:
                    _same_bits(scalar, kernel(cfg, state, x, np.array([t])))

    @pytest.mark.parametrize("x", [-1e-300, np.nextafter(1.3, 2.0), [math.nan, -1.0],
                                   np.array([[0.5], [1.4]]),
                                   [math.nan, np.nextafter(1.3, math.inf)]])
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

    @pytest.mark.parametrize("x", [math.nan, [math.nan, math.nan], np.full((2, 3), math.nan)],
                             ids=["scalar", "1-D", "2-D"])
    def test_every_kernel_accepts_all_nan_positions(self, x):
        # a NaN position is not outside the well: it gives NaN, without a warning
        cfg = KERNEL_WELLS[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (eigenfunction(cfg, 1, x), eigenfunction(cfg, 3, x),
                        evaluate_psi(cfg, KERNEL_STATE, x, 0.0),
                        density_exact(cfg, KERNEL_STATE, x, 0.0),
                        density_closed_form(cfg, KERNEL_STATE, x, 0.0),
                        time_avg_density(cfg, KERNEL_STATE, x)):
                assert np.shape(got) == np.shape(x) and np.isnan(got).all()

    @pytest.mark.parametrize("n", [10**400, 2**1023], ids=["beyond-float", "n-pi-overflows"])
    def test_index_whose_phase_overflows_is_named(self, n):
        # 10**400 cannot be converted to a float, and 2**1023 * pi is inf
        with pytest.raises(ValueError, match=r"^eigenstate index n is too large: "
                                             r"n pi is not a finite float$"):
            eigenfunction(UNIT, n, 0.5)
        # the frequencies keep returning inf beyond the float range
        assert omega(UNIT, n) == math.inf and energy(UNIT, n) == math.inf

    def test_index_is_checked_before_position(self):
        with pytest.raises(ValueError, match="eigenstate index"):
            eigenfunction(UNIT, 0, -1.0)


class TestStaticDensity:
    """The beat-period average |c1|^2 psi_1^2 + |c2|^2 psi_2^2 is the static
    term of the closed form, and the heatmap is that average for the states
    (cos theta, sin theta): one kernel forms all three, so each identity
    holds bit for bit on every well of the kernel sample."""

    def test_heatmap_rows_are_time_averages(self):
        rng = np.random.default_rng(41)
        for cfg in _WELLS:
            x_count, mix_count = (int(n) for n in rng.integers(8, 40, 2))
            grid = heatmap(cfg, x_count, mix_count)
            thetas = grid.mix_values
            for row, c1, c2 in zip(grid.values, np.cos(thetas).tolist(),
                                   np.sin(thetas).tolist()):
                _same_bits(row, time_avg_density(cfg, TwoStateSuperposition(c1, c2),
                                                 grid.x_values))

    def test_closed_form_at_zero_is_the_time_average(self):
        # c1 conj(c2) is purely imaginary, so at t = 0, where e^{i dw t} is
        # exactly 1, the interference factor is a zero and adds nothing
        rng = np.random.default_rng(42)
        for cfg in _WELLS:
            xs, _ = kernel_bits.edge_positions(cfg.width_a, rng)
            c = rng.standard_normal(2) * 10.0 ** float(rng.uniform(-100.0, 100.0))
            for state in (TwoStateSuperposition(0.6, 0.8j),
                          TwoStateSuperposition(c[0], 1j * c[1])):
                for x in xs + [rng.uniform(0.0, cfg.width_a, (3, 5))]:
                    _same_bits(density_closed_form(cfg, state, x, 0.0),
                               time_avg_density(cfg, state, x))


class TestGridReuse:
    """verify evaluates its random states on one grid with its densities
    generator, which reuses one result array; each result must keep the
    one-shot kernel's bits, whatever the arrays held before."""

    @pytest.mark.parametrize("cfg", KERNEL_WELLS, ids=["a1", "a1.3"])
    @pytest.mark.parametrize("on_norm_grid", [False, True], ids=["256x64", "10x2049"])
    def test_reused_arrays_keep_the_one_shot_bits(self, cfg, on_norm_grid):
        a, T = cfg.width_a, beat_period(cfg)
        if on_norm_grid:  # the Simpson grid of norm-value and norm-constancy
            x, t = np.linspace(0.0, a, 2049), np.linspace(0.0, T, 10)[:, None]
            grid = _norm_grid(cfg, t[:, 0])
        else:  # the instant-major grid of closed-form-equivalence
            x, t = np.linspace(0.0, a, 256)[None, :], np.linspace(0.0, T, 64)[:, None]
            grid = _Grid(cfg, x, t)
        rng = np.random.default_rng(5)
        states = []
        for _ in range(3):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            states.append(TwoStateSuperposition(c[0], c[1]))
        yielded = []
        for state, rho in grid.densities(states):
            yielded.append(rho)
            _same_bits(rho, density_exact(cfg, state, x, t))
            if on_norm_grid:
                _same_bits(_simpson_norm(cfg, rho), norm_integral(cfg, state, t[:, 0]))
            _same_bits(grid.density_closed_form(state), density_closed_form(cfg, state, x, t))
        # one result array, yielded for every state
        assert len(yielded) == 3 and all(rho is yielded[0] for rho in yielded)


# the accuracy bound of the density kernels, in units of
# eps (|c1|^2 + |c2|^2)(psi_1^2 + psi_2^2), which bounds |Psi|^2 and every
# term of it; over these draws the worst is 1.84 units. The instants stay
# within one beat period: a kernel that rounded the phases w1 t and w2 t
# apart would add an error that grows with t
DENSITY_EPS_UNITS = 8


class TestDensityAccuracy:
    """density_exact and the densities generator against exact.density, on
    seeded wells, positions with the walls, instants over one beat period, and
    complex states scaled by 10**-100, 1 and 10**100."""

    def test_density_within_a_few_eps_of_the_exact_density(self):
        rng = np.random.default_rng(43)
        eps = sys.float_info.epsilon
        for _ in range(16):
            cfg = WellConfig(*(10.0 ** rng.uniform(-5.0, 5.0, 3)))
            a, dw = cfg.width_a, delta_omega(cfg)
            x = np.concatenate([[0.0, a], rng.uniform(0.0, a, 10)])
            t = np.concatenate([[0.0, beat_period(cfg)], rng.uniform(0.0, beat_period(cfg), 6)])
            m1, m2 = eigenfunction(cfg, 1, x), eigenfunction(cfg, 2, x)
            states = [TwoStateSuperposition(*((rng.standard_normal(2)
                                               + 1j * rng.standard_normal(2)) * 10.0 ** s))
                      for s in (-100.0, 0.0, 100.0)]
            grid = _Grid(cfg, x[:, None], t[None, :])
            for state, yielded in grid.densities(states):
                one_shot = density_exact(cfg, state, x[:, None], t[None, :])
                for i, j in np.ndindex(one_shot.shape):
                    want = exact.density(state, float(m1[i]), float(m2[i]), dw * float(t[j]))
                    bound = DENSITY_EPS_UNITS * eps * state.norm_sq() * (m1[i] ** 2 + m2[i] ** 2)
                    for rho in (one_shot, yielded):
                        assert abs(Fraction(rho[i, j]) - want) <= Fraction(bound), \
                            (cfg, state, x[i], t[j])

    def test_psi_squared_is_the_density_at_every_instant(self):
        # psi and the densities share one relative phase e^{-i dw t}, so
        # |psi|^2 keeps to density_exact at instants up to 1e6 beat periods,
        # where phases rounded from w2 t and from dw t apart would not
        rng = np.random.default_rng(44)
        eps = sys.float_info.epsilon
        for _ in range(200):
            cfg = WellConfig(*(10.0 ** rng.uniform(-5.0, 5.0, 3)))
            x = rng.uniform(0.0, cfg.width_a, 16)
            t = beat_period(cfg) * 10.0 ** rng.uniform(0.0, 6.0, 16)
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            state = TwoStateSuperposition(c[0], c[1])
            psi = evaluate_psi(cfg, state, x, t)
            bound = (DENSITY_EPS_UNITS * eps * state.norm_sq()
                     * (eigenfunction(cfg, 1, x) ** 2 + eigenfunction(cfg, 2, x) ** 2))
            error = np.abs(psi.real ** 2 + psi.imag ** 2 - density_exact(cfg, state, x, t))
            assert np.all(error <= bound), (cfg, state)
