"""Amplitude scaling, power-law fits, time averages, heatmaps."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxnodes
from boxnodes.analysis import (
    AmplitudeSweep,
    SweepSpec,
    amplitude_sweep,
    fit_power_law,
    heatmap,
    oscillation_amplitude,
    time_avg_density,
    time_avg_node_position,
)
from boxnodes.well import TwoStateSuperposition, WellConfig, eigenfunction
import exact
from peaks import local_max_positions, peak_separation

UNIT = WellConfig()
EQUAL_MIX = TwoStateSuperposition(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


def _hand_built_sweep(seed, ratio_decades, amplitude_decades):
    """3 to 8 unsorted points, ratios log-uniform over ratio_decades below 1
    and amplitudes over amplitude_decades below 1: data far from a power law."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    ratios, amps = (np.array([10.0 ** e for e in rng.uniform(-decades, 0.0, n).tolist()])
                    for decades in (ratio_decades, amplitude_decades))
    return AmplitudeSweep(ratios, amps)


class TestOscillationAmplitude:
    def test_equal_mix_sixth(self):
        # arcsin(1/2)/pi = 1/6
        assert oscillation_amplitude(UNIT, 0.5) == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_full_swing_at_unit_ratio(self):
        assert oscillation_amplitude(UNIT, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_sign_of_ratio_is_irrelevant(self):
        assert oscillation_amplitude(UNIT, -0.7) == pytest.approx(
            oscillation_amplitude(UNIT, 0.7), abs=1e-12)

    def test_above_unit_rejected(self):
        with pytest.raises(ValueError, match="leaves the well"):
            oscillation_amplitude(UNIT, 1.2)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("observable", [oscillation_amplitude, time_avg_node_position])
    def test_nonfinite_ratio_rejected(self, observable, ratio):
        with pytest.raises(ValueError, match="ratio must be finite"):
            observable(UNIT, ratio)

    def test_width_scaling(self):
        wide = WellConfig(width_a=2.0)
        assert oscillation_amplitude(wide, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("A", [1e-10, 1e-14, 1e-17, 0.5, 1.0])
    def test_relative_error_against_asin(self, A):
        # half the difference of two arccos values near pi/2 cancels the
        # digits of a small A
        predicted = math.asin(A) / math.pi
        assert abs(oscillation_amplitude(UNIT, A) - predicted) <= 1e-15 * predicted

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_arcsin_oracle(self, A):
        predicted = math.asin(A) / math.pi
        assert oscillation_amplitude(UNIT, A) == pytest.approx(predicted, abs=1e-9)


class TestSweepAndFit:
    def test_spec_values_log(self):
        spec = SweepSpec(a_min=0.05, a_max=1.0, count=64)
        vals = spec.values()
        assert len(vals) == 64
        assert vals[0] == pytest.approx(0.05, rel=1e-12)
        assert vals[-1] == pytest.approx(1.0, rel=1e-12)
        # log spacing: constant ratio between neighbors
        q = vals[1:] / vals[:-1]
        assert np.max(q) - np.min(q) < 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(a_min=0.0, a_max=1.0, count=8)
        with pytest.raises(ValueError):
            SweepSpec(a_min=0.5, a_max=0.1, count=8)
        with pytest.raises(ValueError):
            SweepSpec(a_min=0.1, a_max=1.5, count=8)
        with pytest.raises(ValueError):
            SweepSpec(a_min=0.1, a_max=0.9, count=1)
        with pytest.raises(ValueError):
            SweepSpec(a_min=0.1, a_max=0.9, count=8, spacing="cubic")

    def test_spec_count_must_be_an_integer(self):
        for count in (64.0, np.float64(64.0), "64"):
            with pytest.raises(ValueError, match=f"^count must be an integer, got {re.escape(repr(count))}$"):
                SweepSpec(0.1, 0.9, count)
        for count in (np.int64(8), np.int32(8), 8):
            assert SweepSpec(0.1, 0.9, count).values().tobytes() == \
                np.geomspace(0.1, 0.9, 8).tobytes()

    @pytest.mark.parametrize("spacing", ["logarithmic", "linear"])
    def test_spec_values_stay_in_range(self, spacing):
        # amplitude_sweep takes asin of every value unchecked: each must be a
        # finite float in [a_min, a_max], down to subnormal a_min
        rng = np.random.default_rng(2424)
        bounds = [(5e-324, 1.0), (1e-320, 1e-319), (0.5, math.nextafter(0.5, 1.0))]
        bounds += [tuple(np.sort(10.0 ** rng.uniform(-320.0, 0.0, 2)).tolist())
                   for _ in range(2000)]
        for a_min, a_max in bounds:
            if a_min == a_max:
                continue
            spec = SweepSpec(a_min, a_max, int(rng.integers(2, 200)), spacing)
            vals = spec.values()
            assert np.isfinite(vals).all() and (vals >= a_min).all() \
                and (vals <= a_max).all(), spec

    def test_spec_values_are_numpys_bits(self):
        # values() repeats geomspace's and linspace's arithmetic without their
        # calls: byte for byte the numpy functions' arrays, on this numpy's
        # log10 and power kernels, down to subnormal a_min
        rng = np.random.default_rng(2626)
        bounds = [(5e-324, 1.0), (5e-324, 1e-323), (1e-310, 1e-309), (0.05, 1.0),
                  (0.5, math.nextafter(0.5, 1.0)), (math.nextafter(1.0, 0.0), 1.0)]
        bounds += [tuple(np.sort(10.0 ** rng.uniform(-323.5, 0.0, 2)).tolist())
                   for _ in range(700)]
        bounds += [(float(rng.uniform(0.0, 1e-300)), 1.0) for _ in range(150)]
        bounds += [tuple(np.sort(rng.uniform(0.0, 1.0, 2)).tolist()) for _ in range(150)]
        checked = 0
        for a_min, a_max in bounds:
            if not 0.0 < a_min < a_max:
                continue
            for count in (2, 3, int(rng.integers(4, 300))):
                for spacing, numpy_values in (("logarithmic", np.geomspace),
                                              ("linear", np.linspace)):
                    got = SweepSpec(a_min, a_max, count, spacing).values()
                    want = numpy_values(a_min, a_max, count)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), (a_min, a_max, count, spacing)
                    checked += 1
        assert checked >= 6000

    def test_sweep_is_monotone_in_ratio(self):
        sweep = amplitude_sweep(UNIT, SweepSpec(a_min=0.05, a_max=1.0, count=32))
        assert (np.diff(sweep.amplitudes) > 0.0).all()

    @pytest.mark.parametrize("width", [1.0, 1.37, 1e-3])
    @pytest.mark.parametrize("spec", [
        SweepSpec(0.05, 1.0, 64),
        SweepSpec(0.05, 1.0, 64, "linear"),
        SweepSpec(0.02, 0.73, 37),
        SweepSpec(0.1, 0.9, 19, "linear"),
        SweepSpec(1e-310, 1e-309, 64),
    ])
    def test_sweep_matches_oscillation_amplitude(self, spec, width):
        # the sweep inlines the amplitude: bit for bit
        cfg = WellConfig(width_a=width)
        expected = tuple((A, oscillation_amplitude(cfg, A)) for A in spec.values().tolist())
        assert amplitude_sweep(cfg, spec).entries == expected
        assert all(type(A) is float and type(amp) is float for A, amp in expected)

    @pytest.mark.parametrize("ratios, amplitudes, shapes", [
        ([0.1, 0.2, 0.3], [0.1, 0.2], r"\(3,\) and \(2,\)"),
        ([[0.1, 0.2, 0.3]], [0.1, 0.2, 0.3], r"\(1, 3\) and \(3,\)"),
        ([], [0.1, 0.2, 0.3], r"\(0,\) and \(3,\)"),
    ], ids=["unequal-lengths", "2d-ratios", "one-empty"])
    def test_malformed_sweep_rejected(self, ratios, amplitudes, shapes):
        # a sweep is checked when built, before any fit reads its columns
        with pytest.raises(ValueError, match=rf"got shapes {shapes}$"):
            AmplitudeSweep(np.array(ratios), np.array(amplitudes))

    @pytest.mark.parametrize("count", [3, 64])
    def test_fit_rejects_ratios_too_close_together(self, count):
        # the ratios are two adjacent floats, where polyfit's rank test fails
        sweep = amplitude_sweep(UNIT, SweepSpec(0.5, 0.5000000000000001, count))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"ratios 0\.5 to 0\.5000000000000001 are too close"):
                fit_power_law(sweep)

    def test_rank_test_agrees_with_polyfit(self):
        # spans of 1 to 2**20 ulps about three centres, at 3 and 64 points;
        # polyfit's rank is below 2 when the smaller singular value of the
        # column-scaled [L, 1] is at most n * eps times the larger, and each
        # case more than a factor of 4 from that threshold, measured exactly
        # on the float logs, must get the same verdict from the fit
        decided = {True: 0, False: 0}
        for centre in (0.5, 1e-3, 1e-300):
            for n in (3, 64):
                for e in range(21):
                    ratios = centre + math.ulp(centre) * np.linspace(0.0, 2.0**e, n)
                    amps = 0.3 * ratios
                    # the ratios the fit sees: divided by 2**f below 0.5
                    r_max = float(ratios.max())
                    log_r = np.log(np.ldexp(ratios, -(math.frexp(r_max)[1] if r_max < 0.5 else 0)))
                    exact = [Fraction(v) for v in log_r.tolist()]
                    mean = sum(exact) / n
                    q = float(sum((v - mean) ** 2 for v in exact) / sum(v * v for v in exact))
                    margin = math.sqrt(q) / (1.0 + math.sqrt(1.0 - q)) / (n * math.ulp(1.0))
                    if 0.25 <= margin <= 4.0:
                        continue
                    rank = np.polyfit(log_r, np.log(amps), 1, full=True)[2]
                    sweep = AmplitudeSweep(ratios, amps)
                    if rank < 2:
                        with pytest.raises(ValueError, match="too close together"):
                            fit_power_law(sweep)
                    else:
                        fit_power_law(sweep)
                    decided[bool(rank < 2)] += 1
        assert min(decided.values()) >= 20, decided

    def test_fit_recovers_exact_power_law(self):
        ratios = np.geomspace(0.05, 1.0, 40)
        fit = fit_power_law(AmplitudeSweep(ratios, 2.0 * ratios**1.5))
        assert fit.coefficient == pytest.approx(2.0, rel=1e-9)
        assert fit.exponent == pytest.approx(1.5, rel=1e-9)
        assert fit.rms_log_residual < 1e-9

    def test_fit_constant_data_has_zero_exponent(self):
        ratios = np.linspace(0.1, 1.0, 10)
        fit = fit_power_law(AmplitudeSweep(ratios, np.full(10, 0.7)))
        assert fit.exponent == pytest.approx(0.0, abs=1e-10)
        assert fit.coefficient == pytest.approx(0.7, rel=1e-10)

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError, match="three"):
            fit_power_law(AmplitudeSweep(np.array([0.1, 0.5]), np.array([0.03, 0.17])))

    def test_fit_rejects_nonpositive_amplitudes(self):
        sweep = AmplitudeSweep(np.array([0.1, 0.5, 0.9]), np.array([0.03, 0.0, 0.2]))
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(sweep)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column, name", [(0, "ratio"), (1, "amplitude")])
    def test_fit_rejects_nonfinite_entries(self, column, name, bad, capfd):
        # before any solve: a LAPACK routine given a NaN writes to stderr
        columns = np.array([[0.1, 0.5, 0.9], [0.03, 0.17, 0.35]])
        columns[column, 1] = bad
        with pytest.raises(ValueError, match=rf"entry 1 has {name} {re.escape(repr(bad))}$"):
            fit_power_law(AmplitudeSweep(*columns))
        assert capfd.readouterr() == ("", "")

    def test_fit_keeps_its_input_errors_and_their_order(self):
        # the fit validates with the min and max it needs; on failure it runs
        # the entry checks it had before, in their order, so every message and
        # the entry it names stay as they were: a non-finite ratio, then a
        # non-finite amplitude, then any entry <= 0
        def old_checks(ratios, amps):
            for name, column in (("ratio", ratios), ("amplitude", amps)):
                if not np.isfinite(column).all():
                    bad = int(np.flatnonzero(~np.isfinite(column))[0])
                    return (f"power-law fit needs finite data: entry {bad} "
                            f"has {name} {float(column[bad])!r}")
            if (ratios <= 0.0).any() or (amps <= 0.0).any():
                return "power-law fit needs strictly positive data"
            return None

        rng = np.random.default_rng(2727)
        values = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -5e-324]
        messages = set()
        for _ in range(600):
            columns = np.array([np.sort(rng.uniform(0.05, 1.0, 6)),
                                np.sort(rng.uniform(0.01, 0.4, 6))])
            for _ in range(int(rng.integers(1, 4))):
                columns[rng.integers(0, 2), rng.integers(0, 6)] = rng.choice(values)
            want = old_checks(*columns)
            assert want is not None
            messages.add(want.split(":")[0])
            with pytest.raises(ValueError) as caught:
                fit_power_law(AmplitudeSweep(*columns))
            assert str(caught.value) == want
        assert messages == {"power-law fit needs finite data",
                            "power-law fit needs strictly positive data"}

    def test_fit_residual_where_the_model_underflows(self):
        # 1e150 A**2 on A in [1e-200, 1e-100]: A**2 underflows to 0 below 1e-162,
        # so the residual is taken as log y - (log k + p log A)
        ratios = np.geomspace(1e-200, 1e-100, 16)
        amps = 10.0 ** (150.0 + 2.0 * np.log10(ratios))
        fit = fit_power_law(AmplitudeSweep(ratios, amps))
        assert fit.exponent == pytest.approx(2.0, rel=1e-12)
        assert fit.coefficient == pytest.approx(1e150, rel=1e-9)
        assert fit.rms_log_residual < 1e-12

    @pytest.mark.parametrize("family", ["wide", "near-half"])
    def test_fit_of_extreme_sweeps_fits_or_raises(self, family):
        # hand-built sweeps far outside amplitude_sweep's: ratios and amplitudes
        # log-uniform over 1e+-300, or ratios within 1e-6 of 0.5 and amplitudes
        # over 1e+-s, s from 1e-6 to 10**2.5; pytest turns a numpy warning into an
        # error, so each case must be a finite fit or a ValueError
        rng = np.random.default_rng(22)
        for _ in range(300):
            n = int(rng.integers(3, 65))
            if family == "wide":
                ratios, spread = 10.0 ** rng.uniform(-300.0, 300.0, n), 300.0
            else:
                ratios, spread = 0.5 + rng.uniform(-1e-6, 1e-6, n), 10.0 ** rng.uniform(-6.0, 2.5)
            amps = 10.0 ** rng.uniform(-spread, spread, n)
            try:
                fit = fit_power_law(AmplitudeSweep(ratios, amps))
            except ValueError:
                continue
            assert fit.coefficient > 0.0
            assert all(math.isfinite(v) for v in dataclasses.astuple(fit))

    @pytest.mark.parametrize("seed, ratio_decades, amplitude_decades", [
        (219, 2, 3),  # the first Newton step is held to the Gauss-Newton cap
        (196, 4, 4),  # a Newton step leaves the bracket, which is bisected
    ])
    def test_safeguarded_steps_meet_the_exact_optimum(self, seed, ratio_decades,
                                                      amplitude_decades):
        # without its safeguard each solve fails; with it, the bounds of
        # test_fit_meets_the_exact_optimum hold
        sweep = _hand_built_sweep(seed, ratio_decades, amplitude_decades)
        fit = fit_power_law(sweep)
        law = exact.PowerLaw(sweep.ratios, sweep.amplitudes)
        assert law.root_within(fit.exponent, 4)
        k = law.k(fit.exponent)
        assert abs(Decimal(fit.coefficient) - k) <= 32 * Decimal(math.ulp(float(k)))

    @pytest.mark.parametrize("seed", [
        291,  # 100 passes crawl toward no root of F: the pass cap is a failure
        2394,  # b d overflows after 3 passes: a curvature of -inf is no step of 0
    ])
    def test_solve_that_reaches_no_root_raises(self, seed):
        # to stop at either would return a p where F, in exact arithmetic,
        # keeps one sign over more than 2**46 ulps
        with pytest.raises(ValueError, match="did not converge"):
            fit_power_law(_hand_built_sweep(seed, 2, 3))

    def test_reference_protocol_fit(self):
        """The canonical 64-point sweep lands near amplitude ~ 0.42 A^1.32."""
        sweep = amplitude_sweep(UNIT, SweepSpec(a_min=0.05, a_max=1.0, count=64))
        fit = fit_power_law(sweep)
        # built-in floats, whose repr the CSV trailer and verify print
        assert [type(getattr(fit, field.name)) for field in dataclasses.fields(fit)] \
            == [float, float, float]
        assert 0.37 <= fit.coefficient <= 0.47
        assert 1.17 <= fit.exponent <= 1.47
        # regression lock on this exact protocol, at the least-squares optimum
        # (see test_reference_protocol_reaches_least_squares_optimum); the rms
        # log residual there was computed in numpy and in 40-digit mpmath
        assert abs(fit.coefficient - 0.412703945977) <= 1e-9
        assert abs(fit.exponent - 1.238437129223) <= 1e-9
        assert 0.0 < fit.rms_log_residual < 0.3
        assert abs(fit.rms_log_residual - 0.216575595986) <= 1e-9

    @pytest.mark.parametrize("width", [1e-3, 1e3])
    def test_fit_scales_with_well_width(self, width):
        # the amplitude is a length: k scales with a, p is dimensionless
        spec = SweepSpec(a_min=0.05, a_max=1.0, count=64)
        unit = fit_power_law(amplitude_sweep(UNIT, spec))
        scaled = fit_power_law(amplitude_sweep(WellConfig(width_a=width), spec))
        assert abs(scaled.exponent - unit.exponent) <= 1e-12
        assert abs(scaled.coefficient / width - unit.coefficient) <= 1e-12

    @pytest.mark.parametrize("width", [1.0, 2.0])
    def test_fit_of_subnormal_ratios(self, width):
        # ratios near 1e-310 put the log-log seed's log k past 709 unless
        # they are scaled like the amplitudes; the amplitude is (a/pi) A
        sweep = amplitude_sweep(WellConfig(width_a=width), SweepSpec(1e-310, 1e-309, 64))
        fit = fit_power_law(sweep)
        assert abs(fit.exponent - 1.0) <= 1e-9
        assert abs(fit.coefficient / (width / math.pi) - 1.0) <= 1e-9

    def test_reference_protocol_reaches_least_squares_optimum(self):
        # optimum of sum (k A^p - (1/pi) arcsin A)^2 over the 64-point
        # protocol, computed independently to 40 digits by variable projection
        fit = fit_power_law(amplitude_sweep(UNIT, SweepSpec(0.05, 1.0, 64)))
        assert abs(fit.exponent - 1.238437129223) <= 1e-9
        assert abs(fit.coefficient - 0.412703945977) <= 1e-9

    @pytest.mark.parametrize("a_min, a_max", [(0.02, 0.6), (0.02, 0.8), (0.05, 1.0), (0.1, 1.0)])
    def test_fit_exponent_to_the_last_bits(self, a_min, a_max):
        # the root of F for these float ratios and amplitudes lies within 2 ulps;
        # linear spacing keeps the ratios off numpy's CPU-dependent kernels.
        # Sums about the mean of log A keep the rounding of F from moving p by
        # more than an ulp or two.
        sweep = amplitude_sweep(UNIT, SweepSpec(a_min, a_max, 64, "linear"))
        p = fit_power_law(sweep).exponent
        assert exact.PowerLaw(sweep.ratios, sweep.amplitudes).root_within(p, 2)

    def test_fit_meets_the_exact_optimum(self):
        # the benchmark's ratio ranges on three widths, and subnormal ratios:
        # F changes sign within 4 ulps of p (3 at most was measured), and k is
        # within 32 ulps of the exact k(p) (23.4 at most: k is taken from the
        # sums of the last Newton pass, at the p before the final step)
        rng = np.random.default_rng(21)
        cases = [(UNIT, SweepSpec(1e-310, 1e-309, 64))]
        for i in range(120):
            spec = SweepSpec(float(rng.uniform(0.02, 0.1)), float(rng.uniform(0.6, 1.0)),
                             int(rng.integers(3, 129)), ("logarithmic", "linear")[i % 2])
            cases.append((WellConfig(width_a=(1.0, 1e-3, 1e3)[i % 3]), spec))
        for cfg, spec in cases:
            sweep = amplitude_sweep(cfg, spec)
            fit = fit_power_law(sweep)
            law = exact.PowerLaw(sweep.ratios, sweep.amplitudes)
            assert law.root_within(fit.exponent, 4), (cfg, spec)
            k = law.k(fit.exponent)
            assert abs(Decimal(fit.coefficient) - k) <= 32 * Decimal(math.ulp(float(k))), \
                (cfg, spec)

    def test_predict_roundtrip(self):
        ratios = np.geomspace(0.1, 1.0, 12)
        fit = fit_power_law(AmplitudeSweep(ratios, 0.3 * ratios**1.1))
        assert fit.coefficient == pytest.approx(0.3, rel=1e-8)
        assert fit.exponent == pytest.approx(1.1, rel=1e-8)


class TestTimeAverages:
    def test_mean_node_position_is_center(self):
        for A in (-0.99, 0.05, 0.3, 0.5, 0.8, 0.99):
            assert time_avg_node_position(UNIT, A) == pytest.approx(0.5, abs=1e-9)

    def test_mean_scales_with_width(self):
        wide = WellConfig(width_a=4.0)
        assert time_avg_node_position(wide, 0.7) == pytest.approx(2.0, abs=1e-9)

    @given(st.floats(min_value=-0.99, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_mean_position_symmetry_property(self, A):
        assert abs(time_avg_node_position(UNIT, A) - 0.5) <= 1e-9

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ValueError):
            time_avg_node_position(UNIT, 1.01)

    def test_avg_density_equal_mix_quarter(self):
        # interference averages out: 0.5 psi_1^2 + 0.5 psi_2^2 at x = 1/4 is 1.5
        assert time_avg_density(UNIT, EQUAL_MIX, 0.25) == pytest.approx(1.5, abs=1e-10)

    def test_avg_density_center(self):
        assert time_avg_density(UNIT, EQUAL_MIX, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_avg_density_pure_excited_node(self):
        state = TwoStateSuperposition(0.0, 1.0)
        assert time_avg_density(UNIT, state, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_avg_density_array_matches_scalar(self):
        xs = np.array([0.1, 0.25, 0.7])
        vec = time_avg_density(UNIT, EQUAL_MIX, xs)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(time_avg_density(UNIT, EQUAL_MIX, float(x)),
                                      rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=math.pi / 2.0))
    @settings(max_examples=60, deadline=None)
    def test_avg_density_equals_static_profile(self, x, theta):
        state = TwoStateSuperposition(math.cos(theta), math.sin(theta))
        static = (abs(state.c1) ** 2 * eigenfunction(UNIT, 1, x) ** 2
                  + abs(state.c2) ** 2 * eigenfunction(UNIT, 2, x) ** 2)
        assert time_avg_density(UNIT, state, x) == pytest.approx(
            static, abs=1e-12)


class TestHeatmap:
    def test_grid_shape_and_axes(self):
        grid = heatmap(UNIT, 32, 8)
        assert grid.values.shape == (8, 32)
        assert grid.x_values[0] == 0.0 and grid.x_values[-1] == 1.0
        assert grid.mix_values[0] == 0.0
        assert grid.mix_values[-1] == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_pure_rows_match_eigendensities(self):
        grid = heatmap(UNIT, 64, 8)
        p1 = np.asarray(eigenfunction(UNIT, 1, grid.x_values)) ** 2
        p2 = np.asarray(eigenfunction(UNIT, 2, grid.x_values)) ** 2
        assert np.max(np.abs(grid.values[0] - p1)) <= 1e-12
        assert np.max(np.abs(grid.values[-1] - p2)) <= 1e-12

    def test_rows_stay_normalized(self):
        grid = heatmap(UNIT, 128, 16)
        norms = np.trapezoid(grid.values, grid.x_values, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-6

    def test_center_column_decreases_with_mixing(self):
        # at x = a/2 only psi_1 contributes, with weight cos^2 theta
        grid = heatmap(UNIT, 65, 16)
        center = grid.values[:, 32]
        assert np.all(np.diff(center) < 0.0)

    def test_peak_split_is_monotone(self):
        grid = heatmap(UNIT, 64, 16)
        seps = [peak_separation(grid.x_values, row) for row in grid.values]
        assert seps[0] == 0.0
        assert seps[-1] == pytest.approx(0.5, abs=2.0 / 64.0)
        assert all(b >= a - 1e-9 for a, b in zip(seps, seps[1:]))

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            heatmap(UNIT, 4, 16)
        with pytest.raises(ValueError):
            heatmap(UNIT, 16, 4)

    @pytest.mark.parametrize("counts, name", [((16.0, 16), "x_count"),
                                              ((16, np.float64(16.0)), "mix_count")])
    def test_counts_must_be_integers(self, counts, name):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
            heatmap(UNIT, *counts)
        assert heatmap(UNIT, np.int64(16), np.int32(8)).values.shape == (8, 16)


class TestPeakHelpers:
    def test_parabolic_refinement_is_exact_on_a_parabola(self):
        xs = np.linspace(0.0, 1.0, 21)
        vertex = 0.4123
        ys = 1.0 - (xs - vertex) ** 2
        peaks = local_max_positions(xs, ys)
        assert len(peaks) == 1
        assert peaks[0] == pytest.approx(vertex, abs=1e-12)

    def test_plateau_reports_midpoint(self):
        xs = np.linspace(0.0, 1.0, 11)
        ys = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0])
        peaks = local_max_positions(xs, ys)
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(0.3, abs=1e-12)  # middle of the run
        assert peaks[1] == pytest.approx(0.8, abs=1e-12)

    def test_boundary_runs_are_not_peaks(self):
        xs = np.linspace(0.0, 1.0, 6)
        ys = np.array([5.0, 5.0, 1.0, 1.0, 2.0, 3.0])
        assert local_max_positions(xs, ys) == []

    def test_separation_of_single_peak_is_zero(self):
        xs = np.linspace(0.0, 1.0, 9)
        ys = np.sin(np.pi * xs)
        assert peak_separation(xs, ys) == 0.0

    def test_two_peaks_separation(self):
        xs = np.linspace(0.0, 1.0, 101)
        ys = np.sin(2.0 * np.pi * xs) ** 2
        assert peak_separation(xs, ys) == pytest.approx(0.5, abs=1e-3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            local_max_positions([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            local_max_positions([0.0, 0.5, 1.0], [1.0, 2.0])


def test_import_does_not_load_scipy():
    # the power-law fit is plain numpy; scipy is not a dependency
    src = str(Path(boxnodes.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, boxnodes; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
