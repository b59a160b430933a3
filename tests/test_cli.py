"""Command line behavior: outputs, formats, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from boxnodes import cli
from boxnodes import verify as verify_module
from boxnodes.analysis import SweepSpec, amplitude_sweep, fit_power_law, heatmap, \
    time_avg_node_position
from boxnodes.cli import build_parser, main
from boxnodes.nodes import NodeKind, track_trajectory
from boxnodes.output import write_columns
from boxnodes.well import TwoStateSuperposition, WellConfig, beat_period

UNIT = WellConfig()
T = beat_period(UNIT)


def run_cli(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    comments = [line for line in lines[1:] if line.startswith("#")]
    return header, rows, comments


class TestTrajectoryCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run_cli(["trajectory", "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["t", "position", "kind"]
        assert len(rows) == 256
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert float(rows[-1][0]) == pytest.approx(T, rel=1e-12)
        assert rows[0][2] == "analytic-formula"
        positions = [float(r[1]) for r in rows]
        assert min(positions) >= 1.0 / 3.0 - 1e-9
        assert max(positions) <= 2.0 / 3.0 + 1e-9

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        assert run_cli(["trajectory", "--time-samples", 16, "--out", out]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 16
        assert set(data[0]) == {"t", "position", "kind"}
        assert data[0]["position"] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_absent_positions_serialize_as_gaps(self, tmp_path):
        # A = 1.5: no node at t = 0
        out_csv = tmp_path / "gap.csv"
        out_json = tmp_path / "gap.json"
        flags = ["--c1", 0.9, "--c2", 0.3, "--time-samples", 32]
        assert run_cli(["trajectory", *flags, "--out", out_csv]) == 0
        assert run_cli(["trajectory", *flags, "--out", out_json]) == 0
        _, rows, _ = read_csv(out_csv)
        assert rows[0][1] == ""
        data = json.loads(out_json.read_text())
        assert data[0]["position"] is None
        assert any(row["position"] is not None for row in data)

    def test_minimum_kind_pure_excited(self, tmp_path):
        out = tmp_path / "min.csv"
        assert run_cli(["trajectory", "--kind", "minimum", "--c1", 0, "--c2", 1,
                        "--time-samples", 8, "--out", out]) == 0
        _, rows, _ = read_csv(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(0.5, abs=1e-8)
            assert row[2] == "density-minimum"

    def test_repart_kind(self, tmp_path):
        out = tmp_path / "re.csv"
        assert run_cli(["trajectory", "--kind", "repart", "--time-samples", 8,
                        "--out", out]) == 0
        _, rows, _ = read_csv(out)
        assert rows[0][2] == "real-part-zero"
        assert float(rows[0][1]) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_explicit_window(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli(["trajectory", "--t-start", 0.1, "--t-end", 0.2,
                        "--time-samples", 5, "--out", out]) == 0
        _, rows, _ = read_csv(out)
        assert float(rows[0][0]) == pytest.approx(0.1)
        assert float(rows[-1][0]) == pytest.approx(0.2)


class TestSweepCommand:
    def test_csv_with_fit_trailer(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["amplitude-sweep", "--a-count", 16, "--out", out]) == 0
        header, rows, comments = read_csv(out)
        assert header == ["ratio", "amplitude"]
        assert len(rows) == 16
        assert len(comments) == 1
        assert comments[0].startswith("# fit coefficient=")
        assert "exponent=" in comments[0]
        # the trailer is the repr of each field: a numpy scalar would print as np.float64(...)
        assert "np.float64(" not in comments[0]

    def test_json_fit_sidecar(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli(["amplitude-sweep", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert len(data) == 64
        sidecar = (tmp_path / "sweep.fit.json").read_text()
        assert "np.float64(" not in sidecar
        fit = json.loads(sidecar)
        assert set(fit) == {"coefficient", "exponent", "rms_log_residual"}
        assert 0.37 <= fit["coefficient"] <= 0.47
        assert 1.17 <= fit["exponent"] <= 1.47

    def test_too_few_points_is_usage_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["amplitude-sweep", "--a-count", 2, "--out", out]) == 2


class TestAvgPositionCommand:
    def test_all_centered(self, tmp_path):
        out = tmp_path / "avg.csv"
        assert run_cli(["avg-position", "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["ratio", "mean_position"]
        assert len(rows) == 19
        for row in rows:
            assert float(row[1]) == pytest.approx(0.5, abs=1e-9)

    def test_ratio_at_one_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["avg-position", "--a-max", 1.0, "--a-count", 3,
                        "--out", out]) == 2

    def test_zero_count_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["avg-position", "--a-count", 0, "--out", out]) == 2


class TestHeatmapCommand:
    def test_long_format_rows(self, tmp_path):
        out = tmp_path / "heat.csv"
        assert run_cli(["heatmap", "--grid", 16, "--mix-count", 8,
                        "--time-samples", 32, "--out", out]) == 0
        header, rows, _ = read_csv(out)
        assert header == ["theta", "x", "avg_density"]
        assert len(rows) == 16 * 8
        assert float(rows[0][2]) == 0.0  # theta = 0, x = 0
        thetas = sorted({float(r[0]) for r in rows})
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi / 2.0, rel=1e-12)


def _drifting_norms(real, *args):
    norms = real(*args)
    return norms + 1e-9 * np.arange(norms.size)


def _steeper_fit(real, *args):
    fit = real(*args)
    return dataclasses.replace(fit, exponent=fit.exponent + 0.5)


def _shifted_track(real, *args):
    traj = real(*args)  # (cfg, state, kind, t_start, t_end, n)
    return dataclasses.replace(traj, positions=traj.positions + 1e-9 * args[3])


def _lost_real_part_zero(real, *args):
    kind, t = args[2:]  # (cfg, state, kind, t)
    return None if kind is NodeKind.REAL_PART_ZERO and t > 0.0 else real(*args)


# (check, owner, name in owner, tamper(real, *args, **kwargs), error): verify
# with owner.name replaced by the tamper must print FAIL for the check, and
# the error as error=..., unless that is None; a sample a measure cannot take
# is NaN, so it prints error=nan
_TAMPERS = [
    # a closed-form density off by 1e-9 fails its 1e-12 check
    ("closed-form-equivalence", verify_module._Grid, "density_closed_form",
     lambda real, *args, **kwargs: real(*args, **kwargs) + 1e-9, None),
    # norms off by 1e-7 fail their 1e-8 check
    ("norm-value", verify_module, "_simpson_norm", lambda real, *args: real(*args) + 1e-7, None),
    # norms that drift by 1e-9 per instant spread past 1e-10
    ("norm-constancy", verify_module, "_simpson_norm", _drifting_norms, None),
    # |psi_n| has no sign change
    ("eigenfunction-node-count", verify_module, "eigenfunction",
     lambda real, *args: np.abs(real(*args)), None),
    # p = 1.74 lies outside 1.32 +/- 0.15
    ("power-law-band", verify_module, "fit_power_law", _steeper_fit, None),
    # x(t + T) moves by 1e-9 T against x(t)
    ("trajectory-periodicity", verify_module, "track_trajectory", _shifted_track, None),
    # the real-part zero goes missing at T/2 and T: a FAIL, not a crash
    ("special-time-agreement", verify_module, "node_position", _lost_real_part_zero, "nan"),
    # the turning points are NaN
    ("amplitude-arcsin", verify_module, "_positions", lambda real, *args: real(*args) * math.nan,
     "nan"),
]


def _nan(real, *args, **kwargs):
    return real(*args, **kwargs) * math.nan


def _nan_field(field):
    def tamper(real, *args):
        result = real(*args)
        return dataclasses.replace(result, **{field: getattr(result, field) * math.nan})
    return tamper


def _nan_node(real, *args):
    return None if real(*args) is None else math.nan


# the same, with the kernel of each check returning NaN: an error of NaN must
# fail its check, wherever it falls among the errors the check takes the
# largest of
_NAN_TAMPERS = [
    ("delta-omega-formula", verify_module, "delta_omega", lambda real, *args: math.nan),
    ("wall-boundary-zeros", verify_module, "evaluate_psi", _nan),
    ("closed-form-equivalence", verify_module._Grid, "density_closed_form", _nan),
    ("norm-value", verify_module, "_simpson_norm", _nan),
    ("norm-constancy", verify_module, "_simpson_norm", _nan),
    ("density-beat-periodicity", verify_module, "density_exact", _nan),
    ("stationary-eigenstate", verify_module, "density_exact", _nan),
    ("eigenfunction-node-count", verify_module, "eigenfunction", _nan),
    ("trajectory-periodicity", verify_module, "track_trajectory", _nan_field("positions")),
    ("trajectory-reflection", verify_module, "track_trajectory", _nan_field("positions")),
    ("amplitude-arcsin", verify_module, "oscillation_amplitude", _nan),
    ("mean-node-position", verify_module, "time_avg_node_position", _nan),
    ("time-avg-density-static-part", verify_module, "time_avg_density", _nan),
    ("heatmap-row-normalization", verify_module, "heatmap", _nan_field("values")),
    ("special-time-agreement", verify_module, "node_position", _nan_node),
    ("special-time-zero-depth", verify_module, "density_exact", _nan),
    ("power-law-band", verify_module, "fit_power_law", _nan_field("coefficient")),
    ("power-law-residual", verify_module, "fit_power_law", _nan_field("rms_log_residual")),
]


class TestVerifyCommand:
    def test_passes_and_prints_delta_omega(self, capsys):
        assert run_cli(["verify"]) == 0
        text = capsys.readouterr().out
        assert "delta_omega = 14.804406601634037" in text
        lines = [ln for ln in text.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) >= 15
        assert all(ln.startswith("PASS") for ln in lines)
        band = next(ln for ln in lines if "power-law-band" in ln)
        assert "np.float64(" not in band

    def test_cli_entry(self):
        assert run_cli(["verify"]) == 0

    @pytest.mark.parametrize("width", [2.0, 0.5])
    def test_non_unit_well_passes(self, width):
        assert run_cli(["verify", "--a", width]) == 0

    @pytest.mark.parametrize("flags", [
        ["--a", "1e-3"],
        ["--a", "1e-2"],
        ["--hbar", "1e3"],
        ["--a", "1e-3", "--mass", "1e3"],
        ["--a", "1e15"],
        ["--a", "1e-15"],
        ["--hbar", "1e300"],
        ["--hbar", "1e-300"],
        ["--hbar", "1e-160"],
        ["--hbar", "8e306"],
    ])
    def test_tolerances_scale_with_the_well(self, flags):
        # density tolerances scale as 1/a, delta_omega is compared
        # relatively and the fit runs on amplitudes scaled by a power of two,
        # so small, large or stiff wells pass like the unit well; delta_omega
        # squares nothing, so it keeps full precision at extreme hbar
        assert run_cli(["verify", *flags]) == 0

    @pytest.mark.parametrize("command,flag", [
        ("trajectory", "--seed"),
        ("amplitude-sweep", "--seed"),
        ("avg-position", "--seed"),
        ("heatmap", "--seed"),
        ("amplitude-sweep", "--time-samples"),
        ("trajectory", "--grid"),
        ("verify", "--grid"),
        ("verify", "--time-samples"),
    ])
    def test_options_without_effect_are_rejected(self, command, flag, tmp_path, capsys):
        # only verify draws random numbers; the amplitude is exact, the node
        # finders are closed form, with no grid, and verify's sample counts
        # are fixed
        argv = [command, flag, 256]
        if command != "verify":
            argv += ["--out", tmp_path / "x.csv"]
        assert run_cli(argv) == 2
        assert f"unrecognized arguments: {flag} 256" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--a", "1e154"],
        ["--a", "1e200", "--mass", "1e-300", "--hbar", "1e100"],
        ["--a", "0.1", "--mass", "1e12", "--hbar", "1e308"],
        ["--a", "1e100", "--mass", "1e-300", "--hbar", "1e-220"],
    ], ids=["a1e154", "a1e200-m1e-300-hbar1e100", "a0.1-m1e12-hbar1e308",
            "a1e100-m1e-300-hbar1e-220"])
    def test_reference_in_exact_rationals_passes(self, flags, capsys):
        # 2 m a^2 leaves the float range in the first two wells, and
        # pi hbar / a overflows or is subnormal in the last two; neither
        # the reference nor delta_omega forms these as floats, so dw is
        # normal and confirmed
        assert run_cli(["verify", *flags]) == 0
        captured = capsys.readouterr()
        assert "PASS delta-omega-formula" in captured.out
        assert captured.err == ""

    def test_wide_well_passes_without_warning(self):
        # the 256 positions near a/2 of a mean-node-position row sum past
        # DBL_MAX on this well; the rows are averaged on their positions
        # scaled by 2**-6, so the check passes and numpy raises no overflow
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["verify", "--a", "9e306", "--mass", "1e-300", "--hbar", "1e300"]) == 0

    @pytest.mark.parametrize("cfg, error", [
        (WellConfig(1.3670853786668247e-304, 1e308, 1e-308), "0x0.0000000000800p-1022"),
        (WellConfig(9e306, 1e-300, 1e300), "0x1.0000000000000p+966"),
    ], ids=["narrowest", "widest"])
    def test_mean_position_keeps_its_bits_at_the_extremes(self, cfg, error):
        # the scaled mean is exact on the narrowest well verify accepts, where
        # a scaled position nears DBL_MIN, and on a well whose row sums
        # overflow unscaled
        mean = next(r for r in verify_module.run_verification(cfg)
                    if r.name == "mean-node-position")
        assert mean.error.hex() == error

    @pytest.mark.parametrize("a, code", [("1.5e-308", 2), ("1e-305", 2),
                                         ("1.3670853786668245e-304", 2),
                                         ("1.3670853786668247e-304", 0), ("1e-303", 0)])
    def test_narrow_well_is_rejected_before_any_check(self, a, code, capsys):
        # a Simpson norm sum may reach 24576/a, which overflows below the
        # third width, the float just under the fourth: there verify exits
        # 2 naming the well, instead of failing six checks with inf or NaN
        # errors and overflow warnings; from the fourth width on it passes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["verify", "--a", a, "--mass", "1e308", "--hbar", "1e-308"]) == code
        err = capsys.readouterr().err
        if code:
            assert f"24576/a = inf, which is not finite for a={float(a)!r}, m=1e+308" in err
        else:
            assert err == ""

    @pytest.mark.parametrize("count", [1, 5, 20, 50])
    @pytest.mark.parametrize("seed", [0, 3, 11, 904])
    def test_states_drawn_at_once_follow_the_single_draw_stream(self, count, seed):
        # one standard_normal((count, 2, 2)) call gives the states, bit for
        # bit, of count draws of standard_normal(2) + 1j * standard_normal(2),
        # and leaves the generator at the same next draw
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify_module._random_complex_states(batched, count)
        assert len(got) == count
        for state in got:
            c = single.standard_normal(2) + 1j * single.standard_normal(2)
            want = verify_module.normalize(TwoStateSuperposition(c[0], c[1]))
            for z, w in ((state.c1, want.c1), (state.c2, want.c2)):
                assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())
        assert batched.bit_generator.state == single.bit_generator.state
        assert batched.standard_normal() == single.standard_normal()

    def test_one_result_per_table_row(self, monkeypatch):
        # one result per row of _CHECKS, in table order, under the 18 names the
        # battery has always printed
        rows = [row for _, *rows in verify_module._CHECKS for row in rows]
        names = [result.name for result in verify_module.run_verification(UNIT)]
        assert names == [row[0] for row in rows] == [
            "delta-omega-formula", "wall-boundary-zeros", "closed-form-equivalence",
            "norm-value", "norm-constancy", "density-beat-periodicity", "stationary-eigenstate",
            "eigenfunction-node-count", "trajectory-periodicity", "trajectory-reflection",
            "amplitude-arcsin", "mean-node-position", "time-avg-density-static-part",
            "heatmap-row-normalization", "special-time-agreement", "special-time-zero-depth",
            "power-law-band", "power-law-residual"]
        assert len(set(names)) == 18
        # a measure that takes no sample reports 0.0 for each of its rows
        monkeypatch.setattr(verify_module, "_CHECKS", [(lambda ctx: iter(()), *rows[3:5])])
        assert [(r.name, r.error) for r in verify_module.run_verification(UNIT)] == [
            ("norm-value", 0.0), ("norm-constancy", 0.0)]

    def test_peak_memory_of_one_run(self):
        # each random-state check lets its grid and work arrays go before the
        # next check builds its own, so one check's arrays are alive at a
        # time, at most about 0.8 MiB on the Simpson grid of the norm checks:
        # the wave psi_2 e^{-i dw t} and one work array, both complex, and the
        # float result; the whole run peaks at 0.96 MiB with numpy 2.4.6
        verify_module.run_verification(UNIT)  # its lazy imports stay out of the peak
        tracemalloc.start()
        try:
            verify_module.run_verification(UNIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2**20

    @pytest.mark.parametrize("row, owner, name, tamper, error",
                             _TAMPERS + [(*case, None) for case in _NAN_TAMPERS],
                             ids=[case[0] for case in _TAMPERS]
                             + [f"{case[0]}-nan" for case in _NAN_TAMPERS])
    def test_tampered_tolerance_fails(self, row, owner, name, tamper, error, monkeypatch,
                                      capsys):
        # each check the acceptance battery asserts fails when what it
        # measures moves past its tolerance
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: tamper(real, *args, **kwargs))
        assert run_cli(["verify"]) == 1
        fails = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith(f"FAIL {row}: ")]
        assert len(fails) == 1
        if error is not None:
            assert f"(error={error}, " in fails[0]


# Edge argv for every subcommand, with a word the error must contain. The
# test adds --out with a file path where a line gives none and puts an
# existing directory for DIR, an I/O failure (3); the rest are bad input (2).
# The last two rows keep the ids of the --hbar 1e300 and 1e-300 wells they
# replace, which are valid since delta_omega squares nothing; with these
# masses delta_omega overflows to inf and underflows to 0.
_WELL_EDGES = [("--a inf", "width", None), ("--a 1e-200", "delta_omega", None),
               ("--a 1e-300", "delta_omega", None), ("--mass nan", "mass", None),
               ("--mass=-inf", "mass", None),
               ("--hbar 1e308 --mass 1e-10", "delta_omega", "--hbar 1e300"),
               ("--hbar 1e-300 --mass 1e30", "delta_omega", "--hbar 1e-300"),
               ("--a 1e-170 --mass 1e-170", "delta_omega", None),
               # dw = 1.8e308 is finite, omega_2 = 4 dw / 3 is not
               ("--hbar 1.2e307", "omega_2 = inf", None)]
_OUT_COMMANDS = ("trajectory", "amplitude-sweep", "avg-position", "heatmap")
_EDGE_ARGV = [
    *(pytest.param(f"{cmd} {flags}", named, id=f"{cmd} {id_flags or flags}-{named}")
      for cmd in (*_OUT_COMMANDS, "verify") for flags, named, id_flags in _WELL_EDGES),
    ("trajectory --c1 inf", "c1"),
    ("trajectory --c2 nan", "c2"),
    ("trajectory --c1 0 --c2 0", "zero state"),
    # a nonzero state whose |c1|^2 + |c2|^2 is below the float range
    ("trajectory --c1 1e-170 --c2 1e-170", "underflows to 0 for c1="),
    ("trajectory --c1 1e308 --c2 1e-308", "overflows"),
    ("trajectory --c1 1e200 --c2 1e200 --kind minimum", "overflows"),
    ("trajectory --c1 1e200 --c2 1e200 --kind repart", "overflows"),
    ("trajectory --c1 1e154 --c2 1e154 --kind minimum", "overflows"),
    ("trajectory --c1 1e154 --c2 1e154 --kind analytic", "overflows"),
    ("trajectory --c1 1e150 --c2 1e-200", "ratio overflow"),
    ("trajectory --t-start 1 --t-end 0", "t_end"),
    ("trajectory --t-start 0.5 --t-end 0.5", "t_end"),
    ("trajectory --t-end nan", "t_end"),
    ("trajectory --t-start inf", "t_end"),
    ("trajectory --t-start 1e308", "t_end"),
    # both ends are finite and so is omega_2 t there, but their difference is not
    ("trajectory --hbar 1e-300 --t-start=-1.5e308 --t-end 1.5e308 --time-samples 3",
     "window width"),
    # T = 5.3e-308 and 4.2e-301 are below the float spacing at t_start = 0.25
    ("trajectory --t-start 0.25 --hbar 8e306", "t_start + T"),
    ("trajectory --t-start 0.25 --a 1e-100 --mass 1e-100", "t_start + T"),
    # omega_2 t overflows at t = 5e307 and 1e308, so those instants are bad input
    *((f"trajectory --t-end 1e308 --time-samples 3{kind}", "t=1e+308")
      for kind in ("", " --kind minimum --c1 0.6 --c2 0.8", " --kind repart")),
    # dw = 1.5e-309 is subnormal, so the default window of one beat period is inf
    ("trajectory --a 1e155", "beat period"),
    ("trajectory --time-samples 1", "samples"),
    # the two --grid rows keep the ids they had when the flag existed and
    # its minimum was checked as grid_n
    pytest.param("trajectory --kind minimum --grid 8", "unrecognized",
                 id="trajectory --kind minimum --grid 8-grid_n"),
    ("trajectory --kind true-zero", "true-zero"),
    ("amplitude-sweep --a-count 2", "points"),
    ("amplitude-sweep --a-min 0 --a-max 0.5", "a_min"),
    ("amplitude-sweep --a-min nan", "a_min"),
    # 64 ratios on two adjacent floats: the log-log line has no slope
    ("amplitude-sweep --a-min 0.5 --a-max 0.5000000000000001 --a-count 64", "ratios 0.5 to"),
    ("avg-position --a-count 0", "ratio"),
    ("avg-position --a-min nan", "a_min"),
    # the two --log-spacing rows keep the ids they had when the flag existed;
    # each sweep now has one fixed spacing
    pytest.param("avg-position --log-spacing --a-min 0", "unrecognized",
                 id="avg-position --log-spacing --a-min 0-a_min"),
    pytest.param("avg-position --log-spacing --a-min -0.5", "unrecognized",
                 id="avg-position --log-spacing --a-min -0.5-a_min"),
    ("amplitude-sweep --log-spacing", "unrecognized"),
    ("amplitude-sweep --no-log-spacing", "unrecognized"),
    ("avg-position --no-log-spacing", "unrecognized"),
    ("avg-position --a-max 1.0", "|A|"),
    # keeps the id it had when the message named the library's n_samples
    pytest.param("avg-position --time-samples 1", "--time-samples",
                 id="avg-position --time-samples 1-n_samples"),
    ("heatmap --grid 4", "8 points"),
    ("heatmap --mix-count 4", "8 points"),
    ("heatmap --time-samples 1", "time samples"),
    # dw is finite, but 2/a is not: the modes would be inf and the cells null
    ("heatmap --a 1e-308 --mass 1e300 --hbar 1e-310", "mode amplitude"),
    # dw is finite, but the phase 2 pi x of psi_2 overflows past x = 2.9e307:
    # the cells were null; verify's psi_6 overflows on this well as well
    ("heatmap --a 1e308 --mass 1e-300 --hbar 1e300", "a=1e+308"),
    ("verify --a 1e308 --mass 1e-300 --hbar 1e300", "a=1e+308"),
    # sizes numpy refuses before it touches memory
    ("trajectory --time-samples 1000000000000000", "allocate"),
    ("amplitude-sweep --a-count 1000000000000000", "allocate"),
    ("avg-position --a-count 1000000000000000", "allocate"),
    ("heatmap --grid 1000000000000000", "allocate"),
    # the two --time-samples rows keep the ids they had when the flag existed
    pytest.param("verify --time-samples 0", "unrecognized",
                 id="verify --time-samples 0-time_samples"),
    pytest.param("verify --time-samples -1", "unrecognized",
                 id="verify --time-samples -1-time_samples"),
    pytest.param("verify --grid 8", "unrecognized", id="verify --grid 8-grid_n"),
    pytest.param("verify --seed -1", "--seed must be non-negative",
                 id="verify --seed -1-non-negative"),
    ("verify --a 1.5e154", "2T"),
    ("verify --a 1e160", "2T"),
    *((f"{cmd} --format xml", "--format") for cmd in _OUT_COMMANDS),
    # the --out suffix alone picks the format
    *((f"{cmd} --format json", "unrecognized") for cmd in _OUT_COMMANDS),
    *((f"{cmd} --out DIR", "directory") for cmd in _OUT_COMMANDS),
]

# Edge argv that are valid input: each must exit 0 with nothing on stderr and
# no warning, and write the given number of positive cells in the column.
_VALID_EDGE_ARGV = [
    # |c2|^2 is subnormal; at no instant does the density have an interior minimum
    ("trajectory --kind minimum --c1 1 --c2 1e-160", "position", 0),
    # amplitudes near 1e-301 keep all their digits, so the fit gets positive data
    ("amplitude-sweep --a-min 1e-300 --a-max 1e-299", "amplitude", 64),
    # subnormal ratios: the fit scales them by a power of two as well
    ("amplitude-sweep --a-min 1e-310 --a-max 1e-309", "amplitude", 64),
    # 2 pi a is just below DBL_MAX: every cell off the two walls is positive
    ("heatmap --a 2.8e307 --mass 1e-300 --hbar 1e300", "avg_density", 64 * 62),
]


class TestExitCodes:
    @pytest.mark.parametrize("line, column, positive", _VALID_EDGE_ARGV)
    def test_valid_edge_argv(self, line, column, positive, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*line.split(), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == "" and not caught
        header, rows, _ = read_csv(out)
        cells = [row[header.index(column)] for row in rows]
        assert sum(cell != "" and float(cell) > 0.0 for cell in cells) == positive

    def test_degenerate_analytic_state(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run_cli(["trajectory", "--c2", 0, "--kind", "analytic",
                        "--out", out]) == 2

    def test_unknown_kind(self, tmp_path):
        assert run_cli(["trajectory", "--kind", "nonsense",
                        "--out", tmp_path / "x.csv"]) == 2

    def test_unknown_flag(self, tmp_path):
        assert run_cli(["trajectory", "--bogus", 1, "--out", tmp_path / "x.csv"]) == 2

    def test_missing_subcommand(self):
        assert run_cli([]) == 2

    def test_unwritable_output(self):
        assert run_cli(["trajectory", "--time-samples", 4,
                        "--out", "/proc/1/nonexistent/out.csv"]) == 3

    @pytest.mark.parametrize("flags, rows", [
        (["trajectory", "--c1=-1e-3", "--c2", "1"], 256),
        (["avg-position", "--a-min=-5e-2", "--a-max", "0.5"], 19),
    ])
    def test_negative_exponent_value_after_equals(self, tmp_path, flags, rows):
        # argparse reads a separate "-1e-3" as a flag; "--c1=-1e-3" is a value
        out = tmp_path / "x.csv"
        assert run_cli([*flags, "--out", out]) == 0
        assert len(read_csv(out)[1]) == rows

    def test_invalid_well(self, tmp_path):
        assert run_cli(["trajectory", "--a", -1.0, "--out", tmp_path / "x.csv"]) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--a", "inf"], "width"),
        (["--mass", "inf"], "mass"),
        (["--hbar", "1e-300", "--mass", "1e30"], "hbar"),
        (["--c1", "nan"], "c1"),
    ])
    def test_nonfinite_input_is_usage_error(self, tmp_path, capsys, flags, named):
        assert run_cli(["trajectory", *flags, "--out", tmp_path / "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line, named", _EDGE_ARGV)
    def test_edge_argv(self, line, named, tmp_path, capsys):
        argv = [str(tmp_path) if w == "DIR" else w for w in line.split()]
        if argv[0] != "verify" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "x.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == (3 if "DIR" in line else 2)
        assert "error" in err and named in err
        assert "Traceback" not in err
        # no numpy warning reaches stderr ahead of the error
        assert not caught and "Warning" not in err


def _run_module(*argv):
    """python -W error -m boxnodes.cli argv in a fresh process, with the
    package from this tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return subprocess.run([sys.executable, "-W", "error", "-m", "boxnodes.cli", *argv],
                          env=env, capture_output=True, text=True)


class TestModuleEntry:
    """python -m boxnodes.cli: the module's __main__ guard makes main's return
    value the process's exit code."""

    def test_verify_exits_0_with_the_stdout_of_main(self, capsys):
        proc = _run_module("verify", "--a", "1.3", "--seed", "5")
        assert main(["verify", "--a", "1.3", "--seed", "5"]) == 0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == capsys.readouterr().out

    def test_bad_input_exits_2(self, tmp_path):
        proc = _run_module("trajectory", "--c1", "nan", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2 and proc.stderr.startswith("error:")

    def test_unwritable_output_exits_3(self, tmp_path):
        proc = _run_module("heatmap", "--out", str(tmp_path))
        assert proc.returncode == 3 and proc.stderr.startswith("error:")


class TestOutputSpec:
    """The writer: the suffix of the path picks the format, and the bytes."""

    def test_format_inference(self, tmp_path):
        # JSON for .json in any case, with the metadata in a sidecar; CSV for
        # any other suffix or none, with the metadata as a trailer line
        for name, sidecar in [("b.json", "b.fit.json"), ("B.JSON", "B.fit.json")]:
            write_columns(str(tmp_path / name), {"x": np.array([1.5])},
                          metadata={"fit": {"k": 2.0}})
            assert (tmp_path / name).read_text() == '[\n  {\n    "x": 1.5\n  }\n]\n'
            assert json.loads((tmp_path / sidecar).read_text()) == {"k": 2.0}
        for name in ["b.csv", "b.dat", "b"]:
            write_columns(tmp_path / name, {"x": np.array([1.5])}, metadata={"fit": {"k": 2.0}})
            assert (tmp_path / name).read_text() == "x\n1.5\n# fit k=2.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["B.JSON", "B.fit.json", "b", "b.csv", "b.dat", "b.fit.json", "b.json"]

    def test_float_repr_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        value = 1.0 / 3.0
        write_columns(path, {"v": np.array([value])})
        line = (tmp_path / "r.csv").read_text().splitlines()[1]
        assert float(line) == value

    def test_creates_parent_dirs(self, tmp_path):
        write_columns(tmp_path / "deep" / "nested" / "f.csv", {"v": np.array([1.0])})
        assert (tmp_path / "deep" / "nested" / "f.csv").exists()

    def test_exact_csv_bytes(self, tmp_path):
        path = tmp_path / "e.csv"
        x = np.array([0.0, -0.0, 1e-05, 1e16, math.inf, math.nan, -math.nan])
        write_columns(path, {"x": x, "k": ["a"] * 7}, metadata={"note": {"k": 1}})
        assert path.read_bytes() == (b"x,k\n0.0,a\n-0.0,a\n1e-05,a\n1e+16,a\n"
                                     b"inf,a\n,a\n,a\n# note k=1\n")

    def test_exact_csv_bytes_of_an_array_column(self, tmp_path):
        # an array column is formatted one distinct bit pattern at a time:
        # -0.0 stays apart from 0.0, and NaNs of either sign are empty cells
        values = [0.0, -0.0, math.nan, 5e-324, -math.nan, math.inf, 1e16, -math.inf,
                  -0.0, 0.0, 5e-324, math.nan, 1e16, -math.nan, -math.inf, math.inf]
        path = tmp_path / "a.csv"
        write_columns(path, {"x": np.array(values), "k": ["a"] * 16},
                      metadata={"note": {"k": 1}})
        assert path.read_bytes() == (
            b"x,k\n0.0,a\n-0.0,a\n,a\n5e-324,a\n,a\ninf,a\n1e+16,a\n-inf,a\n"
            b"-0.0,a\n0.0,a\n5e-324,a\n,a\n1e+16,a\n,a\n-inf,a\ninf,a\n# note k=1\n")

    _POOL = [0.0, -0.0, 1.5, 1.0 / 3.0, 5e-324, 1e16, 1e-05, -2.5e300, math.nan, -math.nan,
             math.inf, -math.inf]
    _STRINGS = ["a", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f", "caf\u00e9",
                "line\u2028sep", ""]
    _NAMES = ["x", "t", 'q"uote', "100%", "%s", "caf\u00e9", "k"]

    def _random_table(self, rng):
        """Columns of one length drawn from small pools, so values repeat:
        float arrays, NaNs included, and lists of strs."""
        n_rows = int(rng.integers(0, 12))
        names = rng.choice(self._NAMES, size=int(rng.integers(0, 4)), replace=False)
        columns = {}
        for name in names.tolist():
            if rng.random() < 0.5:
                columns[name] = np.array(rng.choice(self._POOL, size=n_rows))
            else:
                columns[name] = [self._STRINGS[i]
                                 for i in rng.integers(0, len(self._STRINGS), size=n_rows)]
        return columns

    def test_random_tables_match_per_cell_rendering(self, tmp_path):
        """CSV must equal a per-cell repr rendering, and JSON exactly what
        json.dump(rows, indent=2) writes, over seeded random tables; a NaN
        cell is rendered as None."""
        rng = np.random.default_rng(7)
        seen = set()
        for i in range(300):
            columns = self._random_table(rng)
            listed = {k: [None if math.isnan(x) else x for x in v.tolist()]
                      if isinstance(v, np.ndarray) else v for k, v in columns.items()}
            seen.add((len(columns), len(next(iter(listed.values()), []))))
            csv_path = tmp_path / f"{i}.csv"
            write_columns(csv_path, columns)
            _assert_table(csv_path, "csv", list(listed), list(zip(*listed.values())))
            json_path = tmp_path / f"{i}.json"
            write_columns(json_path, columns)
            with open(tmp_path / "want.json", "w", encoding="utf-8") as fh:
                json.dump([dict(zip(listed, row)) for row in zip(*listed.values())],
                          fh, indent=2)
                fh.write("\n")
            assert json_path.read_bytes() == (tmp_path / "want.json").read_bytes()
        # the empty table, columns without rows, and full tables all occur
        assert (0, 0) in seen and any(c and not r for c, r in seen)
        assert any(c == 3 and r >= 5 for c, r in seen)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unequal_columns_rejected(self, tmp_path, fmt):
        path = tmp_path / f"u.{fmt}"
        for x, y in [(["a", "b"], ["a"]), (np.array([1.0, 2.0]), ["a"]),
                     (["a", "b"], np.array([1.0])), (np.array([1.0]), np.array([1.0, 2.0]))]:
            with pytest.raises(ValueError):
                write_columns(path, {"x": x, "y": y})
            assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("col, kind", [(np.zeros((2, 1)), "2-D float64"),
                                           (np.zeros(2, np.float32), "1-D float32")])
    def test_array_column_not_1d_float64_rejected(self, tmp_path, fmt, col, kind):
        path = tmp_path / f"c.{fmt}"
        with pytest.raises(ValueError, match=f"^an array column must be 1-D float64, got {kind}$"):
            write_columns(path, {"x": col})
        assert not path.exists()


def _assert_table(path, fmt, header, rows, trailer=()):
    """The file holds rows in the documented format: repr per float cell
    and an empty cell for None in CSV, a list of row objects in JSON."""
    if fmt == "csv":
        def cell(v):
            return "" if v is None else v if isinstance(v, str) else repr(v)
        lines = [",".join(header), *(",".join(map(cell, row)) for row in rows), *trailer]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    else:
        assert json.loads(path.read_text()) == [dict(zip(header, row)) for row in rows]


class TestOutputFormat:
    """Each subcommand writes exactly the library result, rendered here."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("c1, c2, cfg, t0", [
        pytest.param(c1, c2, cfg, t0, id=f"{c1}-{c2}{suffix}")
        for cfg, t0, suffix in [(UNIT, 0.0, ""), (WellConfig(1.37, 0.6, 1.9), 0.25, "-a137-t025")]
        for c1, c2 in [(0.6, 0.8), (2.0, 0.5)]])
    @pytest.mark.parametrize("flag, kind", [("analytic", "analytic-formula"),
                                            ("repart", "real-part-zero"),
                                            ("minimum", "density-minimum")])
    def test_trajectory(self, tmp_path, fmt, c1, c2, cfg, t0, flag, kind):
        out = tmp_path / f"t.{fmt}"
        assert run_cli(["trajectory", "--c1", c1, "--c2", c2, "--kind", flag,
                        "--a", cfg.width_a, "--mass", cfg.mass_m, "--hbar", cfg.hbar,
                        "--t-start", t0, "--time-samples", 33, "--out", out]) == 0
        traj = track_trajectory(cfg, TwoStateSuperposition(c1, c2), kind, t0,
                                t0 + beat_period(cfg), 33)
        rows = [(t, None if math.isnan(x) else x, kind)
                for t, x in zip(traj.times.tolist(), traj.positions.tolist())]
        if c1 == 2.0:  # A = 2: the instants without a node are gaps
            assert any(pos is None for _, pos, _ in rows)
        _assert_table(out, fmt, ["t", "position", "kind"], rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_amplitude_sweep(self, tmp_path, fmt):
        out = tmp_path / f"s.{fmt}"
        assert run_cli(["amplitude-sweep", "--a-min", 0.05, "--a-max", 1.0,
                        "--a-count", 16, "--out", out]) == 0
        sweep = amplitude_sweep(UNIT, SweepSpec(0.05, 1.0, 16, spacing="logarithmic"))
        fit = fit_power_law(sweep)
        fields = {"coefficient": fit.coefficient, "exponent": fit.exponent,
                  "rms_log_residual": fit.rms_log_residual}
        rows = list(zip(sweep.ratios.tolist(), sweep.amplitudes.tolist()))
        if fmt == "csv":
            trailer = ["# fit " + " ".join(f"{k}={v!r}" for k, v in fields.items())]
            _assert_table(out, fmt, ["ratio", "amplitude"], rows, trailer)
        else:
            _assert_table(out, fmt, ["ratio", "amplitude"], rows)
            assert json.loads((tmp_path / "s.fit.json").read_text()) == fields

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_avg_position(self, tmp_path, fmt):
        out = tmp_path / f"a.{fmt}"
        assert run_cli(["avg-position", "--a-min", 0.05, "--a-max", 0.95,
                        "--a-count", 7, "--out", out]) == 0
        rows = [(float(A), time_avg_node_position(UNIT, float(A)))
                for A in np.linspace(0.05, 0.95, 7)]
        _assert_table(out, fmt, ["ratio", "mean_position"], rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_heatmap(self, tmp_path, fmt):
        out = tmp_path / f"h.{fmt}"
        assert run_cli(["heatmap", "--grid", 16, "--mix-count", 9, "--out", out]) == 0
        grid = heatmap(UNIT, 16, 9)
        rows = [(float(theta), float(x), float(grid.values[i, j]))
                for i, theta in enumerate(grid.mix_values)
                for j, x in enumerate(grid.x_values)]
        _assert_table(out, fmt, ["theta", "x", "avg_density"], rows)


class TestDeterminism:
    def test_trajectory_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        flags = ["trajectory", "--kind", "minimum", "--time-samples", 8]
        assert run_cli([*flags, "--out", a]) == 0
        assert run_cli([*flags, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["amplitude-sweep", "--a-count", 12]
        assert run_cli([*flags, "--out", a]) == 0
        assert run_cli([*flags, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.fit.json").read_bytes() == \
            (tmp_path / "b.fit.json").read_bytes()


class TestSharedParser:
    """main parses every call with one parser, which must carry nothing over."""

    def test_main_builds_the_parser_once(self, monkeypatch, tmp_path):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        for name in ("a.csv", "b.csv"):
            assert run_cli(["trajectory", "--time-samples", 4, "--out", tmp_path / name]) == 0
        assert len(built) <= 1

    def test_no_state_between_calls(self, tmp_path, capsys):
        assert build_parser() is not build_parser()
        assert run_cli(["trajectory", "--kind", "repart", "--c1", 0.6, "--c2", 0.8,
                        "--out", tmp_path / "r.csv"]) == 0
        assert run_cli(["trajectory", "--bogus", 1, "--out", tmp_path / "b.csv"]) == 2
        assert run_cli(["verify"]) == 0
        shared, fresh = tmp_path / "shared.csv", tmp_path / "fresh.csv"
        assert run_cli(["trajectory", "--out", shared]) == 0
        _, rows, _ = read_csv(shared)
        assert {row[2] for row in rows} == {"analytic-formula"}
        args = build_parser().parse_args(["trajectory", "--out", str(fresh)])
        assert args.handler(args) == 0
        assert shared.read_bytes() == fresh.read_bytes()
