"""Seeded job lists for the three workloads.

A job is one public-API call, or one call of boxnodes.cli.main (cli), plus a
check of its output against the closed-form references in oracle.py. The package sees only the generated inputs. One pass runs the
whole list once; the runner repeats passes.

The seed draws wells, states and ranges but not job sizes, so every seed
asks for the same amount of work, and a pass is short enough (one to two
seconds) for a run to repeat every job many times.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from oracle import Verdict, Well


@dataclass
class Job:
    """An in-process job: run() makes the one API call, check() judges its result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object, Verdict], None]


@dataclass
class CliJob:
    """A CLI job: argv of boxnodes.cli.main, outputs named relative to a per-job
    directory, and a check of (job directory, stdout, exit code)."""

    label: str
    argv: list[str]
    check: Callable[[Path, str, int, Verdict], str | None]


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _well(rng: np.random.Generator) -> Well:
    """(a, m, hbar) log-uniform in [1/2, 2]."""
    return Well(*(_log_uniform(rng, 0.5, 2.0) for _ in range(3)))


def _real_state(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, float]:
    """Normalized real (c1, c2) with |A| = |c1 / (2 c2)| drawn from [lo, hi]."""
    A = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(lo, hi))
    c2 = 1.0 / math.sqrt(1.0 + 4.0 * A * A)
    return 2.0 * A * c2, c2


def _complex_state(rng: np.random.Generator, lo: float = 0.3,
                   hi: float = 0.5) -> tuple[complex, complex]:
    """Normalized (c1, c2) with |c1 / (2 c2)| drawn from [lo, hi] and a random
    relative phase."""
    c1, c2 = _real_state(rng, lo, hi)
    return complex(c1 * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))), complex(c2)


# ---- node-finders ---------------------------------------------------------

# |A| strata, two inside the well (a true zero forms twice per period) and
# one outside it (no interior zero ever forms). The solver work of a job
# changes steeply with |A| between about 0.55 and 1.5, so the strata stay
# clear of that band and every seed gets about the same work.
_INSIDE = ((0.3, 0.4), (0.4, 0.5))
_OUTSIDE = (1.6, 2.5)
# complex states only admit the density-minimum kind
_COMPLEX_STATES = 3
# instants per trajectory (the CLI default grid, fewer instants than its
# 256 so that a pass takes about a second) and time samples per period for
# exact_zero_times (default 512)
_INSTANTS = 32
_ZERO_TIME_SAMPLES = 64


def node_finders(bn, seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    n_samples, grid = (16, 256) if tiny else (_INSTANTS, 2048)
    zero_kwargs = {"grid_n": 64, "samples_per_period": 32} if tiny else {
        "samples_per_period": _ZERO_TIME_SAMPLES}
    inside = [(_well(rng), *_real_state(rng, lo, hi)) for lo, hi in _INSIDE]
    outside = (_well(rng), *_real_state(rng, *_OUTSIDE))

    def track(well: Well, c1, c2, kind: str) -> Job:
        cfg = bn.WellConfig(well.a, well.m, well.hbar)
        state = bn.TwoStateSuperposition(c1, c2)
        T = well.period

        def check(traj, verdict: Verdict) -> None:
            samples = [(s.t, s.position) for s in traj.samples]
            verdict.counts["samples"] += len(samples)
            verdict.counts["samples_no_node"] += sum(p is None for _, p in samples)
            oracle.check_track(verdict, well, kind, c1, c2, samples)

        return Job(f"track_trajectory/{kind}",
                   lambda: bn.track_trajectory(cfg, state, kind, 0.0, T, n_samples, grid),
                   check)

    def zero_times(well: Well, c1: float, c2: float) -> Job:
        cfg = bn.WellConfig(well.a, well.m, well.hbar)
        state = bn.TwoStateSuperposition(c1, c2)
        return Job("exact_zero_times",
                   lambda: bn.exact_zero_times(cfg, state, 1, **zero_kwargs),
                   lambda times, v: oracle.check_zero_times(v, well, c1, c2, times))

    jobs = [track(*real, kind) for real in (*inside, outside)
            for kind in ("real-part-zero", "density-minimum")]
    jobs += [track(_well(rng), *_complex_state(rng), "density-minimum")
             for _ in range(_COMPLEX_STATES)]
    jobs += [zero_times(*inside[0]), zero_times(*outside)]
    return jobs


# ---- sweeps ---------------------------------------------------------------


def sweeps(bn, seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    jobs: list[Job] = []
    # the work of a sweep is one node-position solve per ratio: the count is fixed
    specs = [oracle.DEFAULT_SPEC,
             (float(rng.uniform(0.02, 0.1)), float(rng.uniform(0.6, 1.0)), 64, "logarithmic"),
             (float(rng.uniform(0.02, 0.1)), float(rng.uniform(0.6, 1.0)), 64, "linear")]
    if tiny:
        specs = [(lo, hi, 8, spacing) for lo, hi, _, spacing in specs[1:]]
    for spec in specs:
        well = _well(rng)
        cfg = bn.WellConfig(well.a, well.m, well.hbar)
        spec_obj = bn.SweepSpec(*spec)
        held = {}

        def sweep(cfg=cfg, spec_obj=spec_obj, held=held):
            held["sweep"] = bn.amplitude_sweep(cfg, spec_obj)
            return held["sweep"]

        jobs.append(Job("amplitude_sweep", sweep,
                        lambda r, v, well=well, spec=spec: oracle.check_sweep(
                            v, well, spec, r.entries)))
        jobs.append(Job("fit_power_law", lambda held=held: bn.fit_power_law(held["sweep"]),
                        lambda r, v, well=well, spec=spec: oracle.check_fit(
                            v, well, spec, r.coefficient, r.exponent)))

    # 64 x values by 1024 time samples, about 65k points, in every row: wider
    # rows leave the cache, and then their time follows other tenants' memory
    # traffic more than the program
    shapes = [(8, 8), (8, 16)] if tiny else [(64, 64), (64, 128)]
    for xc, mc in shapes:
        well = _well(rng)
        cfg = bn.WellConfig(well.a, well.m, well.hbar)
        jobs.append(Job(
            "heatmap", lambda cfg=cfg, xc=xc, mc=mc: bn.heatmap(cfg, xc, mc),
            lambda g, v, well=well, xc=xc, mc=mc: oracle.check_heatmap(
                v, well, xc, mc, g.x_values, g.mix_values, g.values)))

    for _ in range(2 if tiny else 8):
        well = _well(rng)
        cfg = bn.WellConfig(well.a, well.m, well.hbar)
        ratio = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.99))
        jobs.append(Job(
            "time_avg_node_position",
            lambda cfg=cfg, ratio=ratio: bn.time_avg_node_position(cfg, ratio),
            lambda r, v, well=well: oracle.check_mean_position(v, well, r)))

    for _ in range(2 if tiny else 12):
        well = _well(rng)
        cfg = bn.WellConfig(well.a, well.m, well.hbar)
        c1, c2 = _complex_state(rng, 0.05, 2.5)
        state = bn.TwoStateSuperposition(c1, c2)
        x = np.sort(rng.uniform(0.0, well.a, 64))
        jobs.append(Job(
            "time_avg_density",
            lambda cfg=cfg, state=state, x=x: bn.time_avg_density(cfg, state, x),
            lambda r, v, well=well, c1=c1, c2=c2, x=x: oracle.check_density(
                v, well, c1, c2, x, r)))
    return jobs


# ---- cli -----------------------------------------------------------------

# scripts/reproduce_figures.py: Figure 3 mixes (c1, c2)
_FIG3_MIXES = [
    (0.3713906763541037, 0.9284766908852592),
    (0.7071067811865475, 0.7071067811865475),
    (0.8479983040050879, 0.5299989400031799),
    (0.8888888888888888, 0.4581228472908512),
]
_EQUAL = 1.0 / math.sqrt(2.0)


def _read_csv(path: Path) -> tuple[list[dict], list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.DictReader(ln for ln in lines if not ln.startswith("#")))
    return rows, comments


def _float_or_none(cell: str):
    return None if cell == "" else float(cell)


def _check_trajectory(well: Well, c1: float, c2: float, n: int):
    def check(d: Path, stdout: str, code: int, v: Verdict):
        rows, _ = _read_csv(d / "out.csv")
        if len(rows) != n:
            v.mismatch(f"trajectory: {len(rows)} rows, expected {n}")
            return
        ts = np.linspace(0.0, well.period, n)
        samples = []
        for row, t in zip(rows, ts):
            if abs(float(row["t"]) - t) > 1e-12 * well.period or row["kind"] != "analytic-formula":
                v.mismatch(f"trajectory row {row!r} does not match t={t!r}")
            samples.append((float(row["t"]), _float_or_none(row["position"])))
        oracle.check_analytic_track(v, well, c1 / (2.0 * c2), samples)
    return check


def _check_avg_position(well: Well, count: int):
    def check(d: Path, stdout: str, code: int, v: Verdict):
        rows, _ = _read_csv(d / "out.csv")
        if len(rows) != count:
            v.mismatch(f"avg-position: {len(rows)} rows, expected {count}")
        for row in rows:
            oracle.check_mean_position(v, well, float(row["mean_position"]))
    return check


_FIT_TRAILER = re.compile(r"# fit coefficient=(\S+) exponent=(\S+) rms_log_residual=(\S+)")


def _check_sweep_csv(well: Well):
    def check(d: Path, stdout: str, code: int, v: Verdict):
        rows, comments = _read_csv(d / "out.csv")
        entries = [(float(r["ratio"]), float(r["amplitude"])) for r in rows]
        oracle.check_sweep(v, well, oracle.DEFAULT_SPEC, entries)
        match = _FIT_TRAILER.fullmatch(comments[-1]) if comments else None
        if match is None:
            v.mismatch("amplitude-sweep csv: no fit trailer")
            return
        oracle.check_fit(v, well, oracle.DEFAULT_SPEC, float(match[1]), float(match[2]))
    return check


def _check_sweep_json(well: Well):
    def check(d: Path, stdout: str, code: int, v: Verdict):
        rows = json.loads((d / "out.json").read_text(encoding="utf-8"))
        fit = json.loads((d / "out.fit.json").read_text(encoding="utf-8"))
        oracle.check_sweep(v, well, oracle.DEFAULT_SPEC,
                           [(r["ratio"], r["amplitude"]) for r in rows])
        oracle.check_fit(v, well, oracle.DEFAULT_SPEC, fit["coefficient"], fit["exponent"])
    return check


def _check_heatmap(well: Well, x_count: int, mix_count: int):
    def check(d: Path, stdout: str, code: int, v: Verdict):
        rows, _ = _read_csv(d / "out.csv")
        if len(rows) != x_count * mix_count:
            v.mismatch(f"heatmap: {len(rows)} rows, expected {x_count * mix_count}")
            return
        values = np.array([float(r["avg_density"]) for r in rows]).reshape(mix_count, x_count)
        xs = [float(r["x"]) for r in rows[:x_count]]
        thetas = [float(r["theta"]) for r in rows[::x_count]]
        oracle.check_heatmap(v, well, x_count, mix_count, xs, thetas, values)
    return check


_VERIFY_LINE = re.compile(r"(PASS|FAIL) ([\w-]+): (.*)")
_VERIFY_FIT = re.compile(r"fit k = (\S+), p = (\S+?) \(")


def _check_verify(well: Well):
    """Exit 0 is the documented success for any valid well. The fit values that
    verify prints are checked against the frozen fit, scaled by a."""
    def check(d: Path, stdout: str, code: int, v: Verdict):
        lines = [m for m in map(_VERIFY_LINE.match, stdout.splitlines()) if m]
        failed = [m[2] for m in lines if m[1] == "FAIL"]
        v.counts["verify_fail_lines"] += len(failed)
        fit_line = next((m[3] for m in lines if m[2] == "power-law-band"), None)
        fit = _VERIFY_FIT.match(fit_line) if fit_line else None
        if fit is None:
            v.mismatch("verify: no power-law-band line")
        else:
            oracle.check_fit(v, well, oracle.DEFAULT_SPEC, float(fit[1]), float(fit[2]))
        if code != 0:
            return f"exit {code}: FAIL {', '.join(failed)}"
        return None
    return check


def _non_unit_well(rng: np.random.Generator) -> Well:
    """a at least 25% away from 1 on either side, m and hbar log-uniform in [1/2, 2]."""
    a = _log_uniform(rng, 1.25, 2.0) ** float(rng.choice([-1.0, 1.0]))
    return Well(a, _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0))


def cli(seed: int, tiny: bool = False) -> list[CliJob]:
    """The argv list of scripts/reproduce_figures.py, then verify on a non-unit
    and on the unit well, each run on a seeded well."""
    rng = np.random.default_rng([seed, 3])
    wells = [_non_unit_well(rng), Well(1.0, 1.0, 1.0), _non_unit_well(rng)]
    n_traj = 16 if tiny else 512
    figures = [
        (["trajectory", "--time-samples", n_traj, "--out", "out.csv"],
         lambda w: _check_trajectory(w, _EQUAL, _EQUAL, n_traj)),
        (["avg-position", "--a-max", 0.99, "--a-count", 99, "--time-samples", 1024,
          "--out", "out.csv"],
         lambda w: _check_avg_position(w, 99)),
        *[(["trajectory", "--c1", c1, "--c2", c2, "--time-samples", n_traj,
            "--out", "out.csv"],
           lambda w, c1=c1, c2=c2: _check_trajectory(w, c1, c2, n_traj))
          for c1, c2 in _FIG3_MIXES],
        (["amplitude-sweep", "--a-min", 0.05, "--a-max", 1.0, "--a-count", 64,
          "--out", "out.csv"], _check_sweep_csv),
        (["amplitude-sweep", "--a-min", 0.05, "--a-max", 1.0, "--a-count", 64,
          "--out", "out.json"], _check_sweep_json),
        (["heatmap", "--grid", 64, "--mix-count", 64, "--time-samples", 1024,
          "--out", "out.csv"], lambda w: _check_heatmap(w, 64, 64)),
    ]
    if tiny:
        figures = [figures[0]]
    jobs = []
    for i, (argv, make_check) in enumerate(figures):
        well = wells[i % len(wells)]
        jobs.append(CliJob(argv[0], [*map(str, argv), *_well_flags(well)], make_check(well)))
    for well in wells[:2]:
        jobs.append(CliJob("verify", ["verify", *_well_flags(well)], _check_verify(well)))
    return jobs


def _well_flags(well: Well) -> list[str]:
    return ["--a", repr(well.a), "--mass", repr(well.m), "--hbar", repr(well.hbar)]
