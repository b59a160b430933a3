#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload prints every metric named in BENCHMARK.json with
its unit, in both modes; that the reference checks reject deliberately
perturbed results; and that the benchmark fails, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's files. Exits 1 on
the first failed check. Timings are not judged.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_outputs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and len(lines) >= 2,
                   f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
            result, record = json.loads(lines[-1]), json.loads(lines[-2])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace} result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{workload} trace={trace} correct with jobs attempted")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} emits every {section} metric "
                                f"with its unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()),
                   f"{workload} trace={trace} values are finite numbers")
            expect({"seed", "commit", "python", "numpy", "scipy", "nproc", "threads",
                    "job_tail_ms", "why", "predictions"} <= set(record),
                   f"{workload} trace={trace} run record")


def check_oracle_rejects() -> None:
    import boxnodes as bn

    well = oracle.Well(1.3, 0.8, 1.1)
    cfg = bn.WellConfig(well.a, well.m, well.hbar)
    T = well.period
    c1, c2 = 0.6, 0.8  # A = 0.375: one zero of Re Psi, true zeros at k T / 2

    def verdict_of(check, *args) -> oracle.Verdict:
        v = oracle.Verdict()
        check(v, *args)
        return v

    state = bn.TwoStateSuperposition(c1, c2)
    for kind in ("real-part-zero", "density-minimum"):
        traj = bn.track_trajectory(cfg, state, kind, 0.0, T, 16, 256)
        samples = [(s.t, s.position) for s in traj.samples]
        expect(verdict_of(oracle.check_track, well, kind, c1, c2, samples).ok,
               f"{kind} track passes its reference")
        i = next(k for k, (_, p) in enumerate(samples) if p is not None)
        shifted = list(samples)
        shifted[i] = (samples[i][0], samples[i][1] + 1e-6 * well.a)
        expect(not verdict_of(oracle.check_track, well, kind, c1, c2, shifted).ok,
               f"{kind} node shifted by 1e-6 a is rejected")
        dropped = list(samples)
        dropped[i] = (samples[i][0], None)
        expect(not verdict_of(oracle.check_track, well, kind, c1, c2, dropped).ok,
               f"{kind} missing node is rejected")

    times = bn.exact_zero_times(cfg, state, 1, grid_n=64, samples_per_period=32)
    expect(verdict_of(oracle.check_zero_times, well, c1, c2, times).ok,
           "zero times pass their reference")
    expect(not verdict_of(oracle.check_zero_times, well, c1, c2, times[:-1]).ok,
           "a dropped zero time is rejected")
    expect(not verdict_of(oracle.check_zero_times, well, c1, c2,
                          [t + 1e-8 * T for t in times]).ok,
           "zero times shifted by 1e-8 T are rejected")

    spec = oracle.DEFAULT_SPEC
    sweep = bn.amplitude_sweep(cfg, bn.SweepSpec(*spec))
    fit = bn.fit_power_law(sweep)
    expect(verdict_of(oracle.check_fit, well, spec, fit.coefficient, fit.exponent).ok,
           "default-spec fit matches the frozen fit scaled by a")
    expect(not verdict_of(oracle.check_fit, well, spec, fit.coefficient,
                          fit.exponent + 2e-6).ok,
           "fit exponent off by 2e-6 is rejected")
    other = (0.04, 0.9, 20, "linear")
    fit = bn.fit_power_law(bn.amplitude_sweep(cfg, bn.SweepSpec(*other)))
    expect(verdict_of(oracle.check_fit, well, other, fit.coefficient, fit.exponent).ok,
           "other-spec fit reaches the least-squares optimum")
    expect(not verdict_of(oracle.check_fit, well, other, fit.coefficient * 1.001,
                          fit.exponent).ok,
           "fit coefficient off by 0.1% is rejected")
    entries = list(sweep.entries)
    entries[3] = (entries[3][0], entries[3][1] + 1e-8 * well.a)
    expect(not verdict_of(oracle.check_sweep, well, spec, entries).ok,
           "amplitude off by 1e-8 a is rejected")

    grid = bn.heatmap(cfg, 8, 8)
    values = grid.values.copy()
    expect(verdict_of(oracle.check_heatmap, well, 8, 8, grid.x_values, grid.mix_values,
                      values).ok, "heatmap passes its reference")
    values[2, 3] += 1e-9 / well.a
    expect(not verdict_of(oracle.check_heatmap, well, 8, 8, grid.x_values,
                          grid.mix_values, values).ok,
           "heatmap density off by 1e-9 / a is rejected")
    expect(not verdict_of(oracle.check_mean_position, well,
                          bn.time_avg_node_position(cfg, 0.4) + 1e-8 * well.a).ok,
           "mean position off by 1e-8 a is rejected")

    stdout = ("PASS delta-omega-formula: x (error=0.0, tol=1.0e-12)\n"
              f"FAIL power-law-band: fit k = {0.412703874 * 2.0!r}, p = 1.238436671 "
              "(error=1.0e-01, tol=0.0e+00)\n")
    v = oracle.Verdict()
    reason = workloads._check_verify(oracle.Well(2.0, 1.0, 1.0))(ROOT, stdout, 1, v)
    expect(v.ok and reason is not None and "power-law-band" in reason,
           "verify exit 1 on a valid well is a failed job, its fit values still checked")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench_smoke", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "sweeps", 0)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the package the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    check_oracle_rejects()
    check_bare_directory()
    check_outputs()
    print("smoke test passed")
