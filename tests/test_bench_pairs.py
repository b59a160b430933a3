"""The paired benchmark record, scripts/bench_pairs.py, on canned run records:
no benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs as bench  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(workload, base, head):
    """Run records of pairs i = 0, 1, ...: base[i] and head[i] are wall_s
    values; every other metric reads 1.0 on both sides."""
    runs = []
    for i, (b, h) in enumerate(zip(base, head)):
        for side, value in (("base", b), ("head", h)):
            metrics = {m["name"]: 1.0 for m in METRICS}
            metrics["wall_s"] = value
            runs.append({"workload": workload, "pair": i, "side": side, "seed": 10 + i,
                         "correct": True, "failed": 0, "attempted": 100,
                         "metrics": metrics})
    return runs


def test_medians_quartiles_and_won_pairs():
    runs = _runs("cli", base=[10.0, 12.0, 11.0, 14.0, 13.0], head=[9.0, 12.5, 10.0, 9.5, 8.0])
    entry = bench.summarize(runs, METRICS)["cli"]["wall_s"]
    assert entry["base_median"] == 12.0 and entry["head_median"] == 9.5
    # inclusive quartiles of 10, 11, 12, 13, 14 and of 8, 9, 9.5, 10, 12.5
    assert entry["base_quartiles"] == [11.0, 13.0]
    assert entry["head_quartiles"] == [9.0, 10.0]
    assert entry["pairs"] == 5 and entry["head_won"] == 4  # pair 1 reads higher
    assert entry["change"] == pytest.approx(9.5 / 12.0 - 1.0)
    assert not entry["past_bound"]
    # a tie is no win
    assert bench.summarize(runs, METRICS)["cli"]["setup_s"]["head_won"] == 0
    assert bench.verdict(runs, bench.summarize(runs, METRICS)) == (0, [])


def test_a_median_past_its_bound_in_the_worse_direction_exits_1():
    # wall_s is better lower with a bound of 25%: +30% fails, -30% and +20% pass
    for head, code in ((13.0, 1), (7.0, 0), (12.0, 0)):
        runs = _runs("sweeps", base=[10.0] * 3, head=[head] * 3)
        summary = bench.summarize(runs, METRICS)
        assert summary["sweeps"]["wall_s"]["past_bound"] is (code == 1)
        status, reasons = bench.verdict(runs, summary)
        assert status == code
        assert [r for r in reasons if "wall_s" in r] == (
            ["sweeps wall_s: the median moved +30.0%, past its bound of 25%"] if code else [])


def test_a_higher_is_better_metric_counts_the_other_way():
    metrics = [{"name": "wall_s", "better": "higher", "bound": 0.1}]
    entry = bench.summarize(_runs("cli", [10.0, 10.0], [8.0, 11.0]), metrics)["cli"]["wall_s"]
    assert entry["head_won"] == 1 and entry["change"] == pytest.approx(-0.05)
    assert not entry["past_bound"]
    entry = bench.summarize(_runs("cli", [10.0, 10.0], [8.0, 8.0]), metrics)["cli"]["wall_s"]
    assert entry["head_won"] == 0 and entry["past_bound"]  # -20% against 10%
    entry = bench.summarize(_runs("cli", [10.0, 10.0], [13.0, 13.0]), metrics)["cli"]["wall_s"]
    assert entry["head_won"] == 2 and not entry["past_bound"]


def test_a_run_that_is_not_correct_exits_1():
    runs = _runs("node-finders", base=[1.0, 1.0], head=[1.0, 1.0])
    runs[3] = {**runs[3], "correct": False}
    runs.append({"workload": "node-finders", "pair": 2, "side": "head", "seed": 12,
                 "correct": False, "failed": None, "attempted": None, "metrics": None,
                 "error": "error: no boxnodes package"})
    status, reasons = bench.verdict(runs, bench.summarize(runs, METRICS))
    assert status == 1
    assert reasons == ["node-finders pair 1 head (seed 11): not correct",
                       "node-finders pair 2 head (seed 12): not correct "
                       "(error: no boxnodes package)"]
    # the pair without a base run, and the run without metrics, are left out
    assert bench.summarize(runs, METRICS)["node-finders"]["wall_s"]["pairs"] == 2


def test_a_head_that_fails_more_operations_exits_1():
    runs = _runs("cli", base=[1.0] * 3, head=[1.0] * 3)
    for run, failed in zip(runs, (0, 1, 0, 2, 1, 0)):  # base 0, 0, 1; head 1, 2, 0
        run["failed"] = failed
    status, reasons = bench.verdict(runs, bench.summarize(runs, METRICS))
    assert status == 1
    assert reasons == ["cli failed: the head's median 1 is above the base's 0"]
    # as many failures in the median on both sides pass
    for run in runs:
        run["failed"] = 1
    assert bench.verdict(runs, bench.summarize(runs, METRICS)) == (0, [])


@pytest.mark.parametrize("argv, message", [
    (["--pairs", "3", "--seed0", "1"], "unrecognized arguments: --pairs 3"),
    (["--workload", "cli", "--seed0", "1"], "unrecognized arguments: --workload cli"),
    ([], "required: --seed0")],
    ids=["no-pairs", "workload", "no-seed0"])
def test_bad_input_exits_2_before_any_run(argv, message, tmp_path, capsys, monkeypatch):
    # neither the workloads nor the pair count is an option: every record
    # covers all of them at PAIRS pairs
    def no_call(*args, **kwargs):
        raise AssertionError("bad input reached git or a benchmark run")

    monkeypatch.setattr(bench, "git", no_call)
    monkeypatch.setattr(bench, "run_once", no_call)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--base", "HEAD", "--out", str(out), *argv]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("status", [
    (" M src/boxnodes/well.py", ""), ("", "?? src/boxnodes/new.py")],
    ids=["tracked-change", "untracked-source"])
def test_a_tree_that_differs_from_head_exits_2(status, tmp_path, capsys, monkeypatch):
    # the record names its head by the commit alone, so the measured tree must be it
    replies = iter(status)

    def git(*args):
        return next(replies) if args[0] == "status" else "0" * 40

    monkeypatch.setattr(bench, "git", git)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--base", "HEAD", "--seed0", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "differs from HEAD" in capsys.readouterr().err
