"""The benchmark trajectory, scripts/bench_trajectory.py, on the committed
records and on canned ones: no benchmark runs here."""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import bench_pairs  # noqa: E402
import bench_trajectory as bt  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_the_committed_records_chain_across_intact_links():
    records = [r for r in bt.load_records(ROOT, METRICS)
               if r[0] in ("BENCH_43.json", "BENCH_44.json", "BENCH_45.json")]
    assert [name for name, _ in records] == ["BENCH_43.json", "BENCH_44.json", "BENCH_45.json"]
    link_list = bt.links(records)
    assert [broken for _, _, broken, _ in link_list] == [None, None]
    assert [named for _, _, _, named in link_list] == [
        "src 65e15c58c7, perfbench c9842101cd", "src 9517b4497d, perfbench c9842101cd"]
    assert bt.chains(records, link_list) == [records]
    tail = [line for line in bt.chain_lines(records, METRICS)
            if line.split()[:2] == ["cli", "job_tail_ms"]]
    assert tail == ["  cli          job_tail_ms  0.798 (-20.20%): "
                    "-18.55% (10/10), -0.00% (7/10), -2.02% (10/10)"]


def test_bench_pairs_prints_the_same_block():
    assert bench_pairs.record_block is bt.record_block
    record = json.loads((ROOT / "BENCH_45.json").read_text())
    block = bt.record_block("BENCH_45.json", record, METRICS)
    assert block[0] == "BENCH_45.json: base 912c342c62 -> head 07336ffa7e, exit 0"
    assert block[4].startswith("  cli: setup_s 0.119 -> 0.1159 s [0.107-0.1314] (5 of 10, -2.59%)")
    assert "job_tail_ms 12.1 -> 11.86 ms [12.01-12.25] (10 of 10, -2.02%)" in block[4]


def _record(base: str, head: str, ratio: float) -> dict:
    """A record whose every metric reads 10 at the base and 10 * ratio at the head."""
    entry = {"base_median": 10.0, "head_median": 10.0 * ratio, "base_quartiles": [9.0, 11.0],
             "head_quartiles": [9.0, 11.0], "pairs": 10, "head_won": 6,
             "change": ratio - 1.0, "bound": 0.25, "past_bound": False}
    return {"base": base, "head": head, "verdict": {"exit": 0},
            "summary": {"cli": {m["name"]: entry for m in METRICS}}}


def _canned(tmp_path, monkeypatch, records: dict) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name, record in records.items():
        (tmp_path / name).write_text(record if isinstance(record, str) else json.dumps(record))
    monkeypatch.setattr(bt, "ROOT", tmp_path)
    # commit -> (src tree, perfbench tree)
    trees = {"b1": ("s0", "p0"), "h1": ("s1", "p0"), "b2": ("s1", "p0"), "h2": ("s2", "p0"),
             "b3": ("s9", "p0"), "h3": ("s3", "p0")}
    monkeypatch.setattr(bt, "trees", lambda rev: trees.get(rev, (None, None)))


def test_a_broken_link_is_named_and_not_composed(tmp_path, monkeypatch, capsys):
    _canned(tmp_path, monkeypatch, {"BENCH_1.json": _record("b1", "h1", 0.5),
                                    "BENCH_2.json": _record("b2", "h2", 0.8),
                                    "BENCH_10.json": _record("b3", "h3", 2.0)})
    assert bt.main() == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["link BENCH_1.json -> BENCH_2.json: intact (src s1, perfbench p0)",
                        "link BENCH_2.json -> BENCH_10.json: BROKEN, base trees differ from "
                        "the previous head's: src s2 != s9"]
    chains = [line for line in out if line.startswith("chain ")]
    assert [line.split(":")[0] for line in chains] == [
        "chain BENCH_1.json .. BENCH_2.json (2 records)",
        "chain BENCH_10.json .. BENCH_10.json (1 records)"]
    walls = [line for line in out if line.split()[:2] == ["cli", "wall_s"]]
    assert [line.split()[2] for line in walls] == ["0.400", "2.000"]


def test_an_unknown_commit_breaks_its_link(tmp_path, monkeypatch, capsys):
    _canned(tmp_path, monkeypatch, {"BENCH_1.json": _record("b1", "gone", 0.5),
                                    "BENCH_2.json": _record("b2", "h2", 0.8)})
    assert bt.main() == 0
    assert capsys.readouterr().out.splitlines()[1] == (
        "link BENCH_1.json -> BENCH_2.json: BROKEN, base trees differ from the previous "
        "head's: src ? != s1; perfbench ? != p0")


def test_an_unreadable_record_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    lacking = _record("b2", "h2", 0.8)
    del lacking["summary"]["cli"]["wall_s"]["change"]
    for bad, kind in (("{not json", "JSONDecodeError"), (json.dumps(lacking), "KeyError"),
                      ("[]", "TypeError")):
        _canned(tmp_path, monkeypatch, {"BENCH_1.json": _record("b1", "h1", 0.5),
                                        "BENCH_2.json": bad})
        assert bt.main() == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: BENCH_2.json: {kind}")
