"""The declared-diff byte gate, scripts/gate_compare.py, on seeded mutations."""

import importlib.util
import json
import math
import random
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("gate_compare",
                                               ROOT / "scripts" / "gate_compare.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _outputs(rng):
    """A small gate tree: a table with empty cells, a verify report, a JSON object."""
    rows = ["t,position,kind"]
    for i in range(24):
        x = "" if i % 7 == 3 else repr(rng.uniform(0.0, 1.0))
        rows.append(f"{i * 0.125!r},{x},density-minimum")
    report = [f"{'FAIL' if i == 5 else 'PASS'} check-{i}: measured {rng.random()!r} "
              f"(error={rng.random() * 1e-12:.3e}, tol=1.000e-10)" for i in range(8)]
    fit = {"coefficient": rng.random(), "exponent": 1.0 + rng.random()}
    return {"minimum.csv": "\n".join(rows) + "\n", "verify.txt": "\n".join(report) + "\n",
            "figs/fit.json": json.dumps(fit, indent=2) + "\n"}


def _nudge(text, rng):
    """text with some of its fractional numbers moved by one ulp, at least one."""
    tokens = [m for m in gate._NUMBER.finditer(text) if "." in m.group()]
    chosen = set(rng.sample(range(len(tokens)), k=max(1, len(tokens) // 3)))
    out, end = [], 0
    for i, m in enumerate(tokens):
        value = float(m.group())
        new = repr(math.nextafter(value, math.inf)) if i in chosen else m.group()
        out += [text[end:m.start()], new]
        end = m.end()
    return "".join(out) + text[end:]


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _entry(**bound):
    return {**bound, "changes": "a CHANGES.md line"}


def _declared_move(files, rng):
    """minimum.csv and verify.txt moved inside their bounds, and declared."""
    head = dict(files)
    head["minimum.csv"] = _nudge(files["minimum.csv"], rng)
    head["verify.txt"] = _nudge(files["verify.txt"], rng)
    return head, {"minimum.csv": _entry(abs=1e-15), "verify.txt": _entry(ulps=2)}


def _drop_row(files, rng):
    head, declared = _declared_move(files, rng)
    lines = head["minimum.csv"].splitlines(keepends=True)
    del lines[rng.randrange(1, len(lines))]
    head["minimum.csv"] = "".join(lines)
    return head, declared, {}, "lines became"


def _flip_pass(files, rng):
    head, declared = _declared_move(files, rng)
    lines = head["verify.txt"].splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines[i] = ("PASS" if lines[i].startswith("FAIL") else "FAIL") + lines[i][4:]
    head["verify.txt"] = "".join(lines)
    return head, declared, {}, "text outside its numbers"


def _empty_cell(files, rng):
    head, declared = _declared_move(files, rng)
    lines = head["minimum.csv"].splitlines(keepends=True)
    i = rng.choice([i for i, line in enumerate(lines) if ",," not in line and i > 0])
    t, _, kind = lines[i].split(",")
    lines[i] = f"{t},,{kind}"
    head["minimum.csv"] = "".join(lines)
    return head, declared, {}, "text outside its numbers"


def _over_bound(files, rng):
    head, declared = _declared_move(files, rng)
    cells = [m for m in gate._NUMBER.finditer(head["minimum.csv"]) if "." in m.group()]
    m = rng.choice(cells)
    text = head["minimum.csv"]
    head["minimum.csv"] = text[:m.start()] + repr(float(m.group()) + 1e-14) + text[m.end():]
    return head, declared, {}, "over the bound"


def _undeclared(files, rng):
    head, declared = _declared_move(files, rng)
    head["figs/fit.json"] = _nudge(files["figs/fit.json"], rng)
    return head, declared, {}, "not declared"


def _stale(files, rng):
    head, declared = _declared_move(files, rng)
    declared["figs/fit.json"] = _entry(ulps=4)
    return head, declared, {}, "stale declaration"


def _as_in_base(files, rng):
    head, declared = _declared_move(files, rng)
    return head, declared, json.loads(json.dumps(declared)), "equal to the base commit's copy"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mutate", [_drop_row, _flip_pass, _empty_cell, _over_bound,
                                    _undeclared, _stale, _as_in_base],
                         ids=lambda f: f.__name__.strip("_"))
def test_mutation_fails_the_gate(mutate, seed, tmp_path):
    rng = random.Random(seed)
    files = _outputs(rng)
    head, declared, base_declared, reason = mutate(files, rng)
    failures, _ = gate.compare(_write(tmp_path / "base", files), _write(tmp_path / "head", head),
                               declared, base_declared)
    assert any(reason in failure for failure in failures), failures


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_declared_move_inside_its_bounds_passes(seed, tmp_path):
    rng = random.Random(seed)
    files = _outputs(rng)
    head, declared = _declared_move(files, rng)
    failures, summaries = gate.compare(_write(tmp_path / "base", files),
                                       _write(tmp_path / "head", head), declared, {})
    assert failures == []
    assert [s.split(":")[0] for s in summaries] == ["minimum.csv", "verify.txt"]


def test_empty_declaration_is_diff_r(tmp_path, capsys):
    files = _outputs(random.Random(7))
    base, head = _write(tmp_path / "base", files), _write(tmp_path / "head", files)
    empty = tmp_path / "GATE_DIFF.json"
    empty.write_text("{}\n")
    missing = tmp_path / "base_GATE_DIFF.json"
    assert gate.main([str(base), str(head), str(empty), str(missing)]) == 0
    # one changed byte, or one file more, fails
    (head / "verify.txt").write_text(files["verify.txt"].replace("PASS", "PASS ", 1))
    assert gate.main([str(base), str(head), str(empty), str(missing)]) == 1
    (head / "verify.txt").write_text(files["verify.txt"])
    (head / "extra.txt").write_text("")
    assert gate.main([str(base), str(head), str(empty), str(missing)]) == 1
    assert "extra.txt: only in head" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"verify.txt": {"ulps": 2}}',
                                  '{"verify.txt": {"abs": 0, "changes": "x"}}',
                                  '{"verify.txt": {"abs": 1e-15, "ulps": 2, "changes": "x"}}',
                                  '{"verify.txt": {"ulps": 2, "changes": ""}}', "[]"])
def test_malformed_declaration_exits_2(text, tmp_path):
    path = tmp_path / "GATE_DIFF.json"
    path.write_text(text)
    assert gate.main([str(tmp_path), str(tmp_path), str(path), str(tmp_path / "none")]) == 2


def test_committed_declaration_names_changes_lines():
    declared = gate.load_declaration(ROOT / "GATE_DIFF.json")
    lines = (ROOT / "CHANGES.md").read_text().splitlines()
    for name, entry in declared.items():
        assert any(entry["changes"] in line for line in lines), name
