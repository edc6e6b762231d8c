import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_diff.py"


def run_diff(root: Path, old: dict, new: dict):
    for side, files in (("old", old), ("new", new)):
        d = root / side
        d.mkdir(parents=True)
        for name, obj in files.items():
            (d / name).write_text(json.dumps(obj), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(root / "old"), str(root / "new")],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_value_changes_are_listed_with_relative_change(tmp_path):
    old = {"P1.json": {"verdict": "consistent", "B": [2.0, 1.0], "x": 0, "tol": 1e-10}}
    new = {"P1.json": {"verdict": "consistent", "B": [2.0, 1.5], "x": 0.0}}
    code, out = run_diff(tmp_path, old, new)
    assert code == 0
    assert out.splitlines() == [
        "P1.json: B[1]: 1.0 -> 1.5 (rel 0.33)",
        "P1.json: tol: removed 1e-10",
        "P1.json: x: 0 -> 0.0",
    ]


def test_verdict_change_exits_1(tmp_path):
    code, out = run_diff(
        tmp_path, {"P6.json": {"verdict": "inconclusive"}}, {"P6.json": {"verdict": "inconsistent"}}
    )
    assert code == 1
    assert out.startswith("!! P6.json: verdict:")


def test_index_change_exits_1(tmp_path):
    code, _ = run_diff(tmp_path, {"index.json": {"n_reports": 9}}, {"index.json": {"n_reports": 8}})
    assert code == 1
