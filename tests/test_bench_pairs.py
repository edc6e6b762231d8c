import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 40,
    "end_to_end": [
        {"name": "pass_s.p50", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.01},
    ],
}

# A stand-in for perfbench/run.py: it logs its tree and arguments, and
# reports the next pass time from the tree's times.json.
FAKE_RUN = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path
    here = Path(__file__).resolve().parent
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    with open(here.parent.parent / "log.txt", "a") as fh:
        fh.write(here.parent.name + " " + " ".join(sys.argv[1:]) + "\\n")
    times = json.loads((here / "times.json").read_text())
    count = here / "count.txt"
    i = int(count.read_text()) if count.exists() else 0
    count.write_text(str(i + 1))
    out = here / "out" / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args['--workload']}-seed{args['--seed']}-trace0.json"
    prov = {"blas": {"name": "fake"}, "thread_env": {"OPENBLAS_NUM_THREADS": "1"},
            "git_sha": None, "seed": int(args["--seed"])}
    (out / name).write_text(json.dumps({"provenance": prov}))
    print("summary line")
    print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
        "pass_s.p50": {"value": times[i], "unit": "s"},
        "ok_ratio": {"value": 1.0, "unit": "ratio"}}}))
    """
)


def make_tree(root: Path, name: str, times: list) -> Path:
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "src" / "hardyframes").mkdir(parents=True)
    (tree / "src" / "hardyframes" / "mod.py").write_text(f"# {name}\n")
    (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
    (tree / "perfbench" / "times.json").write_text(json.dumps(times))
    (tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return tree


def run_pairs(root: Path, parent_times: list, change_times: list, out: Path, seed=1):
    parent = make_tree(root / f"s{seed}", "parent", parent_times)
    change = make_tree(root / f"s{seed}", "change", change_times)
    cmd = [sys.executable, str(SCRIPT), str(parent), str(change), "--workload", "w",
           "--seed", str(seed), "--pairs", str(len(parent_times)), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text()), (root / f"s{seed}" / "log.txt").read_text().splitlines()


def test_pairs_alternate_and_use_the_benchmark_run_length(tmp_path):
    doc, log = run_pairs(tmp_path, [3.0, 3.1, 3.2, 3.3], [2.0, 2.1, 2.2, 2.3], tmp_path / "B.json")
    assert [line.split()[0] for line in log] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent"
    ]
    assert all("--seconds 40 --trace 0" in line and "--seed 1" in line for line in log)
    rec = doc["runs"]["w/seed1"]
    assert rec["protocol"]["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert rec["sides"]["parent"]["provenance"] == {
        "blas": {"name": "fake"}, "thread_env": {"OPENBLAS_NUM_THREADS": "1"}
    }
    assert rec["sides"]["parent"]["src_sha256"] != rec["sides"]["change"]["src_sha256"]


def test_gain_rule_and_bounds(tmp_path):
    doc, _ = run_pairs(tmp_path, [3.0, 3.1, 3.2, 3.3], [2.0, 2.1, 2.2, 2.3], tmp_path / "B.json")
    m = doc["runs"]["w/seed1"]["metrics"]["pass_s.p50"]
    assert m["parent"]["values"] == [3.0, 3.1, 3.2, 3.3]
    assert (m["parent"]["q1"], m["parent"]["median"], m["parent"]["q3"]) == pytest.approx(
        (3.025, 3.15, 3.275)
    )
    assert m["change_wins"] == 4 and m["parent_wins"] == 0
    assert m["gain_rule_met"] and m["within_bound"]
    ok = doc["runs"]["w/seed1"]["metrics"]["ok_ratio"]
    assert ok["change_wins"] == 0 and ok["parent_wins"] == 0  # ties count for neither
    assert not ok["gain_rule_met"] and ok["within_bound"]


def test_slower_change_is_outside_bound_and_records_merge(tmp_path):
    out = tmp_path / "B.json"
    run_pairs(tmp_path, [1.0, 1.0], [2.0, 2.0], out, seed=1)
    doc, _ = run_pairs(tmp_path, [1.0, 1.2], [1.1, 1.1], out, seed=2)
    assert sorted(doc["runs"]) == ["w/seed1", "w/seed2"]
    slow = doc["runs"]["w/seed1"]["metrics"]["pass_s.p50"]
    assert slow["relative_worsening"] == 1.0 and not slow["within_bound"]
    mixed = doc["runs"]["w/seed2"]["metrics"]["pass_s.p50"]
    assert mixed["change_wins"] == 1 and mixed["parent_wins"] == 1
    assert not mixed["gain_rule_met"]
