"""Run the benchmark on two source trees in alternating pairs and record
both sides in one BENCH file.

    python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload W --seed S --pairs P --out BENCH_<n>.json

Each tree runs its own `perfbench/run.py --workload W --seed S --seconds T
--trace 0` from its own root, so each side measures its own `src/`.  T is
`run_seconds` from the parent tree's BENCHMARK.json, the same on both
sides.  Pair i runs the parent first when i is even and the change first
when i is odd.

The record for (W, S) goes under `runs["W/seedS"]` of the output file;
records of other workloads and seeds already in the file are kept.  For
each end-to-end metric of BENCHMARK.json it holds each side's values,
median and quartiles, the number of pairs the change wins (ties count
for neither side), whether the gain rule holds (the change wins at least
9 of 10 pairs and the medians differ by more than the parent's
interquartile range), and whether the change's median stays within the
metric's bound.  It also holds the git SHA, the dirty flag and a hash of
`src/hardyframes/*.py` of each tree, and the BLAS build, the thread
environment and the host of each side's first run, as perfbench records
them.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GAIN_WIN_SHARE = 0.9


def _git(tree: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def tree_identity(tree: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "hardyframes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    status = _git(tree, "status", "--porcelain")
    return {
        "tree": tree.name,
        "git_sha": _git(tree, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its metrics, failure count and provenance."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench exited {proc.returncode}: {proc.stderr.strip()}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = tree / "perfbench" / "out" / "results" / f"{workload}-seed{seed}-trace0.json"
    with open(record_path, encoding="utf-8") as fh:
        provenance = json.load(fh)["provenance"]
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "attempted": last["attempted"],
        "failed": last["failed"],
        "provenance": provenance,
    }


def _spread(values: list) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)  # as perfbench/README.md
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def summarize(spec: dict, parent: list, change: list) -> dict:
    """Paired comparison of one metric; `spec` is its BENCHMARK.json entry."""
    lower = spec["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    ps, cs = _spread(parent), _spread(change)
    gap = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
    worse = -gap / abs(ps["median"]) if ps["median"] else (0.0 if gap >= 0 else float("inf"))
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": ps,
        "change": cs,
        "pairs": len(parent),
        "change_wins": wins,
        "parent_wins": losses,
        "improvement": gap,
        "parent_iqr": ps["q3"] - ps["q1"],
        "gain_rule_met": wins >= GAIN_WIN_SHARE * len(parent) and gap > ps["q3"] - ps["q1"],
        "relative_worsening": worse,
        "within_bound": worse <= spec["bound"],
    }


def run_pairs(parent: Path, change: Path, workload: str, seed: int, pairs: int) -> dict:
    with open(parent / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    trees = dict(zip(SIDES, (parent, change)))
    results = {side: [] for side in SIDES}
    order = []
    for i in range(pairs):
        first = SIDES if i % 2 == 0 else SIDES[::-1]
        order.append(first[0])
        for side in first:
            res = run_once(trees[side], workload, seed, seconds)
            results[side].append(res)
            shown = ", ".join(f"{k}={v:.6g}" for k, v in res["metrics"].items())
            print(f"pair {i + 1}/{pairs} {side}: {shown}", file=sys.stderr, flush=True)
    metrics = {
        spec["name"]: summarize(
            spec,
            [r["metrics"][spec["name"]] for r in results["parent"]],
            [r["metrics"][spec["name"]] for r in results["change"]],
        )
        for spec in bench["end_to_end"]
    }
    sides = {}
    for side in SIDES:
        prov = dict(results[side][0]["provenance"])
        for key in ("git_sha", "git_dirty", "seed", "host_probe_s"):
            prov.pop(key, None)
        sides[side] = {
            **tree_identity(trees[side]),
            "provenance": prov,
            "attempted": sum(r["attempted"] for r in results[side]),
            "failed": sum(r["failed"] for r in results[side]),
        }
    return {
        "workload": workload,
        "seed": seed,
        "protocol": {
            "pairs": pairs,
            "seconds": seconds,
            "trace": 0,
            "first_in_pair": order,
            "command": bench["command"],
        },
        "sides": sides,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    record = run_pairs(args.parent_tree.resolve(), args.change_tree.resolve(),
                       args.workload, args.seed, args.pairs)
    doc = {"runs": {}}
    if args.out.exists():
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["runs"][f"{args.workload}/seed{args.seed}"] = record
    doc["runs"] = dict(sorted(doc["runs"].items()))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for name, m in record["metrics"].items():
        print(f"{args.workload} seed {args.seed} {name}: "
              f"{m['parent']['median']:.6g} -> {m['change']['median']:.6g} {m['unit']}, "
              f"change wins {m['change_wins']}/{m['pairs']}, parent IQR {m['parent_iqr']:.3g}, "
              f"gain rule {'met' if m['gain_rule_met'] else 'not met'}, "
              f"{'within' if m['within_bound'] else 'OUTSIDE'} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
