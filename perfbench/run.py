"""Benchmark of the hardyframes CLI, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is battery-64, battery-256 or diagnostics-512 (see workloads.py).
Run from the root of a source checkout: the program is imported from
./src, so nothing needs installing.  The load is a closed loop with one
client: every CLI call runs in a fresh interpreter (perfbench/child.py),
one at a time, with OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1, and passes
are repeated until the next one would end after S seconds.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes on identical inputs and reports per-layer metrics from
the spans (tracing.py) plus the tracing overhead.  Every output is
checked (workloads.py); the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A fuller record,
provenance included, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import aggregate
from workloads import PROPOSITIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

CHILD_TIMEOUT_S = 120.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_MIN_BEYOND = 10
# Set-up samples per second of run: a pass with few CLI calls is topped
# up with import-only launches, so set-up time is a median of many.
SETUP_RATE = 0.5

# name -> stats reported from the traced passes, in BENCHMARK.json order
PER_LAYER = {
    "series.inner_product": ("calls", "self_s"),
    "series.mul": ("calls", "self_s"),
    "series.norm_sq": ("calls", "self_s"),
    "symbols.realize": ("calls", "self_s"),
    "symbols.evaluate_symbol": ("self_s",),
    "symbols.innerness_test": ("busy_s",),
    "orbits.orbit": ("calls", "unique", "busy_s", "self_s"),
    "orbits.decay_profile": ("self_s",),
    "frames.frame_section": ("calls", "self_s", "flops"),
    "frames.frame_bounds_estimate": ("calls", "self_s"),
    "frames.partial_frame_sums": ("calls", "busy_s"),
    "frames.gram": ("calls", "busy_s", "self_s"),
    "diagnostics.cyclicity_rank": ("calls", "busy_s", "self_s"),
    "diagnostics.image_circle_intersection": ("self_s",),
    "diagnostics.kernel_orthogonality_witness": ("self_s",),
    "diagnostics.zeros_in_disk": ("self_s",),
    **{f"verify.{p}": ("busy_s",) for p in PROPOSITIONS},
    "jsonio.dumps_canonical": ("calls", "self_s", "bytes"),
    "config.load_config": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}
UNITS = {"calls": "count", "unique": "count", "busy_s": "s", "self_s": "s", "flops": "flop", "bytes": "B"}
# Counts that must repeat exactly for identical inputs.
EXACT = ("calls", "unique", "flops", "bytes")


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(THREAD_ENV, PYTHONHASHSEED="0")
    return env


def run_child(argv, trace: bool, tag: str) -> dict:
    """One CLI call in a fresh interpreter; times are on CLOCK_MONOTONIC."""
    result_path = OUT / "work" / f"child-{tag}.json"
    result_path.unlink(missing_ok=True)
    job = {"src": str(SRC), "argv": argv, "trace": trace, "result": str(result_path)}
    t_launch = _now()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=_child_env(),
        cwd=ROOT,
    )
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S} s: {argv}")
    if proc.returncode == 0 and result_path.exists():
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    else:  # the interpreter itself died: the call failed
        t = _now()
        tail = err.decode(errors="replace")[-2000:]
        res = {"rc": None, "error": f"child exit {proc.returncode}: {tail}",
               "t_first": t_launch, "t_end": t, "cpu_s": 0.0, "maxrss_kb": 0, "trace": None, "package": None}
    res["t_launch"] = t_launch
    return res


def _merge(into: dict, stats: dict) -> None:
    for name, st in stats.items():
        cur = into.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key in ("calls", "busy_s", "self_s"):
            cur[key] += st[key]
        if "extra" in st:
            cur["extra"] = cur.get("extra", 0) + st["extra"]
        if "keys" in st:
            cur.setdefault("keys", set()).update(st["keys"])


def run_pass(wl, index: int, trace: bool) -> dict:
    """All ops of one pass, one child each, then the output checks."""
    results = []
    layers: dict = {}
    for j, op in enumerate(wl.ops(index)):
        res = run_child(op["argv"], trace, f"{index}-{j}")
        res["op"] = op
        if res["trace"] is not None:
            _merge(layers, aggregate(res.pop("trace")))
        results.append(res)
    data = wl.load(results)
    failures = wl.check(data)
    return {
        "index": index,
        "traced": trace,
        "pass_s": sum(r["t_end"] - r["t_first"] for r in results),
        "wall_s": sum(r["t_end"] - r["t_launch"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        # a child that died before importing the package has no set-up time
        "setup_s": [r["t_first"] - r["t_launch"] for r in results if r["package"] is not None],
        "rss_kb": max(r["maxrss_kb"] for r in results),
        "failures": {k: v for k, v in failures.items() if v is not None},
        "ops": len(failures),
        "layers": layers,
        "data": data,
    }


def tail(values: list) -> tuple:
    """(percentile, value, passes beyond): the highest of TAIL_PERCENTILES
    with at least TAIL_MIN_BEYOND passes beyond it (nearest rank).  With
    too few passes for any, the maximum, marked as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 100, xs[-1], 0


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop: a gauge of host speed."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def provenance(seed: int) -> dict:
    info = {"seed": seed, "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
            dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                   text=True, check=True).stdout.strip()
            info.update(git_sha=sha, git_dirty=bool(dirty))
        except (OSError, subprocess.CalledProcessError):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info.update(
        python=platform.python_version(),
        numpy=np.__version__,
        blas={"name": blas.get("name"), "version": blas.get("version")},
        thread_env=THREAD_ENV,
        nproc=len(os.sched_getaffinity(0)),
        cpu_model=cpu_model,
    )
    return info


def _preflight() -> None:
    if not (SRC / "hardyframes" / "cli.py").is_file():
        raise BenchError(f"no hardyframes sources under {SRC}; run from a source checkout")
    # Compiles the bytecode and checks where the package comes from.
    res = run_child(None, False, "warmup")
    pkg = res.get("package")
    if res["rc"] != 0 or pkg is None or not Path(pkg).resolve().is_relative_to(SRC):
        raise BenchError(f"hardyframes did not import from {SRC}: {res.get('error') or pkg}")


def _self_test(wl, data: dict) -> list:
    """Corrupted copies of a clean pass's outputs must fail the checks."""
    caught = []
    for what, bad in wl.corruptions(data):
        if not any(v is not None for v in wl.check(bad).values()):
            raise BenchError(f"self-test: the checks missed a corruption ({what})")
        caught.append(what)
    return caught


def _measure(wl, seconds: float, trace: bool) -> tuple:
    """Passes until the next would end after `seconds`; with trace, each
    untraced pass is followed by a traced pass on the same inputs.  The
    first clean pass also feeds the self-test.  Import-only launches
    after a pass keep the set-up samples at SETUP_RATE per second."""
    passes = []
    walls = []
    caught = None
    start = _now()
    index = 0
    while True:
        t = _now()
        batch = [run_pass(wl, index, False)]
        if trace:
            batch.append(run_pass(wl, index, True))
        for p in batch:
            if caught is None and not p["failures"]:
                caught = _self_test(wl, p["data"])
            p["data"] = None
        passes += batch
        have = sum(len(p["setup_s"]) for p in passes if not p["traced"])
        while not trace and have < SETUP_RATE * (_now() - start):
            res = run_child(None, False, "setup")
            if res["package"] is None:
                raise BenchError(f"import-only launch failed: {res['error']}")
            batch[0]["setup_s"].append(res["t_first"] - res["t_launch"])
            have += 1
        walls.append(_now() - t)
        index += 1
        if _now() - start + statistics.median(walls) > seconds:
            return passes, caught or []


def _layer_metrics(wl, traced: list, untraced: list) -> dict:
    first = traced[0]["layers"]
    if wl.same_inputs:
        for p in traced[1:]:
            for name, stats in PER_LAYER.items():
                for stat in stats:
                    if stat in EXACT and _layer_stat(p["layers"], name, stat) != _layer_stat(first, name, stat):
                        raise BenchError(f"{name}.{stat} differs between identical passes")
    metrics = {}
    for name, stats in PER_LAYER.items():
        for stat in stats:
            if stat in EXACT:
                value = _layer_stat(first, name, stat)
            else:
                value = statistics.median(_layer_stat(p["layers"], name, stat) for p in traced)
            metrics[f"{name}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    overhead = statistics.median(p["pass_s"] for p in traced) - statistics.median(p["pass_s"] for p in untraced)
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def _layer_stat(layers: dict, name: str, stat: str):
    st = layers.get(name)
    if st is None:
        return 0 if stat in EXACT else 0.0
    if stat == "unique":
        return len(st.get("keys", ()))
    if stat in ("flops", "bytes"):
        return st.get("extra", 0)
    return st[stat]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]()
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _preflight()
    wl.prepare(work / name, seed)
    probe_before = host_probe_s()
    passes, selftest = _measure(wl, seconds, trace)
    probe_after = host_probe_s()

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    times = [p["pass_s"] for p in untraced]
    setups = [s for p in untraced for s in p["setup_s"]]
    pct, tail_value, beyond = tail(times)
    if trace:
        metrics = _layer_metrics(wl, traced, untraced)
    else:
        metrics = {
            "pass_s.p50": {"value": statistics.median(times), "unit": "s"},
            "pass_s.tail": {"value": tail_value, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["rss_kb"] for p in untraced) / 1024.0, "unit": "MB"},
            "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    samples = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setups": len(setups),
        "tail_percentile": pct,
        "tail_beyond": beyond,
    }
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": dict(provenance(seed), host_probe_s={"before": probe_before, "after": probe_after}),
        "samples": samples,
        "fail_ratio": failed / attempted,
        "self_test_caught": selftest,
        "metrics": metrics,
        "passes": [
            {k: p[k] for k in ("index", "traced", "pass_s", "wall_s", "cpu_s", "setup_s", "rss_kb", "failures")}
            for p in passes
        ],
        "layers_first_traced_pass": {
            k: {**v, "keys": len(v["keys"])} if "keys" in v else v
            for k, v in (traced[0]["layers"] if traced else {}).items()
        },
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "record": record}


def _baseline_diff(rec: dict) -> str:
    """Exact counts of this traced run against the recorded baseline."""
    path = HERE / "baseline.json"
    if not path.exists():
        return "no baseline.json"
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)
    by_seed = base["counts"].get(rec["workload"], {})
    ref = by_seed.get("*") or by_seed.get(str(rec["provenance"]["seed"]))
    if ref is None:
        return "no baseline for this seed"
    diffs = [f"{k} {v} -> {rec['metrics'][k]['value']}" for k, v in ref.items()
             if rec["metrics"][k]["value"] != v]
    return ", ".join(diffs) if diffs else f"all {len(ref)} identical to {base['commit'][:12]}"


def _summary(out: dict) -> str:
    rec = out["record"]
    s = rec["samples"]
    lines = [
        f"{rec['workload']} seed={rec['provenance']['seed']} trace={rec['trace']}: "
        f"{s['passes']} passes, {s['traced_passes']} traced, "
        f"{out['attempted']} ops attempted, {out['failed']} failed, "
        f"self-test caught: {', '.join(rec['self_test_caught']) or 'nothing (no clean pass)'}"
    ]
    notes = {
        "pass_s.p50": f"median of {s['passes']} passes",
        "pass_s.tail": (f"p{s['tail_percentile']}, {s['tail_beyond']} passes beyond, of {s['passes']}"
                        if s["tail_percentile"] < 100 else f"max of {s['passes']} passes: too few for a percentile"),
        "setup_s": f"median of {s['setups']} child launches",
        "peak_rss_mb": f"median of {s['passes']} passes' peak",
        "ok_ratio": f"fail_ratio = {rec['fail_ratio']:.6g} ({out['failed']}/{out['attempted']} ops)",
    }
    for key, m in out["metrics"].items():
        lines.append(f"  {key:<46} {m['value']:>14.6g} {m['unit']:<6} {notes.get(key, '')}")
    if rec["trace"]:
        layers = {k: v for k, v in rec["layers_first_traced_pass"].items() if not k.startswith("cli.")}
        for stat in ("self_s", "busy_s"):
            top = sorted(layers, key=lambda k: -layers[k][stat])[:5]
            lines.append(f"  largest {stat} (first traced pass, cli.* excluded): "
                         + ", ".join(f"{k} {layers[k][stat]:.3g}" for k in top))
        lines.append("  exact counts vs baseline.json: " + _baseline_diff(rec))
    for p in rec["passes"]:
        for op, why in p["failures"].items():
            lines.append(f"  FAILED pass {p['index']} {op}: {why}")
    lines.append("provenance " + json.dumps(rec["provenance"], sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        outs = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for out in outs.values():
        print(_summary(out))
    if len(outs) == 1:
        (out,) = outs.values()
        metrics = out["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, out in outs.items() for k, m in out["metrics"].items()}
    attempted = sum(o["attempted"] for o in outs.values())
    failed = sum(o["failed"] for o in outs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
