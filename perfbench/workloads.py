"""Workload inputs and output checks.

A workload turns (seed, pass index) into a list of ops, each one
`hardyframes` CLI call, and checks their outputs against mathematical
identities rather than golden bytes, so a refactor that moves last ulps
still passes.  An op is one suite (batteries) or one subcommand call
(diagnostics); `check` returns a failure reason per op, None when it held.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

PROPOSITIONS = (
    "P1",
    "P2",
    "P3",
    "P4i",
    "P4ii",
    "Ex_constant",
    "Ex_half_shift",
    "Ex_3_1",
    "P6",
)
# P6 reports its sufficiency direction as tension, not a decision.
EXPECTED_VERDICTS = {p: ("inconclusive" if p == "P6" else "consistent") for p in PROPOSITIONS}

SUBCOMMANDS = ("orbit", "frame-bounds", "gram", "innerness", "cyclicity")

HERMITIAN_REL = 1e-12
TRACE_REL = 1e-10
SIGMA_B_REL = 1e-8


def _cplx(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _config(symbol: dict, seed_coeffs, n: int, k: int, m: int) -> dict:
    """Config file body in the layout `hardyframes` reads."""
    return {
        "symbol": symbol,
        "seed_coeffs": [_cplx(c) for c in seed_coeffs],
        "truncation_order": n,
        "orbit_length": k,
        "boundary_grid": m,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10, "eig_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- batteries ----------------------------------------------------------------


class Battery:
    """`hardyframes report-all`, all nine suites, in one call.

    The suites fix their own (symbol, seed) experiments, so the workload
    seed changes no input here; it is recorded for provenance only.
    """

    same_inputs = True  # every pass runs the same inputs

    def __init__(self, name: str, n: int | None):
        self.name = name
        self.n = n  # None: the built-in defaults (N = K = 64, M = 512)

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.config_dir = None
        if self.n is not None:
            self.config_dir = work / "configs"
            self.config_dir.mkdir(parents=True, exist_ok=True)
            body = _config({"kind": "monomial", "power": 1}, [1.0], self.n, self.n, 8 * self.n)
            for prop in PROPOSITIONS:
                _write_json(self.config_dir / f"{prop}.json", body)

    def ops(self, pass_index: int) -> list[dict]:
        out = self.work / "reports"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["report-all", "--out-dir", str(out)]
        if self.config_dir is not None:
            argv += ["--config-dir", str(self.config_dir)]
        return [{"argv": argv, "names": list(PROPOSITIONS), "out": str(out)}]

    def load(self, results: list[dict]) -> dict:
        """Parsed outputs of one pass; a missing or broken file is None."""
        (res,) = results
        out = Path(res["op"]["out"])
        data = {"rc": res["rc"], "error": res["error"], "index": None, "reports": {}}
        try:
            data["index"] = _read_json(out / "index.json")
        except (OSError, ValueError):
            pass
        for prop in PROPOSITIONS:
            try:
                data["reports"][prop] = _read_json(out / f"{prop}.json")
            except (OSError, ValueError):
                data["reports"][prop] = None
        return data

    def check(self, data: dict) -> dict:
        n = 64 if self.n is None else self.n
        if data["error"] is not None or data["rc"] is None:
            return {p: "raised" for p in PROPOSITIONS}
        index = data["index"] or {}
        verdicts = index.get("verdicts", {})
        out = {}
        for prop in PROPOSITIONS:
            rep = data["reports"][prop]
            want = EXPECTED_VERDICTS[prop]
            if rep is None:
                out[prop] = "report missing or unparsable"
            elif rep.get("proposition") != prop:
                out[prop] = f"report names {rep.get('proposition')!r}"
            elif rep.get("verdict") != want:
                out[prop] = f"verdict {rep.get('verdict')!r}, expected {want!r}"
            elif verdicts.get(prop) != want:
                out[prop] = f"index verdict {verdicts.get(prop)!r}, expected {want!r}"
            elif (rep["parameters"].get("N"), rep["parameters"].get("K")) != (n, n):
                out[prop] = f"parameters N, K = {rep['parameters'].get('N')}, {rep['parameters'].get('K')}"
            else:
                out[prop] = None
        # A wrong exit code or index with every suite right fails them all;
        # otherwise the failed suites already account for it.
        if not any(out.values()) and (
            data["rc"] != 0 or index.get("exit_code") != 0 or index.get("n_reports") != len(PROPOSITIONS)
        ):
            out = {p: f"exit code {data['rc']} or index wrong" for p in PROPOSITIONS}
        return out

    def corruptions(self, data: dict):
        """A flipped verdict must be caught."""
        reports = dict(data["reports"], P6=dict(data["reports"]["P6"], verdict="consistent"))
        yield "flipped P6 verdict", dict(data, reports=reports)


# -- diagnostics --------------------------------------------------------------


class Diagnostics:
    """Five subcommands on two configs drawn fresh from the seed each pass.

    Dense: a Blaschke product (1-2 zeros, |a| <= 0.6) with a random seed
    polynomial of degree <= 3; its orbit fills all N+1 coefficients, so
    `mul` takes the FFT path and the orbit is truncated.  Sparse: z^m,
    m in {1, 2, 3}, which takes the exact direct convolution and, for
    m >= 2, the rank-deficient witness path of `cyclicity`.
    """

    same_inputs = False

    def __init__(self, name: str, n: int):
        self.name = name
        self.n = n

    def prepare(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed

    def configs(self, pass_index: int) -> dict:
        rng = np.random.default_rng([self.seed, pass_index])

        def seed_poly():
            deg = int(rng.integers(0, 4))
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            c[0] += 0.5 if c[0].real >= 0 else -0.5  # keep f(0) away from 0
            return list(c)

        count = int(rng.integers(1, 3))
        radii = rng.uniform(0.1, 0.6, size=count)
        zeros = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=count))
        dense = {"kind": "blaschke", "zeros": [_cplx(a) for a in zeros], "prefactor": _cplx(1.0)}
        sparse = {"kind": "monomial", "power": int(rng.integers(1, 4))}
        n = self.n
        return {
            "dense": _config(dense, seed_poly(), n, n, 8 * n),
            "sparse": _config(sparse, seed_poly(), n, n, 8 * n),
        }

    def ops(self, pass_index: int) -> list[dict]:
        out = self.work / "outputs"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        ops = []
        for label, body in self.configs(pass_index).items():
            cfg = out / f"{label}.json"
            _write_json(cfg, body)
            for sub in SUBCOMMANDS:
                dest = out / f"{label}-{sub}.json"
                ops.append(
                    {
                        "argv": [sub, "--config", str(cfg), "--out", str(dest)],
                        "names": [f"{label}/{sub}"],
                        "out": str(dest),
                    }
                )
        return ops

    def load(self, results: list[dict]) -> dict:
        data = {}
        for res in results:
            (name,) = res["op"]["names"]
            entry = {"rc": res["rc"], "error": res["error"], "out": None}
            try:
                entry["out"] = _read_json(Path(res["op"]["out"]))
            except (OSError, ValueError):
                pass
            data[name] = entry
        return data

    def check(self, data: dict) -> dict:
        n = self.n
        out = {}
        for label in ("dense", "sparse"):
            got = {}
            for sub in SUBCOMMANDS:
                e = data[f"{label}/{sub}"]
                if e["error"] is not None:
                    got[sub] = "raised"
                elif e["rc"] != 0:
                    got[sub] = f"exit code {e['rc']}"
                elif not isinstance(e["out"], dict):
                    got[sub] = "output missing or unparsable"
            res = {sub: data[f"{label}/{sub}"]["out"] for sub in SUBCOMMANDS}

            def run(sub, fn, *needs):
                if sub in got:
                    return
                if any(got.get(d) is not None for d in needs):
                    got[sub] = f"depends on a failed {'/'.join(needs)}"
                    return
                try:
                    got[sub] = fn()
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    got[sub] = f"malformed output: {exc!r}"

            norms = []

            def orbit():
                o = res["orbit"]
                if (o["N"], o["K"], len(o["rows"])) != (n, n, n + 1):
                    return "N, K or row count wrong"
                norms.extend(float(r["norm"]) for r in o["rows"])
                if not all(math.isfinite(x) and x >= 0.0 for x in norms):
                    return "norms not finite and nonnegative"
                return None

            def bounds():
                b = res["frame-bounds"]
                if (b["N"], b["K"]) != (n, n):
                    return "N, K wrong"
                if not 0.0 <= b["A_est"] <= b["B_est"]:
                    return f"A_est {b['A_est']} B_est {b['B_est']} not ordered"
                return None

            def gram():
                g = res["gram"]
                if g["K"] != n or len(g["entries"]) != n + 1:
                    return "K or size wrong"
                mat = np.array([[complex(z["re"], z["im"]) for z in row] for row in g["entries"]])
                scale = float(np.max(np.abs(mat)))
                if float(np.max(np.abs(mat - mat.conj().T))) > HERMITIAN_REL * scale:
                    return "not Hermitian"
                tr = float(np.trace(mat).real)
                want = math.fsum(x * x for x in norms)
                if _rel(tr, want) > TRACE_REL:
                    return f"trace {tr!r} != sum of squared orbit norms {want!r}"
                return None

            def innerness():
                i = res["innerness"]
                if i["verdict"] != "inner":
                    return f"verdict {i['verdict']!r}, expected 'inner'"
                if (i["N"], i["M"]) != (n, 8 * n):
                    return "N, M wrong"
                return None

            def cyclicity():
                c = res["cyclicity"]
                s = c["singular_values"]
                if (c["N"], c["K"]) != (n, n):
                    return "N, K wrong"
                if c["rank"] + c["span_dimension_deficit"] != n + 1:
                    return "rank + deficit != N + 1"
                if c["rank"] > sum(1 for x in norms if x > 0.0):
                    return "rank exceeds the number of nonzero orbit elements"
                b = res["frame-bounds"]["B_est"]
                if _rel(float(s[0]) ** 2, b) > SIGMA_B_REL:
                    return f"sigma_max^2 {float(s[0]) ** 2!r} != B_est {b!r}"
                return None

            run("orbit", orbit)
            run("frame-bounds", bounds)
            run("gram", gram, "orbit")
            run("innerness", innerness)
            run("cyclicity", cyclicity, "orbit", "frame-bounds")
            out.update({f"{label}/{sub}": got[sub] for sub in SUBCOMMANDS})
        return out

    def corruptions(self, data: dict):
        """A B_est off by 1e-6 and a flipped verdict must both be caught."""
        yield "B_est scaled by 1 + 1e-6", _with(
            data, "dense/frame-bounds", B_est=data["dense/frame-bounds"]["out"]["B_est"] * (1.0 + 1e-6)
        )
        yield "flipped innerness verdict", _with(data, "sparse/innerness", verdict="non_inner")


def _with(data: dict, op: str, **fields) -> dict:
    """Copy of the pass outputs with fields of one op's output replaced."""
    entry = dict(data[op], out=dict(data[op]["out"], **fields))
    return dict(data, **{op: entry})


WORKLOADS = {
    "battery-64": lambda: Battery("battery-64", None),
    "battery-256": lambda: Battery("battery-256", 256),
    "diagnostics-512": lambda: Diagnostics("diagnostics-512", 512),
}
