"""Write every CLI output for a fixed, seeded set of configs.

    python scripts/cli_outputs.py OUT_DIR

The configs (Blaschke products with real or complex zeros, monomials and
polynomials, N = K from 16 to 300) are drawn from a fixed seed; two fixed
Blaschke configs add K > N and K < N, a complex constant and a complex
c*z add orbits of scaled shifts at N = K = 64 and 300, and z^2 at N = 64,
K = 200 adds an orbit whose rows are mostly exactly zero, and a Blaschke
product with two positive real zeros adds a real orbit (real seed,
N = K = 300) and a complex orbit of a real symbol (complex seed,
N = K = 128), and four dense Blaschke products at N = 100 and 128 add
orbits built in blocks, at K = 1, 72, 75 and 300, and a dense polynomial
that exceeds 1 on the circle adds direct rows at N = 100, K = 300, and
(0.3+0.4i) z and a complex constant from seed 1 and z^3 from seed z add,
at N = K = 128, orbits whose nonzero pattern gives the spectrum, and
a zero seed adds an all-zero orbit at N = K = 16.  Last come one-term
symbols at their edges: a unimodular constant from seed 1 - z at
N = K = 64, z^20 at N = K = 8 (its term lies past N), the zero
symbol as 0*z and as the constant 0 at N = K = 16, and z^(10^8) at
N = K = 8, M = 64 (exact on the grid); then z^12 written as a polynomial
at N = K = 8, M = 64, read on the circle past its order, and a complex
constant from a fixed 40-term complex seed at N = K = 300.  All are
written to OUT_DIR/configs.  Each one then goes through `orbit`, `frame-bounds`
and `gram` as JSON and CSV and through `innerness` and `cyclicity` as
JSON, and `innerness` runs again on each entry of INNERNESS_TRUNCATIONS
(the two-zero Blaschke config at N = 30 and z^12 written as a polynomial
at N = 8) at a smaller `--truncation` and the same M, with no RNG draw;
exit_codes.txt records whether the two reports differ only in `N`, since
no expansion order enters a boundary number.
`report-all` runs once with its defaults, then once per resolution in
BATTERY_RESOLUTIONS through `--config-dir`, every suite at that (N, K),
and `verify` runs once per entry of VERIFY_RESOLUTIONS.  Last,
`innerness` runs once with a boundary grid of 2^40 points, which the
config check refuses before anything is allocated.
Exit codes, and the stderr of any call that fails, go to
OUT_DIR/exit_codes.txt.

The CLI is whichever `hardyframes` is importable, so two runs make a
byte-identity check between two source trees:

    PYTHONPATH=OLD/src python scripts/cli_outputs.py /tmp/out-old
    PYTHONPATH=src python scripts/cli_outputs.py /tmp/out-new
    diff -r /tmp/out-old /tmp/out-new

Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

SEED = 20260418
SIZES = (16, 64, 128, 300)
COMMANDS = (
    ("orbit", ("json", "csv")),
    ("frame-bounds", ("json", "csv")),
    ("gram", ("json", "csv")),
    ("innerness", ("json",)),
    ("cyclicity", ("json",)),
)
# (N, K) of the extra report-all runs: coarse N = K, then K > N and K < N,
# then a short orbit (K + 1 = 6), whose decay and growth P1 and P4i still
# read from |phi| on the circle
BATTERY_RESOLUTIONS = ((16, 16), (32, 32), (24, 60), (60, 24), (20, 5))
# (suite, N, K) of single `verify` runs, with M = 8N: P4i at N = K = 512
# holds a growth trend whose B would overflow past K' = 511, P2 at
# N = 1 sees only f_0 and f_1 of z^3's mixed seed, which meets every
# residue class mod 3 that lies within N, P1 at (16, 3) reads a collapse
# of A that lies above the numerical-zero floor, and P1 at (40, 200)
# holds the flat B_trend of (1.25) z once K' > N
VERIFY_RESOLUTIONS = (("P4i", 512, 512), ("P2", 1, 8), ("P1", 16, 3), ("P1", 40, 200))
# (config stem, smaller N) of the second `innerness` runs, at the config's M
INNERNESS_TRUNCATIONS = (("blaschke-N30-K300", 8), ("polynomial-z12-N8", 2))


def _complex_list(values) -> list:
    return [{"re": float(z.real), "im": float(z.imag)} for z in np.atleast_1d(values)]


def configs(rng) -> dict:
    """Config bodies in the layout `hardyframes` reads, keyed by file stem."""
    out = {}
    for n in SIZES:
        radii = rng.uniform(0.1, 0.6, int(rng.integers(1, 3)))
        angles = 2 * np.pi * rng.uniform(size=radii.size)
        symbols = {
            "blaschke-complex": {
                "kind": "blaschke",
                "zeros": _complex_list(radii * np.exp(1j * angles)),
                "prefactor": _complex_list(np.exp(2j * np.pi * rng.uniform()))[0],
            },
            "blaschke-real": {
                "kind": "blaschke",
                "zeros": _complex_list(radii * np.sign(np.cos(angles))),
            },
            "monomial": {"kind": "monomial", "power": int(rng.integers(1, 4))},
            # coefficients whose moduli sum to 1 keep |phi| <= 1 on the disk
            "polynomial": {
                "kind": "polynomial",
                "coeffs": _complex_list(
                    rng.dirichlet(np.ones(3)) * np.exp(2j * np.pi * rng.uniform(size=3))
                ),
            },
        }
        for name, symbol in symbols.items():
            length = 1 + int(rng.integers(4))
            if name == "monomial" and n == SIZES[0]:
                length = n + 5  # a seed longer than N, truncated on reading
            seed = rng.standard_normal(length)
            if name != "blaschke-real":  # a real orbit: zero parts with signs
                seed = seed + 1j * rng.standard_normal(length)
            out[f"{name}-{n}"] = {
                "symbol": symbol,
                "seed_coeffs": _complex_list(seed),
                "truncation_order": n,
                "orbit_length": n,
                "boundary_grid": 8 * n,
                "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
                "output": {"format": "json", "path": None},
            }
    # K >> N: from row 246 on the squared moduli underflow although the
    # coefficients do not; K < N: a short orbit of long FFT-path rows
    for zeros, seed, n, k in (
        ([0.4 * np.exp(0.7j), -0.3 + 0.2j], [1, 0.5j, -0.25 + 0.1j], 30, 300),
        ([0.35 + 0.25j], [1, -0.5], 300, 20),
    ):
        out[f"blaschke-N{n}-K{k}"] = {
            "symbol": {"kind": "blaschke", "zeros": _complex_list(zeros)},
            "seed_coeffs": _complex_list(seed),
            "truncation_order": n,
            "orbit_length": k,
            "boundary_grid": 8 * n,
            "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
            "output": {"format": "json", "path": None},
        }
    # one nonzero Taylor coefficient c, complex with |c| <= 1: the orbit
    # rows are scaled shifts
    for n in (64, 300):
        for name, kind, value in (
            ("constant", "constant", 0.95 * np.exp(0.7j)),
            ("scaled-shift", "scaled_shift", 0.8 * np.exp(-1.1j)),
        ):
            out[f"{name}-complex-{n}"] = {
                "symbol": {"kind": kind, "value": _complex_list(value)[0]},
                "seed_coeffs": _complex_list([1, 0.5j, -0.25 + 0.1j]),
                "truncation_order": n,
                "orbit_length": n,
                "boundary_grid": 8 * n,
                "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
                "output": {"format": "json", "path": None},
            }
    # z^2 with K >> N: rows n > N/2 truncate to exactly zero
    out["monomial-2-N64-K200"] = {
        "symbol": {"kind": "monomial", "power": 2},
        "seed_coeffs": _complex_list([1, 0.5j, -0.25 + 0.1j]),
        "truncation_order": 64,
        "orbit_length": 200,
        "boundary_grid": 512,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }
    # positive real zeros: the symbol's coefficients are exactly real, so
    # a real seed takes the real FFT and the real SVD, and a complex seed
    # the complex ones
    for name, seed, n in (
        ("real-seed", [1, -0.5, 0.25], 300),
        ("complex-seed", [1, 0.5j, -0.25 + 0.1j], 128),
    ):
        out[f"blaschke-real-zeros-{name}-{n}"] = {
            "symbol": {"kind": "blaschke", "zeros": _complex_list([0.45, 0.2])},
            "seed_coeffs": _complex_list(seed),
            "truncation_order": n,
            "orbit_length": n,
            "boundary_grid": 8 * n,
            "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
            "output": {"format": "json", "path": None},
        }
    # dense Blaschke products (phi has N + 1 > 64 terms), whose rows are
    # built in blocks of b = isqrt(K // 2) by FFT: K = 1, K a multiple of
    # its b (72 = 12 * 6), K not a multiple (75 = 12 * 6 + 3) and K > N;
    # the K = 72 one is real (real zeros, real seed)
    for zeros, seed, n, k in (
        ([0.45, 0.2 + 0.1j], [1, 0.5j, -0.25 + 0.1j], 128, 1),
        ([0.45, 0.2], [1, -0.5, 0.25], 128, 72),
        ([0.45, 0.2 + 0.1j], [1, 0.5j, -0.25 + 0.1j], 128, 75),
        ([0.5 - 0.3j, -0.4], [1, 0.5j], 100, 300),
    ):
        out[f"blaschke-dense-N{n}-K{k}"] = {
            "symbol": {"kind": "blaschke", "zeros": _complex_list(zeros)},
            "seed_coeffs": _complex_list(seed),
            "truncation_order": n,
            "orbit_length": k,
            "boundary_grid": 8 * n,
            "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
            "output": {"format": "json", "path": None},
        }
    # 2 (1 + z + ... + z^99) is dense but not contractive (|phi| = 200 at
    # z = 1): its rows are direct convolutions, exact to a few eps per
    # coefficient although they grow to 3.4e186 by row 300
    out["polynomial-dense-N100-K300"] = {
        "symbol": {"kind": "polynomial", "coeffs": _complex_list([2.0] * 100)},
        "seed_coeffs": _complex_list(1.0),
        "truncation_order": 100,
        "orbit_length": 300,
        "boundary_grid": 800,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }
    # orbits whose V needs no LAPACK call for its spectrum: (0.3+0.4i) z
    # and z^3 from seed z are scaled permutations, and a complex constant
    # from seed 1 fills one column and leaves the others zero
    for name, symbol, seed in (
        ("scaled-shift-seed-one", {"kind": "scaled_shift", "value": _complex_list(0.3 + 0.4j)[0]}, [1]),
        ("constant-seed-one", {"kind": "constant", "value": _complex_list(-0.6 + 0.5j)[0]}, [1]),
        ("monomial-3-seed-z", {"kind": "monomial", "power": 3}, [0, 1]),
    ):
        out[f"{name}-128"] = {
            "symbol": symbol,
            "seed_coeffs": _complex_list(seed),
            "truncation_order": 128,
            "orbit_length": 128,
            "boundary_grid": 1024,
            "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
            "output": {"format": "json", "path": None},
        }
    # a zero seed: every row, and so both frame bounds, are exactly zero
    out["blaschke-zero-seed-16"] = {
        "symbol": {"kind": "blaschke", "zeros": _complex_list(0.5)},
        "seed_coeffs": _complex_list(0.0),
        "truncation_order": 16,
        "orbit_length": 16,
        "boundary_grid": 128,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }
    # one-term edge cases: a unimodular constant from seed 1 - z, z^20
    # whose one term lies past the order N = 8, and the zero symbol as
    # 0*z and as the constant 0
    for name, symbol, seed, n in (
        ("constant-unimodular-seed-one-minus-z-64", {"kind": "constant", "value": _complex_list(np.exp(0.3j))[0]}, [1, -1], 64),
        ("monomial-20-N8", {"kind": "monomial", "power": 20}, [1, 0.5j, -0.25 + 0.1j], 8),
        ("scaled-shift-zero-16", {"kind": "scaled_shift", "value": _complex_list(0.0)[0]}, [1, 0.5j], 16),
        ("constant-zero-16", {"kind": "constant", "value": _complex_list(0.0)[0]}, [1, 0.5j], 16),
    ):
        out[name] = {
            "symbol": symbol,
            "seed_coeffs": _complex_list(seed),
            "truncation_order": n,
            "orbit_length": n,
            "boundary_grid": 8 * n,
            "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
            "output": {"format": "json", "path": None},
        }
    # z^(10^8): z_j^m is the grid point m j mod M, where numpy's z**m is
    # off the circle by 6.8e-9
    out["monomial-huge-power"] = {
        "symbol": {"kind": "monomial", "power": 10**8},
        "seed_coeffs": _complex_list([1, 0.5j, -0.25 + 0.1j]),
        "truncation_order": 8,
        "orbit_length": 8,
        "boundary_grid": 64,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }
    # z^12 as a polynomial: its expansion cut to order 8 is 0, while |phi|
    # on T reads all 13 coefficients and is 1
    out["polynomial-z12-N8"] = {
        "symbol": {"kind": "polynomial", "coeffs": _complex_list([0] * 12 + [1])},
        "seed_coeffs": _complex_list([1, 0.5j, -0.25 + 0.1j]),
        "truncation_order": 8,
        "orbit_length": 8,
        "boundary_grid": 64,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }
    # a complex constant from a fixed 40-term complex seed: 40 chains of
    # (ax - by) + i(ay + bx), none leaving the rows, at N = K = 300
    out["constant-complex-seed40-300"] = {
        "symbol": {"kind": "constant", "value": _complex_list(0.95 * np.exp(0.7j))[0]},
        "seed_coeffs": _complex_list(np.exp(1j * np.arange(40)) / np.arange(1, 41)),
        "truncation_order": 300,
        "orbit_length": 300,
        "boundary_grid": 2400,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }
    return out


def battery_config(n: int, k: int) -> dict:
    """The built-in default config of `report-all` at (N, K)."""
    return {
        "symbol": {"kind": "monomial", "power": 1},
        "seed_coeffs": _complex_list(1.0),
        "truncation_order": n,
        "orbit_length": k,
        "boundary_grid": 512,
        "tolerances": {"inner_tol": 1e-9, "rank_tol": 1e-10},
        "output": {"format": "json", "path": None},
    }


def _run(cli_main, argv: list, stdout=None) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(stdout or io.StringIO()):
            code = cli_main(argv)
    return code, err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args(argv)
    try:
        from hardyframes.cli import main as cli_main
        from hardyframes.verify import PROPOSITIONS
    except ImportError:
        print("hardyframes is not importable; set PYTHONPATH=<tree>/src", file=sys.stderr)
        return 2

    config_dir = args.out_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    log = []
    for stem, body in configs(np.random.default_rng(SEED)).items():
        path = config_dir / f"{stem}.json"
        path.write_text(json.dumps(body, indent=2, sort_keys=True), encoding="utf-8")
        for command, formats in COMMANDS:
            for fmt in formats:
                out = args.out_dir / f"{stem}.{command}.{fmt}"
                code, err = _run(
                    cli_main,
                    [command, "--config", str(path), "--format", fmt, "--out", str(out)],
                )
                log.append(f"{out.name} {code}" + (f" {err.strip()}" if code else ""))
    for stem, n in INNERNESS_TRUNCATIONS:
        out = args.out_dir / f"{stem}.innerness-N{n}.json"
        argv = ["innerness", "--config", str(config_dir / f"{stem}.json"),
                "--truncation", str(n), "--out", str(out)]
        code, err = _run(cli_main, argv)
        if code:
            log.append(f"{out.name} {code} {err.strip()}")
            continue
        reports = [json.loads(path.read_text(encoding="utf-8"))
                   for path in (args.out_dir / f"{stem}.innerness.json", out)]
        for report in reports:
            del report["N"]
        log.append(f"{out.name} {code} differs only in N: {reports[0] == reports[1]}")

    batteries = {"report-all": []}
    for n, k in BATTERY_RESOLUTIONS:
        name = f"report-all-N{n}-K{k}"
        battery_dir = config_dir / name
        battery_dir.mkdir(exist_ok=True)
        for prop in PROPOSITIONS:
            body = json.dumps(battery_config(n, k), indent=2, sort_keys=True)
            (battery_dir / f"{prop}.json").write_text(body, encoding="utf-8")
        batteries[name] = ["--config-dir", str(battery_dir)]
    for name, options in batteries.items():
        index = io.StringIO()
        argv = ["report-all", "--out-dir", str(args.out_dir / name), *options]
        code, err = _run(cli_main, argv, index)
        (args.out_dir / f"{name}.stdout").write_text(index.getvalue(), encoding="utf-8")
        log.append(f"{name} {code}" + (f" {err.strip()}" if err.strip() else ""))
    for prop, n, k in VERIFY_RESOLUTIONS:
        out = args.out_dir / f"verify-{prop}-N{n}-K{k}.json"
        code, err = _run(cli_main, [
            "verify", prop, "--truncation", str(n), "--orbit-len", str(k),
            "--grid", str(8 * n), "--out", str(out),
        ])
        log.append(f"{out.name} {code}" + (f" {err.strip()}" if err.strip() else ""))
    argv = ["innerness", "--config", str(config_dir / "monomial-16.json"), "--grid", str(2**40)]
    code, err = _run(cli_main, argv)
    log.append(f"innerness-grid-{2**40} {code}" + (f" {err.strip()}" if code else ""))
    (args.out_dir / "exit_codes.txt").write_text("\n".join(log) + "\n", encoding="utf-8")
    print(f"{len(log)} calls written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
