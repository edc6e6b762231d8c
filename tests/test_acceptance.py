"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Tolerances are pinned here and never loosened; exact equalities are
asserted as float equalities.  Run standalone for the plain report:

    python tests/test_acceptance.py
"""

import json
from pathlib import Path

import numpy as np

from hardyframes.cli import main
from hardyframes.diagnostics import (
    class_support,
    cyclicity_rank,
    kernel_orthogonality_witness,
    reproducing_kernel,
)
from hardyframes.frames import frame_bounds_estimate, partial_frame_sums
from hardyframes.orbits import orbit
from hardyframes.series import BoundaryGrid, series_from_coeffs
from hardyframes.symbols import SymbolSpec, boundary_modulus, realize

GOLDEN_DIR = Path(__file__).parent / "golden"


def check(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def seed(coeffs, order):
    out = np.zeros(order + 1, dtype=complex)
    arr = np.asarray(coeffs, dtype=complex)
    out[: arr.size] = arr
    return series_from_coeffs(out)


def make_orbit(spec, seed_coeffs, k, order):
    return orbit(realize(spec, order), seed(seed_coeffs, order), k, order)


def test_criterion_1_tight_frame_reproduction():
    orb = make_orbit(SymbolSpec.monomial(1), [1], 64, 64)
    bounds = frame_bounds_estimate(orb.V)
    ok = abs(bounds.A_est - 1.0) <= 1e-10 and abs(bounds.B_est - 1.0) <= 1e-10
    rng = np.random.default_rng(101)
    probes = np.array(
        [rng.standard_normal(65) + 1j * rng.standard_normal(65) for _ in range(100)]
    )
    worst = 0.0
    for g, fs in zip(probes, partial_frame_sums(probes, orb)[-1]):
        worst = max(worst, abs(fs - np.vdot(g, g).real))
    ok = ok and worst <= 1e-10
    check(
        "criterion 1: tight frame A=B=1 and frame_sum = ||g||^2 (1e-10)",
        ok,
        f"A={bounds.A_est}, B={bounds.B_est}, worst |fs-nsq|={worst:.3g}",
    )


def test_criterion_2_constant_symbol_oracle():
    orb = make_orbit(SymbolSpec.constant(0.5), [1], 60, 8)
    fs = float(partial_frame_sums(np.ones((1, 1)), orb)[-1, 0])
    err = abs(fs - 4.0 / 3.0)
    check(
        "criterion 2: constant 1/2 frame sum = 4/3 (1e-12)",
        err < 1e-12,
        f"frame_sum={fs!r}, err={err:.3g}",
    )


def test_criterion_3_lower_bound_collapse():
    orb = make_orbit(SymbolSpec.scaled_shift(0.5), [1], 40, 40)
    # the probes z^0 .. z^32
    exact = np.array_equal(partial_frame_sums(np.eye(33, 41), orb)[-1], 4.0 ** -np.arange(33))
    worst = 0.0
    for n in (8, 12, 16):
        b = frame_bounds_estimate(make_orbit(SymbolSpec.scaled_shift(0.5), [1], n, n).V)
        worst = max(worst, abs(b.A_est - 4.0 ** -n))
    check(
        "criterion 3: half-shift frame sums 4^-k exact, A_est = 4^-N (1e-12)",
        exact and worst < 1e-12,
        f"exact={exact}, worst A error={worst:.3g}",
    )


def test_criterion_4_squared_shift_deficiency():
    rng = np.random.default_rng(104)
    even = np.zeros(13, dtype=complex)
    even[0:13:2] = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    seeds = ([1], [1, 0, 1], even)
    ok = True
    details = []
    for coeffs in seeds:
        orb = make_orbit(SymbolSpec.monomial(2), coeffs, 64, 64)
        deficit = cyclicity_rank(orb).span_dimension_deficit
        bounds = frame_bounds_estimate(orb.V)
        fs_z = partial_frame_sums(np.eye(1, 65, 1), orb)[-1, 0]  # the probe z
        ok = ok and deficit >= 31
        ok = ok and bounds.A_est < 1e-12 * bounds.B_est
        ok = ok and fs_z == 0.0
        details.append(f"deficit={deficit}")
    check(
        "criterion 4: z^2 orbits deficient, A numerically zero, frame_sum(z)=0",
        ok,
        ", ".join(details),
    )


def test_criterion_5_unimodular_divergence():
    orb = make_orbit(SymbolSpec.constant(np.exp(1j * np.pi / 7)), [1], 128, 8)
    sums = partial_frame_sums(np.ones((1, 1)), orb)[:, 0]
    ok = all(sums[k] == float(k + 1) for k in range(129))
    check(
        "criterion 5: unimodular constant partial sums = K+1 exactly, K <= 128",
        ok,
        f"final={sums[-1]!r}",
    )


def test_criterion_6_dichotomy():
    base = realize(SymbolSpec.blaschke([0.5]), 64)
    inside = SymbolSpec.polynomial(0.9 * base.series.coeffs)
    orb = make_orbit(inside, [1], 64, 64)
    envelope_ok = bool(np.all(orb.norms <= 0.9 ** np.arange(65) + 1e-12))
    grid = BoundaryGrid(512)
    decay = boundary_modulus(inside, grid)
    inside_ok = envelope_ok and decay.norm_trend == "decays_to_zero"

    growth = boundary_modulus(SymbolSpec.constant(2.0), grid)
    outside_ok = growth.norm_trend == "grows" and abs(growth.max_modulus - 2.0) <= 1e-6
    check(
        "criterion 6: contraction decays under 0.9^n envelope; constant 2 grows at rate 2",
        inside_ok and outside_ok,
        f"decay={decay.norm_trend}, growth rate={growth.max_modulus}",
    )


def test_criterion_7_kernel_witness():
    orb = make_orbit(SymbolSpec.monomial(1), [-0.5, 1], 64, 64)
    max_pairing = kernel_orthogonality_witness(orb, 0.5)
    bounds = frame_bounds_estimate(orb.V)
    ok = max_pairing < 1e-10 and bounds.A_est < 1e-12 * bounds.B_est
    check(
        "criterion 7: seed zero at 1/2 kills pairings (1e-10) and lower bound",
        ok,
        f"max_pairing={max_pairing:.3g}, A={bounds.A_est:.3g}",
    )


def test_criterion_8_example_failure_mode():
    ratios = []
    ok = True
    for n in (16, 32, 64):
        orb = make_orbit(SymbolSpec.monomial(1), [1, -1], n, n)
        g = np.ones((1, n + 1), dtype=complex)
        ratio = float(partial_frame_sums(g, orb)[-1, 0]) / np.vdot(g, g).real
        ratios.append(ratio)
        ok = ok and ratio == 1.0 / (n + 1)
    ok = ok and ratios[0] > ratios[1] > ratios[2]
    check(
        "criterion 8: seed 1-z normalized frame sum = 1/(N+1) exactly, tending to 0",
        ok,
        f"ratios={ratios}",
    )


def _suite_parseval(rng) -> int:
    # the orbit of z from seed 1 at N = K = 24 is the basis z^0..z^24
    orb = make_orbit(SymbolSpec.monomial(1), [1], 24, 24)
    probes = np.array(
        [rng.standard_normal(25) + 1j * rng.standard_normal(25) for _ in range(100)]
    )
    failures = 0
    for g, total in zip(probes, partial_frame_sums(probes, orb)[-1]):
        nsq = np.vdot(g, g).real
        if abs(total - nsq) > 1e-12 * max(1.0, nsq):
            failures += 1
    return failures


def _suite_gram_hermitian_psd(rng) -> int:
    from hardyframes.frames import gram

    failures = 0
    for _ in range(100):
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        orb = make_orbit(SymbolSpec.polynomial(0.5 * phi), f, 8, 12)
        g = gram(orb)
        if not np.array_equal(g, g.conj().T):
            failures += 1
            continue
        w = np.linalg.eigvalsh(g)
        if w[0] < -1e-10 * max(w[-1], 0.0):
            failures += 1
    return failures


def _suite_quadratic_form(rng) -> int:
    orb = make_orbit(SymbolSpec.blaschke([0.5]), [1, 1], 20, 24)
    s = orb.V.T @ orb.V.conj()  # the frame operator on span{z^0..z^N}
    probes = np.array(
        [rng.standard_normal(25) + 1j * rng.standard_normal(25) for _ in range(100)]
    )
    failures = 0
    for g, fs in zip(probes, partial_frame_sums(probes, orb)[-1]):
        quad = float(np.real(g.conj() @ s @ g))
        if abs(quad - fs) > 1e-10 * max(1.0, fs):
            failures += 1
    return failures


def _suite_inner_isometry(rng) -> int:
    failures = 0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        order = k * m + 4
        orb = make_orbit(SymbolSpec.monomial(m), f, k, order)
        if orb.truncated.any():
            failures += 1
            continue
        if np.max(np.abs(orb.norms - orb.norms[0])) > 1e-10 * max(1.0, orb.norms[0]):
            failures += 1
    return failures


def _suite_reproducing_identity(rng) -> int:
    failures = 0
    for _ in range(100):
        g = series_from_coeffs(rng.standard_normal(25) + 1j * rng.standard_normal(25))
        z0 = 0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform(0, 1))
        kernel = reproducing_kernel(z0, 24)
        value = np.polynomial.polynomial.polyval(z0, g.coeffs)
        if abs(np.vdot(kernel.coeffs, g.coeffs) - value) > 1e-10:
            failures += 1
    return failures


def _suite_residue_pythagoras(rng) -> int:
    failures = 0
    for _ in range(100):
        m = int(rng.choice([2, 3, 5]))
        g = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        # the orbits of z^m from the seeds z^r, r < m, confined to class r,
        # together run over the basis z^0..z^29 once
        parts = 0.0
        for r in range(m):
            orb = make_orbit(SymbolSpec.monomial(m), np.eye(1, r + 1, r)[0], 29 // m, 29)
            if class_support(series_from_coeffs(orb.V.sum(axis=0)), m) != (r,):
                failures += 1
            parts += float(partial_frame_sums(g[None, :], orb)[-1, 0])
        nsq = np.vdot(g, g).real
        if abs(parts - nsq) > 1e-12 * max(1.0, nsq):
            failures += 1
    return failures


def test_criterion_9_property_suites():
    rng = np.random.default_rng(109)
    counts = {
        "parseval": _suite_parseval(rng),
        "gram_hermitian_psd": _suite_gram_hermitian_psd(rng),
        "quadratic_form": _suite_quadratic_form(rng),
        "inner_isometry": _suite_inner_isometry(rng),
        "reproducing_identity": _suite_reproducing_identity(rng),
        "residue_pythagoras": _suite_residue_pythagoras(rng),
    }
    ok = all(v == 0 for v in counts.values())
    check(
        "criterion 9: six property suites, 100 instances each, zero failures",
        ok,
        ", ".join(f"{k}={v}" for k, v in counts.items()),
    )


def test_criterion_10_battery_exit_contract(tmp_path):
    out_dir = tmp_path / "reports"
    code = main(["report-all", "--out-dir", str(out_dir)])
    index = json.loads((out_dir / "index.json").read_text())
    verdict_ok = code == 0 and index["verdicts"]["P6"] == "inconclusive"
    for prop in ("P1", "P2", "P3", "P4i", "P4ii", "Ex_constant", "Ex_half_shift", "Ex_3_1"):
        verdict_ok = verdict_ok and index["verdicts"][prop] == "consistent"

    golden_files = sorted(GOLDEN_DIR.glob("*.json"))
    bytes_ok = len(golden_files) == 10
    mismatched = []
    for golden in golden_files:
        fresh = out_dir / golden.name
        if not fresh.exists() or fresh.read_bytes() != golden.read_bytes():
            bytes_ok = False
            mismatched.append(golden.name)
    check(
        "criterion 10: report-all exit contract and golden files byte-for-byte",
        verdict_ok and bytes_ok,
        f"exit={code}, mismatched={mismatched}",
    )


if __name__ == "__main__":
    import sys
    import tempfile

    failures = 0
    tests = [
        test_criterion_1_tight_frame_reproduction,
        test_criterion_2_constant_symbol_oracle,
        test_criterion_3_lower_bound_collapse,
        test_criterion_4_squared_shift_deficiency,
        test_criterion_5_unimodular_divergence,
        test_criterion_6_dichotomy,
        test_criterion_7_kernel_witness,
        test_criterion_8_example_failure_mode,
        test_criterion_9_property_suites,
    ]
    for fn in tests:
        try:
            fn()
        except AssertionError:
            failures += 1
    with tempfile.TemporaryDirectory() as tmp:
        try:
            test_criterion_10_battery_exit_contract(Path(tmp))
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
