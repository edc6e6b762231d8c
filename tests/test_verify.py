import dataclasses
import importlib
import json
import sys

import numpy as np
import pytest

from hardyframes import frames, orbits, symbols
from hardyframes.cli import default_config, main
from hardyframes.config import ExperimentConfig, ToleranceSettings
from hardyframes.diagnostics import cyclicity_rank
from hardyframes.frames import frame_bounds_estimate, section_bounds
from hardyframes.jsonio import dumps_canonical
from hardyframes.series import BoundaryGrid
from hardyframes.symbols import SymbolSpec, boundary_modulus
from hardyframes.verify import (
    _P2_RANDOM_COEFFS,
    P6_TENSION_NOTE,
    P6_UNDERRESOLVED_REASON,
    PROPOSITIONS,
    UnknownPropositionError,
    report_to_json,
    verify,
)

# the package re-exports the function `verify` under the module's name
verify_module = importlib.import_module("hardyframes.verify")


@pytest.fixture(scope="module")
def config():
    return default_config()


@pytest.mark.parametrize(
    "prop",
    ["P1", "P2", "P3", "P4i", "P4ii", "Ex_constant", "Ex_half_shift", "Ex_3_1"],
)
def test_proposition_suites_consistent(prop, config):
    report = verify(prop, config)
    assert report.verdict == "consistent", report.evidence
    assert report.proposition == prop
    assert report.parameters["N"] == config.truncation_order


def test_p6_reports_documented_tension(config):
    report = verify("P6", config)
    assert report.verdict == "inconclusive"
    assert report.evidence["tension_cases"] == ["shift_seed_one_minus_z"]
    assert report.evidence["note"] == P6_TENSION_NOTE
    assert "reason" not in report.evidence  # K = N resolves the span
    # the cyclic tight-frame case supports both directions
    assert report.evidence["shift_seed_one"]["numerically_cyclic"]
    assert report.evidence["shift_seed_one"]["frame_trend_positive"]
    # the non-cyclic case never shows a healthy lower bound
    assert not report.evidence["squared_shift_seed_one"]["numerically_cyclic"]
    assert not report.evidence["squared_shift_seed_one"]["frame_trend_positive"]


@pytest.mark.parametrize("n, k", [(60, 24), (4, 2)])
def test_p6_inconclusive_when_k_below_n(n, k):
    # K + 1 orbit elements cannot span N + 1 coefficients: no case can read
    # cyclic, so the suite says why it cannot decide instead of refuting
    config = ExperimentConfig(
        symbol=SymbolSpec.monomial(1), truncation_order=n, orbit_length=k
    )
    report = verify("P6", config)
    assert report.verdict == "inconclusive"
    assert report.evidence["reason"] == P6_UNDERRESOLVED_REASON
    for label in ("shift_seed_one", "squared_shift_seed_one"):
        assert not report.evidence[label]["numerically_cyclic"]
        assert report.evidence[label]["rank"] <= k + 1


def test_unknown_proposition_rejected(config):
    with pytest.raises(UnknownPropositionError):
        verify("bogus_id", config)


def test_all_ids_covered():
    assert set(PROPOSITIONS) == {
        "P1", "P2", "P3", "P4i", "P4ii",
        "Ex_constant", "Ex_half_shift", "Ex_3_1", "P6",
    }


def test_p1_covers_both_normalization_branches(config):
    report = verify("P1", config)
    branches = {e["branch"] for e in report.evidence.values()}
    assert branches == {"normalized", "unnormalized"}
    for entry in report.evidence.values():
        assert entry["innerness_verdict"] == "non_inner"
        assert entry["no_frame_signature"]


def test_p2_confinement_recorded(config):
    report = verify("P2", config)
    assert report.evidence["m2_one"]["orbit_confined_to_seed_classes"]
    assert report.evidence["m3_class_one_random"]["orbit_confined_to_seed_classes"]
    for key, entry in report.evidence.items():
        assert entry["span_dimension_deficit"] > 0, key


def test_p2_seed_literals_are_the_seeded_draws():
    # P2 once drew its random seeds from this generator at run time, for
    # m = 2 then m = 3: 4 class-one coefficients, then 6 mixed ones, each
    # real part before its imaginary part
    rng = np.random.default_rng(20240211)
    for m in (2, 3):
        for literals in _P2_RANDOM_COEFFS[m]:
            drawn = [complex(rng.standard_normal(), rng.standard_normal())
                     for _ in literals]
            assert list(literals) == drawn
    assert [len(group) for group in _P2_RANDOM_COEFFS[2]] == [4, 6]


def _svd_census(monkeypatch) -> list:
    """Patch np.linalg.svd to log (shape, compute_uv) of every call."""
    svd = np.linalg.svd
    calls = []

    def census(a, *args, **kwargs):
        calls.append((a.shape, kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", census)
    return calls


def test_p2_factors_each_orbit_once(config, monkeypatch):
    # rank and both bounds of each of the 8 orbits come from at most one
    # values-only SVD of the nonzero rows and columns, and the witness
    # from none: seed 1 is a scaled permutation, and 1 + z^m, the
    # class-one seed and the mixed seed (which meets every column) are
    # factored once each
    calls = _svd_census(monkeypatch)
    verify("P2", config)
    assert len(calls) == 6
    assert not any(uv for _, uv in calls)
    assert all(rows < config.orbit_length + 1 for (rows, _), _ in calls)
    n = config.truncation_order
    assert [cols < n + 1 for (_, cols), _ in calls] == [True, True, False] * 2


def test_rank_and_bounds_of_a_dense_orbit_share_one_svd(monkeypatch):
    # the orbit keeps its spectrum: the cyclicity rank and the frame
    # bounds at (N, K) read one values-only SVD of the dense Blaschke orbit
    orb = orbits.orbit_for(SymbolSpec.blaschke([0.5]), (1.0, -0.3), 24, 24)
    calls = _svd_census(monkeypatch)
    cyc = cyclicity_rank(orb)
    (bounds,) = section_bounds(orb, [(24, 24)])
    assert calls == [((25, 25), False)]
    assert bounds.B_est == cyc.singular_values[0] ** 2


def test_report_all_asks_no_svd_for_factors(tmp_path, monkeypatch):
    # every spectrum in the battery is values only
    calls = _svd_census(monkeypatch)
    assert main(["report-all", "--out-dir", str(tmp_path)]) == 0
    assert calls
    assert not any(uv for _, uv in calls)


def _roots_census(monkeypatch) -> list:
    """Patch np.roots to log the name of the function that calls it."""
    roots = np.roots
    callers = []

    def census(p):
        callers.append(sys._getframe(1).f_code.co_name)
        return roots(p)

    monkeypatch.setattr(np, "roots", census)
    return callers


def test_image_test_finds_roots_only_outside_the_circle(tmp_path, monkeypatch):
    # the image test asks for roots only when |phi| > 1 on all of T and phi
    # is a polynomial of degree >= 1, which no battery symbol is: a
    # report-all's only root finding is P4ii's, one per seed
    callers = _roots_census(monkeypatch)
    assert main(["report-all", "--out-dir", str(tmp_path)]) == 0
    assert callers == ["zeros_in_disk"] * 3
    callers.clear()
    argv = ["verify", "P4i", "--truncation", "256", "--orbit-len", "256", "--grid", "2048"]
    assert main([*argv, "--out", str(tmp_path / "p4i.json")]) == 0
    assert callers == []
    # 1 + z meets T with |phi| < 1 on part of it; 2 + 5z^2 has |phi| >= 3
    # on T and zeros at |z| ~ 0.63
    for coeffs, calls in (([1, 1], []), ([2, 0, 5], ["vanishes_in_disk"])):
        spec = SymbolSpec.polynomial(coeffs)
        assert boundary_modulus(spec, BoundaryGrid(512)).intersects_circle
        assert callers == calls


def _p2_seeds(m: int) -> dict:
    class_one, mixed = _P2_RANDOM_COEFFS[m]
    class_one_seed = [0j] * (2 + m * (len(class_one) - 1))
    class_one_seed[1::m] = class_one
    return {
        f"m{m}_one": [1.0],
        f"m{m}_one_plus_z_m": [1.0] + [0.0] * (m - 1) + [1.0],
        f"m{m}_class_one_random": class_one_seed,
        f"m{m}_mixed_random": list(mixed),
    }


@pytest.mark.parametrize("m", [2, 3])
def test_p2_confined_seed_witness_is_an_exact_monomial(config, m):
    # a seed with f_j = 0 for j in {0, 1} has its witness z^j: column j of
    # V is exactly zero, so the frame sum is exactly 0.0
    evidence = verify("P2", config).evidence
    for label, seed in _p2_seeds(m).items():
        if "mixed" in label:
            continue
        orb = orbits.orbit_for(SymbolSpec.monomial(m), seed, 64, 64)
        witness = verify_module._span_deficit_witness(orb)
        j = 0 if "class_one" in label else 1
        assert np.array_equal(witness, np.eye(1, 2, j))
        assert not orb.V[:, j].any()
        assert evidence[label]["witness_frame_sum"] == 0.0


@pytest.mark.parametrize(
    "order, k",
    [(1, 8), (2, 5), (16, 16), (24, 60), (60, 24), (64, 64), (128, 128), (256, 256)],
)
def test_p2_witness_is_orthogonal_to_the_orbit_at_every_resolution(order, k):
    # only the seed meets span{1, z}, so the witness pairs with row 0 alone:
    # z^j on an exactly zero column, or conj(f1) - conj(f0) z, whose one
    # pairing f0 f1 - f1 f0 is zero up to the rounding of the two products
    eps = np.finfo(float).eps
    for m in (2, 3):
        for label, seed in _p2_seeds(m).items():
            orb = orbits.orbit_for(SymbolSpec.monomial(m), seed, order, k)
            assert not orb.V[1:, :2].any(), label
    config = ExperimentConfig(
        symbol=SymbolSpec.monomial(1), truncation_order=order, orbit_length=k,
        boundary_grid=8 * order + 8,
    )
    report = verify("P2", config)
    assert report.verdict == "consistent", report.evidence
    for m in (2, 3):
        for label, seed in _p2_seeds(m).items():
            frame_sum = report.evidence[label]["witness_frame_sum"]
            if "mixed" in label:
                f0, f1 = abs(seed[0]), abs(seed[1])
                assert frame_sum <= (4 * eps * f0 * f1) ** 2, label
            else:
                assert frame_sum == 0.0, label


@pytest.mark.parametrize(
    "prop, calls_expected",
    [
        # P1: only constant_half's square trend, one nonzero column per
        # section, is factored; the growing cases build no orbit
        ("P1", 3),
        # P6: only the Blaschke and 1 - z seeds are; Ex_3_1 never is
        ("P6", 6),
        ("Ex_3_1", 0),
    ],
)
def test_shift_and_monomial_seed_one_orbits_skip_lapack(config, monkeypatch, prop, calls_expected):
    calls = _svd_census(monkeypatch)
    report = verify(prop, config)
    assert len(calls) == calls_expected
    if prop == "P1":
        assert all(cols == 1 for (_, cols), _ in calls)
    if prop == "P6":
        assert report.evidence["shift_seed_one"]["rank"] == config.truncation_order + 1
        assert report.evidence["squared_shift_seed_one"]["rank"] == config.truncation_order // 2 + 1
    for spec in (SymbolSpec.scaled_shift(0.5), SymbolSpec.scaled_shift(1.25),
                 SymbolSpec.monomial(1), SymbolSpec.monomial(2)):
        orb = orbits.orbit_for(spec, (1.0,), config.truncation_order, config.orbit_length)
        before = len(calls)
        cyclicity_rank(orb)
        frame_bounds_estimate(orb.V)
        assert len(calls) == before, spec


# at N = 1 and 2, P4i's inside symbol 0.9 b_{1/2} cut to order N would
# read |phi| up to 1.125 and 1.042 on T; the spec is read exactly.  Where
# K' > N the rows z^n of 1.25 z truncate to 0, and at N = K = 1024 the
# orbit of constant(2) overflows: the growth of the exact norms needs no
# orbit
SWEEP = ((8, 8), (16, 16), (17, 17), (3, 40), (32, 32), (24, 60), (40, 200),
         (20, 5), (16, 3), (10, 2), (64, 1), (64, 6), (60, 24), (33, 33), (12, 12),
         (1, 8), (2, 8), (512, 512), (1024, 1024))


def _sweep_cases():
    for n, k in SWEEP:
        for prop in ("P4i", "P1"):
            yield pytest.param(prop, n, k, id=f"{prop}-{n}-{k}")


@pytest.mark.parametrize("prop, n, k", _sweep_cases())
def test_p1_p4i_consistent_at_any_orbit_length(prop, n, k):
    # the trend of the orbit norms comes from |phi| on the circle and
    # their growth from the exact norms, so no orbit length is too short
    # or too long to decide it
    config = ExperimentConfig(
        symbol=SymbolSpec.monomial(1), truncation_order=n, orbit_length=k,
        boundary_grid=max(512, 8 * max(n, k)),
    )
    report = verify(prop, config)
    assert report.verdict == "consistent", report.evidence
    assert "reason" not in report.evidence


@pytest.mark.parametrize(
    "spec, trend_column, shown",
    [
        (SymbolSpec.scaled_shift(0.5), "A_trend", True),  # decays_to_zero
        (SymbolSpec.constant(2.0), "log10_norm_sq_trend", True),  # grows
        (SymbolSpec.blaschke([0.5]), "A_trend", False),  # bounded_non_decaying
    ],
    ids=["decays", "grows", "bounded"],
)
def test_no_frame_signature_follows_the_norm_trend(config, spec, trend_column, shown):
    # decaying norms must collapse A, growing norms ||phi^n f||^2 <= B must
    # rise tenfold, read exactly with no orbit, and an inner symbol's orbit
    # shows neither, though its A_trend is written
    scan = boundary_modulus(spec, BoundaryGrid(config.boundary_grid))
    columns, signature, orb, last = verify_module._no_frame_signature(
        config, spec, (1.0,), scan
    )
    assert signature is shown
    assert columns["decay_classification"] == scan.norm_trend
    assert columns["decay_rate"] == scan.max_modulus
    trend = columns[trend_column]
    assert len(trend) == 3
    if trend_column == "A_trend":
        assert _is_orbit_of(orb, spec, (1.0,)) and orb.length == config.orbit_length + 1
        assert trend[-1] == last.A_est
        assert columns["lower_bound_numerically_zero"] == last.numerically_zero_lower
    else:
        assert orb is None and last is None
        # ||2^n||^2 = 4^n at n = 16, 32, 64, the _trend_orders of K = 64
        assert trend == pytest.approx([n * np.log10(4.0) for n in (16, 32, 64)], rel=1e-12)
        assert "lower_bound_numerically_zero" not in columns


@pytest.mark.parametrize("prop", ["P1", "P4i"])
@pytest.mark.parametrize("k", [7, 8, 13])
def test_growth_trend_past_a_short_orbit_is_not_capped(prop, k):
    # for K < 16 the growth trend reads the norms at n = 8, 12, 16, past
    # row K; they are exact, n log10 |phi|^2 for these one-term symbols
    # from seed 1, with no orbit and no cap at K
    config = ExperimentConfig(
        symbol=SymbolSpec.monomial(1), truncation_order=32, orbit_length=k
    )
    report = verify(prop, config)
    assert report.verdict == "consistent", report.evidence
    assert "reason" not in json.dumps(report_to_json(report))
    trends = {
        label: e["log10_norm_sq_trend"]
        for label, e in report.evidence.items()
        if "log10_norm_sq_trend" in e
    }
    modulus = {"P1": 1.25, "P4i": 2.0}[prop]
    assert len(trends) == {"P1": 2, "P4i": 1}[prop]
    for label, trend in trends.items():
        expected = [n * np.log10(modulus**2) for n in (8, 12, 16)]
        assert trend == pytest.approx(expected, rel=1e-12), label
        assert trend[-1] > trend[0] + 1.0


def test_p6_factors_only_real_matrices(config, monkeypatch):
    # every P6 case has a real symbol and a real seed, so each orbit is
    # real and every SVD runs in float64
    svd = np.linalg.svd
    dtypes = []

    def census(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", census)
    verify("P6", config)
    assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_p3_slope_matches_pairing(config):
    report = verify("P3", config)
    for entry in report.evidence.values():
        assert abs(entry["fitted_slope"] - entry["expected_increment"]) < 1e-6


@pytest.mark.parametrize(
    "prop, n, batches",
    [
        ("P3", 64, [2, 2]),
        ("P3", 256, [2, 2]),
        ("Ex_3_1", 64, [100]),
        ("Ex_3_1", 256, [100]),
        ("Ex_half_shift", 64, [33]),  # its orbit is fixed at N = K = 40
    ],
    ids=["P3-64", "P3-256", "Ex_3_1-64", "Ex_3_1-256", "Ex_half_shift"],
)
def test_batched_probe_sums_match_one_probe_calls(prop, n, batches, monkeypatch):
    # numpy sends one probe row to BLAS gemv and several to gemm, which can
    # sum in another order; on each suite's own orbit its probes' sums are
    # exact, so every batched column is that probe's one-row call, bit for bit
    calls = []
    real = verify_module.partial_frame_sums

    def recording(probes, orb):
        calls.append((probes, orb))
        return real(probes, orb)

    monkeypatch.setattr(verify_module, "partial_frame_sums", recording)
    verify(prop, ExperimentConfig(
        symbol=SymbolSpec.monomial(1), truncation_order=n, orbit_length=n, boundary_grid=8 * n
    ))
    assert [probes.shape[0] for probes, _ in calls] == batches
    for probes, orb in calls:
        batched = real(probes, orb)
        for i in range(probes.shape[0]):
            alone = real(probes[i : i + 1], orb)[:, 0]
            assert batched[:, i].tobytes() == alone.tobytes(), (prop, i)


def test_ex_constant_closed_form(config):
    report = verify("Ex_constant", config)
    assert report.evidence["matches_oracle_exactly"]
    assert report.evidence["abs_difference_to_limit"] < 1e-12


def test_report_json_round_trips(config):
    report = verify("Ex_half_shift", config)
    text = dumps_canonical(report_to_json(report))
    parsed = json.loads(text)
    assert parsed["proposition"] == "Ex_half_shift"
    assert parsed["verdict"] == report.verdict
    assert parsed["parameters"] == report_to_json(report)["parameters"]
    # full structural equality through a serialize/parse/serialize cycle
    assert dumps_canonical(parsed) == text


def test_reports_are_deterministic(config):
    a = dumps_canonical(report_to_json(verify("P4i", config)))
    b = dumps_canonical(report_to_json(verify("P4i", config)))
    assert a == b


def test_verify_respects_config_resolution():
    small = ExperimentConfig(
        symbol=SymbolSpec.monomial(1),
        truncation_order=32,
        orbit_length=32,
        boundary_grid=256,
    )
    report = verify("Ex_3_1", small)
    assert report.verdict == "consistent"
    assert report.parameters["N"] == 32


def test_p1_honours_inner_tol(config):
    # |phi| = 1/2 on the circle lies below 1 - tol only while tol < 1/2
    loose = dataclasses.replace(config, tolerances=ToleranceSettings(inner_tol=0.6))
    report = verify("P1", loose)
    assert report.parameters["tolerances"]["inner_tol"] == 0.6
    assert report.evidence["constant_half"]["sub_unit_fraction"] == 0.0
    assert verify("P1", config).evidence["constant_half"]["sub_unit_fraction"] == 1.0


def _is_orbit_of(orb, spec, seed_coeffs) -> bool:
    seed_row = np.zeros(orb.order + 1, dtype=complex)
    seed_row[: len(seed_coeffs)] = seed_coeffs
    return orb.symbol.spec == spec and np.array_equal(orb.V[0], seed_row)


def _innerness_reads_inner(report, spec, *args):
    if spec == SymbolSpec.constant(1.25):
        return dataclasses.replace(report, verdict="inner")
    return report


def _m3_seed_one_reads_cyclic(report, orb, *args, **kwargs):
    if _is_orbit_of(orb, SymbolSpec.monomial(3), (1.0,)):
        return dataclasses.replace(report, span_dimension_deficit=0)
    return report


def _constant_two_meets_the_circle(report, spec, *args, **kwargs):
    if spec == SymbolSpec.constant(2.0):
        return dataclasses.replace(report, intersects_circle=True)
    return report


def _blaschke_kernel_pairs(max_pairing, orb, z0):
    return 1.0 if orb.symbol.spec.kind == "blaschke" else max_pairing


def _shift_seed_one_reads_non_cyclic(report, orb, *args, **kwargs):
    if _is_orbit_of(orb, SymbolSpec.monomial(1), (1.0,)):
        return dataclasses.replace(report, span_dimension_deficit=1)
    return report


@pytest.mark.parametrize(
    "prop, name, label, patch",
    [
        ("P1", "boundary_modulus", "constant_5_4", _innerness_reads_inner),
        ("P2", "cyclicity_rank", "m3_one", _m3_seed_one_reads_cyclic),
        ("P4i", "boundary_modulus", "outside_constant_two",
         _constant_two_meets_the_circle),
        ("P4ii", "kernel_orthogonality_witness", "blaschke_seed_z_minus_half",
         _blaschke_kernel_pairs),
        # a non-cyclic seed with a healthy frame trend refutes necessity
        ("P6", "cyclicity_rank", "shift_seed_one", _shift_seed_one_reads_non_cyclic),
    ],
    ids=["P1", "P2", "P4i", "P4ii", "P6"],
)
def test_one_disagreeing_case_makes_the_suite_inconsistent(
    config, monkeypatch, prop, name, label, patch
):
    # one diagnostic is made to refute the proposition on one case: the
    # verdict folds to inconsistent and every other entry is unchanged
    before = verify(prop, config)
    real = getattr(verify_module, name)
    monkeypatch.setattr(
        verify_module, name, lambda *a, **kw: patch(real(*a, **kw), *a, **kw)
    )
    after = verify(prop, config)
    assert before.verdict != "inconsistent"
    assert after.verdict == "inconsistent"
    assert after.evidence[label] != before.evidence[label]
    assert after.evidence.keys() == before.evidence.keys()
    for key in before.evidence.keys() - {label}:
        assert after.evidence[key] == before.evidence[key], key


_CASE_ORBITS = {
    "P1": 2, "P2": 8, "P3": 2, "P4i": 1, "P4ii": 3,
    "Ex_constant": 1, "Ex_half_shift": 1, "Ex_3_1": 2, "P6": 4,
}


@pytest.mark.parametrize(
    "n, k, trend_orbits, total",
    [
        pytest.param(64, 64, {}, 24, id="64"),
        pytest.param(256, 256, {}, 24, id="256"),
        # every square trend reaches n' = 16 > K
        pytest.param(8, 8, {"P1": 2, "P4i": 1, "P6": 4}, 31, id="N8-K8"),
        # the square trends reach (30, 30) and (60, 60)
        pytest.param(60, 24, {"P1": 2, "P4i": 1, "P6": 4}, 31, id="N60-K24"),
    ],
)
def test_each_suite_builds_a_fixed_number_of_orbits(n, k, trend_orbits, total, monkeypatch):
    # one orbit per case or worked example whose orbit is read, plus
    # Ex_3_1's one seed 1 - z orbit: 24 builds per battery, since P1's and
    # P4i's three growing cases read exact norms and build none.  At K = N
    # every square-trend point is a leading block of a case orbit, so none
    # builds its own, and otherwise each square trend builds one orbit, at
    # its largest point.  Each orbit that is probed pairs all its probes
    # in one product: 13 per battery.  Only P1 and P4i read |phi| on the
    # circle: one sample per case for the norm trend, and one more per
    # growing case for its exact norms
    built, products, samples = [], [], []
    real, real_sums = orbits.orbit, verify_module.partial_frame_sums
    real_values = symbols.boundary_values

    def counting(*args, **kwargs):
        built.append(prop)
        return real(*args, **kwargs)

    def counting_sums(*args, **kwargs):
        products.append(prop)
        return real_sums(*args, **kwargs)

    def counting_values(*args, **kwargs):
        samples.append(prop)
        return real_values(*args, **kwargs)

    monkeypatch.setattr(orbits, "orbit", counting)
    monkeypatch.setattr(verify_module, "partial_frame_sums", counting_sums)
    monkeypatch.setattr(symbols, "boundary_values", counting_values)
    monkeypatch.setattr(frames, "boundary_values", counting_values)
    config = ExperimentConfig(
        symbol=SymbolSpec.monomial(1),
        truncation_order=n,
        orbit_length=k,
        boundary_grid=8 * n,
    )
    for prop in PROPOSITIONS:
        verify(prop, config)
    counts = {prop: built.count(prop) for prop in PROPOSITIONS}
    assert counts == {
        prop: cases + trend_orbits.get(prop, 0) for prop, cases in _CASE_ORBITS.items()
    }
    assert len(built) == total
    assert {prop: products.count(prop) for prop in set(products)} == {
        "P2": 8, "P3": 2, "Ex_constant": 1, "Ex_half_shift": 1, "Ex_3_1": 1,
    }
    assert {prop: samples.count(prop) for prop in PROPOSITIONS} == {
        prop: {"P1": 6, "P4i": 3}.get(prop, 0) for prop in PROPOSITIONS
    }
