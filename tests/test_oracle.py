"""High-precision oracle for the frame section, the bounds and the witness.

The reference frame operator S~ = sum_n v_n v_n* is built at 50 digits
from the same float64 matrix V the package uses (its entries are exact
in mpmath), and its spectrum comes from `mp.eighe`.  Each float64
quantity is then held to a stated multiple of machine epsilon.
"""

import mpmath as mp
import numpy as np
import pytest

from hardyframes.diagnostics import cyclicity_rank
from hardyframes.frames import frame_bounds_estimate, frame_section
from hardyframes.orbits import orbit
from hardyframes.series import series_from_coeffs
from hardyframes.symbols import SymbolSpec, realize

EPS = np.finfo(float).eps

CASES = {
    "blaschke_0.3+0.4i": (SymbolSpec.blaschke([0.3 + 0.4j]), [1, 0.5j, -0.25], 20, 20),
    "z^2": (SymbolSpec.monomial(2), [1], 20, 20),
    "blaschke_0.5_seed_1-z/2": (SymbolSpec.blaschke([0.5]), [1, -0.5], 24, 24),
    "z^3_K<N": (SymbolSpec.monomial(3), [1, 0, 0, 0.5j], 24, 16),
}


def _orbit(spec, seed_coeffs, order, k):
    return orbit(realize(spec, order), series_from_coeffs(seed_coeffs, order), k, order)


def _mp_matrix(a: np.ndarray) -> mp.matrix:
    return mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])


@pytest.fixture(scope="module", params=sorted(CASES))
def oracle(request):
    spec, seed_coeffs, order, k = CASES[request.param]
    orb = _orbit(spec, seed_coeffs, order, k)
    with mp.workdps(50):
        v = _mp_matrix(orb.V)
        s_ref = v.T * v.conjugate()
        lam = mp.eighe(s_ref, eigvals_only=True)
        lam = sorted(float(x) for x in lam)
        s_ref = np.array(s_ref.tolist(), dtype=complex)
    return orb, s_ref, lam[0], lam[-1]


def _residual(orb, w: np.ndarray) -> float:
    """||V conj(w)|| at 50 digits, so float64 rounding of the check is absent."""
    with mp.workdps(50):
        r = _mp_matrix(orb.V) * _mp_matrix(np.conj(w)[:, None])
        return float(mp.sqrt(mp.fsum(abs(x) ** 2 for x in r)))


def test_section_entries_match_oracle(oracle):
    orb, s_ref, _, _ = oracle
    s = frame_section(orb).matrix
    tol = orb.length * EPS * np.max(np.abs(s_ref))
    assert np.max(np.abs(s - s_ref)) <= tol


def test_bounds_match_oracle(oracle):
    orb, _, lam_min, lam_max = oracle
    b = frame_bounds_estimate(frame_section(orb))
    assert abs(b.B_est - lam_max) <= 4 * EPS * lam_max
    assert abs(b.A_est - max(lam_min, 0.0)) <= 4 * EPS * b.B_est


def test_witness_reaches_smallest_singular_value(oracle):
    orb, _, lam_min, lam_max = oracle
    report = cyclicity_rank(orb)
    if report.witness is None:
        assert report.span_dimension_deficit == 0
        return
    w = report.witness.coeffs
    assert abs(np.linalg.norm(w) - 1.0) <= 4 * EPS
    bound = np.sqrt(max(lam_min, 0.0)) + 10 * EPS * np.sqrt(lam_max)
    assert _residual(orb, w) <= bound


def test_oracle_cases_include_deficient_spans():
    # the witness check above must not pass vacuously
    deficient = [
        name for name, (spec, seed_coeffs, order, k) in CASES.items()
        if cyclicity_rank(_orbit(spec, seed_coeffs, order, k)).witness is not None
    ]
    assert "blaschke_0.5_seed_1-z/2" in deficient
    assert len(deficient) >= 3
