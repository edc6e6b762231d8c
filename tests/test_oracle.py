"""High-precision oracle for the orbit norms, the partial frame sums, the
Gram matrix, the bounds, the singular spectrum, the rank and the kernel
pairings.

The references are built at 50 digits from the same float64 matrix V the
package uses (its entries are exact in mpmath): the Gram matrix
G~ = conj(V) V^T, the singular values of V from `mp.svd_c` (whose squares
are the spectrum of the frame operator V^T conj(V)), the row norms of V,
the partial sums of |<g, v_n>|^2 for a fixed probe g, and the largest
pairing max_n |v_n(z0)|.  Each float64 quantity is then held to a stated
multiple of machine epsilon.
"""

from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from hardyframes.diagnostics import (
    RANK_REL_TOL,
    cyclicity_rank,
    kernel_orthogonality_witness,
    reproducing_kernel,
)
from hardyframes.frames import frame_bounds_estimate, gram, partial_frame_sums
from hardyframes.orbits import orbit
from hardyframes.series import BoundaryGrid, series_from_coeffs
from hardyframes.symbols import SymbolSpec, boundary_modulus, realize

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


def _probe(order: int) -> np.ndarray:
    rng = np.random.default_rng(order)
    return rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)


@pytest.fixture(scope="module", params=sorted(CASES))
def oracle(request):
    spec, seed_coeffs, order, k = CASES[request.param]
    orb = _orbit(spec, seed_coeffs, order, k)
    with mp.workdps(50):
        v = _mp_matrix(orb.V)
        g_ref = np.array((v.conjugate() * v.T).tolist(), dtype=complex)
        sigma = sorted((mp.mpf(x) for x in mp.svd_c(v, compute_uv=False)), reverse=True)
        rank = sum(1 for x in sigma if x > RANK_REL_TOL * sigma[0])
        rows = v.tolist()
        norms = [mp.sqrt(mp.fsum(abs(x) ** 2 for x in row)) for row in rows]
        g = [mp.mpc(complex(x)) for x in _probe(order)]
        pairings = [mp.fdot(g, row, conjugate=True) for row in rows]
        sums = np.array([float(x) for x in np.cumsum([abs(p) ** 2 for p in pairings])])
    return SimpleNamespace(
        orb=orb,
        norms=np.array([float(x) for x in norms]),
        pairings=np.array([float(abs(p)) for p in pairings]),
        sums=sums,
        g_ref=g_ref,
        sigma=np.array([float(x) for x in sigma]),
        rank=rank,
    )


def test_orbit_norms_match_oracle(oracle):
    ref = oracle.norms
    assert np.all(np.abs(oracle.orb.norms - ref) <= (oracle.orb.order + 1) * EPS * ref)


def test_partial_frame_sums_match_oracle(oracle):
    # each pairing <g, v_n> is within d_n = (N+1) eps ||g|| ||v_n||, which
    # |.|^2 turns into (2 |p_n| + d_n) d_n; squaring and summing n + 1
    # terms add (n + 3) eps of the sum
    orb, p = oracle.orb, oracle.pairings
    g = _probe(orb.order)
    d = (orb.order + 1) * EPS * np.linalg.norm(g) * oracle.norms
    bound = np.cumsum((2 * p + d) * d) + (np.arange(p.size) + 3) * EPS * oracle.sums
    assert np.all(np.abs(partial_frame_sums(g[None], orb)[:, 0] - oracle.sums) <= bound)


def _sigma_min(oracle) -> float:
    """Smallest singular value of V on the N+1 columns: 0 when K < N."""
    sigma = oracle.sigma
    return sigma[-1] if sigma.size == oracle.orb.order + 1 else 0.0


def test_bounds_match_oracle(oracle):
    # each computed singular value is within d = (N+1) eps sigma_max of the
    # reference, so its square is within (2 sigma + d) d of sigma^2: A_est
    # is resolved down to about eps^2 * B, far below eps * B
    orb = oracle.orb
    b = frame_bounds_estimate(orb.V)
    d = (orb.order + 1) * EPS * oracle.sigma[0]
    for est, sigma in ((b.B_est, oracle.sigma[0]), (b.A_est, _sigma_min(oracle))):
        assert abs(est - sigma**2) <= (2 * sigma + d) * d


def test_gram_entries_match_oracle(oracle):
    orb = oracle.orb
    g = gram(orb)
    norms = np.linalg.norm(orb.V, axis=1)
    bound = (orb.order + 1) * EPS * np.outer(norms, norms)
    assert np.all(np.abs(g - oracle.g_ref) <= bound)


def test_singular_values_and_rank_match_oracle(oracle):
    orb = oracle.orb
    report = cyclicity_rank(orb)
    sv = report.singular_values
    assert sv.size == oracle.sigma.size
    tol = (orb.order + 1) * EPS * oracle.sigma[0]
    assert np.max(np.abs(sv - oracle.sigma)) <= tol
    assert report.rank == oracle.rank


@pytest.mark.parametrize("z0", [0.3 + 0.4j, -0.55 + 0.2j])
def test_kernel_pairings_match_oracle(oracle, z0):
    orb = oracle.orb
    # each pairing is within (N+1) eps ||v_n|| ||k|| of the reference, so
    # their maximum is within the largest of those bounds
    max_pairing = kernel_orthogonality_witness(orb, z0)
    kernel_norm = np.linalg.norm(reproducing_kernel(z0, orb.order).coeffs)
    with mp.workdps(50):
        powers = [mp.mpc(z0) ** j for j in range(orb.order + 1)]
        ref = max(float(abs(mp.fdot(row, powers))) for row in _mp_matrix(orb.V).tolist())
    bound = (orb.order + 1) * EPS * np.max(np.linalg.norm(orb.V, axis=1)) * kernel_norm
    assert abs(max_pairing - ref) <= bound


def test_oracle_cases_include_deficient_spans():
    # the rank check above must not pass on full-rank cases alone
    deficient = []
    for name, (spec, seed_coeffs, order, k) in CASES.items():
        report = cyclicity_rank(_orbit(spec, seed_coeffs, order, k))
        if report.span_dimension_deficit > 0:
            deficient.append(name)
    assert "blaschke_0.5_seed_1-z/2" in deficient
    assert len(deficient) >= 3


def test_orbit_norms_below_the_underflow_threshold_match_oracle():
    # from row 246 on the squared moduli are subnormal, from row 256 they
    # are 0, while the norms themselves (5.6e-155 down to 7.6e-198) are not
    spec = SymbolSpec.blaschke([0.4 * np.exp(0.7j), -0.3 + 0.2j])
    orb = _orbit(spec, [1, 0.5j, -0.25 + 0.1j], 30, 300)
    with mp.workdps(50):
        ref = np.array([
            float(mp.sqrt(mp.fsum(abs(x) ** 2 for x in row)))
            for row in _mp_matrix(orb.V).tolist()
        ])
    assert np.all(ref > 0)
    assert np.all(np.abs(orb.norms - ref) <= 4 * EPS * ref)
    # the truncated rows fall towards 0, the true norms ||phi^n f|| do not
    trend = boundary_modulus(orb.symbol.spec, BoundaryGrid(256))
    assert trend.norm_trend == "bounded_non_decaying"
    assert abs(trend.max_modulus - 1.0) < 1e-9
