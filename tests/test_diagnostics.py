import numpy as np
import pytest

from hardyframes import diagnostics
from hardyframes.diagnostics import (
    RANK_REL_TOL,
    class_support,
    cyclicity_rank,
    image_circle_intersection,
    kernel_orthogonality_witness,
    reproducing_kernel,
    zeros_in_disk,
)
from hardyframes.frames import frame_bounds_estimate
from hardyframes.orbits import orbit
from hardyframes.series import (
    BoundaryGrid,
    inner_product,
    monomial,
    norm_sq,
    series_from_coeffs,
)
from hardyframes.symbols import SymbolSpec, boundary_values, realize


def seed(coeffs, order):
    out = np.zeros(order + 1, dtype=complex)
    arr = np.asarray(coeffs, dtype=complex)
    out[: arr.size] = arr
    return series_from_coeffs(out)


def make_orbit(spec, seed_coeffs, k, order):
    sym = realize(spec, order)
    return orbit(sym, seed(seed_coeffs, order), k, order)


# -- reproducing kernel ----------------------------------------------------------


def test_kernel_at_origin_reads_constant_term():
    kv = reproducing_kernel(0.0, 6)
    assert np.array_equal(kv.coeffs, monomial(0, 6).coeffs)
    g = seed([3, 1, -2], 6)
    assert inner_product(g, kv) == 3.0


def test_kernel_evaluates_one_minus_z():
    kv = reproducing_kernel(0.5, 8)
    g = seed([1, -1], 8)
    assert abs(inner_product(g, kv) - 0.5) < 1e-15


def test_kernel_monomial_pairing_is_power():
    z0 = 0.3 - 0.4j
    kv = reproducing_kernel(z0, 10)
    for k in (0, 2, 7):
        assert abs(inner_product(monomial(k, 10), kv) - z0**k) < 1e-15


def test_kernel_reproducing_identity_random():
    rng = np.random.default_rng(41)
    order = 24
    for _ in range(100):
        g = series_from_coeffs(
            rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        )
        z0 = 0.9 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform(0, 1))
        kv = reproducing_kernel(z0, order)
        value = np.polynomial.polynomial.polyval(z0, g.coeffs)
        assert abs(inner_product(g, kv) - value) < 1e-10


def test_kernel_center_must_be_interior():
    with pytest.raises(ValueError):
        reproducing_kernel(1.0, 4)


# -- kernel orthogonality witness ----------------------------------------------


def test_witness_bounded_away_without_disk_zero():
    orb = make_orbit(SymbolSpec.monomial(1), [1, -1], 16, 24)
    report = kernel_orthogonality_witness(orb, 0.3)
    assert report.max_pairing >= 0.5  # |f(0.3)| = 0.7 at n = 0
    assert report.argmax_n == 0


def test_witness_vanishes_at_seed_zero():
    orb = make_orbit(SymbolSpec.monomial(1), [-0.5, 1], 64, 64)
    report = kernel_orthogonality_witness(orb, 0.5)
    assert report.max_pairing < 1e-10


def test_witness_seed_one():
    orb = make_orbit(SymbolSpec.monomial(1), [1], 8, 8)
    report = kernel_orthogonality_witness(orb, 0.25 + 0.1j)
    assert abs(report.pairings[0] - 1.0) < 1e-15


def test_zero_kills_span_battery():
    # every seed with a detected interior zero pairs to ~0 with that kernel
    cases = [
        (SymbolSpec.monomial(1), [-0.5, 1]),
        (SymbolSpec.monomial(1), [-0.12, 0.1, 1]),  # zeros 0.3 and -0.4
        (SymbolSpec.blaschke([0.3]), [-0.5, 1]),
    ]
    for spec, coeffs in cases:
        orb = make_orbit(spec, coeffs, 32, 48)
        found = zeros_in_disk(orb.seed, margin=0.05)
        assert found.inside
        max_norm = float(np.max(orb.norms))
        for z0 in found.inside:
            report = kernel_orthogonality_witness(orb, z0)
            assert report.max_pairing < 1e-9 * max_norm


# -- zeros in the disk ------------------------------------------------------------


def test_zeros_one_minus_z_boundary_ambiguous():
    found = zeros_in_disk(series_from_coeffs([1, -1]), margin=0.05)
    assert found.inside == ()
    assert len(found.boundary_ambiguous) == 1
    assert abs(found.boundary_ambiguous[0] - 1.0) < 1e-10


def test_zeros_interior_root():
    found = zeros_in_disk(series_from_coeffs([-0.5, 1]), margin=0.05)
    assert len(found.inside) == 1
    assert abs(found.inside[0] - 0.5) < 1e-12


def test_zeros_constant_has_none():
    found = zeros_in_disk(series_from_coeffs([1, 0, 0]), margin=0.1)
    assert found.inside == () and found.boundary_ambiguous == ()


def test_zeros_quadratic_both_found():
    found = zeros_in_disk(series_from_coeffs([-0.12, 0.1, 1]), margin=0.05)
    got = sorted(found.inside, key=lambda z: z.real)
    assert len(got) == 2
    assert abs(got[0] - (-0.4)) < 1e-10 and abs(got[1] - 0.3) < 1e-10


def test_zeros_rejects_zero_polynomial_and_bad_margin():
    with pytest.raises(ValueError):
        zeros_in_disk(series_from_coeffs(np.zeros(5)), margin=0.05)
    with pytest.raises(ValueError):
        zeros_in_disk(series_from_coeffs([1, -1]), margin=0.7)


# -- cyclicity rank ----------------------------------------------------------------


def test_cyclicity_full_rank_for_shift():
    report = cyclicity_rank(make_orbit(SymbolSpec.monomial(1), [1], 16, 16))
    assert report.rank == 17
    assert report.span_dimension_deficit == 0


def test_cyclicity_squared_shift_half_rank():
    orb = make_orbit(SymbolSpec.monomial(2), [1], 16, 16)
    report = cyclicity_rank(orb)
    assert report.rank == 9  # even monomials z^0..z^16
    assert report.span_dimension_deficit == 8


@pytest.mark.parametrize(
    "spec, coeffs, k, order",
    [
        (SymbolSpec.monomial(2), [1], 16, 16),
        (SymbolSpec.blaschke([0.5]), [1, 0.5], 40, 40),
        (SymbolSpec.monomial(1), [1], 8, 20),  # K < N
    ],
)
def test_cyclicity_witness_only_on_request(spec, coeffs, k, order):
    # no witness is ever computed; the reduced spectrum agrees with the
    # values-only SVD of all of V to (N+1) eps sigma_max, and so do the
    # rank and the deficit
    orb = make_orbit(spec, coeffs, k, order)
    report = cyclicity_rank(orb)
    sigma = np.linalg.svd(orb.V, compute_uv=False)
    tol = (order + 1) * np.finfo(float).eps * sigma[0]
    assert np.max(np.abs(report.singular_values - sigma)) <= tol
    rank = int(np.count_nonzero(sigma > RANK_REL_TOL * sigma[0]))
    assert (report.rank, report.span_dimension_deficit) == (rank, order + 1 - rank)


def test_cyclicity_drops_zero_rows_and_keeps_the_spectrum_length():
    # z^2 with K >> N: rows n > N/2 truncate to zero and are not factored;
    # the spectrum is padded back to min(K+1, N+1) values with exact zeros
    order, k = 16, 64
    orb = make_orbit(SymbolSpec.monomial(2), [1, 0.5j, -0.25, 0.3], k, order)
    nonzero = int(np.count_nonzero(np.any(orb.V, axis=1)))
    assert nonzero == order // 2 + 1
    sigma_ref = np.linalg.svd(orb.V, compute_uv=False)
    rank_ref = int(np.count_nonzero(sigma_ref > RANK_REL_TOL * sigma_ref[0]))
    report = cyclicity_rank(orb)
    assert report.rank == rank_ref == nonzero
    assert report.singular_values.size == min(k, order) + 1
    assert np.all(report.singular_values[nonzero:] == 0.0)
    tol = (order + 1) * np.finfo(float).eps * sigma_ref[0]
    assert np.max(np.abs(report.singular_values - sigma_ref)) <= tol
    # the bounds factor the same nonzero rows, values only
    bounds = frame_bounds_estimate(orb.V)
    assert bounds.A_est == 0.0 and bounds.numerically_zero_lower
    assert bounds.B_est == report.singular_values[0] ** 2


def test_complex_seed_orbit_is_factored_in_complex_arithmetic(monkeypatch):
    # z^2 is real, the seed is not: every SVD sees complex128 rows, and a
    # real orbit of the same symbol sees float64 rows
    svd = np.linalg.svd
    dtypes = []

    def census(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", census)
    for coeffs, dtype in (([1, 0.5j, -0.25], np.complex128), ([1, 0.5, -0.25], np.float64)):
        dtypes.clear()
        orb = make_orbit(SymbolSpec.monomial(2), coeffs, 32, 32)
        cyclicity_rank(orb)
        frame_bounds_estimate(orb.V)
        assert dtypes == [dtype] * 2


def test_cyclicity_constant_rank_one():
    report = cyclicity_rank(make_orbit(SymbolSpec.constant(0.5), [1], 12, 8))
    assert report.rank == 1
    assert report.span_dimension_deficit == 8


def test_deficit_and_lower_bound_agree():
    # span deficit > 0 <=> numerically zero lower bound, on both kinds
    battery = [
        (SymbolSpec.monomial(2), [1]),
        (SymbolSpec.monomial(3), [1, 0, 0, 1]),
        (SymbolSpec.monomial(1), [1]),
    ]
    for spec, coeffs in battery:
        orb = make_orbit(spec, coeffs, 16, 16)
        deficit = cyclicity_rank(orb).span_dimension_deficit
        bounds = frame_bounds_estimate(orb.V)
        assert (deficit > 0) == bounds.numerically_zero_lower


# -- residue classes ---------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 5])
def test_residue_pythagoras(m):
    rng = np.random.default_rng(m)
    for _ in range(100):
        g = series_from_coeffs(
            rng.standard_normal(16) + 1j * rng.standard_normal(16)
        )
        # the classes r mod m split the coefficients into disjoint slices
        parts = sum(norm_sq(series_from_coeffs(g.coeffs[r::m])) for r in range(m))
        assert abs(parts - norm_sq(g)) <= 1e-12 * max(1.0, norm_sq(g))


@pytest.mark.parametrize("m,r", [(2, 0), (2, 1), (3, 2)])
def test_orbit_confined_to_residue_class(m, r):
    rng = np.random.default_rng(7 * m + r)
    coeffs = np.zeros(r + 3 * m + 1, dtype=complex)
    for t in range(4):
        coeffs[r + t * m] = rng.standard_normal() + 1j * rng.standard_normal()
    orb = make_orbit(SymbolSpec.monomial(m), coeffs, 10, 32)
    for row in orb.V:
        assert set(class_support(series_from_coeffs(row), m)) <= {r}


# -- image vs circle ---------------------------------------------------------------


def test_image_half_shift_misses_circle():
    sym = realize(SymbolSpec.scaled_shift(0.5), 8)
    report = image_circle_intersection(sym, BoundaryGrid(128), radial_levels=48)
    assert report.max_modulus < 0.51
    assert not report.intersects_circle


def test_image_shift_touches_circle_in_the_limit():
    sym = realize(SymbolSpec.monomial(1), 8)
    report = image_circle_intersection(sym, BoundaryGrid(128), radial_levels=48)
    assert report.intersects_circle
    assert report.max_modulus >= 1.0 - 1e-9


def test_image_constant_two_outside():
    sym = realize(SymbolSpec.constant(2.0), 8)
    report = image_circle_intersection(sym, BoundaryGrid(128), radial_levels=48)
    assert report.min_modulus == 2.0
    assert not report.intersects_circle


def test_image_rings_are_the_unique_radii(monkeypatch):
    # the rings are the radii np.unique would give, bit for bit and in order
    ring_radii = []

    def recording(sym, grid, r):
        ring_radii.append(r)
        return boundary_values(sym, grid, r)

    monkeypatch.setattr(diagnostics, "boundary_values", recording)
    sym = realize(SymbolSpec.monomial(1), 8)
    for levels in range(2, 65):
        ring_radii.clear()
        image_circle_intersection(sym, BoundaryGrid(64), radial_levels=levels)
        halves = 2.0 ** -np.arange(1, levels + 1)
        radii = np.unique(np.concatenate([halves, 1.0 - halves]))
        expected = radii[(radii > 0.0) & (radii < 1.0)]
        assert np.array(ring_radii).tobytes() == expected.tobytes(), levels


def test_image_requires_two_levels():
    sym = realize(SymbolSpec.monomial(1), 8)
    with pytest.raises(ValueError):
        image_circle_intersection(sym, BoundaryGrid(128), radial_levels=1)
