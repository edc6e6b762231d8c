import numpy as np
import pytest

from hardyframes.diagnostics import (
    RANK_REL_TOL,
    class_support,
    cyclicity_rank,
    kernel_orthogonality_witness,
    reproducing_kernel,
    zeros_in_disk,
)
from hardyframes.frames import frame_bounds_estimate, partial_frame_sums
from hardyframes.orbits import orbit
from hardyframes.series import (
    BoundaryGrid,
    TruncatedSeries,
    boundary_samples,
    series_from_coeffs,
)
from hardyframes.symbols import (
    CIRCLE_TOL,
    SymbolSpec,
    boundary_modulus,
    evaluate_symbol,
    realize,
)
from hardyframes.verify import _scaled_blaschke_polynomial


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
    assert np.array_equal(kv.coeffs, np.eye(7)[0])
    g = seed([3, 1, -2], 6)
    assert np.vdot(kv.coeffs, g.coeffs) == 3.0


def test_kernel_evaluates_one_minus_z():
    kv = reproducing_kernel(0.5, 8)
    g = seed([1, -1], 8)
    assert abs(np.vdot(kv.coeffs, g.coeffs) - 0.5) < 1e-15


def test_kernel_monomial_pairing_is_power():
    z0 = 0.3 - 0.4j
    kv = reproducing_kernel(z0, 10)
    for k in (0, 2, 7):
        assert abs(np.vdot(kv.coeffs, np.eye(11)[k]) - z0**k) < 1e-15


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
        assert abs(np.vdot(kv.coeffs, g.coeffs) - value) < 1e-10


def test_kernel_center_must_be_interior():
    with pytest.raises(ValueError):
        reproducing_kernel(1.0, 4)


# -- kernel orthogonality witness ----------------------------------------------


def test_witness_bounded_away_without_disk_zero():
    orb = make_orbit(SymbolSpec.monomial(1), [1, -1], 16, 24)
    # the pairings are |z0^n f(z0)| = 0.7 * 0.3^n, largest at n = 0
    assert abs(kernel_orthogonality_witness(orb, 0.3) - 0.7) < 1e-15


def test_witness_vanishes_at_seed_zero():
    orb = make_orbit(SymbolSpec.monomial(1), [-0.5, 1], 64, 64)
    assert kernel_orthogonality_witness(orb, 0.5) < 1e-10


def test_witness_seed_one():
    orb = make_orbit(SymbolSpec.monomial(1), [1], 8, 8)
    # the pairings are |z0|^n, largest (1) at the seed
    assert abs(kernel_orthogonality_witness(orb, 0.25 + 0.1j) - 1.0) < 1e-15


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
            assert kernel_orthogonality_witness(orb, z0) < 1e-9 * max_norm


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
    # the orbit of z^m from seed z^r runs over the basis of class r mod m;
    # its frame sums split ||g||^2 into the classes' parts
    rng = np.random.default_rng(m)
    probes = np.array(
        [rng.standard_normal(16) + 1j * rng.standard_normal(16) for _ in range(100)]
    )
    parts = np.zeros(100)
    for r in range(m):
        orb = make_orbit(SymbolSpec.monomial(m), np.eye(1, r + 1, r)[0], 15 // m, 15)
        assert class_support(series_from_coeffs(orb.V.sum(axis=0)), m) == (r,)
        sums = partial_frame_sums(probes, orb)[-1]
        part = np.einsum("ij,ij->i", probes[:, r::m].conj(), probes[:, r::m]).real
        assert np.all(np.abs(sums - part) <= 1e-12 * np.maximum(1.0, part))
        parts += sums
    nsq = np.einsum("ij,ij->i", probes.conj(), probes).real
    assert np.all(np.abs(parts - nsq) <= 1e-12 * np.maximum(1.0, nsq))


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
    report = boundary_modulus(SymbolSpec.scaled_shift(0.5), BoundaryGrid(128))
    assert report.max_modulus < 0.51
    assert not report.intersects_circle


def test_image_shift_touches_circle_in_the_limit():
    report = boundary_modulus(SymbolSpec.monomial(1), BoundaryGrid(128))
    assert report.intersects_circle
    assert report.max_modulus >= 1.0 - 1e-9


def test_image_constant_two_outside():
    report = boundary_modulus(SymbolSpec.constant(2.0), BoundaryGrid(128))
    assert report.min_modulus == 2.0
    assert not report.intersects_circle


def _ring_values(sym, grid, r):
    """The realized symbol on the ring r * grid.points: the closed form
    there, or one FFT of a_n r^n of a polynomial's expansion."""
    if sym.spec.kind != "polynomial":
        return evaluate_symbol(sym.spec, r * grid.points)
    coeffs = sym.series.coeffs * r ** np.arange(sym.series.coeffs.size)
    return boundary_samples(TruncatedSeries(coeffs), grid)


def _ring_scan(sym, grid, radial_levels=48) -> bool:
    """Reference: scan |phi| on the rings r_i e^{i theta_j} with radii 2^-i
    and 1 - 2^-i (i <= 48, 95 distinct radii in (0, 1)); sampled moduli
    straddling 1 within 1e-9 mean the image meets the circle."""
    halves = 2.0 ** -np.arange(1, radial_levels + 1)
    radii = np.unique(np.concatenate([halves, 1.0 - halves]))
    radii = radii[(radii > 0.0) & (radii < 1.0)]
    assert radii.size == 95
    min_mod = np.inf
    max_mod = 0.0
    for r in radii:
        moduli = np.abs(_ring_values(sym, grid, r))
        min_mod = min(min_mod, float(np.min(moduli)))
        max_mod = max(max_mod, float(np.max(moduli)))
    return (min_mod <= 1.0 + CIRCLE_TOL) and (max_mod >= 1.0 - CIRCLE_TOL)


def _random_polynomials(count: int) -> list:
    """Degrees 1..6, a third with a dominant constant term (zero-free in
    the disk), each scaled to sum |a_n| in [0.1, 10]."""
    rng = np.random.default_rng(21)
    out = []
    for _ in range(count):
        deg = int(rng.integers(1, 7))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        if rng.uniform() < 1 / 3:
            c[0] *= 3 * np.sum(np.abs(c[1:])) / abs(c[0])
        c *= 10 ** rng.uniform(-1, 1) / np.sum(np.abs(c))
        out.append(SymbolSpec.polynomial(c))
    return out


IMAGE_SPECS = (
    [SymbolSpec.constant(c) for c in (0.5, 2.0, 1.0, np.exp(0.3j), 0.0, -1.0000001)]
    + [SymbolSpec.monomial(m) for m in (0, 1, 3)]
    + [SymbolSpec.scaled_shift(c) for c in (0.5, 1.0, np.exp(2j), -2.0)]
    + [
        SymbolSpec.blaschke([0.5]),
        SymbolSpec.blaschke([0.3 + 0.4j, -0.6], prefactor=np.exp(0.4j)),
        SymbolSpec.blaschke([], prefactor=np.exp(1j)),
    ]
    + [
        SymbolSpec.polynomial(c)
        for c in (
            [2, 0, 5],  # |.| >= 3 on T, zeros at |z| ~ 0.63: meets T
            [5, 1],  # zero-free in the disk: misses T
            [1, 1],
            [0.25, 0.25],
            [3, -1],
            [0, 0, 0.5, 0.3],
            [-0.5, 1],
            [1.5, 0, 0, 0, 0.5],  # |.| = 1 exactly where z^4 = -1
        )
    ]
    + _random_polynomials(60)
)


@pytest.mark.parametrize("order", [8, 64])
def test_image_rule_agrees_with_the_ring_scan(order):
    # the rule reads the spec; the scan reads the expansion to the order
    assert len(IMAGE_SPECS) == 84
    grid = BoundaryGrid(512)
    verdicts = set()
    for spec in IMAGE_SPECS:
        report = boundary_modulus(spec, grid)
        assert report.intersects_circle == _ring_scan(realize(spec, order), grid), spec
        verdicts.add((report.intersects_circle, report.max_modulus < 1.0))
    # the battery reaches all three answers: inside, outside, meets T
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_image_rule_agrees_with_the_ring_scan_on_p4i_symbols():
    grid = BoundaryGrid(2048)
    for spec in (_scaled_blaschke_polynomial(0.9, 0.5, 256), SymbolSpec.constant(2.0)):
        report = boundary_modulus(spec, grid)
        assert not report.intersects_circle
        assert _ring_scan(realize(spec, 256), grid) is False


def test_image_zero_test_decides_outside_polynomials():
    grid = BoundaryGrid(512)
    meets = boundary_modulus(SymbolSpec.polynomial([2, 0, 5]), grid)
    assert meets.min_modulus > 2.99 and meets.intersects_circle
    misses = boundary_modulus(SymbolSpec.polynomial([5, 1]), grid)
    assert misses.min_modulus > 3.99 and not misses.intersects_circle
    # 2z vanishes at 0, whatever order its expansion is cut to
    shift = boundary_modulus(SymbolSpec.scaled_shift(2.0), grid)
    assert shift.min_modulus > 1.99 and shift.intersects_circle


def test_image_zero_test_reads_zeros_past_the_order():
    # 3 + 5z^12 has |phi| >= 2 on T and its zeros at |z| = 0.6^(1/12) < 1,
    # while its expansion cut to order N = 8 is the zero-free constant 3
    report = boundary_modulus(SymbolSpec.polynomial([3] + [0] * 11 + [5]), BoundaryGrid(64))
    assert report.min_modulus > 1.99 and report.max_modulus > 7.99
    assert report.intersects_circle


# -- norm trend ----------------------------------------------------------------------
# ||phi^n f||^2 is the integral over T of |phi|^(2n) |f|^2, so the norms
# decay iff |phi| < 1 a.e. on T and grow iff |phi| > 1 somewhere


@pytest.mark.parametrize(
    "coeffs, seed_coeffs",
    [([0.5, 0.5], [1]), ([0.5, 0, 0.5], [1]), ([0.5, 0.5], [1, -1])],
    ids=["one_plus_z", "one_plus_z2", "one_plus_z_seed_one_minus_z"],
)
def test_norm_trend_of_contractions_touching_the_circle(coeffs, seed_coeffs):
    # |phi| = 1 only where z^d = 1, so the norms decay, but polynomially:
    # ||((1+z)/2)^n||^2 = C(2n, n) / 4^n ~ (pi n)^(-1/2)
    sym = realize(SymbolSpec.polynomial(coeffs), 1024)
    orb = orbit(sym, seed(seed_coeffs, 1024), 1024, 1024)
    if seed_coeffs == [1] and coeffs == [0.5, 0.5]:
        n = np.arange(1, 1025)
        exact = np.concatenate([[1.0], np.cumprod((2 * n - 1) / (2 * n))])
        assert np.max(np.abs(orb.norms**2 - exact) / exact) < 1e-12
    assert np.all(np.diff(orb.norms) < 0)
    report = boundary_modulus(sym.spec, BoundaryGrid(8192))
    assert report.norm_trend == "decays_to_zero"
    assert abs(report.max_modulus - 1.0) <= CIRCLE_TOL


def test_norm_trend_of_an_inner_symbol_is_bounded():
    # blaschke(0.5) is inner: ||phi^n|| = 1, while the rows cut to N = 64 lose
    # mass as n grows
    sym = realize(SymbolSpec.blaschke([0.5]), 64)
    orb = orbit(sym, seed([1], 64), 64, 64)
    assert orb.norms[-1] < 0.9
    report = boundary_modulus(sym.spec, BoundaryGrid(512))
    assert report.norm_trend == "bounded_non_decaying"
    assert abs(report.max_modulus - 1.0) <= CIRCLE_TOL
