import dataclasses

import numpy as np
import pytest

from hardyframes.jsonio import dumps_canonical
from hardyframes.orbits import orbit_for
from hardyframes.series import BoundaryGrid, mul, series_from_coeffs
from hardyframes.symbols import (
    SymbolSpec,
    boundary_modulus,
    boundary_values,
    describe,
    evaluate_symbol,
    realize,
    spec_from_json,
    spec_to_json,
    vanishes_in_disk,
)


def blaschke_rational(zeros, prefactor, points):
    """Independent oracle: direct rational evaluation of a Blaschke product."""
    vals = np.full(np.shape(points), complex(prefactor))
    z = np.asarray(points, dtype=complex)
    for a in zeros:
        a = complex(a)
        if a == 0:
            vals = vals * z
        else:
            vals = vals * (abs(a) / a) * (a - z) / (1 - np.conj(a) * z)
    return vals


# -- spec validation -----------------------------------------------------------


def test_spec_rejects_bad_blaschke_zero():
    with pytest.raises(ValueError):
        SymbolSpec.blaschke([1.0])
    with pytest.raises(ValueError):
        SymbolSpec.blaschke([0.5 + 0.9j])


def test_spec_rejects_non_unimodular_prefactor():
    with pytest.raises(ValueError):
        SymbolSpec.blaschke([0.5], prefactor=0.9)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        SymbolSpec(kind="mystery")


@pytest.mark.parametrize("power", [2.7, 2.0, "2"])
def test_monomial_power_must_be_an_integer(power):
    with pytest.raises(ValueError, match="integer"):
        SymbolSpec.monomial(power)
    with pytest.raises(ValueError, match="integer"):
        SymbolSpec(kind="monomial", power=power)


@pytest.mark.parametrize("power", [2, np.int64(2), np.uint8(2)])
def test_monomial_power_takes_python_and_numpy_ints(power):
    spec = SymbolSpec.monomial(power)
    assert spec == SymbolSpec(kind="monomial", power=2) and type(spec.power) is int


# -- realize -------------------------------------------------------------------


def test_realize_shift():
    sym = realize(SymbolSpec.monomial(1), 4)
    assert np.array_equal(sym.series.coeffs, [0, 1, 0, 0, 0])
    assert sym.sup_norm_estimate == 1.0
    assert sym.series_exact and sym.degree == 1


def test_realize_constant_half():
    sym = realize(SymbolSpec.constant(0.5), 3)
    assert np.array_equal(sym.series.coeffs, [0.5, 0, 0, 0])
    assert sym.sup_norm_estimate == 0.5


_VALUES = (0.5, -1.25 + 0.5j, 0)


@pytest.mark.parametrize(
    "spec, direct",
    [
        *((SymbolSpec.constant(c), SymbolSpec(kind="constant", value=c)) for c in _VALUES),
        *((SymbolSpec.scaled_shift(c), SymbolSpec(kind="scaled_shift", value=c)) for c in _VALUES),
        *((SymbolSpec.monomial(m), SymbolSpec(kind="monomial", power=m)) for m in (0, 1, 3)),
    ],
    ids=describe,
)
def test_one_term_kinds_are_the_one_coefficient_polynomial(spec, direct):
    # a constant, c*z and z^m are value * z^power, as the polynomial with
    # that one coefficient, below, at and past the power
    assert direct == spec and hash(direct) == hash(spec)
    poly = SymbolSpec.polynomial([0] * spec.power + [spec.value])
    for order in (spec.power - 1, spec.power, spec.power + 5):
        if order < 0:
            continue
        got, want = realize(spec, order), realize(poly, order)
        assert got.series.coeffs.tobytes() == want.series.coeffs.tobytes()
        assert (got.degree, got.series_exact) == (want.degree, want.series_exact)
        assert got.sup_norm_estimate == abs(spec.value)


def test_realize_blaschke_half_coefficients():
    sym = realize(SymbolSpec.blaschke([0.5]), 8)
    assert np.allclose(
        sym.series.coeffs[:4], [0.5, -0.75, -0.375, -0.1875], atol=1e-15
    )
    # general term: -(1 - a^2) * a^(n-1) for real a
    n = np.arange(1, 9)
    assert np.allclose(sym.series.coeffs[1:], -(0.75) * 0.5 ** (n - 1), atol=1e-15)
    assert not sym.series_exact and sym.degree is None


def _parent_factor_coeffs(a, order):
    """Coefficients 1..order of a Blaschke factor in plain complex
    arithmetic: the reference for a complex zero, and for the real parts
    of a real one."""
    n = np.arange(1, order + 1)
    return -(abs(a) / a) * (1.0 - abs(a) ** 2) * np.conj(a) ** (n - 1)


def test_negative_real_zero_gives_exactly_real_coefficients():
    a = -0.35 + 0j
    coeffs = realize(SymbolSpec.blaschke([a]), 256).series.coeffs
    # the complex power of conj(a) leaves imaginary rounding up to ~1e-60
    assert np.count_nonzero(_parent_factor_coeffs(a, 256).imag) > 0
    assert np.count_nonzero(coeffs.imag) == 0
    assert coeffs[0] == abs(a)
    assert coeffs.real[1:].tobytes() == _parent_factor_coeffs(a, 256).real.tobytes()


def test_real_seed_orbit_of_real_zeros_is_real():
    orb = orbit_for(SymbolSpec.blaschke([-0.35, 0.2]), (1.0, -0.5), 256, 64)
    assert np.count_nonzero(orb.symbol.series.coeffs.imag) == 0
    assert np.count_nonzero(orb.V.imag) == 0


def test_complex_zero_expansion_is_unchanged():
    a = 0.3 + 0.4j
    coeffs = realize(SymbolSpec.blaschke([a]), 256).series.coeffs
    assert coeffs[0] == abs(a)
    assert coeffs[1:].tobytes() == _parent_factor_coeffs(a, 256).tobytes()


def test_realize_blaschke_zeros_at_origin_is_monomial():
    sym = realize(SymbolSpec.blaschke([0, 0], prefactor=1j), 5)
    expected = np.zeros(6, dtype=complex)
    expected[2] = 1j
    assert np.allclose(sym.series.coeffs, expected, atol=1e-16)
    assert sym.series_exact and sym.degree == 2


@pytest.mark.parametrize("order", [16, 24, 32])
def test_blaschke_truncation_error_geometric(order):
    # |series - rational| on the boundary is controlled by the coefficient
    # tail: C * |a|^(N+1) with C = 3 (sum of the dropped geometric terms)
    a = 0.5
    sym = realize(SymbolSpec.blaschke([a]), order)
    grid = BoundaryGrid(512)
    series_vals = np.array(
        [sum(c * w**k for k, c in enumerate(sym.series.coeffs)) for w in grid.points]
    )
    exact_vals = blaschke_rational([a], 1.0, grid.points)
    err = np.max(np.abs(series_vals - exact_vals))
    assert err <= 3.0 * a ** (order + 1)


def test_realize_polynomial_exactness_metadata():
    sym = realize(SymbolSpec.polynomial([1, 0, 2]), 5)
    assert sym.series_exact and sym.degree == 2
    clipped = realize(SymbolSpec.polynomial([1, 0, 2]), 1)
    assert not clipped.series_exact


# -- innerness -----------------------------------------------------------------


def test_innerness_monomial():
    report = boundary_modulus(SymbolSpec.monomial(3), BoundaryGrid(256))
    assert report.verdict == "inner"
    assert report.max_deviation < 1e-12


def test_innerness_constant_half_is_non_inner():
    report = boundary_modulus(SymbolSpec.constant(0.5), BoundaryGrid(256))
    assert report.verdict == "non_inner"
    assert report.sub_unit_fraction == 1.0


def test_innerness_blaschke_rational_evaluation():
    report = boundary_modulus(SymbolSpec.blaschke([0.5]), BoundaryGrid(256))
    assert report.verdict == "inner"
    assert report.max_deviation < 1e-12


@pytest.mark.parametrize("grid_size", [256, 1024, 4096])
@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec.monomial(2),
        SymbolSpec.blaschke([0.5, 0.3j]),
        SymbolSpec.blaschke([0, 0.25]),
        SymbolSpec.constant(np.exp(0.7j)),
        SymbolSpec.scaled_shift(np.exp(-1.1j)),
    ],
)
def test_structurally_inner_verdicts(spec, grid_size):
    report = boundary_modulus(spec, BoundaryGrid(grid_size))
    assert report.verdict == "inner"
    assert report.max_deviation < 1e-9


def test_innerness_constant_two_non_inner_without_subunit_points():
    report = boundary_modulus(SymbolSpec.constant(2.0), BoundaryGrid(256))
    assert report.verdict == "non_inner"
    assert report.sub_unit_fraction == 0.0


@pytest.mark.parametrize("m", [10**8, 2**62])
def test_huge_monomial_power_is_exact_on_the_grid(m):
    # z_j^m is the grid point m j mod M; numpy's z**m drifts off the circle
    # (|z^m| - 1 = 6.8e-9 at m = 10^8, and |z^m| up to 1e137 at m = 2^62)
    report = boundary_modulus(SymbolSpec.monomial(m), BoundaryGrid(64))
    assert report.verdict == "inner"
    assert report.max_deviation < 1e-15
    assert report.norm_trend == "bounded_non_decaying"


def test_polynomial_past_the_order_is_read_in_full():
    # z^12 as a polynomial: its expansion cut to order 8 is 0, but the
    # symbol on T and in D reads all 13 coefficients, as z^12 itself does,
    # and on a grid of M = 8 < 13 points too
    spec = SymbolSpec.polynomial([0] * 12 + [1])
    assert not realize(spec, 8).series.coeffs.any()
    for size in (64, 8):
        grid = BoundaryGrid(size)
        report = boundary_modulus(spec, grid)
        assert report.verdict == boundary_modulus(SymbolSpec.monomial(12), grid).verdict
        assert report.verdict == "inner"
        assert report.max_deviation < 1e-15
        assert report.norm_trend == "bounded_non_decaying"
    assert evaluate_symbol(spec, np.array([0.5])) == 0.5**12


@pytest.mark.parametrize("zeros, vanishes", [([], False), ([0.5], True), ([0], True)])
def test_blaschke_vanishes_in_disk_iff_it_has_a_zero(zeros, vanishes):
    # every zero lies in D by construction, and a zero at 0 counts
    assert vanishes_in_disk(SymbolSpec.blaschke(zeros)) is vanishes


# -- the product value * z^power * B * p ----------------------------------------

# every factor present and non-trivial; no named constructor builds it
PRODUCT = SymbolSpec(
    kind="blaschke", value=0.9, power=2, zeros=(0.3, -0.2j), coeffs=(1, -0.5)
)


def _product_oracle(points):
    z = np.asarray(points, dtype=complex)
    return blaschke_rational(PRODUCT.zeros, 1.0, z) * 0.9 * z**2 * (1 - 0.5 * z)


def test_product_spec_is_read_factor_by_factor():
    grid = BoundaryGrid(256)
    pts = np.array([0.0, 0.3 + 0.2j, -0.7j, 0.99, 0.5 - 0.5j])
    assert np.max(np.abs(evaluate_symbol(PRODUCT, pts) - _product_oracle(pts))) < 1e-15
    got = boundary_values(PRODUCT, grid)
    assert np.max(np.abs(got - _product_oracle(grid.points))) < 1e-14
    # z^2 and B are unimodular on T, so |phi| there is 0.9 |1 - z/2|
    report = boundary_modulus(PRODUCT, grid)
    want = 0.9 * np.abs(1 - grid.points / 2)
    assert abs(report.min_modulus - want.min()) < 1e-15  # 0.45 at z = 1
    assert abs(report.max_modulus - want.max()) < 1e-15  # 1.35 at z = -1
    assert report.verdict == "non_inner" and report.norm_trend == "grows"


def test_product_spec_vanishes_where_a_factor_does():
    assert vanishes_in_disk(PRODUCT)  # z^2, and B at 0.3 and -0.2i
    outer = dataclasses.replace(PRODUCT, power=0, zeros=())  # 0.9 (1 - z/2)
    assert not vanishes_in_disk(outer)
    assert vanishes_in_disk(dataclasses.replace(outer, coeffs=(1, -2)))  # root 1/2


@pytest.mark.parametrize("order", [1, 2, 8, 40])
def test_product_series_is_the_product_of_the_factor_series(order):
    factors = [
        realize(SymbolSpec.scaled_shift(0.9), order).series,
        realize(SymbolSpec.blaschke([0.3, -0.2j]), order).series,
        realize(SymbolSpec.monomial(1), order).series,
        series_from_coeffs([1, -0.5], order),
    ]
    want = factors[0]
    for factor in factors[1:]:
        want = mul(want, factor, order)
    sym = realize(PRODUCT, order)
    assert np.max(np.abs(sym.series.coeffs - want.coeffs)) < 1e-15
    assert not sym.series_exact and sym.degree is None
    assert abs(sym.sup_norm_estimate - 0.9 * 1.5) < 1e-15


def test_product_with_every_zero_at_the_origin_has_a_degree():
    # 0.9 z^2 * z^2 * (1 - z/2) is the polynomial 0.9 z^4 - 0.45 z^5
    spec = dataclasses.replace(PRODUCT, zeros=(0, 0))
    assert realize(spec, 5).series.coeffs.tolist() == [0, 0, 0, 0, 0.9, -0.45]
    assert (realize(spec, 5).degree, realize(spec, 4).series_exact) == (5, False)


# -- sup norm -------------------------------------------------------------------


def test_sup_norm_examples():
    # closed forms: |c| for a constant or c*z, 1 for a Blaschke product
    assert realize(SymbolSpec.constant(0.3 - 0.4j), 4).sup_norm_estimate == 0.5
    assert realize(SymbolSpec.scaled_shift(0.5), 4).sup_norm_estimate == 0.5
    assert realize(SymbolSpec.blaschke([0.5, -0.2j]), 16).sup_norm_estimate == 1.0
    # a polynomial: the largest modulus on a grid of M > 4N points
    one_minus_z = realize(SymbolSpec.polynomial([1, -1]), 4).sup_norm_estimate
    assert abs(one_minus_z - 2.0) < 1e-15


def test_sup_norm_submultiplicative_on_common_grid():
    # orders 5 and 10 share the default grid of 256 points
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        q = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        sp = realize(SymbolSpec.polynomial(p), 5)
        sq = realize(SymbolSpec.polynomial(q), 5)
        prod_series = mul(sp.series, sq.series, 10)
        sprod = realize(SymbolSpec.polynomial(prod_series.coeffs), 10)
        lhs = sprod.sup_norm_estimate
        rhs = sp.sup_norm_estimate * sq.sup_norm_estimate
        assert lhs <= rhs + 1e-9


def test_boundary_values_match_series_for_polynomials():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    grid = BoundaryGrid(64)
    vals = boundary_values(SymbolSpec.polynomial(coeffs), grid)
    brute = np.array(
        [sum(c * w**k for k, c in enumerate(coeffs)) for w in grid.points]
    )
    assert np.max(np.abs(vals - brute)) < 1e-12


def test_evaluate_symbol_blaschke_matches_oracle_inside():
    zeros = [0.5, -0.3j]
    spec = SymbolSpec.blaschke(zeros, prefactor=np.exp(0.4j))
    pts = np.array([0.0, 0.3 + 0.2j, -0.7j, 0.99])
    got = evaluate_symbol(spec, pts)
    want = blaschke_rational(zeros, np.exp(0.4j), pts)
    assert np.max(np.abs(got - want)) < 1e-14


# -- values on the circle ---------------------------------------------------------

EPS = np.finfo(float).eps


def test_ring_values_of_a_polynomial_match_horner():
    # one FFT of the coefficients against Horner at the grid points, within
    # (N+1) eps sum |a_n|
    rng = np.random.default_rng(80)
    coeffs = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    spec = SymbolSpec.polynomial(coeffs)
    grid = BoundaryGrid(512)
    got = boundary_values(spec, grid)
    horner = evaluate_symbol(spec, grid.points)
    assert np.max(np.abs(got - horner)) <= 81 * EPS * np.sum(np.abs(coeffs))


@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec.constant(0.3 - 0.7j),
        SymbolSpec.monomial(3),
        SymbolSpec.scaled_shift(-1.25 + 0.5j),
        SymbolSpec.blaschke([0.5, -0.3j, 0], prefactor=np.exp(0.4j)),
    ],
    ids=["constant", "monomial", "scaled_shift", "blaschke"],
)
def test_ring_values_of_closed_forms_are_the_closed_form(spec):
    grid = BoundaryGrid(128)
    got = boundary_values(spec, grid)
    if spec.power >= 2:
        # z_j^m is itself the grid point m j mod M; numpy's z**m, which
        # powers the rounded z_j, lies within 16 eps of it at m = 3
        assert got.tobytes() == grid.points[spec.power * np.arange(128) % 128].tobytes()
        assert np.max(np.abs(got - evaluate_symbol(spec, grid.points))) <= 16 * EPS
    else:
        assert got.tobytes() == evaluate_symbol(spec, grid.points).tobytes()


@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec.constant(0.5 - 2j),
        SymbolSpec.monomial(3),
        SymbolSpec.scaled_shift(-1.25),
        SymbolSpec.polynomial([1.0, 0.0, 0.3j]),
        SymbolSpec.blaschke([0.5, -0.2 + 0.3j], prefactor=1j),
    ],
    ids=["constant", "monomial", "scaled_shift", "polynomial", "blaschke"],
)
def test_named_specs_round_trip_through_json(spec):
    obj = spec_to_json(spec)
    again = spec_from_json(obj)
    assert again == spec
    assert dumps_canonical(spec_to_json(again)) == dumps_canonical(obj)


@pytest.mark.parametrize(
    "spec",
    [
        SymbolSpec(kind="blaschke", zeros=(0.3,), power=2),  # no power field
        SymbolSpec(kind="blaschke", zeros=(0.5,), value=0.9),  # prefactor not unimodular
        SymbolSpec(kind="constant", value=2.0, coeffs=(1.0, 2.0)),  # no coeffs field
    ],
    ids=["blaschke-power", "blaschke-value", "constant-coeffs"],
)
def test_spec_to_json_refuses_a_spec_its_kind_cannot_carry(spec):
    # each would be written as another spec, or as one spec_from_json refuses
    with pytest.raises(ValueError, match="cannot carry"):
        spec_to_json(spec)
