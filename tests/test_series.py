import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from hardyframes.series import (
    BoundaryGrid,
    boundary_samples,
    mul,
    series_from_coeffs,
)

finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=12)

# Gaussian-integer coefficients make float arithmetic exact, so identities
# that hold coefficientwise can be asserted bitwise.
int_complex = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8))
int_coeff_lists = st.lists(int_complex, min_size=1, max_size=8)


def brute_force_product(a, b, target_order):
    """Independent convolution oracle: nested loops, no numpy convolve."""
    out = [0j] * (target_order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= target_order:
                out[i + j] += ai * bj
    return np.array(out)


# -- construction -------------------------------------------------------------


def test_from_coeffs_order():
    assert series_from_coeffs([1]).order == 0
    assert series_from_coeffs([1, -1]).order == 1
    s = series_from_coeffs([0, 0, 1])
    assert s.order == 2 and s.coeffs[2] == 1


def test_from_coeffs_rejects_bad_input():
    with pytest.raises(ValueError):
        series_from_coeffs([])
    with pytest.raises(ValueError):
        series_from_coeffs([np.nan])
    with pytest.raises(ValueError):
        series_from_coeffs([1.0, np.inf])


def test_coeffs_are_immutable():
    s = series_from_coeffs([1, 2])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0


def test_exact_degree():
    assert series_from_coeffs([1, -1, 0]).exact_degree() == 1
    assert series_from_coeffs(np.zeros(5)).exact_degree() is None


# -- mul ----------------------------------------------------------------------


def test_mul_monomials():
    z = series_from_coeffs([0, 1])
    z2 = mul(z, z, 2)
    assert np.array_equal(z2.coeffs, [0, 0, 1])


@pytest.mark.parametrize("n", [1, 5, 17])
def test_mul_telescoping(n):
    # (1 - z) * (1 + z + ... + z^n) truncated at n collapses to 1
    ones = series_from_coeffs(np.ones(n + 1))
    factor = series_from_coeffs([1, -1])
    prod = mul(factor, ones, n)
    expected = brute_force_product(factor.coeffs, ones.coeffs, n)
    assert np.array_equal(prod.coeffs, expected)
    assert np.array_equal(prod.coeffs, np.eye(n + 1)[0])


def test_mul_constant_is_scaling():
    f = series_from_coeffs([1, 2, 3])
    c = series_from_coeffs([0.5j])
    assert np.array_equal(mul(c, f, 2).coeffs, 0.5j * f.coeffs)


@given(int_coeff_lists, int_coeff_lists)
def test_mul_commutative(a, b):
    fa, fb = series_from_coeffs(a), series_from_coeffs(b)
    t = len(a) + len(b) - 2
    assert np.array_equal(mul(fa, fb, t).coeffs, mul(fb, fa, t).coeffs)


@given(int_coeff_lists, int_coeff_lists, int_coeff_lists)
def test_mul_associative_up_to_target(a, b, c):
    fa, fb, fc = map(series_from_coeffs, (a, b, c))
    t = len(a) + len(b) + len(c)
    left = mul(mul(fa, fb, t), fc, t)
    right = mul(fa, mul(fb, fc, t), t)
    assert np.array_equal(left.coeffs, right.coeffs)


@given(st.integers(70, 100), st.integers(0, 2**32 - 1))
def test_mul_fft_matches_direct(size, seed):
    # operands above the orbit's FFT threshold still convolve directly:
    # bit for bit np.convolve, cut to the target order
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    b = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    t = int(rng.integers(size, 2 * size - 1))
    got = mul(series_from_coeffs(a), series_from_coeffs(b), t).coeffs
    assert got.tobytes() == np.convolve(a, b)[: t + 1].tobytes()


@given(st.integers(70, 100), st.integers(0, 2**32 - 1))
def test_mul_fft_of_real_operands_is_exactly_real(size, seed):
    # two real operands: the direct convolution's imaginary part is +0.0
    # everywhere, and the product is np.convolve's bit for bit
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(size)
    b = rng.standard_normal(size)
    t = 2 * size - 2
    got = mul(series_from_coeffs(a), series_from_coeffs(b), t).coeffs
    assert np.all(got.imag == 0.0) and not np.signbit(got.imag).any()
    want = np.convolve(a.astype(complex), b.astype(complex))[: t + 1]
    assert got.tobytes() == want.tobytes()


# -- boundary sampling ----------------------------------------------------------


def test_boundary_constant():
    samples = boundary_samples(series_from_coeffs([1]), BoundaryGrid(8))
    assert np.allclose(samples, 1.0, atol=1e-15)


def test_boundary_shift_fourth_roots():
    samples = boundary_samples(series_from_coeffs([0, 1]), BoundaryGrid(4))
    assert np.allclose(samples, [1, 1j, -1, -1j], atol=1e-15)
    # z^5 = z on the fourth roots of unity: index 5 folds onto index 1
    folded = boundary_samples(series_from_coeffs(np.eye(6)[5]), BoundaryGrid(4))
    assert np.allclose(folded, [1, 1j, -1, -1j], atol=1e-15)


def test_boundary_one_minus_z_vanishes_at_one():
    samples = boundary_samples(series_from_coeffs([1, -1]), BoundaryGrid(8))
    assert abs(samples[0]) < 1e-15


def quadrature_norm(values):
    """sqrt((1/M) sum |v_j|^2): the norm of a series of order N from its
    values on M > 2N points of the circle."""
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def test_norm_via_boundary_matches():
    f = series_from_coeffs([1, -1])
    val = quadrature_norm(boundary_samples(f, BoundaryGrid(8)))
    assert abs(val - np.sqrt(2)) < 1e-10


@given(coeff_lists)
def test_discrete_parseval(coeffs):
    f = series_from_coeffs(coeffs)
    grid = BoundaryGrid(32)  # > 2 * max order 11
    val = quadrature_norm(boundary_samples(f, grid))
    norm = np.sqrt(np.vdot(f.coeffs, f.coeffs).real)
    assert abs(val - norm) <= 1e-10 * max(1.0, norm)
