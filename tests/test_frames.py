import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardyframes.frames import (
    bounds_from_singular_values,
    frame_bounds_estimate,
    gram,
    partial_frame_sums,
    section_bounds,
)
from hardyframes import orbits
from hardyframes.diagnostics import kernel_orthogonality_witness, reproducing_kernel
from hardyframes.orbits import _singular_values, orbit, orbit_for
from hardyframes.series import series_from_coeffs
from hardyframes.symbols import SymbolSpec, realize


EPS = np.finfo(float).eps


def seed(coeffs, order):
    out = np.zeros(order + 1, dtype=complex)
    arr = np.asarray(coeffs, dtype=complex)
    out[: arr.size] = arr
    return series_from_coeffs(out)


def make_orbit(spec, seed_coeffs, k, order):
    sym = realize(spec, order)
    return orbit(sym, seed(seed_coeffs, order), k, order)


# -- frame sums -----------------------------------------------------------------


def test_frame_sum_constant_half_geometric():
    orb = make_orbit(SymbolSpec.constant(0.5), [1], 60, 4)
    fs = partial_frame_sums(np.ones((1, 1)), orb)[-1, 0]
    oracle = float(np.cumsum(4.0 ** -np.arange(61, dtype=float))[-1])
    assert fs == oracle
    assert abs(fs - 4.0 / 3.0) < 1e-12


def test_frame_sum_half_shift_single_term():
    orb = make_orbit(SymbolSpec.scaled_shift(0.5), [1], 40, 40)
    # the probes z^0 .. z^32
    sums = partial_frame_sums(np.eye(33, 41), orb)[-1]
    assert np.array_equal(sums, 4.0 ** -np.arange(33))


def test_frame_sum_shift_equals_norm_squared():
    # Parseval: the pairings are g's coefficients, so the two sides differ
    # only in how the N + 1 squared moduli are summed (worst ratio seen:
    # 0.042 of the bound)
    orb = make_orbit(SymbolSpec.monomial(1), [1], 24, 24)
    rng = np.random.default_rng(3)
    probes = np.array(
        [rng.standard_normal(25) + 1j * rng.standard_normal(25) for _ in range(20)]
    )
    for g, fs in zip(probes, partial_frame_sums(probes, orb)[-1]):
        nsq = np.vdot(g, g).real
        assert abs(fs - nsq) <= 2 * (orb.order + 1) * EPS * nsq


def test_partial_sums_unimodular_counts():
    orb = make_orbit(SymbolSpec.constant(np.exp(1j * np.pi / 4)), [1], 40, 4)
    sums = partial_frame_sums(np.ones((1, 1)), orb)[:, 0]
    assert np.array_equal(sums, np.arange(1, 42, dtype=float))


def test_partial_sums_geometric_increments():
    orb = make_orbit(SymbolSpec.constant(0.5), [1], 10, 4)
    sums = partial_frame_sums(np.ones((1, 1)), orb)[:, 0]
    increments = np.diff(np.concatenate([[0.0], sums]))
    assert np.array_equal(increments, 4.0 ** -np.arange(11, dtype=float))


def test_partial_sums_orthogonal_g_all_zero():
    orb = make_orbit(SymbolSpec.monomial(2), [1], 10, 12)
    sums = partial_frame_sums(np.eye(1, 13, 1), orb)  # the probe z
    assert np.all(sums == 0.0)


def test_partial_sums_monotone_and_consistent():
    # a probe narrower than N + 1 pairs as its zero-padded self does
    orb = make_orbit(SymbolSpec.blaschke([0.4]), [1, 2j], 12, 16)
    g = np.array([[0.5, -1, 0.25j]])
    sums = partial_frame_sums(g, orb)
    assert np.all(np.diff(sums, axis=0) >= 0)
    padded = partial_frame_sums(seed(g[0], 16).coeffs[None], orb)
    assert np.all(np.abs(sums - padded) <= 4 * (orb.order + 1) * EPS * padded)


@pytest.mark.parametrize(
    "spec, seed_coeffs, dtype",
    [
        (SymbolSpec.polynomial([1, 1]), [1, 2, -1], float),
        (SymbolSpec.polynomial([1j, 1]), [1, -1 + 1j], complex),
    ],
    ids=["real", "complex"],
)
@pytest.mark.parametrize("width", [5, 13, 20])  # N + 1 = 13
def test_probe_matrix_sums_are_each_probes_own_sums(spec, seed_coeffs, dtype, width):
    # orbit, probes and sums are small (Gaussian) integers, so every product
    # and sum is exact and the order BLAS sums in cannot show: column j of
    # one product is probe j's own sums bit for bit, and equals the serial
    # pairings over its first N + 1 coefficients, zero-padded when narrower
    orb = make_orbit(spec, seed_coeffs, 12, 12)
    rng = np.random.default_rng(width)
    probes = rng.integers(-3, 4, (6, width)).astype(dtype)
    if dtype is complex:
        probes += 1j * rng.integers(-3, 4, (6, width))
    sums = partial_frame_sums(probes, orb)
    assert sums.shape == (13, 6)
    fitted = np.zeros((6, 13), dtype=dtype)
    fitted[:, :width] = probes[:, :13]
    assert partial_frame_sums(fitted, orb).tobytes() == sums.tobytes()
    for j, g in enumerate(probes):
        assert partial_frame_sums(g[None], orb)[:, 0].tobytes() == sums[:, j].tobytes()
        p = np.array([sum(v * np.conj(c) for v, c in zip(row, g)) for row in orb.V])
        assert np.array_equal(np.cumsum(p.real**2 + p.imag**2), sums[:, j])


# -- gram -----------------------------------------------------------------------


def test_gram_shift_identity():
    g = gram(make_orbit(SymbolSpec.monomial(1), [1], 2, 4))
    assert np.array_equal(g, np.eye(3, dtype=complex))


def test_gram_constant_half_rank_one():
    g = gram(make_orbit(SymbolSpec.constant(0.5), [1], 3, 2))
    m, n = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    assert np.array_equal(g, (2.0 ** -(m + n)).astype(complex))


def test_gram_squared_shift_identity():
    g = gram(make_orbit(SymbolSpec.monomial(2), [1], 3, 8))
    assert np.array_equal(g, np.eye(4, dtype=complex))


def test_gram_hermitian_psd_random_orbit():
    rng = np.random.default_rng(17)
    for _ in range(10):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        orb = make_orbit(SymbolSpec.blaschke([0.4, -0.2j]), coeffs, 10, 16)
        g = gram(orb)
        assert np.array_equal(g, g.conj().T)  # exact by construction
        w = np.linalg.eigvalsh(g)
        assert w[0] >= -1e-10 * max(w[-1], 0.0)


def _bits(x):
    """Raw IEEE bits, so -0.0 and +0.0 compare unequal."""
    return np.asarray(x, dtype=complex).view(np.int64)


def _reference_inner(a, b):
    """<a, b> for two vectors: separate real and imaginary products, each
    summed serially in ascending index order."""
    re = np.cumsum(a.real * b.real + a.imag * b.imag)[-1]
    im = np.cumsum(a.imag * b.real - a.real * b.imag)[-1]
    return complex(re, im)


def test_batched_reductions_match_scalar_inner_products_within_rounding():
    # Each pairing <a, b> is held to (N+1) eps ||a|| ||b|| of the serial
    # reference.  A partial sum carries its pairings' bound d_n through
    # |.|^2, as (2 |p_n| + d_n) d_n, plus the rounding of squaring and
    # summing n + 1 terms, (n + 3) eps of the sum, on each side.  Worst
    # ratios seen: 0.073 (inner products), 0.0079 (partial sums) and
    # 0.010 (kernel pairings) of their bounds.
    rng = np.random.default_rng(4242)
    def dense(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    cases = [
        ([0.4 * np.exp(0.7j), -0.3 + 0.2j], dense(4)),
        ([0.55j], dense(3)),
        ([0.5, -0.25], rng.standard_normal(4)),
    ]
    for zeros, coeffs in cases:
        orb = make_orbit(SymbolSpec.blaschke(zeros), coeffs, 24, 40)
        k = orb.length
        rel = (orb.order + 1) * EPS
        norms = np.linalg.norm(orb.V, axis=1)
        upper = np.array([[_reference_inner(orb.V[n], orb.V[m]) for n in range(k)]
                          for m in range(k)])
        scalar = np.array([[np.vdot(orb.V[m], orb.V[n]) for n in range(k)]
                           for m in range(k)])
        assert np.all(np.abs(scalar - upper) <= rel * np.outer(norms, norms))

        g = dense(41)
        vals = np.array([_reference_inner(g, v) for v in orb.V])
        loop = np.cumsum(vals.real**2 + vals.imag**2)
        d = rel * np.linalg.norm(g) * norms
        bound = np.cumsum((2 * np.abs(vals) + d) * d) + 2 * (np.arange(k) + 3) * EPS * loop
        assert np.all(np.abs(partial_frame_sums(g[None], orb)[:, 0] - loop) <= bound)

        z0 = 0.3 - 0.45j
        kernel = reproducing_kernel(z0, orb.order).coeffs
        ref = max(abs(_reference_inner(v, kernel)) for v in orb.V)
        got = kernel_orthogonality_witness(orb, z0)
        assert abs(got - ref) <= rel * np.max(norms) * np.linalg.norm(kernel)


def _two_sum(a, b):
    """a + b = s + e exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_product(a, b):
    """a * b = p + e exactly (Dekker, with Veltkamp's 27-bit split)."""
    def split(x):
        c = 134217729.0 * x  # 2**27 + 1
        hi = c - (c - x)
        return hi, x - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _reference_gram(v):
    """conj(V) V^T in doubled precision: every product of two coefficients
    is split exactly into two doubles and all terms are summed with an
    error-free TwoSum, so each entry is as accurate as a sum computed with
    106-bit significands and rounded once to float64."""
    k = v.shape[0]
    hi, lo = np.zeros((2, k, k)), np.zeros((2, k, k))  # [real part, imaginary part]
    for c in v.T:  # coefficient j of every element
        r, i = c.real, c.imag
        for part, a, b in (
            (0, r[:, None], r),
            (0, i[:, None], i),
            (1, r[:, None], i),
            (1, i[:, None], -r),
        ):
            for term in _two_product(a, b):
                hi[part], err = _two_sum(hi[part], term)
                lo[part] += err
    g = np.empty(hi[0].shape, dtype=complex)
    g.real, g.imag = hi[0] + lo[0], hi[1] + lo[1]
    return g


# K + 1 = 301 elements at N = 30: complex, real, and real with rows of
# opposite signs.  Each symbol keeps every squared coefficient sum above
# the float64 underflow threshold, so the bound below cannot vanish.
GRAM_CASES = [
    (SymbolSpec.blaschke([0.3 + 0.5j]), [1, 0.5j, -0.25 + 0.1j]),
    (SymbolSpec.blaschke([0.7]), [1, -0.5]),
    (SymbolSpec.constant(-0.5), np.linspace(1, 2, 31)),
]


@pytest.mark.parametrize("spec, coeffs", GRAM_CASES)
def test_gram_within_rounding_bound_of_doubled_precision(spec, coeffs):
    orb = make_orbit(spec, coeffs, 300, 30)
    norms = np.linalg.norm(orb.V, axis=1)
    err = np.abs(gram(orb) - _reference_gram(orb.V))
    assert np.all(err <= (orb.order + 1) * EPS * np.outer(norms, norms))


@pytest.mark.parametrize("spec, coeffs", GRAM_CASES)
def test_gram_exactly_hermitian(spec, coeffs):
    g = gram(make_orbit(spec, coeffs, 300, 30))
    su = np.triu_indices(g.shape[0], 1)
    assert np.array_equal(_bits(g.T[su]), _bits(np.conj(g[su])))
    assert np.array_equal(_bits(np.diag(g).imag), _bits(np.zeros(g.shape[0])))  # +0.0


def test_gram_matches_boundary_quadrature():
    # phi = 0.5 + 0.3i z, f = 1 + z/2, K = 40, N = 41: phi^K f has degree
    # N, so nothing is truncated and G[m, n] = mean over the M roots of
    # unity of phi^n conj(phi)^m |f|^2, exact once M > 2(K + 1)
    k, order, m = 40, 41, 4096
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    w = (0.5 + 0.3j * zeta)[:, None] ** np.arange(k + 1)
    weight = np.abs(1 + zeta / 2) ** 2 / m
    expected = w.conj().T @ (weight[:, None] * w)
    g = gram(make_orbit(SymbolSpec.polynomial([0.5, 0.3j]), [1, 0.5], k, order))
    assert np.max(np.abs(g - expected)) <= 10 * (order + 1) * EPS * np.max(np.abs(g))


# -- frame sections ----------------------------------------------------------------


def section(orb):
    """The frame operator compressed to span{z^0..z^N}: S = V^T conj(V)."""
    return orb.V.T @ orb.V.conj()


def test_section_shift_identity():
    s = section(make_orbit(SymbolSpec.monomial(1), [1], 12, 12))
    assert np.array_equal(s, np.eye(13, dtype=complex))


def test_section_half_shift_diagonal():
    s = section(make_orbit(SymbolSpec.scaled_shift(0.5), [1], 12, 12))
    assert np.array_equal(s, np.diag(4.0 ** -np.arange(13)).astype(complex))


def test_section_squared_shift_even_diagonal():
    s = section(make_orbit(SymbolSpec.monomial(2), [1], 5, 10))
    expected = np.zeros((11, 11), dtype=complex)
    expected[::2, ::2] = np.diag(np.ones(6))
    assert np.array_equal(s, expected)


def test_section_quadratic_form_matches_frame_sum():
    orb = make_orbit(SymbolSpec.blaschke([0.5]), [1, 1], 20, 24)
    s = section(orb)
    rng = np.random.default_rng(23)
    probes = np.array(
        [rng.standard_normal(25) + 1j * rng.standard_normal(25) for _ in range(100)]
    )
    for g, fs in zip(probes, partial_frame_sums(probes, orb)[-1]):
        quad = float(np.real(g.conj() @ s @ g))
        assert abs(quad - fs) <= 1e-10 * max(1.0, fs)


# -- bounds -----------------------------------------------------------------------


def test_bounds_identity_section_tight():
    b = frame_bounds_estimate(make_orbit(SymbolSpec.monomial(1), [1], 16, 16).V)
    assert b.A_est == 1.0 and b.B_est == 1.0
    assert b.tight and not b.numerically_zero_lower


@pytest.mark.parametrize("order", [8, 12, 16])
def test_bounds_half_shift_collapse(order):
    b = frame_bounds_estimate(make_orbit(SymbolSpec.scaled_shift(0.5), [1], order, order).V)
    assert abs(b.A_est - 4.0 ** -order) < 1e-12
    assert abs(b.B_est - 1.0) < 1e-12


def test_bounds_squared_shift_degenerate():
    b = frame_bounds_estimate(make_orbit(SymbolSpec.monomial(2), [1], 16, 16).V)
    assert b.A_est == 0.0
    assert b.numerically_zero_lower


def test_eigen_bound_sandwich():
    orb = make_orbit(SymbolSpec.blaschke([0.3]), [1, -0.5], 16, 16)
    b = frame_bounds_estimate(orb.V)
    rng = np.random.default_rng(29)
    probes = np.array(
        [rng.standard_normal(17) + 1j * rng.standard_normal(17) for _ in range(100)]
    )
    for g, fs in zip(probes, partial_frame_sums(probes, orb)[-1]):
        nsq = np.vdot(g, g).real
        assert fs >= b.A_est * nsq - 1e-10 * max(1.0, nsq)
        assert fs <= b.B_est * nsq + 1e-10 * max(1.0, nsq)


def test_bounds_are_squared_extreme_singular_values():
    # a real symbol and a real seed give a real V, factored in float64
    orb = make_orbit(SymbolSpec.blaschke([0.3]), [1, -0.5], 16, 16)
    assert not orb.V.imag.any()
    sigma = np.linalg.svd(orb.V.real, compute_uv=False)
    b = frame_bounds_estimate(orb.V)
    assert b.B_est == sigma[0] ** 2 and b.A_est == sigma[-1] ** 2
    assert bounds_from_singular_values(sigma, orb.V.shape) == b


def test_bounds_of_a_complex_orbit_are_its_complex_singular_values():
    orb = make_orbit(SymbolSpec.blaschke([0.3 + 0.2j]), [1, -0.5], 16, 16)
    assert orb.V.imag.any()
    sigma = np.linalg.svd(orb.V, compute_uv=False)
    b = frame_bounds_estimate(orb.V)
    assert b.B_est == sigma[0] ** 2 and b.A_est == sigma[-1] ** 2


def test_bounds_lower_is_zero_with_fewer_nonzero_rows_than_columns():
    # K < N: the section has rank <= K + 1 < N + 1
    b = frame_bounds_estimate(make_orbit(SymbolSpec.blaschke([0.3]), [1], 8, 16).V)
    assert (b.N, b.K) == (16, 8)
    assert b.A_est == 0.0 and b.B_est > 0.0 and b.numerically_zero_lower


def _no_lapack(monkeypatch):
    def boom(*_args, **_kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", boom)


def _staircase(values, shape, step=1, offset=0):
    """values at (n, step * n + offset): the pattern of a shift or z^m orbit
    of a seed z^offset."""
    v = np.zeros(shape, dtype=np.asarray(values).dtype)
    n = np.arange(len(values))
    v[n, step * n + offset] = values
    return v


@pytest.mark.parametrize(
    "v",
    [
        _staircase(0.5 ** np.arange(9), (9, 9)),
        _staircase((-0.9) ** np.arange(12), (12, 12)),
        _staircase([1.0, -2.5, 3e-310, -7e-320, 0.75], (7, 5)),
        _staircase(np.ones(9), (13, 17), step=2),
        _staircase(-1.25 ** np.arange(6), (6, 18), step=3, offset=1),
        _staircase([-4.0], (1, 6), offset=5),
    ],
    ids=["shift-half", "shift-negative", "subnormal-tall", "z2-seed-1", "z3-seed-z", "single-row"],
)
def test_real_scaled_permutation_spectrum_is_lapacks_bit_for_bit(v, monkeypatch):
    # the sorted moduli are the exact singular values, and LAPACK returns
    # them exactly on these patterns
    reference = np.linalg.svd(v, compute_uv=False)
    _no_lapack(monkeypatch)
    assert np.array_equal(_singular_values(v.astype(complex)), reference)


@pytest.mark.parametrize(
    "values, shape, step",
    [
        ((0.3 + 0.4j) ** np.arange(10), (10, 10), 1),
        (0.8 * np.exp(-1.1j * np.arange(20)), (20, 20), 1),
        (np.array([2j, -1 - 1j, 3e-310 + 1e-310j, 0.5 - 0.25j]), (4, 12), 3),
        (np.exp(0.7j) ** np.arange(5), (9, 10), 2),
    ],
    ids=["shift-0.3+0.4i", "shift-unit-phase", "z3-subnormal", "z2-tall"],
)
def test_complex_scaled_permutation_spectrum_is_within_2_ulp(values, shape, step, monkeypatch):
    v = _staircase(values, shape, step)
    reference = np.linalg.svd(v, compute_uv=False)
    _no_lapack(monkeypatch)
    assert np.all(np.abs(_singular_values(v) - reference) <= 2 * np.spacing(reference))


def test_scattered_scaled_permutation_is_within_2_ulp(monkeypatch):
    # rows and columns in any order; LAPACK's reflections may round here
    rng = np.random.default_rng(7)
    for shape in ((9, 14), (30, 30), (41, 27)):
        r = min(shape)
        v = np.zeros(shape, dtype=complex)
        rows, cols = rng.permutation(shape[0])[:r], rng.permutation(shape[1])[:r]
        v[rows, cols] = rng.standard_normal(r) * np.exp(2j * np.pi * rng.uniform(size=r))
        for block in (v, v.real.astype(complex)):
            reference = np.linalg.svd(block, compute_uv=False)
            with monkeypatch.context() as patch:
                _no_lapack(patch)
                sigma = _singular_values(block)
            assert np.all(np.abs(sigma - reference) <= 2 * np.spacing(reference))


@pytest.mark.parametrize(
    "spec, coeffs, k, order",
    [
        (SymbolSpec.monomial(2), [1, 0, 1], 24, 16),  # odd columns zero
        (SymbolSpec.monomial(3), [0, 0.5j, 0, 0, -1.0], 12, 30),  # classes 0, 2 zero
        (SymbolSpec.constant(0.5), [1], 8, 12),  # one nonzero column
        (SymbolSpec.constant(0.3 - 0.2j), [1, 0.5, 0, 0.25j], 8, 12),
    ],
)
def test_zero_columns_are_dropped_without_moving_the_spectrum(spec, coeffs, k, order):
    v = make_orbit(spec, coeffs, k, order).V
    assert not np.all(np.any(v, axis=0))
    reference = np.linalg.svd(v, compute_uv=False)
    sigma = _singular_values(v)
    assert sigma.size == reference.size
    assert np.max(np.abs(sigma - reference)) <= (order + 1) * EPS * reference[0]
    # each zero column pads the spectrum with an exact zero
    nonzero_cols = np.count_nonzero(np.any(v, axis=0))
    assert nonzero_cols < order + 1 and not sigma[nonzero_cols:].any()


def test_single_row_and_zero_matrices(monkeypatch):
    row = np.array([[0.0, 3.0, 0.0, -4.0, 0.0]], dtype=complex)
    reference = np.linalg.svd(row, compute_uv=False)
    assert np.all(np.abs(_singular_values(row) - reference) <= 2 * np.spacing(reference))
    zero = np.zeros((6, 9), dtype=complex)
    reference = np.linalg.svd(zero, compute_uv=False)
    _no_lapack(monkeypatch)
    assert np.array_equal(_singular_values(zero), reference) and not reference.any()
    bounds = frame_bounds_estimate(zero)
    assert (bounds.A_est, bounds.B_est) == (0.0, 0.0) and bounds.numerically_zero_lower


def test_bounds_overflow_raises_floating_point_error():
    # sigma_max = 1e200 is finite, B = sigma_max^2 is not
    with pytest.raises(FloatingPointError, match="overflow"):
        bounds_from_singular_values(np.array([1e200, 1.0]), (2, 2))


def _sweep(spec, orders, orbit_lengths):
    """section_bounds of the seed-1 orbit at every (N, K) of the two lists,
    from one orbit at the largest of each."""
    orb = orbit_for(spec, (1.0,), max(orders), max(orbit_lengths))
    return section_bounds(orb, [(n, k) for n in orders for k in orbit_lengths])


def test_bounds_monotone_in_orbit_length():
    rows = _sweep(SymbolSpec.blaschke([0.5]), [16], [4, 8, 12, 16, 24])
    for prev, cur in zip(rows, rows[1:]):
        assert cur.B_est >= prev.B_est - 1e-12
        assert cur.A_est >= prev.A_est - 1e-12


def test_gram_section_nonzero_spectra_agree():
    # degree-exact orbit: K * deg(phi) + deg(f) <= N
    orb = make_orbit(SymbolSpec.monomial(1), [1, -1], 10, 12)
    assert not orb.truncated.any()
    wg = np.linalg.eigvalsh(gram(orb))
    ws = np.linalg.svd(orb.V, compute_uv=False) ** 2  # the spectrum of S
    tol = 1e-8 * max(wg[-1], ws[-1])
    g_nonzero = np.sort(wg[wg > tol])[::-1]
    s_nonzero = np.sort(ws[ws > tol])[::-1]
    assert g_nonzero.size == s_nonzero.size
    assert np.max(np.abs(g_nonzero - s_nonzero)) <= 1e-8 * max(1.0, g_nonzero[0])


# -- frame bounds vs truncation (section_bounds) ------------------------------------


def test_bounds_vs_truncation_tight_frame():
    rows = _sweep(SymbolSpec.monomial(1), [4, 8], [8, 12])
    for b in rows:
        assert b.K >= b.N
        assert b.A_est == 1.0 and b.B_est == 1.0


def test_bounds_vs_truncation_lower_collapse():
    rows = _sweep(SymbolSpec.scaled_shift(0.5), [8, 12, 16], [16])
    got = {b.N: b.A_est for b in rows}
    for n in (8, 12, 16):
        assert abs(got[n] - 4.0 ** -n) < 1e-12


def test_section_bounds_past_the_orbit_read_one_larger_orbit(monkeypatch):
    # points past (N, K) are leading blocks of one orbit built at the
    # largest n' and k' asked for; with direct-convolution rows each block
    # is the orbit built at its own point, bit for bit
    spec = SymbolSpec.blaschke([0.5, -0.3j])
    orb = orbit_for(spec, (1.0, 0.5), 8, 8)
    points = [(8, 8), (4, 6), (12, 12), (16, 10), (6, 20)]
    built = []
    real = orbits.orbit

    def counting(sym, f, count, order):
        built.append((order, count))
        return real(sym, f, count, order)

    monkeypatch.setattr(orbits, "orbit", counting)
    got = section_bounds(orb, points)
    assert built == [(16, 20)]
    monkeypatch.setattr(orbits, "orbit", real)
    for (n, k), b in zip(points, got):
        assert b == frame_bounds_estimate(orbit_for(spec, (1.0, 0.5), n, k).V)


def test_bounds_vs_truncation_unimodular_upper_growth():
    rows = _sweep(SymbolSpec.constant(np.exp(1j * np.pi / 4)), [4], [8, 16, 32])
    bs = [b.B_est for b in rows]
    assert bs[0] < bs[1] < bs[2]
    assert np.allclose(bs, [9.0, 17.0, 33.0], atol=1e-10)  # K + 1


ROOT = Path(__file__).resolve().parents[1]


def _bounds_sweep(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_sweep.py"), *argv],
        env=env,
        capture_output=True,
        text=True,
    )


def test_bounds_sweep_script_rows_and_usage_error():
    proc = _bounds_sweep("--symbol", "shift-half", "--orders", "8", "16", "--orbit-lens", "8", "16")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "N,K,A_est,B_est,tight,numerically_zero_lower"
    assert [tuple(map(int, row.split(",")[:2])) for row in rows] == [
        (8, 8), (8, 16), (16, 8), (16, 16)
    ]
    for row in rows:
        n, k, a_est, b_est = row.split(",")[:4]
        # every block of a one-tap orbit is the orbit built at that size, bit for bit
        want = frame_bounds_estimate(
            orbit_for(SymbolSpec.scaled_shift(0.5), (1.0,), int(n), int(k)).V
        )
        assert (float(a_est), float(b_est)) == (want.A_est, want.B_est), row

    proc = _bounds_sweep("--orders", "16", "8")
    assert proc.returncode == 2
    assert "ascending" in proc.stderr and "Traceback" not in proc.stderr
