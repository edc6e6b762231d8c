import warnings

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from hardyframes.orbits import (
    _NORM_BLOCK_ROWS,
    FFT_MIN_OPERAND_LEN,
    orbit,
    orbit_for,
)
from hardyframes.series import BoundaryGrid, mul, series_from_coeffs
from hardyframes.symbols import SymbolSpec, boundary_modulus, realize

EPS = np.finfo(float).eps

int_complex = st.builds(complex, st.integers(-6, 6), st.integers(-6, 6))
int_coeff_lists = st.lists(int_complex, min_size=1, max_size=6)


def seed(coeffs, order):
    out = np.zeros(order + 1, dtype=complex)
    arr = np.asarray(coeffs, dtype=complex)
    out[: arr.size] = arr
    return series_from_coeffs(out)


# -- orbit_for -------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, coeffs",
    [
        (SymbolSpec.blaschke([0.5, -0.3j]), (1.0, 0.5j)),
        (SymbolSpec.polynomial([0.2, 0.3, 0.1]), (1.0,)),
        # a seed longer than N is cut to N + 1 coefficients, and row 0 is
        # flagged truncated
        (SymbolSpec.monomial(2), tuple(range(1, 20))),
    ],
)
def test_orbit_for_realizes_the_spec_and_pads_the_seed_at_order_n(spec, coeffs):
    order, count = 12, 9
    built = orbit_for(spec, coeffs, order, count)
    direct = orbit(realize(spec, order), series_from_coeffs(coeffs), count, order)
    assert built.symbol.spec == spec and built.symbol.series.order == order
    assert built.V.tobytes() == direct.V.tobytes()
    assert np.array_equal(built.truncated, direct.truncated)
    assert built.truncated[0] == (len(coeffs) > order + 1)
    assert built.norms.tobytes() == direct.norms.tobytes()


# -- leading blocks ------------------------------------------------------------
# Coefficients 0..n' of phi * g depend only on coefficients 0..n' of phi and
# g, so the orbit at (n', k') is the block V[:k'+1, :n'+1] of the orbit at
# (N, K); the trend points of the verification suites are read this way.

BLOCKS = ((2, 5), (16, 16), (64, 64), (100, 40), (128, 90))


@pytest.mark.parametrize(
    "spec, coeffs",
    [
        (SymbolSpec.monomial(1), (1.0, -1.0)),
        (SymbolSpec.monomial(3), (1.0, 0.5j, -0.25)),
        (SymbolSpec.constant(np.exp(1j * np.pi / 7)), (1.0,)),
        (SymbolSpec.scaled_shift(0.8 * np.exp(-1.1j)), (1.0, 0.5j, -0.25 + 0.1j)),
    ],
)
def test_leading_block_is_the_smaller_orbit_bitwise(spec, coeffs):
    # one nonzero coefficient: every row is one multiply of the row above,
    # the same arithmetic at every order
    big = orbit_for(spec, coeffs, 128, 128)
    for nn, kk in BLOCKS:
        small = orbit_for(spec, coeffs, nn, kk)
        assert big.V[: kk + 1, : nn + 1].tobytes() == small.V.tobytes(), (nn, kk)


@pytest.mark.parametrize(
    "spec, coeffs",
    [
        (SymbolSpec.blaschke([0.5]), (1.0,)),
        (SymbolSpec.blaschke([0.35 + 0.25j, -0.4j]), (1.0, 0.5j, -0.25)),
        (SymbolSpec.blaschke([0.7, 0.6 + 0.2j, -0.5j], prefactor=np.exp(0.4j)), (1.0, -0.3)),
    ],
)
def test_leading_block_is_the_smaller_orbit_within_rounding(spec, coeffs):
    # the two sides take FFT products of different sizes, or the direct
    # path below 64 terms, for phi and for every row: row n differs by a
    # few eps per product of the largest row before it (|phi| = 1 on the
    # circle), so by at most 4 (n+1) eps max_{j<=n} ||v_j||; the worst
    # ratio to that bound seen on these orbits is about 0.4
    big = orbit_for(spec, coeffs, 128, 128)
    for nn, kk in BLOCKS:
        small = orbit_for(spec, coeffs, nn, kk)
        err = np.linalg.norm(big.V[: kk + 1, : nn + 1] - small.V, axis=1)
        scale = np.maximum.accumulate(np.linalg.norm(small.V, axis=1))
        assert np.all(err <= 4 * (np.arange(kk + 1) + 1) * EPS * scale), (nn, kk)


@pytest.mark.parametrize(
    "spec, coeffs",
    [
        (SymbolSpec.blaschke([0.5]), (1.0,)),
        (SymbolSpec.blaschke([0.6, 0.35]), (1.0, 0.5)),
    ],
)
def test_real_fft_orbit_is_within_rounding_of_direct_convolution(spec, coeffs):
    # a real symbol and seed take the real FFT from row 1 on (phi has 257
    # nonzero terms); against rows built by np.convolve each row stays
    # within the leading-block bound 4 (n+1) eps max_{j<=n} ||v_j||; the
    # worst ratio to it seen on these orbits is about 0.11
    n = k = 256
    orb = orbit_for(spec, coeffs, n, k)
    assert not orb.V.imag.any() and not np.signbit(orb.V.imag).any()
    phi = orb.symbol.series.coeffs[: n + 1].real
    ref = np.zeros((k + 1, n + 1))
    ref[0] = orb.V[0].real
    for j in range(1, k + 1):
        ref[j] = np.convolve(phi, ref[j - 1])[: n + 1]
    err = np.linalg.norm(orb.V.real - ref, axis=1)
    scale = np.maximum.accumulate(np.linalg.norm(ref, axis=1))
    assert np.all(err <= 4 * (np.arange(k + 1) + 1) * EPS * scale)


@pytest.mark.parametrize(
    "spec, coeffs",
    [
        (SymbolSpec.blaschke([0.35 + 0.25j]), (1.0, -0.5)),  # complex phi
        (SymbolSpec.blaschke([0.5]), (1.0, 0.5j)),  # complex seed
    ],
)
def test_complex_orbit_keeps_the_complex_transform(spec, coeffs, monkeypatch):
    # one complex operand is enough to keep every FFT-path row complex
    calls = {"fft": 0, "rfft": 0}
    for name in calls:
        def counting(*args, _f=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    orb = orbit_for(spec, coeffs, 128, 128)
    assert calls["rfft"] == 0 and calls["fft"] > 0
    assert np.all(orb.V[1:].imag.any(axis=1))


# -- apply: T_phi once is mul(sym.series, f, N) -----------------------------------


def test_apply_shift_to_one():
    sym = realize(SymbolSpec.monomial(1), 4)
    out = mul(sym.series, seed([1], 4), 4)
    assert np.array_equal(out.coeffs, np.eye(5)[1])


def test_apply_half_shift():
    sym = realize(SymbolSpec.scaled_shift(0.5), 4)
    out = mul(sym.series, seed([1], 4), 4)
    assert np.array_equal(out.coeffs, [0, 0.5, 0, 0, 0])


def test_apply_constant_scales():
    sym = realize(SymbolSpec.constant(0.25j), 3)
    f = seed([1, 2, 3], 3)
    assert np.array_equal(mul(sym.series, f, 3).coeffs, 0.25j * f.coeffs)


# -- orbit construction ----------------------------------------------------------


def test_orbit_shift_is_monomial_family():
    sym = realize(SymbolSpec.monomial(1), 8)
    orb = orbit(sym, seed([1], 8), 3, 8)
    for n in range(4):
        assert np.array_equal(orb.V[n], np.eye(9)[n])
    assert np.array_equal(orb.norms, np.ones(4))
    assert not orb.truncated.any()


def test_orbit_constant_geometric_norms():
    sym = realize(SymbolSpec.constant(0.5), 4)
    orb = orbit(sym, seed([1], 4), 3, 4)
    assert np.array_equal(orb.norms, [1, 0.5, 0.25, 0.125])


def test_orbit_squared_shift_even_powers():
    sym = realize(SymbolSpec.monomial(2), 8)
    orb = orbit(sym, seed([1], 8), 2, 8)
    assert np.array_equal(orb.V[1], np.eye(9)[2])
    assert np.array_equal(orb.V[2], np.eye(9)[4])


# A degree-80 polynomial with coefficient moduli summing to 1, so |phi| <= 1.
_POLY80 = np.array([1, 1j]) @ np.random.default_rng(80).standard_normal((2, 81))
_POLY80 = list(_POLY80 / np.abs(_POLY80).sum())
# Dense complex seeds of N + 1 = 41 and 101 terms: one chain per
# coefficient, at most 64 chains and more than 64.
_SEED41 = list(np.array([1, 1j]) @ np.random.default_rng(41).standard_normal((2, 41)))
_SEED101 = list(np.array([1, 1j]) @ np.random.default_rng(101).standard_normal((2, 101)))


@pytest.mark.parametrize(
    "spec, coeffs, order, count",
    [
        # N = 16: only the direct convolution runs
        (SymbolSpec.blaschke([0.4]), [1, -1], 16, 6),
        # N = K = 100: every row after the seed takes the FFT path
        (SymbolSpec.blaschke([0.5 - 0.3j, -0.4]), [1, 0.5j], 100, 100),
        # 0.1^n underflows past n ~ 323, so phi trims far short of N = 512
        (SymbolSpec.blaschke([0.1]), [1], 512, 12),
        # rows of length 1, 81, 161, 241, 321, 401: direct, then FFT at
        # transform sizes 256 and then 512
        (SymbolSpec.polynomial(_POLY80), [1], 400, 6),
        # K > N
        (SymbolSpec.blaschke([0.3 + 0.2j]), [1, 0.5j, -0.25], 20, 60),
        # phi with one nonzero coefficient c at index s: rows are scaled shifts
        (SymbolSpec.constant(np.exp(1j * np.pi / 7)), [1, 0.5j, -0.25], 40, 40),
        (SymbolSpec.scaled_shift(0.6 + 0.2j), [1 - 0.3j, 0.5j, -0.25], 60, 40),
        (SymbolSpec.monomial(3), [1, -2, 0.5j, 0.25, 0, 3], 100, 30),
        (SymbolSpec.blaschke([0, 0], prefactor=np.exp(0.3j)), [1, 0.5], 30, 12),
        # K > N with real c < 0: the rows shift out to exact zeros
        (SymbolSpec.scaled_shift(-0.5), [1, -1, 0.25j], 16, 40),
        # 100 terms, but |phi| reaches 200 on the circle: direct rows
        (SymbolSpec.polynomial([2.0, 1j] * 50), [1, -0.5j], 100, 30),
        # complex c from a seed of N + 1 terms: 41 chains, shifting out
        (SymbolSpec.scaled_shift(0.8 * np.exp(-1.1j)), _SEED41, 40, 40),
        # K > N/3: the rows of z^3 past row 10 shift out to exact zeros
        (SymbolSpec.monomial(3), [1, -2, 0.5j, 0.25, 0, 3], 30, 20),
        # a zero seed: no chain at all
        (SymbolSpec.constant(0.6 - 0.7j), [0], 16, 10),
        # 101 chains, too many: the rows are filled one by one
        (SymbolSpec.scaled_shift(0.8 * np.exp(-1.1j)), _SEED101, 100, 120),
        (SymbolSpec.constant(-0.9), _SEED101, 100, 30),
    ],
    ids=[
        "direct", "fft", "phi-trimmed", "direct-to-fft", "K>N",
        "constant-complex", "shift-complex", "z^3", "blaschke-at-0", "shift-K>N",
        "dense-non-contractive", "shift-complex-dense-seed", "z^3-K>N/3", "zero-seed",
        "shift-complex-long-seed", "constant-real-long-seed",
    ],
)
def test_orbit_recurrence_and_norms_hold_exactly(spec, coeffs, order, count):
    # while phi has at most 64 terms, or |phi| exceeds 1 somewhere on the
    # circle, the recurrence holds bit for bit, also for the scaled-shift
    # rows, real or complex c; a longer contractive phi ("fft",
    # "phi-trimmed", "direct-to-fft") builds its rows in blocks by FFT,
    # held to the leading-block bound against an extended-precision direct
    # convolution (worst ratio seen: 0.12); each norm is held to (N+1) eps
    # of the root of np.vdot of its row with itself (worst ratio seen: 0.047
    # of the bound)
    sym = realize(spec, order)
    f = seed(coeffs, order)
    orb = orbit(sym, f, count, order)
    assert np.array_equal(orb.V[0], orb.seed.coeffs)
    assert np.array_equal(orb.seed.coeffs, f.coeffs)
    assert not orb.V.flags.writeable
    support = np.flatnonzero(sym.series.coeffs[: order + 1])
    blocked = support[-1] >= FFT_MIN_OPERAND_LEN and sym.sup_norm_estimate <= 1
    if blocked:
        _assert_within_leading_block_bound(orb)
    for n in range(count + 1):
        if n < count and not blocked:
            again = mul(sym.series, series_from_coeffs(orb.V[n]), order)
            assert orb.V[n + 1].tobytes() == again.coeffs.tobytes()
            if support.size == 1:
                assert orb.V[n + 1].tobytes() == _scaled_shift(sym, orb.V[n]).tobytes()
        expected = np.sqrt(np.vdot(orb.V[n], orb.V[n]).real)
        assert abs(orb.norms[n] - expected) <= (order + 1) * EPS * expected


@pytest.mark.parametrize(
    "spec, coeffs, order",
    [
        (SymbolSpec.scaled_shift(0.6 + 0.2j), [1, 0.5j], 128),  # one term
        (SymbolSpec.blaschke([0.4]), [1, -1], 16),  # direct rows
        (SymbolSpec.blaschke([0.5 - 0.3j, -0.4]), [1, 0.5j], 100),  # FFT blocks
    ],
    ids=["one-term", "direct", "fft"],
)
def test_blocked_norms_are_the_norms_of_all_of_v(spec, coeffs, order):
    # K + 1 = 101 rows: one full block and one short one; no row's squares
    # underflow or overflow, so every norm is np.linalg.norm's, bit for bit
    count = 100
    assert _NORM_BLOCK_ROWS < count + 1 < 2 * _NORM_BLOCK_ROWS
    orb = orbit(realize(spec, order), seed(coeffs, order), count, order)
    assert np.all(orb.norms >= np.sqrt(np.finfo(float).tiny)) and np.isfinite(orb.norms).all()
    assert orb.norms.tobytes() == np.linalg.norm(orb.V, axis=1).tobytes()


def test_zero_rows_read_zero_and_underflowing_rows_are_redone():
    # z^2 from 3 u + 4 u z, u = 2^-540: rows 0..9 hold both terms, norm
    # 5 u, row 10 only the first, norm 3 u, and rows 11..40 are zero.  The
    # squares, about 2^-1076, underflow; the rows scaled by a power of two
    # give the norms exactly, and a zero row reads 0
    u = 2.0**-540
    orb = orbit(realize(SymbolSpec.monomial(2), 20), seed([3 * u, 4 * u], 20), 40, 20)
    assert np.linalg.norm(orb.V[0]) != 5 * u
    assert np.array_equal(orb.norms[:10], np.full(10, 5 * u))
    assert orb.norms[10] == 3 * u
    assert not orb.V[11:].any() and not orb.norms[11:].any()


def _extended_rows(phi, seed_row, count):
    """Rows P_N(phi^n f), n = 0..count, by direct convolution in extended
    precision (long double: 64-bit significand on x86, eps 1.1e-19)."""
    if np.finfo(np.longdouble).eps > EPS / 1024:
        pytest.skip("needs a long double wider than float64")
    order = seed_row.size - 1
    phi = np.asarray(phi[: order + 1], dtype=np.clongdouble)
    ref = np.zeros((count + 1, order + 1), dtype=np.clongdouble)
    ref[0] = seed_row
    for n in range(1, count + 1):
        ref[n] = np.convolve(phi, ref[n - 1])[: order + 1]
    return ref


def _assert_within_leading_block_bound(orb) -> float:
    """Hold row n of the orbit to 4 (n+1) eps max_{j<=n} ||v_j|| of the
    extended-precision orbit; return the worst ratio to that bound."""
    ref = _extended_rows(orb.symbol.series.coeffs, orb.V[0], orb.length - 1)
    err = np.sqrt(np.sum(np.abs(orb.V - ref) ** 2, axis=1)).astype(float)
    scale = np.maximum.accumulate(np.sqrt(np.sum(np.abs(ref) ** 2, axis=1)).astype(float))
    bound = 4 * (np.arange(orb.length) + 1) * EPS * scale
    assert np.all(err <= bound), int(np.argmax(err > bound))
    return float(np.max(err / np.where(bound > 0, bound, 1.0)))


# -- rows in blocks ------------------------------------------------------------
# phi of more than 64 terms: blocks of b = isqrt(K // 2) rows, each
# P_N(phi^j * row n0) for j = 1..b.  K = 1 is one block of one row; at
# N = 100, K = 32 is 8 blocks of b = 4, K = 33 ends with a block of one
# row and K = 35 with one of b - 1 = 3; K = 300 = 3N is 25 blocks of 12.


@pytest.mark.parametrize("count", [1, 8, 32, 33, 35, 300])
@pytest.mark.parametrize(
    "spec, coeffs, real",
    [
        (SymbolSpec.blaschke([0.6, 0.35]), (1.0, -0.5), True),
        (SymbolSpec.blaschke([0.35 + 0.25j, -0.4j]), (1.0, 0.5j), False),
        # coefficients that do not decay: phi^j reaches past L = 256 for j >= 4
        (SymbolSpec.polynomial(_POLY80), (1.0, -0.5), False),
    ],
    ids=["real", "complex", "poly80"],
)
def test_block_rows_are_within_rounding_of_the_exact_orbit(spec, coeffs, real, count):
    # worst ratio to the leading-block bound seen on these orbits: 0.14
    orb = orbit_for(spec, coeffs, 100, count)
    _assert_within_leading_block_bound(orb)
    assert (not orb.V.imag.any()) == real


def test_dense_blaschke_orbit_at_512_is_within_rounding():
    # one complex symbol at N = K = 512 (b = 16): the worst row error is
    # 3.2e-13 of its own row norm (4.0e-12 row by row through `mul`), and
    # 0.13 of the leading-block bound
    orb = orbit_for(SymbolSpec.blaschke([0.45, 0.2 + 0.1j]), (1.0,), 512, 512)
    assert _assert_within_leading_block_bound(orb) < 0.5


def test_block_rows_take_one_batched_inverse_transform_per_block(monkeypatch):
    # N = K = 128, real: b = 8, so b forward transforms of phi^j, 16 of the
    # block seeds, b - 1 inverse transforms for phi^2..phi^b and 16 batched
    # ones for the blocks (a product per row takes 2K = 256 transforms)
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counting(*args, _f=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    orbit_for(SymbolSpec.blaschke([0.5]), (1.0, -0.5), 128, 128)
    assert calls == {"rfft": 8 + 16, "irfft": 7 + 16}


def test_block_rows_are_exactly_zero_above_their_degree():
    # a degree-80 phi at N = 400: row n has degree 80n, and every
    # coefficient above it is +0.0, as a convolution writes it; a zero seed
    # gives zero rows
    orb = orbit_for(SymbolSpec.polynomial(_POLY80), (1.0,), 400, 12)
    for n in range(1, 5):
        tail = orb.V[n, 80 * n + 1 :]
        assert not tail.any() and not np.signbit(tail.view(float)).any(), n
        assert orb.V[n, 80 * n] != 0
    assert orb.V[5, -1] != 0  # degree 400 = N
    zero = orbit_for(SymbolSpec.polynomial(_POLY80), (0.0,), 400, 12)
    assert not zero.V.any() and not np.signbit(zero.V.view(float)).any()
    assert not zero.truncated.any() and not zero.norms.any()


def test_block_rows_overflow_raises():
    # a contractive dense phi whose true product overflows: blaschke(0.5)
    # has phi_0 = 1/2 and phi_j < 0 after it, so against a seed of -M up
    # to z^98 and M at z^99, M = 1.5e308, coefficient 99 of phi f is about
    # 2M, past the largest double; the error names the order, no warning
    # escapes
    sym = realize(SymbolSpec.blaschke([0.5]), 100)
    assert sym.series.coeffs.size > FFT_MIN_OPERAND_LEN and sym.sup_norm_estimate <= 1
    big = 1.5e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflowed at order 100"):
            orbit(sym, seed([-big] * 99 + [big], 100), 4, 100)


def _exact_sum_orbit(order, count):
    """Rows of 2 (1 + z + ... + z^99) to the power n, n = 0..count, cut to
    order 100, in Python integers: P_N(phi v) is twice the prefix sums of
    v, less 2 v_0 at z^100."""
    rows = [[1] + [0] * order]
    for _ in range(count):
        v, acc, row = rows[-1], 0, []
        for c in v:
            acc += c
            row.append(2 * acc)
        row[100] -= 2 * v[0]
        rows.append(row)
    return rows


def test_non_contractive_dense_orbit_matches_the_exact_orbit():
    # |phi| = 200 at z = 1: plain FFT rows amplify their normwise error
    # row by row (1e-4 of the row's largest coefficient at row 50, 3e69 at
    # row 300); direct rows hold every coefficient of row n within
    # n (N + 1) eps of the exact positive integer, relative to it (worst
    # seen: 7.7e-16, 6.5e-4 of that bound)
    order, count = 100, 300
    sym = realize(SymbolSpec.polynomial([2.0] * 100), order)
    orb = orbit(sym, seed([1.0], order), count, order)
    exact = np.array(_exact_sum_orbit(order, count), dtype=float)
    assert not orb.V.imag.any()
    rel = np.abs(orb.V.real - exact) / np.where(exact > 0, exact, 1.0)
    assert np.all(rel <= np.arange(count + 1)[:, None] * (order + 1) * EPS)
    assert np.array_equal(orb.V.real == 0, exact == 0)


def test_non_contractive_dense_orbit_overflows_where_the_exact_rows_do():
    # the exact row 611 peaks at 0.45 of the largest double and row 612
    # at 1.04 of it: K = 611 builds, K = 612 raises, no warning escapes
    sym = realize(SymbolSpec.polynomial([2.0] * 100), 100)
    assert max(_exact_sum_orbit(100, 612)[612]) > int(np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orb = orbit(sym, seed([1.0], 100), 611, 100)
        assert np.isfinite(orb.V).all() and np.isfinite(orb.norms).all()
        with pytest.raises(FloatingPointError, match="overflowed at order 100"):
            orbit(sym, seed([1.0], 100), 612, 100)


def _scaled_shift(sym, row):
    """c z^s times row, cut to its length: (ax - by) + i(ay + bx) per term
    for c = a + ib, every zero written as +0."""
    (s,) = np.flatnonzero(sym.series.coeffs)
    a, b = sym.series.coeffs[s].real, sym.series.coeffs[s].imag
    x = row[: row.size - s]
    out = np.zeros(row.size, dtype=complex)
    out.real[s:] = a * x.real - b * x.imag
    out.imag[s:] = a * x.imag + b * x.real
    return out + 0.0


def test_scaled_shift_orbit_overflow_raises():
    # 1e200^2 overflows at row 2; the error names the order, no row is kept
    sym = realize(SymbolSpec.constant(1e200), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="overflowed at order 4"):
            orbit(sym, seed([1, 0.5j], 4), 3, 4)


def test_orbit_truncation_flags_track_degree():
    sym = realize(SymbolSpec.monomial(1), 8)
    orb = orbit(sym, seed([1], 8), 12, 8)
    # z^n fits while n <= 8; beyond that coefficients fall off the end
    assert not orb.truncated[:9].any()
    assert orb.truncated[9:].all()


def test_orbit_inexact_symbol_flags_everything_after_seed():
    sym = realize(SymbolSpec.blaschke([0.4]), 16)
    orb = orbit(sym, seed([1], 16), 5, 16)
    assert not orb.truncated[0]
    assert orb.truncated[1:].all()


def test_orbit_zero_seed():
    sym = realize(SymbolSpec.monomial(1), 4)
    orb = orbit(sym, seed([0], 4), 9, 4)
    assert np.all(orb.norms == 0)
    assert not orb.truncated.any()


# -- matrix sections --------------------------------------------------------------


@given(int_coeff_lists, int_coeff_lists)
def test_matrix_section_matches_apply(phi_coeffs, f_coeffs):
    # T_phi compressed to span{z^0..z^N}: the lower-triangular Toeplitz
    # matrix with entries phi_{i-j}; Gaussian integers make both exact
    order = 12
    sym = realize(SymbolSpec.polynomial(phi_coeffs), order)
    f = seed(f_coeffs, order)
    phi = sym.series.coeffs
    idx = np.subtract.outer(np.arange(order + 1), np.arange(order + 1))
    toeplitz = np.where(idx >= 0, phi[np.clip(idx, 0, order)], 0)
    via_matrix = toeplitz @ f.coeffs
    via_apply = mul(sym.series, f, order).coeffs
    assert np.array_equal(via_matrix, via_apply)


# -- norm behavior: isometry, contraction, semigroup ------------------------------


@given(int_coeff_lists, st.integers(1, 3), st.integers(1, 5))
def test_inner_isometry_without_truncation(f_coeffs, m, k):
    # degrees chosen so no coefficient is ever truncated away
    order = k * m + len(f_coeffs) - 1
    sym = realize(SymbolSpec.monomial(m), order)
    f = seed(f_coeffs, order)
    orb = orbit(sym, f, k, order)
    assert not orb.truncated.any()
    assert np.max(np.abs(orb.norms - orb.norms[0])) < 1e-10 * max(1.0, orb.norms[0])


def test_inner_isometry_unimodular_constant():
    sym = realize(SymbolSpec.constant(np.exp(0.3j)), 6)
    f = seed([1, 2, 3], 6)
    orb = orbit(sym, f, 20, 6)
    assert np.max(np.abs(orb.norms - orb.norms[0])) < 1e-10 * orb.norms[0]


def test_inner_isometry_blaschke_high_order():
    # Taylor tail of the factor is ~|a|^N; at N = 96 the orbit is an
    # isometry to far below the 1e-10 budget
    sym = realize(SymbolSpec.blaschke([0.5]), 96)
    f = seed([1], 96)
    orb = orbit(sym, f, 8, 96)
    assert np.max(np.abs(orb.norms - 1.0)) < 1e-10


def test_contraction_envelope_half_shift():
    sym = realize(SymbolSpec.scaled_shift(0.5), 40)
    orb = orbit(sym, seed([1], 40), 40, 40)
    envelope = 0.5 ** np.arange(41)
    assert np.all(orb.norms <= envelope + 1e-12)


def test_contraction_envelope_scaled_blaschke():
    base = realize(SymbolSpec.blaschke([0.5]), 64)
    sym = realize(SymbolSpec.polynomial(0.9 * base.series.coeffs), 64)
    orb = orbit(sym, seed([1], 64), 64, 64)
    envelope = 0.9 ** np.arange(65)
    assert np.all(orb.norms <= envelope + 1e-12)


def test_semigroup_property_exact_degrees():
    order = 16
    sym = realize(SymbolSpec.monomial(2), order)
    f = seed([1, 1], order)
    orb = orbit(sym, f, 5, order)
    phi_sq = mul(sym.series, sym.series, order)
    stepped = mul(phi_sq, series_from_coeffs(orb.V[3]), order)
    assert np.array_equal(stepped.coeffs, orb.V[5])


# -- decay classification ----------------------------------------------------------
# ||phi^n f||^(1/n) tends to max_T |phi|, read from |phi| on the grid


def _norm_trend(spec, order):
    return boundary_modulus(spec, BoundaryGrid(8 * order))


def test_decay_constant_half():
    report = _norm_trend(SymbolSpec.constant(0.5), 4)
    assert report.norm_trend == "decays_to_zero"
    assert abs(report.max_modulus - 0.5) < 1e-6


def test_decay_shift_is_bounded():
    report = _norm_trend(SymbolSpec.monomial(1), 40)
    assert report.norm_trend == "bounded_non_decaying"
    assert abs(report.max_modulus - 1.0) < 1e-9


def test_decay_growth_constant_two():
    report = _norm_trend(SymbolSpec.constant(2.0), 4)
    assert report.norm_trend == "grows"
    assert abs(report.max_modulus - 2.0) < 1e-6


def test_decay_zero_norm_short_circuits():
    # the zero symbol sends every row past the seed to 0: rate 0
    report = _norm_trend(SymbolSpec.constant(0.0), 4)
    assert report.norm_trend == "decays_to_zero"
    assert report.max_modulus == 0.0


def test_decay_ignores_truncated_tail_for_inner_symbol():
    # with K > N the shifted monomials fall off the representation, so the
    # truncated rows have norm 0; the boundary modulus does not see them
    sym = realize(SymbolSpec.monomial(1), 8)
    orb = orbit(sym, seed([1], 8), 16, 8)
    assert np.all(orb.norms[9:] == 0.0)
    report = boundary_modulus(sym.spec, BoundaryGrid(64))
    assert report.norm_trend == "bounded_non_decaying"
    assert abs(report.max_modulus - 1.0) < 1e-12
