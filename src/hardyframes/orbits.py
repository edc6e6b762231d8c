"""Orbits of the multiplication operator T_phi.

An orbit is the finite family {phi^n f : 0 <= n <= K}, every element
truncated to a common order N.  Iterated multiplication can push the true
degree of phi^n f past N; each element therefore carries a `truncated`
flag, since a truncated row's norm falls below ||phi^n f|| by the lost
coefficients.  Whether the true norms decay or grow is read from |phi|
on the circle (`symbols.boundary_modulus`), not from these rows.

Each orbit owns its singular spectrum, `Orbit.singular_values`, from at
most one values-only SVD of V; the frame bounds and the cyclicity rank
of the whole orbit both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .series import (
    TruncatedSeries,
    _mul_into,
    _trim_trailing_zeros,
    series_from_coeffs,
)
from .symbols import SymbolRealization, SymbolSpec, realize

# A contractive phi of more than this many terms builds its rows in
# blocks by FFT; a shorter one convolves directly, row by row.
FFT_MIN_OPERAND_LEN = 64
# Below this norm the sum of squared moduli is subnormal or 0.
_NORM_UNDERFLOW = float(np.sqrt(np.finfo(float).tiny))
# Above this many chains a one-term orbit multiplies row by row:
# `np.multiply.accumulate` down the rows steps down one column at a time.
_MAX_CHAINS = 64
# Rows per `np.linalg.norm` call in `_row_norms`.
_NORM_BLOCK_ROWS = 64


@dataclass(frozen=True, eq=False)
class Orbit:
    """The orbit as one read-only (K+1) x (N+1) matrix V.

    Row n of V holds the coefficients of phi^n f; norms[n] and
    truncated[n] describe that row.
    """

    symbol: SymbolRealization
    V: np.ndarray
    norms: np.ndarray
    truncated: np.ndarray

    @property
    def order(self) -> int:
        return self.V.shape[1] - 1

    @property
    def length(self) -> int:
        return self.V.shape[0]

    @property
    def seed(self) -> TruncatedSeries:
        return TruncatedSeries(self.V[0])

    @cached_property
    def singular_values(self) -> np.ndarray:
        """The min(K+1, N+1) singular values of V in descending order,
        read-only, computed on first use and kept: each orbit is factored
        at most once, whichever of its frame bounds and cyclicity rank is
        asked for first."""
        sigma = _singular_values(self.V)
        sigma.flags.writeable = False
        return sigma


def _singular_values(v: np.ndarray) -> np.ndarray:
    """The min(v.shape) singular values of v in descending order.

    Zero rows and zero columns of v are not factored: each only adds an
    exact zero to the spectrum, as a constant symbol from seed 1 (one
    nonzero column) or z^m (m >= 2) from seed 1 (the residue classes of
    its seed) shows.  When what remains has one nonzero per row and per
    column (a scaled permutation: c*z or z^m from seed 1, z^m from seed
    z^j), its singular values are the moduli of those entries, sorted, and
    no LAPACK call is made.  Anything else takes one values-only LAPACK
    SVD, in float64 when no imaginary part is nonzero: most orbits of a
    real symbol and a real seed are real, and a real SVD costs about half
    as much as the complex one of the same data.
    """
    sigma = np.zeros(min(v.shape))
    nonzero = v != 0
    rows, cols = nonzero.any(axis=1), nonzero.any(axis=0)
    if np.count_nonzero(nonzero) == np.count_nonzero(rows) == np.count_nonzero(cols):
        values = np.sort(np.abs(v[nonzero]))[::-1]
    else:
        block = v if rows.all() and cols.all() else v[np.ix_(rows, cols)]
        if not block.imag.any():
            block = block.real
        values = np.linalg.svd(block, compute_uv=False)
    sigma[: values.size] = values
    return sigma


def orbit(sym: SymbolRealization, f: TruncatedSeries, count: int, order: int) -> Orbit:
    """Iterate T_phi from the seed: elements phi^n f for n = 0..count.

    phi is cut to N+1 terms and trimmed of trailing zeros once.  When it
    has a single nonzero coefficient c at index s (a constant, z^m, c*z),
    the rows are filled as chains of the seed's coefficients, each
    multiplied by c once per step (`_one_term_rows`; a seed spanning more
    than _MAX_CHAINS coefficients goes row by row), each entry rounded as
    the one-tap convolution of `mul` rounds it, so row n is bit-identical
    to `mul(sym.series, row n-1, order)`.  When phi has at most
    FFT_MIN_OPERAND_LEN terms, or its sup norm estimate exceeds 1, each
    row is `mul`'s direct convolution of the row before, bit for bit.  A
    longer contractive phi fills the rows in blocks by FFT (`_fft_rows`);
    each row is then within a few eps per product of the largest row
    before it, not bit-identical to `mul`.
    That normwise error is spread over every coefficient, and a phi with
    |phi| > 1 somewhere on the circle would amplify it from row to row
    past the orbit's own growth, so such a phi keeps the direct
    convolution, whose error is componentwise.  The norms are
    `np.linalg.norm` of blocks of _NORM_BLOCK_ROWS rows (`_row_norms`),
    bit-identical to one call on all of V without its V-sized copies; a
    row whose squares overflow or underflow is redone exactly from the
    row scaled by a power of two, and a zero row keeps norm 0 without it.
    """
    if count < 0:
        raise ValueError("orbit length must be >= 0")

    seed = series_from_coeffs(f.coeffs, order).coeffs
    phi = _trim_trailing_zeros(sym.series.coeffs[: order + 1])
    support = np.flatnonzero(phi)
    if support.size == 1:
        v = _one_term_rows(seed, phi[support[0]], int(support[0]), count)
    else:
        v = np.empty((count + 1, order + 1), dtype=complex)
        v[0] = seed
        if phi.size <= FFT_MIN_OPERAND_LEN or sym.sup_norm_estimate > 1:
            for n in range(1, count + 1):
                _mul_into(v[n], phi, v[n - 1])
        else:
            _fft_rows(v, phi)
    v.flags.writeable = False

    # row n is phi^n f exactly while deg f + n deg phi <= N; from the first
    # row past N on, and after the seed for an inexact symbol or a seed cut
    # to order N, coefficients are lost; a zero symbol or seed loses none
    truncated = np.zeros(count + 1, dtype=bool)
    seed_degree = f.exact_degree()
    if seed_degree is not None:
        truncated[0] = seed_degree > order
        if not sym.series_exact or (truncated[0] and sym.degree is not None):
            first = 1
        elif not sym.degree:  # a constant keeps the degree, zero has none
            first = count + 1
        else:
            first = (order - seed_degree) // sym.degree + 1
        truncated[first:] = True
    return Orbit(symbol=sym, V=v, norms=_row_norms(v), truncated=truncated)


def _one_term_rows(seed: np.ndarray, c: complex, s: int, count: int) -> np.ndarray:
    """V for phi = c z^s: rows 1..K are c z^s times the row above, cut to
    N.

    Seed coefficient f_j moves along (n, j + n s) and is multiplied by c
    once per step.  That entry sits at n (N + 1 + s) + j of V's buffer, so
    the buffer read as rows of N + 1 + s entries holds these chains as
    columns, rows 0..steps, steps the last row any chain reaches within N.
    A chain past N runs on into the start of the next row of V and is set
    to 0 there; V is the first (K + 1)(N + 1) entries of a buffer at most
    N + s entries longer.  Real c fills the chains with one
    `np.multiply.accumulate` down the rows, complex c with one loop over
    them.  A seed spanning more than _MAX_CHAINS coefficients fills V row
    by row instead.

    Real c is the one product `mul`'s one-tap convolution rounds; complex
    c is rounded as (ax - by) + i(ay + bx) from real parts, the order the
    convolution uses (numpy's complex multiply can differ by one
    rounding).  -0 becomes +0, the zero a convolution writes, and a
    non-finite entry is an overflow.
    """
    order = seed.size - 1
    cols = np.flatnonzero(seed)
    lo, hi = (cols[0], cols[-1] + 1) if cols.size else (0, 0)  # a zero seed: no chain
    narrow = hi - lo <= _MAX_CHAINS
    if narrow:
        steps = count if s == 0 else min(count, (order - lo) // s)
        width = order + 1 + s
        buf = np.zeros(max((count + 1) * (order + 1), (steps + 1) * width), dtype=complex)
        v = buf[: (count + 1) * (order + 1)].reshape(count + 1, order + 1)
        v[0] = seed
        out = buf[: (steps + 1) * width].reshape(steps + 1, width)[:, lo:hi]
        src, dst = out[:-1], out[1:]
    else:
        v = out = np.empty((count + 1, order + 1), dtype=complex)
        v[0] = seed
        v[1:, :s] = 0
        src, dst = v[:-1, : order + 1 - s], v[1:, s:]
    a, b = float(c.real), float(c.imag)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if b == 0.0 and narrow:
            parts = out.view(float)
            parts[1:] = a
            np.multiply.accumulate(parts, axis=0, out=parts)
        else:
            for x, y in zip(src, dst):
                if b == 0.0:
                    np.multiply(x, a, out=y)
                else:
                    np.subtract(a * x.real, b * x.imag, out=y.real)
                    np.add(a * x.imag, b * x.real, out=y.imag)
    if narrow and s:  # chain entries past N
        out[np.arange(lo, hi) > order - s * np.arange(steps + 1)[:, None]] = 0
    out[1:] += 0.0
    if not np.isfinite(out[1:]).all():
        # the seed is finite, so a non-finite entry is an overflow
        raise FloatingPointError(f"series product overflowed at order {order}")
    return v


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of v, `np.linalg.norm` of blocks of
    _NORM_BLOCK_ROWS rows: each row's reduction is the one a call on all
    of v makes, bit for bit, while its conjugate and product copies stay
    the size of a block.

    Squares can overflow, or fall below the smallest normal number, where
    the coefficients do not: such a row is scaled by the power of two at
    its largest part, which is exact, and its norm recomputed.  A row that
    is exactly zero keeps norm 0 without that redo.
    """
    norms = np.empty(v.shape[0])
    with np.errstate(over="ignore"):  # an overflowed square is redone below
        for start in range(0, v.shape[0], _NORM_BLOCK_ROWS):
            block = slice(start, start + _NORM_BLOCK_ROWS)
            norms[block] = np.linalg.norm(v[block], axis=1)
    redo = ~np.isfinite(norms) | (norms < _NORM_UNDERFLOW)
    if redo.any():
        redo &= v.any(axis=1)  # a zero row keeps norm 0
    if redo.any():
        parts = v[redo].view(float)
        _, exp = np.frexp(np.max(np.abs(parts), axis=1))
        scaled = np.ldexp(parts, -exp[:, None]).view(complex)
        norms[redo] = np.ldexp(np.linalg.norm(scaled, axis=1), exp)
    return norms


def _fft_rows(v: np.ndarray, phi: np.ndarray) -> None:
    """Fill rows 1..K of v with P_N(phi * row above), in blocks of
    b = max(1, isqrt(K // 2)) rows.

    Phi_j = P_N(phi^j), j = 1..b, are the first b rows of the seed-1
    orbit, and their transforms are kept as one (b, L) batch.  The block
    after row n0 is P_N(Phi_j * v[n0]), j = 1..b: one forward transform
    of v[n0], one product into a buffer kept for the orbit and one batched
    inverse transform, about K + K/b + 2b transforms in all where one
    product per row takes 2K.  L is the power of two >= 2N + 1, so no
    product wraps onto orders 0..N.  The transforms are real (rfft) when
    phi and the seed are real, and the rows then have imaginary part +0.0.
    Coefficients above a row's exact degree are written as 0, as a
    convolution writes them.  A non-finite row is an overflow.
    """
    count, order = v.shape[0] - 1, v.shape[1] - 1
    seed = _trim_trailing_zeros(v[0])
    if seed.size == 0:
        v[1:] = 0
        return
    size = 1 << (2 * order).bit_length()
    real = not (phi.imag.any() or seed.imag.any())
    if real:
        fft, ifft, part, width = np.fft.rfft, np.fft.irfft, np.real, size // 2 + 1
    else:
        fft, ifft, part, width = np.fft.fft, np.fft.ifft, np.asarray, size
    b = max(1, math.isqrt(count // 2))
    phi_degree = phi.size - 1
    powers = np.empty((b, width), dtype=complex)
    product = np.empty_like(powers)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        powers[0] = fft(part(phi), size)
        for j in range(1, b):
            row = ifft(powers[0] * powers[j - 1], size)[: order + 1]
            row[(j + 1) * phi_degree + 1 :] = 0
            powers[j] = fft(row, size)
        for n0 in range(0, count, b):
            m = min(b, count - n0)
            np.multiply(powers[:m], fft(part(v[n0]), size), out=product[:m])
            rows = v[n0 + 1 : n0 + m + 1]
            rows[:] = ifft(product[:m], size)[:, : order + 1]
            # only rows of degree below N end early: at most N / 64 of them
            for n in range(n0 + 1, n0 + m + 1):
                top = seed.size - 1 + n * phi_degree
                if top >= order:
                    break
                v[n, top + 1 :] = 0
            if not np.isfinite(rows).all():
                # the seed is finite, so a non-finite row is an overflow
                raise FloatingPointError(f"series product overflowed at order {order}")


def orbit_for(spec: SymbolSpec, seed_coeffs, order: int, count: int) -> Orbit:
    """The orbit phi^n f, n = 0..count, of a symbol spec realized at order
    N and the whole seed, which `orbit` pads or cuts to N: a cut that drops
    a nonzero coefficient flags row 0 truncated."""
    return orbit(realize(spec, order), series_from_coeffs(seed_coeffs), count, order)
