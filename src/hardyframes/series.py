"""Truncated power-series arithmetic for functions on the unit disk.

A holomorphic function with square-summable Taylor coefficients is
represented by its first N+1 coefficients.  All operations are exact on
the retained coefficients; anything above the stated order is discarded,
never approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Degree-N surrogate for a disk function: coefficients a_0..a_N."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficient vector must be 1-d and nonempty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def exact_degree(self) -> int | None:
        """Index of the last exactly-nonzero coefficient, None if all zero."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else None


@dataclass(frozen=True)
class BoundaryGrid:
    """M equispaced sample points on the unit circle."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("grid size must be >= 1")

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.exp(2j * np.pi * np.arange(self.size) / self.size)
        pts.flags.writeable = False
        return pts


def series_from_coeffs(coeffs, order: int | None = None) -> TruncatedSeries:
    """Build a series from a_0..a_M at the given order (default M).

    Coefficients are zero-padded up to the order or truncated down to it.
    """
    arr = np.asarray(coeffs, dtype=complex)
    if order is not None:
        out = np.zeros(order + 1, dtype=complex)
        m = min(arr.size, order + 1)
        out[:m] = arr[:m]
        arr = out
    return TruncatedSeries(arr)


def _trim_trailing_zeros(x: np.ndarray) -> np.ndarray:
    nz = np.nonzero(x)[0]
    return x[: nz[-1] + 1] if nz.size else x[:0]


def _mul_into(out: np.ndarray, xa: np.ndarray, b: np.ndarray) -> None:
    """Write the Cauchy product xa * b, truncated to out.size terms, into out.

    xa is already cut to out.size terms and trimmed of trailing zeros; b
    is trimmed here.  The product is np.convolve's direct convolution,
    whose rounding error is componentwise: a coefficient of m terms is
    off by at most about m eps times the sum of their moduli.  Two
    operands with no nonzero imaginary part give an imaginary part of +0.0.
    """
    xb = _trim_trailing_zeros(b[: out.size])
    if xa.size == 0 or xb.size == 0:
        out[:] = 0
        return
    full = np.convolve(xa, xb)
    m = min(full.size, out.size)
    out[:m] = full[:m]
    out[m:] = 0
    if not np.isfinite(out[:m]).all():
        # both operands are finite, so a non-finite product is an overflow
        raise FloatingPointError(f"series product overflowed at order {out.size - 1}")


def mul(a: TruncatedSeries, b: TruncatedSeries, target_order: int) -> TruncatedSeries:
    """Cauchy product truncated to target_order.

    Retained coefficients c_k = sum_{i+j=k} a_i b_j are computed by direct
    convolution, after trailing exact zeros are stripped from both
    operands, so a sparse operand (a shift, a constant) costs one term.
    `orbits.orbit` runs this arithmetic row by row for phi of at most
    `orbits.FFT_MIN_OPERAND_LEN` terms, and for a non-contractive phi of
    any length, whose rows are then bit-identical to `mul` of the row
    before; a longer contractive phi takes its blocked FFT, within
    rounding of `mul`.
    """
    if target_order < 0:
        raise ValueError("target_order must be >= 0")
    out = np.empty(target_order + 1, dtype=complex)
    # The product only needs coefficients up to target_order.
    _mul_into(out, _trim_trailing_zeros(a.coeffs[: target_order + 1]), b.coeffs)
    return TruncatedSeries(out)


def boundary_samples(f: TruncatedSeries, grid: BoundaryGrid) -> np.ndarray:
    """Evaluate the polynomial on the grid: values_j = sum_n a_n e^{2ipi jn/M}.

    Coefficients with indices differing by M alias onto the same grid
    values, so they are folded mod M before the transform; the result is
    the exact evaluation either way.
    """
    m = grid.size
    folded = np.zeros(m, dtype=complex)
    for start in range(0, f.coeffs.size, m):
        chunk = f.coeffs[start : start + m]
        folded[: chunk.size] += chunk
    return np.fft.ifft(folded) * m
