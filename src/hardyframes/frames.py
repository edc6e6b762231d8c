"""Frame sums, Gram matrices, and finite sections of the frame operator.

All bounds computed here are finite-section estimates carrying their
(N, K) provenance; nothing claims to be a bound for the infinite system.
The lower estimate is clamped at zero, and values below 1e-12 * B are
reported as numerically zero (the span-deficiency signal).

Every quantity here is one BLAS product of the orbit matrix V: the Gram
matrix (mirrored so it is exactly Hermitian), the frame section, and the
pairings behind frame sums and the frame operator's action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TruncatedSeries
from .orbits import Orbit, orbit_for

TIGHT_REL_TOL = 1e-8
NUMERICALLY_ZERO_REL = 1e-12


class EigensolverError(RuntimeError):
    """Raised when the Hermitian eigensolver fails; carries diagnostics."""

    def __init__(self, message: str, size: int, frobenius: float):
        super().__init__(f"{message} (size={size}, frobenius_norm={frobenius:.6g})")
        self.size = size
        self.frobenius = frobenius


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """entries[m, n] = <phi^n f, phi^m f>."""

    entries: np.ndarray
    orbit_len: int


@dataclass(frozen=True, eq=False)
class FrameSection:
    """Frame operator compressed to span{z^0..z^N}: S = V^T conj(V)."""

    matrix: np.ndarray
    orbit_len: int
    order: int


@dataclass(frozen=True)
class FrameBounds:
    N: int
    K: int
    A_est: float
    B_est: float
    tight: bool
    numerically_zero_lower: bool


def _conj_pairings(g: TruncatedSeries, orb: Orbit) -> np.ndarray:
    """conj(<g, phi^n f>) for every n: V conj(g) over the common coefficient
    range, one matrix-vector product."""
    n = min(g.coeffs.size, orb.order + 1)
    return orb.V[:, :n] @ g.coeffs[:n].conj()


def partial_frame_sums(g: TruncatedSeries, orb: Orbit) -> np.ndarray:
    """Cumulative sums of |<g, phi^n f>|^2 in n; monotone nondecreasing."""
    p = _conj_pairings(g, orb)
    return np.cumsum(p.real**2 + p.imag**2)


def frame_sum(g: TruncatedSeries, orb: Orbit) -> float:
    """sum_{n=0..K} |<g, phi^n f>|^2 (the finite partial frame sum)."""
    return float(partial_frame_sums(g, orb)[-1])


def gram(orb: Orbit) -> GramMatrix:
    """Hermitian Gram matrix of the orbit elements, G = conj(V) V^T.

    One BLAS product; the strict lower triangle is then overwritten with
    the conjugate of the strict upper one and the diagonal's imaginary
    part set to +0.0, so the result is exactly Hermitian.
    """
    k = orb.length
    g = orb.V.conj() @ orb.V.T
    lower = np.tril_indices(k, -1)
    g[lower] = np.conj(g.T[lower])
    np.fill_diagonal(g.imag, 0.0)
    return GramMatrix(entries=g, orbit_len=k)


def frame_section(orb: Orbit) -> FrameSection:
    """S = sum_n v_n v_n* = V^T conj(V), one matrix product."""
    s = orb.V.T @ orb.V.conj()
    return FrameSection(matrix=s, orbit_len=orb.length, order=orb.order)


def _hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"Hermitian eigensolver failed: {exc}",
            size=matrix.shape[0],
            frobenius=float(np.linalg.norm(matrix)),
        ) from exc


def frame_bounds_estimate(sec: FrameSection) -> FrameBounds:
    """Extremal eigenvalues of the compressed frame operator.

    A_est is clamped at 0; a lower estimate below 1e-12 * B_est is flagged
    numerically zero rather than trusted as a genuine frame bound.  A
    section holding inf or nan (its entries are sums of products of orbit
    coefficients, which can overflow where the coefficients do not)
    raises FloatingPointError before the eigensolver sees it.
    """
    if not np.isfinite(sec.matrix).all():
        raise FloatingPointError(
            f"frame section overflowed at N={sec.order}, K={sec.orbit_len - 1}: "
            "it holds non-finite entries"
        )
    w = _hermitian_eigenvalues(sec.matrix)
    a = max(float(w[0]), 0.0)
    b = max(float(w[-1]), 0.0)
    tight = b > 0.0 and (b - a) < TIGHT_REL_TOL * b
    return FrameBounds(
        A_est=a,
        B_est=b,
        N=sec.order,
        K=sec.orbit_len - 1,
        tight=tight,
        numerically_zero_lower=a < NUMERICALLY_ZERO_REL * b,
    )


def apply_frame_operator(g: TruncatedSeries, orb: Orbit) -> TruncatedSeries:
    """S g = sum_n <g, phi^n f> phi^n f = V^T conj(V conj(g)) over the
    finite orbit: two matrix-vector products."""
    return TruncatedSeries(orb.V.T @ _conj_pairings(g, orb).conj())


def bounds_vs_truncation(spec, seed_coeffs, orders, orbit_lengths) -> list[FrameBounds]:
    """FrameBounds for every (N, K) pair of the two ascending lists.

    The symbol spec is re-expanded at each order (a truncated expansion is
    only meaningful relative to its own N).
    """
    orders = list(orders)
    orbit_lengths = list(orbit_lengths)
    if not orders or not orbit_lengths:
        raise ValueError("orders and orbit_lengths must be nonempty")
    if sorted(orders) != orders or sorted(orbit_lengths) != orbit_lengths:
        raise ValueError("orders and orbit_lengths must be ascending")
    return [
        frame_bounds_estimate(frame_section(orbit_for(spec, seed_coeffs, n, k)))
        for n in orders
        for k in orbit_lengths
    ]
