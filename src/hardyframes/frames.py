"""Frame sums, Gram matrices and frame-bound estimates of an orbit.

All bounds computed here are finite-section estimates carrying their
(N, K) provenance; nothing claims to be a bound for the infinite system.
A lower estimate that is exactly 0 or below 1e-12 * B is reported as
numerically zero (the span-deficiency signal).

Every quantity here is one BLAS product or at most one values-only SVD of
the orbit matrix V: the Gram matrix (mirrored so it is exactly Hermitian),
the pairings behind the frame sums of a whole matrix of probes, and the
frame bounds, which are the squared extreme singular values of V.  No SVD
factor is ever formed.  Zero rows and zero columns of V are not factored,
and a V whose remaining entries form a scaled permutation is not factored
at all: its singular values are their moduli.  A whole orbit's bounds
read the spectrum the orbit keeps (`Orbit.singular_values`), and the
finite sections at other (N', K') are leading blocks of one orbit
(`section_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbits import Orbit, _singular_values, orbit_for

TIGHT_REL_TOL = 1e-8
NUMERICALLY_ZERO_REL = 1e-12


@dataclass(frozen=True)
class FrameBounds:
    N: int
    K: int
    A_est: float
    B_est: float
    tight: bool
    numerically_zero_lower: bool


def partial_frame_sums(probes: np.ndarray, orb: Orbit) -> np.ndarray:
    """Cumulative sums in n of |<g, phi^n f>|^2, one column per probe g.

    probes is a (P, L) array whose rows are the probes' coefficients; the
    result is (K+1, P), each column monotone nondecreasing.  The pairings,
    conjugated, are V conj(probes)^T over the first min(L, N+1)
    coefficients: one matrix product for all P probes.  When the sums are
    inexact, a probe's column can differ in its last bits with the number
    of probes in the call: numpy sends one probe row to BLAS gemv and
    several to gemm, and OpenBLAS 0.3.31 sums the two in different orders.
    Every suite's probes give exact sums.
    """
    n = min(probes.shape[1], orb.order + 1)
    p = orb.V[:, :n] @ probes[:, :n].conj().T
    return np.cumsum(p.real**2 + p.imag**2, axis=0)


def gram(orb: Orbit) -> np.ndarray:
    """Hermitian Gram matrix of the orbit elements, G = conj(V) V^T:
    G[m, n] = <phi^n f, phi^m f>.

    One BLAS product; the strict lower triangle is then overwritten with
    the conjugate of the strict upper one and the diagonal's imaginary
    part set to +0.0, so the result is exactly Hermitian.  An entry that
    overflows raises FloatingPointError.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        g = orb.V.conj() @ orb.V.T
    if not np.isfinite(g).all():
        raise FloatingPointError(
            f"Gram matrix overflowed at N={orb.order}, K={orb.length - 1}: "
            "an entry is not finite"
        )
    lower = np.tril_indices(orb.length, -1)
    g[lower] = np.conj(g.T[lower])
    np.fill_diagonal(g.imag, 0.0)
    return g


def bounds_from_singular_values(sigma: np.ndarray, shape: tuple) -> FrameBounds:
    """Frame bounds of a (K+1) x (N+1) coefficient matrix V from its
    min(K+1, N+1) singular values in descending order.

    The section V^T conj(V) has eigenvalues sigma^2, so B_est =
    sigma_max^2, and A_est = sigma_min^2 when K >= N, otherwise 0 (K < N
    leaves the section a null space).  Squaring sigma rather than
    factoring the section resolves A_est down to eps^2 * B_est.  A_est
    that is exactly 0 or below 1e-12 * B_est is flagged numerically zero,
    so an all-zero V is flagged too.  A B_est that overflows raises
    FloatingPointError.
    """
    k, n = shape[0] - 1, shape[1] - 1
    with np.errstate(over="ignore"):  # checked below
        squares = np.asarray(sigma, dtype=float) ** 2
    b = float(squares[0])
    if not np.isfinite(b):
        raise FloatingPointError(
            f"frame bound overflowed at N={n}, K={k}: sigma_max^2 is not finite"
        )
    a = float(squares[-1]) if k >= n else 0.0
    return FrameBounds(
        A_est=a,
        B_est=b,
        N=n,
        K=k,
        tight=b > 0.0 and (b - a) < TIGHT_REL_TOL * b,
        numerically_zero_lower=a == 0.0 or a < NUMERICALLY_ZERO_REL * b,
    )


def frame_bounds_estimate(v: np.ndarray) -> FrameBounds:
    """Frame bounds of the coefficient matrix v, an orbit's V or a leading
    block of it, from the singular values of its nonzero rows and columns:
    the sorted moduli of a scaled permutation, otherwise one values-only
    SVD (a real one when they are real).

    A_est that is exactly 0 or below 1e-12 * B_est is flagged numerically
    zero rather than trusted as a genuine frame bound.
    """
    return bounds_from_singular_values(_singular_values(v), v.shape)


def section_bounds(orb: Orbit, points) -> list[FrameBounds]:
    """FrameBounds at each (n', k') of points of the orbit of orb's seed
    row under orb's symbol spec.

    Coefficients 0..n' of phi * g depend only on coefficients 0..n' of
    phi and of g, so the orbit at (n', k') is the leading block
    V[:k'+1, :n'+1] of any orbit at least that large.  The point (N, K)
    reads orb.singular_values, a block that fits reads orb.V, and every
    point beyond (N, K) reads a block of one orbit, built from the seed
    row at the largest n' and k' asked for.  The seed row is the whole
    seed whenever the seed's degree is at most N.
    """
    points = list(points)
    n, k = orb.order, orb.length - 1
    larger = None
    out = []
    for nn, kk in points:
        if (nn, kk) == (n, k):
            out.append(bounds_from_singular_values(orb.singular_values, orb.V.shape))
            continue
        if nn <= n and kk <= k:
            v = orb.V
        else:
            if larger is None:
                top_n, top_k = map(max, zip(*points))
                larger = orbit_for(orb.symbol.spec, orb.V[0], top_n, top_k).V
            v = larger
        out.append(frame_bounds_estimate(v[: kk + 1, : nn + 1]))
    return out
