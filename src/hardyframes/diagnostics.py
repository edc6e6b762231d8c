"""Structural diagnostics of an orbit: reproducing kernels, disk zeros,
cyclicity rank and residue-class support.  What |phi| on the circle says
(inner-ness, the image against the circle, the norm trend) is read by
`symbols.boundary_modulus`.

These are the finite surrogates for the structural obstructions to the
frame property: a seed zero inside the disk pairs the whole orbit against
a reproducing kernel, a power-of-z symbol confines the orbit to residue
classes, and rank deficiency of the orbit's coefficient matrix witnesses
an incomplete span on the truncated space.  The cyclicity rank reads
the spectrum each orbit keeps (`Orbit.singular_values`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TruncatedSeries
from .orbits import Orbit

RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class DiskZeros:
    inside: tuple
    boundary_ambiguous: tuple


@dataclass(frozen=True, eq=False)
class CyclicityReport:
    rank: int
    span_dimension_deficit: int
    singular_values: np.ndarray


def reproducing_kernel(z0: complex, order: int) -> TruncatedSeries:
    """Truncated reproducing kernel at a disk point, coefficients conj(z0)^n:
    <g, K_z0> = g(z0) for deg(g) <= order."""
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise ValueError("kernel center must lie strictly inside the disk")
    coeffs = np.conj(z0) ** np.arange(order + 1)
    return TruncatedSeries(coeffs)


def kernel_orthogonality_witness(orb: Orbit, z0: complex) -> float:
    """Largest pairing |<phi^n f, K_z0>| across the orbit.

    When the seed vanishes at z0 every pairing is (up to truncation dust)
    zero, witnessing that the kernel sits in the orthogonal complement of
    the span.
    """
    kernel = reproducing_kernel(z0, orb.order)
    return float(np.max(np.abs(orb.V @ kernel.coeffs.conj())))


def zeros_in_disk(f: TruncatedSeries, margin: float) -> DiskZeros:
    """Roots of the degree-exact polynomial, split by distance to the circle.

    Roots with |r| < 1 - margin count as interior; roots within margin of
    the circle are reported separately as boundary-ambiguous (hypotheses
    about interior zeros say nothing about them).
    """
    if not 0.0 < margin < 0.5:
        raise ValueError("margin must lie in (0, 0.5)")
    deg = f.exact_degree()
    if deg is None:
        raise ValueError("zero polynomial has no well-defined root set")
    if deg == 0:
        return DiskZeros(inside=(), boundary_ambiguous=())
    # Companion-matrix root finder; highest-degree coefficient first.
    roots = np.roots(f.coeffs[deg::-1])
    moduli = np.abs(roots)
    inside = tuple(complex(r) for r in roots[moduli < 1.0 - margin])
    ambiguous = tuple(
        complex(r)
        for r in roots[(moduli >= 1.0 - margin) & (moduli <= 1.0 + margin)]
    )
    return DiskZeros(inside=inside, boundary_ambiguous=ambiguous)


def cyclicity_rank(orb: Orbit, rank_tol: float = RANK_REL_TOL) -> CyclicityReport:
    """Numerical rank of the orbit's coefficient matrix on span{z^0..z^N}.

    Full rank is the truncation-level surrogate for a dense span; the full
    singular spectrum is returned so borderline cases stay visible.  The
    spectrum is the orbit's own `singular_values`, the min(K+1, N+1)
    singular values of V, so the orbit's frame bounds read the same
    factorization.
    """
    singulars = orb.singular_values
    # values above rank_tol * sigma_max; an all-zero spectrum has rank 0
    rank = int(np.count_nonzero(singulars > rank_tol * singulars[0]))
    return CyclicityReport(
        rank=rank,
        span_dimension_deficit=(orb.order + 1) - rank,
        singular_values=singulars,
    )


def class_support(g: TruncatedSeries, m: int) -> tuple:
    """Residue classes mod m on which g has exactly-nonzero coefficients."""
    nz = np.nonzero(g.coeffs)[0]
    return tuple(sorted({int(i) % m for i in nz}))

