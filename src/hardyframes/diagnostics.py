"""Structural diagnostics: reproducing kernels, disk zeros, cyclicity rank,
residue-class support, and the image-vs-circle scan.

These are the finite surrogates for the structural obstructions to the
frame property: a seed zero inside the disk pairs the whole orbit against
a reproducing kernel, a power-of-z symbol confines the orbit to residue
classes, and rank deficiency of the orbit's coefficient matrix witnesses
an incomplete span on the truncated space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import TruncatedSeries
from .frames import _svd_nonzero
from .orbits import Orbit
from .symbols import SymbolRealization, boundary_values

RANK_REL_TOL = 1e-10
CIRCLE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class KernelPairingReport:
    max_pairing: float
    argmax_n: int
    pairings: np.ndarray


@dataclass(frozen=True)
class DiskZeros:
    inside: tuple
    boundary_ambiguous: tuple
    margin: float


@dataclass(frozen=True, eq=False)
class CyclicityReport:
    rank: int
    span_dimension_deficit: int
    singular_values: np.ndarray


@dataclass(frozen=True)
class ImageCircleReport:
    min_modulus: float
    max_modulus: float
    intersects_circle: bool
    radial_levels: int


def reproducing_kernel(z0: complex, order: int) -> TruncatedSeries:
    """Truncated reproducing kernel at a disk point, coefficients conj(z0)^n:
    <g, K_z0> = g(z0) for deg(g) <= order."""
    z0 = complex(z0)
    if abs(z0) >= 1.0:
        raise ValueError("kernel center must lie strictly inside the disk")
    coeffs = np.conj(z0) ** np.arange(order + 1)
    return TruncatedSeries(coeffs)


def kernel_orthogonality_witness(orb: Orbit, z0: complex) -> KernelPairingReport:
    """Pairings <phi^n f, K_z0> across the orbit.

    When the seed vanishes at z0 every pairing is (up to truncation dust)
    zero, witnessing that the kernel sits in the orthogonal complement of
    the span.
    """
    kernel = reproducing_kernel(z0, orb.order)
    pairings = np.abs(orb.V @ kernel.coeffs.conj())
    n = int(np.argmax(pairings))
    return KernelPairingReport(
        max_pairing=float(pairings[n]), argmax_n=n, pairings=pairings
    )


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
        return DiskZeros(inside=(), boundary_ambiguous=(), margin=margin)
    # Companion-matrix root finder; highest-degree coefficient first.
    roots = np.roots(f.coeffs[deg::-1])
    moduli = np.abs(roots)
    inside = tuple(complex(r) for r in roots[moduli < 1.0 - margin])
    ambiguous = tuple(
        complex(r)
        for r in roots[(moduli >= 1.0 - margin) & (moduli <= 1.0 + margin)]
    )
    return DiskZeros(inside=inside, boundary_ambiguous=ambiguous, margin=margin)


def cyclicity_rank(orb: Orbit, rank_tol: float = RANK_REL_TOL) -> CyclicityReport:
    """Numerical rank of the orbit's coefficient matrix on span{z^0..z^N}.

    Full rank is the truncation-level surrogate for a dense span; the full
    singular spectrum is returned so borderline cases stay visible.  The
    spectrum and the rank come from the singular values of V short of its
    zero rows and zero columns (which add nothing but zeros; the sorted
    moduli when the rest is a scaled permutation, otherwise a values-only
    SVD, real when the data are), padded with exact zeros to the
    min(K+1, N+1) values of V itself.
    """
    nonzero = _svd_nonzero(orb.V)
    singulars = np.zeros(min(orb.V.shape))
    singulars[: nonzero.size] = nonzero
    sigma_max = float(singulars[0]) if singulars.size else 0.0
    if sigma_max == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(singulars > rank_tol * sigma_max))
    return CyclicityReport(
        rank=rank,
        span_dimension_deficit=(orb.order + 1) - rank,
        singular_values=singulars,
    )


def class_support(g: TruncatedSeries, m: int) -> tuple:
    """Residue classes mod m on which g has exactly-nonzero coefficients."""
    nz = np.nonzero(g.coeffs)[0]
    return tuple(sorted({int(i) % m for i in nz}))


def image_circle_intersection(
    sym: SymbolRealization, grid, radial_levels: int
) -> ImageCircleReport:
    """Scan |phi| on concentric rings r_i e^{i theta_j}, r_i in (0, 1).

    Radii approach both 0 and 1 geometrically (2^-i and 1 - 2^-i) so the
    scan sees the near-boundary regime where inner symbols attain modulus
    close to 1; a radius in both sequences is scanned once.  Each ring is
    one `boundary_values` call: a closed form at the ring's points, or one
    FFT for a polynomial symbol.  The image of a non-constant symbol is
    open and connected, so sampled moduli straddling 1 imply the image
    meets the circle; the verdict uses tolerance 1e-9.
    """
    if radial_levels < 2:
        raise ValueError("need at least two radial levels")
    halves = 2.0 ** -np.arange(1, radial_levels + 1)
    radii = np.sort(np.concatenate([halves, 1.0 - halves]))
    # the radii of np.unique, without the numpy.ma import it costs: keep
    # the first of each run of equal sorted values
    keep = (radii > 0.0) & (radii < 1.0)
    keep[1:] &= radii[1:] != radii[:-1]
    radii = radii[keep]

    min_mod = np.inf
    max_mod = 0.0
    for r in radii:
        moduli = np.abs(boundary_values(sym, grid, r))
        min_mod = min(min_mod, float(np.min(moduli)))
        max_mod = max(max_mod, float(np.max(moduli)))
    intersects = (min_mod <= 1.0 + CIRCLE_TOL) and (max_mod >= 1.0 - CIRCLE_TOL)
    return ImageCircleReport(
        min_modulus=min_mod,
        max_modulus=max_mod,
        intersects_circle=intersects,
        radial_levels=radial_levels,
    )

