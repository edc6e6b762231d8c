"""Multiplication symbols: declarative specs, Taylor expansion, inner-ness.

A symbol is a bounded holomorphic function on the disk given in one of
five declarative forms (constant, monomial, scaled shift, polynomial,
finite Blaschke product).  `realize` turns a spec into a truncated
expansion plus structural metadata; boundary evaluation uses the exact
closed form whenever the spec provides one, falling back to the
truncated polynomial only for the `polynomial` kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import (
    BoundaryGrid,
    TruncatedSeries,
    boundary_samples,
    mul,
    series_from_coeffs,
)

KINDS = ("constant", "monomial", "scaled_shift", "polynomial", "blaschke")

BLASCHKE_ZERO_MARGIN = 1e-9
UNIMODULAR_TOL = 1e-12

# Inner-ness verdict tolerances: exact closed-form evaluation vs truncated
# polynomial evaluation.
INNER_TOL_EXACT = 1e-9
INNER_TOL_TRUNCATED = 1e-6


@dataclass(frozen=True)
class SymbolSpec:
    """Declarative description of a multiplication symbol."""

    kind: str
    value: complex = 0j                     # constant / scaled_shift
    power: int = 0                          # monomial
    coeffs: tuple = ()                      # polynomial
    zeros: tuple = ()                       # blaschke
    prefactor: complex = 1.0 + 0j           # blaschke, |prefactor| = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind in ("constant", "scaled_shift"):
            v = complex(self.value)
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError("symbol value must be finite")
        elif self.kind == "monomial":
            if self.power < 0:
                raise ValueError("monomial power must be >= 0")
        elif self.kind == "polynomial":
            if len(self.coeffs) == 0:
                raise ValueError("polynomial spec needs coefficients")
            arr = np.asarray(self.coeffs, dtype=complex)
            if not np.all(np.isfinite(arr)):
                raise ValueError("polynomial coefficients must be finite")
        elif self.kind == "blaschke":
            for a in self.zeros:
                # written so that a NaN zero fails too
                if not abs(complex(a)) < 1.0 - BLASCHKE_ZERO_MARGIN:
                    raise ValueError(
                        f"Blaschke zero {a} too close to or outside the unit circle"
                    )
            if not abs(abs(complex(self.prefactor)) - 1.0) < UNIMODULAR_TOL:
                raise ValueError("Blaschke prefactor must be unimodular")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "SymbolSpec":
        return cls(kind="constant", value=complex(c))

    @classmethod
    def monomial(cls, m: int) -> "SymbolSpec":
        return cls(kind="monomial", power=int(m))

    @classmethod
    def scaled_shift(cls, c) -> "SymbolSpec":
        """The symbol c*z."""
        return cls(kind="scaled_shift", value=complex(c))

    @classmethod
    def polynomial(cls, coeffs) -> "SymbolSpec":
        return cls(kind="polynomial", coeffs=tuple(complex(c) for c in coeffs))

    @classmethod
    def blaschke(cls, zeros, prefactor=1.0) -> "SymbolSpec":
        return cls(
            kind="blaschke",
            zeros=tuple(complex(a) for a in zeros),
            prefactor=complex(prefactor),
        )


@dataclass(frozen=True, eq=False)
class SymbolRealization:
    """A spec together with its truncated expansion and metadata.

    series_exact is True when the Taylor expansion terminates within the
    stored order (the stored polynomial IS the symbol); degree is then the
    exact polynomial degree (None for the zero symbol or when inexact).
    """

    spec: SymbolSpec
    series: TruncatedSeries
    sup_norm_estimate: float
    series_exact: bool
    degree: int | None


@dataclass(frozen=True)
class InnernessReport:
    max_deviation: float
    sub_unit_fraction: float
    verdict: str  # inner | non_inner | inconclusive
    tolerance: float


def _blaschke_factor_series(a: complex, order: int) -> TruncatedSeries:
    """Expansion of (|a|/a)(a - z)/(1 - conj(a) z); plain z when a = 0."""
    out = np.zeros(order + 1, dtype=complex)
    if a == 0:
        if order >= 1:
            out[1] = 1.0
        return TruncatedSeries(out)
    out[0] = abs(a)
    if order >= 1:
        n = np.arange(1, order + 1)
        out[1:] = -(abs(a) / a) * (1.0 - abs(a) ** 2) * np.conj(a) ** (n - 1)
    if a.imag == 0:
        # a real zero has real coefficients; the complex power of a negative
        # one leaves imaginary rounding, which would make real orbits complex
        out.imag = 0.0
    return TruncatedSeries(out)


def _expand(spec: SymbolSpec, order: int) -> TruncatedSeries:
    out = np.zeros(order + 1, dtype=complex)
    if spec.kind == "constant":
        out[0] = spec.value
    elif spec.kind == "monomial":
        if spec.power <= order:
            out[spec.power] = 1.0
    elif spec.kind == "scaled_shift":
        if order >= 1:
            out[1] = spec.value
    elif spec.kind == "polynomial":
        arr = np.asarray(spec.coeffs, dtype=complex)
        m = min(arr.size, order + 1)
        out[:m] = arr[:m]
    elif spec.kind == "blaschke":
        acc = series_from_coeffs([spec.prefactor], order)
        for a in spec.zeros:
            acc = mul(acc, _blaschke_factor_series(a, order), order)
        return acc
    return TruncatedSeries(out)


def _structural_degree(spec: SymbolSpec) -> int | None:
    """Exact degree of the symbol when it is genuinely a polynomial."""
    if spec.kind == "constant":
        return 0 if spec.value != 0 else None
    if spec.kind == "monomial":
        return spec.power
    if spec.kind == "scaled_shift":
        return 1 if spec.value != 0 else None
    if spec.kind == "polynomial":
        nz = np.nonzero(np.asarray(spec.coeffs, dtype=complex))[0]
        return int(nz[-1]) if nz.size else None
    if spec.kind == "blaschke":
        if all(a == 0 for a in spec.zeros):
            return len(spec.zeros)  # u * z^k exactly
        return None
    return None


def realize(spec: SymbolSpec, order: int) -> SymbolRealization:
    """Expand a spec to the given order and attach structural metadata."""
    if order < 0:
        raise ValueError("expansion order must be >= 0")
    series = _expand(spec, order)
    if spec.kind == "blaschke" and any(a != 0 for a in spec.zeros):
        # Infinite Taylor series: the stored polynomial is a truncation.
        series_exact, degree = False, None
    else:
        degree = _structural_degree(spec)
        if degree is None:
            series_exact = True  # the zero symbol
        else:
            series_exact = degree <= order
    sup = _sup_norm_for(spec, series, order)
    return SymbolRealization(
        spec=spec,
        series=series,
        sup_norm_estimate=sup,
        series_exact=bool(series_exact),
        degree=degree if series_exact else None,
    )


def _default_grid(order: int) -> BoundaryGrid:
    size = 256
    while size <= 4 * order:
        size *= 2
    return BoundaryGrid(size)


def _sup_norm_for(spec: SymbolSpec, series: TruncatedSeries, order: int) -> float:
    if spec.kind == "constant":
        return abs(spec.value)
    if spec.kind == "monomial":
        return 1.0
    if spec.kind == "scaled_shift":
        return abs(spec.value)
    if spec.kind == "blaschke":
        return 1.0  # inner: boundary modulus is identically 1
    # Polynomial: maximum boundary modulus (maximum modulus principle).
    grid = _default_grid(order)
    return float(np.max(np.abs(boundary_samples(series, grid))))


def evaluate_symbol(sym: SymbolRealization, points: np.ndarray) -> np.ndarray:
    """Symbol values at arbitrary points of the closed disk.

    Exact closed forms for constant/monomial/scaled_shift/blaschke specs;
    the truncated polynomial otherwise.
    """
    spec = sym.spec
    z = np.asarray(points, dtype=complex)
    if spec.kind == "constant":
        return np.full(z.shape, complex(spec.value))
    if spec.kind == "monomial":
        return z ** spec.power
    if spec.kind == "scaled_shift":
        return complex(spec.value) * z
    if spec.kind == "blaschke":
        vals = np.full(z.shape, complex(spec.prefactor))
        for a in spec.zeros:
            if a == 0:
                vals = vals * z
            else:
                vals = vals * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return vals
    # polynomial: Horner on the stored coefficients
    acc = np.zeros(z.shape, dtype=complex)
    for c in sym.series.coeffs[::-1]:
        acc = acc * z + c
    return acc


def uses_exact_evaluation(sym: SymbolRealization) -> bool:
    return sym.spec.kind != "polynomial"


def boundary_values(sym: SymbolRealization, grid: BoundaryGrid) -> np.ndarray:
    """Symbol values at the grid points on the unit circle.

    The exact form is evaluated at those points when available; a
    polynomial phi takes one FFT of its coefficients.
    """
    if uses_exact_evaluation(sym):
        return evaluate_symbol(sym, grid.points)
    return boundary_samples(sym.series, grid)


def innerness_test(
    sym: SymbolRealization, grid: BoundaryGrid, exact_tol: float = INNER_TOL_EXACT
) -> InnernessReport:
    """Numerical inner-ness evidence from boundary moduli.

    max_deviation is max_j ||phi(point_j)| - 1|.  sub_unit_fraction, the
    fraction of grid points with |phi| < 1 - tol, is the finite surrogate
    for "|phi| < 1 on a set of positive measure"; it is evidence, not a
    measure-theoretic statement.  tol is exact_tol for a symbol evaluated
    in closed form; truncated polynomial evaluation keeps the coarser
    INNER_TOL_TRUNCATED.
    """
    if grid.size <= 4 * sym.series.order:
        raise ValueError(
            f"grid size {grid.size} too small for order {sym.series.order}: "
            "need M > 4N"
        )
    tol = exact_tol if uses_exact_evaluation(sym) else INNER_TOL_TRUNCATED
    moduli = np.abs(boundary_values(sym, grid))
    max_dev = float(np.max(np.abs(moduli - 1.0)))
    sub_unit = float(np.count_nonzero(moduli < 1.0 - tol)) / grid.size
    if max_dev < tol:
        verdict = "inner"
    elif sub_unit > 0.0 or max_dev > 10.0 * tol:
        verdict = "non_inner"
    else:
        verdict = "inconclusive"
    return InnernessReport(
        max_deviation=max_dev,
        sub_unit_fraction=sub_unit,
        verdict=verdict,
        tolerance=float(tol),
    )
