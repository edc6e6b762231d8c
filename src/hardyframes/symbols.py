"""Multiplication symbols: declarative specs, Taylor expansion, |phi| on T.

A symbol is a bounded holomorphic function on the disk given in one of
five declarative forms (constant, monomial, scaled shift, polynomial,
finite Blaschke product).  `realize` turns a spec into a truncated
expansion plus structural metadata: what an orbit multiplies by.  The
boundary functions take the spec itself, so no expansion order enters:
the exact closed form whenever the spec provides one, and one FFT of all
the coefficients of a `polynomial`.
`boundary_modulus` reads |phi| on the grid once and derives from it
everything the lab asks of the boundary: inner-ness, whether the image
of the disk meets the circle, and whether orbit norms decay or grow.

No other module branches on a kind: report labels (`describe`) and the
JSON codec (`spec_to_json`, `spec_from_json`) live here too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .jsonio import complex_to_json, json_int, json_to_complex
from .series import (
    BoundaryGrid,
    TruncatedSeries,
    boundary_samples,
    mul,
    series_from_coeffs,
)

KINDS = ("constant", "monomial", "scaled_shift", "polynomial", "blaschke")
# The kinds with one Taylor term, value * z^power.
ONE_TERM_KINDS = ("constant", "monomial", "scaled_shift")

BLASCHKE_ZERO_MARGIN = 1e-9
UNIMODULAR_TOL = 1e-12

# Tolerances of `boundary_modulus`.  INNER_TOL_EXACT is the default
# inner_tol of the inner-ness verdict, for every kind: a closed form gives
# |phi| on T to a few ulps, and a polynomial's FFT sum to about
# (d + 1) eps sum |a_n|.  CIRCLE_TOL tells |phi| = 1 from |phi| != 1 for
# the image and the norm trend.
INNER_TOL_EXACT = 1e-9
CIRCLE_TOL = 1e-9


@dataclass(frozen=True)
class SymbolSpec:
    """Declarative description of a multiplication symbol.

    The three one-term kinds are stored as value * z^power: a constant c
    as c * z^0, z^m as 1 * z^m, and c*z as c * z^1.  Construction sets the
    field a kind fixes, so `SymbolSpec(kind="monomial", power=2)` equals
    `SymbolSpec.monomial(2)`.
    """

    kind: str
    value: complex = 0j                     # one-term kinds
    power: int = 0                          # one-term kinds
    coeffs: tuple = ()                      # polynomial
    zeros: tuple = ()                       # blaschke
    prefactor: complex = 1.0 + 0j           # blaschke, |prefactor| = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind in ONE_TERM_KINDS:
            value = complex(1.0 if self.kind == "monomial" else self.value)
            power = {"constant": 0, "scaled_shift": 1}.get(self.kind)
            if power is None:  # a monomial's power is given, and must be an int
                try:
                    power = operator.index(self.power)
                except TypeError:
                    raise ValueError(
                        f"monomial power must be an integer, not {self.power!r}"
                    ) from None
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "power", power)
            if not np.isfinite(value):
                raise ValueError("symbol value must be finite")
            if power < 0:
                raise ValueError("monomial power must be >= 0")
        elif self.kind == "polynomial":
            if len(self.coeffs) == 0:
                raise ValueError("polynomial spec needs coefficients")
            arr = np.asarray(self.coeffs, dtype=complex)
            if not np.all(np.isfinite(arr)):
                raise ValueError("polynomial coefficients must be finite")
        else:
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
        return cls(kind="constant", value=c)

    @classmethod
    def monomial(cls, m: int) -> "SymbolSpec":
        return cls(kind="monomial", power=m)

    @classmethod
    def scaled_shift(cls, c) -> "SymbolSpec":
        """The symbol c*z."""
        return cls(kind="scaled_shift", value=c)

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


def describe(spec: SymbolSpec) -> str:
    """The symbol's label in verification reports."""
    if spec.kind == "constant":
        return f"constant({spec.value})"
    if spec.kind == "monomial":
        return f"z^{spec.power}"
    if spec.kind == "scaled_shift":
        return f"{spec.value}*z"
    if spec.kind == "polynomial":
        return f"polynomial(degree<={len(spec.coeffs) - 1})"
    return f"blaschke(zeros={list(spec.zeros)})"


def spec_to_json(spec: SymbolSpec) -> dict:
    """The spec as a JSON object: its kind and the fields that kind reads."""
    out: dict = {"kind": spec.kind}
    if spec.kind == "monomial":
        out["power"] = spec.power
    elif spec.kind in ONE_TERM_KINDS:
        out["value"] = complex_to_json(spec.value)
    elif spec.kind == "polynomial":
        out["coeffs"] = [complex_to_json(c) for c in spec.coeffs]
    else:
        out["zeros"] = [complex_to_json(a) for a in spec.zeros]
        out["prefactor"] = complex_to_json(spec.prefactor)
    return out


def spec_from_json(obj) -> SymbolSpec:
    """The spec of a `spec_to_json` object; a blaschke `prefactor` left out
    is 1.  Raises ValueError, with a message for the user, when obj is
    malformed or names an unknown kind."""
    try:
        kind = obj["kind"]
        if kind == "monomial":
            return SymbolSpec(kind, power=json_int(obj["power"], "power"))
        if kind in ONE_TERM_KINDS:
            return SymbolSpec(kind, value=json_to_complex(obj["value"]))
        if kind == "polynomial":
            return SymbolSpec.polynomial([json_to_complex(c) for c in obj["coeffs"]])
        if kind == "blaschke":
            return SymbolSpec.blaschke(
                [json_to_complex(a) for a in obj["zeros"]],
                prefactor=json_to_complex(obj.get("prefactor", {"re": 1.0, "im": 0.0})),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed symbol spec: {exc}") from exc
    raise ValueError(f"unknown symbol kind {kind!r}")


@dataclass(frozen=True, eq=False)
class SymbolRealization:
    """A spec together with its truncated expansion and metadata.

    series_exact is True when the Taylor expansion terminates within the
    stored order (the stored polynomial IS the symbol); degree is then the
    exact polynomial degree (None for the zero symbol or when inexact).

    sup_norm_estimate is what `orbits.orbit` reads to choose between
    direct and FFT rows: the sup on T of the series cut to order N, taken
    as |value| for a one-term kind and 1 for a Blaschke product, and for
    a polynomial the largest modulus of the cut series on a grid, not of
    the whole polynomial when its degree exceeds N.
    """

    spec: SymbolSpec
    series: TruncatedSeries
    sup_norm_estimate: float
    series_exact: bool
    degree: int | None


@dataclass(frozen=True)
class BoundaryModulusReport:
    max_deviation: float
    sub_unit_fraction: float
    verdict: str  # inner | non_inner | inconclusive
    tolerance: float
    min_modulus: float
    max_modulus: float
    intersects_circle: bool
    norm_trend: str  # decays_to_zero | bounded_non_decaying | grows


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
    if spec.kind == "polynomial":
        return series_from_coeffs(spec.coeffs, order)
    if spec.kind == "blaschke":
        acc = series_from_coeffs([spec.prefactor], order)
        for a in spec.zeros:
            acc = mul(acc, _blaschke_factor_series(a, order), order)
        return acc
    out = np.zeros(order + 1, dtype=complex)  # value * z^power
    if spec.power <= order:
        out[spec.power] = spec.value
    return TruncatedSeries(out)


def _structural_degree(spec: SymbolSpec) -> int | None:
    """Exact degree of the symbol when it is genuinely a polynomial."""
    if spec.kind in ONE_TERM_KINDS:
        return spec.power if spec.value != 0 else None
    if spec.kind == "polynomial":
        nz = np.nonzero(np.asarray(spec.coeffs, dtype=complex))[0]
        return int(nz[-1]) if nz.size else None
    if all(a == 0 for a in spec.zeros):
        return len(spec.zeros)  # u * z^k exactly
    return None


def realize(spec: SymbolSpec, order: int) -> SymbolRealization:
    """Expand a spec to the given order and attach structural metadata."""
    if order < 0:
        raise ValueError("expansion order must be >= 0")
    series = _expand(spec, order)
    degree = _structural_degree(spec)
    # no degree: the zero symbol, stored exactly, or a Blaschke product with
    # a zero off 0, whose infinite Taylor series the stored one truncates
    series_exact = spec.kind != "blaschke" if degree is None else degree <= order
    sup = _sup_norm_for(spec, series, order)
    return SymbolRealization(
        spec=spec,
        series=series,
        sup_norm_estimate=sup,
        series_exact=bool(series_exact),
        degree=degree if series_exact else None,
    )


def _sup_norm_for(spec: SymbolSpec, series: TruncatedSeries, order: int) -> float:
    if spec.kind in ONE_TERM_KINDS:
        return abs(spec.value)
    if spec.kind == "blaschke":
        return 1.0  # inner: boundary modulus is identically 1
    # Polynomial: maximum boundary modulus (maximum modulus principle), on
    # the smallest grid of 256 * 2^j points with M > 4N.
    grid = BoundaryGrid(max(256, 1 << (4 * order).bit_length()))
    return float(np.max(np.abs(boundary_samples(series, grid))))


def evaluate_symbol(spec: SymbolSpec, points: np.ndarray) -> np.ndarray:
    """Symbol values at arbitrary points of the closed disk.

    Exact closed forms for constant/monomial/scaled_shift/blaschke specs;
    Horner on all the coefficients of a polynomial.
    """
    z = np.asarray(points, dtype=complex)
    if spec.kind in ONE_TERM_KINDS:
        return spec.value * z**spec.power
    if spec.kind == "blaschke":
        vals = np.full(z.shape, complex(spec.prefactor))
        for a in spec.zeros:
            if a == 0:
                vals = vals * z
            else:
                vals = vals * (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)
        return vals
    acc = np.zeros(z.shape, dtype=complex)
    for c in spec.coeffs[::-1]:
        acc = acc * z + c
    return acc


def vanishes_in_disk(spec: SymbolSpec) -> bool:
    """Whether a nonzero phi has a zero in the open disk.

    A one-term symbol c z^m with m >= 1 vanishes at 0, and a constant
    nowhere.  A Blaschke product vanishes iff it has a zero, since every
    zero lies in D by construction (a zero at 0 counts).  A polynomial
    counts every root of modulus < 1 of all its coefficients, including
    those `zeros_in_disk` files as boundary-ambiguous.
    """
    if spec.kind in ONE_TERM_KINDS:
        return spec.power >= 1
    if spec.kind == "blaschke":
        return bool(spec.zeros)
    poly = series_from_coeffs(spec.coeffs)
    deg = poly.exact_degree()
    if not deg:
        return False
    return bool(np.any(np.abs(np.roots(poly.coeffs[deg::-1])) < 1.0))


def boundary_values(spec: SymbolSpec, grid: BoundaryGrid) -> np.ndarray:
    """Symbol values at the grid points on the unit circle.

    A Blaschke product is its closed form evaluated at those points; a
    polynomial phi takes one FFT of all its coefficients, folded mod M, so
    no expansion order enters.  A one-term symbol c z^m reads c times
    grid point (m j mod M) at point j, which is z_j^m exactly for any
    power, where numpy's z**m loses |z| = 1 as m grows.
    """
    if spec.kind in ONE_TERM_KINDS:
        size = grid.size
        return spec.value * grid.points[(spec.power % size) * np.arange(size) % size]
    if spec.kind == "blaschke":
        return evaluate_symbol(spec, grid.points)
    return boundary_samples(series_from_coeffs(spec.coeffs), grid)


def boundary_modulus(
    spec: SymbolSpec, grid: BoundaryGrid, inner_tol: float = INNER_TOL_EXACT
) -> BoundaryModulusReport:
    """What |phi| on the grid's M points says, read from one sample.

    Inner-ness: max_deviation is max_j ||phi(point_j)| - 1|, and
    sub_unit_fraction, the fraction of points with |phi| < 1 - inner_tol,
    is the finite surrogate for "|phi| < 1 on a set of positive measure"
    (evidence, not a measure-theoretic statement).  inner_tol is the
    config's, whatever the symbol's kind.

    The image: by the maximum and minimum modulus principles the closure of
    phi(D) misses T iff max_T |phi| < 1, or phi has no zero in D and
    min_T |phi| > 1.  min_modulus and max_modulus are the grid's extremes,
    compared with 1 within CIRCLE_TOL, so an inner symbol, whose sampled
    |phi| is 1 up to rounding, meets T; the zero test runs only when
    min_T |phi| > 1, which no inner symbol reaches.

    The norm trend of ||phi^n f|| for every seed f != 0: ||phi^n f||^2 is
    the integral over T of |phi|^(2n) |f|^2 and f vanishes only on a null
    set of T, so lim ||phi^n f||^(1/n) = max_T |phi|, and the norms grow
    when it exceeds 1.  Otherwise they tend to 0 iff |phi| < 1 a.e. on T,
    which for a phi analytic across T (every kind) fails only when
    |phi| = 1 on all of T.
    """
    moduli = np.abs(boundary_values(spec, grid))
    lo, hi = float(np.min(moduli)), float(np.max(moduli))
    max_dev = max(hi - 1.0, 1.0 - lo)  # max_j ||phi(point_j)| - 1|
    sub_unit = float(np.count_nonzero(moduli < 1.0 - inner_tol)) / grid.size
    if max_dev < inner_tol:
        verdict = "inner"
    elif sub_unit > 0.0 or max_dev > 10.0 * inner_tol:
        verdict = "non_inner"
    else:
        verdict = "inconclusive"
    misses = hi < 1.0 - CIRCLE_TOL or (
        lo > 1.0 + CIRCLE_TOL and not vanishes_in_disk(spec)
    )
    if hi > 1.0 + CIRCLE_TOL:
        trend = "grows"
    elif lo < 1.0 - CIRCLE_TOL:
        trend = "decays_to_zero"
    else:
        trend = "bounded_non_decaying"
    return BoundaryModulusReport(
        max_deviation=max_dev,
        sub_unit_fraction=sub_unit,
        verdict=verdict,
        tolerance=float(inner_tol),
        min_modulus=lo,
        max_modulus=hi,
        intersects_circle=not misses,
        norm_trend=trend,
    )
