"""Multiplication symbols: declarative specs, Taylor expansion, |phi| on T.

A symbol is a bounded holomorphic function on the disk, read as the
product phi = value * z^power * B * p of a constant, a monomial, a finite
Blaschke product B and a polynomial p; a factor a spec leaves out equals
1 and is skipped, never multiplied in.  `realize` turns a spec into a
truncated expansion plus structural metadata: what an orbit multiplies
by.  The boundary functions take the spec itself, so no expansion order
enters: closed forms for value * z^power and B, one FFT of all of p.
`boundary_modulus` reads |phi| on the grid once and derives from it
everything the lab asks of the boundary: inner-ness, whether the image
of the disk meets the circle, and whether orbit norms decay or grow.

The kind is only a label: it fixes the fields it names, and nothing but
the report label (`describe`) and the JSON codec (`spec_to_json`,
`spec_from_json`) reads it, here or in any other module.
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
# inner_tol of the inner-ness verdict, for every symbol: a closed form gives
# |phi| on T to a few ulps, and a polynomial's FFT sum to about
# (d + 1) eps sum |a_n|.  CIRCLE_TOL tells |phi| = 1 from |phi| != 1 for
# the image and the norm trend.
INNER_TOL_EXACT = 1e-9
CIRCLE_TOL = 1e-9


@dataclass(frozen=True)
class SymbolSpec:
    """Declarative description of the symbol phi = value * z^power * B * p.

    B is the Blaschke product of the zeros, each strictly inside the disk,
    and p the polynomial of the coeffs; no zeros, or no coeffs, leave that
    factor out.  The kind fixes the fields it names: a constant c is
    c * z^0, z^m is 1 * z^m and c*z is c * z^1, so
    `SymbolSpec(kind="monomial", power=2)` equals `SymbolSpec.monomial(2)`.
    Only `SymbolSpec.blaschke` asks for a unimodular value, so P4i's
    0.9 * b_{1/2} is `SymbolSpec(kind="blaschke", zeros=(0.5,), value=0.9)`.
    """

    kind: str
    value: complex = 1.0 + 0j
    power: int = 0
    coeffs: tuple = ()                      # p
    zeros: tuple = ()                       # B

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        value = complex(1.0 if self.kind == "monomial" else self.value)
        power = {"constant": 0, "scaled_shift": 1}.get(self.kind, self.power)
        try:
            power = operator.index(power)
        except TypeError:
            raise ValueError(
                f"{self.kind} power must be an integer, not {self.power!r}"
            ) from None
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "power", power)
        if not np.isfinite(value):
            raise ValueError("symbol value must be finite")
        if power < 0:
            raise ValueError(f"{self.kind} power must be >= 0")
        if self.kind == "polynomial" and not self.coeffs:
            raise ValueError("polynomial spec needs coefficients")
        if not np.all(np.isfinite(np.asarray(self.coeffs, dtype=complex))):
            raise ValueError("polynomial coefficients must be finite")
        for a in self.zeros:
            # written so that a NaN zero fails too
            if not abs(complex(a)) < 1.0 - BLASCHKE_ZERO_MARGIN:
                raise ValueError(
                    f"Blaschke zero {a} too close to or outside the unit circle"
                )

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
        """The Blaschke product with these zeros times a unimodular prefactor."""
        if not abs(abs(complex(prefactor)) - 1.0) < UNIMODULAR_TOL:
            raise ValueError("Blaschke prefactor must be unimodular")
        zeros = tuple(complex(a) for a in zeros)
        return cls(kind="blaschke", zeros=zeros, value=prefactor)


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
    """The spec as a JSON object: its kind and the fields that kind reads.
    Raises ValueError when that object would not read back as the spec."""
    out: dict = {"kind": spec.kind}
    if spec.kind == "monomial":
        out["power"] = spec.power
    elif spec.kind in ONE_TERM_KINDS:
        out["value"] = complex_to_json(spec.value)
    elif spec.kind == "polynomial":
        out["coeffs"] = [complex_to_json(c) for c in spec.coeffs]
    else:
        out["zeros"] = [complex_to_json(a) for a in spec.zeros]
        out["prefactor"] = complex_to_json(spec.value)
    try:
        same = spec_from_json(out) == spec
    except ValueError:
        same = False
    if not same:
        raise ValueError(f"the JSON fields of kind {spec.kind!r} cannot carry {spec}")
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

    The series is the product of the factors' series, cut to the order.
    series_exact is True when phi's Taylor expansion terminates within
    the stored order (the stored polynomial IS the symbol): phi is 0, or
    every zero of B is 0 and power + #zeros + deg p is at most the order;
    degree is then that degree (None for the zero symbol or when inexact).

    sup_norm_estimate is what `orbits.orbit` reads to choose between
    direct and FFT rows: |value| times the largest modulus of p cut to
    order N on a grid (not of the whole p when its degree exceeds N), or
    |value| alone when the spec has no p, since z^power and B have modulus
    1 on T.
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
    """The Cauchy product of the present factors' series, cut to the order."""
    acc = None
    if spec.value != 1 or spec.power:
        out = np.zeros(order + 1, dtype=complex)  # value * z^power
        if spec.power <= order:
            out[spec.power] = spec.value
        acc = TruncatedSeries(out)
    factors = [_blaschke_factor_series(a, order) for a in spec.zeros]
    if spec.coeffs:
        factors.append(series_from_coeffs(spec.coeffs, order))
    for factor in factors:
        acc = factor if acc is None else mul(acc, factor, order)
    return series_from_coeffs([1.0], order) if acc is None else acc


def _structural_degree(spec: SymbolSpec) -> int | None:
    """Exact degree of phi when it is a nonzero polynomial: power + the
    number of zeros + deg p, when every zero is 0."""
    nz = np.flatnonzero(spec.coeffs)
    if spec.value == 0 or any(spec.zeros) or (spec.coeffs and not nz.size):
        return None
    return spec.power + len(spec.zeros) + (int(nz[-1]) if nz.size else 0)


def realize(spec: SymbolSpec, order: int) -> SymbolRealization:
    """Expand a spec to the given order and attach structural metadata."""
    if order < 0:
        raise ValueError("expansion order must be >= 0")
    series = _expand(spec, order)
    degree = _structural_degree(spec)
    # no degree: the zero symbol, stored exactly, or a product with a Blaschke
    # zero off 0, whose infinite Taylor series the stored one truncates
    zero = spec.value == 0 or (bool(spec.coeffs) and not any(spec.coeffs))
    series_exact = zero if degree is None else degree <= order
    return SymbolRealization(
        spec=spec,
        series=series,
        sup_norm_estimate=_sup_norm_for(spec, order),
        series_exact=bool(series_exact),
        degree=degree if series_exact else None,
    )


def _sup_norm_for(spec: SymbolSpec, order: int) -> float:
    """|value| times the largest modulus on T of p cut to the order, or
    |value| alone without p: z^power and B have modulus 1 there.  p's is
    read on the smallest grid of 256 * 2^j points with M > 4N (maximum
    modulus principle)."""
    if not spec.coeffs:
        return abs(spec.value)
    grid = BoundaryGrid(max(256, 1 << (4 * order).bit_length()))
    p = series_from_coeffs(spec.coeffs, order)
    sup = float(np.max(np.abs(boundary_samples(p, grid))))
    return sup if spec.value == 1 else abs(spec.value) * sup


def _product(spec: SymbolSpec, z: np.ndarray, one_term, poly) -> np.ndarray:
    """phi at the points z.  one_term() and poly() give value * z^power
    and p there, and are called only when that factor is present; B is
    its closed form.  An absent factor is skipped, not multiplied in as 1."""
    vals = one_term() if spec.value != 1 or spec.power else None
    for a in spec.zeros:
        if a == 0:
            vals = z.copy() if vals is None else vals * z
        else:
            unit = abs(a) / a if vals is None else vals * (abs(a) / a)
            vals = unit * (a - z) / (1.0 - np.conj(a) * z)
    if spec.coeffs:
        vals = poly() if vals is None else vals * poly()
    return np.ones(z.shape, dtype=complex) if vals is None else vals


def evaluate_symbol(spec: SymbolSpec, points: np.ndarray) -> np.ndarray:
    """Symbol values at arbitrary points of the closed disk: the closed
    forms of value * z^power and B, and Horner on all of p's coefficients."""
    z = np.asarray(points, dtype=complex)
    return _product(
        spec,
        z,
        lambda: spec.value * z**spec.power,
        lambda: np.polyval(spec.coeffs[::-1], z),  # Horner on all of p
    )


def vanishes_in_disk(spec: SymbolSpec) -> bool:
    """Whether a nonzero phi has a zero in the open disk.

    z^power vanishes at 0 when power >= 1, and B at each of its zeros,
    which lie in D by construction (a zero at 0 counts).  p counts every
    root of modulus < 1 of all its coefficients, including those
    `zeros_in_disk` files as boundary-ambiguous.
    """
    if spec.power >= 1 or spec.zeros:
        return True
    p = np.trim_zeros(np.asarray(spec.coeffs, dtype=complex), "b")
    return p.size > 1 and bool(np.any(np.abs(np.roots(p[::-1])) < 1.0))


def boundary_values(spec: SymbolSpec, grid: BoundaryGrid) -> np.ndarray:
    """Symbol values at the grid points on the unit circle.

    value * z^power reads value times grid point (power j mod M) at point
    j, which is z_j^power exactly for any power, where numpy's z**m loses
    |z| = 1 as m grows.  B is its closed form at the points, and p one
    FFT of all its coefficients, folded mod M, so no expansion order
    enters.
    """
    size = grid.size
    return _product(
        spec,
        grid.points,
        lambda: spec.value * grid.points[(spec.power % size) * np.arange(size) % size],
        lambda: boundary_samples(series_from_coeffs(spec.coeffs), grid),
    )


def boundary_modulus(
    spec: SymbolSpec, grid: BoundaryGrid, inner_tol: float = INNER_TOL_EXACT
) -> BoundaryModulusReport:
    """What |phi| on the grid's M points says, read from one sample.

    Inner-ness: max_deviation is max_j ||phi(point_j)| - 1|, and
    sub_unit_fraction, the fraction of points with |phi| < 1 - inner_tol,
    is the finite surrogate for "|phi| < 1 on a set of positive measure"
    (evidence, not a measure-theoretic statement).  inner_tol is the
    config's, whatever the symbol.

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
    which for a phi analytic across T (every spec) fails only when
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
