"""Scripted verification suites, one per proposition or worked example.

Each suite runs a fixed battery of (symbol, seed) experiments at the
resolutions taken from the experiment config and reduces the evidence to
a verdict: `consistent` when every stated inequality holds within
tolerance, `inconsistent` when one fails beyond tolerance, and
`inconclusive` when the data neither confirms nor refutes (the cyclicity
suite reports a documented tension instead of guessing).

P1, P2, P4i, P4ii and P6 are each a list of cases and one check, which
`_cases` runs on each case's (symbol, seed); a check that reads the
orbit builds it once, at the config's (N, K), and the evidence columns
the suites share are each written by one helper.  P1 and P4i read
whether the orbit norms decay or grow from one sample per case of |phi|
on the boundary grid (`boundary_modulus`, which also gives P1 its
inner-ness verdict), where the limit rate lim ||phi^n f||^(1/n) =
max_T |phi| is exact, and both ask for one no-frame signature that this
trend picks: a collapse of the orbit's lower bound A when the norms
decay, and when they grow a rise of the exact norms ||phi^n f||^2,
which bound the upper bound B from below and are read on the grid with
no orbit built.  P1's `branch` label is read from the same trend.

Verdicts describe finite-truncation evidence, never proofs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig
from .diagnostics import (
    class_support,
    cyclicity_rank,
    kernel_orthogonality_witness,
    zeros_in_disk,
)
from .frames import (
    FrameBounds,
    bounds_from_singular_values,
    log10_orbit_norms_sq,
    partial_frame_sums,
    section_bounds,
)
from .orbits import Orbit, orbit_for
from .series import BoundaryGrid
from .symbols import SymbolSpec, boundary_modulus, describe

P6_TENSION_NOTE = (
    "a numerically cyclic seed (full rank at truncation) shows a lower-bound "
    "estimate vanishing as N grows; the sufficiency direction is reported as "
    "tension in the data, not decided"
)
P6_UNDERRESOLVED_REASON = (
    "K < N: the K+1 orbit elements cannot span the N+1 coefficients, so no "
    "seed can read numerically cyclic at this resolution"
)


class UnknownPropositionError(ValueError):
    pass


@dataclass(frozen=True)
class VerificationReport:
    proposition: str
    verdict: str  # consistent | inconsistent | inconclusive
    evidence: dict
    parameters: dict


def report_to_json(report: VerificationReport) -> dict:
    return asdict(report)


# -- shared helpers ----------------------------------------------------------


def _cases(config: ExperimentConfig, cases, check) -> tuple[bool, dict]:
    """Run check on each (label, spec, seed, *args) case.

    check(spec, seed, *args) returns the case's evidence entry and whether
    it agrees with the proposition; a check that reads the orbit builds it
    with _orbit.  Each entry is keyed by its label and gets a `symbol`
    column, which the check may override.  Returns whether every case
    agrees, and the evidence.
    """
    agree, evidence = True, {}
    for label, spec, seed, *args in cases:
        entry, ok = check(spec, seed, *args)
        evidence[label] = {"symbol": describe(spec), **entry}
        agree = agree and bool(ok)
    return agree, evidence


def _orbit(config: ExperimentConfig, spec: SymbolSpec, seed) -> Orbit:
    """The orbit of seed under spec at the config's (N, K)."""
    return orbit_for(spec, seed, config.truncation_order, config.orbit_length)


def _square_trend(orb) -> tuple[list, dict]:
    """FrameBounds at the square sections (n', n') for the n' of
    _trend_orders(N), and the `A_trend` column."""
    trend = section_bounds(orb, [(nn, nn) for nn in _trend_orders(orb.order)])
    return trend, {"A_trend": [b.A_est for b in trend]}


def _no_frame_signature(
    config, spec, seed, scan
) -> tuple[dict, bool, Orbit | None, FrameBounds | None]:
    """Whether the orbit of seed under spec shows that it is no frame,
    read the way the norm trend of scan (spec's BoundaryModulusReport)
    says it can.

    Growing norms blow up the upper bound, since B >= ||phi^n f||^2 for
    every n: the exact `log10_norm_sq_trend`, at the n of
    _trend_orders(K), must rise by more than 1 (tenfold), and no orbit
    is built.  Otherwise the orbit at (N, K) is built and its lower bound
    must collapse: the last `A_trend` point of _square_trend is
    numerically zero or below 1e-8 of its B, and only `decays_to_zero`
    norms can show that.  Returns the columns (the norm trend, its rate
    lim ||phi^n f||^(1/n) = max_T |phi|, and the trend read), whether
    the signature is shown, and the orbit and the last FrameBounds of its
    trend, both None when the norms grow.
    """
    columns = {"decay_classification": scan.norm_trend, "decay_rate": scan.max_modulus}
    if scan.norm_trend == "grows":
        grid = BoundaryGrid(config.boundary_grid)
        orders = _trend_orders(config.orbit_length)
        trend = log10_orbit_norms_sq(spec, seed, grid, orders)
        columns["log10_norm_sq_trend"] = trend
        return columns, trend[-1] - trend[0] > 1.0, None, None
    orb = _orbit(config, spec, seed)
    trend, trend_columns = _square_trend(orb)
    last = trend[-1]
    columns.update(trend_columns)
    columns["lower_bound_numerically_zero"] = last.numerically_zero_lower
    shown = scan.norm_trend == "decays_to_zero" and bool(
        last.numerically_zero_lower or last.A_est < 1e-8 * last.B_est
    )
    return columns, shown, orb, last


def _bounds_columns(bounds) -> dict:
    return {
        "A_est": bounds.A_est,
        "B_est": bounds.B_est,
        "lower_bound_numerically_zero": bounds.numerically_zero_lower,
    }


def _parameters(config: ExperimentConfig) -> dict:
    return {
        "N": config.truncation_order,
        "K": config.orbit_length,
        "M": config.boundary_grid,
        "tolerances": asdict(config.tolerances),
    }


def _verdict(consistent: bool) -> str:
    return "consistent" if consistent else "inconsistent"


def _trend_orders(n: int) -> list:
    return sorted({max(8, n // 4), max(12, n // 2), max(16, n)})


# -- P1: a frame forces the symbol to be inner -------------------------------


def _verify_p1(config: ExperimentConfig) -> tuple[str, dict]:
    grid = BoundaryGrid(config.boundary_grid)

    def check(spec, seed):
        scan = boundary_modulus(spec, grid, config.tolerances.inner_tol)
        signature, shown, _, last = _no_frame_signature(config, spec, seed, scan)
        entry = {
            "innerness_verdict": scan.verdict,
            "sub_unit_fraction": scan.sub_unit_fraction,
            **signature,
            "no_frame_signature": shown,
        }
        if scan.norm_trend == "grows":
            entry["branch"] = "unnormalized"
        else:
            entry.update(branch="normalized", B_at_max_N=last.B_est)
        return entry, scan.verdict == "non_inner" and shown

    consistent, evidence = _cases(config, [
        ("constant_half", SymbolSpec.constant(0.5), (1.0,)),
        ("shift_half", SymbolSpec.scaled_shift(0.5), (1.0,)),
        ("constant_5_4", SymbolSpec.constant(1.25), (1.0,)),
        ("shift_5_4", SymbolSpec.scaled_shift(1.25), (1.0,)),
    ], check)
    return _verdict(consistent), evidence


# -- P2: powers of z never frame, any seed -----------------------------------

# P2's random seed coefficients, by power m: 4 for the class-one seed, then 6
# for the mixed seed.  They are the standard normals of
# np.random.default_rng(20240211), drawn for m = 2 and then m = 3, in the
# order listed, each real part before its imaginary part, and written out
# exactly so that no CLI path imports numpy.random.
_P2_RANDOM_COEFFS = {
    2: (
        (
            0.3378929961449536 + 2.7543286330760606j,
            1.3098144170486663 + 0.14945938110981827j,
            0.13249107308674327 + 0.9111973841926783j,
            0.48454503280896755 + 1.0517440329773122j,
        ),
        (
            0.08094733325296635 + 0.8326546476509249j,
            -0.0911936292598738 + 1.0369431562946754j,
            -1.4363389679754106 - 2.286852584294499j,
            -0.5804594787310821 + 1.0561809431240046j,
            1.8466603035635138 - 1.1186245609099117j,
            0.6558627298208981 + 0.34686541403250526j,
        ),
    ),
    3: (
        (
            0.00048406580734860176 - 2.170822873762393j,
            -1.4091973405439298 + 0.056988312700930376j,
            -0.5066110194756502 - 0.2545019238386715j,
            -0.8514110744315929 - 1.392826467891006j,
        ),
        (
            0.9318422640154562 - 0.7255794385000937j,
            0.24671836931180705 - 0.657556106078543j,
            0.532554440534264 - 1.279770045478816j,
            -0.9593383633191441 - 0.9202048067340743j,
            -0.3431346475423611 + 0.036975360820767286j,
            -0.954440477503775 + 1.2985084034113563j,
        ),
    ),
}


def _verify_p2(config: ExperimentConfig) -> tuple[str, dict]:
    def check(spec, seed, confined_seed):
        orb = _orbit(config, spec, seed)
        cyc = cyclicity_rank(orb, config.tolerances.rank_tol)
        bounds = bounds_from_singular_values(orb.singular_values, orb.V.shape)
        witness = _span_deficit_witness(orb)
        entry = {
            "rank": cyc.rank,
            "span_dimension_deficit": cyc.span_dimension_deficit,
            **_bounds_columns(bounds),
            "witness_frame_sum": float(partial_frame_sums(witness, orb)[-1, 0]),
        }
        ok = cyc.span_dimension_deficit > 0 and bounds.numerically_zero_lower
        if confined_seed:
            confined = _confinement_holds(orb)
            entry["orbit_confined_to_seed_classes"] = confined
            ok = ok and confined
        return entry, ok

    cases = []
    for m in (2, 3):
        spec = SymbolSpec.monomial(m)
        class_one, mixed = _P2_RANDOM_COEFFS[m]
        # class_one on the indices 1, 1 + m, 1 + 2m, 1 + 3m: residue class 1
        class_one_seed = [0j] * (2 + m * (len(class_one) - 1))
        class_one_seed[1::m] = class_one
        one_plus_z_m = tuple(1.0 if i in (0, m) else 0.0 for i in range(m + 1))
        cases += [
            (f"m{m}_one", spec, (1.0,), True),
            (f"m{m}_one_plus_z_m", spec, one_plus_z_m, False),
            (f"m{m}_class_one_random", spec, tuple(class_one_seed), True),
            (f"m{m}_mixed_random", spec, mixed, False),
        ]
    consistent, evidence = _cases(config, cases, check)
    return _verdict(consistent), evidence


def _span_deficit_witness(orb) -> np.ndarray:
    """A nonzero series orthogonal to every element of the orbit of z^m,
    m >= 2, from its seed f, as a one-row probe of its coefficients 0, 1.

    For n >= 1, z^{mn} f lies in z^m H^2, orthogonal to span{1, z}, so only
    f meets that plane.  When f_j = 0 for j in {0, 1}, column j of V is
    exactly zero and the witness is z^j; otherwise it is
    conj(f_1) - conj(f_0) z, whose pairing with f is f_0 f_1 - f_1 f_0.
    """
    f0, f1 = orb.V[0, :2]
    if f0 == 0 or f1 == 0:
        return np.eye(1, 2, 0 if f0 == 0 else 1, dtype=complex)
    return np.array([[np.conj(f1), -np.conj(f0)]])


def _confinement_holds(orb) -> bool:
    """Every exactly-nonzero coefficient of the orbit of z^m lies in a
    residue class mod m of the seed."""
    m = orb.symbol.spec.power
    columns = np.nonzero(np.any(orb.V != 0, axis=0))[0]
    return {int(j) % m for j in columns} <= set(class_support(orb.seed, m))


# -- P3: unimodular constants diverge linearly --------------------------------


def _verify_p3(config: ExperimentConfig) -> tuple[str, dict]:
    evidence = {}
    consistent = True
    # the probes 1 and 1 + z, one row each
    probes = np.array([[1.0, 0.0], [1.0, 1.0]])
    for label, theta in (("pi_over_4", np.pi / 4), ("pi_over_7", np.pi / 7)):
        spec = SymbolSpec.constant(np.exp(1j * theta))
        orb = _orbit(config, spec, (1.0,))
        columns = partial_frame_sums(probes, orb).T
        for g_label, g, sums in zip(("one", "one_plus_z"), probes, columns):
            increments = np.diff(np.concatenate([[0.0], sums]))
            expected = abs(np.vdot(orb.V[0, : g.size], g)) ** 2
            idx = np.arange(sums.size, dtype=float)
            design = np.vstack([idx, np.ones_like(idx)]).T
            # one fit per probe: fitting both columns at once rounds otherwise
            slope = float(np.linalg.lstsq(design, sums, rcond=None)[0][0])
            entry = {
                "symbol": describe(spec),
                "g": g_label,
                "expected_increment": float(expected),
                "fitted_slope": slope,
                "min_increment": float(np.min(increments)),
                "final_partial_sum": float(sums[-1]),
            }
            ok = (
                abs(slope - expected) <= 1e-6 * max(1.0, expected)
                and np.min(increments) >= expected * (1.0 - 1e-9)
            )
            consistent = consistent and bool(ok)
            evidence[f"{label}_g_{g_label}"] = entry
    return _verdict(consistent), evidence


# -- P4(i): image misses the circle => decay or growth ------------------------


def _verify_p4i(config: ExperimentConfig) -> tuple[str, dict]:
    """Each symbol's image closure misses T, decided from |phi| on the M
    grid points (min_modulus and max_modulus are its extremes there); the
    inside symbol's orbit must decay and the outside one's grow.

    The same extremes give `decay_classification`, so on these symbols it
    restates the hypothesis.  What tests the conclusion is the no-frame
    signature (the collapse of the inside symbol's orbit `A_trend`, the
    rise of the outside symbol's exact `log10_norm_sq_trend`, for which no
    orbit is built) and `norms_below_geometric_envelope` of the inside
    orbit."""
    grid = BoundaryGrid(config.boundary_grid)

    def check(spec, seed):
        scan = boundary_modulus(spec, grid)
        signature, shown, orb, _ = _no_frame_signature(config, spec, seed, scan)
        entry = {
            "intersects_circle": scan.intersects_circle,
            "min_modulus": scan.min_modulus,
            "max_modulus": scan.max_modulus,
            **signature,
        }
        if scan.norm_trend == "grows":
            ok = abs(scan.max_modulus - 2.0) <= 1e-6
        else:
            ok = bool(np.all(orb.norms <= 0.9 ** np.arange(orb.length) + 1e-12))
            entry.update({
                "symbol": "0.9 * blaschke(0.5)",
                "norms_below_geometric_envelope": ok,
            })
        return entry, shown and ok and not scan.intersects_circle

    inside_spec = SymbolSpec(kind="blaschke", zeros=(0.5,), value=0.9)
    consistent, evidence = _cases(config, [
        ("inside_scaled_blaschke", inside_spec, (1.0,)),
        ("outside_constant_two", SymbolSpec.constant(2.0), (1.0,)),
    ], check)
    return _verdict(consistent), evidence


# -- P4(ii): a seed zero inside the disk kills the span -----------------------


def _verify_p4ii(config: ExperimentConfig) -> tuple[str, dict]:
    def check(spec, seed):
        orb = _orbit(config, spec, seed)
        found = zeros_in_disk(orb.seed, margin=0.05)
        bounds = bounds_from_singular_values(orb.singular_values, orb.V.shape)
        max_norm = float(np.max(orb.norms))
        pairing_rows = []
        worst_rel = 0.0
        for z0 in found.inside:
            max_pairing = kernel_orthogonality_witness(orb, z0)
            rel = max_pairing / max_norm
            worst_rel = max(worst_rel, rel)
            pairing_rows.append(
                {
                    "zero_re": z0.real,
                    "zero_im": z0.imag,
                    "max_pairing": max_pairing,
                    "relative_to_max_norm": rel,
                }
            )
        entry = {
            "n_interior_zeros": len(found.inside),
            "kernel_pairings": pairing_rows,
            **_bounds_columns(bounds),
        }
        ok = bool(found.inside) and worst_rel < 1e-10 and bounds.numerically_zero_lower
        return entry, ok

    consistent, evidence = _cases(config, [
        ("shift_seed_z_minus_half", SymbolSpec.monomial(1), (-0.5, 1.0)),
        ("shift_seed_quadratic", SymbolSpec.monomial(1), (-0.12, 0.1, 1.0)),
        ("blaschke_seed_z_minus_half", SymbolSpec.blaschke([0.3]), (-0.5, 1.0)),
    ], check)
    return _verdict(consistent), evidence


# -- Worked examples ----------------------------------------------------------


def _verify_ex_constant(config: ExperimentConfig) -> tuple[str, dict]:
    n = config.truncation_order
    k = 60  # partial sum is then within 4^-60 of the closed form
    orb = orbit_for(SymbolSpec.constant(0.5), (1.0,), n, k)
    fs = float(partial_frame_sums(np.ones((1, 1)), orb)[-1, 0])
    closed_form = 1.0 / (1.0 - 0.25)
    oracle = float(np.cumsum(4.0 ** -np.arange(k + 1, dtype=float))[-1])
    evidence = {
        "frame_sum": fs,
        "closed_form_limit": closed_form,
        "geometric_oracle_partial_sum": oracle,
        "abs_difference_to_limit": abs(fs - closed_form),
        "matches_oracle_exactly": fs == oracle,
        "K_used": k,
    }
    consistent = abs(fs - closed_form) < 1e-12 and fs == oracle
    return _verdict(consistent), evidence


def _verify_ex_half_shift(config: ExperimentConfig) -> tuple[str, dict]:
    n_exact, k_exact = 40, 40
    spec = SymbolSpec.scaled_shift(0.5)
    orb = orbit_for(spec, (1.0,), n_exact, k_exact)
    # the probes z^0 .. z^32, one row each
    fs = partial_frame_sums(np.eye(33), orb)[-1]
    exact_failures = [kk for kk in range(33) if fs[kk] != 4.0 ** -kk]
    trend_rows = []
    worst = 0.0
    orders = (8, 12, 16)
    trend = section_bounds(orb, [(nn, nn) for nn in orders])
    for nn, bounds in zip(orders, trend):
        err = abs(bounds.A_est - 4.0 ** -nn)
        worst = max(worst, err)
        trend_rows.append(
            {"N": nn, "A_est": bounds.A_est, "closed_form": 4.0 ** -nn, "abs_error": err}
        )
    evidence = {
        "frame_sum_exact_for_monomials_up_to": 32,
        "exact_equality_failures": exact_failures,
        "lower_bound_trend": trend_rows,
        "worst_lower_bound_error": worst,
    }
    consistent = not exact_failures and worst < 1e-12
    return _verdict(consistent), evidence


def _verify_ex_3_1(config: ExperimentConfig) -> tuple[str, dict]:
    n = k = max(config.truncation_order, config.orbit_length)
    spec = SymbolSpec.monomial(1)
    orb = orbit_for(spec, (1.0,), n, k)
    bounds = bounds_from_singular_values(orb.singular_values, orb.V.shape)

    # 100 deterministic probes: Weyl sequences in the golden ratio and in
    # sqrt(2) give each coefficient its own modulus in [0.5, 1.5) and phase
    idx = np.arange(100 * (n + 1), dtype=float).reshape(100, n + 1)
    moduli = 0.5 + np.mod(idx * ((np.sqrt(5.0) - 1.0) / 2.0), 1.0)
    phases = 2.0 * np.pi * np.mod(idx * (np.sqrt(2.0) - 1.0), 1.0)
    probes = moduli * np.exp(1j * phases)
    worst_rel = 0.0
    # each squared norm is its own np.vdot: np.einsum or np.linalg.norm over
    # all rows sums in another order and moves the reported error (at
    # N = K = 64, 6.2095e-16 becomes 0 or 6.08e-16)
    for g, fs in zip(probes, partial_frame_sums(probes, orb)[-1]):
        nsq = float(np.vdot(g, g).real)
        worst_rel = max(worst_rel, abs(float(fs) - nsq) / nsq)

    # seed 1 - z: the frame sum of 1 + z + ... + z^n' telescopes to 1, so
    # the normalized sum collapses to 1 / (n' + 1); the orbit at (n', n') is
    # the leading block of the one at the largest n'
    orders = sorted({max(16, n // 4), max(32, n // 2), n})
    v_fail = orbit_for(spec, (1.0, -1.0), orders[-1], orders[-1]).V
    ratio_rows = []
    ratios_exact = True
    for nn in orders:
        pairings = v_fail[: nn + 1, : nn + 1].sum(axis=1)  # <1 + ... + z^n', row>*
        ratio = float(np.vdot(pairings, pairings).real) / (nn + 1)
        ratio_rows.append({"N": nn, "ratio": ratio, "expected": 1.0 / (nn + 1)})
        if ratio != 1.0 / (nn + 1):
            ratios_exact = False

    evidence = {
        "A_est": bounds.A_est,
        "B_est": bounds.B_est,
        "tight": bounds.tight,
        "max_frame_sum_vs_norm_relative_error": worst_rel,
        "seed_one_minus_z_normalized_sums": ratio_rows,
        "normalized_sums_exact": ratios_exact,
    }
    consistent = (
        abs(bounds.A_est - 1.0) < 1e-10
        and abs(bounds.B_est - 1.0) < 1e-10
        and bounds.tight
        and worst_rel <= 1e-10
        and ratios_exact
    )
    return _verdict(consistent), evidence


# -- P6: frame <=> cyclic, tested two-sided -----------------------------------


def _verify_p6(config: ExperimentConfig) -> tuple[str, dict]:
    def check(spec, seed):
        orb = _orbit(config, spec, seed)
        cyc = cyclicity_rank(orb, config.tolerances.rank_tol)
        trend, trend_columns = _square_trend(orb)
        final = trend[-1]
        cyclic_numerically = cyc.span_dimension_deficit == 0
        frame_trend_ok = (
            not final.numerically_zero_lower
            and final.A_est >= 0.01 * final.B_est
            and trend[-1].A_est >= 0.5 * trend[0].A_est
        )
        entry = {
            "rank": cyc.rank,
            "span_dimension_deficit": cyc.span_dimension_deficit,
            "numerically_cyclic": cyclic_numerically,
            **trend_columns,
            "B_at_max_N": final.B_est,
            "frame_trend_positive": bool(frame_trend_ok),
        }
        if cyclic_numerically and not frame_trend_ok:
            entry["tension"] = True
        # a non-cyclic seed showing healthy bounds would refute necessity
        return entry, cyclic_numerically or not frame_trend_ok

    necessity_holds, evidence = _cases(config, [
        ("shift_seed_one", SymbolSpec.monomial(1), (1.0,)),
        ("squared_shift_seed_one", SymbolSpec.monomial(2), (1.0,)),
        ("blaschke_half_seed_one", SymbolSpec.blaschke([0.5]), (1.0,)),
        ("shift_seed_one_minus_z", SymbolSpec.monomial(1), (1.0, -1.0)),
    ], check)
    tension_cases = [label for label, e in evidence.items() if e.get("tension")]
    evidence["tension_cases"] = tension_cases
    if tension_cases:
        evidence["note"] = P6_TENSION_NOTE

    if config.orbit_length < config.truncation_order:
        # every case reads non-cyclic, so neither direction can be tested
        verdict = "inconclusive"
        evidence["reason"] = P6_UNDERRESOLVED_REASON
    elif not necessity_holds:
        verdict = "inconsistent"
    elif tension_cases:
        verdict = "inconclusive"
    else:
        verdict = "consistent"
    return verdict, evidence


_SUITES = {
    "P1": _verify_p1,
    "P2": _verify_p2,
    "P3": _verify_p3,
    "P4i": _verify_p4i,
    "P4ii": _verify_p4ii,
    "Ex_constant": _verify_ex_constant,
    "Ex_half_shift": _verify_ex_half_shift,
    "Ex_3_1": _verify_ex_3_1,
    "P6": _verify_p6,
}
PROPOSITIONS = tuple(_SUITES)


def check_resolution(config: ExperimentConfig) -> None:
    """Raise ConfigError when a suite at the config's (N, K) would build an
    array of more than MAX_ORBIT_ENTRIES coefficients.

    The largest is a square of side max(N, K) + 1: Ex_3_1's orbit, and
    the trend orbit of P1, P4i and P6 at (N, N) when K < N (side
    max(16, N) + 1); Ex_constant's 61 rows fit in it, or in 61 x 61.
    """
    side = max(config.truncation_order, config.orbit_length) + 1
    config.check_size(side, side)


def verify(proposition: str, config: ExperimentConfig) -> VerificationReport:
    """Run the scripted suite for one proposition id.

    The config contributes resolutions and tolerances; the (symbol, seed)
    batteries are fixed per proposition so that reports are reproducible.
    A resolution too large for the suites raises ConfigError first.
    """
    try:
        suite = _SUITES[proposition]
    except KeyError:
        raise UnknownPropositionError(
            f"unknown proposition {proposition!r}; known: {', '.join(PROPOSITIONS)}"
        ) from None
    check_resolution(config)
    verdict, evidence = suite(config)
    return VerificationReport(proposition, verdict, evidence, _parameters(config))
