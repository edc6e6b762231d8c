"""Command-line interface.

Subcommands: orbit | frame-bounds | gram | innerness | cyclicity |
verify | report-all.  Exit codes form a CI contract: 0 for success or a
consistent/inconclusive verdict, 1 for an inconsistent verdict, 2 for
usage/config errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import cyclicity_rank
from .frames import EigensolverError, frame_bounds_estimate, frame_section, gram
from .jsonio import dumps_canonical, write_canonical
from .orbits import orbit
from .series import BoundaryGrid, series_from_coeffs
from .symbols import SymbolSpec, innerness_test, realize, uses_exact_evaluation
from .verify import (
    PROPOSITIONS,
    UnknownPropositionError,
    report_to_json,
    verify,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def default_config() -> ExperimentConfig:
    return ExperimentConfig(symbol=SymbolSpec.monomial(1))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _orbit_from_config(config: ExperimentConfig):
    n = config.truncation_order
    sym = realize(config.symbol, n)
    return orbit(sym, series_from_coeffs(config.seed_coeffs, n), config.orbit_length, n)


# -- subcommand bodies (importable; return exit codes) ------------------------


def cmd_orbit(config: ExperimentConfig, out: str | None, fmt: str) -> int:
    orb = _orbit_from_config(config)
    if fmt == "csv":
        lines = ["n,norm,truncated"]
        for n in range(orb.length):
            flag = "true" if orb.truncated[n] else "false"
            lines.append(f"{n},{format(orb.norms[n], '.17g')},{flag}")
        _emit("\n".join(lines) + "\n", out)
    else:
        rows = [
            {"n": n, "norm": float(orb.norms[n]), "truncated": bool(orb.truncated[n])}
            for n in range(orb.length)
        ]
        _emit(
            dumps_canonical(
                {"N": orb.order, "K": orb.length - 1, "rows": rows}
            ),
            out,
        )
    return EXIT_OK


def cmd_frame_bounds(config: ExperimentConfig, out: str | None, fmt: str) -> int:
    orb = _orbit_from_config(config)
    bounds = frame_bounds_estimate(frame_section(orb))
    payload = {
        "N": bounds.N,
        "K": bounds.K,
        "A_est": bounds.A_est,
        "B_est": bounds.B_est,
        "tight": bounds.tight,
        "numerically_zero_lower": bounds.numerically_zero_lower,
    }
    if fmt == "csv":
        header = "N,K,A_est,B_est,tight,numerically_zero_lower"
        row = (
            f"{bounds.N},{bounds.K},{format(bounds.A_est, '.17g')},"
            f"{format(bounds.B_est, '.17g')},"
            f"{'true' if bounds.tight else 'false'},"
            f"{'true' if bounds.numerically_zero_lower else 'false'}"
        )
        _emit(header + "\n" + row + "\n", out)
    else:
        _emit(dumps_canonical(payload), out)
    return EXIT_OK


def cmd_gram(config: ExperimentConfig, out: str | None, fmt: str) -> int:
    orb = _orbit_from_config(config)
    g = gram(orb)
    if fmt == "csv":
        lines = ["m,n,re,im"]
        for m, row in enumerate(g.entries.tolist()):
            lines.extend(
                "%d,%d,%.17g,%.17g" % (m, n, z.real, z.imag) for n, z in enumerate(row)
            )
        _emit("\n".join(lines) + "\n", out)
    else:
        _emit(dumps_canonical({"K": g.orbit_len - 1, "entries": g.entries}), out)
    return EXIT_OK


def cmd_innerness(config: ExperimentConfig, out: str | None) -> int:
    sym = realize(config.symbol, config.truncation_order)
    grid = BoundaryGrid(config.boundary_grid)
    # config tolerance applies to exact closed-form evaluation; truncated
    # polynomial evaluation keeps its own coarser default
    tol = config.tolerances.inner_tol if uses_exact_evaluation(sym) else None
    report = innerness_test(sym, grid, tol=tol)
    _emit(
        dumps_canonical(
            {
                "M": config.boundary_grid,
                "N": config.truncation_order,
                "max_deviation": report.max_deviation,
                "sub_unit_fraction": report.sub_unit_fraction,
                "tolerance": report.tolerance,
                "verdict": report.verdict,
            }
        ),
        out,
    )
    return EXIT_OK


def cmd_cyclicity(config: ExperimentConfig, out: str | None) -> int:
    orb = _orbit_from_config(config)
    report = cyclicity_rank(orb, config.tolerances.rank_tol)
    _emit(
        dumps_canonical(
            {
                "N": orb.order,
                "K": orb.length - 1,
                "rank": report.rank,
                "span_dimension_deficit": report.span_dimension_deficit,
                "singular_values": report.singular_values,
            }
        ),
        out,
    )
    return EXIT_OK


def cmd_verify(proposition: str, config: ExperimentConfig, out: str | None) -> int:
    report = verify(proposition, config)
    _emit(dumps_canonical(report_to_json(report)), out)
    return EXIT_INCONSISTENT if report.verdict == "inconsistent" else EXIT_OK


def cmd_report_all(config_dir: str | None, out_dir: str) -> int:
    """Run the full battery and write per-proposition reports plus an index.

    With a config directory, every file <id>.json supplies the resolutions
    for that proposition; otherwise the built-in defaults run.  An existing
    but empty directory is a usage error.
    """
    configs: dict[str, ExperimentConfig] = {}
    if config_dir is not None:
        cdir = Path(config_dir)
        if not cdir.is_dir():
            raise ConfigError(f"config directory {config_dir} does not exist")
        files = sorted(cdir.glob("*.json"))
        if not files:
            raise ConfigError(f"config directory {config_dir} is empty")
        for path in files:
            prop = path.stem
            if prop not in PROPOSITIONS:
                raise ConfigError(
                    f"config file {path.name} does not name a proposition"
                )
            configs[prop] = load_config(path)
    else:
        configs = {prop: default_config() for prop in PROPOSITIONS}

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    verdicts = {}
    notes = {}
    for prop in PROPOSITIONS:
        if prop not in configs:
            continue
        report = verify(prop, configs[prop])
        verdicts[prop] = report.verdict
        note = report.evidence.get("note")
        if note:
            notes[prop] = note
        write_canonical(out_path / f"{prop}.json", report_to_json(report))

    exit_code = (
        EXIT_INCONSISTENT
        if any(v == "inconsistent" for v in verdicts.values())
        else EXIT_OK
    )
    index = {
        "n_reports": len(verdicts),
        "verdicts": verdicts,
        "notes": notes,
        "exit_code": exit_code,
    }
    write_canonical(out_path / "index.json", index)
    sys.stdout.write(dumps_canonical(index))
    return exit_code


# -- argument parsing ----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, config_required: bool) -> None:
    parser.add_argument("--config", type=str, required=config_required,
                        help="experiment config JSON file")
    parser.add_argument("--out", type=str, default=None, help="output file")
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    parser.add_argument("--truncation", type=int, default=None, metavar="N")
    parser.add_argument("--orbit-len", type=int, default=None, metavar="K")
    parser.add_argument("--grid", type=int, default=None, metavar="M")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyframes",
        description="Frame diagnostics for multiplication-operator orbits "
        "on the Hardy space of the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("orbit", "frame-bounds", "gram", "innerness", "cyclicity"):
        p = sub.add_parser(name)
        _add_common(p, config_required=True)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("proposition", type=str,
                          help=f"one of: {', '.join(PROPOSITIONS)}")
    _add_common(p_verify, config_required=False)

    p_all = sub.add_parser("report-all")
    p_all.add_argument("--config-dir", type=str, default=None)
    p_all.add_argument("--out-dir", type=str, default="reports")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    overrides = {}
    if args.truncation is not None:
        overrides["truncation_order"] = args.truncation
    if args.orbit_len is not None:
        overrides["orbit_length"] = args.orbit_len
    if args.grid is not None:
        overrides["boundary_grid"] = args.grid
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report-all":
            return cmd_report_all(args.config_dir, args.out_dir)

        config = _resolve_config(args)
        fmt = args.format or config.output.format
        out = args.out if args.out is not None else config.output.path

        if args.command == "orbit":
            return cmd_orbit(config, out, fmt)
        if args.command == "frame-bounds":
            return cmd_frame_bounds(config, out, fmt)
        if args.command == "gram":
            return cmd_gram(config, out, fmt)
        # the remaining reports are JSON only: reject an explicit CSV
        # request, but ignore a config whose default format targets the
        # CSV-capable commands
        if args.format == "csv":
            raise ConfigError(f"{args.command} reports are JSON only")
        if args.command == "innerness":
            return cmd_innerness(config, out)
        if args.command == "cyclicity":
            return cmd_cyclicity(config, out)
        if args.command == "verify":
            return cmd_verify(args.proposition, config, out)
        raise ConfigError(f"unknown command {args.command!r}")
    # LinAlgError subclasses ValueError, so it must be caught first;
    # FloatingPointError: an orbit overflowed, or a report holds inf or nan
    except (
        EigensolverError,
        np.linalg.LinAlgError,
        MemoryError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, UnknownPropositionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
