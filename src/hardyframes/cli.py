"""Command-line interface.

The subcommands are the entries of `COMMANDS`.  Exit codes form a CI
contract: 0 for success or a consistent/inconclusive verdict, 1 for an
inconsistent verdict, 2 for usage/config errors and unwritable output
paths, 3 for numerical failures and for any other internal error, so that
1 always means a verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .diagnostics import cyclicity_rank
from .frames import bounds_from_singular_values, gram
from .jsonio import dumps_canonical, dumps_csv
from .orbits import orbit_for
from .series import BoundaryGrid
from .symbols import SymbolSpec, boundary_modulus
from .verify import (
    PROPOSITIONS,
    UnknownPropositionError,
    check_resolution,
    report_to_json,
    verify,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def default_config() -> ExperimentConfig:
    return ExperimentConfig(symbol=SymbolSpec.monomial(1))


def _emit(text: str, out: str | Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


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


# -- reports: each maps (config, args) to its JSON payload ---------------------


def _config_orbit(config: ExperimentConfig):
    return orbit_for(
        config.symbol, config.seed_coeffs, config.truncation_order, config.orbit_length
    )


def _orbit_report(config: ExperimentConfig, args) -> dict:
    orb = _config_orbit(config)
    rows = [
        {"n": n, "norm": float(orb.norms[n]), "truncated": bool(orb.truncated[n])}
        for n in range(orb.length)
    ]
    return {"N": orb.order, "K": orb.length - 1, "rows": rows}


def _orbit_columns(payload: dict) -> dict:
    rows = payload["rows"]
    return {key: [row[key] for row in rows] for key in ("n", "norm", "truncated")}


def _frame_bounds_report(config: ExperimentConfig, args) -> dict:
    orb = _config_orbit(config)
    bounds = bounds_from_singular_values(orb.singular_values, orb.V.shape)
    return dataclasses.asdict(bounds)  # the fields, in order, are the CSV columns


def _one_row(payload: dict) -> dict:
    return {key: [value] for key, value in payload.items()}


def _gram_report(config: ExperimentConfig, args) -> dict:
    k = config.orbit_length
    config.check_size(k + 1, k + 1, "a Gram matrix")
    return {"K": k, "entries": gram(_config_orbit(config))}


def _gram_columns(payload: dict) -> dict:
    entries = payload["entries"]
    m, n = np.indices(entries.shape)
    return {
        "m": m.ravel(),
        "n": n.ravel(),
        "re": entries.real.ravel(),
        "im": entries.imag.ravel(),
    }


def _innerness_report(config: ExperimentConfig, args) -> dict:
    report = boundary_modulus(
        config.symbol, BoundaryGrid(config.boundary_grid), config.tolerances.inner_tol
    )
    return {
        "M": config.boundary_grid,
        "N": config.truncation_order,
        "max_deviation": report.max_deviation,
        "sub_unit_fraction": report.sub_unit_fraction,
        "verdict": report.verdict,
        "tolerance": report.tolerance,
    }


def _cyclicity_report(config: ExperimentConfig, args) -> dict:
    orb = _config_orbit(config)
    report = cyclicity_rank(orb, config.tolerances.rank_tol)
    return {
        "N": orb.order,
        "K": orb.length - 1,
        "rank": report.rank,
        "span_dimension_deficit": report.span_dimension_deficit,
        "singular_values": report.singular_values,
    }


def _verify_report(config: ExperimentConfig, args) -> dict:
    return report_to_json(verify(args.proposition, config))


def _report(build, columns=None):
    """The runner of a report: it writes build(config, args) as JSON, or,
    for a report with `columns`, the CSV of columns(payload)."""

    def run(args) -> int:
        config = _resolve_config(args)
        fmt = args.format or config.output.format
        if columns is None:
            # JSON only: reject an explicit CSV request, but ignore a config
            # whose default format targets the CSV-capable commands
            if args.format == "csv":
                raise ConfigError(f"{args.command} reports are JSON only")
            fmt = "json"
        payload = build(config, args)
        text = dumps_csv(columns(payload)) if fmt == "csv" else dumps_canonical(payload)
        _emit(text, args.out if args.out is not None else config.output.path)
        # only a verification report can say "inconsistent"
        inconsistent = payload.get("verdict") == "inconsistent"
        return EXIT_INCONSISTENT if inconsistent else EXIT_OK

    return run


def _report_all(args) -> int:
    """Run the full battery and write per-proposition reports plus an index.

    With a config directory, every file <id>.json supplies the resolutions
    for that proposition; otherwise the built-in defaults run.  An existing
    but empty directory is a usage error.
    """
    configs: dict[str, ExperimentConfig] = {}
    if args.config_dir is not None:
        cdir = Path(args.config_dir)
        if not cdir.is_dir():
            raise ConfigError(f"config directory {args.config_dir} does not exist")
        files = sorted(cdir.glob("*.json"))
        if not files:
            raise ConfigError(f"config directory {args.config_dir} is empty")
        for path in files:
            prop = path.stem
            if prop not in PROPOSITIONS:
                raise ConfigError(
                    f"config file {path.name} does not name a proposition"
                )
            configs[prop] = load_config(path)
    else:
        configs = {prop: default_config() for prop in PROPOSITIONS}
    for config in configs.values():  # before any suite runs or file is written
        check_resolution(config)

    out_path = Path(args.out_dir)
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
        _emit(dumps_canonical(report_to_json(report)), out_path / f"{prop}.json")

    exit_code = EXIT_INCONSISTENT if "inconsistent" in verdicts.values() else EXIT_OK
    index = {
        "n_reports": len(verdicts),
        "verdicts": verdicts,
        "notes": notes,
        "exit_code": exit_code,
    }
    text = dumps_canonical(index)
    _emit(text, out_path / "index.json")
    _emit(text, None)
    return exit_code


# -- argument parsing ----------------------------------------------------------


def _config_options(parser: argparse.ArgumentParser, config_required=True) -> None:
    parser.add_argument("--config", type=str, required=config_required,
                        help="experiment config JSON file")
    parser.add_argument("--out", type=str, default=None, help="output file")
    parser.add_argument("--format", choices=["json", "csv"], default=None)
    parser.add_argument("--truncation", type=int, default=None, metavar="N")
    parser.add_argument("--orbit-len", type=int, default=None, metavar="K")
    parser.add_argument("--grid", type=int, default=None, metavar="M")


def _verify_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("proposition", type=str,
                        help=f"one of: {', '.join(PROPOSITIONS)}")
    _config_options(parser, config_required=False)


def _report_all_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config-dir", type=str, default=None)
    parser.add_argument("--out-dir", type=str, default="reports")


# Every subcommand: name -> (what adds its options to its parser, what runs
# it on the parsed arguments and returns the exit code).
COMMANDS = {
    "orbit": (_config_options, _report(_orbit_report, _orbit_columns)),
    "frame-bounds": (_config_options, _report(_frame_bounds_report, _one_row)),
    "gram": (_config_options, _report(_gram_report, _gram_columns)),
    "innerness": (_config_options, _report(_innerness_report)),
    "cyclicity": (_config_options, _report(_cyclicity_report)),
    "verify": (_verify_options, _report(_verify_report)),
    "report-all": (_report_all_options, _report_all),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardyframes",
        description="Frame diagnostics for multiplication-operator orbits "
        "on the Hardy space of the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (add_options, _) in COMMANDS.items():
        add_options(sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, run = COMMANDS[args.command]
    try:
        return run(args)
    # LinAlgError subclasses ValueError, so it must be caught first;
    # FloatingPointError: an orbit overflowed, or a report holds inf or nan
    except (np.linalg.LinAlgError, MemoryError, FloatingPointError) as exc:
        print(f"numerical failure: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    # OSError: an output path that cannot be written
    except (ConfigError, UnknownPropositionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # anything else is a fault of the program, never a verdict
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
