import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hardyframes import cli, orbits, symbols
from hardyframes.cli import main
from hardyframes.diagnostics import RANK_REL_TOL
from hardyframes.config import (
    MAX_ORBIT_ENTRIES,
    ConfigError,
    ExperimentConfig,
    ToleranceSettings,
    config_from_json,
    config_to_json,
    load_config,
)
from hardyframes.frames import FrameBounds, frame_bounds_estimate, gram
from hardyframes.jsonio import dumps_canonical
from hardyframes.orbits import orbit_for
from hardyframes.symbols import INNER_TOL_EXACT, SymbolSpec
from hardyframes.verify import PROPOSITIONS


def write_config(path, symbol=None, seed=(1.0,), n=16, k=8, m=128, fmt="json"):
    cfg = ExperimentConfig(
        symbol=symbol or SymbolSpec.monomial(1),
        seed_coeffs=seed,
        truncation_order=n,
        orbit_length=k,
        boundary_grid=m,
    )
    payload = config_to_json(cfg)
    payload["output"]["format"] = fmt
    path.write_text(dumps_canonical(payload), encoding="utf-8")
    return cfg


# -- orbit ----------------------------------------------------------------------


def test_orbit_csv_shift(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, fmt="csv")
    assert main(["orbit", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,norm,truncated"
    assert len(lines) == 10  # header + K+1 rows
    for row in lines[1:]:
        n, norm, flag = row.split(",")
        assert norm == "1" and flag == "false"


def test_orbit_csv_constant_half(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.constant(0.5), k=4, fmt="csv")
    assert main(["orbit", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    norms = [float(r.split(",")[1]) for r in lines[1:]]
    assert norms == [1.0, 0.5, 0.25, 0.125, 0.0625]


def test_orbit_of_a_seed_longer_than_n_flags_row_0(tmp_path, capsys):
    # 1 + z + ... + z^5 at N = 3 keeps 1 + z + z^2 + z^3, of norm 2
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, seed=(1.0,) * 6, n=3, k=3, m=16, fmt="csv")
    assert main(["orbit", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1] == "0,2,true"


def test_orbit_json_format(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["orbit", "--config", str(cfg_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["K"] == 8 and len(payload["rows"]) == 9


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    write_config(bad)
    payload = json.loads(bad.read_text())
    bodies = ["{not json"] + [
        json.dumps({**payload, section: value})
        for section in ("tolerances", "output")
        for value in (None, [], "csv")
    ]
    for body in bodies:
        bad.write_text(body, encoding="utf-8")
        assert main(["orbit", "--config", str(bad)]) == 2, body
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "--grid"], ids=["config_field", "grid_flag"])
@pytest.mark.parametrize("command", ["orbit", "innerness"])
def test_config_violating_antialiasing_exits_2(tmp_path, capsys, command, where):
    # the config check is the only M > 4N rule, for the boundary report too
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)  # N = 16
    argv = [command, "--config", str(cfg_path)]
    if where == "config":
        payload = json.loads(cfg_path.read_text())
        payload["boundary_grid"] = 32  # <= 4N = 64
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    else:
        argv += ["--grid", "64"]
    assert main(argv) == 2
    assert "need M > 4N = 64" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["--out", "config", "--out-dir"])
def test_unwritable_output_exits_2(tmp_path, capsys, where):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    missing = str(tmp_path / "missing" / "out.json")
    if where == "--out":
        argv = ["orbit", "--config", str(cfg_path), "--out", missing]
    elif where == "config":
        payload = json.loads(cfg_path.read_text())
        payload["output"]["path"] = missing
        cfg_path.write_text(json.dumps(payload), encoding="utf-8")
        argv = ["orbit", "--config", str(cfg_path)]
    else:  # an existing file where the directory should go
        argv = ["report-all", "--out-dir", str(cfg_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- frame-bounds -----------------------------------------------------------------


def test_frame_bounds_tight_frame(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, n=16, k=16)
    assert main(["frame-bounds", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["A_est"] == 1.0 and payload["B_est"] == 1.0
    assert payload["tight"] is True
    assert payload["numerically_zero_lower"] is False


def test_frame_bounds_round_trips_to_domain_type(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.scaled_shift(0.5), n=10, k=10, m=64)
    assert main(["frame-bounds", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    bounds = FrameBounds(**payload)
    assert bounds.N == 10 and bounds.K == 10
    assert abs(bounds.A_est - 4.0**-10) < 1e-12


def test_frame_bounds_csv(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, n=8, k=8)
    assert main(["frame-bounds", "--config", str(cfg_path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,K,A_est,B_est,tight,numerically_zero_lower"
    assert lines[1].startswith("8,8,1,1,true")


def test_frame_bounds_of_a_zero_seed_flag_the_lower_bound(tmp_path, capsys):
    # A_est = B_est = 0: the orbit spans nothing, as `cyclicity` says
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]), seed=(0.0,), n=8, k=8, m=64)
    assert main(["frame-bounds", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["A_est"], payload["B_est"]) == (0, 0)
    assert payload["numerically_zero_lower"] is True and payload["tight"] is False
    assert main(["frame-bounds", "--config", str(cfg_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out.split("\n")[1] == "8,8,0,0,false,true"
    assert main(["cyclicity", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["rank"], payload["span_dimension_deficit"]) == (0, 9)


def test_svd_failure_in_frame_bounds_exits_3(tmp_path, capsys, monkeypatch):
    # a dense orbit: the spectrum of a scaled permutation, such as the
    # default shift orbit's, needs no LAPACK call
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]), seed=(1.0, 0.5), n=8, k=8)

    def boom(*_args, **_kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    assert main(["frame-bounds", "--config", str(cfg_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_lapack_failure_exits_3_not_usage(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, the usage-error class; the orbit
    # is dense, so the SVD is reached
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]), seed=(1.0, 0.5), n=8, k=8)

    def boom(*_args, **_kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", boom)
    assert main(["cyclicity", "--config", str(cfg_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_memory_error_exits_3_not_inconsistent(tmp_path, capsys, monkeypatch):
    # exit 1 means "inconsistent"; running out of memory is a numerical failure
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, n=8, k=8)

    def boom(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(orbits, "orbit", boom)
    assert main(["frame-bounds", "--config", str(cfg_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_internal_error_exits_3_not_inconsistent(capsys, monkeypatch):
    # an exception no other clause maps is a fault of the program: exit 3
    # with one stderr line, never 1 ("inconsistent")
    def boom(*_args, **_kwargs):
        raise RuntimeError("unexpected state")

    monkeypatch.setattr(cli, "verify", boom)
    assert main(["verify", "P3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: unexpected state\n"


CSV_COMMANDS = ("orbit", "frame-bounds", "gram")


@pytest.mark.parametrize(
    "n, commands",
    [
        # 4^300 is finite, and so is sigma_max, but the Gram entries and
        # B = sigma_max^2 overflow: gram and frame-bounds each name theirs
        (300, ["frame-bounds", "gram"]),
        # 4^n overflows at n = 512, inside the orbit itself
        (600, ["orbit", "frame-bounds", "gram", "cyclicity"]),
    ],
)
def test_overflow_exits_3_not_usage(tmp_path, capsys, n, commands):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.polynomial([0, 4]), n=n, k=n, m=8 * n)
    for command in commands:
        # CSV follows the JSON writer's rule: no inf or nan is written
        formats = ["json", "csv"] if command in CSV_COMMANDS else ["json"]
        for fmt in formats:
            with np.errstate(over="ignore", invalid="ignore"):
                code = main([command, "--config", str(cfg_path), "--format", fmt])
            assert code == 3, (command, fmt)
            err = capsys.readouterr().err
            assert "numerical failure" in err
            if command == "frame-bounds":
                assert "overflow" in err and "eigensolver" not in err, err
            if command == "orbit":  # stopped at the first overflowed row
                assert "series product overflowed at order 600" in err, err
            if command == "gram" and n == 300:  # the orbit itself is finite
                assert "Gram matrix overflowed at N=300, K=300" in err, err


def test_scaled_shift_overflow_exits_3_with_one_line(tmp_path, capsys):
    # constant 1e200: row 2 overflows; one error line, no RuntimeWarning
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.constant(1e200), n=4, k=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["orbit", "--config", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: series product overflowed at order 4\n"


def test_orbit_norms_do_not_overflow(tmp_path, capsys):
    # phi = 4z, seed 1: row n is 4^n z^n, finite up to n = 300 although its
    # squared modulus is not
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.polynomial([0, 4]), n=300, k=300, m=2400)
    assert main(["orbit", "--config", str(cfg_path)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["norm"] for row in rows] == [4.0**n for n in range(301)]
    assert main(["orbit", "--config", str(cfg_path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [float(line.split(",")[1]) for line in lines] == [4.0**n for n in range(301)]


@pytest.mark.parametrize(
    "field, value",
    [
        (("seed_coeffs", 0, "re"), float("nan")),
        (("tolerances", "inner_tol"), float("inf")),
        (("tolerances", "rank_tol"), float("nan")),
        (("truncation_order",), float("inf")),
        (("symbol", "zeros", 0, "im"), float("nan")),
        # sizes are JSON integers: no float, bool or string stands for one
        (("truncation_order",), 16.9),
        (("orbit_length",), True),
        (("boundary_grid",), "512"),
        (("symbol",), {"kind": "monomial", "power": 1.0}),
    ],
)
def test_non_finite_config_value_exits_2(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]))
    payload = json.loads(cfg_path.read_text())
    target = payload
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")  # writes NaN/Infinity
    for command in ("orbit", "innerness", "cyclicity"):
        assert main([command, "--config", str(cfg_path)]) == 2, command
        assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        # tolerances and complex parts are JSON numbers: a bool or a string
        # that float() would accept is not one
        (("tolerances", "inner_tol"), True),
        (("tolerances", "inner_tol"), "0.5"),
        (("tolerances", "rank_tol"), True),
        (("tolerances", "rank_tol"), "1e-10"),
        (("seed_coeffs", 0, "re"), "1"),
        (("seed_coeffs", 0, "im"), False),
        (("symbol", "zeros", 0, "re"), True),
        (("symbol", "prefactor", "im"), "0"),
    ],
)
def test_non_number_config_value_exits_2(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]))
    payload = json.loads(cfg_path.read_text())
    target = payload
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    with pytest.raises(ConfigError, match=f"{field[-1]} must be a JSON number"):
        config_from_json(payload)
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["orbit", "--config", str(cfg_path)]) == 2
    assert f"{field[-1]} must be a JSON number" in capsys.readouterr().err


@pytest.mark.parametrize("value", [1, True, ["x"], {"file": "x"}, 0.5])
def test_non_string_output_path_exits_2(tmp_path, capsys, value):
    # an integer path would be opened as a file descriptor (1 is stdout),
    # and a list would fail inside open()
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]))
    payload = json.loads(cfg_path.read_text())
    payload["output"]["path"] = value
    with pytest.raises(ConfigError, match="path must be a JSON string or null"):
        config_from_json(payload)
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["orbit", "--config", str(cfg_path)]) == 2
    assert "path must be a JSON string or null" in capsys.readouterr().err


# N = 2^22, K = 1: the orbit fits, but M = 4N + 1 exceeds the limit
@pytest.mark.parametrize("n, k", [(10**6, 10**6), (64, 10**6), (10**7, 1), (2**22, 1)])
def test_oversized_config_is_rejected(n, k):
    with pytest.raises(ConfigError, match="too large"):
        ExperimentConfig(
            symbol=SymbolSpec.monomial(1),
            truncation_order=n,
            orbit_length=k,
            boundary_grid=4 * n + 1,
        )


def test_largest_allowed_config_has_max_orbit_entries():
    cfg = ExperimentConfig(
        symbol=SymbolSpec.monomial(1),
        truncation_order=4095,
        orbit_length=4095,
        boundary_grid=4 * 4095 + 1,
    )
    assert (cfg.truncation_order + 1) * (cfg.orbit_length + 1) == MAX_ORBIT_ENTRIES


def test_oversized_config_exits_2_before_any_orbit(tmp_path, capsys, monkeypatch):
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("an orbit was built")

    monkeypatch.setattr(orbits, "orbit", refuse)  # every orbit_for call builds with it
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    big = ["--truncation", str(10**6), "--orbit-len", str(10**6), "--grid", str(4 * 10**6 + 1)]
    for argv in (
        ["orbit", "--config", str(cfg_path), *big],
        ["gram", "--config", str(cfg_path), *big],
        ["verify", "Ex_3_1", *big],
    ):
        assert main(argv) == 2, argv
        assert "too large" in capsys.readouterr().err
    payload = json.loads(cfg_path.read_text())
    payload.update(truncation_order=10**6, orbit_length=10**6, boundary_grid=4 * 10**6 + 1)
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["cyclicity", "--config", str(cfg_path)]) == 2
    assert "too large" in capsys.readouterr().err
    assert built == []


def test_oversized_boundary_grid_exits_2_before_any_allocation(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for argv in (
        ["innerness", "--config", str(cfg_path)],
        ["verify", "P1"],
    ):
        assert main([*argv, "--grid", str(2**40)]) == 2, argv
        assert "boundary_grid 1099511627776 too large" in capsys.readouterr().err


# N = 5000, K = 1: the orbit is 2 x 5001, the square of the suites 5001 x 5001
LONG_SHORT = ["--truncation", "5000", "--orbit-len", "1", "--grid", "20001"]


def test_long_short_orbit_is_not_refused(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    for command in ("orbit", "frame-bounds", "cyclicity", "gram"):
        assert main([command, "--config", str(cfg_path), *LONG_SHORT]) == 0, command
        payload = json.loads(capsys.readouterr().out)
        assert payload["K"] == 1, command


def test_square_too_large_for_the_suites_exits_2_before_any_orbit(
    tmp_path, capsys, monkeypatch
):
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError("an orbit was built")

    monkeypatch.setattr(orbits, "orbit", refuse)
    for prop in ("Ex_3_1", "P3"):
        assert main(["verify", prop, *LONG_SHORT]) == 2, prop
        assert "an orbit of 5001 x 5001 coefficients" in capsys.readouterr().err
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    write_config(config_dir / "P3.json")  # small: it would run first
    write_config(config_dir / "Ex_3_1.json", n=5000, k=1, m=20001)
    out_dir = tmp_path / "reports"
    argv = ["report-all", "--config-dir", str(config_dir), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert "5001 x 5001" in capsys.readouterr().err
    assert built == [] and not out_dir.exists()
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    argv = ["gram", "--config", str(cfg_path), "--truncation", "1", "--orbit-len", "5000"]
    assert main(argv) == 2
    assert "a Gram matrix of 5001 x 5001" in capsys.readouterr().err
    assert built == []


def test_flag_overrides_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.scaled_shift(0.5), n=16, k=16)
    assert main(
        ["frame-bounds", "--config", str(cfg_path), "--truncation", "8", "--orbit-len", "8"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["N"] == 8
    assert abs(payload["A_est"] - 4.0**-8) < 1e-14


# -- gram, innerness, cyclicity ------------------------------------------------------


def test_gram_json_hermitian(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.4]), n=12, k=5, m=64)
    assert main(["gram", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    k1 = payload["K"] + 1
    entries = np.array(
        [[complex(c["re"], c["im"]) for c in row] for row in payload["entries"]]
    )
    assert entries.shape == (k1, k1)
    assert np.allclose(entries, entries.conj().T, atol=0)


def test_gram_csv_shape(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, k=3)
    assert main(["gram", "--config", str(cfg_path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,n,re,im"
    assert len(lines) == 1 + 16


def _flag(value) -> str:
    return "true" if value else "false"


def _per_entry_outputs(command, cfg):
    """The JSON and CSV text of the per-entry dict and f-string writers."""
    orb = orbit_for(cfg.symbol, cfg.seed_coeffs, cfg.truncation_order, cfg.orbit_length)
    if command == "orbit":
        rows = [
            {"n": n, "norm": float(orb.norms[n]), "truncated": bool(orb.truncated[n])}
            for n in range(orb.length)
        ]
        payload = {"N": orb.order, "K": orb.length - 1, "rows": rows}
        lines = ["n,norm,truncated"] + [
            f"{n},{format(orb.norms[n], '.17g')},{_flag(orb.truncated[n])}"
            for n in range(orb.length)
        ]
    elif command == "frame-bounds":
        b = frame_bounds_estimate(orb.V)
        payload = {
            "N": b.N,
            "K": b.K,
            "A_est": b.A_est,
            "B_est": b.B_est,
            "tight": b.tight,
            "numerically_zero_lower": b.numerically_zero_lower,
        }
        lines = [
            "N,K,A_est,B_est,tight,numerically_zero_lower",
            f"{b.N},{b.K},{format(b.A_est, '.17g')},{format(b.B_est, '.17g')},"
            f"{_flag(b.tight)},{_flag(b.numerically_zero_lower)}",
        ]
    else:
        entries = gram(orb)
        k1 = entries.shape[0]
        dicts = [
            [{"re": entries[m, n].real, "im": entries[m, n].imag} for n in range(k1)]
            for m in range(k1)
        ]
        payload = {"K": k1 - 1, "entries": dicts}
        lines = ["m,n,re,im"] + [
            f"{m},{n},{format(entries[m, n].real, '.17g')},"
            f"{format(entries[m, n].imag, '.17g')}"
            for m in range(k1)
            for n in range(k1)
        ]
    return dumps_canonical(payload), "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "command, symbol, seed, n, k, csv_marks",
    [
        # the seed's degree pushes the last elements past N
        pytest.param("orbit", SymbolSpec.monomial(1), (1.0, -0.5), 12, 16,
                     [",false\n", ",true\n"], id="orbit"),
        pytest.param("frame-bounds", SymbolSpec.monomial(1), (1.0,), 8, 8,
                     [",true,false\n"], id="frame-bounds-tight"),
        # z^2 from 1 spans only even powers: the lower bound is zero
        pytest.param("frame-bounds", SymbolSpec.monomial(2), (1.0,), 8, 8,
                     [",false,true\n"], id="frame-bounds-deficit"),
        # a real orbit: its Gram matrix has -0 imaginary parts
        pytest.param("gram", SymbolSpec.blaschke([0.5, -0.25]), (1.0, -0.5), 20, 9,
                     [",-0\n"], id="gram"),
    ],
)
def test_outputs_match_per_entry_writers(
    tmp_path, capsys, command, symbol, seed, n, k, csv_marks
):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=symbol, seed=seed, n=n, k=k)
    json_text, csv_text = _per_entry_outputs(command, load_config(cfg_path))
    for mark in csv_marks:
        assert mark in csv_text

    assert main([command, "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == json_text
    assert main([command, "--config", str(cfg_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == csv_text


def test_innerness_verdicts(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5]), n=16, m=128)
    assert main(["innerness", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "inner"
    assert payload["max_deviation"] < 1e-9


@pytest.mark.parametrize(
    "symbol", [SymbolSpec.constant(0.5), SymbolSpec.polynomial([0.5])], ids=["constant", "polynomial"]
)
def test_innerness_honours_inner_tol_for_every_kind(tmp_path, capsys, symbol):
    # |phi| = 1/2 on the circle deviates from 1 by less than inner_tol 0.6,
    # whether the symbol is written as a constant or as a polynomial
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=symbol)
    payload = json.loads(cfg_path.read_text())
    payload["tolerances"]["inner_tol"] = 0.6
    cfg_path.write_text(json.dumps(payload))
    assert main(["innerness", "--config", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "inner"
    assert report["tolerance"] == 0.6


@pytest.mark.parametrize(
    "symbol",
    [SymbolSpec.blaschke([0.5, -0.3j]), SymbolSpec.polynomial([0] * 20 + [1])],
    ids=["blaschke", "polynomial_past_N"],
)
def test_innerness_expands_nothing(tmp_path, capsys, monkeypatch, symbol):
    # the boundary report reads the spec: it runs, and says the same, with
    # every binding of `realize` made to raise
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, symbol=symbol)  # N = 16 < 20, M = 128
    assert main(["innerness", "--config", str(cfg_path)]) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("innerness expanded the symbol")

    bound = [m for name, m in sys.modules.items()
             if name.startswith("hardyframes") and hasattr(m, "realize")]
    for module in {symbols, cli, *bound}:
        monkeypatch.setattr(module, "realize", refuse, raising=False)
    assert main(["innerness", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == expected


def test_innerness_csv_unsupported(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    assert main(["innerness", "--config", str(cfg_path), "--format", "csv"]) == 2


def test_cyclicity_full_rank(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, n=12, k=12, m=64)
    assert main(["cyclicity", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 13
    assert payload["span_dimension_deficit"] == 0


# -- verify ---------------------------------------------------------------------------


def test_verify_p3_exits_0(capsys):
    assert main(["verify", "P3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "consistent"


def test_verify_ex31_exits_0(capsys):
    assert main(["verify", "Ex_3_1"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "consistent"


def test_verify_p6_inconclusive_exits_0(capsys):
    assert main(["verify", "P6"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


@pytest.mark.parametrize("n", [512, 1024])
def test_verify_p4i_growth_trend_finite_at_large_n(capsys, n):
    # ||2^n||^2 = 4^n overflows past n = 511, and the orbit of constant(2)
    # at N = K = 1024 with it; the growth trend is read as exact log norms
    # with no orbit, so it stays finite and needs no cap
    argv = ["verify", "P4i", "--truncation", str(n), "--orbit-len", str(n),
            "--grid", str(8 * n)]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "consistent"
    assert "reason" not in json.dumps(payload)
    trend = payload["evidence"]["outside_constant_two"]["log10_norm_sq_trend"]
    assert np.isfinite(trend).all()
    assert trend[-1] == pytest.approx(n * np.log10(4.0), rel=1e-12)


def test_verify_unknown_id_exits_2(capsys):
    assert main(["verify", "bogus_id"]) == 2
    assert "unknown proposition" in capsys.readouterr().err


def test_verify_writes_out_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "Ex_constant", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "consistent"


# -- report-all -------------------------------------------------------------------------


def test_report_all_default_battery(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["report-all", "--out-dir", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.glob("*.json"))
    assert len(files) == 10  # 9 propositions + index
    index = json.loads((out_dir / "index.json").read_text())
    assert index["n_reports"] == 9
    assert index["verdicts"]["P6"] == "inconclusive"
    assert "P6" in index["notes"]
    for prop, verdict in index["verdicts"].items():
        if prop != "P6":
            assert verdict == "consistent", prop


def test_report_all_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["report-all", "--out-dir", str(out_a)]) == 0
    assert main(["report-all", "--out-dir", str(out_b)]) == 0
    for path_a in sorted(out_a.glob("*.json")):
        path_b = out_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes()


def test_report_all_empty_config_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "configs"
    empty.mkdir()
    assert main(["report-all", "--config-dir", str(empty), "--out-dir", str(tmp_path / "r")]) == 2
    assert "empty" in capsys.readouterr().err


def test_report_all_config_dir_subset(tmp_path):
    cdir = tmp_path / "configs"
    cdir.mkdir()
    write_config(cdir / "P3.json", n=8, k=32, m=64)
    out_dir = tmp_path / "reports"
    assert main(["report-all", "--config-dir", str(cdir), "--out-dir", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.glob("*.json"))
    assert files == ["P3.json", "index.json"]
    report = json.loads((out_dir / "P3.json").read_text())
    assert report["parameters"]["N"] == 8


def test_report_all_short_orbit_exits_0(tmp_path):
    # K + 1 = 6 elements: P1 and P4i read decay and growth from |phi| on
    # the circle, which needs no orbit length, and hold
    cdir = tmp_path / "configs"
    cdir.mkdir()
    for prop in PROPOSITIONS:
        write_config(cdir / f"{prop}.json", n=20, k=5, m=512)
    out_dir = tmp_path / "reports"
    assert main(["report-all", "--config-dir", str(cdir), "--out-dir", str(out_dir)]) == 0
    assert len(list(out_dir.glob("*.json"))) == 10  # 9 propositions + index
    for prop in ("P1", "P4i"):
        report = json.loads((out_dir / f"{prop}.json").read_text())
        assert report["verdict"] == "consistent"
        assert "reason" not in report["evidence"]


def test_report_all_unknown_config_name_exits_2(tmp_path, capsys):
    cdir = tmp_path / "configs"
    cdir.mkdir()
    write_config(cdir / "NotAProp.json")
    assert main(["report-all", "--config-dir", str(cdir), "--out-dir", str(tmp_path / "r")]) == 2


def test_config_with_retired_eig_tol_still_loads(tmp_path):
    cfg_path = tmp_path / "P3.json"
    write_config(cfg_path, n=8, k=32, m=64)
    payload = json.loads(cfg_path.read_text())
    payload["tolerances"]["eig_tol"] = 1e-10
    cfg_path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["verify", "P3", "--config", str(cfg_path), "--out", str(out)]) == 0
    tolerances = json.loads(out.read_text())["parameters"]["tolerances"]
    assert tolerances == {"inner_tol": 1e-9, "rank_tol": 1e-10}


def test_tolerance_defaults_are_the_library_defaults():
    assert ToleranceSettings() == ToleranceSettings(INNER_TOL_EXACT, RANK_REL_TOL)


@pytest.mark.parametrize(
    "tolerances, expected",
    [
        (None, (INNER_TOL_EXACT, RANK_REL_TOL)),
        ({}, (INNER_TOL_EXACT, RANK_REL_TOL)),
        ({"rank_tol": 1e-7}, (INNER_TOL_EXACT, 1e-7)),
    ],
    ids=["absent", "empty", "rank-only"],
)
def test_config_missing_tolerances_take_the_library_defaults(tmp_path, tolerances, expected):
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path)
    payload = json.loads(cfg_path.read_text())
    if tolerances is None:
        del payload["tolerances"]
    else:
        payload["tolerances"] = tolerances
    loaded = config_from_json(payload).tolerances
    assert (loaded.inner_tol, loaded.rank_tol) == expected


# -- config round trip --------------------------------------------------------------------


def test_config_json_round_trip(tmp_path):
    cfg = ExperimentConfig(
        symbol=SymbolSpec.blaschke([0.5, -0.25j], prefactor=np.exp(0.3j)),
        seed_coeffs=(1.0, -2.0 + 1j),
        truncation_order=24,
        orbit_length=12,
        boundary_grid=128,
    )
    again = config_from_json(config_to_json(cfg))
    assert again == cfg
    path = tmp_path / "cfg.json"
    path.write_text(dumps_canonical(config_to_json(cfg)), encoding="utf-8")
    assert load_config(path) == cfg


# -- import hygiene ---------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"
# numpy submodules no command needs, each an import of 10-25 ms at start-up
UNUSED_NUMPY_MODULES = ("numpy.ma", "numpy.random")
HYGIENE_SCRIPT = """
import contextlib, io, sys
from hardyframes.cli import main
from hardyframes.diagnostics import RANK_REL_TOL
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
loaded = [m for m in {modules!r} if m in sys.modules]
assert code in (0, 1) and not loaded, (code, loaded)
"""


def _run_cli_in_fresh_process(argv):
    # the pytest process has imported both modules already, so only a new
    # interpreter shows what a command imports
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = HYGIENE_SCRIPT.format(modules=UNUSED_NUMPY_MODULES)
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
    )


def test_package_import_loads_no_submodule_and_no_numpy():
    # the package is its docstring: names come from their modules
    script = (
        "import sys, hardyframes\n"
        "loaded = [m for m in sys.modules if m.startswith(('hardyframes.', 'numpy'))]\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["report-all"]]
    + [["verify", prop] for prop in PROPOSITIONS]
    + [[command] for command in ("orbit", "frame-bounds", "gram", "innerness", "cyclicity")],
    ids=lambda argv: "-".join(argv),
)
def test_cli_never_imports_numpy_ma_or_random(tmp_path, argv):
    if argv[0] == "report-all":
        argv = [*argv, "--out-dir", str(tmp_path / "reports")]
    elif argv[0] != "verify":
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, symbol=SymbolSpec.blaschke([0.5, -0.3]), seed=(1.0, 0.5j))
        argv = [*argv, "--config", str(cfg_path)]
    proc = _run_cli_in_fresh_process(argv)
    assert proc.returncode == 0, proc.stderr
