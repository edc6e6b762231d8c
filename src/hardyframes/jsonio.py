"""Canonical JSON and CSV emission and complex-number codecs.

Reports must be byte-identical across runs of the same battery, so the
writer fixes everything the stdlib leaves open: keys sorted, floats at 17
significant digits (lossless for doubles), LF line endings, complex
numbers always as {"im": ..., "re": ...} objects.  CSV follows the same
number rules, and neither format writes inf or nan.
"""

from __future__ import annotations

import json
import math

import numpy as np


def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def json_number(value, name: str) -> float:
    """value as a float when it is a JSON number; a string or a bool (an
    int to Python) is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, not {value!r}")
    return float(value)


def json_int(value, name: str) -> int:
    """value when it is a JSON integer; a float, a string or a bool (an
    int to Python) is not a size."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def json_to_complex(obj) -> complex:
    if isinstance(obj, dict) and set(obj) == {"re", "im"}:
        return complex(json_number(obj["re"], "re"), json_number(obj["im"], "im"))
    raise ValueError(f"not a complex-number object: {obj!r}")


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise FloatingPointError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def _array_text(row: np.ndarray, indent: int) -> str:
    """What `_write` makes of `row.tolist()` for a nonempty, finite, 1-d
    float or complex array, with one tolist() and one "%" template.

    "%.17g" equals format(x, ".17g") for every finite double, signed zeros
    and subnormals included; a complex leaf is its {"im", "re"} object.
    """
    leaf_pad = "  " * (indent + 1)
    leaf, values = "%.17g", row
    if row.dtype.kind == "c":
        field_pad = leaf_pad + "  "
        leaf = f'{{\n{field_pad}"im": {leaf},\n{field_pad}"re": {leaf}\n{leaf_pad}}}'
        values = np.stack((row.imag, row.real), axis=-1)  # the keys' sorted order
    template = "[\n" + leaf_pad + (",\n" + leaf_pad).join([leaf] * row.size)
    template += "\n" + "  " * indent + "]"
    return template % tuple(values.ravel().tolist())


def _write(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            pieces.append(f"{inner_pad}{json.dumps(key)}: ")
            _write(obj[key], indent + 1, pieces)
            pieces.append(",\n" if i < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(inner_pad)
            _write(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write(complex_to_json(obj), indent, pieces)
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        # everything else (empty, 0-d, integer, non-finite) goes through
        # tolist(), so its errors stay those of the equivalent list
        if obj.ndim and obj.size and obj.dtype.kind in "fc" and np.isfinite(obj).all():
            if obj.ndim == 1:
                pieces.append(_array_text(obj, indent))
            else:
                _write(list(obj), indent, pieces)
        else:
            _write(obj.tolist(), indent, pieces)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-digit floats, trailing LF."""
    pieces: list = []
    _write(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _csv_column(values) -> tuple[str, list]:
    """The "%" leaf and the row values of one boolean, integer or float column."""
    arr = np.asarray(values)
    if arr.dtype.kind == "b":
        return "%s", ["true" if v else "false" for v in arr.tolist()]
    if arr.dtype.kind in "iu":
        return "%d", arr.tolist()
    if not np.isfinite(arr).all():
        _format_float(float(arr[~np.isfinite(arr)][0]))  # raises, as in JSON
    return "%.17g", arr.tolist()


def dumps_csv(columns: dict) -> str:
    """CSV text: a header of the column names, then one line per row.

    The columns are equal-length sequences; floats are written at 17
    significant digits and booleans as true/false, as in dumps_canonical.
    """
    leaves, values = zip(*(_csv_column(col) for col in columns.values()))
    row = ",".join(leaves)
    lines = [",".join(columns)]
    lines.extend(row % cells for cells in zip(*values))
    return "\n".join(lines) + "\n"
