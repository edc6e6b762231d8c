import numpy as np
import pytest

from hardyframes.jsonio import dumps_canonical, dumps_csv

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3, 2.0**-1074 * 3]


def _arrays():
    rng = np.random.default_rng(7)
    base = np.array(EDGE_VALUES + list(rng.standard_normal(7)))  # 16 values
    cplx = np.empty(base.size, dtype=complex)
    cplx.real, cplx.imag = base, base[::-1]  # signed zeros in both parts
    for values in (base, cplx):
        yield values
        yield values.reshape(4, 4)
        yield values.reshape(2, 1, 8)
        yield values.reshape(1, 16)
        yield values.reshape(2, 2, 4)[:, ::-1, 1::2]  # non-contiguous
        yield values[:1]
    single = np.append(base[np.abs(base) < 1e38], [1e-45, 3e38])  # no overflow
    yield single.astype(np.float32)
    yield (single - 1j * single).astype(np.complex64)
    yield base.astype(np.longdouble)
    yield cplx.astype(np.clongdouble)


@pytest.mark.parametrize("arr", list(_arrays()), ids=lambda a: f"{a.dtype}{a.shape}")
def test_array_writer_matches_tolist_bytes(arr):
    nested = {"a": [1, {"deep": arr, "x": 2.5}], "b": arr, "c": [arr, arr]}
    as_lists = {"a": [1, {"deep": arr.tolist(), "x": 2.5}], "b": arr.tolist(),
                "c": [arr.tolist(), arr.tolist()]}
    assert dumps_canonical(nested) == dumps_canonical(as_lists)
    assert dumps_canonical(arr) == dumps_canonical(arr.tolist())


@pytest.mark.parametrize(
    "arr",
    [
        np.array([]),
        np.zeros((3, 0), dtype=complex),
        np.array(-0.0),
        np.array(1.5 - 0.0j),
        np.arange(6).reshape(2, 3),
        np.array([True, False]),
    ],
    ids=["empty", "empty-axis", "0d-float", "0d-complex", "integer", "bool"],
)
def test_arrays_off_the_fast_path_match_tolist_bytes(arr):
    assert dumps_canonical({"k": [arr]}) == dumps_canonical({"k": [arr.tolist()]})


@pytest.mark.parametrize(
    "arr",
    [
        np.array([1.0, np.inf]),
        np.array([[0.5, np.nan]]),
        np.array([1 + 1j, complex(0.0, -np.inf)]),
    ],
    ids=["inf", "nan-2d", "complex-inf"],
)
def test_non_finite_array_raises_like_its_list(arr):
    with pytest.raises(FloatingPointError) as from_list:
        dumps_canonical({"k": arr.tolist()})
    with pytest.raises(FloatingPointError) as from_array:
        dumps_canonical({"k": arr})
    assert str(from_array.value) == str(from_list.value)


def test_csv_writes_each_cell_as_the_json_writer_does():
    floats = np.array(EDGE_VALUES)
    text = dumps_csv({
        "i": np.arange(floats.size),
        "x": floats,
        "flag": floats > 0,
        "y": list(floats[::-1]),
    })
    lines = text.split("\n")
    assert lines[0] == "i,x,flag,y" and lines[-1] == ""
    for i, line in enumerate(lines[1:-1]):
        x, y = floats[i], floats[-1 - i]
        cells = [str(i), dumps_canonical(x), dumps_canonical(bool(x > 0)),
                 dumps_canonical(y)]
        assert line == ",".join(cell.rstrip("\n") for cell in cells)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_csv_non_finite_raises_like_json(value):
    column = [0.5, value]
    with pytest.raises(FloatingPointError) as from_json:
        dumps_canonical({"x": column})
    with pytest.raises(FloatingPointError) as from_csv:
        dumps_csv({"n": [0, 1], "x": column})
    assert str(from_csv.value) == str(from_json.value)
