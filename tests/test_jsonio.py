"""Serializer determinism and formatting rules."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from semicalib.jsonio import dumps


def as_lists(obj):
    """``obj`` with every array replaced by ``tolist()``: what the general writer sees."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [as_lists(item) for item in obj]
    return obj


FINITE_ARRAYS = arrays(
    np.float64,
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


class TestDumps:
    def test_sorted_keys(self):
        assert dumps({"b": 1, "a": 2}).index('"a"') < dumps({"b": 1, "a": 2}).index('"b"')

    def test_float_seventeen_digits_roundtrip(self):
        x = 0.1 + 0.2
        out = dumps({"x": x})
        assert json.loads(out)["x"] == x

    def test_numpy_types(self):
        out = dumps({"a": np.float64(0.5), "n": np.int64(3), "m": np.eye(2)})
        data = json.loads(out)
        assert data == {"a": 0.5, "n": 3, "m": [[1.0, 0.0], [0.0, 1.0]]}

    def test_scalar_lists_inline(self):
        assert "[1, 2, 3]" in dumps({"v": [1, 2, 3]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"x": float("nan")})

    def test_rejects_non_finite_in_list(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps([1.0, float("nan")])
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"m": np.array([[0.0, np.inf]])})

    def test_mixed_scalar_list_exact(self):
        items = [1, 2.5, True, None, np.float64(0.1), np.int64(-7), np.bool_(False)]
        out = dumps({"v": items, "m": np.array([[1.0, 1 / 3], [-0.0, 2e-300]])})
        assert out == (
            "{\n"
            '  "m": [\n'
            "    [1, 0.33333333333333331],\n"
            "    [-0, 2.0000000000000001e-300]\n"
            "  ],\n"
            '  "v": [1, 2.5, true, null, 0.10000000000000001, -7, false]\n'
            "}\n"
        )

    def test_byte_identical(self):
        payload = {"m": np.linspace(0, 1, 7), "k": {"z": 1.25, "a": [True, None]}}
        assert dumps(payload) == dumps(payload)


class TestArrayTemplates:
    @given(arr=FINITE_ARRAYS, other=FINITE_ARRAYS)
    def test_same_bytes_as_general_writer(self, arr, other):
        for payload in (arr, [arr], {"a": arr}, {"a": [other, {"b": [[arr]], "c": 1.5}]}, [other, arr, None]):
            assert dumps(payload) == dumps(as_lists(payload))

    def test_extreme_floats(self):
        arr = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308]])
        assert dumps({"m": arr}) == (
            "{\n"
            '  "m": [\n'
            "    [-0, 4.9406564584124654e-324],\n"
            "    [1.7976931348623157e+308, -1.7976931348623157e+308]\n"
            "  ]\n"
            "}\n"
        )

    def test_empty_and_zero_dimensional(self):
        assert dumps(np.zeros((0, 3))) == "[]\n"
        assert dumps(np.zeros((2, 0))) == "[\n  [],\n  []\n]\n"
        assert dumps({"x": np.array(0.1)}) == '{\n  "x": 0.10000000000000001\n}\n'

    @pytest.mark.parametrize(
        ("arr", "text"),
        [
            (np.array([[1, -2]]), "[\n  [1, -2]\n]\n"),
            (np.array([True, False]), "[true, false]\n"),
            (np.array([0.1, -0.0], dtype=np.float32), "[0.10000000149011612, -0]\n"),
        ],
    )
    def test_other_dtypes_keep_their_bytes(self, arr, text):
        assert dumps(arr) == dumps(arr.tolist()) == text

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2)])
    def test_non_finite_raises_as_before(self, bad, where):
        arr = np.arange(6.0).reshape(2, 3)
        arr[where] = bad
        message = f"cannot serialize non-finite float {float(bad)!r}"
        for payload in (arr, {"m": [arr]}):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dumps(payload)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dumps(as_lists(payload))
