"""Serializer determinism and formatting rules."""

import json

import numpy as np
import pytest

from semicalib.jsonio import dumps


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

    def test_byte_identical(self):
        payload = {"m": np.linspace(0, 1, 7), "k": {"z": 1.25, "a": [True, None]}}
        assert dumps(payload) == dumps(payload)
