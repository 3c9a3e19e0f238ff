"""Serializer determinism and formatting rules."""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from semicalib import cli, jsonio
from semicalib.jsonio import dumps
from helpers import planted_field_text


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


def general(obj) -> str:
    """``dumps`` with the record path off: every dict goes through the general writer."""
    with mock.patch.object(jsonio, "_record", lambda obj, indent: None):
        return dumps(obj)


def outcome(write, obj):
    """(text, None) of a write, or (None, (exception type, message)) if it raised."""
    try:
        return write(obj), None
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
RECORD_SHAPES = st.one_of(
    st.just(()), st.just((0,)), st.tuples(st.integers(1, 4)), st.tuples(st.integers(0, 3), st.integers(0, 3))
)
KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["%", '"', "%s", "%%", '"%d"', "%.17g", "a\\b"]))


def records(floats=FLOATS, keys=KEYS, extra_leaves=st.nothing()):
    """Nested dicts of record leaves (bools and the ints 0 and 1 side by side), plus ``extra_leaves``."""
    leaves = st.one_of(
        floats, st.booleans(), st.sampled_from([0, 1]), st.integers(-(2**70), 2**70), st.none(),
        arrays(np.float64, RECORD_SHAPES, elements=floats), extra_leaves,
    )
    values = st.recursive(leaves, lambda inner: st.dictionaries(keys, inner, max_size=4), max_leaves=12)
    return st.dictionaries(keys, values, max_size=6)


def json_floats(record):
    """Every float of a record, arrays as arrays."""
    for value in record.values():
        if isinstance(value, dict):
            yield from json_floats(value)
        elif isinstance(value, (float, np.ndarray)):
            yield np.asarray(value)


class TestRecordTemplates:
    """A record written in one step has the general writer's bytes, and whatever the
    general writer rejects is rejected with its error."""

    @given(record=records())
    def test_same_bytes_as_general_writer(self, record):
        if all(np.abs(x).max(initial=0.0) < 1e300 for x in json_floats(record)):  # no sum overflows
            assert jsonio._record(record, 0) is not None
        assert dumps(record) == general(record)
        for payload in ([record, record], {"points": [record], "notes": ["x"]}, {"r": record}):
            assert dumps(payload) == general(payload)

    @given(record=records(
        floats=st.one_of(FLOATS, st.sampled_from(NON_FINITE)),
        keys=st.one_of(KEYS, st.integers(0, 3)),
        extra_leaves=st.one_of(st.text(max_size=3), st.lists(FLOATS, max_size=2),
                               st.just(np.float64(0.5)), st.just(np.arange(3))),
    ))
    def test_same_outcome_as_general_writer(self, record):
        assert outcome(dumps, record) == outcome(general, record)
        assert outcome(dumps, [record]) == outcome(general, [record])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_raises_the_general_error(self, bad):
        message = f"cannot serialize non-finite float {bad!r}"
        for record in ({"a": 1.0, "b": {"c": bad}}, {"m": np.array([[0.0, bad]]), "z": 1}):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                dumps(record)
            assert jsonio._record(record, 0) is None

    def test_non_str_key_raises_the_general_error(self):
        for record in ({1: 0.5}, {"a": {2: True}}):
            with pytest.raises(TypeError, match="^JSON object keys must be strings, got int$"):
                dumps(record)
            assert jsonio._record(record, 0) is None

    def test_overflowing_sum_takes_the_general_path(self):
        record = {"a": 1e308, "b": np.array([1e308, -0.0])}
        assert jsonio._record(record, 0) is None
        assert dumps(record) == general(record) == '{\n  "a": 1e+308,\n  "b": [1e+308, -0]\n}\n'

    def test_record_exact(self):
        record = {"%d": True, "b": None, "a": {"x": 1, "e": {}}, '"m"': np.array([[0.5], [-0.0]]),
                  "z": np.array(2.0)}
        assert dumps(record) == general(record) == (
            "{\n"
            '  "\\"m\\"": [\n'
            "    [0.5],\n"
            "    [-0]\n"
            "  ],\n"
            '  "%d": true,\n'
            '  "a": {\n'
            '    "e": {},\n'
            '    "x": 1\n'
            "  },\n"
            '  "b": null,\n'
            '  "z": 2\n'
            "}\n"
        )


def general_writer_calls(tmp_path, points: int) -> int:
    """Calls into the general writer while ``semicalib verify --power 2 --power 3`` writes a field's report."""
    field = tmp_path / f"field{points}.calfield"
    field.write_text(planted_field_text(8, seed=0, points=points))
    calls = 0
    write = jsonio._write

    def counted(*args):
        nonlocal calls
        calls += 1
        return write(*args)

    with mock.patch.object(jsonio, "_write", counted):
        code = cli.main(["verify", str(field), "-o", str(tmp_path / "verify.json"), "--power", "2", "--power", "3"])
    assert code == 0
    return calls


def test_point_records_skip_the_general_writer(tmp_path):
    """Each point record, checks included, is one template: the general writer only sees the report's frame."""
    assert general_writer_calls(tmp_path, 10) == general_writer_calls(tmp_path, 200)
