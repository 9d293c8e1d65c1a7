"""Canonical JSON: exact fraction strings, byte-stable dumps, atomic writes."""

import json
import os
from fractions import Fraction

import pytest

from symgrowth.errors import ParameterError
from symgrowth.serialize import (
    atomic_write_text,
    canonical_dumps,
    encode_value,
    fraction_to_str,
    load_json,
    parse_fraction,
)


def test_fraction_round_trip():
    for f in (Fraction(1, 3), Fraction(-7, 2), Fraction(4), Fraction(0), Fraction(625, 450)):
        assert parse_fraction(fraction_to_str(f)) == f


def test_fractions_render_in_lowest_terms():
    assert fraction_to_str(Fraction(625, 450)) == "25/18"
    assert fraction_to_str(Fraction(8, 4)) == "2"
    assert fraction_to_str(Fraction(-6, 4)) == "-3/2"


def test_parse_fraction_accepts_plain_ints():
    assert parse_fraction("12") == 12
    assert parse_fraction("-3") == -3
    assert parse_fraction(7) == 7


def test_parse_fraction_rejects_decimals_and_garbage():
    for bad in ("0.6", "1e-3", "3/0", "3/-2", "", "a/b", "1/2/3", None, 1.5, True):
        with pytest.raises(ParameterError):
            parse_fraction(bad)


def test_encode_value_handles_nested_structures():
    blob = encode_value(
        {"r": Fraction(1, 2), "xs": [(0,), (1, 2)], "n": 3, "flag": True, "none": None}
    )
    assert blob == {"r": "1/2", "xs": [[0], [1, 2]], "n": 3, "flag": True, "none": None}


def test_encode_value_rejects_floats():
    with pytest.raises(ParameterError):
        encode_value({"x": 0.5})


def test_canonical_dumps_is_byte_stable():
    obj = {"b": Fraction(2, 4), "a": [1, 2], "c": {"z": 0, "y": (1,)}}
    one = canonical_dumps(obj)
    two = canonical_dumps({"c": {"y": (1,), "z": 0}, "a": [1, 2], "b": Fraction(1, 2)})
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == {"a": [1, 2], "b": "1/2", "c": {"y": [1], "z": 0}}
    # keys appear sorted in the byte stream itself
    assert one.index('"a"') < one.index('"b"') < one.index('"c"')


def test_atomic_write_replaces_and_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(str(target), "first\n")
    atomic_write_text(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_load_json_round_trip(tmp_path):
    target = tmp_path / "inst.json"
    target.write_text('{"group": {"type": "cyclic", "n": 20}}')
    assert load_json(str(target))["group"]["n"] == 20


def test_load_json_errors(tmp_path):
    with pytest.raises(ParameterError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParameterError):
        load_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ParameterError):
        load_json(str(arr))
