"""Canonical JSON: exact fraction strings, byte-stable dumps, atomic writes."""

import json
import os
import stat
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth.errors import CertificateFormatError, ParameterError
from symgrowth.serialize import (
    atomic_write_text,
    canonical_dumps,
    fraction_to_str,
    load_json,
    parse_fraction,
)

from conftest import encode_value


def test_fraction_round_trip():
    for f in (Fraction(1, 3), Fraction(-7, 2), Fraction(4), Fraction(0), Fraction(625, 450)):
        assert parse_fraction(fraction_to_str(f)) == f


def test_fractions_render_in_lowest_terms():
    assert fraction_to_str(Fraction(625, 450)) == "25/18"
    assert fraction_to_str(Fraction(8, 4)) == "2"
    assert fraction_to_str(Fraction(-6, 4)) == "-3/2"


@given(st.one_of(st.integers(), st.fractions()))
def test_fraction_to_str_of_an_int_or_fraction_is_the_string_of_its_fraction(value):
    assert fraction_to_str(value) == str(Fraction(value))


def test_fraction_to_str_renders_a_bool_as_its_fraction():
    assert (fraction_to_str(True), fraction_to_str(False)) == ("1", "0")
    assert fraction_to_str(-(10**40)) == str(-(10**40))


def test_parse_fraction_accepts_plain_ints():
    assert parse_fraction("12") == 12
    assert parse_fraction("-3") == -3
    assert parse_fraction(7) == 7


def test_parse_fraction_rejects_decimals_and_garbage():
    for bad in ("0.6", "1e-3", "3/0", "3/-2", "", "a/b", "1/2/3", None, 1.5, True):
        with pytest.raises(ParameterError):
            parse_fraction(bad)


def test_encode_value_handles_nested_structures():
    text = canonical_dumps(
        {"r": Fraction(1, 2), "xs": [(0,), (1, 2)], "n": 3, "flag": True, "none": None}
    )
    assert json.loads(text) == {"r": "1/2", "xs": [[0], [1, 2]], "n": 3, "flag": True, "none": None}


def _assert_no_json_form(bad):
    for obj in (bad, {"x": bad}, [1, (2, bad)], {"a": {"b": [bad]}}):
        with pytest.raises(ParameterError):
            canonical_dumps(obj)
        with pytest.raises(ParameterError):
            encode_value(obj)


def test_encode_value_rejects_floats():
    # json writes floats itself, so the hook for other values never sees them
    for bad in (0.5, 1.0, -0.0, float("nan"), float("inf")):
        _assert_no_json_form(bad)


def test_canonical_dumps_rejects_values_without_a_json_form():
    for bad in (object(), {1, 2}, b"x", 1j, range(3)):
        _assert_no_json_form(bad)


# ints past 64 bits, strings with escapes, controls and non-ASCII characters,
# empty containers, and chains of one-child containers for depth
_text = st.text(max_size=6) | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\uffff\U0001f600a', max_size=8)
_scalars = (
    st.integers(min_value=-(10**30), max_value=10**30)
    | st.integers(min_value=2**63 - 2, max_value=2**64 + 2)
    | st.integers(min_value=-(2**64) - 2, max_value=-(2**63) + 2)
    | _text
    | st.booleans()
    | st.none()
    | st.fractions(max_denominator=10**6)
    | st.sampled_from([[], (), {}])
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5)
    | inner.map(lambda v: [v])
    | inner.map(lambda v: {"k": v}),
    max_leaves=80,
)


@given(_values)
def test_canonical_dumps_matches_the_reference_walk(value):
    expected = json.dumps(encode_value(value), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
    assert canonical_dumps(value) == expected


def test_canonical_dumps_writes_empty_containers_and_escapes():
    assert canonical_dumps({"a": [], "b": {}, "c": ()}) == '{\n  "a": [],\n  "b": {},\n  "c": []\n}\n'
    assert canonical_dumps(['"\\\n\u00e9\U0001f600', 2**64]) == '[\n  "\\"\\\\\\n\\u00e9\\ud83d\\ude00",\n  18446744073709551616\n]\n'


def test_canonical_dumps_refuses_keys_that_are_not_strings():
    # json would write an int, bool or None key as a string; no payload has one, so it is refused
    for bad in ({1: "a"}, {None: 1}, {True: 1}, {(1, 2): 1}, {"a": 1, 2: 3}):
        for obj in (bad, [bad], {"x": bad}):
            with pytest.raises(ParameterError):
                canonical_dumps(obj)


def test_canonical_dumps_refuses_subclasses_of_json_types():
    # leaves and containers are told apart by exact type, so a subclass has no JSON form
    class Tag(str):
        pass

    class Count(int):
        pass

    for bad in (Tag("a"), Count(3), OrderedDict(a=1)):
        with pytest.raises(ParameterError):
            canonical_dumps({"x": [bad]})


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


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_atomic_write_gives_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "out.json"), "x\n")
        with open(tmp_path / "plain.json", "w") as fh:
            fh.write("x\n")
    finally:
        os.umask(previous)
    modes = {name: stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("out.json", "plain.json")}
    assert modes == {"out.json": 0o666 & ~umask, "plain.json": 0o666 & ~umask}
    assert sorted(os.listdir(tmp_path)) == ["out.json", "plain.json"]


def test_atomic_write_that_fails_leaves_no_temp_file(tmp_path):
    # a directory cannot be replaced by a file, and a missing one cannot hold one;
    # either is a ParameterError that names the path
    (tmp_path / "sub").mkdir()
    for target in ("sub", "missing/x.json"):
        with pytest.raises(ParameterError, match=target):
            atomic_write_text(str(tmp_path / target), "x\n")
    assert os.listdir(tmp_path) == ["sub"]
    assert os.listdir(tmp_path / "sub") == []


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


def test_load_json_names_the_class_for_a_malformed_file(tmp_path):
    # a file that is not JSON, or not an object, raises the caller's class;
    # a file that cannot be read stays a ParameterError
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    for path in (bad, arr):
        with pytest.raises(CertificateFormatError):
            load_json(str(path), "certificate", CertificateFormatError)
    with pytest.raises(ParameterError) as info:
        load_json(str(tmp_path / "missing.json"), "certificate", CertificateFormatError)
    assert not isinstance(info.value, CertificateFormatError)
