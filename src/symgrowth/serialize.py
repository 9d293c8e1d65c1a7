"""Canonical JSON conventions shared by certificates, reports and the CLI.

The output contract is byte-stability: the same object serializes to the
same bytes in every run and on every platform.  Keys are sorted, indentation
is fixed, rationals travel as exact lowest-terms "p/q" strings (bare "p"
when integral), and group elements travel as their encoding arrays.
"""

from __future__ import annotations

import json
import json.encoder
import os
import re
import tempfile
from fractions import Fraction

from .errors import ParameterError

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def fraction_to_str(value: Fraction | int) -> str:
    """Render an exact rational as 'p/q' in lowest terms ('p' if integral)."""
    return str(Fraction(value))


def parse_fraction(text: str, what: str = "fraction") -> Fraction:
    """Parse an exact 'p/q' or 'p' string; decimals are rejected.

    Decimal notation is refused on purpose: a string like "0.3" looks exact
    but is not the rational 3/10 to a binary float reader, so only integer
    and slash forms are portable.  A part longer than the interpreter's
    integer digit limit is refused too.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str) or not _FRACTION_RE.match(text.strip()):
        raise ParameterError(
            f"{what} must be an exact integer or p/q string, got {text!r}"
        )
    try:
        return Fraction(text.strip())
    except ValueError as exc:  # a part past the integer digit limit
        raise ParameterError(f"{what} cannot be read: {exc}") from exc


def elements_to_json(elements) -> list[list[int]]:
    """Encode an iterable of element tuples as a list of int arrays."""
    return [list(x) for x in elements]


def _json_form(value) -> str:
    """A Fraction's exact string; any other value json cannot write itself, a float included, raises."""
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    raise ParameterError(f"value {value!r} has no canonical JSON form")


def canonical_dumps(obj) -> str:
    """Serialize to the canonical byte-stable JSON text (trailing newline).

    This is the walk that ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True)`` runs, with ``_json_form`` for Fractions and other
    values json cannot write, and for floats in place of json's own float
    formatter, so a float raises too.  Tuples become arrays.
    """
    walk = json.encoder._make_iterencode(
        markers={},
        _default=_json_form,
        _encoder=json.encoder.encode_basestring_ascii,
        _indent="  ",
        _floatstr=_json_form,
        _key_separator=": ",
        _item_separator=",",
        _sort_keys=True,
        _skipkeys=False,
        _one_shot=True,
    )
    return "".join(walk(obj, 0)) + "\n"


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a sibling temp file and a single rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_json(path: str, what: str = "input", malformed: type[Exception] = ParameterError) -> dict:
    """Read a JSON object from a file.

    A file that cannot be read raises ParameterError; one that is not JSON,
    or not a JSON object, raises ``malformed``.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or an integer literal past the digit limit
        raise malformed(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise malformed(f"{what} file {path} must hold a JSON object")
    return data
