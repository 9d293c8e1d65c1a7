"""Canonical JSON conventions shared by certificates, reports and the CLI.

The output contract is byte-stability: the same object serializes to the
same bytes in every run and on every platform.  Keys are sorted, indentation
is fixed, rationals travel as exact lowest-terms "p/q" strings (bare "p"
when integral), and group elements travel as their encoding arrays.  The
text is the one ``json.dumps(..., sort_keys=True, indent=2)`` writes, but
``canonical_dumps`` builds it with a short recursive writer of its own,
which refuses a float.
"""

from __future__ import annotations

import json
import json.encoder
import os
import re
from fractions import Fraction

from .errors import ParameterError

_FRACTION_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_quote = json.encoder.encode_basestring_ascii
#: the types whose ``str`` is already that of their Fraction
_EXACT = (int, Fraction)


def fraction_to_str(value: Fraction | int) -> str:
    """Render an exact rational as 'p/q' in lowest terms ('p' if integral).

    An int or a Fraction is already in lowest terms, so only another value,
    a bool included, is made a Fraction first.
    """
    if type(value) in _EXACT:
        return str(value)
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
    """A Fraction's exact string; any other value, a float included, raises."""
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    raise ParameterError(f"value {value!r} has no canonical JSON form")


def canonical_dumps(obj) -> str:
    """Serialize to the canonical byte-stable JSON text (trailing newline).

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n"`` for a value of dicts, lists, tuples, strs,
    ints, bools and None, with ``_json_form`` for every other value: a
    Fraction becomes its exact string, and a float, or any other value,
    raises ParameterError.  Values are told apart by exact type, so a
    subclass of str, int, list, tuple or dict goes to ``_json_form`` too.
    Dict keys must be strs; json would stringify an int, bool or None key,
    but no payload has one, so any other key raises ParameterError.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the canonical text of one value, whose own lines start with ``newline``, to ``out``.

    Every container appends its pieces to the one list, so the work is linear
    in the text even for deep nesting; plain loops, not comprehensions, keep
    each level of nesting to one frame.
    """
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            separator = "," + inner
            _write(item, inner, out)
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        for key in value:
            if type(key) is not str:
                raise ParameterError(f"dict key {key!r} is not a string")
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            out.append(separator + _quote(key) + ": ")
            separator = "," + inner
            _write(value[key], inner, out)
        out.append(newline + "}")
    else:
        out.append(_quote(_json_form(value)))


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a sibling temp file and a single rename.

    The temp file is created as ``open(path, "w")`` would create the file,
    with mode 0o666 less the umask, and under a fresh random name.  A path
    that cannot be written, in a missing directory or naming a directory,
    raises ParameterError, and the temp file is removed.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    except OSError as exc:
        raise ParameterError(f"cannot write output file {path}: {exc}") from exc


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
