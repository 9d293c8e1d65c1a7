"""Finite group backends with canonical fixed-width integer-tuple encodings.

Every element of a group is encoded as a tuple of small ints whose width is
fixed per backend.  Equal elements have equal encodings, and ordinary tuple
comparison is a deterministic total order, so sets of elements sort the same
way in every run and in every implementation of the same encodings.

Encodings:

* ``cyclic(n)``          -- ``(r,)`` with ``r`` the residue mod n
* ``dihedral(n)``        -- ``(rot, flip)`` for the element rot^a * flip^b,
                            i.e. ``(a, b)`` means r^a s^b with s r s = r^-1
* ``symmetric(n)``       -- the length-n Lehmer code of the permutation
* ``heisenberg_mod(p)``  -- ``(a, b, c)`` for [[1,a,c],[0,1,b],[0,0,1]] mod p
* ``direct_product``     -- concatenation of the factor encodings
* ``table``              -- ``(i,)`` with ``i`` the row index of the table
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from typing import Iterator, Sequence

from .errors import InvalidElementError, InvalidGroupError, ParameterError
from .prng import splitmix64

Element = tuple[int, ...]

#: default cap on the degree of symmetric-group backends
SYMMETRIC_DEGREE_LIMIT = 10

#: table backends up to this order get an eager sampled axiom check on load
TABLE_CHECK_LIMIT = 512

_AXIOM_TRIALS = 1000
_AXIOM_SEED = 0x5E7A


class Group(ABC):
    """A finite group acting on canonically encoded elements.

    Instances are immutable after construction and all operations are pure,
    so a group may be shared freely across workers.

    ``multiply`` and ``inverse`` trust their arguments: elements are checked
    where they enter the program (``coerce``, ``GSet(...)``, instance load,
    certificate decode), not on every operation.
    """

    kind: str

    @property
    @abstractmethod
    def order(self) -> int:
        """Number of elements of the group."""

    @property
    @abstractmethod
    def identity(self) -> Element:
        ...

    @abstractmethod
    def multiply(self, x: Element, y: Element) -> Element:
        ...

    @abstractmethod
    def inverse(self, x: Element) -> Element:
        ...

    @abstractmethod
    def validate(self, x: Element) -> None:
        """Raise InvalidElementError unless ``x`` is a valid encoding."""

    @abstractmethod
    def element_at(self, index: int) -> Element:
        """The ``index``-th element in encoding order (0 <= index < order)."""

    @abstractmethod
    def describe(self) -> dict:
        """JSON-compatible spec fragment that reconstructs this group."""

    # -- shared helpers -----------------------------------------------------

    def elements(self) -> Iterator[Element]:
        return (self.element_at(i) for i in range(self.order))

    def coerce(self, raw: Sequence[int]) -> Element:
        """Convert a raw int sequence to a validated element encoding."""
        try:
            enc = tuple(int(v) for v in raw)
        except (TypeError, ValueError) as exc:
            raise InvalidElementError(f"not an int sequence: {raw!r}") from exc
        self.validate(enc)
        return enc

    @property
    def _canon(self) -> str:
        cached = getattr(self, "_canon_cache", None)
        if cached is None:
            cached = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_canon_cache", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"

    def check_axioms(self, trials: int = _AXIOM_TRIALS, seed: int = _AXIOM_SEED) -> None:
        """Sampled associativity/identity/inverse check; raises on failure."""
        n = self.order
        e = self.identity
        draws = trials * 3
        sample = [self.element_at(splitmix64(seed, i) % n) for i in range(draws)]
        for i in range(trials):
            x, y, z = sample[3 * i], sample[3 * i + 1], sample[3 * i + 2]
            if self.multiply(self.multiply(x, y), z) != self.multiply(x, self.multiply(y, z)):
                raise InvalidGroupError(f"associativity fails on {x}, {y}, {z}")
            if self.multiply(x, e) != x or self.multiply(e, x) != x:
                raise InvalidGroupError(f"identity fails on {x}")
            if self.multiply(x, self.inverse(x)) != e or self.multiply(self.inverse(x), x) != e:
                raise InvalidGroupError(f"inverse fails on {x}")


def _require_index(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


class CyclicGroup(Group):
    """Integers mod n under addition; encoding ``(r,)``."""

    kind = "cyclic"

    def __init__(self, n: int):
        n = _require_index(n, "n")
        if n < 1:
            raise InvalidGroupError(f"cyclic order must be >= 1, got {n}")
        self.n = n

    @property
    def order(self) -> int:
        return self.n

    @property
    def identity(self) -> Element:
        return (0,)

    def multiply(self, x: Element, y: Element) -> Element:
        return ((x[0] + y[0]) % self.n,)

    def inverse(self, x: Element) -> Element:
        return ((-x[0]) % self.n,)

    def validate(self, x: Element) -> None:
        if not (isinstance(x, tuple) and len(x) == 1 and type(x[0]) is int and 0 <= x[0] < self.n):
            raise InvalidElementError(f"bad cyclic({self.n}) element {x!r}")

    def element_at(self, index: int) -> Element:
        return (index,)

    def describe(self) -> dict:
        return {"type": "cyclic", "n": self.n}


class DihedralGroup(Group):
    """Symmetries of the regular n-gon; encoding ``(rot, flip)``.

    ``(a, b)`` stands for r^a s^b where r is the rotation of order n and s a
    reflection with s r s = r^-1.
    """

    kind = "dihedral"

    def __init__(self, n: int):
        n = _require_index(n, "n")
        if n < 1:
            raise InvalidGroupError(f"dihedral degree must be >= 1, got {n}")
        self.n = n

    @property
    def order(self) -> int:
        return 2 * self.n

    @property
    def identity(self) -> Element:
        return (0, 0)

    def multiply(self, x: Element, y: Element) -> Element:
        a, e = x
        b, f = y
        rot = (a - b) % self.n if e else (a + b) % self.n
        return (rot, e ^ f)

    def inverse(self, x: Element) -> Element:
        a, e = x
        return x if e else ((-a) % self.n, 0)

    def validate(self, x: Element) -> None:
        if not (
            isinstance(x, tuple)
            and len(x) == 2
            and type(x[0]) is int
            and type(x[1]) is int
            and 0 <= x[0] < self.n
            and x[1] in (0, 1)
        ):
            raise InvalidElementError(f"bad dihedral({self.n}) element {x!r}")

    def element_at(self, index: int) -> Element:
        return (index // 2, index % 2)

    def describe(self) -> dict:
        return {"type": "dihedral", "n": self.n}


class SymmetricGroup(Group):
    """Permutations of {0..n-1}; encoding is the length-n Lehmer code.

    The Lehmer code of p is ``(l_0, ..., l_{n-1})`` with
    ``l_i = #{j > i : p(j) < p(i)}``; its lexicographic order matches the
    lexicographic order of one-line permutations.  Products compose right to
    left: ``(p * q)(i) = p(q(i))``.
    """

    kind = "symmetric"

    def __init__(self, n: int, limit: int = SYMMETRIC_DEGREE_LIMIT):
        n = _require_index(n, "n")
        if n < 1:
            raise InvalidGroupError(f"symmetric degree must be >= 1, got {n}")
        if n > limit:
            raise InvalidGroupError(
                f"symmetric degree {n} exceeds the guard {limit}; "
                "raise the limit explicitly to allow it"
            )
        self.n = n
        self.limit = limit
        self._perm_cache: dict[Element, tuple[int, ...]] = {}
        self._code_cache: dict[tuple[int, ...], Element] = {}

    @property
    def order(self) -> int:
        return math.factorial(self.n)

    @property
    def identity(self) -> Element:
        return (0,) * self.n

    def one_line(self, x: Element) -> tuple[int, ...]:
        """Decode a Lehmer code to the one-line form (p(0), ..., p(n-1)).

        Only codes that are not cached yet are validated.
        """
        try:
            perm = self._perm_cache.get(x)
        except TypeError:  # unhashable, so not a code; validate says why
            perm = None
        if perm is None:
            self.validate(x)
            free = list(range(self.n))
            perm = tuple(free.pop(d) for d in x)
            self._perm_cache[x] = perm
        return perm

    def encode_one_line(self, perm: Sequence[int]) -> Element:
        """Encode a one-line permutation of {0..n-1} as a Lehmer code.

        Only permutations that are not cached yet are checked.
        """
        perm = tuple(perm)
        code = self._code_cache.get(perm)
        if code is None:
            perm = tuple(int(v) for v in perm)
            if sorted(perm) != list(range(self.n)):
                raise InvalidElementError(f"not a permutation of 0..{self.n - 1}: {perm!r}")
            code = tuple(
                sum(1 for j in range(i + 1, self.n) if perm[j] < perm[i])
                for i in range(self.n)
            )
            self._code_cache[perm] = code
        return code

    def multiply(self, x: Element, y: Element) -> Element:
        px = self.one_line(x)
        py = self.one_line(y)
        return self.encode_one_line(tuple(px[v] for v in py))

    def inverse(self, x: Element) -> Element:
        p = self.one_line(x)
        inv = [0] * self.n
        for i, v in enumerate(p):
            inv[v] = i
        return self.encode_one_line(tuple(inv))

    def validate(self, x: Element) -> None:
        if not (
            isinstance(x, tuple)
            and len(x) == self.n
            and all(type(x[i]) is int and 0 <= x[i] <= self.n - 1 - i for i in range(self.n))
        ):
            raise InvalidElementError(f"bad symmetric({self.n}) element {x!r}")

    def element_at(self, index: int) -> Element:
        code = []
        for i in range(self.n):
            f = math.factorial(self.n - 1 - i)
            code.append(index // f)
            index %= f
        return tuple(code)

    def describe(self) -> dict:
        spec: dict = {"type": "symmetric", "n": self.n}
        if self.limit != SYMMETRIC_DEGREE_LIMIT:
            spec["limit"] = self.limit
        return spec


class HeisenbergGroup(Group):
    """Unitriangular 3x3 matrices over Z/p; encoding ``(a, b, c)``.

    ``(a, b, c)`` stands for the matrix [[1,a,c],[0,1,b],[0,0,1]] with all
    entries mod p, so (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b').
    """

    kind = "heisenberg_mod"

    def __init__(self, p: int):
        p = _require_index(p, "p")
        if p < 2:
            raise InvalidGroupError(f"heisenberg modulus must be >= 2, got {p}")
        self.p = p

    @property
    def order(self) -> int:
        return self.p**3

    @property
    def identity(self) -> Element:
        return (0, 0, 0)

    def multiply(self, x: Element, y: Element) -> Element:
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)

    def inverse(self, x: Element) -> Element:
        p = self.p
        return ((-x[0]) % p, (-x[1]) % p, (x[0] * x[1] - x[2]) % p)

    def validate(self, x: Element) -> None:
        if not (
            isinstance(x, tuple)
            and len(x) == 3
            and all(type(v) is int and 0 <= v < self.p for v in x)
        ):
            raise InvalidElementError(f"bad heisenberg_mod({self.p}) element {x!r}")

    def element_at(self, index: int) -> Element:
        p = self.p
        return (index // (p * p), (index // p) % p, index % p)

    def describe(self) -> dict:
        return {"type": "heisenberg_mod", "p": self.p}


class DirectProductGroup(Group):
    """Componentwise product of factor groups; encodings concatenate."""

    kind = "direct_product"

    def __init__(self, factors: Sequence[Group]):
        factors = tuple(factors)
        if not factors:
            raise InvalidGroupError("direct product needs at least one factor")
        self.factors = factors
        self._widths = tuple(len(g.identity) for g in factors)
        self._offsets = []
        pos = 0
        for w in self._widths:
            self._offsets.append(pos)
            pos += w
        self._width = pos

    @property
    def order(self) -> int:
        return math.prod(g.order for g in self.factors)

    @property
    def identity(self) -> Element:
        return tuple(v for g in self.factors for v in g.identity)

    def _split(self, x: Element) -> list[Element]:
        return [
            x[off : off + w] for off, w in zip(self._offsets, self._widths)
        ]

    def multiply(self, x: Element, y: Element) -> Element:
        xs, ys = self._split(x), self._split(y)
        return tuple(
            v
            for g, a, b in zip(self.factors, xs, ys)
            for v in g.multiply(a, b)
        )

    def inverse(self, x: Element) -> Element:
        return tuple(v for g, a in zip(self.factors, self._split(x)) for v in g.inverse(a))

    def validate(self, x: Element) -> None:
        if not (isinstance(x, tuple) and len(x) == self._width):
            raise InvalidElementError(f"bad direct product element {x!r}")
        for g, part in zip(self.factors, self._split(x)):
            g.validate(part)

    def element_at(self, index: int) -> Element:
        parts: list[Element] = []
        for g in reversed(self.factors):
            parts.append(g.element_at(index % g.order))
            index //= g.order
        parts.reverse()
        return tuple(v for part in parts for v in part)

    def describe(self) -> dict:
        return {"type": "direct_product", "factors": [g.describe() for g in self.factors]}


class TableGroup(Group):
    """Group given by an explicit multiplication table; encoding ``(i,)``.

    ``table[i][j]`` is the index of element i times element j.  The identity
    index may be designated; otherwise it is located by scanning.  Tables of
    order <= 512 get an eager sampled axiom check so corrupt tables fail on
    load.
    """

    kind = "table"

    def __init__(self, table: Sequence[Sequence[int]], identity_index: int | None = None):
        n = len(table)
        if n == 0:
            raise InvalidGroupError("empty multiplication table")
        rows: list[tuple[int, ...]] = []
        for i, row in enumerate(table):
            row = tuple(int(v) for v in row)
            if len(row) != n:
                raise InvalidGroupError(f"table row {i} has length {len(row)}, expected {n}")
            if any(not 0 <= v < n for v in row):
                raise InvalidGroupError(f"table row {i} has out-of-range entries")
            rows.append(row)
        self.table = tuple(rows)
        self.n = n
        if identity_index is None:
            identity_index = self._find_identity()
        else:
            identity_index = _require_index(identity_index, "identity")
            if not 0 <= identity_index < n:
                raise InvalidGroupError(f"identity index {identity_index} out of range")
            if any(self.table[identity_index][j] != j or self.table[j][identity_index] != j for j in range(n)):
                raise InvalidGroupError(f"designated identity {identity_index} is not two-sided")
        self.identity_index = identity_index
        self._inv = self._build_inverses()
        if n <= TABLE_CHECK_LIMIT:
            self.check_axioms()

    def _find_identity(self) -> int:
        for i in range(self.n):
            if all(self.table[i][j] == j and self.table[j][i] == j for j in range(self.n)):
                return i
        raise InvalidGroupError("table has no two-sided identity")

    def _build_inverses(self) -> tuple[int, ...]:
        e = self.identity_index
        inv = []
        for i in range(self.n):
            j = next(
                (j for j in range(self.n) if self.table[i][j] == e and self.table[j][i] == e),
                None,
            )
            if j is None:
                raise InvalidGroupError(f"element {i} has no two-sided inverse")
            inv.append(j)
        return tuple(inv)

    @property
    def order(self) -> int:
        return self.n

    @property
    def identity(self) -> Element:
        return (self.identity_index,)

    def multiply(self, x: Element, y: Element) -> Element:
        return (self.table[x[0]][y[0]],)

    def inverse(self, x: Element) -> Element:
        return (self._inv[x[0]],)

    def validate(self, x: Element) -> None:
        if not (isinstance(x, tuple) and len(x) == 1 and type(x[0]) is int and 0 <= x[0] < self.n):
            raise InvalidElementError(f"bad table element {x!r}")

    def element_at(self, index: int) -> Element:
        return (index,)

    def describe(self) -> dict:
        return {
            "type": "table",
            "table": [list(row) for row in self.table],
            "identity": self.identity_index,
        }


def group_from_spec(spec: dict) -> Group:
    """Build a group from its JSON spec fragment (inverse of ``describe``)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidGroupError(f"group spec must be an object with a 'type': {spec!r}")
    kind = spec["type"]
    if kind == "cyclic":
        return CyclicGroup(spec.get("n"))
    if kind == "dihedral":
        return DihedralGroup(spec.get("n"))
    if kind == "symmetric":
        if "limit" in spec:
            return SymmetricGroup(spec.get("n"), limit=_require_index(spec["limit"], "limit"))
        return SymmetricGroup(spec.get("n"))
    if kind == "heisenberg_mod":
        return HeisenbergGroup(spec.get("p"))
    if kind == "direct_product":
        factors = spec.get("factors")
        if not isinstance(factors, list):
            raise InvalidGroupError("direct_product spec needs a 'factors' list")
        return DirectProductGroup([group_from_spec(f) for f in factors])
    if kind == "table":
        table = spec.get("table")
        if not isinstance(table, list):
            raise InvalidGroupError("table spec needs a 'table' list of rows")
        return TableGroup(table, spec.get("identity"))
    raise InvalidGroupError(f"unknown group type {kind!r}")
