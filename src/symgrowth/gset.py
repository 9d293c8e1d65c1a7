"""Exact arithmetic on finite subsets of a group.

A ``GSet`` is an immutable, canonically ordered subset of a fixed group.
Every statistic that could be fractional (the doubling ratio) is a
``fractions.Fraction``; floats never enter any computation here.

Product-style operations cost |A|*|B| group multiplications.  A global pair
budget guards against accidentally quadratic-in-the-group blowups: when the
multiplications needed by one call would exceed the remaining budget the
call raises ``PairBudgetError`` before doing the work.  ``product`` stops
multiplying once its output is the whole group, but it is still charged
the full |A|*|B| up front.

``conv_table`` is the one convolution kernel: for each x in AB it lists the
u in A with x in uB, so its entry lengths are the convolution counts and,
with B = A^-1, its entry at t is A ∩ tA.  Level sets and symmetry sets are
``level_set`` filters of such a table.  ``row_product`` gives each u*B as a
Python-int bitmask over AB, so the shrink scan sizes the product of any
subset of A with B by OR-ing rows, with no further multiplications.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator

from .budget import charge_pairs
from .errors import EmptySetError, GroupMismatchError
from .groups import Element, Group


class GSet:
    """An immutable subset of a group, kept in sorted encoding order."""

    __slots__ = ("group", "_elems", "_members")

    def __init__(self, group: Group, elems: Iterable[Element]):
        members = frozenset(elems)
        for x in members:
            group.validate(x)
        self.group = group
        self._members = members
        self._elems = tuple(sorted(members))

    @classmethod
    def _trusted(cls, group: Group, members: frozenset[Element]) -> "GSet":
        """A GSet of members already known to lie in ``group``, built without validation."""
        self = cls.__new__(cls)
        self.group = group
        self._members = members
        self._elems = tuple(sorted(members))
        return self

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._elems)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elems)

    def __contains__(self, x: object) -> bool:
        return x in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self._members == other._members

    def __hash__(self) -> int:
        return hash((self.group, self._members))

    def __repr__(self) -> str:
        shown = ", ".join(map(str, self._elems[:4]))
        more = "" if len(self) <= 4 else f", ... ({len(self)} total)"
        return f"GSet({self.group.kind}, [{shown}{more}])"

    @property
    def elements(self) -> tuple[Element, ...]:
        """All members in canonical sorted order."""
        return self._elems

    def require_nonempty(self, what: str = "set") -> None:
        if not self._elems:
            raise EmptySetError(f"{what} must be nonempty")

    def same_group(self, other: "GSet") -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"sets live in different groups: {self.group.describe()} vs {other.group.describe()}"
            )

    def subset_of(self, other: "GSet") -> bool:
        self.same_group(other)
        return self._members <= other._members

    def contains_identity(self) -> bool:
        return self.group.identity in self._members

    def is_symmetric(self) -> bool:
        """True when the set equals its elementwise inverse."""
        g = self.group
        return all(g.inverse(x) in self._members for x in self._elems)


def product(a: GSet, b: GSet) -> GSet:
    """The product set AB = {x*y : x in A, y in B}; stops early once AB = G."""
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    mul = g.multiply
    whole = g.order
    out = set()
    for x in a:
        for y in b:
            out.add(mul(x, y))
        if len(out) == whole:
            break
    return GSet._trusted(g, frozenset(out))


def inverse_set(a: GSet) -> GSet:
    """The set A^-1 = {x^-1 : x in A}."""
    g = a.group
    return GSet._trusted(g, frozenset(g.inverse(x) for x in a))


def conv_table(a: GSet, b: GSet) -> dict[Element, list[Element]]:
    """The convolution of 1_A with 1_B, with the terms of each count.

    Maps every x in AB to the list of u in A, in canonical order, with
    x in uB; the list's length is 1_A * 1_B(x).  With b = inverse_set(a)
    the entry at t is A ∩ tA.  Costs |A|*|B| multiplications.
    """
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    mul = a.group.multiply
    table: defaultdict[Element, list[Element]] = defaultdict(list)
    for u in a:
        for v in b:
            table[mul(u, v)].append(u)
    table.default_factory = None  # a missing x is a KeyError, not a new empty entry
    return table


def level_set(group: Group, table: dict[Element, list[Element]], need) -> GSet:
    """The x whose entry in the convolution ``table`` has at least ``need`` terms."""
    least = math.ceil(need)  # an int bound, so no Fraction comparison per entry
    return GSet._trusted(group, frozenset(x for x, terms in table.items() if len(terms) >= least))


def row_product(a: GSet, b: GSet) -> tuple[tuple[Element, ...], dict[Element, int]]:
    """The product set AB and, for each u in A, the row u*B as a mask over it.

    AB comes in first-seen order, and bit j of the row of u is set when the
    j-th element of AB lies in uB.  The product of a subset of A with B is
    the OR of its members' rows.  Costs |A|*|B| multiplications.
    """
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    mul = a.group.multiply
    index: dict[Element, int] = {}
    setdefault = index.setdefault
    rows: dict[Element, int] = {}
    for u in a:
        row = 0
        for v in b:
            row |= 1 << setdefault(mul(u, v), len(index))
        rows[u] = row
    return tuple(index), rows


@dataclass(frozen=True)
class DoublingStats:
    """Exact growth statistics of one set.

    ``doubling`` is the ratio |A^2| / |A|; the recorded sizes are |A|,
    |A^2|, |A A^-1| and |A^2 A^-2|.  All of them are at least |A| for a
    nonempty A, and the doubling is at least 1.
    """

    size: int
    product_size: int
    inverse_product_size: int
    quad_size: int
    doubling: Fraction

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def doubling_stats(a: GSet) -> DoublingStats:
    """Exact sizes of A, A^2, A A^-1, A^2 A^-2 and the doubling |A^2|/|A|.

    A^2 A^-2 is the whole group when A^2 or A A^-1 is.  Otherwise it is
    built as ((A^2)A^-1)A^-1 when that costs fewer multiplications than
    squaring A^2, bounding |A^2 A^-1| by min(|G|, |A^2||A|), and as
    A^2 (A^2)^-1 when it does not.
    """
    a.require_nonempty("doubling input")
    size = len(a)
    whole = a.group.order
    inv = inverse_set(a)
    square = product(a, a)
    times_inverse = product(a, inv)
    n2 = len(square)
    if whole in (n2, len(times_inverse)):
        quad_size = whole
    elif n2 * size + min(whole, n2 * size) * size < n2 * n2:
        quad_size = len(product(product(square, inv), inv))
    else:
        quad_size = len(product(square, inverse_set(square)))
    return DoublingStats(
        size=size,
        product_size=n2,
        inverse_product_size=len(times_inverse),
        quad_size=quad_size,
        doubling=Fraction(n2, size),
    )
