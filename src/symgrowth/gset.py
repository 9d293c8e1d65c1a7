"""Exact arithmetic on finite subsets of a group.

A ``GSet`` is an immutable, canonically ordered subset of a fixed group.
Every statistic that could be fractional (densities, doubling ratios,
normalised convolution values) is a ``fractions.Fraction``; floats never
enter any computation here.

Product-style operations cost |A|*|B| group multiplications.  A global pair
budget guards against accidentally quadratic-in-the-group blowups: when the
multiplications needed by one call would exceed the remaining budget the
call raises ``PairBudgetError`` before doing the work.

Subsets of a set are also passed around as Python-int bitmasks, where bit i
stands for the i-th element of the set in a fixed order; ``overlap_masks``
and ``row_product`` build such masks so that the shrink scan needs no
multiplications beyond one pass over each product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .budget import (  # noqa: F401  (re-exported as part of this module's API)
    DEFAULT_PAIR_BUDGET,
    charge_pairs,
    pair_budget,
    set_pair_budget,
)
from .errors import EmptySetError, GroupMismatchError, ParameterError
from .groups import Element, Group


class GSet:
    """An immutable subset of a group, kept in sorted encoding order."""

    __slots__ = ("group", "_elems", "_members")

    def __init__(self, group: Group, elems: Iterable[Element], *, validate: bool = True):
        members = frozenset(elems)
        if validate:
            for x in members:
                group.validate(x)
        self.group = group
        self._members = members
        self._elems = tuple(sorted(members))

    @classmethod
    def _trusted(cls, group: Group, members: frozenset[Element]) -> "GSet":
        return cls(group, members, validate=False)

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

    def is_empty(self) -> bool:
        return not self._elems

    def require_nonempty(self, what: str = "set") -> None:
        if not self._elems:
            raise EmptySetError(f"{what} must be nonempty")

    def same_group(self, other: "GSet") -> None:
        if self.group != other.group:
            raise GroupMismatchError(
                f"sets live in different groups: {self.group.describe()} vs {other.group.describe()}"
            )

    def union(self, other: "GSet") -> "GSet":
        self.same_group(other)
        return GSet._trusted(self.group, self._members | other._members)

    def intersect(self, other: "GSet") -> "GSet":
        self.same_group(other)
        return GSet._trusted(self.group, self._members & other._members)

    def subset_of(self, other: "GSet") -> bool:
        self.same_group(other)
        return self._members <= other._members

    def contains_identity(self) -> bool:
        return self.group.identity in self._members

    def is_symmetric(self) -> bool:
        """True when the set equals its elementwise inverse."""
        g = self.group
        return all(g.inverse(x) in self._members for x in self._elems)

    def translate_left(self, t: Element) -> "GSet":
        """The set t*A."""
        g = self.group
        g.validate(t)
        return GSet._trusted(g, frozenset(g.multiply(t, x) for x in self._elems))

    def density(self) -> Fraction:
        """|A| / |G| as an exact fraction."""
        return Fraction(len(self._elems), self.group.order)

    def pick(self, mask: int) -> "GSet":
        """The members whose positions in canonical order are set in ``mask``."""
        return GSet._trusted(self.group, frozenset(pick_bits(self._elems, mask)))


def pick_bits(items: Sequence, mask: int) -> list:
    """The entries of ``items`` at the positions of the set bits of ``mask``."""
    return [items[i] for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def product(a: GSet, b: GSet) -> GSet:
    """The product set AB = {x*y : x in A, y in B}."""
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    mul = g.multiply
    out = set()
    for x in a:
        for y in b:
            out.add(mul(x, y))
    return GSet._trusted(g, frozenset(out))


def inverse_set(a: GSet) -> GSet:
    """The set A^-1 = {x^-1 : x in A}."""
    g = a.group
    return GSet._trusted(g, frozenset(g.inverse(x) for x in a))


def power(a: GSet, k: int) -> GSet:
    """The k-fold product set A^k; A^0 is the identity singleton."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ParameterError(f"power exponent must be a nonnegative integer, got {k!r}")
    g = a.group
    if k == 0:
        return GSet(g, [g.identity])
    acc = a
    for _ in range(k - 1):
        acc = product(acc, a)
    return acc


def conv_value(a: GSet, b: GSet, x: Element) -> int:
    """The convolution count  1_A * 1_B (x) = #{(u, v) in A x B : u*v = x}.

    Equal to |A ∩ x B^-1|, computed by iterating over the smaller of the two
    sets and testing membership in the other.
    """
    a.same_group(b)
    g = a.group
    g.validate(x)
    if len(a) <= len(b):
        # u*v = x  <=>  v = u^-1 x
        return sum(1 for u in a if g.multiply(g.inverse(u), x) in b)
    return sum(1 for v in b if g.multiply(x, g.inverse(v)) in a)


def conv_table(a: GSet, b: GSet) -> "ConvTable":
    """All nonzero values of 1_A * 1_B, indexed by product element."""
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    mul = g.multiply
    counts: dict[Element, int] = {}
    for u in a:
        for v in b:
            w = mul(u, v)
            counts[w] = counts.get(w, 0) + 1
    return ConvTable(group=g, counts=dict(sorted(counts.items())))


def overlap_masks(a: GSet) -> dict[Element, int]:
    """The convolution table of A with A^-1, with a bitmask for each count.

    Maps every t in A A^-1 to the mask of A ∩ tA over A's canonical order,
    so ``mask.bit_count()`` is |A ∩ tA|, the value of
    ``conv_table(a, inverse_set(a))`` at t.  Costs |A|^2 multiplications.
    """
    charge_pairs(len(a) * len(a))
    g = a.group
    mul = g.multiply
    inv = [g.inverse(v) for v in a]
    masks: dict[Element, int] = {}
    get = masks.get
    for i, u in enumerate(a):
        bit = 1 << i
        for w in inv:
            # t = u v^-1 puts u = t v in A ∩ tA
            t = mul(u, w)
            masks[t] = get(t, 0) | bit
    return masks


@dataclass(frozen=True)
class RowProduct:
    """The product set AB with one bitmask row per element of A.

    ``elements`` holds AB in first-seen order; bit j of ``rows[i]`` is set
    when ``elements[j]`` lies in u B for u the i-th element of A.  For a
    subset of A given as a mask over A, its product with B is the union of
    its rows (``cover``), found without multiplying again.
    """

    group: Group
    elements: tuple[Element, ...]
    rows: tuple[int, ...]

    def support(self) -> GSet:
        return GSet._trusted(self.group, frozenset(self.elements))

    def cover(self, mask: int) -> int:
        """Mask over ``elements`` of the product of the subset ``mask`` with B."""
        out = 0
        for row in pick_bits(self.rows, mask):
            out |= row
        return out

    def pick(self, mask: int) -> GSet:
        return GSet._trusted(self.group, frozenset(pick_bits(self.elements, mask)))


def row_product(a: GSet, b: GSet) -> RowProduct:
    """The product set AB together with the row of each u * B; |A|*|B| multiplications."""
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    mul = a.group.multiply
    index: dict[Element, int] = {}
    setdefault = index.setdefault
    rows = []
    for u in a:
        row = 0
        for v in b:
            row |= 1 << setdefault(mul(u, v), len(index))
        rows.append(row)
    return RowProduct(group=a.group, elements=tuple(index), rows=tuple(rows))


@dataclass(frozen=True)
class ConvTable:
    """Sparse convolution table: element -> positive count.

    The support of the table is exactly the product set of its arguments,
    and the counts sum to |A| * |B|.
    """

    group: Group
    counts: dict[Element, int]

    def support(self) -> GSet:
        return GSet._trusted(self.group, frozenset(self.counts))

    def value(self, x: Element) -> int:
        return self.counts.get(x, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def energy(self) -> int:
        """Sum of squared counts: the number of quadruples (u,v,u',v') with
        u v = u' v'."""
        return sum(c * c for c in self.counts.values())


def pair_energy(a: GSet, b: GSet, c: GSet, d: GSet) -> int:
    """Count solutions of u*v = w*z with u in A, v in B, w in C, z in D.

    Computed as the inner product of the two convolution tables, which
    matches the quadruple count exactly.
    """
    a.same_group(b)
    a.same_group(c)
    a.same_group(d)
    left = conv_table(a, b)
    right = conv_table(c, d)
    small, big = (left.counts, right.counts) if len(left.counts) <= len(right.counts) else (right.counts, left.counts)
    return sum(n * big.get(x, 0) for x, n in small.items())


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

    FIELD_ORDER = ("size", "product_size", "inverse_product_size", "quad_size", "doubling")

    def as_dict(self) -> dict:
        return {
            "size": self.size,
            "product_size": self.product_size,
            "inverse_product_size": self.inverse_product_size,
            "quad_size": self.quad_size,
            "doubling": self.doubling,
        }


def doubling_stats(a: GSet) -> DoublingStats:
    """Exact sizes of A, A^2, A A^-1, A^2 A^-2 and the doubling |A^2|/|A|."""
    a.require_nonempty("doubling input")
    size = len(a)
    square = product(a, a)
    times_inverse = product(a, inverse_set(a))
    quad = product(square, inverse_set(square))
    return DoublingStats(
        size=size,
        product_size=len(square),
        inverse_product_size=len(times_inverse),
        quad_size=len(quad),
        doubling=Fraction(len(square), size),
    )
