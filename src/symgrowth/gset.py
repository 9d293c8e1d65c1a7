"""Exact arithmetic on finite subsets of a group.

A ``GSet`` is an immutable, canonically ordered subset of a fixed group,
held as its members' forms (see ``groups``), which every operation here
and in the kernels reads and builds; a member is encoded only when
``elements`` is first read.  Every statistic that could be fractional
(the doubling ratio) is a ``fractions.Fraction``; floats never enter any
computation here.

Product-style operations cost |A|*|B| group multiplications.  A pair
budget guards against accidentally quadratic-in-the-group blowups.  It caps
each charge on its own, not a running total: a call whose charge exceeds
the cap (``budget.pair_budget``) raises ``PairBudgetError`` before doing
the work, however much earlier calls charged.  On the loop, ``product``
stops once its output is the whole group, and a product that misses
fewer elements than A holds finishes on its complement, each missing g
tested by g·b⁻¹ in A; it is still charged the full |A|*|B| up front.

Each operation is written once, over the kernel ``_kernel`` picks: the
group's ``masks`` (see ``masks``: a set as an int mask over the group
index, on cyclic, dihedral and Heisenberg groups) when the ``cost`` of
its ``mask_kernel`` beats both the pairs the loop would multiply and the
pair budget, built only then, and its ``loop`` (``groups.Loop``)
otherwise.  Both present one protocol: a set's ``form``, right and left
translates by forms, ``|`` and ``&`` on ``form``, ``count``, and
``decode`` in canonical order; and each owns its strategy for each
operation, so a ``gset`` function keeps only its checks, its charges and
the kernel call.  Either way a call is charged the same pairs, as a
bound.  ``row_product`` gives the row uB of each u in A as an int mask,
so the shrink scan sizes the product of any subset of A with B by OR-ing
rows; ``level_set`` gives each A ∩ tA on demand, from both ends of its
canonical order, so a scan that stops early never reads the rest (both
look up by forms; the loop files every overlap in one pass over A and
A's inverted forms); ``outside`` tests whether xW meets T, so TW⁻¹ is
never built; and ``doubling_stats`` counts its sets without decoding
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .budget import charge_pairs, pair_budget
from .errors import EmptySetError, GroupMismatchError, InvalidElementError
from .groups import Element, Group, Loop
from .masks import Rotations, lane_width


class GSet:
    """An immutable subset of a group, held as its members' forms in canonical order.

    ``elements``, iteration and ``repr`` give the encodings, decoded from
    the forms on first use and kept; ``x in s`` is False for any ``x``
    that is not an encoding.
    """

    __slots__ = ("group", "forms", "_members", "_elems", "_mask")

    def __init__(self, group: Group, elems: Iterable[Element]):
        members = frozenset(elems)
        for x in members:
            group.validate(x)
        self.group, self._elems, self._mask = group, None, None
        self.forms = tuple(sorted(map(group.to_form, members)))
        self._members = frozenset(self.forms)

    @classmethod
    def _trusted(cls, group: Group, forms: Iterable, mask: int | None = None) -> "GSet":
        """A GSet of the distinct forms of members of ``group`` in canonical order, with their mask if known, built without validation."""
        self = cls.__new__(cls)
        self.group, self._elems, self._mask = group, None, mask
        self.forms = tuple(forms)
        self._members = frozenset(self.forms)
        return self

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.forms)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        try:
            self.group.validate(x)
        except InvalidElementError:  # not an encoding, so no member's
            return False
        return self.group.to_form(x) in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GSet):
            return NotImplemented
        return self.group == other.group and self._members == other._members

    def __hash__(self) -> int:
        return hash((self.group, self._members))

    def __repr__(self) -> str:
        shown = ", ".join(map(str, self.elements[:4]))
        more = "" if len(self) <= 4 else f", ... ({len(self)} total)"
        return f"GSet({self.group.kind}, [{shown}{more}])"

    @property
    def elements(self) -> tuple[Element, ...]:
        """All members' encodings in canonical sorted order."""
        if self._elems is None:
            self._elems = tuple(map(self.group.from_form, self.forms))
        return self._elems

    def require_nonempty(self, what: str = "set") -> None:
        if not self.forms:
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
        return self.group.identity_form in self._members

    def is_symmetric(self) -> bool:
        """True when the set equals its elementwise inverse."""
        inverse, members = self.group.form_inverse, self._members
        return all(inverse(x) in members for x in self.forms)


def _kernel(group: Group, translations: int, pairs: int, width: int = 1) -> Rotations | Loop:
    """The group's masks when a call with ``translations`` translates costs less than ``pairs`` loop steps and the pair budget, else its loop.

    The rule, the ``cost`` of the group's ``mask_kernel``, reads only the
    group's radices, so a group the masks do not pay on never builds them,
    and no call builds masks that cost more steps than one charge may.
    """
    kernel = group.mask_kernel
    if kernel is not None and kernel.cost(group.radices, translations, width) < min(pairs, pair_budget()):
        return group.masks
    return group.loop


def product(a: GSet, b: GSet) -> GSet:
    """The product set AB = {x*y : x in A, y in B}, charged |A|*|B| pairs up front.

    If |A| + |B| > |G|, then AB = G without a multiplication: for each g,
    A and gB⁻¹ are too large to be disjoint, so g = xy with x in A, y in B.
    Otherwise it is the kernel's ``product``: on the masks an OR of
    translates, on the loop A·b for each b of B, until the translates miss
    fewer elements than A holds; the loop then finishes on the complement:
    each missing g is dropped once g·b⁻¹ is in A for a remaining b.
    """
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    if len(a) + len(b) > g.order:
        return GSet._trusted(g, g.all_forms())
    return GSet._trusted(g, *_kernel(g, min(len(a), len(b)), len(a) * len(b)).product(a, b))


def inverse_set(a: GSet) -> GSet:
    """The set A^-1 = {x^-1 : x in A}."""
    g = a.group
    return GSet._trusted(g, sorted(map(g.form_inverse, a.forms)))


def level_set(a: GSet, need) -> tuple[GSet, Callable[..., Iterator]]:
    """The level set {t : |A ∩ tA| >= need} and a lazy lookup of A ∩ tA for its t, both on forms.

    The lookup takes the form of t and yields the forms of A ∩ tA from both
    ends of the canonical order: its highest member, then its lowest, then
    the next highest, and so on.
    Costs |A|^2 pairs of the budget; the masks are priced at the lanes of
    one Kronecker sum.
    """
    # an int bound, so no Fraction comparison per entry; every t of AA^-1 has a count of 1 or more
    least = max(math.ceil(need), 1)
    g, n = a.group, len(a)
    charge_pairs(n * n)
    level, mask, overlap = _kernel(g, n, n * n, lane_width(n)).level_set(a, least)
    return GSet._trusted(g, level, mask), overlap


def row_product(a: GSet, b: GSet) -> tuple[GSet, Callable[..., int]]:
    """The product set AB and a lookup, by the form of u, of the row uB of each u in A as an int mask.

    The product of a subset of A with B is the OR of its members' rows, and
    its size the OR's bit count.  Costs |A|*|B| pairs of the budget.
    """
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    members, mask, row = _kernel(g, len(a), len(a) * len(b)).rows(a, b)
    return GSet._trusted(g, members, mask), row


def outside(xs: GSet, t: GSet, w: GSet) -> int:
    """The number of x in X outside TW⁻¹, by membership: x ∈ TW⁻¹ iff xW meets T.

    Each member tested is charged |W| pairs, no more than a build of TW⁻¹
    would charge at once, so TW⁻¹ itself is never built.
    """
    xs.same_group(t)
    t.same_group(w)
    kernel = _kernel(t.group, len(xs), len(xs) * len(w))
    meets = kernel.meets(t, w)
    count = 0
    for x in xs.forms:
        charge_pairs(len(w))
        if not meets(x):
            count += 1
    return count


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

    When 2|A| > |G|, A^2, A A^-1 and A^2 A^-2 are all the whole group, and
    the call multiplies nothing but is charged the 2|A|^2 pairs of A^2 and
    A A^-1.  A^2 A^-2 is the whole group when A^2 or A A^-1 is.  Otherwise
    it is built as ((A^2)A^-1)A^-1 when that costs fewer multiplications than
    squaring A^2, bounding |A^2 A^-1| by min(|G|, |A^2||A|), and as
    A^2 (A^2)^-1 when it does not, charged |A^2|^2 pairs; the masks build
    that as the chain too, since their translate costs the same whatever
    |A^2|.  Only A is put in the kernel's ``form``, each ``times`` is
    charged |X||Y| pairs, and no set is decoded.  On the loop, a
    ``times`` whose translates of X miss fewer elements than X holds, as
    the last one of a large-doubling chain does, finishes on the
    complement: each missing g is tested by g·y⁻¹ in X, fewer
    multiplications than one more translate.
    """
    a.require_nonempty("doubling input")
    size = len(a)
    g = a.group
    whole = g.order
    if 2 * size > whole:
        # A and gA^-1 (or gA) are too large to be disjoint, so every g lies in A^2 and in AA^-1
        charge_pairs(size * size)
        charge_pairs(size * size)
        return DoublingStats(size, whole, whole, whole, Fraction(whole, size))
    # the masks make about 4|A| translates, the loop 2|A|^2 pairs for A^2 and AA^-1 and then
    # those of A^2 A^-2, with |A^2| taken at its bound min(|G|, |A|^2)
    bound = min(whole, size * size)
    kernel = _kernel(g, 4 * size, 2 * size * size + min(_chain_pairs(bound, size, whole), bound * bound))
    count = kernel.count

    def times(xs, ys: Sequence):
        charge_pairs(count(xs) * len(ys))
        return kernel.times(xs, ys)

    start, inv = kernel.form(a), list(map(g.form_inverse, a.forms))
    square = times(start, a.forms)
    n2, n_inv = count(square), count(times(start, inv))
    if whole in (n2, n_inv):
        quad_size = whole
    elif _chain_pairs(n2, size, whole) < n2 * n2:
        quad_size = count(times(times(square, inv), inv))
    else:
        charge_pairs(n2 * n2)
        quad_size = count(kernel.quad(square, inv))
    return DoublingStats(
        size=size,
        product_size=n2,
        inverse_product_size=n_inv,
        quad_size=quad_size,
        doubling=Fraction(n2, size),
    )


def _chain_pairs(n2: int, size: int, whole: int) -> int:
    """The multiplications of ((A^2)A^-1)A^-1 for |A^2| = n2, bounding |A^2 A^-1| by min(|G|, |A^2||A|)."""
    return n2 * size + min(whole, n2 * size) * size
