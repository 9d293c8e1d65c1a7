"""Exact arithmetic on finite subsets of a group.

A ``GSet`` is an immutable, canonically ordered subset of a fixed group.
Every statistic that could be fractional (the doubling ratio) is a
``fractions.Fraction``; floats never enter any computation here.

Product-style operations cost |A|*|B| group multiplications.  A global pair
budget guards against accidentally quadratic-in-the-group blowups: when the
multiplications needed by one call would exceed the remaining budget the
call raises ``PairBudgetError`` before doing the work.  ``product`` stops
once its output is the whole group, but it is still charged the full
|A|*|B| up front.

Each operation has two kernels, both supplied by the group (see
``groups``).  The loop, ``group.loop``, turns each operand into its
internal forms once per call, multiplies forms pair by pair, and encodes
back only the forms a caller keeps: on most backends the form is the
encoding and a product is ``multiply``, and on S_n it is a one-line
permutation composed with ``itemgetter``.  Cyclic, dihedral and
Heisenberg groups also have ``group.masks``, which holds a set as an int
mask over the group index and translates it with a few big-int operations
(see ``masks``).  ``product``, ``row_product``, ``level_set``,
``doubling_stats`` and ``outside`` ask the group once per call and take
the masks when the cost rule (``_kernel``: ``_mask_cost``, the ``cost`` of
the group's ``mask_kernel`` at its order, against the pairs the loop would
multiply) says they pay, and the masks are built only then; either way
each call is charged the same |A|*|B| pairs, as a bound.  ``conv_table``
is the loop's one convolution: for each x in AB it lists the u in A with
x in uB, so with B = A^-1 its entry at t is A ∩ tA.  ``row_product`` gives
the row uB of each u in A as an int mask, so the shrink scan sizes the
product of any subset of A with B by OR-ing rows, ``level_set`` gives each
A ∩ tA of its level set on demand and lazily, from both ends of its
canonical order (highest member, lowest, next highest, ...), so a scan
that stops early never decodes the rest, and ``outside`` counts the
members x of a set outside TW⁻¹ by testing whether xW meets T, so TW⁻¹ is
never built.
On masks a level set at ``least`` counts either over a support cut by
pigeonhole, the union of A·x⁻¹ over any n - least + 1 members x of A,
which it gives up as soon as the lanes of one Kronecker product would cost
less, or over those lanes.  ``doubling_stats`` decides once, for both
kernels, how to build A^2 A^-2, asking the rule with the work each kernel
does for the whole of it, and counts its sets without encoding them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from .budget import charge_pairs
from .errors import EmptySetError, GroupMismatchError
from .groups import Element, Group, Loop
from .masks import Rotations

class GSet:
    """An immutable subset of a group, kept in sorted encoding order."""

    __slots__ = ("group", "_elems", "_members", "_mask")

    def __init__(self, group: Group, elems: Iterable[Element]):
        members = frozenset(elems)
        for x in members:
            group.validate(x)
        self.group = group
        self._members = members
        self._elems = tuple(sorted(members))
        self._mask = None

    @classmethod
    def _trusted(cls, group: Group, members: frozenset[Element]) -> "GSet":
        """A GSet of members already known to lie in ``group``, built without validation."""
        self = cls.__new__(cls)
        self.group = group
        self._members = members
        self._elems = tuple(sorted(members))
        self._mask = None
        return self

    @classmethod
    def _sorted(cls, group: Group, elems: Sequence[Element], mask: int | None = None) -> "GSet":
        """A GSet of distinct members of ``group`` already in canonical order, with their mask if known."""
        self = cls.__new__(cls)
        self.group = group
        self._elems = tuple(elems)
        self._members = frozenset(self._elems)
        self._mask = mask
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


def _mask_cost(group: Group, translations: int, width: int = 1) -> float:
    """Loop steps that one call with ``translations`` translates of a ``width``-bit-lane mask costs."""
    return group.mask_kernel.cost(group.order, translations, width)


def _kernel(group: Group, translations: int, pairs: int, width: int = 1) -> Rotations | None:
    """The group's masks when a call with ``translations`` translates costs less than ``pairs`` loop steps.

    The rule reads the group's order, so a group the masks do not pay on
    never builds them.
    """
    if group.mask_kernel is not None and _mask_cost(group, translations, width) < pairs:
        return group.masks
    return None


def _mask(kernel: Rotations, a: GSet) -> int:
    """The mask of A, encoded once per set."""
    if a._mask is None:
        a._mask = kernel.encode(a._elems)
    return a._mask


def _times(kernel: Rotations, m: int, ys: Iterable[Element]) -> int:
    """The mask of XY for the mask m of X: the OR of the right translates of m by each y in ys."""
    right = kernel.right
    out = 0
    for y in ys:
        out |= right(m, y)
    return out


def _mask_product(kernel: Rotations, a: GSet, b: GSet) -> int:
    """The mask of AB: an OR of |B| right translates of A's mask, or of |A| left translates of B's."""
    if len(b) <= len(a):
        return _times(kernel, _mask(kernel, a), b)
    left = kernel.lefts(_mask(kernel, b))
    out = 0
    for x in a:
        out |= left(x)
    return out


def product(a: GSet, b: GSet) -> GSet:
    """The product set AB = {x*y : x in A, y in B}, charged |A|*|B| pairs up front.

    If |A| + |B| > |G|, then AB = G without a multiplication: for each g,
    A and gB⁻¹ are too large to be disjoint, so g = xy with x in A, y in B.
    Otherwise, on the masks it is an OR of translates, and on the loop the
    kernel's ``product``, which stops early once AB = G.
    """
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    if len(a) + len(b) > g.order:
        return GSet._sorted(g, g.elements())
    kernel = _kernel(g, min(len(a), len(b)), len(a) * len(b))
    if kernel is not None:
        m = _mask_product(kernel, a, b)
        return GSet._sorted(g, kernel.decode(m), m)
    loop = g.loop
    xs = loop.product(loop.forms(a._elems), _factors(loop, b))
    return GSet._trusted(g, frozenset(loop.encode(xs)))


def inverse_set(a: GSet) -> GSet:
    """The set A^-1 = {x^-1 : x in A}."""
    g = a.group
    return GSet._trusted(g, frozenset(g.inverse(x) for x in a))


def _factors(loop: Loop, b: GSet) -> Sequence:
    """The loop's factors of B, for B as a right operand."""
    return loop.factors(loop.forms(b._elems))


def conv_table(a: GSet, b: GSet | None = None, least: int = 1) -> dict[Element, list[Element]]:
    """The convolution of 1_A with 1_B, with the terms of each count of at least ``least``.

    Maps every x in AB with 1_A * 1_B(x) >= least to the list of u in A,
    in canonical order, with x in uB; the list's length is 1_A * 1_B(x).
    B is A^-1 when ``b`` is None, and then the entry at t is A ∩ tA.
    Costs |A|*|B| multiplications.  The loop decodes each operand once,
    inverting A's forms for A^-1, and encodes only the x kept.
    """
    if b is not None:
        a.same_group(b)
    charge_pairs(len(a) * len(a if b is None else b))
    loop = a.group.loop
    xs = loop.forms(a._elems)
    ys = loop.factors(list(map(loop.inverse, xs))) if b is None else _factors(loop, b)
    table: defaultdict = defaultdict(list)
    for u, x in zip(a._elems, xs):
        for p in loop.left(x, ys):
            table[p].append(u)
    kept = {p: terms for p, terms in table.items() if len(terms) >= least}
    return dict(zip(loop.encode(kept), kept.values()))


def _lane_width(size: int) -> int:
    """The least multiple of 8 bits whose lanes hold counts up to ``size`` below their top bit."""
    return 8 * ((size.bit_length() + 8) // 8)


def _mask_level(kernel: Rotations, a: GSet, least: int, inside: Callable[[Element], int]) -> tuple[list[Element], int | None]:
    """The t with |A ∩ tA| >= least (1 <= least <= |A|), ascending, and their mask if it was built.

    ``inside(t)`` is the mask of A ∩ tA.  The counts are either its bit
    counts over the t of a support, or the lanes of one Kronecker product,
    the sum of the right translates of A's lane mask by A^-1, whichever
    costs less.  The support is cut by pigeonhole: a t with
    |A ∩ tA| >= least has tx in A for at least one of any n - least + 1
    members x of A, so it lies in A·x⁻¹ for one of them, and the support
    is the union of those n - least + 1 right translates, A·A⁻¹ itself
    only at least = 1.  It is built one translate at a time and given up
    for the lanes as soon as its bit counts would cost more than they do;
    when even a support of n elements, its least size, would, no translate
    is made.
    """
    g, n = a.group, len(a)
    m = _mask(kernel, a)
    inv = inverse_set(a)
    width = _lane_width(n)
    kronecker = _mask_cost(g, n, width)
    r = n - least + 1
    # the bit counts over a support of n t, its least size; the rule is affine in the translates,
    # so from ``most`` t on they cost no less than the lanes
    fewest = _mask_cost(g, r + n)
    if fewest < kronecker:
        per_t = _mask_cost(g, r + n + 1) - fewest
        most = n + (kronecker - fewest) / per_t if per_t else math.inf
        right, support = kernel.right, 0
        for x in islice(inv, r):
            support |= right(m, x)
            if support.bit_count() >= most:
                break
        else:
            return [t for t in kernel.decode(support) if inside(t).bit_count() >= least], None
    wide = kernel.widen(width)
    lanes, right = wide.spread(m), wide.right
    counts = 0
    for v in inv:
        counts += right(lanes, v)
    level = wide.at_least(counts, least)
    return kernel.decode(level), level


def level_set(a: GSet, need) -> tuple[GSet, Callable[[Element], Iterator[Element]]]:
    """The level set {t : |A ∩ tA| >= need} and a lazy lookup of A ∩ tA for its t.

    The lookup yields A ∩ tA from both ends of the canonical order: its
    highest member, then its lowest, then the next highest, and so on.
    Costs |A|^2 pairs of the budget.  The loop reads both off
    ``conv_table(a, least=least)``, which encodes only the level set, and
    indexes each list in that order; on the masks, A ∩ tA is m & tm, taken
    for the t that are looked up and decoded one bit at a time, so a caller
    that stops early never decodes the rest.
    """
    # an int bound, so no Fraction comparison per entry; every t of AA^-1 has a count of 1 or more
    least = max(math.ceil(need), 1)
    g, n = a.group, len(a)
    kernel = _kernel(g, n, n * n, _lane_width(n))
    if kernel is not None:
        charge_pairs(n * n)
        m = _mask(kernel, a)
        left, walk = kernel.lefts(m), kernel.from_both_ends

        def inside(t: Element) -> int:
            return m & left(t)

        level, level_mask = _mask_level(kernel, a, least, inside) if least <= n else ([], None)
        return GSet._sorted(g, level, level_mask), lambda t: walk(inside(t))
    table = conv_table(a, least=least)

    def overlap(t: Element) -> Iterator[Element]:
        # the pairs (last, first), (next to last, second), ... flattened, cut at the list's length
        terms = table[t]
        return islice(chain.from_iterable(zip(reversed(terms), terms)), len(terms))

    return GSet._trusted(g, frozenset(table)), overlap


def row_product(a: GSet, b: GSet) -> tuple[GSet, Callable[[Element], int]]:
    """The product set AB and a lookup of the row uB of each u in A as an int mask.

    The product of a subset of A with B is the OR of its members' rows, and
    its size the OR's bit count.  Costs |A|*|B| pairs of the budget.  The
    loop builds every row over an index of AB in first-seen order; on the
    masks a row is the left translate of B's mask by u, over the group
    index, and AB is the OR of the rows.
    """
    a.same_group(b)
    charge_pairs(len(a) * len(b))
    g = a.group
    kernel = _kernel(g, len(a), len(a) * len(b))
    if kernel is not None:
        left = kernel.lefts(_mask(kernel, b))
        rows = {u: left(u) for u in a}
        m = 0
        for row in rows.values():
            m |= row
        return GSet._sorted(g, kernel.decode(m), m), rows.__getitem__
    loop = g.loop
    ys = _factors(loop, b)
    index: dict = {}
    setdefault = index.setdefault
    rows = {}
    for u, x in zip(a._elems, loop.forms(a._elems)):
        row = 0
        for p in loop.left(x, ys):
            row |= 1 << setdefault(p, len(index))
        rows[u] = row
    return GSet._trusted(g, frozenset(loop.encode(index))), rows.__getitem__


def outside(xs: GSet, t: GSet, w: GSet) -> int:
    """The number of x in X outside TW⁻¹, by membership: x ∈ TW⁻¹ iff xW meets T.

    Each member tested is charged |W| pairs, so TW⁻¹ itself is never
    built.  On the masks xW is the left translate of W's mask by x, ANDed
    with T's mask; on the loop, a member's test stops at its first w with
    xw in T, and nothing is encoded.
    """
    xs.same_group(t)
    t.same_group(w)
    g = t.group
    kernel = _kernel(g, len(xs), len(xs) * len(w))
    if kernel is not None:
        left, target = kernel.lefts(_mask(kernel, w)), _mask(kernel, t)
        tested = xs._elems

        def meets(x: Element) -> int:
            return left(x) & target

    else:
        loop = g.loop
        ws, members = _factors(loop, w), frozenset(loop.forms(t._elems))
        tested = loop.forms(xs._elems)

        def meets(x) -> bool:
            return not members.isdisjoint(loop.left(x, ws))

    count = 0
    for x in tested:
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
    A^2 (A^2)^-1 when it does not.  Each kernel supplies a start, A and
    A^-1 as right operands, a ``times`` charged |X||Y| pairs and a
    ``count``: on the loop A's forms, its factors and those of the inverted
    forms, the loop's ``product`` and ``len``; on the masks A's mask, A and
    ``inverse_set(a)``, an OR of right translates and the bit count.  So
    only A is put in the kernel's form, and no set is turned back.
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
    if kernel is not None:

        def times(m: int, ys: GSet) -> int:
            charge_pairs(m.bit_count() * len(ys))
            return _times(kernel, m, ys)

        start, right, inv, count = _mask(kernel, a), a, inverse_set(a), int.bit_count
    else:
        loop = g.loop

        def times(xs, ys: Sequence) -> set:
            charge_pairs(len(xs) * len(ys))
            return loop.product(xs, ys)

        start, count = loop.forms(a._elems), len
        right, inv = loop.factors(start), loop.factors(list(map(loop.inverse, start)))
    square = times(start, right)
    n2, n_inv = count(square), count(times(start, inv))
    if whole in (n2, n_inv):
        quad_size = whole
    elif _chain_pairs(n2, size, whole) < n2 * n2:
        quad_size = count(times(times(square, inv), inv))
    elif kernel is None:
        quad_size = len(times(square, loop.factors(list(map(loop.inverse, square)))))
    else:
        # on masks a translate costs the same whatever |A^2|, so the square is built as the chain, charged as the square
        charge_pairs(n2 * n2)
        quad_size = _times(kernel, _times(kernel, square, inv), inv).bit_count()
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
