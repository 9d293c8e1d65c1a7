"""Subsets of cyclic, dihedral and Heisenberg groups as int masks over the group index.

Bit ``i`` of a mask stands for form ``i`` on cyclic and dihedral groups,
whose form is the index, so a set's forms are its bits; on Heisenberg
groups, whose form is the encoding, it stands for ``element_at(i)``, and
only ``HeisenbergMasks`` maps forms to bits and back.  In Z_n a
translate of a set is a rotation of its n-bit mask.  In D_n, whose index
of ``(a, f)`` is ``2a + f``, a right translate rotates the rotation lanes
one way and the reflection lanes the other, and a left translate by a
reflection is a rotation of the reversed mask.  In the Heisenberg group
mod p, whose index of ``(a, b, c)`` is ``(a·p + b)·p + c``, a translate
turns each digit within its lanes after a shear of c, one conditional turn
per bit of p.  So each translate is a few big-int operations, done in C,
instead of one ``multiply`` per member.  ``CyclicMasks``,
``DihedralMasks`` and ``HeisenbergMasks`` are the three kernels, named by
the ``mask_kernel`` of those groups, each built from the group's
``radices``; the other backends have none.  The cost rule,
``Rotations.cost``, in loop steps, reads the group's radices (the order,
and on Heisenberg groups p) and is read by ``gset._kernel``, which takes
the masks only when they pay and only then builds them, since they hold
ints of as many bits as the group has elements, and by ``level_set``.

Each kernel presents the set-level protocol of ``groups.Loop`` on the
forms a ``GSet`` holds: ``form`` (a set's mask, cached on the ``GSet``),
``right`` and ``lefts`` by forms, ``|`` and ``&`` on masks, ``count``,
and ``decode`` to forms in index order, which is canonical order.  It
owns the mask strategy of each ``gset`` operation; a level set counts
over a pigeonhole support or in the lanes of one Kronecker sum.
``widen(w)`` gives the same kernel on masks of ``w``-bit lanes, lane
``i`` standing for what bit ``i`` does.  A sum of translates of such a
mask holds convolution counts, one per lane, as long as no lane reaches
``2**(w - 1)``: this is Kronecker substitution (Harvey,
arXiv:0712.4046), with the product of the two lane polynomials taken as
a sum of shifted copies of one of them.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from itertools import compress, islice, repeat
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .gset import GSet

Element = tuple[int, ...]

#: the digits of ``bin(m)`` as bytes 0 and 1, and back
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")
#: 1 for a byte whose top bit is set, else 0
_TOP_BIT = bytes(b >> 7 for b in range(256))
#: the positions of the set bits of each byte, ascending
_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


#: The cost rule, in loop steps: one step is one ``multiply`` with its set or
#: dict insert, about 0.35 µs.  A call on cyclic or dihedral masks costs
#: ``_CALL`` steps, each translate ``_TRANSLATE`` steps plus one per
#: ``_WORDS_PER_STEP`` 64-bit words it rotates, and the decode of the result
#: ``_DECODE`` steps per word.  Measured on cyclic and dihedral sets from 3 to
#: 1,500 elements in groups of order 6 to 10^7 (numbers in CHANGES.md).
_CALL = 12
_TRANSLATE = 1
_WORDS_PER_STEP = 45
_DECODE = 2


def lane_width(size: int) -> int:
    """The least multiple of 8 bits whose lanes hold counts up to ``size`` below their top bit."""
    return 8 * ((size.bit_length() + 8) // 8)


class Rotations:
    """Translations of masks over the index of a group of these ``radices``, with ``order`` their product."""

    #: rotations of the whole mask per translate, for the cost rule
    rotations: int

    def __init__(self, radices: tuple[int, ...], width: int = 1):
        self.radices = radices
        self.order = math.prod(radices)
        self.width = width
        self.bits = self.order * width
        self.full = (1 << self.bits) - 1

    @classmethod
    def cost(cls, radices: tuple[int, ...], translations: int, width: int = 1) -> float:
        """Loop steps that one call with ``translations`` translates of a ``width``-bit-lane mask costs, in a group of these ``radices``.

        Infinite past the float range, where one translate alone outprices any call's pairs.
        """
        order = math.prod(radices)
        if order > sys.float_info.max:
            return math.inf
        return _CALL + translations * cls._translate_steps(radices, width) + order / 64 * _DECODE + cls._build_steps(radices, width)

    @classmethod
    def _translate_steps(cls, radices: tuple[int, ...], width: int) -> float:
        return _TRANSLATE + math.prod(radices) / 64 * width * cls.rotations / _WORDS_PER_STEP

    @classmethod
    def _build_steps(cls, radices: tuple[int, ...], width: int) -> float:
        return 0

    def widen(self, width: int) -> "Rotations":
        """This kernel on masks of ``width``-bit lanes (``width`` a multiple of 8), built afresh.

        A cyclic or dihedral build costs about one translate of such a mask,
        a Heisenberg one its lane masks, and its caller sums |A| translates.
        """
        return type(self)(self.radices, width)

    def _rotate(self, m: int, lanes: int) -> int:
        shift = lanes % self.order * self.width
        if not shift:
            return m
        return (m << shift | m >> self.bits - shift) & self.full

    def _from_flags(self, flags) -> int:
        return int(flags.translate(_DIGITS)[::-1], 2)

    def encode(self, forms: Iterable[int]) -> int:
        """The mask of a set's forms: on cyclic and dihedral groups a form is its bit index."""
        flags = bytearray(self.order)
        for i in forms:
            flags[i] = 1
        return self._from_flags(flags)

    def decode(self, m: int) -> list:
        """The forms of the members of the 1-bit mask ``m`` in ascending index order, which is canonical order.

        ``compress`` skips the zero bytes in C, so the Python steps are one
        per set bit.
        """
        data = m.to_bytes((m.bit_length() + 7) // 8, "little")
        return [8 * j + i for j in compress(range(len(data)), data) for i in _BITS[data[j]]]

    def from_both_ends(self, m: int) -> Iterator[int]:
        """The bit indices of the members of the 1-bit mask ``m``, highest first, then lowest, then next highest, and so on.

        On cyclic and dihedral groups those are the members' forms.  Each is
        taken off the mask, the top one by ``bit_length`` and the bottom one
        by ``m & -m``, so a caller that stops early never decodes the rest.
        """
        while m:
            top = m.bit_length() - 1
            yield top
            m ^= 1 << top
            if m:
                low = m & -m
                yield low.bit_length() - 1
                m ^= low

    def spread(self, m: int) -> int:
        """The 1-bit mask ``m`` with each bit moved to the low bit of its lane."""
        step = self.width >> 3
        lanes = bytearray(self.bits >> 3)
        lanes[::step] = bin(m)[:1:-1].encode().translate(_FLAGS).ljust(self.order, b"\0")
        return int.from_bytes(lanes, "little")

    def at_least(self, counts: int, need: int) -> int:
        """The 1-bit mask of the lanes of ``counts`` holding at least ``need`` (1 <= need <= 2**(width-1)).

        Every lane must hold less than 2**(width-1).  Adding
        2**(width-1) - need to each lane sets the lane's top bit exactly
        when it held at least ``need``, and carries into no other lane.
        """
        step = self.width >> 3
        ones = int.from_bytes(b"\1".ljust(step, b"\0") * self.order, "little")
        raised = counts + ones * ((1 << self.width - 1) - need)
        return self._from_flags(raised.to_bytes(self.bits >> 3, "little")[step - 1 :: step].translate(_TOP_BIT))

    # -- the set-level protocol, shared with ``groups.Loop`` -------------------

    def form(self, a: GSet) -> int:
        """A's mask, built once per set and cached on it."""
        if a._mask is None:
            a._mask = self.encode(a.forms)
        return a._mask

    count = staticmethod(int.bit_count)

    def times(self, m: int, ys: Iterable) -> int:
        """The mask of XY for the mask m of X: the OR of the right translates of m by each form y in ys."""
        return functools.reduce(operator.or_, map(self.right, repeat(m), ys), 0)

    def quad(self, square: int, inv: Sequence) -> int:
        """The mask of A²A⁻² from those of A² and A⁻¹: the chain (A²A⁻¹)A⁻¹, since a translate costs the same whatever |A²|."""
        return self.times(self.times(square, inv), inv)

    def product(self, a: GSet, b: GSet) -> tuple[list, int]:
        """AB's forms and its mask: an OR of |B| right translates of A's mask, or of |A| left translates of B's, whichever are fewer."""
        if len(b) <= len(a):
            m = self.times(self.form(a), b.forms)
        else:
            m = functools.reduce(operator.or_, map(self.lefts(self.form(b)), a.forms), 0)
        return self.decode(m), m

    def rows(self, a: GSet, b: GSet) -> tuple[list, int, Callable[..., int]]:
        """AB's forms, its mask, and the row uB of each form u of A: the left translate of B's mask by u."""
        left = self.lefts(self.form(b))
        rows = {u: left(u) for u in a.forms}
        m = functools.reduce(operator.or_, rows.values(), 0)
        return self.decode(m), m, rows.__getitem__

    def meets(self, t: GSet, w: GSet) -> Callable[..., int]:
        """x -> whether xW meets T, for a form x, as the mask of xW ∩ T: W's mask translated by x, ANDed with T's."""
        left, target = self.lefts(self.form(w)), self.form(t)
        return lambda x: left(x) & target

    def level_set(self, a: GSet, least: int) -> tuple[list, int | None, Callable[..., Iterator]]:
        """The forms t with |A ∩ tA| >= least (least >= 1), ascending, their mask if it was built, and a lookup of A ∩ tA.

        A ∩ tA is m & tm for A's mask m, decoded from both ends one bit at a
        time when it is looked up, so a caller that stops early never decodes
        the rest.  The counts are either its bit counts over the t of a
        support, or the lanes of one Kronecker product, the sum of the right
        translates of A's lane mask by A^-1, whichever ``cost`` finds
        cheaper.  The support is cut by pigeonhole: a t with |A ∩ tA| >=
        least has tx in A for at least one of any n - least + 1 members x of
        A, so it lies in A·x⁻¹ for one of them, and the support is the union
        of those n - least + 1 right translates, over the first members of
        A^-1, A·A⁻¹ itself only at least = 1.  Bit-counting costs a 1-bit
        translate per t, so a support of s elements costs less than the lanes
        while s < ``most``: the lanes' ``cost`` less that of the n - least + 1
        translates that build it, over one translate's steps.  It is built a
        translate at a time, given up once it holds ``most`` elements, and
        not begun when even n, its least size, is not fewer.  Each t of a
        complete support is bit-counted.
        """
        m, n, radices = self.form(a), len(a), self.radices
        left, walk = self.lefts(m), self.from_both_ends

        def inside(t) -> int:
            return m & left(t)

        def overlap(t) -> Iterator:
            return walk(inside(t))

        if least > n:
            return [], None, overlap
        inv = sorted(map(a.group.form_inverse, a.forms))
        width = lane_width(n)
        r = n - least + 1
        most = (self.cost(radices, n, width) - self.cost(radices, r)) / self._translate_steps(radices, 1)
        if n < most:
            right, support = self.right, 0
            for x in islice(inv, r):
                support |= right(m, x)
                if support.bit_count() >= most:
                    break
            else:
                return [t for t in self.decode(support) if inside(t).bit_count() >= least], None, overlap
        wide = self.widen(width)
        lanes, right = wide.spread(m), wide.right
        counts = 0
        for v in inv:
            counts += right(lanes, v)
        level = wide.at_least(counts, least)
        return self.decode(level), level, overlap


class CyclicMasks(Rotations):
    """Z_n: the translate of a set by the form c on either side is a rotation by c."""

    rotations = 1

    def right(self, m: int, y: int) -> int:
        """The mask of X·y for the mask ``m`` of X."""
        return self._rotate(m, y)

    def lefts(self, m: int) -> Callable[[int], int]:
        """x -> the mask of x·X, for the mask ``m`` of X."""
        rotate = self._rotate
        return lambda x: rotate(m, x)


class DihedralMasks(Rotations):
    """D_n with index and form 2a + f for ``(a, f)``; lanes of even index are the rotations."""

    rotations = 2

    def __init__(self, radices: tuple[int, ...], width: int = 1):
        super().__init__(radices, width)
        # every bit of every rotation lane
        self._rotation_lanes = self.full // ((1 << 2 * width) - 1) * ((1 << width) - 1)

    def right(self, m: int, y: int) -> int:
        """The mask of X·y for the form y = 2b + f: (a, 0)(b, f) = (a + b, f) and (a, 1)(b, f) = (a - b, 1 - f)."""
        f = y & 1
        rot = m & self._rotation_lanes
        rot, ref = self._rotate(rot, y - f), self._rotate(m ^ rot, f - y)
        if f:
            return rot << self.width | ref >> self.width
        return rot | ref

    def lefts(self, m: int) -> Callable[[int], int]:
        """x -> the mask of x·X, for the mask ``m`` of X and the form x = 2c + g.

        (c, 0)(a, f) = (c + a, f) rotates m by 2c lanes.  (c, 1)(a, f) =
        (c - a, 1 - f): reversing the 2n-bit mask sends index 2a + f to
        2(n - 1 - a) + 1 - f, and a rotation by c + 1 steps, 2c + 2 lanes,
        finishes the job.  The reversed mask is built once, here.
        """
        rotate = self._rotate
        reversed_m = int(bin(m)[2:].zfill(self.bits)[::-1], 2)

        def left(x: int) -> int:
            return rotate(reversed_m, x + 1) if x & 1 else rotate(m, x)

        return left


#: The cost rule on Heisenberg masks, in the same loop steps.  A translate
#: costs ``_H_TRANSLATE`` steps per bit of p, and one more step per
#: ``_WORDS_PER_STEP`` words of each of its ``_H_ROTATIONS`` whole turns and
#: its ``_H_SHEAR_ROTATIONS`` more per bit of p.  A call also pays for the
#: kernel's lane masks, ``_H_BUILD`` steps and, per value of p,
#: ``_H_BUILD_VALUE`` steps and one per ``_H_BUILD_WORDS`` words of a mask
#: (the group builds its kernel once, but each Kronecker sum builds one of
#: wider lanes afresh), and on wider lanes ``_H_WIDEN`` more per value of p
#: for the 1-bit kernel the sum starts from and its lane set-up.  Measured on
#: sets of 3 to 64 elements for p from 2 to 16, with the group, and so its
#: kernel, built anew for each call, and on single translates up to p = 45
#: (numbers in CHANGES.md).  The build takes about 20 steps, but ``_H_BUILD``
#: is 36: in groups of 8 to 64 elements a product soon fills much of the
#: group, so the loop makes fewer multiplications than the pairs it is
#: priced at.  The extra 16 steps send ``doubling_stats`` on 3 elements mod
#: 3 and 4 mod 2, and ``outside`` on 12 members and ``level_set`` on 16
#: elements mod 4, to the loop, where each ran faster.
_H_TRANSLATE = 1
_H_ROTATIONS = 2
_H_SHEAR_ROTATIONS = 0.5
_H_BUILD = 36
_H_BUILD_VALUE = 10
_H_BUILD_WORDS = 8
_H_WIDEN = 30


class HeisenbergMasks(Rotations):
    """The Heisenberg group mod p with index (a·p + b)·p + c for ``(a, b, c)``.

    (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a·b'), so a translate
    rotates each digit within its lanes, after a shear of the c digit: by
    a·b' in a right translate, and by a0·b in a left translate by
    (a0, b0, c0).  The shear is one conditional turn of c per bit k of p:
    the lanes whose shearing digit (a, or b) has bit k set turn their c by
    2^k·b' (or 2^k·a0).  Then c and b turn as whole digits, and a turn of a
    is a rotation of the whole mask.  A turn of a digit by s is
    ``(m & keep) << s·span | (m & ~keep) >> (p - s)·span``, with ``keep``
    the lanes whose digit is below p - s and ``span`` the bits of one value
    of the digit.  Each lane mask is a repunit, one bit at the foot of each
    run of the digit's p values, times one pattern over those values.  The
    kernel holds 2(p - 1) keeps and 2·bit_length(p) selections, each as
    wide as a set's mask.
    """

    def __init__(self, radices: tuple[int, ...], width: int = 1):
        super().__init__(radices, width)
        self.p = p = radices[0]
        bits = p.bit_length()
        # one value of c, b and a spans one lane, p lanes and p^2 lanes
        spans = (width, p * width, p * p * width)
        repunits = (self.full // ((1 << spans[1]) - 1), self.full // ((1 << spans[2]) - 1), 1)
        #: for c and for b, s -> (keep, up, down) of a turn by s, None for s = 0
        self._turns = [
            [None] + [((r << (p - s) * span) - r, s * span, (p - s) * span) for s in range(1, p)]
            for r, span in zip(repunits, spans[:2])
        ]

        def selections(place: int) -> list[int]:
            # for each bit k of p, the lanes whose digit at ``place`` has bit k set
            run = (1 << spans[place]) - 1
            return [repunits[place] * sum(run << d * spans[place] for d in range(p) if d >> k & 1) for k in range(bits)]

        def shears(lanes: list[int]) -> list[list[tuple[int, int, int, int]]]:
            # by -> the (lanes, keep, up, down) of each turn of c by 2^k·by mod p that is not 0
            turns = self._turns[0]
            steps = [[(by << k) % p for k in range(bits)] for by in range(p)]
            return [[(lanes[k], *turns[s]) for k, s in enumerate(row) if s] for row in steps]

        #: the shears of a right translate by (a', b', c'), by a·b', and of a left one by (a0, b0, c0), by a0·b
        self._right_shears = shears(selections(2))
        self._left_shears = shears(selections(1))

    @classmethod
    def _translate_steps(cls, radices: tuple[int, ...], width: int) -> float:
        bits = radices[0].bit_length()
        return _H_TRANSLATE * bits + math.prod(radices) / 64 * width * (_H_ROTATIONS + _H_SHEAR_ROTATIONS * bits) / _WORDS_PER_STEP

    @classmethod
    def _build_steps(cls, radices: tuple[int, ...], width: int) -> float:
        """The kernel's lane masks, and a Kronecker sum's set-up on wider lanes."""
        p = radices[0]
        return _H_BUILD + p * (_H_BUILD_VALUE + math.prod(radices) / 64 * width / _H_BUILD_WORDS + (_H_WIDEN if width > 1 else 0))

    def _translate(self, m: int, shear: list[tuple[int, int, int, int]], x: Element) -> int:
        for lanes, keep, up, down in shear:
            moved = m & lanes
            if moved:
                low = moved & keep
                m = m ^ moved | low << up | (moved ^ low) >> down
        a, b, c = x
        turn_c, turn_b = self._turns
        if c:
            keep, up, down = turn_c[c]
            low = m & keep
            m = low << up | (m ^ low) >> down
        if b:
            keep, up, down = turn_b[b]
            low = m & keep
            m = low << up | (m ^ low) >> down
        return self._rotate(m, a * self.p * self.p)

    def encode(self, forms: Iterable[Element]) -> int:
        p = self.p
        return super().encode((a * p + b) * p + c for a, b, c in forms)

    def decode(self, m: int) -> list[Element]:
        p, pp = self.p, self.p * self.p
        return [(i // pp, i // p % p, i % p) for i in super().decode(m)]

    def from_both_ends(self, m: int) -> Iterator[Element]:
        """The forms of the members of ``m`` in the order of ``Rotations.from_both_ends``: each bit's encoding."""
        p, pp = self.p, self.p * self.p
        return ((i // pp, i // p % p, i % p) for i in super().from_both_ends(m))

    def right(self, m: int, y: Element) -> int:
        """The mask of X·y: the c of x·y is c + c' + a·b', so c is sheared by a·b'."""
        return self._translate(m, self._right_shears[y[1]], y)

    def lefts(self, m: int) -> Callable[[Element], int]:
        """x -> the mask of x·X, for the mask ``m`` of X: the c of x·(a, b, c) is c0 + c + a0·b."""
        shears, translate = self._left_shears, self._translate
        return lambda x: translate(m, shears[x[0]], x)
