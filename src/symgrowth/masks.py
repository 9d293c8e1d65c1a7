"""Subsets of cyclic and dihedral groups as int masks over the group index.

Bit ``i`` of a mask stands for ``group.element_at(i)``.  In Z_n a
translate of a set is a rotation of its n-bit mask.  In D_n, whose index
of ``(a, f)`` is ``2a + f``, a right translate rotates the rotation lanes
one way and the reflection lanes the other, and a left translate by a
reflection is a rotation of the reversed mask.  So each translate is a few
big-int operations, done in C, instead of one ``multiply`` per member.
``CyclicMasks`` and ``DihedralMasks`` are the two kernels, named by
``CyclicGroup.mask_kernel`` and ``DihedralGroup.mask_kernel``; the other
backends have none.  ``gset`` decides by a cost rule, from the group's
order and the class's ``rotations``, when a kernel pays, and only then is
it built: a kernel holds an int of as many bits as the group has elements.

``widen(w)`` gives the same kernel on masks of ``w``-bit lanes, lane ``i``
standing for ``element_at(i)``.  A sum of translates of such a mask holds
convolution counts, one per lane, as long as no lane reaches
``2**(w - 1)``: this is Kronecker substitution (Harvey, arXiv:0712.4046),
with the product of the two lane polynomials taken as a sum of shifted
copies of one of them.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Callable, Iterable

Element = tuple[int, ...]

#: the digits of ``bin(m)`` as bytes 0 and 1, and back
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")
#: 1 for a byte whose top bit is set, else 0
_TOP_BIT = bytes(b >> 7 for b in range(256))
#: the positions of the set bits of each byte, ascending
_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


class Rotations:
    """Translations of masks over the index of a group of ``order`` elements."""

    #: rotations of the whole mask per translate, for the cost rule in ``gset``
    rotations: int

    def __init__(self, order: int, width: int = 1):
        self.order = order
        self.width = width
        self.bits = self.order * width
        self.full = (1 << self.bits) - 1

    def widen(self, width: int) -> "Rotations":
        """This kernel on masks of ``width``-bit lanes (``width`` a multiple of 8), built afresh.

        A build costs about one translate of such a mask, and its caller sums |A| of them.
        """
        return type(self)(self.order, width)

    def _rotate(self, m: int, lanes: int) -> int:
        shift = lanes % self.order * self.width
        if not shift:
            return m
        return (m << shift | m >> self.bits - shift) & self.full

    def _from_flags(self, flags) -> int:
        return int(flags.translate(_DIGITS)[::-1], 2)

    def decode(self, m: int) -> list[Element]:
        """The members of the 1-bit mask ``m`` in ascending index order, which is encoding order.

        ``compress`` skips the zero bytes in C, so the Python steps are one
        per set bit.
        """
        data = m.to_bytes((m.bit_length() + 7) // 8, "little")
        return self._elements([8 * j + i for j in compress(range(len(data)), data) for i in _BITS[data[j]]])

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


class CyclicMasks(Rotations):
    """Z_n: the translate of a set by ``(c,)`` on either side is a rotation by c."""

    rotations = 1

    def encode(self, elements: Iterable[Element]) -> int:
        flags = bytearray(self.order)
        for (i,) in elements:
            flags[i] = 1
        return self._from_flags(flags)

    def _elements(self, index) -> list[Element]:
        return list(zip(index))

    def right(self, m: int, y: Element) -> int:
        """The mask of X·y for the mask ``m`` of X."""
        return self._rotate(m, y[0])

    def lefts(self, m: int) -> Callable[[Element], int]:
        """x -> the mask of x·X, for the mask ``m`` of X."""
        rotate = self._rotate
        return lambda x: rotate(m, x[0])


class DihedralMasks(Rotations):
    """D_n with index 2a + f for ``(a, f)``; lanes of even index are the rotations."""

    rotations = 2

    def __init__(self, order: int, width: int = 1):
        super().__init__(order, width)
        # every bit of every rotation lane
        self._rotation_lanes = self.full // ((1 << 2 * width) - 1) * ((1 << width) - 1)

    def encode(self, elements: Iterable[Element]) -> int:
        flags = bytearray(self.order)
        for a, f in elements:
            flags[2 * a + f] = 1
        return self._from_flags(flags)

    def _elements(self, index) -> list[Element]:
        return list(map(divmod, index, repeat(2)))

    def right(self, m: int, y: Element) -> int:
        """The mask of X·y: (a, 0)(b, f) = (a + b, f) and (a, 1)(b, f) = (a - b, 1 - f)."""
        b, f = y
        rot = m & self._rotation_lanes
        rot, ref = self._rotate(rot, 2 * b), self._rotate(m ^ rot, -2 * b)
        if f:
            return rot << self.width | ref >> self.width
        return rot | ref

    def lefts(self, m: int) -> Callable[[Element], int]:
        """x -> the mask of x·X, for the mask ``m`` of X.

        (c, 0)(a, f) = (c + a, f) rotates m.  (c, 1)(a, f) = (c - a, 1 - f):
        reversing the 2n-bit mask sends index 2a + f to 2(n - 1 - a) + 1 - f,
        and a rotation by c + 1 steps finishes the job.  The reversed mask is
        built once, here.
        """
        rotate = self._rotate
        reversed_m = int(bin(m)[2:].zfill(self.bits)[::-1], 2)

        def left(x: Element) -> int:
            c, g = x
            return rotate(reversed_m, 2 * c + 2) if g else rotate(m, 2 * c)

        return left
