"""Finite group backends with canonical mixed-radix digit-tuple encodings.

Every element of a group is encoded as a tuple of digits.  Each backend sets
``radices``, the per-digit bounds: an encoding is a tuple of
``len(radices)`` ints with digit ``i`` in ``range(radices[i])``, every such
tuple encodes exactly one element, and the group order is the product of
the radices.  Equal elements have equal encodings, and ordinary tuple
comparison is a deterministic total order, the order of the mixed-radix
index (last digit least significant), so sets of elements sort the same way
in every run and in every implementation of the same encodings.  The
``Group`` base class derives ``order``, ``validate``, ``element_at``,
``index_of`` and ``elements`` (every element in encoding order) from
``radices``, once for every backend, and ``identity`` from
``identity_form``, which each backend states on its own form (the
all-zero tuple's form unless it says otherwise).

Encodings and their radices:

* ``cyclic(n)``          -- ``(r,)`` with ``r`` the residue mod n; ``(n,)``
* ``dihedral(n)``        -- ``(rot, flip)`` for the element rot^a * flip^b,
                            i.e. ``(a, b)`` means r^a s^b with s r s = r^-1;
                            ``(n, 2)``
* ``symmetric(n)``       -- the length-n Lehmer code of the permutation;
                            ``(n, n-1, ..., 1)``
* ``heisenberg_mod(p)``  -- ``(a, b, c)`` for [[1,a,c],[0,1,b],[0,0,1]] mod p;
                            ``(p, p, p)``
* ``direct_product``     -- concatenation of the factor encodings; the
                            factors' radices, concatenated
* ``table``              -- ``(i,)`` with ``i`` the row index of the table;
                            ``(n,)``

Each group has two kernels for sets of elements, and both present the
set-level protocol that ``gset`` describes and writes each operation
against, on the forms below.  ``group.loop`` is the loop kernel, of
class ``loop_kernel`` (``Loop``, or ``OneLine`` on ``SymmetricGroup``
with n >= 2); it owns the level set's overlap lists and the shrink
scan's index rows.  Cyclic, dihedral and Heisenberg groups also name a
kernel class of ``symgrowth.masks`` in ``mask_kernel``, and
``group.masks`` is that kernel, built from the group's ``radices``: it
holds a set as an int mask over the mixed-radix index and translates it
by rotations (on Heisenberg groups, turns of each digit and a shear).  The other backends have
``mask_kernel = None`` and no ``masks``.

Each backend states its group law once, on an internal element form:
``form_multiply`` and ``form_inverse`` act on forms, ``form_row`` is
``form_multiply`` along a row (x·y for one x and each y of a list),
``identity_form`` is the identity's, ``to_form`` and ``from_form``
convert one element, ``all_forms`` lists every element's form in
canonical order, and ``multiply`` is the law read through them on
encodings, for callers that hold encodings (nothing in the package
does).  A form is hashable, equal to another exactly when their
elements are equal, and forms sort in encoding order, so a canonical
order holds without encoding.  The forms are the
residue (cyclic), the mixed-radix index ``2·rot + flip`` (dihedral), the
row index (table), the one-line tuple (symmetric, whose order is Lehmer
order), the tuple of the factors' forms (direct product) and the
encoding itself (Heisenberg).  A ``GSet`` holds its members' forms, so
the kernels work on forms alone.  The loop kernels multiply pair by
pair, through ``form_multiply`` or, on S_n, ``OneLine``'s
``itemgetter``; ``oracle`` multiplies along rows, through ``form_row``,
which every backend but S1 writes apart from ``form_multiply``: one
comprehension or one C ``map``, and on a direct product its factors'
rows.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from abc import ABC, abstractmethod
from collections import defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, Sequence

from .errors import InvalidElementError, InvalidGroupError, ParameterError
from .masks import CyclicMasks, DihedralMasks, HeisenbergMasks, Rotations

if TYPE_CHECKING:
    from .gset import GSet

Element = tuple[int, ...]

#: default cap on the degree of symmetric-group backends
SYMMETRIC_DEGREE_LIMIT = 10


class Loop:
    """The loop kernel of a group: elements in the group's internal form, multiplied pair by pair by its law.

    It presents the set-level protocol of ``masks`` on the forms a
    ``GSet`` holds: ``form`` is a set's forms as a frozenset, ``right``
    and ``lefts`` translate forms, each product one ``form_multiply``,
    ``count`` is ``len``, and ``decode`` sorts.
    """

    def __init__(self, group: "Group"):
        self.group = group

    def right(self, xs: Iterable, y) -> Iterable:
        """The forms of X·y for the forms xs of X and the form y."""
        return map(self.group.form_multiply, xs, itertools.repeat(y))

    # -- the set-level protocol, shared with ``masks.Rotations`` ---------------

    def form(self, a: GSet) -> frozenset:
        return a._members

    count = staticmethod(len)
    # distinct forms in canonical order, which is their own
    decode = staticmethod(sorted)

    def lefts(self, ys: Iterable) -> Callable[..., Iterable]:
        """x -> the forms of x·Y, for the forms ys of Y."""
        multiply = self.group.form_multiply
        return lambda x: map(multiply, itertools.repeat(x), ys)

    def times(self, xs: Collection, ys: Sequence) -> set:
        """The forms of XY for forms xs and ys: X·y for each y.

        It adds X·y for each y until the set misses fewer forms than X
        holds, and then finishes on the complement: it lists the missing
        forms once, and for each remaining y drops every missing g with
        g·y⁻¹ in X, which is g in X·y, until none is missing.  The product
        is the group minus what is left, and each of those rounds multiplies
        fewer forms than a translate would.
        """
        out: set = set()
        whole = self.group.order
        done = 0
        while done < len(ys) and whole - len(out) >= len(xs):
            out.update(self.right(xs, ys[done]))
            done += 1
        if done == len(ys) or len(out) == whole:
            return out
        missing = list(itertools.filterfalse(out.__contains__, self.group.all_forms()))
        inside = set(xs)
        left = missing
        for y in ys[done:]:
            left = [g for g, h in zip(left, self.right(left, self.group.form_inverse(y))) if h not in inside]
            if not left:
                break
        out.update(missing)
        out.difference_update(left)
        return out

    def quad(self, square: set, inv: Sequence) -> set:
        """The forms of A²A⁻² from those of A²: A² times its own inverted forms.

        ``inv``, A⁻¹'s forms, is not read here; the masks build the chain
        from it.  The two operands have one size, so ``times`` translates
        A² by each inverse, finishing on the complement once few forms are
        missing.
        """
        return self.times(square, list(map(self.group.form_inverse, square)))

    def product(self, a: GSet, b: GSet) -> tuple[list, None]:
        """AB's forms, and no mask."""
        return self.decode(self.times(a.forms, b.forms)), None

    def rows(self, a: GSet, b: GSet) -> tuple[list, None, Callable[..., int]]:
        """AB's forms, no mask, and the row uB of each form u of A as an int mask over an index of AB in first-seen order."""
        left = self.lefts(b.forms)
        index: dict = {}
        setdefault = index.setdefault
        rows = {}
        for u in a.forms:
            row = 0
            for p in left(u):
                row |= 1 << setdefault(p, len(index))
            rows[u] = row
        return self.decode(index), None, rows.__getitem__

    def meets(self, t: GSet, w: GSet) -> Callable[..., bool]:
        """x -> whether xW meets T, for a form x; it stops at the first w with xw in T."""
        left, target = self.lefts(w.forms), self.form(t)
        return lambda x: not target.isdisjoint(left(x))

    def level_set(self, a: GSet, least: int) -> tuple[list, None, Callable[..., Iterator]]:
        """The forms t with |A ∩ tA| >= least, ascending, no mask, and a lookup of A ∩ tA's forms.

        One pass files each u of A under u·v⁻¹ for each v of A, so the list
        at t is A ∩ tA in canonical order; all of AA⁻¹ is listed before any
        t is dropped.  The lookup indexes each list from both ends: last,
        first, next to last, and so on.
        """
        left = self.lefts(list(map(self.group.form_inverse, a.forms)))
        table: defaultdict = defaultdict(list)
        for u in a.forms:
            for t in left(u):
                table[t].append(u)
        table = {t: terms for t, terms in table.items() if len(terms) >= least}

        def overlap(t) -> Iterator:
            # the pairs (last, first), (next to last, second), ... flattened, cut at the list's length
            terms = table[t]
            return itertools.islice(itertools.chain.from_iterable(zip(reversed(terms), terms)), len(terms))

        return sorted(table), None, overlap


class Group(ABC):
    """A finite group acting on canonically encoded elements.

    Instances are immutable after construction and all operations are pure,
    so a group may be shared freely across workers.

    The element law (``multiply`` and its form versions), the form
    converters and the loop kernels trust their arguments, and nothing
    they call checks them: elements are checked where they enter the
    program (``coerce``, ``GSet(...)``, instance load, certificate
    decode), not on every operation.
    """

    kind: str
    #: per-digit bounds of the encoding, set by each backend's ``__init__``
    radices: tuple[int, ...]
    #: the class of the backend's kernel of sets as int masks over the group index, if it has one
    mask_kernel: type[Rotations] | None = None
    #: the class of the backend's loop kernel
    loop_kernel: type[Loop] = Loop

    @functools.cached_property
    def masks(self) -> Rotations:
        """The ``mask_kernel`` of this group, built on first use (it holds an int of ``order`` bits)."""
        return self.mask_kernel(self.radices)

    @property
    def loop(self) -> Loop:
        """The ``loop_kernel`` of this group, built for one call."""
        return self.loop_kernel(self)

    @property
    def order(self) -> int:
        """Number of elements of the group."""
        return math.prod(self.radices)

    @property
    def identity(self) -> Element:
        """The identity's encoding, read from ``identity_form``."""
        return self.from_form(self.identity_form)

    # -- the element law, stated once per backend on its internal form ---------

    # ``to_form(x)`` is the internal form of x, and ``from_form`` its inverse.
    # Unless a backend says otherwise the form is the encoding itself, and
    # ``tuple`` returns a tuple unchanged, so the identity costs no Python call.
    to_form = from_form = staticmethod(tuple)

    @functools.cached_property
    def identity_form(self):
        """The identity's form: unless a backend says otherwise, the form of the all-zero tuple."""
        return self.to_form((0,) * len(self.radices))

    @abstractmethod
    def form_multiply(self, f, g):
        """The form of x·y for the forms f of x and g of y: the group law."""

    @abstractmethod
    def form_inverse(self, f):
        """The form of x⁻¹ for the form f of x."""

    def form_row(self, f, gs: Sequence) -> list:
        """The forms of x·y for each form y in ``gs``, in order, where f is x's form: the law along a row.

        Here one ``form_multiply`` per y; a backend may state the row
        itself, so a product costs a list slot instead of a Python call.
        """
        return list(map(self.form_multiply, itertools.repeat(f), gs))

    def multiply(self, x: Element, y: Element) -> Element:
        """x·y on encodings: the law read through ``to_form`` and ``from_form``."""
        return self.from_form(self.form_multiply(self.to_form(x), self.to_form(y)))

    def all_forms(self) -> Iterable:
        """The form of every element, each once, in canonical order: here the encodings, which are the default forms."""
        return self.elements()

    @abstractmethod
    def describe(self) -> dict:
        """JSON-compatible spec fragment that reconstructs this group."""

    # -- shared helpers -----------------------------------------------------

    def elements(self) -> Iterator[Element]:
        """Every element in encoding order: ``element_at(0)``, ..., ``element_at(order - 1)``."""
        return itertools.product(*map(range, self.radices))

    def validate(self, x: Element) -> None:
        """Raise InvalidElementError unless ``x`` is a tuple of ``len(radices)`` ints, digit ``i`` in ``range(radices[i])``.

        Bools, floats and strings are not ints here.
        """
        radices = self.radices
        if isinstance(x, tuple) and len(x) == len(radices):
            for d, r in zip(x, radices):
                if type(d) is not int or not 0 <= d < r:
                    break
            else:
                return
        raise InvalidElementError(f"bad {self.kind} element {x!r} for digit bounds {radices}")

    def element_at(self, index: int) -> Element:
        """The ``index``-th element in encoding order (0 <= index < order): its mixed-radix digits."""
        digits = []
        for r in reversed(self.radices):
            digits.append(index % r)
            index //= r
        digits.reverse()
        return tuple(digits)

    def index_of(self, x: Element) -> int:
        """The place of ``x`` in encoding order, its mixed-radix index: the inverse of ``element_at``."""
        index = 0
        for d, r in zip(x, self.radices):
            index = index * r + d
        return index

    def coerce(self, raw: Sequence[int]) -> Element:
        """Decode an instance's or a certificate's int array (or a tuple) as an element encoding."""
        if not isinstance(raw, (list, tuple)):
            raise InvalidElementError(f"bad {self.kind} element {raw!r}: not an int array")
        enc = tuple(raw)
        self.validate(enc)
        return enc

    @functools.cached_property
    def _canon(self) -> str:
        return json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))

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


def _require_index(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


class CyclicGroup(Group):
    """Integers mod n under addition; encoding ``(r,)``."""

    kind = "cyclic"
    mask_kernel = CyclicMasks

    def __init__(self, n: int):
        n = _require_index(n, "n")
        if n < 1:
            raise InvalidGroupError(f"cyclic order must be >= 1, got {n}")
        self.n = n
        self.radices = (n,)

    # the form is the residue
    to_form = staticmethod(itemgetter(0))
    identity_form = 0

    def from_form(self, f: int) -> Element:
        return (f,)

    def form_multiply(self, f: int, g: int) -> int:
        return (f + g) % self.n

    def form_row(self, f: int, gs: Sequence[int]) -> list[int]:
        n = self.n
        return [(f + g) % n for g in gs]

    def form_inverse(self, f: int) -> int:
        return -f % self.n

    def all_forms(self) -> range:
        return range(self.n)

    def describe(self) -> dict:
        return {"type": "cyclic", "n": self.n}


class DihedralGroup(Group):
    """Symmetries of the regular n-gon; encoding ``(rot, flip)``.

    ``(a, b)`` stands for r^a s^b where r is the rotation of order n and s a
    reflection with s r s = r^-1.
    """

    kind = "dihedral"
    mask_kernel = DihedralMasks

    def __init__(self, n: int):
        n = _require_index(n, "n")
        if n < 1:
            raise InvalidGroupError(f"dihedral degree must be >= 1, got {n}")
        self.n = n
        self.radices = (n, 2)
        self._twice = 2 * n

    # the form is the index 2·rot + flip
    identity_form = 0

    def to_form(self, x: Element) -> int:
        return 2 * x[0] + x[1]

    def from_form(self, f: int) -> Element:
        return (f >> 1, f & 1)

    def form_multiply(self, f: int, g: int) -> int:
        # r^a s^e · r^b s^e' = r^(a ± b) s^(e ^ e'), minus when e = 1; on the
        # indices 2a + e and 2b + e' that is their sum or difference mod 2n
        return (f - g if f & 1 else f + g) % self._twice

    def form_row(self, f: int, gs: Sequence[int]) -> list[int]:
        # f's parity decides the sign once for the whole row
        twice = self._twice
        if f & 1:
            return [(f - g) % twice for g in gs]
        return [(f + g) % twice for g in gs]

    def form_inverse(self, f: int) -> int:
        return f if f & 1 else -f % self._twice

    def all_forms(self) -> range:
        return range(self._twice)

    def describe(self) -> dict:
        return {"type": "dihedral", "n": self.n}


def _lehmer_to_one_line(code: Element) -> tuple[int, ...]:
    """The one-line form (p(0), ..., p(n-1)) of the permutation with Lehmer code ``code``."""
    free = list(range(len(code)))
    return tuple(free.pop(d) for d in code)


def _one_line_to_lehmer(perm: tuple[int, ...]) -> Element:
    """The Lehmer code of the one-line permutation ``perm``: each value's place among the values not yet used."""
    free = list(range(len(perm)))
    code = []
    for p in perm:
        i = free.index(p)
        code.append(i)
        del free[i]
    return tuple(code)


def _one_line_inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The one-line form of the inverse of the one-line permutation ``perm``."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


class OneLine(Loop):
    """The loop kernel of S_n for n >= 2: the group's one-line forms, composed by ``itemgetter``.

    (x*y)(i) = x(y(i)), so x*y is ``itemgetter(*y)(x)``, one C call per
    pair where ``form_multiply`` is a Python one; ``lefts`` and ``right``
    build each y's ``itemgetter`` once per call, and the forms, their
    inverses and their encodings are the group's.  On S1 ``itemgetter``
    with one index returns a scalar, so S1 keeps the base loop.
    """

    def lefts(self, ys: Iterable[tuple[int, ...]]) -> Callable[[tuple[int, ...]], Iterable[tuple[int, ...]]]:
        getters = [itemgetter(*y) for y in ys]
        return lambda x: (get(x) for get in getters)

    def right(self, xs: Iterable[tuple[int, ...]], y: tuple[int, ...]) -> Iterable[tuple[int, ...]]:
        return map(itemgetter(*y), xs)


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
        self.radices = tuple(range(n, 0, -1))
        self.identity_form = tuple(range(n))
        self.loop_kernel = OneLine if n > 1 else Loop

    # the form is the one-line tuple
    to_form = staticmethod(_lehmer_to_one_line)
    from_form = staticmethod(_one_line_to_lehmer)

    def form_multiply(self, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
        return tuple([f[v] for v in g])

    def form_row(self, f: tuple[int, ...], gs: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
        # (x·y)(i) = x(y(i)), one C call per y; S1 keeps the base row, since
        # ``itemgetter`` with one index returns a scalar
        if self.n == 1:
            return super().form_row(f, gs)
        return [itemgetter(*g)(f) for g in gs]

    form_inverse = staticmethod(_one_line_inverse)

    def all_forms(self) -> Iterator[tuple[int, ...]]:
        return itertools.permutations(range(self.n))

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
    mask_kernel = HeisenbergMasks

    def __init__(self, p: int):
        p = _require_index(p, "p")
        if p < 2:
            raise InvalidGroupError(f"heisenberg modulus must be >= 2, got {p}")
        self.p = p
        self.radices = (p, p, p)

    def form_multiply(self, x: Element, y: Element) -> Element:
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)

    def form_inverse(self, x: Element) -> Element:
        p = self.p
        return ((-x[0]) % p, (-x[1]) % p, (x[0] * x[1] - x[2]) % p)

    def form_row(self, f: Element, gs: Sequence[Element]) -> list[Element]:
        p = self.p
        a, b, c = f
        return [((a + x) % p, (b + y) % p, (c + z + a * y) % p) for x, y, z in gs]

    # the form is the encoding, so the encoded view is the law itself
    multiply = form_multiply

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
        self.radices = tuple(r for g in factors for r in g.radices)
        self.identity_form = tuple(g.identity_form for g in factors)
        ends = tuple(itertools.accumulate(len(g.radices) for g in factors))
        # each factor with the slice of the concatenated encoding it owns
        self._parts = tuple(zip(factors, map(slice, (0,) + ends, ends)))

    # The form is the tuple of the factors' forms, multiplied factor by
    # factor.  Plain loops, not comprehensions, so a nested product takes
    # one frame per level, no more than the JSON reader and writer take.
    def to_form(self, x: Element) -> tuple:
        out = ()
        for g, s in self._parts:
            out += (g.to_form(x[s]),)
        return out

    def from_form(self, f: tuple) -> Element:
        out = ()
        for g, part in zip(self.factors, f):
            out += g.from_form(part)
        return out

    def form_multiply(self, f: tuple, g: tuple) -> tuple:
        out = ()
        for h, a, b in zip(self.factors, f, g):
            out += (h.form_multiply(a, b),)
        return out

    def form_inverse(self, f: tuple) -> tuple:
        out = ()
        for h, a in zip(self.factors, f):
            out += (h.form_inverse(a),)
        return out

    def form_row(self, f: tuple, gs: Sequence[tuple]) -> list[tuple]:
        # each factor's row over its column of gs, zipped back into tuples
        columns = []
        for i, (h, a) in enumerate(zip(self.factors, f)):
            columns.append(h.form_row(a, list(map(itemgetter(i), gs))))
        return list(zip(*columns))

    def all_forms(self) -> Iterator[tuple]:
        return itertools.product(*(g.all_forms() for g in self.factors))

    def describe(self) -> dict:
        return {"type": "direct_product", "factors": [g.describe() for g in self.factors]}


class TableGroup(Group):
    """Group given by an explicit multiplication table; encoding ``(i,)``.

    ``table[i][j]`` is the index of element i times element j.  The identity
    index may be designated; otherwise it is located by comparing rows.
    Every table is checked exactly on load, so a table that is not a group
    fails there: each row must be a permutation of ``0..n-1``, the identity
    and every inverse must be two-sided, and associativity is decided by
    Light's test (Clifford and Preston, *The Algebraic Theory of Semigroups*
    I, 1961, section 1.2).  Light's test checks ``x(ay) == (xa)y`` for every
    ``x`` and ``y`` only for ``a`` in a generating set, one whole row
    comparison per ``(a, x)``: the elements that pass form a submagma, so
    passing generators make the whole table associative.  Generators are
    picked greedily, and each one at least doubles the subgroup reached in
    a group, so a table that needs more than ``n.bit_length()`` of them is
    refused unchecked.
    """

    kind = "table"

    def __init__(self, table: Sequence[Sequence[int]], identity_index: int | None = None):
        n = len(table)
        if n == 0:
            raise InvalidGroupError("empty multiplication table")
        full = set(range(n))
        rows: list[tuple[int, ...]] = []
        for i, row in enumerate(table):
            if not isinstance(row, (list, tuple)) or set(map(type, row)) != {int}:
                raise InvalidGroupError(f"table row {i} is not a list of integers: {row!r}")
            if len(row) != n or set(row) != full:
                raise InvalidGroupError(f"table row {i} is not a permutation of 0..{n - 1}")
            rows.append(tuple(row))
        self.table = tuple(rows)
        self.n = n
        self.radices = (n,)
        line = tuple(range(n))

        def two_sided(i: int) -> bool:
            # row i and column i both fix every index
            return rows[i] == line and tuple(map(itemgetter(i), rows)) == line

        if identity_index is None:
            identity_index = next(filter(two_sided, range(n)), None)
            if identity_index is None:
                raise InvalidGroupError("table has no two-sided identity")
        elif type(identity_index) is not int or not 0 <= identity_index < n:
            raise InvalidGroupError(f"identity index {identity_index!r} is not a row index")
        elif not two_sided(identity_index):
            raise InvalidGroupError(f"designated identity {identity_index} is not two-sided")
        self.identity_index = self.identity_form = e = identity_index
        inv = tuple(row.index(e) for row in rows)
        for i, j in enumerate(inv):
            if rows[j][i] != e:
                raise InvalidGroupError(f"element {i} has no two-sided inverse")
        self._inv = inv
        for a in self._generators():
            row_a = itemgetter(*rows[a])
            for x, row in enumerate(rows):
                if rows[row[a]] != row_a(row):
                    raise InvalidGroupError(f"table is not associative: ({x}*{a})*y != {x}*({a}*y) for some y")

    def _generators(self) -> list[int]:
        """A greedy generating set: the smallest index not yet reached, until every index is.

        Reached means reached from the identity by right multiplications
        by the generators so far.  Raises once more than
        ``n.bit_length()`` are needed, which no group of order n does.
        """
        rows, n = self.table, self.n
        reached = {self.identity_index}
        gens: list[int] = []
        while len(reached) < n:
            if len(gens) == n.bit_length():
                raise InvalidGroupError(f"table needs more than {len(gens)} generators, so it is not a group")
            a = min(set(range(n)) - reached)
            gens.append(a)
            # ``reached`` is closed under the earlier generators already
            fresh = {rows[x][a] for x in reached} - reached
            while fresh:
                reached |= fresh
                fresh = {rows[x][g] for x in fresh for g in gens} - reached
        return gens

    # the form is the row index
    to_form = staticmethod(itemgetter(0))

    def from_form(self, f: int) -> Element:
        return (f,)

    def form_multiply(self, f: int, g: int) -> int:
        return self.table[f][g]

    def form_row(self, f: int, gs: Sequence[int]) -> list[int]:
        return list(map(self.table[f].__getitem__, gs))

    def form_inverse(self, f: int) -> int:
        return self._inv[f]

    def all_forms(self) -> range:
        return range(self.n)

    def describe(self) -> dict:
        return {
            "type": "table",
            "table": [list(row) for row in self.table],
            "identity": self.identity_index,
        }


#: the fields each group type's spec may hold besides ``type``
GROUP_FIELDS = {
    "cyclic": ("n",),
    "dihedral": ("n",),
    "symmetric": ("n", "limit"),
    "heisenberg_mod": ("p",),
    "direct_product": ("factors",),
    "table": ("table", "identity"),
}


def group_from_spec(spec: dict) -> Group:
    """Build a group from its JSON spec fragment (inverse of ``describe``).

    A field the group type does not define is an InvalidGroupError.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise InvalidGroupError(f"group spec must be an object with a 'type': {spec!r}")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in GROUP_FIELDS:
        raise InvalidGroupError(f"unknown group type {kind!r}")
    unknown = sorted(set(spec) - {"type", *GROUP_FIELDS[kind]})
    if unknown:
        raise InvalidGroupError(f"{kind} group spec has unknown fields {unknown}")
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
    table = spec.get("table")
    if not isinstance(table, list):
        raise InvalidGroupError("table spec needs a 'table' list of rows")
    return TableGroup(table, spec.get("identity"))
