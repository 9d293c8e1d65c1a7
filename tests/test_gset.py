"""Exact set arithmetic: products, convolutions, energies, doubling stats."""

import ast
import contextlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth import groups, gset, masks
from symgrowth.budget import set_pair_budget
from symgrowth.errors import (
    EmptySetError,
    GroupMismatchError,
    InvalidElementError,
    PairBudgetError,
)
from symgrowth.groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    HeisenbergGroup,
    Loop,
    OneLine,
    SymmetricGroup,
    TableGroup,
)
from symgrowth.gset import (
    GSet,
    doubling_stats,
    inverse_set,
    level_set,
    outside,
    product,
    row_product,
)
from symgrowth.instances import generate, random_set
from symgrowth.masks import CyclicMasks, DihedralMasks, HeisenbergMasks, lane_width
from symgrowth.oracle import oracle_product
from symgrowth.serialize import canonical_dumps, elements_to_json

from conftest import (
    CounterStream,
    conv_counts,
    conv_table,
    count_law,
    draw_subset,
    encode_one_line,
    encoded_inverse,
    from_both_ends,
    on_side,
    oracle_inverse,
    oracle_level_set,
    oracle_overlaps,
    oracle_quadruples,
    pair_energy,
    small_group_pool,
)

C20 = CyclicGroup(20)
INTERVAL = GSet(C20, [(i,) for i in range(5)])


def interval(group, start, length):
    return GSet(group, [((start + i) % group.order,) for i in range(length)])


# -- GSet container behaviour -------------------------------------------------


def test_gset_sorts_and_deduplicates():
    a = GSet(C20, [(3,), (1,), (3,), (0,)])
    assert a.elements == ((0,), (1,), (3,))
    assert len(a) == 3
    assert (1,) in a and (2,) not in a


def test_gset_validates_members():
    with pytest.raises(InvalidElementError):
        GSet(C20, [(25,)])


def test_gset_equality_and_hash():
    a = GSet(C20, [(1,), (2,)])
    b = GSet(C20, [(2,), (1,)])
    assert a == b and hash(a) == hash(b)
    assert a != GSet(C20, [(1,)])
    assert a != GSet(CyclicGroup(21), [(1,), (2,)])
    # a foreign object is never equal to a set, through GSet.__eq__'s NotImplemented
    assert a.__eq__(frozenset(a)) is NotImplemented
    assert a != frozenset(a) and a != list(a)


def test_gset_repr_shows_encodings_and_a_count_past_four():
    s3 = SymmetricGroup(3)
    # on S3 the encodings are Lehmer codes, whatever the internal forms
    assert repr(GSet(s3, [encode_one_line(s3, (1, 0, 2))])) == "GSet(symmetric, [(1, 0, 0)])"
    assert repr(GSet(s3, s3.elements())) == (
        "GSet(symmetric, [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), ... (6 total)])"
    )
    assert repr(GSet(C20, [(i,) for i in range(4)])) == "GSet(cyclic, [(0,), (1,), (2,), (3,)])"


def test_group_mismatch_is_rejected():
    a = GSet(C20, [(1,)])
    b = GSet(CyclicGroup(21), [(1,)])
    with pytest.raises(GroupMismatchError):
        product(a, b)
    with pytest.raises(GroupMismatchError):
        a.subset_of(b)


def test_subset_of():
    a = GSet(C20, [(1,), (2,)])
    assert GSet(C20, [(2,)]).subset_of(a)
    assert a.subset_of(a)
    assert GSet(C20, []).subset_of(a)
    assert not a.subset_of(GSet(C20, [(2,), (3,)]))


def test_symmetry_and_identity_flags():
    assert GSet(C20, [(0,), (1,), (19,)]).is_symmetric()
    assert not GSet(C20, [(0,), (1,)]).is_symmetric()
    assert GSet(C20, [(0,)]).contains_identity()
    assert not GSet(C20, [(5,)]).contains_identity()


def test_require_nonempty():
    with pytest.raises(EmptySetError):
        GSet(C20, []).require_nonempty("test set")


#: one small group per backend, for the sets that hold forms
FORM_BACKENDS = [
    CyclicGroup(12),
    DihedralGroup(5),
    SymmetricGroup(4),
    HeisenbergGroup(3),
    DirectProductGroup([SymmetricGroup(3), CyclicGroup(2)]),
    TableGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
]

#: what ``x in s`` answers on every backend above: True for a member's
#: encoding alone, so a float or bool digit equal to an int one does not
#: count, nor does a list, any more than ``validate`` lets them pass
MEMBERSHIP = {
    "member": True,
    "non_member": False,
    "float_digits": False,
    "bool_digits": False,
    "too_long": False,
    "too_short": False,
    "out_of_range": False,
    "int": False,
    "str": False,
    "none": False,
    "empty": False,
    "list": False,
    "nested": False,
}


@pytest.mark.parametrize("group", FORM_BACKENDS, ids=lambda g: g.kind)
def test_a_set_from_encodings_and_one_from_forms_agree(group):
    elems = [group.element_at(i) for i in range(0, group.order, 3)]
    built = [
        GSet(group, reversed(elems)),
        GSet._trusted(group, sorted(map(group.to_form, elems))),
        # a kernel's result, built from forms
        product(GSet(group, [group.identity]), GSet(group, elems)),
    ]
    for a in built:
        assert a == built[0] and hash(a) == hash(built[0])
        assert a.elements == tuple(elems) == tuple(a)
        assert canonical_dumps(elements_to_json(a.elements)) == canonical_dumps(elements_to_json(elems))
        assert all(x in a for x in elems)
        member = elems[-1]
        probes = {
            "member": member,
            "non_member": next(x for x in group.elements() if x not in elems),
            "float_digits": tuple(map(float, member)),
            # every digit of the first member, element 0, is 0: equal to False
            "bool_digits": tuple(map(bool, elems[0])),
            "too_long": member + (0,),
            "too_short": member[:-1],
            "out_of_range": group.radices,
            "int": 0,
            "str": "a",
            "none": None,
            "empty": (),
            "list": list(member),
            "nested": (member,),
        }
        for name, x in probes.items():
            assert (x in a) is MEMBERSHIP[name], name


# -- product sets -------------------------------------------------------------


def test_interval_product_is_longer_interval():
    assert product(INTERVAL, INTERVAL) == interval(C20, 0, 9)


def test_subgroup_is_product_stable():
    h = GSet(C20, [(0,), (4,), (8,), (12,), (16,)])
    assert product(h, h) == h
    assert inverse_set(h) == h


def test_product_with_empty_is_empty():
    empty = GSet(C20, [])
    assert len(product(INTERVAL, empty)) == 0
    assert len(product(empty, INTERVAL)) == 0


def test_inverse_set_examples():
    assert inverse_set(GSet(C20, [(1,), (3,)])).elements == ((17,), (19,))
    d4 = DihedralGroup(4)
    assert set(inverse_set(GSet(d4, [(1, 0), (0, 1)])).elements) == {(3, 0), (0, 1)}


def test_product_matches_oracle_on_random_draws(stream):
    for group in small_group_pool():
        for _ in range(5):
            a = draw_subset(group, 1 + stream.below(6), stream)
            b = draw_subset(group, 1 + stream.below(6), stream)
            got = product(a, b)
            assert got.elements == oracle_product(group, a.elements, b.elements)


# -- convolution --------------------------------------------------------------


def test_conv_table_small_example():
    c4 = CyclicGroup(4)
    a = GSet(c4, [(0,), (1,)])
    table = conv_table(a, a)
    assert table == {(0,): [(0,)], (1,): [(0,), (1,)], (2,): [(1,)]}
    # 1 = 0 + 1 = 1 + 0 two ways, and 3 no way
    counts = conv_counts(table)
    assert counts[(1,)] == 2
    assert (3,) not in counts
    assert counts == {(0,): 1, (1,): 2, (2,): 1}


def test_conv_table_support_is_product_set():
    for group in small_group_pool()[:4]:
        st_ = CounterStream(11)
        a = draw_subset(group, 4, st_)
        b = draw_subset(group, 5, st_)
        t = conv_counts(conv_table(a, b))
        assert GSet(group, t) == product(a, b)
        assert sum(t.values()) == len(a) * len(b)
        assert all(n > 0 for n in t.values())


def test_conv_table_on_subgroup_is_flat():
    h = GSet(C20, [(0,), (5,), (10,), (15,)])
    t = conv_counts(conv_table(h, h))
    assert set(t.values()) == {4}
    assert GSet(C20, t) == h


def test_conv_table_with_inverse_lists_the_overlaps(stream):
    # the entry at t is A ∩ tA in canonical order, as the oracle lists it
    for group in small_group_pool():
        a = draw_subset(group, 1 + stream.below(8), stream)
        assert conv_table(a, inverse_set(a)) == oracle_overlaps(group, a.elements)


# -- row masks ------------------------------------------------------------------


def test_row_product_rows_are_left_translates(stream):
    # each row is a mask of |B| bits, and two rows share as many bits as
    # the two translates share elements, so the rows index uB faithfully
    for group in small_group_pool():
        a = draw_subset(group, 1 + stream.below(8), stream)
        b = draw_subset(group, 1 + stream.below(8), stream)
        p, row = row_product(a, b)
        assert p == product(a, b)
        # the lookup is keyed on forms
        rows = {u: row(group.to_form(u)) for u in a}
        for u in a:
            assert rows[u].bit_count() == len(b)
            for v in a:
                shared = set(product(GSet(group, [u]), b)) & set(product(GSet(group, [v]), b))
                assert (rows[u] & rows[v]).bit_count() == len(shared)


def test_row_product_covers_subset_products(stream):
    for group in small_group_pool():
        a = draw_subset(group, 1 + stream.below(8), stream)
        b = draw_subset(group, 1 + stream.below(8), stream)
        p, row = row_product(a, b)
        assert p == product(a, b)
        for _ in range(5):
            pick = stream.below(1 << len(a))
            sub = [x for i, x in enumerate(a) if pick >> i & 1]
            cover = 0
            for u in sub:
                cover |= row(group.to_form(u))
            assert cover.bit_count() == len(product(GSet(group, sub), b))


# -- level sets on masks ---------------------------------------------------------

def _level_set_counting_right(monkeypatch, a, need, side=None):
    """``level_set(a, need)`` on A's masks, counted by ``side`` or by the real rule, and the 1-bit right translates it made."""
    kernel, seen = a.group.masks, []
    real = kernel.right
    with monkeypatch.context() as m, on_side(side) if side is not None else contextlib.nullcontext():
        m.setattr(gset, "_kernel", lambda group, translations, pairs, width=1: group.masks)
        m.setattr(kernel, "right", lambda mask, y: seen.append(y) or real(mask, y))
        level, _ = level_set(GSet(a.group, a.elements), need)
    return level, seen


@pytest.mark.parametrize("group", [CyclicGroup(40), DihedralGroup(20), HeisenbergGroup(4)], ids=["c40", "d20", "h4"])
def test_mask_level_sets_take_a_pigeonhole_support(monkeypatch, group, stream):
    # a t with |A ∩ tA| >= least lies in A·x⁻¹ for one of any n - least + 1 members x,
    # and no t has least > n, so that level set is empty with no translate made
    for _ in range(6):
        a = draw_subset(group, 3 + stream.below(14), stream)
        n = len(a)
        for least in sorted({1, math.ceil(n / 2), math.ceil(2 * n / 3), n - 1, n, n + 1}):
            level, seen = _level_set_counting_right(monkeypatch, a, least, "popcount")
            assert level.elements == oracle_level_set(group, a.elements, least)
            assert len(seen) == max(n - least + 1, 0)
            level, seen = _level_set_counting_right(monkeypatch, a, least, "kronecker")
            assert level.elements == oracle_level_set(group, a.elements, least)
            # the lanes cost less than bit counts over even the least support, so none is built
            assert seen == []


@pytest.mark.parametrize("need", [1, 10])
def test_a_mask_level_set_gives_up_its_support_once_the_lanes_cost_less(monkeypatch, need):
    # a random 20 in Heisenberg mod 9: its support would hold about 300 of the
    # 729 elements, where the bit counts cost far more than the lanes; the
    # build stops at the first translate whose union reaches that cost
    a = generate({"group": {"type": "heisenberg_mod", "p": 9}, "set": {"type": "random", "size": 20, "seed": 0}})
    g, n = a.group, len(a)
    level, seen = _level_set_counting_right(monkeypatch, a, need)
    assert level.elements == oracle_level_set(g, a.elements, need)
    assert level._mask is not None  # the lanes built the level set's mask
    r = n - need + 1
    assert 1 <= len(seen) < r
    assert seen == list(inverse_set(a).forms[: len(seen)])
    m = g.masks.encode(a.forms)
    cost = g.mask_kernel.cost
    lanes = cost(g.radices, n, lane_width(n))

    def support(j):
        out = 0
        for x in seen[:j]:
            out |= g.masks.right(m, x)
        return out.bit_count()

    assert cost(g.radices, r + support(len(seen) - 1)) < lanes <= cost(g.radices, r + support(len(seen)))


def test_the_rule_takes_the_loop_when_the_masks_cost_more_than_the_budget():
    # doubling_stats' call for a random 2000 in C10^12: the loop would pay
    # about 1.6·10^13 pairs, the masks about 2.8·10^12 steps, both past the
    # default budget of 10^8, so the masks, ints of 10^12 bits, are not built
    g, size = CyclicGroup(10**12), 2000
    bound = size * size
    pairs = 2 * size * size + min(gset._chain_pairs(bound, size, g.order), bound * bound)
    assert g.mask_kernel.cost(g.radices, 4 * size) < pairs
    assert isinstance(gset._kernel(g, 4 * size, pairs), Loop)
    assert "masks" not in vars(g)


def test_kernels_charge_their_multiplications():
    set_pair_budget(24)
    try:
        with pytest.raises(PairBudgetError) as info:
            level_set(INTERVAL, 1)
        assert info.value.needed == 25
        with pytest.raises(PairBudgetError):
            row_product(INTERVAL, INTERVAL)
    finally:
        set_pair_budget(None)


# -- quadruple counts ---------------------------------------------------------


def test_pair_energy_small_example():
    c4 = CyclicGroup(4)
    a = GSet(c4, [(0,), (1,)])
    # counts of a+b are 1,2,1 so the energy is 1+4+1
    assert pair_energy(a, a, a, a) == 6


def test_pair_energy_on_subgroup():
    h = GSet(CyclicGroup(8), [(0,), (2,), (4,), (6,)])
    # every product lands in H with |H| representations: |H|^3 quadruples
    assert pair_energy(h, h, h, h) == 64


def test_pair_energy_disjoint_supports():
    a = GSet(C20, [(0,), (1,)])
    b = GSet(C20, [(5,)])
    # A+A = {0,1,2} and B+B = {10} never meet
    assert pair_energy(a, a, b, b) == 0


def test_pair_energy_matches_quadruple_oracle(stream):
    for group in small_group_pool():
        for _ in range(3):
            sets = [draw_subset(group, 1 + stream.below(4), stream) for _ in range(4)]
            fast = pair_energy(*sets)
            slow = oracle_quadruples(group, *(s.elements for s in sets))
            assert fast == slow


def test_pair_energy_reversal_identity(stream):
    # #{a1 b1 = a2 b2 : a in A, b in B} counted directly equals the count
    # after the substitution (a1,b1,a2,b2) -> (a2^-1, a1, b2, b1^-1).
    for group in small_group_pool():
        a = draw_subset(group, 2 + stream.below(4), stream)
        b = draw_subset(group, 2 + stream.below(4), stream)
        lhs = pair_energy(a, b, a, b)
        rhs = pair_energy(inverse_set(a), a, b, inverse_set(b))
        assert lhs == rhs


@given(st.integers(min_value=2, max_value=24), st.sets(st.integers(), min_size=1, max_size=8))
def test_energy_lower_bound_property(n, raw):
    # Cauchy-Schwarz on the convolution: energy(A) >= |A|^4 / |A A|
    g = CyclicGroup(n)
    a = GSet(g, [(v % n,) for v in raw])
    e = sum(len(terms) ** 2 for terms in conv_table(a, a).values())
    assert e >= Fraction(len(a) ** 4, len(product(a, a)))


def test_energy_frozen_interval_value():
    assert sum(len(terms) ** 2 for terms in conv_table(INTERVAL, INTERVAL).values()) == 85
    assert Fraction(5**4, 9) <= 85


# -- doubling stats -----------------------------------------------------------


def test_doubling_stats_interval():
    s = doubling_stats(INTERVAL)
    assert s.as_dict() == {
        "size": 5,
        "product_size": 9,
        "inverse_product_size": 9,
        "quad_size": 17,
        "doubling": Fraction(9, 5),
    }


def test_doubling_stats_subgroup_is_one():
    h = GSet(C20, [(0,), (4,), (8,), (12,), (16,)])
    s = doubling_stats(h)
    assert s.doubling == 1
    assert s.size == s.product_size == s.inverse_product_size == s.quad_size == 5


def test_doubling_stats_requires_nonempty():
    with pytest.raises(EmptySetError):
        doubling_stats(GSet(C20, []))


def test_doubling_sizes_dominate_size(stream):
    for group in small_group_pool():
        a = draw_subset(group, 2 + stream.below(6), stream)
        s = doubling_stats(a)
        assert s.product_size >= s.size
        assert s.inverse_product_size >= s.size
        assert s.quad_size >= s.product_size
        assert s.doubling >= 1


def _quad_by_definition(a):
    g = a.group
    square = oracle_product(g, a.elements, a.elements)
    return len(oracle_product(g, square, oracle_inverse(g, square)))


def test_doubling_stats_quad_size_matches_oracle(stream):
    for group in small_group_pool():
        for _ in range(4):
            a = draw_subset(group, 1 + stream.below(min(group.order, 12)), stream)
            assert doubling_stats(a).quad_size == _quad_by_definition(a)


# One named set per way of building A^2 A^-2, with the most multiplications
# that way may take (n = |A|, n2 = |A^2|, g = |G|): the whole group once A^2
# or A A^-1 is; the chain ((A^2)A^-1)A^-1; squaring A^2.
QUAD_WAYS = {
    "c20-interval-11-whole": ({"group": {"type": "cyclic", "n": 20},
                               "set": {"type": "interval", "start": 0, "length": 11}}, "whole"),
    "c7-difference-set-whole": ({"group": {"type": "cyclic", "n": 7},
                                 "set": {"type": "explicit", "elements": [[0], [1], [3]]}}, "whole"),
    "c800-random-30-chain": ({"group": {"type": "cyclic", "n": 800},
                              "set": {"type": "random", "size": 30, "seed": 0}}, "chain"),
    "s6-random-10-chain": ({"group": {"type": "symmetric", "n": 6},
                            "set": {"type": "random", "size": 10, "seed": 0}}, "chain"),
    # the chain stops short of the whole group here: |A^2 A^-2| = 59 of 60
    "d30-explicit-5-chain": ({"group": {"type": "dihedral", "n": 30},
                              "set": {"type": "explicit",
                                      "elements": [[13, 1], [18, 1], [21, 0], [22, 1], [29, 1]]}}, "chain"),
    "c20-interval-5-square": ({"group": {"type": "cyclic", "n": 20},
                               "set": {"type": "interval", "start": 0, "length": 5}}, "square"),
    "d40-coset-union-square": ({"group": {"type": "dihedral", "n": 40},
                                "set": {"type": "coset_union", "generators": [[5, 0]],
                                        "reps": [[0, 0], [1, 1]]}}, "square"),
    # the three ways again on non-abelian backends
    "h3-random-12-whole": ({"group": {"type": "heisenberg_mod", "p": 3},
                            "set": {"type": "random", "size": 12, "seed": 0}}, "whole"),
    "h3-random-5-chain": ({"group": {"type": "heisenberg_mod", "p": 3},
                           "set": {"type": "random", "size": 5, "seed": 0}}, "chain"),
    "h3-random-3-square": ({"group": {"type": "heisenberg_mod", "p": 3},
                            "set": {"type": "random", "size": 3, "seed": 0}}, "square"),
    "s4-random-12-whole": ({"group": {"type": "symmetric", "n": 4},
                            "set": {"type": "random", "size": 12, "seed": 0}}, "whole"),
    "s6-subgroup-6-square": ({"group": {"type": "symmetric", "n": 6},
                              "set": {"type": "subgroup",
                                      "generators": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]}}, "square"),
}
MOST_MULTIPLIES = {
    "whole": lambda n, n2, g: 2 * n * n,
    "chain": lambda n, n2, g: 2 * n * n + n2 * n + min(g, n2 * n) * n,
    "square": lambda n, n2, g: 2 * n * n + n2 * n2,
}


def _base_loop(monkeypatch, group):
    """Make ``group``'s loop kernel the base ``Loop``, which multiplies every pair with ``form_multiply``, and drop its masks.

    The symmetric backend's ``OneLine`` composes one-line forms with
    ``itemgetter``, and the masks translate without the law, so counts are
    taken on the loop they replace.
    """
    monkeypatch.setattr(group, "loop_kernel", Loop)
    monkeypatch.setattr(group, "mask_kernel", None)


@pytest.mark.parametrize("name", list(QUAD_WAYS))
def test_doubling_stats_builds_the_quad_the_cheapest_way(monkeypatch, name):
    spec, way = QUAD_WAYS[name]
    a = generate(spec)
    n, n2, g = len(a), len(product(a, a)), a.group.order
    _base_loop(monkeypatch, a.group)
    seen = count_law(monkeypatch, type(a.group))
    stats = doubling_stats(a)
    monkeypatch.undo()
    assert stats.quad_size == _quad_by_definition(a)
    assert doubling_stats(a) == stats
    # with 2|A| > |G|, A^2 and AA^-1 are the whole group without a multiplication
    assert (seen["multiplies"] > 0) == (2 * n <= g)
    assert seen["multiplies"] <= MOST_MULTIPLIES[way](n, n2, g)
    if way != "square":
        # all of doubling_stats costs less than squaring A^2 alone
        assert seen["multiplies"] < n2 * n2


def _loop_product(loop, xs, ys):
    """The encodings of the loop kernel's product of the elements xs and ys."""
    to = loop.group.to_form
    return set(map(loop.group.from_form, loop.times(list(map(to, xs)), list(map(to, ys)))))


@pytest.mark.parametrize("name", [name for name in QUAD_WAYS if name.startswith("s")])
def test_symmetric_kernel_builds_the_sets_of_the_base_loop(name):
    # every product doubling_stats may build: A^2, AA^-1, the chain and A^2 (A^2)^-1
    a = generate(QUAD_WAYS[name][0])
    g, inv = a.group, inverse_set(a).elements
    base = Loop(g)
    square = _loop_product(base, a.elements, a.elements)
    half = _loop_product(base, square, inv)
    for xs, ys in [(a.elements, a.elements), (a.elements, inv), (square, inv), (half, inv),
                   (inv, half), (square, [encoded_inverse(g, x) for x in square])]:
        assert _loop_product(g.loop, xs, ys) == _loop_product(base, xs, ys)


def test_product_stops_at_the_whole_group_but_charges_every_pair(monkeypatch):
    # |A3| + |T| = |S3|, so the size rule cannot decide A3 T; the loop must
    s3 = SymmetricGroup(3)
    a3 = GSet(s3, [encode_one_line(s3, p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]])
    t = GSet(s3, [encode_one_line(s3, p) for p in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]])
    whole = GSet(s3, s3.elements())
    charged = []
    monkeypatch.setattr(gset, "charge_pairs", charged.append)
    assert product(a3, t) == whole
    _base_loop(monkeypatch, s3)
    seen = count_law(monkeypatch, type(s3))
    # A3 e = A3 and A3 (01) holds the odd permutations, so the loop stops after two translates
    assert product(a3, t) == whole
    assert seen["multiplies"] == 2 * len(a3)
    assert charged == [len(a3) * len(t)] * 2


def test_product_of_operands_larger_than_the_group_multiplies_nothing(monkeypatch):
    # |X| + |Y| > |G|: X and gY^-1 meet for every g, so XY = G; the
    # translate loop made 52 multiplications on this pair
    h3 = HeisenbergGroup(3)
    xs = GSet(h3, [x for x in h3.elements() if x != (1, 2, 0)])
    ys = GSet(h3, [h3.identity, (1, 1, 1), (2, 0, 1)])
    charged = []
    monkeypatch.setattr(gset, "charge_pairs", charged.append)
    seen = count_law(monkeypatch, type(h3))
    assert product(xs, ys).elements == tuple(sorted(h3.elements()))
    assert seen["multiplies"] == 0
    assert charged == [len(xs) * len(ys)]


@pytest.mark.parametrize("longer_first", [True, False])
def test_loop_product_translates_the_left_operand(monkeypatch, longer_first):
    # X misses one element z of G and Y lists the identity first: X e = X.
    # The set then misses one form, fewer than X holds, so the loop
    # finishes on the complement: z y⁻¹ is in X for the next y, one
    # multiplication.  With the operands swapped, the left one is
    # Y = {e, (1, 1, 1), (2, 0, 1)}, one element of each value of the first
    # digit, and the right one's first nine elements in encoding order are
    # (0, b, c), the normal subgroup N of first digit 0.  Y·N is G, so the
    # nine translates Y·y are disjoint and cover G: before the ninth the set
    # misses 3 forms, not fewer than Y holds, and after it none, so the
    # product takes 9·3 multiplications and no complement round
    h3 = HeisenbergGroup(3)
    xs = [x for x in h3.elements() if x != (1, 2, 0)]
    ys = [h3.identity, (1, 1, 1), (2, 0, 1)]
    seen = count_law(monkeypatch, type(h3))
    assert _loop_product(h3.loop, *((xs, ys) if longer_first else (ys, xs))) == set(h3.elements())
    assert seen["multiplies"] == (len(xs) + 1 if longer_first else 9 * len(ys))


# -- the loop kernels against the multiply double loop ------------------------


def _table_of(group):
    elems = list(group.elements())
    return TableGroup([[elems.index(group.multiply(x, y)) for y in elems] for x in elems])


# all six backends, with S1, where ``itemgetter`` with one index would return
# a scalar, S2, and a direct product with a symmetric factor
LOOP_BACKENDS = [
    CyclicGroup(1),
    CyclicGroup(12),
    DihedralGroup(5),
    SymmetricGroup(1),
    SymmetricGroup(2),
    SymmetricGroup(4),
    HeisenbergGroup(3),
    DirectProductGroup([SymmetricGroup(3), CyclicGroup(2)]),
    _table_of(SymmetricGroup(3)),
]


@pytest.mark.parametrize("group", LOOP_BACKENDS, ids=lambda g: repr(g.describe()))
def test_loop_kernels_are_the_double_loop_over_multiply(monkeypatch, group, stream):
    # cyclic, dihedral and Heisenberg sets take the loop here, not the masks
    monkeypatch.setattr(group, "mask_kernel", None)
    mul = group.multiply

    def inv(x):
        return encoded_inverse(group, x)

    def times(xs, ys):
        return {mul(x, y) for x in xs for y in ys}

    for _ in range(6):
        a, b, t = (draw_subset(group, 1 + stream.below(min(group.order, 8)), stream) for _ in range(3))
        pairs = [(u, mul(u, v)) for u in a for v in b]
        assert product(a, b).elements == tuple(sorted(times(a, b)))
        # A ∩ tA for each t of AA⁻¹, by the double loop over (u, v⁻¹)
        overlaps = conv_table(a)
        level, overlap = level_set(a, 2)
        assert level.elements == tuple(sorted(x for x, terms in overlaps.items() if len(terms) >= 2))
        # the lookup, keyed on forms, yields each overlap from both ends of its canonical order
        to, back = group.to_form, group.from_form
        assert all([back(u) for u in overlap(to(x))] == from_both_ends(overlaps[x]) for x in level)
        # the rows number AB in first-seen order over the same double loop
        index: dict = {}
        for _, x in pairs:
            index.setdefault(x, len(index))
        p, row = row_product(a, b)
        assert p.elements == tuple(sorted(index))
        for u in a:
            assert row(to(u)) == sum(1 << index[mul(u, v)] for v in b)
        assert outside(a, t, b) == sum(1 for x in a if not any(mul(x, v) in t for v in b))
        square = times(a, a)
        s = doubling_stats(a)
        assert (s.product_size, s.inverse_product_size, s.quad_size) == (
            len(square),
            len(times(a, [inv(x) for x in a])),
            len(times(square, [inv(x) for x in square])),
        )


def _shuffled(items, stream):
    """The items in the order of a Fisher-Yates shuffle drawn from ``stream``."""
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


@pytest.mark.parametrize("group", LOOP_BACKENDS, ids=lambda g: repr(g.describe()))
def test_loop_times_finishes_near_whole_products_on_the_complement(monkeypatch, group):
    # X is each prefix of one shuffle of G and Y each prefix of it or of a
    # second shuffle, shorter or longer than X: the loop translates X by
    # each y either way.  The walk below replays its switch with the double
    # loop: after the j-th translate, the product misses gap < |X| elements.
    # A pair finishes on the complement when a y is left after the switch
    # and gap > 0, with Y longer than X too.
    mul, n = group.multiply, group.order
    stream = CounterStream(0)
    xorder = _shuffled(group.elements(), stream)
    base = Loop(group)
    cases = set()
    for yorder in (xorder, _shuffled(group.elements(), stream)):
        for k in range(1, n + 1):
            xs, walk, switch = xorder[:k], set(), None
            for j in range(1, n + 1):
                ys = yorder[:j]
                walk |= {mul(x, ys[-1]) for x in xs}
                if switch is None and n - len(walk) < k:
                    switch = (j, n - len(walk))
                assert _loop_product(group.loop, xs, ys) == walk
                with monkeypatch.context() as m:
                    seen = count_law(m, type(group))
                    assert _loop_product(base, xs, ys) == walk
                assert seen["multiplies"] <= k * j
                if switch is None:
                    cases.add("far")
                elif switch[0] < j and switch[1] > 0:
                    cases.add({n: "whole", n - 1: "one short"}.get(len(walk), "finished"))
                    if switch[1] == k - 1:
                        cases.add("at the switch")
                    if j > k:
                        cases.add("Y longer")
    # in a group of order 1 or 2, a product that misses fewer than |X| misses none
    assert {"far", "whole", "one short", "at the switch", "Y longer"} <= cases if n > 2 else cases <= {"far"}


@given(st.data())
def test_loop_times_is_the_double_loop_within_the_pairs_charged(data):
    group = data.draw(st.sampled_from(LOOP_BACKENDS), label="group")
    indices = st.lists(st.integers(0, group.order - 1), min_size=1, unique=True)
    xs = [group.element_at(i) for i in data.draw(indices, label="xs")]
    ys = [group.element_at(i) for i in data.draw(indices, label="ys")]
    expected = {group.multiply(x, y) for x in xs for y in ys}
    assert _loop_product(group.loop, xs, ys) == expected
    with pytest.MonkeyPatch.context() as m:
        seen = count_law(m, type(group))
        assert _loop_product(Loop(group), xs, ys) == expected
    assert seen["multiplies"] <= len(xs) * len(ys)


S6_RANDOM_10 = [{"group":{"type": "symmetric", "n": 6}, "set": {"type": "random", "size": 10, "seed": seed}}
                for seed in range(3)]


def _count_conversions(monkeypatch, group) -> dict:
    """Count ``group``'s calls of ``to_form`` and ``from_form``, patched on the group itself."""
    calls = {"to_form": 0, "from_form": 0}
    for name in calls:

        def counted(x, real=getattr(group, name), name=name):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(group, name, counted)
    return calls


@pytest.mark.parametrize("spec", S6_RANDOM_10, ids=lambda spec: f"seed{spec['set']['seed']}")
def test_doubling_stats_on_s6_encodes_no_element(monkeypatch, spec):
    # the set holds its forms, so the stats convert nothing either way
    a = generate(spec)
    calls = _count_conversions(monkeypatch, a.group)
    stats = doubling_stats(a)
    assert calls == {"to_form": 0, "from_form": 0}
    monkeypatch.undo()
    _base_loop(monkeypatch, a.group)
    assert doubling_stats(a) == stats


def test_no_kernel_call_converts_an_element(monkeypatch):
    # every operand and every result is a set of forms; the sets are built first, and so
    # is the identity's form, a constant of the group that a Heisenberg group converts
    # from the all-zero tuple once, on first read
    for g in (SymmetricGroup(6), CyclicGroup(40), DihedralGroup(20), HeisenbergGroup(3)):
        a, b, t = (random_set(g, 10, seed) for seed in range(3))
        g.identity_form
        for side in ("loop", "kronecker", "popcount"):
            with monkeypatch.context() as m, on_side(side):
                calls = _count_conversions(m, g)
                product(a, b)
                g.loop.level_set(a, 1)
                level, overlap = level_set(a, 2)
                for x in level.forms:
                    list(overlap(x))
                p, row = row_product(a, b)
                for u in a.forms:
                    row(u)
                outside(a, t, b)
                doubling_stats(a)
                inverse_set(a)
                a.is_symmetric()
                a.contains_identity()
                assert calls == {"to_form": 0, "from_form": 0}, (g, side)


# -- the kernels' set-level protocol ----------------------------------------------

#: (kernel class, group) for every kernel class: the base loop on every
#: backend's forms, the one-line loop of S_n, and the three mask kernels, each
#: on its smallest group and a larger one
PROTOCOL_CASES = [
    (Loop, CyclicGroup(1)),
    (Loop, CyclicGroup(24)),
    (Loop, DihedralGroup(1)),
    (Loop, DihedralGroup(12)),
    (Loop, HeisenbergGroup(3)),
    (Loop, SymmetricGroup(1)),
    (Loop, DirectProductGroup([CyclicGroup(4), DihedralGroup(5)])),
    (Loop, DirectProductGroup([DirectProductGroup([SymmetricGroup(3), CyclicGroup(2)]), DihedralGroup(2)])),
    (Loop, _table_of(DihedralGroup(3))),
    (Loop, _table_of(SymmetricGroup(3))),
    (OneLine, SymmetricGroup(2)),
    (OneLine, SymmetricGroup(4)),
    (CyclicMasks, CyclicGroup(1)),
    (CyclicMasks, CyclicGroup(24)),
    (DihedralMasks, DihedralGroup(1)),
    (DihedralMasks, DihedralGroup(12)),
    (HeisenbergMasks, HeisenbergGroup(2)),
    (HeisenbergMasks, HeisenbergGroup(5)),
]


@pytest.mark.parametrize("kind, group", PROTOCOL_CASES, ids=lambda v: v.__name__ if isinstance(v, type) else repr(v.describe()))
def test_each_kernel_presents_the_set_protocol_as_multiply_does(kind, group):
    kernel = group.masks if issubclass(kind, masks.Rotations) else group.loop
    assert type(kernel) is kind
    mul, to = group.multiply, group.to_form
    rng = random.Random(group.order)

    def draw():
        return GSet(group, [group.element_at(i) for i in rng.sample(range(group.order), rng.randint(0, group.order))])

    for _ in range(8):
        a, b = draw(), draw()
        fa, fb = kernel.form(a), kernel.form(b)
        # the kernel reads and decodes to the forms the sets hold
        assert kernel.decode(fa) == list(a.forms)
        assert kernel.count(fa) == len(a)
        assert kernel.decode(fa | fb) == sorted(set(a.forms) | set(b.forms))
        assert kernel.decode(fa & fb) == sorted(set(a.forms) & set(b.forms))
        assert kernel.count(fa | fb) == len(set(a) | set(b))
        assert kernel.count(fa & fb) == len(set(a) & set(b))
        left = kernel.lefts(fa)
        for y, member in zip(b.elements, b.forms):
            assert kernel.decode(kernel.right(fa, member)) == sorted({to(mul(x, y)) for x in a})
            assert kernel.decode(left(member)) == sorted({to(mul(y, x)) for x in a})


def _tests_the_kernel(test: ast.expr, chosen: set[str]) -> bool:
    """Whether a condition reads a name bound to a chosen kernel, a group's kernels, or a type."""
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and (node.id in chosen or node.id in ("isinstance", "type")):
            return True
        if isinstance(node, ast.Attribute) and node.attr in ("masks", "loop", "mask_kernel", "loop_kernel"):
            return True
    return False


def test_no_public_gset_function_branches_on_its_kernel():
    tree = ast.parse(Path(gset.__file__).read_text())
    public = [node for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert {"product", "level_set", "row_product", "outside", "doubling_stats", "inverse_set"} <= {f.name for f in public}
    for function in public:
        chosen = {"kernel"} | {
            target.id
            for node in ast.walk(function)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name) and node.value.func.id == "_kernel"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        branches = [node for node in ast.walk(function) if isinstance(node, (ast.If, ast.IfExp))]
        assert not [ast.unparse(b.test) for b in branches if _tests_the_kernel(b.test, chosen)], function.name
    # the kernels' own strategies stay in the kernels
    calls = {node.func.attr for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not calls & {"widen", "spread", "at_least", "forms", "factors"}


# -- pair budget --------------------------------------------------------------


def test_budget_blocks_large_products():
    set_pair_budget(10)
    try:
        with pytest.raises(PairBudgetError) as info:
            product(INTERVAL, INTERVAL)
        assert info.value.needed == 25
        assert info.value.budget == 10
    finally:
        set_pair_budget(None)


def test_budget_allows_within_limit():
    set_pair_budget(25)
    try:
        assert len(product(INTERVAL, INTERVAL)) == 9
    finally:
        set_pair_budget(None)
