"""Exact set arithmetic: products, convolutions, energies, doubling stats."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth.errors import (
    EmptySetError,
    GroupMismatchError,
    InvalidElementError,
    PairBudgetError,
    ParameterError,
)
from symgrowth.groups import CyclicGroup, DihedralGroup, HeisenbergGroup
from symgrowth.gset import (
    GSet,
    conv_table,
    conv_value,
    doubling_stats,
    inverse_set,
    overlap_masks,
    pair_energy,
    pick_bits,
    power,
    product,
    row_product,
    set_pair_budget,
)
from symgrowth.oracle import oracle_conv_table, oracle_product, oracle_quadruples
from symgrowth.prng import CounterStream

from conftest import draw_subset, small_group_pool

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


def test_group_mismatch_is_rejected():
    a = GSet(C20, [(1,)])
    b = GSet(CyclicGroup(21), [(1,)])
    with pytest.raises(GroupMismatchError):
        product(a, b)
    with pytest.raises(GroupMismatchError):
        a.union(b)


def test_union_intersect_subset():
    a = GSet(C20, [(1,), (2,)])
    b = GSet(C20, [(2,), (3,)])
    assert a.union(b).elements == ((1,), (2,), (3,))
    assert a.intersect(b).elements == ((2,),)
    assert a.intersect(b).subset_of(a)
    assert not a.subset_of(b)


def test_symmetry_and_identity_flags():
    assert GSet(C20, [(0,), (1,), (19,)]).is_symmetric()
    assert not GSet(C20, [(0,), (1,)]).is_symmetric()
    assert GSet(C20, [(0,)]).contains_identity()
    assert not GSet(C20, [(5,)]).contains_identity()


def test_translate_left_in_nonabelian_group():
    d4 = DihedralGroup(4)
    a = GSet(d4, [(1, 0), (0, 1)])
    s = (0, 1)
    # s * r = r^-1 s, s * s = e
    assert set(a.translate_left(s).elements) == {(3, 1), (0, 0)}


def test_density():
    assert INTERVAL.density() == Fraction(1, 4)


def test_require_nonempty():
    with pytest.raises(EmptySetError):
        GSet(C20, []).require_nonempty("test set")


# -- product sets -------------------------------------------------------------


def test_interval_product_is_longer_interval():
    assert product(INTERVAL, INTERVAL) == interval(C20, 0, 9)


def test_subgroup_is_product_stable():
    h = GSet(C20, [(0,), (4,), (8,), (12,), (16,)])
    assert product(h, h) == h
    assert inverse_set(h) == h


def test_product_with_empty_is_empty():
    empty = GSet(C20, [])
    assert product(INTERVAL, empty).is_empty()
    assert product(empty, INTERVAL).is_empty()


def test_inverse_set_examples():
    assert inverse_set(GSet(C20, [(1,), (3,)])).elements == ((17,), (19,))
    d4 = DihedralGroup(4)
    assert set(inverse_set(GSet(d4, [(1, 0), (0, 1)])).elements) == {(3, 0), (0, 1)}


def test_power_examples():
    a = GSet(C20, [(0,), (1,)])
    assert power(a, 3) == interval(C20, 0, 4)
    assert power(a, 1) == a
    assert power(a, 0) == GSet(C20, [(0,)])
    d6 = DihedralGroup(6)
    rs = GSet(d6, [(1, 0), (0, 1)])
    assert set(power(rs, 2).elements) == {(0, 0), (2, 0), (1, 1), (5, 1)}


def test_power_of_empty_set():
    empty = GSet(C20, [])
    assert power(empty, 3).is_empty()
    assert power(empty, 0) == GSet(C20, [(0,)])


def test_power_rejects_bad_exponents():
    for bad in (-1, True, "2", 1.5):
        with pytest.raises(ParameterError):
            power(INTERVAL, bad)


def test_product_matches_oracle_on_random_draws(stream):
    for group in small_group_pool():
        for _ in range(5):
            a = draw_subset(group, 1 + stream.below(6), stream)
            b = draw_subset(group, 1 + stream.below(6), stream)
            got = product(a, b)
            assert got.elements == oracle_product(group, a.elements, b.elements)


# -- convolution --------------------------------------------------------------


def test_conv_value_examples():
    binv = inverse_set(INTERVAL)
    assert conv_value(INTERVAL, binv, (0,)) == 5
    assert conv_value(INTERVAL, binv, (1,)) == 4
    assert conv_value(INTERVAL, binv, (4,)) == 1
    assert conv_value(INTERVAL, binv, (10,)) == 0


def test_conv_value_equals_intersection_size():
    # 1_A * 1_B (x) = |A ∩ x B^-1|
    g = DihedralGroup(5)
    st_ = CounterStream(3)
    for _ in range(20):
        a = draw_subset(g, 1 + st_.below(5), st_)
        b = draw_subset(g, 1 + st_.below(5), st_)
        x = g.element_at(st_.below(g.order))
        lhs = conv_value(a, b, x)
        xbinv = inverse_set(b).translate_left(x)
        assert lhs == len(a.intersect(xbinv))


def test_conv_table_small_example():
    c4 = CyclicGroup(4)
    a = GSet(c4, [(0,), (1,)])
    t = conv_table(a, a)
    assert t.counts == {(0,): 1, (1,): 2, (2,): 1}
    assert t.total() == 4
    assert t.energy() == 6
    assert t.value((3,)) == 0


def test_conv_table_support_is_product_set():
    for group in small_group_pool()[:4]:
        st_ = CounterStream(11)
        a = draw_subset(group, 4, st_)
        b = draw_subset(group, 5, st_)
        t = conv_table(a, b)
        assert t.support() == product(a, b)
        assert t.total() == len(a) * len(b)
        assert all(n > 0 for n in t.counts.values())


def test_conv_table_on_subgroup_is_flat():
    h = GSet(C20, [(0,), (5,), (10,), (15,)])
    t = conv_table(h, h)
    assert set(t.counts.values()) == {4}
    assert t.support() == h


def test_conv_table_matches_oracle(stream):
    for group in small_group_pool():
        a = draw_subset(group, 1 + stream.below(6), stream)
        b = draw_subset(group, 1 + stream.below(6), stream)
        assert conv_table(a, b).counts == oracle_conv_table(group, a.elements, b.elements)


# -- bitmask kernels -----------------------------------------------------------


def test_pick_bits_reads_positions_low_bit_first():
    assert pick_bits(("a", "b", "c", "d"), 0b1010) == ["b", "d"]
    assert pick_bits(("a",), 0) == []


def test_overlap_masks_are_the_convolution_table(stream):
    # bit i of the mask at t marks the i-th element of A as lying in A ∩ tA
    for group in small_group_pool():
        a = draw_subset(group, 1 + stream.below(8), stream)
        masks = overlap_masks(a)
        counts = conv_table(a, inverse_set(a)).counts
        assert {t: m.bit_count() for t, m in masks.items()} == counts
        for t, m in masks.items():
            assert a.pick(m) == a.intersect(a.translate_left(t))


def test_row_product_covers_subset_products(stream):
    for group in small_group_pool():
        a = draw_subset(group, 1 + stream.below(8), stream)
        b = draw_subset(group, 1 + stream.below(8), stream)
        rows = row_product(a, b)
        assert rows.support() == product(a, b)
        for _ in range(5):
            mask = stream.below(1 << len(a))
            sub = a.pick(mask)
            assert rows.pick(rows.cover(mask)) == product(sub, b)


def test_kernels_charge_their_multiplications():
    set_pair_budget(24)
    try:
        with pytest.raises(PairBudgetError) as info:
            overlap_masks(INTERVAL)
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
    e = conv_table(a, a).energy()
    assert e >= Fraction(len(a) ** 4, len(product(a, a)))


def test_energy_frozen_interval_value():
    t = conv_table(INTERVAL, INTERVAL)
    assert t.energy() == 85
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
