"""Symmetry sets: threshold semantics, structural properties, invariants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth.errors import EmptySetError, ParameterError
from symgrowth.groups import CyclicGroup, DihedralGroup
from symgrowth.gset import GSet, inverse_set, level_set, product
from symgrowth.growth import shrink_step
from symgrowth.symmetry import check_eta, sym_set

from conftest import (
    SIDES,
    check_iterated_power,
    check_nesting,
    check_submultiplicativity,
    conv_table,
    draw_fraction,
    draw_subset,
    on_side,
    small_group_pool,
)

C20 = CyclicGroup(20)
INTERVAL = GSet(C20, [(i,) for i in range(5)])


def members(a, eta):
    return set(sym_set(a, eta).elements)


def test_check_eta_accepts_rationals():
    assert check_eta(Fraction(2, 3)) == Fraction(2, 3)
    assert check_eta(1) == 1
    assert check_eta("2/3") == Fraction(2, 3)
    # strings are read as parse_fraction reads them: no decimals, no zero denominators
    for bad in (0, -1, Fraction(21, 20), 2, "0.3", "abc", "1/0", [1]):
        with pytest.raises(ParameterError):
            check_eta(bad)


@pytest.mark.parametrize("inexact", [0.1, 0.5, 1.0, True])
def test_check_eta_refuses_floats_and_bools(inexact):
    with pytest.raises(ParameterError):
        check_eta(inexact)
    with pytest.raises(ParameterError):
        sym_set(INTERVAL, inexact)
    with pytest.raises(ParameterError):
        shrink_step(INTERVAL, INTERVAL, inexact)


def test_overlap_counts_shifted_intersection():
    overlaps = conv_table(INTERVAL, inverse_set(INTERVAL))
    assert overlaps[(0,)] == list(INTERVAL)
    assert overlaps[(2,)] == [(2,), (3,), (4,)]
    assert overlaps[(18,)] == [(0,), (1,), (2,)]   # shift by -2
    assert (10,) not in overlaps                   # A and 10 + A are disjoint
    # the level set at 1 is AA⁻¹, and its lookup yields the same overlaps, on every kernel
    for side in SIDES:
        with on_side(side):
            level, overlap = level_set(GSet(C20, INTERVAL.elements), 1)
        assert level == GSet(C20, overlaps)
        for t in level:
            assert sorted(map(C20.from_form, overlap(C20.to_form(t)))) == overlaps[t]


def test_interval_symmetry_sets():
    # |A ∩ tA| = 5 - |t| for shifts by t in -4..4, so thresholds pick out
    # symmetric windows around the identity.
    assert members(INTERVAL, Fraction(4, 5)) == {(0,), (1,), (19,)}
    assert members(INTERVAL, Fraction(3, 5)) == {(0,), (1,), (2,), (18,), (19,)}
    assert members(INTERVAL, 1) == {(0,)}


def test_tiny_threshold_gives_whole_difference_set():
    got = sym_set(INTERVAL, Fraction(1, 5))
    assert got == product(INTERVAL, inverse_set(INTERVAL))


def test_threshold_comparison_is_non_strict():
    # at eta = 3/5 the shift by 2 hits exactly 3 = eta * |A| points and must
    # be included
    assert (2,) in members(INTERVAL, Fraction(3, 5))
    assert (3,) not in members(INTERVAL, Fraction(3, 5))


def test_subgroup_symmetry_set_is_subgroup():
    h = GSet(C20, [(0,), (4,), (8,), (12,), (16,)])
    for eta in (Fraction(1, 5), Fraction(1, 2), 1):
        assert sym_set(h, eta) == h


def test_sym_set_requires_nonempty_base():
    with pytest.raises(EmptySetError):
        sym_set(GSet(C20, []), Fraction(1, 2))


def test_symmetry_set_invariants_on_random_draws(stream):
    for group in small_group_pool():
        for _ in range(4):
            a = draw_subset(group, 1 + stream.below(7), stream)
            eta = draw_fraction(stream)
            got = sym_set(a, eta)
            assert got.contains_identity()
            assert got.is_symmetric()
            assert got.subset_of(product(a, inverse_set(a)))


def test_nesting_worked_example():
    assert check_nesting(INTERVAL, Fraction(4, 5), Fraction(3, 5))
    with pytest.raises(ParameterError):
        check_nesting(INTERVAL, Fraction(3, 5), Fraction(4, 5))


def test_submultiplicativity_worked_example():
    # slack 1/5 twice: sym(A,4/5)^2 lands inside sym(A,3/5); here they agree
    assert check_submultiplicativity(INTERVAL, Fraction(1, 5), Fraction(1, 5))
    s45 = sym_set(INTERVAL, Fraction(4, 5))
    s35 = sym_set(INTERVAL, Fraction(3, 5))
    assert product(s45, s45) == s35


def test_submultiplicativity_rejects_bad_slacks():
    with pytest.raises(ParameterError):
        check_submultiplicativity(INTERVAL, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ParameterError):
        check_submultiplicativity(INTERVAL, Fraction(-1, 5), Fraction(1, 5))


def test_iterated_power_worked_example():
    assert check_iterated_power(INTERVAL, Fraction(1, 5), 3)
    d5 = DihedralGroup(5)
    ball = GSet(d5, [(0, 0), (1, 0), (4, 0), (0, 1)])
    assert check_iterated_power(ball, Fraction(1, 4), 2)


def test_iterated_power_rejects_large_total_slack():
    with pytest.raises(ParameterError):
        check_iterated_power(INTERVAL, Fraction(1, 5), 5)
    with pytest.raises(ParameterError):
        check_iterated_power(INTERVAL, Fraction(1, 5), 0)


@given(
    st.integers(min_value=4, max_value=30),
    st.sets(st.integers(min_value=0, max_value=29), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=11),
)
def test_nesting_property(n, raw, num_hi, num_lo):
    a = GSet(CyclicGroup(n), [(v % n,) for v in raw])
    hi, lo = max(num_hi, num_lo), min(num_hi, num_lo)
    assert check_nesting(a, Fraction(hi, 12), Fraction(lo, 12))


@given(
    st.integers(min_value=4, max_value=24),
    st.sets(st.integers(min_value=0, max_value=23), min_size=2, max_size=7),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
def test_submultiplicativity_property(n, raw, num_a, num_b):
    a = GSet(CyclicGroup(n), [(v % n,) for v in raw])
    assert check_submultiplicativity(a, Fraction(num_a, 12), Fraction(num_b, 12))


@given(
    st.integers(min_value=4, max_value=24),
    st.sets(st.integers(min_value=0, max_value=23), min_size=2, max_size=6),
    st.integers(min_value=2, max_value=4),
)
def test_iterated_power_property(n, raw, k):
    a = GSet(CyclicGroup(n), [(v % n,) for v in raw])
    assert check_iterated_power(a, Fraction(1, 2 * k), k)


def test_nonabelian_submultiplicativity(stream):
    for group in (DihedralGroup(6), DihedralGroup(8)):
        for _ in range(10):
            a = draw_subset(group, 2 + stream.below(6), stream)
            assert check_submultiplicativity(a, Fraction(1, 4), Fraction(1, 3))
            assert check_iterated_power(a, Fraction(1, 4), 3)
