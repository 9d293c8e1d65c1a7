"""Brute-force oracles and the certificate verifier."""

import ast
import copy
import decimal
import functools
import json
import math
import random
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgrowth.errors import CertificateFormatError, PairBudgetError, ParameterError
from symgrowth.groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    HeisenbergGroup,
    SymmetricGroup,
    TableGroup,
)
from symgrowth import budget, gset, masks, oracle
from symgrowth.budget import set_pair_budget
from symgrowth.gset import GSet, inverse_set, outside
from symgrowth.instances import generate
from symgrowth.serialize import parse_fraction
from symgrowth.growth import stable_neighbourhood
from symgrowth.oracle import (
    VerificationReport,
    oracle_inverse,
    oracle_outside,
    oracle_overlaps,
    oracle_power,
    oracle_product,
    oracle_sym_counts,
    termination_cap,
    verify_certificate,
)
from symgrowth.symmetry import sym_set

from conftest import (
    SIDES,
    CounterStream,
    conv_table,
    draw_subset,
    failures,
    one_line,
    oracle_conv_table,
    oracle_conv_value,
    oracle_level_set,
    oracle_overlap,
    oracle_quadruples,
    oracle_sym_members,
    reference_scan,
    small_group_pool,
    termination_cap_by_bisection,
)

C20 = CyclicGroup(20)
INTERVAL = GSet(C20, [(i,) for i in range(5)])


def fresh_cert(a=INTERVAL, k=2):
    return stable_neighbourhood(a, k).to_json_dict()


# -- the oracles themselves ---------------------------------------------------


def test_oracle_product_and_inverse():
    a = [(0,), (1,), (2,), (3,), (4,)]
    assert oracle_product(C20, a, a) == tuple((i,) for i in range(9))
    assert oracle_inverse(C20, [(1,), (3,)]) == ((17,), (19,))
    assert oracle_power(C20, [(0,), (1,)], 3) == ((0,), (1,), (2,), (3,))
    assert oracle_power(C20, [(7,)], 0) == ((0,),)


def test_oracle_power_stops_once_the_power_is_stable(monkeypatch):
    c12 = CyclicGroup(12)
    calls = []
    real = oracle.oracle_product

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "oracle_product", counting)
    assert oracle_power(c12, [(0,), (1,)], 10**6) == tuple((i,) for i in range(12))
    assert len(calls) <= 12


def test_oracle_power_of_a_singleton_keeps_moving():
    # {x}^j has size 1 for every j but is a different set at each step
    assert oracle_power(CyclicGroup(12), [(1,)], 5) == ((5,),)


def test_oracle_power_dihedral_example():
    # r * s = rs and s * r = r^-1 s in D6, so {r, s}^2 is not abelian-shaped
    assert oracle_power(DihedralGroup(6), [(1, 0), (0, 1)], 2) == ((0, 0), (1, 1), (2, 0), (5, 1))


def test_oracle_power_of_empty_set():
    assert oracle_power(C20, [], 3) == ()
    assert oracle_power(C20, [], 0) == ((0,),)


def test_oracle_power_rejects_bad_exponents():
    for bad in (-1, True, "2", 1.5):
        with pytest.raises(ParameterError):
            oracle_power(C20, [(0,), (1,)], bad)


def test_oracle_power_equals_the_plain_product_with_and_without_the_identity(stream):
    # past the first equal-size step a set without the identity only
    # translates, which oracle_power jumps over; the plain fold does not
    cases = 0
    for group in small_group_pool():
        mul = group.multiply
        for _ in range(3):
            drawn = set(draw_subset(group, 1 + stream.below(4), stream).elements)
            for a in (drawn | {group.identity}, drawn - {group.identity}):
                if not a:
                    continue
                plain = set(a)
                for k in range(1, 2 * group.order + 2):
                    assert oracle_power(group, a, k) == tuple(sorted(plain)), (group, sorted(a), k)
                    plain = {mul(x, y) for x in plain for y in a}
                    cases += 1
    assert cases > 1000


def test_oracle_power_charges_its_element_power_before_multiplying(monkeypatch):
    # {1, 4}^j in C12 is {j + 3i : 0 <= i <= j}, the whole coset j + 3Z from j = 3 on
    power, seen = _metered(monkeypatch, CyclicGroup, lambda: oracle_power(CyclicGroup(12), [(1,), (4,)], 10**6))
    assert power == ((1,), (4,), (7,), (10,))
    assert seen["most_ahead"] == 0
    assert seen["multiplies"] < 100


def test_oracle_conv_value_and_table():
    c4 = CyclicGroup(4)
    a = [(0,), (1,)]
    assert oracle_conv_value(c4, a, a, (1,)) == 2
    assert oracle_conv_value(c4, a, a, (3,)) == 0
    assert oracle_conv_table(c4, a, a) == {(0,): 1, (1,): 2, (2,): 1}


def test_oracle_quadruples_by_hand():
    # counts of u+v over {0,1} are 1,2,1, so the quadruple count is 1+4+1
    c4 = CyclicGroup(4)
    a = [(0,), (1,)]
    assert oracle_quadruples(c4, a, a, a, a) == 6
    h = [(0,), (2,), (4,), (6,)]
    assert oracle_quadruples(CyclicGroup(8), h, h, h, h) == 64


def test_oracle_overlap_and_level_set():
    a = INTERVAL.elements
    assert oracle_overlap(C20, a, (2,)) == 3
    level = oracle_level_set(C20, a, Fraction(25, 18))
    assert set(level) == {(0,), (1,), (2,), (3,), (17,), (18,), (19,)}


def test_oracle_sym_members_matches_fast_path():
    for group in (C20, DihedralGroup(6), HeisenbergGroup(3)):
        pool = [group.element_at(i) for i in range(0, group.order, 3)]
        a = GSet(group, pool)
        for eta in (Fraction(1, 3), Fraction(2, 3), 1):
            fast = sym_set(a, eta).elements
            slow = oracle_sym_members(group, a.elements, eta)
            assert fast == slow


def _table_copy(group):
    """The same group as a TableGroup, indexed in encoding order."""
    elems = [group.element_at(i) for i in range(group.order)]
    index = {x: i for i, x in enumerate(elems)}
    return TableGroup([[index[group.multiply(x, y)] for y in elems] for x in elems])


def _involution_sets():
    """Sets made mostly of involutions, where each t⁻¹ is t and its count is 2h(t)."""
    d8 = DihedralGroup(8)
    s4 = SymmetricGroup(4)
    transpositions = [x for x in map(s4.element_at, range(s4.order))
                      if sum(i != p for i, p in enumerate(one_line(s4, x))) == 2]
    c2_cubed = DirectProductGroup([CyclicGroup(2)] * 3)
    s3_table = _table_copy(SymmetricGroup(3))
    assert len(transpositions) == 6
    return [
        pytest.param(d8, [(a, 1) for a in range(8)], id="d8-reflections"),
        pytest.param(d8, [(0, 0), (1, 1), (2, 1), (5, 1)], id="d8-reflections-and-e"),
        pytest.param(s4, transpositions, id="s4-transpositions"),
        pytest.param(c2_cubed, [c2_cubed.element_at(i) for i in (1, 2, 4, 7)], id="c2xc2xc2"),
        pytest.param(s3_table, [x for x in map(s3_table.element_at, range(6))
                                if x != s3_table.identity and s3_table.multiply(x, x) == s3_table.identity],
                     id="s3-table-involutions"),
    ]


def _sym_member_cases():
    # one set on each of the six backends, then sets of involutions, then |X| = 1 and X = G
    d6, s4, h3 = DihedralGroup(6), SymmetricGroup(4), HeisenbergGroup(3)
    c4xd3 = DirectProductGroup([CyclicGroup(4), DihedralGroup(3)])
    s3_table = _table_copy(SymmetricGroup(3))
    on_backends = [
        pytest.param(C20, [(0,), (1,), (2,), (3,), (7,), (11,)], id="cyclic"),
        pytest.param(d6, [(0, 0), (1, 0), (2, 1), (3, 1), (5, 0)], id="dihedral"),
        pytest.param(s4, [s4.element_at(i) for i in (0, 3, 5, 9, 14, 22)], id="symmetric"),
        pytest.param(h3, [h3.element_at(i) for i in (0, 1, 4, 10, 13, 26)], id="heisenberg"),
        pytest.param(c4xd3, [c4xd3.element_at(i) for i in (0, 2, 5, 7, 11, 18)], id="direct-product"),
        pytest.param(s3_table, [s3_table.element_at(i) for i in (0, 1, 3)], id="table"),
    ]
    edges = [
        pytest.param(d6, [(4, 1)], id="singleton"),
        pytest.param(s3_table, [s3_table.element_at(i) for i in range(6)], id="whole-s3-table"),
        pytest.param(h3, [h3.element_at(i) for i in range(27)], id="whole-h3"),
    ]
    return on_backends + _involution_sets() + edges


@pytest.mark.parametrize("group, a", _sym_member_cases())
def test_oracle_sym_members_equals_the_count_by_definition(group, a):
    # at each threshold equal to some |X ∩ tX|, and one above it
    everything = [group.element_at(i) for i in range(group.order)]
    counts = {t: oracle_overlap(group, a, t) for t in everything}
    n = len(a)
    for c in sorted(set(counts.values()) - {0}):
        for least in (c, c + 1):
            by_definition = tuple(sorted(t for t, count in counts.items() if count >= least))
            assert oracle_sym_members(group, reversed(a), Fraction(least, n)) == by_definition, (least, n)


def test_oracle_sym_members_multiplies_each_unordered_pair_once(monkeypatch):
    # |X ∩ tX| = |X ∩ t⁻¹X|, so the pairs u < w fix every count; the charge
    # is still the |X|² of the ordered loop, made before any multiplication
    for group, n in ((DihedralGroup(30), 17), (SymmetricGroup(5), 23), (CyclicGroup(50), 1)):
        a = [group.element_at(i) for i in range(0, 2 * n, 2)]
        members, seen = _metered(monkeypatch, type(group), lambda: oracle_sym_members(group, a, Fraction(1, 2)))
        assert members == oracle_level_set(group, a, Fraction(n, 2))
        assert seen["multiplies"] == n * (n - 1) // 2
        assert seen["charged"] == seen["largest_charge"] == n * n
        assert seen["most_ahead"] == 0


def test_oracle_sym_counts_are_the_overlaps_of_every_quotient(stream):
    # the keys are XX⁻¹, built by a double loop, and each count is |X ∩ tX|
    # as the ordered loop of oracle_overlaps lists it, on all six backends
    groups = small_group_pool() + [DirectProductGroup([CyclicGroup(4), DihedralGroup(3)]), _table_copy(DihedralGroup(6))]
    for group in groups:
        for _ in range(4):
            a = draw_subset(group, 1 + stream.below(min(group.order, 12)), stream).elements
            counts = oracle_sym_counts(group, reversed(a))
            assert tuple(sorted(counts)) == oracle_product(group, a, oracle_inverse(group, a))
            overlaps = oracle_overlaps(group, a)
            assert counts == {t: len(inside) for t, inside in overlaps.items()}


def test_oracle_overlap_agrees_with_fast_overlap():
    d6 = DihedralGroup(6)
    a = GSet(d6, [(0, 0), (1, 0), (0, 1), (2, 1)])
    table = conv_table(a, inverse_set(a))
    for i in range(d6.order):
        t = d6.element_at(i)
        assert len(table.get(t, ())) == oracle_overlap(d6, a.elements, t)


def test_oracle_quadruples_respects_budget():
    set_pair_budget(10)
    try:
        with pytest.raises(PairBudgetError):
            oracle_quadruples(C20, INTERVAL, INTERVAL, INTERVAL, INTERVAL)
    finally:
        set_pair_budget(None)


def test_termination_cap_values():
    assert termination_cap(Fraction(9, 5), Fraction(1, 10)) == 6
    assert termination_cap(Fraction(9, 5), Fraction(1, 2)) == 1
    assert termination_cap(Fraction(9, 5), Fraction(1, 3)) == 2
    assert termination_cap(1, Fraction(1, 2)) == 0
    assert termination_cap(Fraction(1, 2), Fraction(1, 2)) == 0
    assert termination_cap(Fraction(100), Fraction(1, 1)) == 1  # eps = 1 stops at once


def _descent_cap(k0, eps):
    """The cap by exact rational descent, one multiplication by 1-eps at a time."""
    value, m = Fraction(k0), 0
    while value > 1:
        value *= 1 - Fraction(eps)
        m += 1
        if eps == 1:
            break
    return m


def test_termination_cap_agrees_with_the_descent_on_a_grid():
    for k0 in {Fraction(n, d) for n in range(1, 41) for d in range(1, 9)}:
        for eps in {Fraction(n, d) for d in range(1, 13) for n in range(1, d + 1)}:
            assert termination_cap(k0, eps) == _descent_cap(k0, eps), (k0, eps)


def test_termination_cap_is_fast_at_large_k():
    # the descent takes about k·log K0 steps with growing denominators
    start = time.perf_counter()
    cap = termination_cap(Fraction(9, 5), Fraction(1, 10**6 + 1))
    assert time.perf_counter() - start < 0.25
    assert cap == 587787
    assert termination_cap(Fraction(9, 5), Fraction(1, 10**4 + 1)) == _descent_cap(Fraction(9, 5), Fraction(1, 10**4 + 1))


@pytest.mark.parametrize("k", [10**22, 10**30, 10**60])
def test_termination_cap_is_fast_at_astronomical_k(k):
    # the cap is the ceiling of log K0 / -log(1 - eps), evaluated here in 120-digit decimals
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        expected = math.ceil((Decimal(9) / 5).ln() / -(1 - Decimal(1) / (k + 1)).ln())
    start = time.perf_counter()
    assert termination_cap(Fraction(9, 5), Fraction(1, k + 1)) == expected
    assert time.perf_counter() - start < 1


@given(
    k0=st.fractions(min_value=Fraction(1, 10**3), max_value=10**4, max_denominator=10**3),
    k=st.integers(1, 10**30),
    num=st.integers(1, 10**30),
    one_over=st.booleans(),
)
def test_termination_cap_is_the_bisection(k0, k, num, one_over):
    # eps = 1/(k+1) as run draws it, or any num/(k+1) up to 1
    eps = Fraction(1, k + 1) if one_over else Fraction(min(num, k + 1), k + 1)
    assert termination_cap(k0, eps) == termination_cap_by_bisection(k0, eps)


def test_termination_cap_is_fast_at_a_4000_digit_k():
    k = 10**4000
    start = time.perf_counter()
    cap = termination_cap(Fraction(9, 5), Fraction(1, k + 1))
    assert time.perf_counter() - start < 1
    # the cap is about (k + 1/2)·log(9/5), so it starts with the digits of log(9/5)
    with decimal.localcontext() as ctx:
        ctx.prec = 120
        digits = str((Decimal(9) / 5).ln())[2:102]
    assert len(str(cap)) == 4000 and str(cap)[:100] == digits


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 3), Fraction(3, 2)])
def test_termination_cap_rejects_eps_outside_the_unit_interval(eps):
    with pytest.raises(ParameterError):
        termination_cap(Fraction(9, 5), eps)


# -- membership containment ---------------------------------------------------


MEMBERSHIP_BACKENDS = [
    CyclicGroup(31),
    DihedralGroup(7),
    SymmetricGroup(4),
    HeisenbergGroup(3),
    DirectProductGroup([CyclicGroup(4), DihedralGroup(3)]),
    _table_copy(DihedralGroup(5)),
]


@pytest.mark.parametrize("group", MEMBERSHIP_BACKENDS, ids=lambda g: g.describe()["type"])
def test_oracle_outside_matches_a_built_quotient(group):
    stream = CounterStream(0x0075)
    elements = [group.element_at(i) for i in range(group.order)]
    planted = inside = 0
    for _ in range(12):
        t = draw_subset(group, 1 + stream.below(5), stream).elements
        w = draw_subset(group, 1 + stream.below(5), stream).elements
        xs = set(draw_subset(group, 1 + stream.below(8), stream).elements)
        quotient = set(oracle_product(group, t, oracle_inverse(group, w)))
        outsiders = [x for x in elements if x not in quotient]
        for _ in range(min(2, len(outsiders))):
            xs.add(outsiders[stream.below(len(outsiders))])
        expected = sum(1 for x in xs if x not in quotient)
        planted += expected
        inside += len(xs) - expected
        assert oracle_outside(group, sorted(xs), t, w) == expected
    assert planted > 0 and inside > 0


def test_oracle_outside_charges_each_tested_member():
    a2 = oracle_product(C20, INTERVAL, INTERVAL)
    set_pair_budget(len(a2))
    try:
        assert oracle_outside(C20, [(0,), (8,), (10,)], a2, a2) == 1
        with pytest.raises(PairBudgetError):
            oracle_outside(C20, [(0,)], a2, a2 + ((9,),))
    finally:
        set_pair_budget(None)


@pytest.mark.parametrize("side", ["loop", "masks"])
def test_outside_counts_and_charges_as_the_oracle(monkeypatch, side):
    # the cost rule is pinned to one side; cyclic, dihedral and Heisenberg
    # groups are the ones with masks, and on their masks side nothing may multiply
    monkeypatch.setattr(masks.Rotations, "cost", classmethod(SIDES["loop" if side == "loop" else "kronecker"]))
    charges = []
    for module in (gset, oracle):
        monkeypatch.setattr(module, "charge_pairs", charges.append)
    stream = CounterStream(0x0E75)
    planted = inside = 0
    for group in small_group_pool() + MEMBERSHIP_BACKENDS[-2:]:  # plus a direct product and a table group
        for _ in range(6):
            t, w = (draw_subset(group, 1 + stream.below(6), stream) for _ in range(2))
            xs = draw_subset(group, 1 + stream.below(min(group.order, 12)), stream)
            charges.clear()
            expected = oracle_outside(group, xs, t, w)
            oracle_charges = list(charges)
            charges.clear()
            with monkeypatch.context() as m:
                if side == "masks" and group.mask_kernel is not None:
                    m.setattr(type(group), "multiply", None)
                assert outside(xs, t, w) == expected, (group.describe(), xs, t, w)
            assert charges == oracle_charges == [len(w)] * len(xs)
            planted += expected
            inside += len(xs) - expected
    assert planted > 0 and inside > 0


# -- certificate verification: honest certificates ----------------------------


def test_verifier_accepts_fresh_certificate():
    cert = fresh_cert()
    report = verify_certificate(cert, INTERVAL.elements)
    assert report.overall
    assert failures(report) == []
    names = [c.name for c in report.checks]
    assert "s_matches_symmetry_set" in names
    assert "power_containment_violations" in names
    assert "ledger_names" in names


def test_verifier_accepts_subgroup_certificate():
    h = GSet(C20, [(0,), (4,), (8,), (12,), (16,)])
    report = verify_certificate(fresh_cert(h, k=3), h.elements)
    assert report.overall


def test_verifier_accepts_multi_step_certificate():
    # k = 5 on the interval walks through several shrink steps
    cert = fresh_cert(INTERVAL, k=5)
    report = verify_certificate(cert, INTERVAL.elements)
    assert report.overall


def test_verifier_checks_instance_spec_when_given():
    spec = {"group": {"type": "cyclic", "n": 20},
            "set": {"type": "interval", "start": 0, "length": 5}}
    cert = stable_neighbourhood(INTERVAL, 2, instance=spec).to_json_dict()
    assert verify_certificate(cert, INTERVAL.elements, instance=spec).overall
    other = {"group": {"type": "cyclic", "n": 20},
             "set": {"type": "interval", "start": 1, "length": 5}}
    report = verify_certificate(cert, INTERVAL.elements, instance=other)
    assert not report.overall
    assert [c.name for c in failures(report)] == ["instance_spec_matches"]


def test_verifier_report_as_dict():
    report = verify_certificate(fresh_cert(), INTERVAL.elements)
    blob = report.as_dict()
    assert blob["overall"] is True
    assert all(c["pass"] for c in blob["checks"])


D40_COSETS = {"group": {"type": "dihedral", "n": 40},
              "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[0, 0], [1, 1]]}}
C20_INTERVAL = {"group": {"type": "cyclic", "n": 20}, "set": {"type": "interval", "start": 0, "length": 5}}
S6_RANDOM = {"group": {"type": "symmetric", "n": 6}, "set": {"type": "random", "size": 10, "seed": 0}}
C3000_INTERVAL75 = {"group": {"type": "cyclic", "n": 3000}, "set": {"type": "interval", "start": 17, "length": 75}}


def _metered(monkeypatch, group_class, work):
    """Run ``work()`` counting group_class.multiply calls and pair charges.

    ``most_ahead`` is the largest lead, at any multiply, of the
    multiplications done so far over the pairs charged so far.
    """
    seen = {"multiplies": 0, "charged": 0, "largest_charge": 0, "most_ahead": 0}
    real_charge = budget.charge_pairs
    real_multiply = group_class.multiply

    def charge(n):
        seen["largest_charge"] = max(seen["largest_charge"], n)
        seen["charged"] += n
        real_charge(n)

    def multiply(g, x, y):
        seen["multiplies"] += 1
        seen["most_ahead"] = max(seen["most_ahead"], seen["multiplies"] - seen["charged"])
        return real_multiply(g, x, y)

    with monkeypatch.context() as m:
        # every module that imported charge_pairs by name
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("symgrowth") and getattr(mod, "charge_pairs", None) is real_charge:
                m.setattr(mod, "charge_pairs", charge)
        m.setattr(group_class, "multiply", multiply)
        result = work()
    return result, seen


def _verify_or_refusal(cert, elements, instance=None):
    """The verifier's report on ``cert``, or the CertificateFormatError it raised."""
    try:
        return verify_certificate(cert, elements, instance=instance)
    except CertificateFormatError as exc:
        return exc


def test_verifier_scan_replays_the_canonical_witness_from_the_row_table(monkeypatch):
    # a subgroup of D40 of order 16: every level-set candidate is tried and
    # none shrinks, the shrink-scan workload's pattern on a smaller group
    a = generate(D40_COSETS)
    cert = stable_neighbourhood(a, 2, instance=D40_COSETS).to_json_dict()
    assert [step["action"] for step in cert["trace"]["steps"]] == ["terminate"]
    level = oracle_level_set(a.group, a.elements, parse_fraction(cert["trace"]["steps"][0]["tau"]))
    full_scan = sum(oracle_overlap(a.group, a.elements, t) * len(a) for t in level)
    report, seen = _metered(monkeypatch, DihedralGroup,
                            lambda: verify_certificate(cert, a.elements, instance=D40_COSETS))
    assert report.overall
    assert seen["multiplies"] < full_scan

    # every step's witness is the first t of a scan that builds each product in full;
    # the interval at k = 5 shrinks before it terminates
    shrinks = 0
    for spec, k in ((D40_COSETS, 2), (C20_INTERVAL, 5)):
        a = generate(spec)
        cert = stable_neighbourhood(a, k, instance=spec).to_json_dict()
        checks = {c.name: c for c in verify_certificate(cert, a.elements, instance=spec).checks}
        aprime = a.elements
        for i, step in enumerate(cert["trace"]["steps"]):
            t, cand = reference_scan(a.group, aprime, a.elements, Fraction(1, k + 1))
            if step["action"] == "shrink":
                assert checks[f"step{i}.t"].expected == list(t) == step["t"]
                aprime = cand
                shrinks += 1
            else:
                assert t is None and checks[f"step{i}.no_shrink_witness"].passed
    assert shrinks > 0


def test_verifier_mask_counts_equal_products_built_by_definition():
    # on every backend, the sizes the replay reads off its mask rows are the
    # sizes of full products, and its witnesses are the union scan's
    d6 = DihedralGroup(6)
    elems = [d6.element_at(i) for i in range(d6.order)]
    label = {x: i for i, x in enumerate(elems)}
    d6_table = TableGroup([[label[d6.multiply(x, y)] for y in elems] for x in elems])
    groups = small_group_pool() + [DirectProductGroup([CyclicGroup(4), DihedralGroup(3)]), d6_table]
    stream = CounterStream(0x3A5C)
    shrinks = rejected = 0
    for group in groups:
        for _ in range(8):
            a = draw_subset(group, 2 + stream.below(min(group.order - 1, 14)), stream).elements
            k = 1 + stream.below(5)
            cert = stable_neighbourhood(GSet(group, a), k).to_json_dict()
            report = verify_certificate(cert, a)
            assert report.overall
            checks = {c.name: c for c in report.checks}
            ledger = {e["name"]: e for e in cert["ledger"]}
            aprime = a
            for i, step in enumerate(cert["trace"]["steps"]):
                assert checks[f"step{i}.product_size"].expected == len(oracle_product(group, aprime, a))
                t, cand = reference_scan(group, aprime, a, Fraction(1, k + 1))
                if step["action"] == "terminate":
                    assert t is None and checks[f"step{i}.no_shrink_witness"].passed
                    continue
                assert checks[f"step{i}.t"].expected == list(t)
                # the ledger line passes only when the verifier's lhs is the certificate's
                name = f"step{i}.shrink_product_upper"
                assert checks[f"ledger.{name}"].passed
                assert ledger[name]["lhs"] == str(len(oracle_product(group, cand, a)))
                level = oracle_level_set(group, aprime, parse_fraction(step["tau"]))
                rejected += level.index(t) > 0
                shrinks += 1
                aprime = cand
    # some scan rejects a candidate before its witness, so a mask count decides a rejection
    assert shrinks > 0 and rejected > 0


@pytest.mark.parametrize("spec, k", [(D40_COSETS, 2), (S6_RANDOM, 2), (C20_INTERVAL, 5), (C3000_INTERVAL75, 2)],
                         ids=["d40-cosets", "s6-random", "c20-interval", "c3000-interval75"])
def test_verify_costs_what_run_costs(monkeypatch, spec, k):
    a = generate(spec)
    cert, run = _metered(monkeypatch, type(a.group),
                         lambda: stable_neighbourhood(a, k, instance=spec).to_json_dict())
    report, verify = _metered(monkeypatch, type(a.group),
                              lambda: verify_certificate(cert, a.elements, instance=spec))
    assert report.overall
    # run builds each set once and verify rebuilds the same sets, each call
    # charged its |X||Y| pairs whether it multiplies or translates masks
    assert verify["charged"] == run["charged"]
    assert verify["largest_charge"] == run["largest_charge"]
    # every multiplication of the replay is paid for before it is made
    assert verify["most_ahead"] == 0


def test_verify_multiplies_each_row_once_and_nothing_for_an_honest_containment(monkeypatch):
    # a shrink step, then the terminate step: every row xA is multiplied at
    # step 0 and reused at step 1, and each member of S^2 lies in XX⁻¹
    a = generate(C3000_INTERVAL75)
    cert = stable_neighbourhood(a, 2, instance=C3000_INTERVAL75).to_json_dict()
    steps = cert["trace"]["steps"]
    assert [step["action"] for step in steps] == ["shrink", "terminate"] and len(cert["s"]) == 67
    made = Counter()
    phase = [None]
    real_multiply = CyclicGroup.multiply

    def multiply(g, x, y):
        made[phase[0]] += 1
        return real_multiply(g, x, y)

    def inside(name, fn):
        def wrapped(*args):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args)
            finally:
                phase[0] = outer
        return wrapped

    monkeypatch.setattr(CyclicGroup, "multiply", multiply)
    for name in ("oracle_overlaps", "oracle_sym_counts", "oracle_power", "oracle_outside"):
        monkeypatch.setattr(oracle, name, inside(name, getattr(oracle, name)))
    assert verify_certificate(cert, a.elements, instance=C3000_INTERVAL75).overall

    n_a, n_x, n_s = len(a), steps[-1]["product_size"], len(cert["s"])
    expected = {
        None: n_a * n_a,  # the rows, not the sum of |A_i||A| over the steps
        "oracle_overlaps": sum(step["aprime_size"] ** 2 for step in steps),
        "oracle_sym_counts": n_x * (n_x - 1) // 2,
        "oracle_power": n_s * n_s,  # S·S at k = 2
    }
    assert n_a * n_a < sum(step["aprime_size"] * n_a for step in steps)
    assert made == expected and made["oracle_outside"] == 0
    assert sum(made.values()) == 21215


def test_oracle_level_set_equals_the_overlap_scan_over_the_group(stream):
    for group in small_group_pool():
        everything = [group.element_at(i) for i in range(group.order)]
        for _ in range(4):
            a = draw_subset(group, 1 + stream.below(min(group.order, 12)), stream).elements
            tau = Fraction(1 + stream.below(2 * len(a)), 2)
            by_definition = tuple(t for t in everything if oracle_overlap(group, a, t) >= tau)
            assert oracle_level_set(group, a, tau) == tuple(sorted(by_definition))


def test_oracle_overlaps_lists_each_overlap_by_definition(stream):
    for group in small_group_pool():
        everything = [group.element_at(i) for i in range(group.order)]
        for _ in range(4):
            a = draw_subset(group, 1 + stream.below(min(group.order, 12)), stream).elements
            table = oracle_overlaps(group, reversed(a))
            for t in everything:
                translate = {group.multiply(t, v) for v in a}
                inside = [u for u in a if u in translate]
                assert table.get(t, []) == inside
                assert len(inside) == oracle_overlap(group, a, t)


# -- certificate verification: tampering --------------------------------------


def test_verifier_flags_corrupted_neighbourhood():
    cert = fresh_cert()
    cert["s"][0] = [10]
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    failed = {c.name for c in failures(report)}
    assert "s_matches_symmetry_set" in failed


def test_verifier_counts_every_power_member_outside_the_quad_product():
    # A²A⁻² of the interval {0..4} in C20 is {-8..8}; a planted 10 in S
    # sends several members of S^2 outside it
    cert = fresh_cert()
    s = sorted({tuple(x) for x in cert["s"]} | {(10,)})
    cert["s"] = [list(x) for x in s]
    a2 = oracle_product(C20, INTERVAL, INTERVAL)
    quad = set(oracle_product(C20, a2, oracle_inverse(C20, a2)))
    expected = sum(1 for x in oracle_power(C20, s, 2) if x not in quad)
    assert expected > 1
    report = verify_certificate(cert, INTERVAL.elements)
    check = {c.name: c for c in report.checks}["power_containment_violations"]
    assert (check.expected, check.actual, check.passed) == (0, expected, False)
    assert not {c.name: c for c in report.checks}["ledger.power_containment"].passed


def test_a_forged_neighbourhood_never_hides_a_containment_violation(stream):
    # members of S^k in XX⁻¹ skip their multiplications, so S is forged with
    # extra elements, drawn at random and, where A²A⁻² is not the whole
    # group, one from outside it: the count the verifier reports is the full
    # membership count of S^k against A², every time
    groups = small_group_pool() + [DirectProductGroup([CyclicGroup(4), DihedralGroup(3)]), _table_copy(DihedralGroup(6))]
    clean = violated = 0
    for group in groups:
        elements = [group.element_at(i) for i in range(group.order)]
        for _ in range(3):
            a = draw_subset(group, 2 + stream.below(min(group.order - 1, 6)), stream).elements
            k = 1 + stream.below(3)
            cert = stable_neighbourhood(GSet(group, a), k).to_json_dict()
            a2 = oracle_product(group, a, a)
            quad = set(oracle_product(group, a2, oracle_inverse(group, a2)))
            outsiders = [x for x in elements if x not in quad]
            s = {group.coerce(x) for x in cert["s"]}
            for _ in range(1 + stream.below(2)):
                s.add(elements[stream.below(group.order)])
            if outsiders and stream.below(2):
                s.add(outsiders[stream.below(len(outsiders))])
            s = sorted(s)
            cert["s"] = [list(x) for x in s]
            expected = oracle_outside(group, oracle_power(group, s, k), a2, a2)
            check = {c.name: c for c in verify_certificate(cert, a).checks}["power_containment_violations"]
            assert check.actual == expected, (group.describe(), a, s, k)
            violated += expected > 0
            clean += expected == 0
    assert violated > 0 and clean > 0


def test_verifier_flags_dropped_neighbourhood_element():
    cert = fresh_cert()
    del cert["s"][1]
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall


def test_verifier_flags_doctored_ledger_value():
    cert = fresh_cert()
    entry = next(e for e in cert["ledger"] if e["name"] == "step0.level_set_lower")
    entry["lhs"] = "1000"
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert "ledger.step0.level_set_lower" in {c.name for c in failures(report)}


def test_verifier_flags_doctored_trace_witness():
    cert = fresh_cert()
    cert["trace"]["steps"][0]["t"] = [4]
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert "step0.t" in {c.name for c in failures(report)}


def test_verifier_flags_wrong_epsilon():
    cert = fresh_cert(k=2)
    cert["epsilon"] = "1/4"
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert "epsilon_matches_k" in {c.name for c in failures(report)}


def test_verifier_flags_unverified_flag():
    cert = fresh_cert()
    cert["verified"] = False
    report = verify_certificate(cert, INTERVAL.elements)
    assert "verified_flag" in {c.name for c in failures(report)}


def test_verifier_flags_alien_ledger_entry():
    cert = fresh_cert()
    cert["ledger"].append(
        {"name": "bogus_bound", "relation": "ge", "lhs": "1", "rhs": "0", "holds": True}
    )
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_flags_missing_ledger_entry():
    cert = fresh_cert()
    cert["ledger"] = [e for e in cert["ledger"] if e["name"] != "power_containment"]
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert "ledger_names" in {c.name for c in failures(report)}


def test_verifier_flags_wrong_input_set():
    cert = fresh_cert()
    other = GSet(C20, [(i,) for i in range(6)])
    report = verify_certificate(cert, other.elements)
    assert not report.overall


def test_verifier_rejects_malformed_certificates():
    cert = fresh_cert()
    for key in ("format", "instance", "epsilon", "trace", "ledger", "s"):
        broken = copy.deepcopy(cert)
        del broken[key]
        with pytest.raises(CertificateFormatError):
            verify_certificate(broken, INTERVAL.elements)


@pytest.mark.parametrize("group", [{"type": "nonsense"}, {"type": "cyclic", "n": 3}], ids=["unknown", "without-a"])
def test_verifier_rejects_bad_group_spec(group):
    # a group the instance set does not lie in makes the certificate one for another group
    cert = fresh_cert()
    cert["instance"]["group"] = group
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_rejects_decimal_fractions():
    cert = fresh_cert()
    cert["epsilon"] = "0.333"
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


@pytest.mark.parametrize("k", [0, int("9" * 4300)], ids=["zero", "4300-nines"])
def test_verifier_rejects_bad_k(k):
    # 4,300 nines parse as an int, but k + 1 has 4,301 digits and cannot be written out
    cert = fresh_cert()
    cert["k"] = k
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_rejects_unknown_action():
    cert = fresh_cert()
    cert["trace"]["steps"][0]["action"] = "sideways"
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_wrong_format_string():
    cert = fresh_cert()
    cert["format"] = "symgrowth.certificate/0"
    report = verify_certificate(cert, INTERVAL.elements)
    assert "format" in {c.name for c in failures(report)}


# -- certificate verification: the verifier is total -------------------------


def _rename_first(cert, old, new):
    entry = next(e for e in cert["ledger"] if e["name"] == old)
    entry["name"] = new


def _unparsable_step_index(cert):
    _rename_first(cert, "step0.level_set_lower", "stepX.level_set_lower")


def _shrink_after_last_step(cert):
    last = len(cert["trace"]["steps"]) - 1
    _rename_first(cert, f"step{last}.sym_size_lower", f"step{last}.shrink_size_lower")


def _drop_first_trace_step(cert):
    del cert["trace"]["steps"][0]


def _drop_last_trace_step(cert):
    del cert["trace"]["steps"][-1]


@pytest.mark.parametrize(
    "mutate",
    [_unparsable_step_index, _shrink_after_last_step, _drop_first_trace_step, _drop_last_trace_step],
)
def test_verifier_fails_cleanly_on_mangled_ledger_and_trace(mutate):
    # k = 5 on the interval takes several shrink steps before terminating
    cert = fresh_cert(INTERVAL, k=5)
    mutate(cert)
    try:
        report = verify_certificate(cert, INTERVAL.elements)
    except CertificateFormatError:
        return
    assert not report.overall


def test_verifier_rejects_terminal_ledger_line_on_a_shrink_step():
    # step0 shrinks at k = 5, so its ledger has no step0.sym_size_lower line
    cert = fresh_cert(INTERVAL, k=5)
    assert cert["trace"]["steps"][0]["action"] == "shrink"
    _rename_first(cert, "step0.level_set_lower", "step0.sym_size_lower")
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_rejects_s_entry_of_wrong_width():
    cert = fresh_cert()
    cert["s"][0].append(0)
    with pytest.raises(CertificateFormatError) as err:
        verify_certificate(cert, INTERVAL.elements)
    assert str(err.value) == f"certificate S entry {cert['s'][0]!r} is not a group element"


@pytest.mark.parametrize("entry", [[True], ["1"], [0.5], 0, "nope"], ids=repr)
def test_verifier_rejects_loose_s_entries(entry):
    # S entries are decoded as strictly as instance elements: JSON int arrays only
    cert = fresh_cert()
    cert["s"][0] = entry
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verify_of_a_forged_large_k_makes_a_bounded_number_of_products(monkeypatch):
    # S = {1} lacks the identity, so S^j never stops moving, and the
    # certificate sets k; the power is one translate once |S^j| settles
    cert = fresh_cert(k=10**6)
    assert cert["epsilon"] == "1/1000001"
    cert["s"] = [[1]]
    calls = []
    real = oracle.oracle_product

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(oracle, "oracle_product", counting)
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert len(calls) <= 5


def test_verifier_rejects_s_entry_outside_the_group():
    cert = fresh_cert()
    cert["s"][0] = [20]
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


@pytest.mark.parametrize("eps", ["-1/3", "0", "3/2"])
def test_verifier_rejects_epsilon_out_of_range(eps):
    # a negative epsilon used to send the termination cap into an endless loop
    cert = fresh_cert()
    cert["epsilon"] = eps
    cert["trace"]["epsilon"] = eps
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


@pytest.mark.parametrize("cert", [[], "format", 7])
def test_verifier_rejects_non_object_certificate(cert):
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_rejects_non_string_ledger_name():
    cert = fresh_cert()
    cert["ledger"][0]["name"] = 7
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_reports_a_chain_that_diverges_after_a_terminate_step():
    # a terminate step before the last is a format error at decode; this
    # used to raise IndexError while building the ledger table
    cert = fresh_cert(k=1)
    steps = cert["trace"]["steps"]
    assert [step["action"] for step in steps] == ["terminate"]
    end = steps[0]
    steps[:] = [end, dict(end, index=1, action="shrink", t=[0]), dict(end, index=2)]
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_refuses_repeated_terminate_steps_at_once():
    # each replayed step i computes (2K0)^((4^i - 1)/3) exactly, about 8 times
    # the work of the one before, so a replay that went on past the terminate
    # step spent over a minute on these 13
    cert = fresh_cert()
    steps = cert["trace"]["steps"]
    assert [step["action"] for step in steps] == ["shrink", "terminate"]
    steps[1:] = [dict(steps[1], index=i) for i in range(1, 14)]
    start = time.perf_counter()
    with pytest.raises(CertificateFormatError, match="trace step 1 "):
        verify_certificate(cert, INTERVAL.elements)
    assert time.perf_counter() - start < 1


def test_verifier_refuses_a_terminate_step_before_the_last_at_decode(monkeypatch):
    # only the last step terminates, so a trace with another terminate step is
    # refused before the replay, even with its ledger renamed to match
    cert = fresh_cert()
    steps = cert["trace"]["steps"]
    steps.append(dict(steps[1], index=2))
    cert["trace"]["i0"] = 2
    for entry in cert["ledger"]:
        entry["name"] = entry["name"].replace("step1.sym", "step2.sym").replace("step1.level_set_in", "step2.level_set_in")
    refused, seen = _metered(monkeypatch, CyclicGroup, lambda: _verify_or_refusal(cert, INTERVAL.elements))
    assert isinstance(refused, CertificateFormatError)
    assert "trace step 1" in str(refused)
    assert seen["charged"] == 0


def test_trace_shape_fails_only_at_a_claimed_shrink_without_a_witness():
    # at eps = 1 no product shrinks to size 0, so the claimed shrink step 0
    # has no witness and the replay stops short of the terminate step
    cert = fresh_cert()
    assert [step["action"] for step in cert["trace"]["steps"]] == ["shrink", "terminate"]
    cert["epsilon"] = cert["trace"]["epsilon"] = "1"
    checks = {c.name: c for c in verify_certificate(cert, INTERVAL.elements).checks}
    assert checks["step0.t"].expected is None
    assert checks["trace_shape"].passed is False
    assert "step1.index" not in checks


def _float_size(steps):
    steps[0]["aprime_size"] = float(steps[0]["aprime_size"])


def _bool_index(steps):
    steps[1]["index"] = True


def _float_witness(steps):
    steps[0]["t"] = [float(v) for v in steps[0]["t"]]


@pytest.mark.parametrize("mutate", [_float_size, _bool_index, _float_witness])
def test_verifier_flags_floats_and_bools_in_integer_fields(mutate):
    # 5.0 == 5 and True == 1 in Python, but not as certificate JSON
    cert = fresh_cert()
    steps = cert["trace"]["steps"]
    assert [step["action"] for step in steps] == ["shrink", "terminate"]
    mutate(steps)
    assert verify_certificate(cert, INTERVAL.elements).overall is False


# -- a check's verdict is the comparison of JSON texts -------------------------

# what the verifier expects: ints, strs, None and lists of them
EXPECTED_VALUES = st.recursive(
    st.none() | st.integers(-(10**20), 10**20) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=8,
)
# what a certificate can hold in its place: any JSON value
ACTUAL_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _lookalike(draw, value):
    """``value`` with some ints made floats, strs or bools that Python may call equal to them."""
    if isinstance(value, list):
        return [_lookalike(draw, v) for v in value]
    if type(value) is int and draw(st.booleans()):
        return draw(st.sampled_from([float(value), str(value)] + ([bool(value)] if value in (0, 1) else [])))
    return value


@st.composite
def check_values(draw):
    expected = draw(EXPECTED_VALUES)
    if draw(st.booleans()):
        return expected, draw(ACTUAL_VALUES)
    return expected, _lookalike(draw, expected)


def _json_text_verdict(expected, actual) -> bool:
    return json.dumps(expected, sort_keys=True) == json.dumps(actual, sort_keys=True)


@given(check_values())
def test_a_check_passes_exactly_when_the_json_texts_agree(pair):
    expected, actual = pair
    report = VerificationReport()
    report.record("x", expected, actual)
    assert report.checks[0].passed is _json_text_verdict(expected, actual)


@pytest.mark.parametrize(
    "expected, actual, passed",
    [
        (1, True, False),
        (0, False, False),
        (10, 10.0, False),
        (10**20, 1e20, False),
        ([1], [True], False),
        ([[2, 3]], [[2, 3.0]], False),
        ("1", 1, False),
        (None, [], False),
        (10, 10, True),
        ([1], [1], True),
        ([[2, 3], []], [[2, 3], []], True),
        (None, None, True),
    ],
    ids=repr,
)
def test_python_equality_alone_does_not_pass_a_check(expected, actual, passed):
    report = VerificationReport()
    report.record("x", expected, actual)
    assert report.checks[0].passed is passed is _json_text_verdict(expected, actual)


# -- certificate verification: a totality fuzz --------------------------------


def _fuzz_base(spec):
    a = generate(spec)
    return spec, a, stable_neighbourhood(a, 2, instance=spec).to_json_dict()


FUZZ_BASES = [_fuzz_base(spec) for spec in (C20_INTERVAL, D40_COSETS, S6_RANDOM)]
# JSON values of every type; integers keep to 30 digits, since a termination
# cap at a much larger k or epsilon denominator is slow (ROADMAP item 14)
BIG = 10**30 - 1
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-BIG, BIG),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    st.lists(st.integers(-3, 40), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


def _paths(node, path=()):
    """Every (container, key) below node, but not inside the unchecked metadata."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if path == () and key == "metadata":
            continue
        yield node, key
        yield from _paths(value, path + (key,))


@st.composite
def certificate_mutants(draw):
    """One of three honest certificates with exactly one corruption, and its instance."""
    spec, a, cert = draw(st.sampled_from(FUZZ_BASES))
    cert = copy.deepcopy(cert)
    steps, ledger = cert["trace"]["steps"], cert["ledger"]
    kind = draw(st.sampled_from(["drop", "retype", "rename", "duplicate", "bad_index"]))
    if kind in ("drop", "retype", "rename"):
        node, key = draw(st.sampled_from([(n, k) for n, k in _paths(cert) if kind != "rename" or isinstance(n, dict)]))
        if kind == "drop":
            del node[key]
        elif kind == "retype":
            old = node[key]
            node[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
        else:
            new = draw(st.sampled_from(["name", "index", "a", "s", "t", "steps", "x"]).filter(lambda k: k != key))
            node[new] = node.pop(key)
    elif kind == "duplicate":
        seq = draw(st.sampled_from([steps, ledger]))
        at = draw(st.integers(0, len(seq) - 1))
        seq[at:at] = [copy.deepcopy(seq[at]) for _ in range(draw(st.integers(1, 20)))]
    else:
        where = draw(st.sampled_from(["step", "i0", "ledger"]))
        if where == "step":
            step = draw(st.sampled_from(steps))
            step["index"] = draw(st.integers(-BIG, BIG).filter(lambda j: j != step["index"]))
        elif where == "i0":
            cert["trace"]["i0"] = draw(st.integers(-BIG, BIG).filter(lambda j: j != cert["trace"]["i0"]))
        else:
            entry = draw(st.sampled_from([e for e in ledger if e["name"].startswith(("step", "trace"))]))
            head, _, tail = entry["name"].partition(".")
            prefix = head.rstrip("0123456789")
            j = draw(st.integers(-BIG, BIG).filter(lambda j: f"{prefix}{j}" != head))
            entry["name"] = f"{prefix}{j}.{tail}"
    return spec, a, cert, kind


@settings(max_examples=250, deadline=2000)
@given(certificate_mutants())
def test_every_corrupted_certificate_is_refused(mutant):
    spec, a, cert, kind = mutant
    assert _refused(pytest.MonkeyPatch(), spec, a, cert), kind


def _refused(monkeypatch, spec, a, cert) -> bool:
    """Whether the verifier refuses ``cert``; a format error must come before its first charge."""
    outcome, seen = _metered(monkeypatch, type(a.group), lambda: _verify_or_refusal(cert, a.elements, spec))
    if isinstance(outcome, CertificateFormatError):
        assert seen["charged"] == 0, f"{outcome} after {seen['charged']} pairs"
        return True
    return outcome.overall is False


# -- certificate verification: structural defects are refused before the replay


def _rename_last(cert, old, new):
    last = len(cert["trace"]["steps"]) - 1
    _rename_first(cert, old.format(last=last), new.format(last=last, past=last + 1))


def _at(cert, path):
    for key in path:
        cert = cert[key]
    return cert


def _drop(*path):
    return lambda cert: _at(cert, path[:-1]).pop(path[-1])


def _put(value, *path):
    return lambda cert: _at(cert, path[:-1]).__setitem__(path[-1], value)


DEFECTS = {
    "s-wrong-width": lambda cert: cert["s"][0].append(0),
    "s-out-of-range": _put(999, "s", 0, 0),
    "ledger-name-stepX": lambda cert: _rename_first(cert, "step0.level_set_lower", "stepX.level_set_lower"),
    "shrink-line-on-terminate": lambda cert: _rename_last(cert, "step{last}.sym_size_lower", "step{last}.shrink_size_lower"),
    "step-past-the-last": lambda cert: _rename_last(cert, "step{last}.level_set_lower", "step{past}.level_set_lower"),
    "ledger-entry-not-object": _put(["power_containment"], "ledger", -1),
    "missing-i0": _drop("trace", "i0"),
    "missing-doubling": _drop("trace", "doubling"),
    "missing-termination_cap": _drop("trace", "termination_cap"),
    "missing-aprime": _drop("aprime"),
    "missing-s_threshold": _drop("s_threshold"),
    "missing-ledger": _drop("ledger"),
    "step-not-object": _put("terminate", "trace", "steps", -1),
    "step-unknown-action": _put("sideways", "trace", "steps", -1, "action"),
    "terminate-dropped": _drop("trace", "steps", -1),
    "terminate-duplicated": lambda cert: cert["trace"]["steps"].append(copy.deepcopy(cert["trace"]["steps"][-1])),
}


@pytest.mark.parametrize("defect", list(DEFECTS))
@pytest.mark.parametrize("base", FUZZ_BASES, ids=["c20-interval", "d40-cosets", "s6-random"])
def test_a_structural_defect_is_refused_before_any_multiplication(monkeypatch, base, defect):
    spec, a, cert = base
    cert = copy.deepcopy(cert)
    DEFECTS[defect](cert)
    refused, seen = _metered(monkeypatch, type(a.group), lambda: _verify_or_refusal(cert, a.elements, spec))
    assert isinstance(refused, CertificateFormatError)
    assert seen["multiplies"] == 0
    assert seen["charged"] == 0


def _benchmark_workloads():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    try:
        from perfbench import workloads
    finally:
        sys.path.pop(0)
    return workloads


@functools.cache
def _seed0_certificates():
    """The benchmark's seed-0 instances, each with its set and certificate."""
    out = []
    for workload in ("shrink-scan", "quad-build", "many-small"):
        for inst in _benchmark_workloads().build(workload, 0):
            a = generate(inst.spec)
            out.append((inst, a, stable_neighbourhood(a, inst.k, instance=inst.spec).to_json_dict()))
    return out


def test_the_decode_expects_the_names_of_the_replay_table():
    # on a sound certificate the replay follows the claimed trace, so the names
    # the decode derives from the trace's actions are the replay's table's keys
    count = 0
    for _, a, cert in _seed0_certificates():
        report = verify_certificate(cert, a.elements)
        assert report.overall
        table_names = next(c.expected for c in report.checks if c.name == "ledger_names")
        actions = [step["action"] for step in cert["trace"]["steps"]]
        assert oracle._ledger_names(len(actions) - 1) == frozenset(table_names)
        assert len(table_names) == 3 * len(actions) + 2 * (len(actions) - 1) + 2 + 5
        count += 1
    assert count == 4 + 8 + 96


def test_every_benchmark_mutant_is_refused(monkeypatch):
    # every seed-0 certificate under every mutation kind of the reject path,
    # each drawn as the benchmark draws it
    workloads = _benchmark_workloads()
    for inst, a, cert in _seed0_certificates():
        for kind in workloads.MUTATIONS:
            mutant = workloads.mutate(cert, kind, random.Random(f"{inst.name}:{kind}"))
            assert _refused(monkeypatch, inst.spec, a, mutant), (inst.name, kind)


def test_oracle_imports_nothing_from_the_fast_path():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {alias.name for alias in node.names}
    assert imported <= {"budget", "errors", "groups", "serialize"}
