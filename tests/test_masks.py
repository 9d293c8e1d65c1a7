"""The mask kernels of cyclic, dihedral and Heisenberg groups, against the oracles.

Every ``gset`` operation that may run on masks is checked on each side of
the cost rule: ``on_side`` replaces ``masks.Rotations.cost`` so that every call
takes the loop, or the masks with level-set counts by popcount, or the
masks with level-set counts by Kronecker lanes.  The real rule is pinned
separately, on the instances it must send to each side.
"""

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth import gset, masks
from symgrowth.groups import CyclicGroup, DihedralGroup, HeisenbergGroup, Loop
from symgrowth.growth import shrink_step, stable_neighbourhood
from symgrowth.gset import GSet, doubling_stats, level_set, product, row_product
from symgrowth.instances import generate
from symgrowth.oracle import oracle_product, verify_certificate
from symgrowth.symmetry import sym_set

from conftest import (
    SIDES,
    count_law,
    from_both_ends,
    on_side,
    oracle_inverse,
    oracle_level_set,
    oracle_overlaps,
    oracle_sym_members,
    reference_scan,
)


def fresh(a: GSet) -> GSet:
    """A copy of A without its cached mask."""
    return GSet(a.group, a.elements)


MASK_GROUPS = st.one_of(
    st.builds(CyclicGroup, st.integers(1, 24)),
    st.builds(DihedralGroup, st.integers(1, 12)),
    st.builds(HeisenbergGroup, st.integers(2, 5)),
)


@st.composite
def mask_group_sets(draw, count: int):
    """A cyclic or dihedral group of order up to 24, or Heisenberg mod 2 to 5, and ``count`` nonempty subsets."""
    group = draw(MASK_GROUPS)
    indices = st.sets(st.integers(0, group.order - 1), min_size=1, max_size=24)
    return [GSet(group, [group.element_at(i) for i in draw(indices)]) for _ in range(count)]


sides = st.sampled_from(sorted(SIDES))
fractions = st.builds(lambda num, den: Fraction(min(num, den), den), st.integers(1, 12), st.integers(1, 12))


def check_step(aprime: GSet, a: GSet, eps: Fraction) -> None:
    """``shrink_step`` agrees with the oracle and with the scan that builds every product in full."""
    g = aprime.group
    out = shrink_step(aprime, a, eps)
    assert out.product.elements == oracle_product(g, aprime, a)
    assert out.level_set.elements == oracle_level_set(g, aprime, out.tau)
    t, cand = reference_scan(g, aprime.elements, a.elements, eps)
    if t is None:
        assert out.case == "terminate"
        assert out.sym.elements == oracle_sym_members(g, out.product, out.threshold)
    else:
        assert (out.case, out.t, out.shrunk.elements) == ("shrink", t, cand)
        assert out.shrunk_product_size == len(oracle_product(g, cand, a))


@given(sides, mask_group_sets(2))
def test_product_matches_the_oracle(side, sets):
    a, b = sets
    with on_side(side):
        assert product(a, b).elements == oracle_product(a.group, a, b)


@given(sides, mask_group_sets(2), st.data())
def test_row_product_rows_are_the_translates(side, sets, data):
    a, b = sets
    g = a.group
    with on_side(side):
        p, row = row_product(fresh(a), fresh(b))
    assert p.elements == oracle_product(g, a, b)
    sub = data.draw(st.lists(st.sampled_from(a.elements), unique=True))
    cover = 0
    for u in sub:
        # the rows are keyed on forms
        cover |= row(g.to_form(u))
    assert cover.bit_count() == len(oracle_product(g, sub, b))
    if side != "loop":
        # on masks a row is the translate uB itself, over the group index
        u = data.draw(st.sampled_from(a.elements))
        assert tuple(map(g.from_form, g.masks.decode(row(g.to_form(u))))) == oracle_product(g, [u], b)


@given(sides, mask_group_sets(1), fractions)
def test_level_set_and_its_overlaps_match_the_oracle(side, sets, scale):
    (a,) = sets
    g = a.group
    need = scale * len(a)
    with on_side(side):
        level, overlap = level_set(fresh(a), need)
    assert level.elements == oracle_level_set(g, a, need)
    overlaps = oracle_overlaps(g, a)
    for t in level:
        # from both ends of the canonical order: highest, lowest, next highest, ...
        # keyed on forms and yielding forms
        assert list(map(g.from_form, overlap(g.to_form(t)))) == from_both_ends(overlaps[t])


@pytest.mark.parametrize("group", [CyclicGroup(40), DihedralGroup(20), HeisenbergGroup(4)], ids=repr)
def test_a_least_one_level_set_bit_counts_its_support_like_any_other(monkeypatch, group):
    # at least 1 the support, the union of every translate A·x⁻¹, is AA⁻¹ and so
    # the whole level set; each of its t is bit-counted once, one left translate
    # each, as at any other threshold
    rng = random.Random(group.order)
    a = GSet(group, [group.element_at(i) for i in rng.sample(range(group.order), 9)])
    kernel = type(group.masks)
    real = kernel.lefts
    made = [0]

    def lefts(self, m):
        left = real(self, m)

        def counted(x):
            made[0] += 1
            return left(x)

        return counted

    monkeypatch.setattr(kernel, "lefts", lefts)
    with on_side("popcount"):
        level, overlap = level_set(fresh(a), 1)
        assert made[0] == len(level)
        assert level.elements == oracle_level_set(group, a.elements, 1)
        overlaps = oracle_overlaps(group, a)
        for t in level:
            assert list(map(group.from_form, overlap(group.to_form(t)))) == from_both_ends(overlaps[t])
        # a lookup translates, and so does a level set that bit-counts its support
        made[0] = 0
        level, _ = level_set(fresh(a), 2)
        assert made[0] > 0 and level.elements == oracle_level_set(group, a.elements, 2)


@given(sides, mask_group_sets(1), fractions)
def test_sym_set_matches_the_oracle(side, sets, eta):
    (a,) = sets
    with on_side(side):
        assert sym_set(fresh(a), eta).elements == oracle_sym_members(a.group, a, eta)


@given(sides, mask_group_sets(1), st.data(), fractions)
def test_shrink_step_matches_the_reference_scan(side, sets, data, eps):
    (a,) = sets
    aprime = GSet(a.group, data.draw(st.lists(st.sampled_from(a.elements), min_size=1, unique=True)))
    with on_side(side):
        check_step(aprime, fresh(a), eps)


@given(sides, mask_group_sets(1))
def test_doubling_stats_match_the_definitions(side, sets):
    (a,) = sets
    g = a.group
    with on_side(side):
        stats = doubling_stats(fresh(a))
    square = oracle_product(g, a, a)
    assert (stats.product_size, stats.inverse_product_size) == (len(square), len(oracle_product(g, a, oracle_inverse(g, a))))
    assert stats.quad_size == len(oracle_product(g, square, oracle_inverse(g, square)))


@pytest.mark.parametrize("group", [CyclicGroup(1), CyclicGroup(2), DihedralGroup(1), DihedralGroup(2)],
                         ids=["c1", "c2", "d1", "d2"])
@pytest.mark.parametrize("side", sorted(SIDES))
def test_every_subset_of_the_smallest_groups(group, side):
    everything = [group.element_at(i) for i in range(group.order)]
    subsets = [GSet(group, c) for r in range(1, group.order + 1) for c in itertools.combinations(everything, r)]
    with on_side(side):
        for a in subsets:
            assert sym_set(fresh(a), Fraction(1, 2)).elements == oracle_sym_members(group, a, Fraction(1, 2))
            for b in subsets:
                assert product(a, b).elements == oracle_product(group, a, b)
                if b.subset_of(a):
                    check_step(b, fresh(a), Fraction(1, 3))


@pytest.mark.parametrize("size", [127, 128, 255, 256])
@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "heisenberg"])
def test_kronecker_lanes_hold_the_largest_count(kind, size):
    # the count at the identity is |A|, the largest; a lane one bit too narrow carries
    groups = {"cyclic": CyclicGroup(3 * size), "dihedral": DihedralGroup(2 * size), "heisenberg": HeisenbergGroup(7)}
    group = groups[kind]
    a = GSet(group, [group.element_at(i) for i in range(size)])
    for need in (1, size // 2, size - 1, size):
        with on_side("kronecker"):
            level, _ = level_set(fresh(a), need)
        assert level.elements == oracle_level_set(group, a, need)


@given(mask_group_sets(1), fractions)
def test_every_side_charges_the_same_pairs(sets, eps):
    (a,) = sets

    def charges(side):
        seen = []
        with on_side(side), mock.patch.object(gset, "charge_pairs", seen.append):
            doubling_stats(fresh(a))
            shrink_step(fresh(a), fresh(a), eps)
        return seen

    assert charges("popcount") == charges("kronecker") == charges("loop")


@pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 9, 11])
def test_heisenberg_translates_are_multiply(p):
    # right and left translates, on 1-bit lanes and on the 16-bit lanes of a Kronecker sum
    g = HeisenbergGroup(p)
    kernel, wide = g.masks, g.masks.widen(16)
    rng = random.Random(p)
    for _ in range(12):
        xs = {g.element_at(rng.randrange(g.order)) for _ in range(rng.randrange(1, 40))}
        m = kernel.encode(xs)
        left, wide_left = kernel.lefts(m), wide.lefts(wide.spread(m))
        for y in (g.element_at(rng.randrange(g.order)) for _ in range(6)):
            right = kernel.right(m, y)
            assert kernel.decode(right) == sorted(g.multiply(x, y) for x in xs)
            assert kernel.decode(left(y)) == sorted(g.multiply(y, x) for x in xs)
            assert wide.at_least(wide.right(wide.spread(m), y), 1) == right
            assert wide.at_least(wide_left(y), 1) == left(y)


# -- the cost rule itself -------------------------------------------------------

SHRINK_SCAN_INTERVAL = {"group": {"type": "cyclic", "n": 3000}, "set": {"type": "interval", "start": 17, "length": 75}}
SHRINK_SCAN_COSETS = {"group": {"type": "dihedral", "n": 140},
                      "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[3, 0], [9, 1]]}}
QUAD_BUILD_CYCLIC = {"group": {"type": "cyclic", "n": 800}, "set": {"type": "random", "size": 30, "seed": 5}}
C20K = {"group": {"type": "cyclic", "n": 20000}, "set": {"type": "interval", "start": 0, "length": 400}}
C100K = {"group": {"type": "cyclic", "n": 100000}, "set": {"type": "random", "size": 300, "seed": 1}}
C10M = {"group": {"type": "cyclic", "n": 10**7}, "set": {"type": "random", "size": 300, "seed": 1}}
QUAD_BUILD_BALL = {"group": {"type": "heisenberg_mod", "p": 9},
                   "set": {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0], [8, 0, 0], [0, 8, 0]], "radius": 2}}


def _multiplies(monkeypatch, group, work):
    with monkeypatch.context() as m:
        seen = count_law(m, type(group))
        work()
    return seen["multiplies"]


@pytest.mark.parametrize("spec", [SHRINK_SCAN_INTERVAL, SHRINK_SCAN_COSETS, QUAD_BUILD_CYCLIC, C20K, C100K],
                         ids=["shrink-scan-interval", "shrink-scan-cosets", "quad-build-cyclic", "c20k", "c100k"])
def test_the_rule_sends_benchmark_sets_to_the_masks(monkeypatch, spec):
    a = generate(spec)
    assert _multiplies(monkeypatch, a.group, lambda: (product(a, a), doubling_stats(a))) == 0


@pytest.mark.parametrize("spec", [SHRINK_SCAN_INTERVAL, SHRINK_SCAN_COSETS, C20K],
                         ids=["shrink-scan-interval", "shrink-scan-cosets", "c20k"])
def test_the_rule_runs_small_doubling_steps_on_the_masks(monkeypatch, spec):
    a = generate(spec)
    assert _multiplies(monkeypatch, a.group, lambda: shrink_step(a, a, Fraction(1, 3))) == 0


def test_the_rule_sends_large_sparse_groups_and_tiny_sets_to_the_loop(monkeypatch):
    # a random 300 in cyclic 10^7: one translate rotates 156,250 words
    a = generate(C10M)
    assert _multiplies(monkeypatch, a.group, lambda: product(a, a)) == len(a) ** 2
    # three elements of cyclic 6: the fixed cost of a call on masks exceeds 9
    # multiplications.  The loop translates A by 0 and by 1, 6 multiplications;
    # then only 5 is missing, fewer than |A|, and one multiplication, 5 - 3,
    # finishes on the complement: 7
    tiny = GSet(CyclicGroup(6), [(0,), (1,), (3,)])
    assert _multiplies(monkeypatch, tiny.group, lambda: product(tiny, tiny)) == 7
    assert "masks" not in vars(tiny.group)


def test_the_rule_sends_a_quad_build_ball_to_the_masks(monkeypatch):
    a = generate(QUAD_BUILD_BALL)
    assert _multiplies(monkeypatch, a.group, lambda: doubling_stats(a)) == 0


def test_the_rule_keeps_many_small_heisenberg_products_on_the_loop(monkeypatch):
    # four elements of Heisenberg mod 3, the smallest many-small size: a
    # call on masks costs more than its 16 multiplications
    h3 = HeisenbergGroup(3)
    a = GSet(h3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 1)])
    assert _multiplies(monkeypatch, h3, lambda: product(a, a)) == 16
    assert "masks" not in vars(h3)


@pytest.mark.parametrize("p, size", [(9, 8), (5, 6)], ids=["h9-random-8", "h5-random-6"])
def test_the_rule_sends_small_random_heisenberg_stats_to_the_masks(monkeypatch, p, size):
    # the loop multiplies A^2, AA^-1 and then the chain, 3,492 pairs on the
    # random 8 mod 9, where the masks make 32 translates at about 320 steps
    a = generate({"group": {"type": "heisenberg_mod", "p": p}, "set": {"type": "random", "size": size, "seed": 0}})
    assert _multiplies(monkeypatch, a.group, lambda: doubling_stats(a)) == 0


@pytest.mark.parametrize("p, elements", [
    (4, [(0, 0, 3), (1, 0, 2)]),
    (3, [(0, 0, 0), (1, 0, 0), (0, 1, 2)]),
    (2, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]),
], ids=["h4-two", "h3-three", "h2-four"])
def test_the_rule_keeps_the_smallest_many_small_heisenberg_stats_on_the_loop(monkeypatch, p, elements):
    # many-small's heisenberg_mod15 is two elements mod 4, whose whole stats
    # multiply fewer pairs than one call on masks costs; three elements mod 3
    # and four mod 2 are priced at 99 and 96 pairs, but their products soon
    # fill the group and the loop beats the masks' kernel build and 12 or 16
    # translates
    group = HeisenbergGroup(p)
    a = GSet(group, elements)
    assert _multiplies(monkeypatch, group, lambda: doubling_stats(a)) > 0
    assert "masks" not in vars(group)


@pytest.mark.parametrize("group", [CyclicGroup(10**12), DihedralGroup(10**12), HeisenbergGroup(10**4)],
                         ids=["cyclic", "dihedral", "heisenberg"])
def test_a_kernel_the_rule_turns_down_is_never_built(group):
    # a kernel holds an int of |G| bits, so the rule must decide before building one
    assert type(gset._kernel(group, 30, 900)) is Loop
    assert "masks" not in vars(group)


# -- the oracle does not use the kernel -------------------------------------------


def test_verify_needs_no_mask_hook(monkeypatch):
    specs = [{"group": {"type": "cyclic", "n": 200}, "set": {"type": "interval", "start": 3, "length": 12}},
             SHRINK_SCAN_COSETS, QUAD_BUILD_BALL]
    runs = [(spec, generate(spec)) for spec in specs]
    certs = [(spec, a, stable_neighbourhood(a, 2, instance=spec).to_json_dict()) for spec, a in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("a mask hook was used")

    for cls in (CyclicGroup, DihedralGroup, HeisenbergGroup):
        monkeypatch.setattr(cls, "masks", property(refuse))
    for cls in (masks.Rotations, masks.CyclicMasks, masks.DihedralMasks, masks.HeisenbergMasks):
        for name, value in list(vars(cls).items()):
            if callable(value) and not name.startswith("__"):
                monkeypatch.setattr(cls, name, refuse)
    for spec, a, cert in certs:
        assert verify_certificate(cert, a.elements, instance=spec).overall
    # the patches hold: the fast path, which asks for the masks, now fails
    with pytest.raises(AssertionError):
        product(fresh(runs[0][1]), fresh(runs[0][1]))
