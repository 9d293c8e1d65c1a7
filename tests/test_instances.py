"""Instance generators: closures, balls, random draws, sweeps."""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from symgrowth import gset, instances
from symgrowth.errors import EmptySetError, ParameterError
from symgrowth.groups import CyclicGroup, DihedralGroup, Group, HeisenbergGroup, SymmetricGroup
from symgrowth.gset import GSet, inverse_set, product
from symgrowth.instances import (
    ball,
    closure,
    family_sweep,
    generate,
    perturbed_subgroup,
    random_set,
    sweep_from_spec,
)
from symgrowth.prng import splitmix64
from symgrowth.serialize import elements_to_json

from conftest import encode_one_line
from test_groups import BACKENDS

C20 = CyclicGroup(20)


def spec(group_spec, set_spec):
    return {"group": group_spec, "set": set_spec}


# -- direct generators --------------------------------------------------------


def test_closure_of_cyclic_generator():
    h = closure(C20, [(4,)])
    assert h.elements == ((0,), (4,), (8,), (12,), (16,))


def test_closure_is_a_subgroup(stream):
    for group in (DihedralGroup(6), HeisenbergGroup(3)):
        gens = [group.element_at(stream.below(group.order)) for _ in range(2)]
        h = closure(group, gens)
        assert h.contains_identity()
        assert product(h, h) == h
        assert inverse_set(h) == h


def test_closure_with_non_symmetric_generator():
    # a single generator of a finite group still closes into its subgroup
    d6 = DihedralGroup(6)
    h = closure(d6, [(1, 0)])
    assert len(h) == 6
    assert all(flip == 0 for _, flip in h.elements)


def test_ball_radius_zero_is_identity():
    assert ball(C20, [(1,)], 0).elements == ((0,),)


def test_ball_dihedral_worked_example():
    d6 = DihedralGroup(6)
    got = ball(d6, [(1, 0), (0, 1)], 2)
    assert set(got.elements) == {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (5, 1)}


def test_ball_is_one_sided():
    # generators are not symmetrized: radius 2 over {r} in cyclic(20)
    # reaches only 0, 1, 2
    got = ball(C20, [(1,)], 2)
    assert got.elements == ((0,), (1,), (2,))


def test_ball_radii_are_nested():
    hg = HeisenbergGroup(3)
    gens = [(1, 0, 0), (0, 1, 0)]
    sizes = [len(ball(hg, gens, r)) for r in range(5)]
    assert sizes[0] == 1
    assert sizes == sorted(sizes)
    assert sizes[2] == 7 and sizes[3] == 13


def test_ball_stops_growing_at_saturation():
    d3 = DihedralGroup(3)
    assert ball(d3, [(1, 0), (0, 1)], 50).elements == tuple(sorted(d3.elements()))


def test_random_set_is_reproducible():
    a = random_set(C20, 7, seed=123)
    b = random_set(C20, 7, seed=123)
    c = random_set(C20, 7, seed=124)
    assert a == b
    assert len(a) == 7
    assert a != c


def test_random_set_bounds():
    with pytest.raises(EmptySetError):
        random_set(C20, 0, seed=1)
    with pytest.raises(ParameterError):
        random_set(C20, 21, seed=1)
    assert len(random_set(C20, 20, seed=1)) == 20


def test_perturbed_subgroup_zero_swaps_is_subgroup():
    got = perturbed_subgroup(C20, [(4,)], swaps=0, seed=9)
    assert got == closure(C20, [(4,)])


def test_perturbed_subgroup_keeps_size_and_changes_content():
    base = closure(CyclicGroup(32), [(4,)])
    got = perturbed_subgroup(CyclicGroup(32), [(4,)], swaps=2, seed=5)
    assert len(got) == len(base)
    assert got != base
    again = perturbed_subgroup(CyclicGroup(32), [(4,)], swaps=2, seed=5)
    assert got == again


@pytest.mark.parametrize("group, generators, swaps, seed, expected", [
    (CyclicGroup(32), [(4,)], 2, 5, [(0,), (4,), (7,), (12,), (16,), (20,), (22,), (24,)]),
    (DihedralGroup(6), [(1, 0)], 3, 7, [(0, 1), (1, 0), (2, 0), (3, 0), (3, 1), (5, 0)]),
    (SymmetricGroup(4), [(1, 0, 0, 0), (0, 1, 0, 0)], 2, 11,
     [(0, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 0), (1, 2, 1, 0), (2, 1, 0, 0), (3, 0, 1, 0)]),
    (HeisenbergGroup(3), [(1, 0, 0)], 2, 4, [(0, 2, 1), (2, 0, 0), (2, 0, 1)]),
], ids=["c32", "d6", "s4", "heisenberg3"])
def test_perturbed_subgroup_is_pinned(group, generators, swaps, seed, expected):
    assert list(perturbed_subgroup(group, generators, swaps, seed).elements) == expected


def test_perturbed_alternating_group_in_s7_is_quick():
    # A7 = <(0 1 2), (0 1 2 3 4 5 6)>, 2520 members; each swap walks their
    # sorted indices and never lists the 5040 elements of S7
    s7 = SymmetricGroup(7)
    gens = [encode_one_line(s7, (1, 2, 0, 3, 4, 5, 6)), encode_one_line(s7, (1, 2, 3, 4, 5, 6, 0))]
    start = time.perf_counter()
    got = perturbed_subgroup(s7, gens, swaps=3, seed=1)
    elapsed = time.perf_counter() - start
    assert len(got) == 2520
    assert hashlib.sha256(repr(got.elements).encode()).hexdigest()[:16] == "237c55542f6f405a"
    assert elapsed < 0.5


def _perturbed_by_listing(group, generators, swaps, seed):
    """The swaps that list the complement of the members afresh each time."""
    cur = list(closure(group, generators).elements)
    members = set(cur)
    for j in range(swaps):
        removed = cur.pop(splitmix64(seed, 2 * j) % len(cur))
        complement = [x for x in group.elements() if x not in members]
        if not complement:
            cur.append(removed)
            continue
        added = complement[splitmix64(seed, 2 * j + 1) % len(complement)]
        members.remove(removed)
        members.add(added)
        cur.append(added)
        cur.sort()
    return sorted(cur)


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_perturbed_subgroup_walks_the_members_instead_of_listing_the_group(monkeypatch, group):
    rng = random.Random(group.order)
    generators = [group.element_at(rng.randrange(group.order))]
    for seed in range(4):
        for swaps in (0, 1, 3, 8):
            expected = _perturbed_by_listing(group, generators, swaps, seed)
            charged, listed = [], []
            with monkeypatch.context() as m:
                m.setattr(instances, "charge_pairs", charged.append)
                m.setattr(Group, "elements", lambda g: listed.append(g))
                got = perturbed_subgroup(group, generators, swaps, seed)
            assert list(got.elements) == expected
            assert listed == []
            assert charged[-1] == len(got) * max(swaps, 1)


def test_perturbed_whole_group_is_a_noop():
    # complement is empty, so swaps cannot change anything
    got = perturbed_subgroup(CyclicGroup(6), [(1,)], swaps=3, seed=2)
    assert len(got) == 6


# -- spec-driven generation ---------------------------------------------------


def test_generate_explicit():
    got = generate(spec({"type": "cyclic", "n": 20},
                        {"type": "explicit", "elements": [[3], [1]]}))
    assert got.elements == ((1,), (3,))


def test_generate_subgroup_and_coset_union():
    sub = generate(spec({"type": "cyclic", "n": 24},
                        {"type": "subgroup", "generators": [[6]]}))
    assert sub.elements == ((0,), (6,), (12,), (18,))
    union = generate(spec({"type": "cyclic", "n": 24},
                          {"type": "coset_union", "generators": [[6]],
                           "reps": [[0], [1]]}))
    assert set(union.elements) == {(0,), (1,), (6,), (7,), (12,), (13,), (18,), (19,)}


def _no_set_kernel(*args):
    raise AssertionError("instance generation ran a set kernel")


def test_coset_union_uses_left_cosets(monkeypatch):
    monkeypatch.setattr(gset, "_kernel", _no_set_kernel)
    d4 = DihedralGroup(4)
    got = generate(spec({"type": "dihedral", "n": 4},
                        {"type": "coset_union", "generators": [[2, 0]],
                         "reps": [[0, 1]]}))
    # (0,1) * {(0,0),(2,0)} under s r^2 = r^-2 s
    assert set(got.elements) == {(0, 1), (2, 1)}
    assert got == GSet(d4, [d4.multiply((0, 1), h) for h in closure(d4, [(2, 0)])])
    # two cosets of a subgroup of order 28 in D140, which gset.product would put on the masks
    d140 = DihedralGroup(140)
    sub = closure(d140, [(5, 0)])
    got = generate(spec({"type": "dihedral", "n": 140},
                        {"type": "coset_union", "generators": [[5, 0]], "reps": [[3, 0], [9, 1]]}))
    assert got == GSet(d140, [d140.multiply(rep, h) for rep in ((3, 0), (9, 1)) for h in sub])


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_coset_union_is_the_rep_times_h_loop(monkeypatch, group):
    # the union R·H is built by the element law with no set kernel, and charged
    # |R|·|H| for the distinct reps R after the closure's charges, with R
    # holding a repeated rep, and with |R| + |H| > |G|, where it is the whole group
    rng = random.Random(group.order)
    gen = group.element_at(rng.randrange(group.order))
    few = [group.element_at(rng.randrange(group.order)) for _ in range(2)]
    charged = []
    monkeypatch.setattr(instances, "charge_pairs", charged.append)
    monkeypatch.setattr(gset, "_kernel", _no_set_kernel)
    sub = closure(group, [gen])
    closing = list(charged)
    for reps in (few + few[:1], [*group.elements(), gen]):
        charged.clear()
        got = generate(spec(group.describe(), {"type": "coset_union", "generators": elements_to_json([gen]),
                                               "reps": elements_to_json(reps)}))
        assert got == GSet(group, [group.multiply(rep, h) for rep in reps for h in sub])
        assert charged == closing + [len(set(reps)) * len(sub)]


def test_generate_interval():
    got = generate(spec({"type": "cyclic", "n": 20},
                        {"type": "interval", "start": 18, "length": 5}))
    assert set(got.elements) == {(18,), (19,), (0,), (1,), (2,)}


def test_interval_requires_cyclic_group():
    with pytest.raises(ParameterError):
        generate(spec({"type": "dihedral", "n": 5},
                      {"type": "interval", "start": 0, "length": 3}))


def test_interval_length_bounds():
    with pytest.raises(ParameterError):
        generate(spec({"type": "cyclic", "n": 20},
                      {"type": "interval", "start": 0, "length": 0}))
    with pytest.raises(ParameterError):
        generate(spec({"type": "cyclic", "n": 20},
                      {"type": "interval", "start": 0, "length": 21}))


def test_generate_ball_and_random():
    b = generate(spec({"type": "heisenberg_mod", "p": 3},
                      {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0]],
                       "radius": 2}))
    assert len(b) == 7
    r = generate(spec({"type": "cyclic", "n": 20},
                      {"type": "random", "size": 5, "seed": 77}))
    assert r == random_set(C20, 5, seed=77)


def test_generate_rejects_unknown_type():
    with pytest.raises(ParameterError):
        generate(spec({"type": "cyclic", "n": 20}, {"type": "blob"}))
    with pytest.raises(ParameterError):
        generate(spec({"type": "cyclic", "n": 20}, {}))
    with pytest.raises(ParameterError):
        generate("not a dict")


@pytest.mark.parametrize("group_spec, set_spec, calls", [
    ({"type": "cyclic", "n": 100}, {"type": "explicit", "elements": [[i] for i in range(0, 80, 2)]}, 40),
    ({"type": "cyclic", "n": 100}, {"type": "coset_union", "generators": [[10], [25]], "reps": [[1], [2], [3]]}, 5),
    ({"type": "cyclic", "n": 100}, {"type": "ball", "generators": [[1], [7], [30]], "radius": 3}, 3),
    ({"type": "cyclic", "n": 100}, {"type": "perturbed_subgroup", "generators": [[20], [50]], "swaps": 2, "seed": 1}, 2),
    ({"type": "symmetric", "n": 4}, {"type": "subgroup", "generators": [[1, 1, 1, 0], [0, 2, 1, 0]]}, 2),
], ids=["explicit", "coset_union", "ball", "perturbed_subgroup", "s4-subgroup"])
def test_generate_validates_each_given_element_once(monkeypatch, group_spec, set_spec, calls):
    seen = []
    real = Group.validate

    def counting(self, x):
        seen.append(x)
        return real(self, x)

    monkeypatch.setattr(Group, "validate", counting)
    generate(spec(group_spec, set_spec))
    assert len(seen) == calls


def test_generate_validates_elements():
    with pytest.raises(ParameterError):
        generate(spec({"type": "cyclic", "n": 20},
                      {"type": "explicit", "elements": []}))


# -- sweeps ---------------------------------------------------------------


def test_sweep_interval_lengths_have_closed_form_doubling():
    base = spec({"type": "cyclic", "n": 40}, {"type": "interval", "start": 0, "length": 2})
    rows = family_sweep(base, {"set.length": list(range(2, 11))})
    assert len(rows) == 9
    for (point, values, stats), length in zip(rows, range(2, 11)):
        assert values == (length,)
        assert point["set"]["length"] == length
        # an interval of length l doubles to length 2l - 1
        assert stats.doubling == Fraction(2 * length - 1, length)


def test_sweep_visits_grid_in_row_major_order():
    base = spec({"type": "cyclic", "n": 30}, {"type": "interval", "start": 0, "length": 3})
    rows = family_sweep(base, {"set.start": [0, 5], "set.length": [3, 4]})
    seen = [(p["set"]["start"], p["set"]["length"]) for p, _, _ in rows]
    assert seen == [(0, 3), (0, 4), (5, 3), (5, 4)]
    assert [values for _, values, _ in rows] == seen


def test_sweep_leaves_base_untouched():
    base = spec({"type": "cyclic", "n": 30}, {"type": "interval", "start": 0, "length": 3})
    family_sweep(base, {"set.length": [4, 5]})
    assert base["set"]["length"] == 3


def test_sweep_copies_grid_values_into_each_row():
    # a later key ("set.length") must not reach through an earlier key's
    # value ("set") into the grid or into the other rows
    base = spec({"type": "cyclic", "n": 40}, {"type": "interval", "start": 0, "length": 2})
    interval = {"type": "interval", "start": 0, "length": 2}
    grid = {"set": [interval], "set.length": [3, 4]}
    rows = family_sweep(base, grid)
    assert [p["set"]["length"] for p, _, _ in rows] == [3, 4]
    assert [stats.size for _, _, stats in rows] == [3, 4]
    assert [values for _, values, _ in rows] == [(interval, 3), (interval, 4)]
    assert grid == {"set": [{"type": "interval", "start": 0, "length": 2}], "set.length": [3, 4]}


def test_sweep_validates_grid():
    base = spec({"type": "cyclic", "n": 30}, {"type": "interval", "start": 0, "length": 3})
    with pytest.raises(ParameterError):
        family_sweep(base, {})
    with pytest.raises(ParameterError):
        family_sweep(base, {"set.length": []})
    with pytest.raises(ParameterError):
        family_sweep(base, {"set.length.deep": [1]})


def test_sweep_from_spec_refuses_a_spec_that_is_not_an_object():
    base = spec({"type": "cyclic", "n": 30}, {"type": "interval", "start": 0, "length": 3})
    assert sweep_from_spec({"base": base, "grid": {"set.length": [3]}}) == (base, {"set.length": [3]})
    for bad in ([base], "sweep", None, 3):
        with pytest.raises(ParameterError, match="must be a JSON object"):
            sweep_from_spec(bad)
