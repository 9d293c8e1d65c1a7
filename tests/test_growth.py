"""Shrink steps, the iteration, the driver certificate, almost-invariance.

Worked numeric cases use the length-5 interval A = {0..4} in cyclic(20):
|A'A| and the overlaps are small enough to track by hand, and every frozen
constant below was recomputed independently (by the brute-force oracles and
by hand) before being frozen here.
"""

from fractions import Fraction

import pytest

from symgrowth.errors import EmptySetError, ParameterError
from symgrowth.groups import CyclicGroup, DihedralGroup
from symgrowth.gset import GSet, inverse_set, power, product
from symgrowth.growth import (
    CERT_METADATA,
    almost_invariant,
    iterate_shrink,
    shrink_step,
    stable_neighbourhood,
)
from symgrowth.instances import generate
from symgrowth.serialize import canonical_dumps

C20 = CyclicGroup(20)
INTERVAL = GSet(C20, [(i,) for i in range(5)])
H5 = GSet(C20, [(0,), (4,), (8,), (12,), (16,)])


def cyc_set(n, values):
    return GSet(CyclicGroup(n), [(v % n,) for v in values])


# -- single shrink step -------------------------------------------------------


def test_step_shrink_case_on_interval():
    out = shrink_step(INTERVAL, INTERVAL, Fraction(1, 10))
    assert out.case == "shrink"
    assert out.tau == Fraction(25, 18)
    assert len(out.level_set) == 7
    assert set(out.level_set.elements) == {(0,), (1,), (2,), (3,), (17,), (18,), (19,)}
    # canonical scan order tries t = 0 first (fails: no shrink), then t = 1
    assert out.t == (1,)
    assert out.shrunk.elements == ((1,), (2,), (3,), (4,))
    assert len(out.shrunk_product) == 8
    assert all(e.holds for e in out.entries)
    names = [e.name for e in out.entries]
    assert names == ["level_set_lower", "shrink_size_lower", "shrink_product_upper"]


def test_step_terminate_case_on_interval():
    out = shrink_step(INTERVAL, INTERVAL, Fraction(1, 2))
    assert out.case == "terminate"
    assert out.threshold == Fraction(1, 2)
    # |A'A ∩ t + A'A| = 9 - |t| >= 4.5 exactly when |t| <= 4
    assert set(out.sym.members.elements) == {
        (0,), (1,), (2,), (3,), (4,), (16,), (17,), (18,), (19,)
    }
    assert out.level_set.subset_of(out.sym.members)
    names = [e.name for e in out.entries]
    assert names == ["level_set_lower", "sym_size_lower", "level_set_in_sym"]
    assert all(e.holds for e in out.entries)


def test_step_level_set_bound_entry():
    out = shrink_step(INTERVAL, INTERVAL, Fraction(1, 10))
    bound = out.entries[0]
    assert bound.relation == "ge"
    assert bound.lhs == 7
    assert bound.rhs == Fraction(25, 18)  # |A'|^3 / (2 |A'A| |A|)


def test_step_on_subgroup_terminates_with_subgroup():
    out = shrink_step(H5, H5, Fraction(1, 3))
    assert out.case == "terminate"
    assert out.level_set == H5
    assert out.sym.members == H5


def test_step_identity_is_always_a_candidate():
    out = shrink_step(INTERVAL, INTERVAL, Fraction(1, 10))
    assert (0,) in out.level_set


def test_step_input_validation():
    with pytest.raises(ParameterError):
        shrink_step(GSet(C20, [(9,)]), INTERVAL, Fraction(1, 2))
    with pytest.raises(EmptySetError):
        shrink_step(GSet(C20, []), INTERVAL, Fraction(1, 2))
    for bad_eps in (0, Fraction(11, 10), -1):
        with pytest.raises(ParameterError):
            shrink_step(INTERVAL, INTERVAL, bad_eps)


def test_step_proper_subset_input():
    sub = GSet(C20, [(1,), (2,)])
    out = shrink_step(sub, INTERVAL, Fraction(1, 2))
    assert out.aprime == sub
    assert out.product == product(sub, INTERVAL)
    assert all(e.holds for e in out.entries)


class CountingDihedral(DihedralGroup):
    """A dihedral group that counts its multiplications."""

    def __init__(self, n):
        super().__init__(n)
        self.calls = 0

    def multiply(self, x, y):
        self.calls += 1
        return super().multiply(x, y)


@pytest.mark.parametrize(
    "reps, eps",
    [
        ([[0, 0], [1, 1]], Fraction(1, 3)),  # a subgroup of order 16
        ([[0, 0], [1, 0]], Fraction(1, 2)),  # two rotation cosets, |A'A| = 24
    ],
)
def test_step_multiplications_do_not_grow_with_the_level_set(reps, eps):
    # one pass for A'A, one table of A' with A'^-1, one table of A'A with
    # its inverse; the scan over the level set multiplies nothing
    group = CountingDihedral(40)
    spec = {"group": group.describe(), "set": {"type": "coset_union", "generators": [[5, 0]], "reps": reps}}
    a = GSet(group, generate(spec).elements)
    na, nprod = len(a), len(product(a, a))
    group.calls = 0
    out = shrink_step(a, a, eps)
    assert out.case == "terminate"
    assert len(out.level_set) >= na
    assert group.calls <= na * na + na * na + nprod * nprod


# -- the iteration ------------------------------------------------------------


def test_iteration_shrinks_to_singleton_at_small_eps():
    seen = []
    aprime, sym, trace = iterate_shrink(INTERVAL, Fraction(1, 10), step_hook=seen.append)
    assert [r.aprime_size for r in trace.steps] == [5, 4, 3, 2, 1]
    assert [r.action for r in trace.steps] == ["shrink"] * 4 + ["terminate"]
    assert all(r.t == (1,) for r in trace.steps[:4])
    assert trace.i0 == 4
    assert trace.termination_cap == 6
    assert trace.doubling == Fraction(9, 5)
    assert len(aprime) == 1
    assert sym.members.elements == ((0,),)
    # hook fires once per step, in order
    assert [r.index for r in seen] == [0, 1, 2, 3, 4]


def test_iteration_terminates_immediately_at_large_eps():
    aprime, sym, trace = iterate_shrink(INTERVAL, Fraction(1, 2))
    assert trace.i0 == 0
    assert aprime == INTERVAL
    assert len(sym.members) == 9


def test_iteration_on_subgroup_is_trivial():
    aprime, sym, trace = iterate_shrink(H5, Fraction(1, 4))
    assert trace.i0 == 0
    assert sym.members == H5
    assert trace.doubling == 1
    assert trace.termination_cap == 0


def test_iteration_product_sizes_decay_geometrically():
    _, _, trace = iterate_shrink(INTERVAL, Fraction(1, 10))
    k0 = trace.doubling
    for rec in trace.steps:
        assert rec.product_size <= (1 - trace.epsilon) ** rec.index * k0 * 5
        assert rec.aprime_size >= Fraction(5) / (2 * k0) ** ((4**rec.index - 1) // 3)


def test_iteration_with_eps_one_clamps_the_threshold():
    # no shrink is possible at eps = 1, so the run terminates at once and
    # the symmetry threshold clamps to 1/|A'A|, keeping it positive
    aprime, sym, trace = iterate_shrink(INTERVAL, 1)
    assert trace.i0 == 0
    assert sym.eta == Fraction(1, 9)
    assert len(sym.members) == 17
    assert trace.termination_cap == 1


# -- driver certificates ------------------------------------------------------


def test_driver_interval_k2():
    cert = stable_neighbourhood(INTERVAL, 2)
    assert cert.epsilon == Fraction(1, 3)
    assert cert.verified
    assert set(cert.s.elements) == {(0,), (1,), (2,), (18,), (19,)}
    assert cert.s_threshold == Fraction(2, 3)
    assert cert.trace.i0 == 1
    assert [r.action for r in cert.trace.steps] == ["shrink", "terminate"]
    assert cert.trace.steps[0].t == (3,)
    assert cert.aprime.elements == ((3,), (4,))


def test_driver_interval_k3():
    cert = stable_neighbourhood(INTERVAL, 3)
    assert cert.verified
    assert set(cert.s.elements) == {(0,), (1,), (19,)}
    s2 = power(cert.s, 3)
    a2 = product(INTERVAL, INTERVAL)
    assert s2.subset_of(product(a2, inverse_set(a2)))


def test_driver_subgroup_returns_subgroup():
    cert = stable_neighbourhood(H5, 3)
    assert cert.verified
    assert cert.s == H5
    assert cert.trace.i0 == 0
    assert cert.aprime == H5


def test_driver_subgroup_plus_point():
    # dense perturbation of a subgroup: iteration stops at once and the
    # neighbourhood is the whole group
    c16 = CyclicGroup(16)
    a = GSet(c16, [(i,) for i in range(0, 16, 2)] + [(1,)])
    cert = stable_neighbourhood(a, 2)
    assert cert.verified
    assert cert.trace.i0 == 0
    assert cert.trace.doubling == Fraction(16, 9)
    assert cert.trace.termination_cap == 2
    assert len(cert.s) == 16


def test_driver_ledger_names_for_k2_interval():
    cert = stable_neighbourhood(INTERVAL, 2)
    assert [e.name for e in cert.ledger] == [
        "step0.level_set_lower",
        "step0.shrink_size_lower",
        "step0.shrink_product_upper",
        "step1.level_set_lower",
        "step1.sym_size_lower",
        "step1.level_set_in_sym",
        "identity_in_neighbourhood",
        "neighbourhood_symmetric",
        "power_containment",
        "neighbourhood_size_lower_bound",
        "trace0.product_growth_bound",
        "trace0.size_lower_bound",
        "trace1.product_growth_bound",
        "trace1.size_lower_bound",
        "termination_bound",
    ]
    assert all(e.holds for e in cert.ledger)


def test_driver_ledger_is_exact_fractions():
    cert = stable_neighbourhood(INTERVAL, 2)
    by_name = {e.name: e for e in cert.ledger}
    growth1 = by_name["trace1.product_growth_bound"]
    assert growth1.lhs == 6
    assert growth1.rhs == Fraction(2, 3) * Fraction(9, 5) * 5  # (1-eps) K0 |A|
    size1 = by_name["trace1.size_lower_bound"]
    assert size1.lhs == 2
    assert size1.rhs == Fraction(5) / (2 * Fraction(9, 5))  # |A| / (2K0)^1


def test_driver_embeds_default_instance():
    cert = stable_neighbourhood(INTERVAL, 2)
    assert cert.instance["group"] == {"type": "cyclic", "n": 20}
    assert cert.instance["set"]["type"] == "explicit"
    assert cert.instance["set"]["elements"] == [[0], [1], [2], [3], [4]]


def test_driver_keeps_caller_instance_untouched():
    spec = {"group": {"type": "cyclic", "n": 20},
            "set": {"type": "interval", "start": 0, "length": 5}}
    cert = stable_neighbourhood(INTERVAL, 2, instance=spec)
    assert cert.instance is spec


def test_driver_rejects_bad_k():
    for bad in (0, -1, True, "2", 1.5):
        with pytest.raises(ParameterError):
            stable_neighbourhood(INTERVAL, bad)


def test_driver_nonabelian_ball():
    d6 = DihedralGroup(6)
    ball = GSet(d6, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (5, 1)])
    cert = stable_neighbourhood(ball, 2)
    assert cert.verified
    assert cert.s.contains_identity()
    assert cert.s.is_symmetric()


def test_certificate_json_is_deterministic():
    one = canonical_dumps(stable_neighbourhood(INTERVAL, 2).to_json_dict())
    two = canonical_dumps(stable_neighbourhood(INTERVAL, 2).to_json_dict())
    assert one == two
    assert one.endswith("\n")


def test_certificate_metadata_is_inert_text():
    cert = stable_neighbourhood(INTERVAL, 2)
    blob = cert.to_json_dict()
    assert blob["metadata"] == CERT_METADATA
    assert "exp(-O(k^2 K log K))" in blob["metadata"]["alternative_size_bound"]


# -- almost-invariant level ---------------------------------------------------


def test_almost_invariant_interval_k3():
    res = almost_invariant(INTERVAL, 3)
    assert res.ok
    assert res.chain_sizes == (5, 7, 9, 11)
    assert res.l == 2
    assert res.ratio == Fraction(11, 9)
    assert len(res.astar) == 9
    assert res.certificate.verified


def test_almost_invariant_prefers_smallest_level_on_ties():
    res = almost_invariant(H5, 3)
    assert res.ok
    assert res.chain_sizes == (5, 5, 5, 5)
    assert res.l == 0
    assert res.ratio == 1


def test_almost_invariant_entries():
    res = almost_invariant(INTERVAL, 3)
    by_name = {e.name: e for e in res.entries}
    pig = by_name["pigeonhole_power_bound"]
    assert pig.relation == "le"
    assert pig.lhs == Fraction(11, 9) ** 3
    assert pig.rhs == Fraction(11, 5)
    assert pig.holds
    chain = by_name["chain_in_quad_product"]
    assert chain.lhs == 0 and chain.holds


def test_almost_invariant_k1():
    res = almost_invariant(INTERVAL, 1)
    assert res.ok
    assert res.l == 0
    assert len(res.chain_sizes) == 2
    assert res.ratio == Fraction(res.chain_sizes[1], res.chain_sizes[0])
