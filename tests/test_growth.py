"""Shrink steps, the iteration, the driver certificate, almost-invariance.

Worked numeric cases use the length-5 interval A = {0..4} in cyclic(20):
|A'A| and the overlaps are small enough to track by hand, and every frozen
constant below was recomputed independently (by the brute-force oracles and
by hand) before being frozen here.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth import growth, oracle
from symgrowth.errors import EmptySetError, ParameterError
from symgrowth.groups import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    HeisenbergGroup,
    SymmetricGroup,
    TableGroup,
)
from symgrowth.gset import GSet, inverse_set, product
from symgrowth.growth import (
    CERT_METADATA,
    almost_invariant,
    iterate_shrink,
    shrink_step,
    stable_neighbourhood,
)
from symgrowth.instances import generate
from symgrowth.masks import CyclicMasks
from symgrowth.oracle import (
    oracle_power,
    oracle_product,
    verify_certificate,
)
from symgrowth.serialize import canonical_dumps

from conftest import SIDES, on_side, oracle_level_set, oracle_sym_members, reference_scan

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
    assert out.shrunk_product_size == 8
    assert all(e.holds for e in out.entries)
    names = [e.name for e in out.entries]
    assert names == ["level_set_lower", "shrink_size_lower", "shrink_product_upper"]


def test_step_terminate_case_on_interval():
    out = shrink_step(INTERVAL, INTERVAL, Fraction(1, 2))
    assert out.case == "terminate"
    assert out.threshold == Fraction(1, 2)
    # |A'A ∩ t + A'A| = 9 - |t| >= 4.5 exactly when |t| <= 4
    assert set(out.sym.elements) == {
        (0,), (1,), (2,), (3,), (4,), (16,), (17,), (18,), (19,)
    }
    assert out.level_set.subset_of(out.sym)
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
    assert out.sym == H5


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
    """A dihedral group that counts its multiplications, each of which runs ``form_multiply``."""

    # no masks, so the step runs the loop kernel whose multiplications are counted
    mask_kernel = None

    def __init__(self, n):
        super().__init__(n)
        self.calls = 0

    def form_multiply(self, f, g):
        self.calls += 1
        return super().form_multiply(f, g)


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


def _table_of(group):
    """``group`` as a TableGroup whose row i is ``group.element_at(i)``."""
    elems = [group.element_at(i) for i in range(group.order)]
    index = {x: i for i, x in enumerate(elems)}
    return TableGroup([[index[group.multiply(x, y)] for y in elems] for x in elems])


# one small group per backend; the first three have masks
SIX_BACKENDS = [
    CyclicGroup(14),
    DihedralGroup(6),
    HeisenbergGroup(3),
    SymmetricGroup(4),
    DirectProductGroup([CyclicGroup(2), DihedralGroup(3)]),
    _table_of(DihedralGroup(5)),
]


def _reference_step(aprime, a, eps):
    """The case, t, A' ∩ tA', its product's size and the entries of a step, every product built in full by the oracle."""
    g = aprime.group
    nap, na, n_p = len(aprime), len(a), len(oracle_product(g, aprime, a))
    tau = Fraction(nap**4, 2 * n_p * na**2)
    level = oracle_level_set(g, aprime, tau)
    entries = [("level_set_lower", "ge", len(level), Fraction(nap**3, 2 * n_p * na))]
    t, cand = reference_scan(g, aprime.elements, a.elements, eps)
    if t is not None:
        size = len(oracle_product(g, cand, a))
        entries += [("shrink_size_lower", "ge", len(cand), tau), ("shrink_product_upper", "le", size, (1 - eps) * n_p)]
        return "shrink", t, cand, size, entries
    threshold = (1 - eps) if eps < 1 else Fraction(1, n_p)
    sym = oracle_sym_members(g, oracle_product(g, aprime, a), threshold)
    entries += [("sym_size_lower", "ge", len(sym), len(level)), ("level_set_in_sym", "eq", len(set(level) - set(sym)), 0)]
    return "terminate", None, None, None, entries


@st.composite
def step_inputs(draw):
    group = draw(st.sampled_from(SIX_BACKENDS))
    index = st.integers(0, group.order - 1)
    a = draw(st.lists(index, min_size=1, max_size=12, unique=True))
    aprime = draw(st.lists(st.sampled_from(a), min_size=1, unique=True))
    return GSet(group, map(group.element_at, a)), GSet(group, map(group.element_at, aprime))


@given(st.sampled_from(sorted(SIDES)), step_inputs(), st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]))
def test_shrink_step_matches_a_full_reference_scan(side, sets, eps):
    # each side of the cost rule: the loop, or the masks (where the group has them) with level sets
    # counted by popcount or by lanes; the scan drops a candidate once its union of rows passes
    # (1-eps)|A'A|, and the step must not change
    a, aprime = sets
    with on_side(side):
        out = shrink_step(GSet(a.group, aprime.elements), GSet(a.group, a.elements), eps)
    case, t, shrunk, size, entries = _reference_step(aprime, a, eps)
    assert (out.case, out.t, out.shrunk_product_size) == (case, t, size)
    assert (out.shrunk.elements if out.shrunk is not None else None) == shrunk
    assert [(e.name, e.relation, e.lhs, e.rhs, e.holds) for e in out.entries] == [
        (name, relation, lhs, rhs, {"ge": lhs >= rhs, "le": lhs <= rhs, "eq": lhs == rhs}[relation])
        for name, relation, lhs, rhs in entries
    ]


def _rows_per_candidate(monkeypatch) -> list[int]:
    """The rows each scanned candidate ORs, one entry per candidate, filled in as the scan runs."""
    rows = []
    real_row_product, real_level_set = growth.row_product, growth.level_set

    def row_product(x, y):
        p, row = real_row_product(x, y)

        def counted(u):
            rows[-1] += 1
            return row(u)

        return p, counted

    def level_set(x, need):
        level, overlap = real_level_set(x, need)

        def opened(t):
            rows.append(0)
            return overlap(t)

        return level, opened

    monkeypatch.setattr(growth, "row_product", row_product)
    monkeypatch.setattr(growth, "level_set", level_set)
    return rows


D140_COSETS = {"group": {"type": "dihedral", "n": 140},
               "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[3, 0], [9, 1]]}}
C3000_INTERVAL = {"group": {"type": "cyclic", "n": 3000}, "set": {"type": "interval", "start": 17, "length": 75}}


def test_the_scan_stops_each_coset_candidate_within_three_rows(monkeypatch):
    # a shrink-scan coset union in D140: the scan rejects every one of its 56
    # candidates, each of 56 members, and stops each one within three rows
    a = generate(D140_COSETS)
    rows = _rows_per_candidate(monkeypatch)
    out = shrink_step(a, a, Fraction(1, 3))
    assert out.case == "terminate"
    assert (len(a), len(out.product)) == (56, 112)
    assert len(rows) == len(out.level_set) == 56
    # each row uA holds 56 elements, against a limit of floor(2/3 · 112) = 74
    assert max(rows) <= 3


def test_the_scan_stops_each_interval_candidate_within_two_rows(monkeypatch):
    # a shrink-scan interval in C3000: the first 50 candidates are rejected, and
    # the rows of a candidate's highest and lowest members already pass the limit
    a = generate(C3000_INTERVAL)
    rows = _rows_per_candidate(monkeypatch)
    out = shrink_step(a, a, Fraction(1, 3))
    assert out.case == "shrink"
    assert (len(out.product), len(out.shrunk), out.shrunk_product_size) == (149, 25, 99)
    assert len(rows) == 51
    # an interval of m members has a product of m + 74 elements, against a limit of
    # floor(2/3 · 149) = 99: its two extreme rows hold m + 74 of them when m > 25
    assert max(rows[:-1]) <= 2
    # a witness ORs every member
    assert rows[-1] == len(out.shrunk)


#: the seed-0 shrink-scan instances of the benchmark, and a sparse interval that
#: takes the loop, with the rows their ``run --k 2`` ORs and the candidates it scans;
#: OR-ed in ascending order the intervals took 1,374 and 249 rows
SCAN_ROWS = [
    ({"group": {"type": "cyclic", "n": 3000}, "set": {"type": "interval", "start": 2322, "length": 75}}, 174, 100),
    ({"group": {"type": "cyclic", "n": 3000}, "set": {"type": "interval", "start": 1243, "length": 75}}, 174, 100),
    ({"group": {"type": "dihedral", "n": 140},
      "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[98, 0], [134, 1]]}}, 112, 56),
    ({"group": {"type": "dihedral", "n": 140},
      "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[88, 0], [64, 1]]}}, 112, 56),
    ({"group": {"type": "cyclic", "n": 100000}, "set": {"type": "interval", "start": 7, "length": 30}}, 69, 40),
]


@pytest.mark.parametrize("spec, total, candidates", SCAN_ROWS, ids=lambda v: repr(v) if isinstance(v, dict) else str(v))
def test_a_run_ors_the_pinned_rows_over_its_candidates(monkeypatch, spec, total, candidates):
    a = generate(spec)
    rows = _rows_per_candidate(monkeypatch)
    stable_neighbourhood(a, 2)
    assert (sum(rows), len(rows)) == (total, candidates)


def test_the_sparse_interval_scans_on_the_loop(monkeypatch):
    # the masks do not pay on 30 elements of cyclic 100000, so its lookup indexes the convolution table
    monkeypatch.setattr(CyclicMasks, "from_both_ends", lambda self, m: pytest.fail("scanned on masks"))
    a = generate(SCAN_ROWS[-1][0])
    assert shrink_step(a, a, Fraction(1, 3)).case == "shrink"


@pytest.mark.parametrize("spec", [D140_COSETS, C3000_INTERVAL], ids=["cosets", "interval"])
def test_no_rejected_candidate_decodes_its_overlap_on_masks(monkeypatch, spec):
    a = generate(spec)
    kernel = type(a.group.masks)
    rows = _rows_per_candidate(monkeypatch)
    scanning, decoded, members = [True], [], []
    real_decode, real_walk, real_sym_set = kernel.decode, kernel.from_both_ends, growth.sym_set

    def decode(self, m):
        if rows and scanning[0]:
            decoded.append(len(rows))
        return real_decode(self, m)

    def from_both_ends(self, m):
        for i in real_walk(self, m):
            members.append(i)
            yield i

    def sym_set(*args):
        scanning[0] = False
        return real_sym_set(*args)

    monkeypatch.setattr(kernel, "decode", decode)
    monkeypatch.setattr(kernel, "from_both_ends", from_both_ends)
    monkeypatch.setattr(growth, "sym_set", sym_set)
    out = shrink_step(a, a, Fraction(1, 3))
    # the scan took the masks, decoded one bit for each row it OR-ed, and decoded no mask whole
    assert len(members) == sum(rows) > 0
    assert decoded == []
    if out.case == "shrink":
        assert rows[-1] == len(out.shrunk)


# -- the iteration ------------------------------------------------------------


def test_iteration_shrinks_to_singleton_at_small_eps():
    seen = []
    trace = iterate_shrink(INTERVAL, Fraction(1, 10), step_hook=lambda i, out: seen.append((i, out)))
    aprime, sym = trace.steps[-1].aprime, trace.steps[-1].sym
    assert [len(out.aprime) for out in trace.steps] == [5, 4, 3, 2, 1]
    assert [out.case for out in trace.steps] == ["shrink"] * 4 + ["terminate"]
    assert all(out.t == (1,) for out in trace.steps[:4])
    assert trace.i0 == 4
    assert trace.termination_cap == 6
    assert trace.doubling == Fraction(9, 5)
    assert len(aprime) == 1
    assert sym.elements == ((0,),)
    # hook fires once per step, in order
    assert seen == list(enumerate(trace.steps))


def test_iteration_terminates_immediately_at_large_eps():
    trace = iterate_shrink(INTERVAL, Fraction(1, 2))
    aprime, sym = trace.steps[-1].aprime, trace.steps[-1].sym
    assert trace.i0 == 0
    assert aprime == INTERVAL
    assert len(sym) == 9


def test_iteration_on_subgroup_is_trivial():
    trace = iterate_shrink(H5, Fraction(1, 4))
    sym = trace.steps[-1].sym
    assert trace.i0 == 0
    assert sym == H5
    assert trace.doubling == 1
    assert trace.termination_cap == 0


def test_iteration_product_sizes_decay_geometrically():
    trace = iterate_shrink(INTERVAL, Fraction(1, 10))
    k0 = trace.doubling
    for i, out in enumerate(trace.steps):
        assert len(out.product) <= (1 - trace.epsilon) ** i * k0 * 5
        assert len(out.aprime) >= Fraction(5) / (2 * k0) ** ((4**i - 1) // 3)


def test_iteration_with_eps_one_clamps_the_threshold():
    # no shrink is possible at eps = 1, so the run terminates at once and
    # the symmetry threshold clamps to 1/|A'A|, keeping it positive
    trace = iterate_shrink(INTERVAL, 1)
    sym = trace.steps[-1].sym
    assert trace.i0 == 0
    assert trace.steps[-1].threshold == Fraction(1, 9)
    assert len(sym) == 17
    assert trace.termination_cap == 1


# -- driver certificates ------------------------------------------------------


def test_driver_interval_k2():
    cert = stable_neighbourhood(INTERVAL, 2)
    assert cert.epsilon == Fraction(1, 3)
    assert cert.verified
    assert set(cert.s.elements) == {(0,), (1,), (2,), (18,), (19,)}
    assert cert.s_threshold == Fraction(2, 3)
    assert cert.trace.i0 == 1
    assert [out.case for out in cert.trace.steps] == ["shrink", "terminate"]
    assert cert.trace.steps[0].t == (3,)
    assert cert.aprime.elements == ((3,), (4,))


def test_driver_interval_k3():
    cert = stable_neighbourhood(INTERVAL, 3)
    assert cert.verified
    assert set(cert.s.elements) == {(0,), (1,), (19,)}
    a2 = product(INTERVAL, INTERVAL)
    quad = product(a2, inverse_set(a2))
    assert all(x in quad for x in oracle_power(C20, cert.s.elements, 3))


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


def test_containment_checks_build_no_quad_product(monkeypatch):
    # S^k ⊆ A²A⁻² and S^kA ⊆ A²A⁻²A are decided by membership, so no
    # product of A² with A⁻² is ever formed, on the fast path or the oracle
    calls = []

    def recording(real):
        def wrapped(*args):
            calls.append(tuple(frozenset(x) for x in args[-2:]))
            return real(*args)

        return wrapped

    monkeypatch.setattr(growth, "product", recording(growth.product))
    monkeypatch.setattr(growth, "oracle_product", recording(growth.oracle_product))
    monkeypatch.setattr(oracle, "oracle_product", recording(oracle.oracle_product))
    for a in (INTERVAL, GSet(DihedralGroup(6), [(0, 0), (1, 0), (0, 1), (2, 0)])):
        a2 = product(a, a)
        quad_factors = (frozenset(a2), frozenset(inverse_set(a2)))
        cert = stable_neighbourhood(a, 2)
        checks = (
            lambda: stable_neighbourhood(a, 2).verified,
            lambda: verify_certificate(cert.to_json_dict(), a.elements).overall,
            lambda: almost_invariant(a, 2).ok,
        )
        for check in checks:
            calls.clear()
            assert check()
            assert calls and quad_factors not in calls


def test_stable_neighbourhood_reports_a_failed_containment_without_raising(monkeypatch):
    # A²A⁻² of the interval {0..4} in C20 is {-8..8}, so 10 lies outside it
    # the driver's only set product is its power step S·S
    real = growth.product
    monkeypatch.setattr(growth, "product", lambda x, y: GSet(C20, real(x, y).elements + ((10,),)))
    cert = stable_neighbourhood(INTERVAL, 2)
    assert cert.verified is False
    entry = {e.name: e for e in cert.ledger}["power_containment"]
    assert entry.lhs == 1 and not entry.holds


def test_stable_neighbourhood_calls_no_oracle(monkeypatch):
    # the producer builds every set on the fast path; the oracles are the verifier's
    specs = [
        {"group": {"type": "cyclic", "n": 20}, "set": {"type": "interval", "start": 0, "length": 5}},
        {"group": {"type": "dihedral", "n": 40},
         "set": {"type": "coset_union", "generators": [[5, 0]], "reps": [[0, 0], [1, 1]]}},
        {"group": {"type": "symmetric", "n": 6}, "set": {"type": "random", "size": 10, "seed": 0}},
    ]
    runs = [(spec, k) for spec in specs for k in (2, 3)]
    expected = [canonical_dumps(stable_neighbourhood(generate(spec), k, instance=spec).to_json_dict())
                for spec, k in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("stable_neighbourhood called an oracle")

    for module in (oracle, growth):
        for name in dir(module):
            if name.startswith("oracle_"):
                monkeypatch.setattr(module, name, refuse)
    for (spec, k), want in zip(runs, expected):
        assert canonical_dumps(stable_neighbourhood(generate(spec), k, instance=spec).to_json_dict()) == want


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
