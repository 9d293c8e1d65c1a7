"""Brute-force oracles and the certificate verifier."""

import copy
from fractions import Fraction

import pytest

from symgrowth.errors import CertificateFormatError, PairBudgetError, ParameterError
from symgrowth.groups import CyclicGroup, DihedralGroup, HeisenbergGroup
from symgrowth.gset import GSet, set_pair_budget
from symgrowth.growth import stable_neighbourhood
from symgrowth.oracle import (
    oracle_conv_table,
    oracle_conv_value,
    oracle_inverse,
    oracle_level_set,
    oracle_overlap,
    oracle_power,
    oracle_product,
    oracle_quadruples,
    oracle_sym_members,
    termination_cap,
    verify_certificate,
)
from symgrowth.symmetry import overlap, sym_set

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
            fast = sym_set(a, eta).members.elements
            slow = oracle_sym_members(group, a.elements, eta)
            assert fast == slow


def test_oracle_overlap_agrees_with_fast_overlap():
    d6 = DihedralGroup(6)
    a = GSet(d6, [(0, 0), (1, 0), (0, 1), (2, 1)])
    for i in range(d6.order):
        t = d6.element_at(i)
        assert overlap(a, t) == oracle_overlap(d6, a.elements, t)


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


# -- certificate verification: honest certificates ----------------------------


def test_verifier_accepts_fresh_certificate():
    cert = fresh_cert()
    report = verify_certificate(cert, INTERVAL.elements)
    assert report.overall
    assert report.failures() == []
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
    assert [c.name for c in report.failures()] == ["instance_spec_matches"]


def test_verifier_report_as_dict():
    report = verify_certificate(fresh_cert(), INTERVAL.elements)
    blob = report.as_dict()
    assert blob["overall"] is True
    assert all(c["pass"] for c in blob["checks"])


# -- certificate verification: tampering --------------------------------------


def test_verifier_flags_corrupted_neighbourhood():
    cert = fresh_cert()
    cert["s"][0] = [10]
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    failed = {c.name for c in report.failures()}
    assert "s_matches_symmetry_set" in failed


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
    assert "ledger.step0.level_set_lower" in {c.name for c in report.failures()}


def test_verifier_flags_doctored_trace_witness():
    cert = fresh_cert()
    cert["trace"]["steps"][0]["t"] = [4]
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert "step0.t" in {c.name for c in report.failures()}


def test_verifier_flags_wrong_epsilon():
    cert = fresh_cert(k=2)
    cert["epsilon"] = "1/4"
    report = verify_certificate(cert, INTERVAL.elements)
    assert not report.overall
    assert "epsilon_matches_k" in {c.name for c in report.failures()}


def test_verifier_flags_unverified_flag():
    cert = fresh_cert()
    cert["verified"] = False
    report = verify_certificate(cert, INTERVAL.elements)
    assert "verified_flag" in {c.name for c in report.failures()}


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
    assert "ledger_names" in {c.name for c in report.failures()}


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


def test_verifier_rejects_bad_group_spec():
    cert = fresh_cert()
    cert["instance"]["group"] = {"type": "nonsense"}
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_rejects_decimal_fractions():
    cert = fresh_cert()
    cert["epsilon"] = "0.333"
    with pytest.raises(ParameterError):
        verify_certificate(cert, INTERVAL.elements)


def test_verifier_rejects_bad_k():
    cert = fresh_cert()
    cert["k"] = 0
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
    assert "format" in {c.name for c in report.failures()}


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


def test_verifier_rejects_s_entry_of_wrong_width():
    cert = fresh_cert()
    cert["s"][0].append(0)
    with pytest.raises(CertificateFormatError):
        verify_certificate(cert, INTERVAL.elements)


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
