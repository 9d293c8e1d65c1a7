"""Acceptance suite: the headline guarantees at their stated tolerances.

Each test covers one criterion, computes its verdict over the whole fixed
instance suite (or the required number of random draws), registers a
one-line PASS/FAIL summary that conftest prints after the run, and then
asserts.  All comparisons are exact; the only tolerance anywhere is the
wall-clock limit on the suite build.
"""

import copy
import time
from fractions import Fraction

import pytest

from symgrowth.groups import group_from_spec
from symgrowth.gset import GSet, inverse_set, level_set, product
from symgrowth.growth import almost_invariant, shrink_step, stable_neighbourhood
from symgrowth.instances import generate
from symgrowth.oracle import (
    oracle_power,
    oracle_product,
    verify_certificate,
)
from symgrowth.serialize import canonical_dumps
from symgrowth.symmetry import sym_set

from conftest import (
    SIDES,
    CounterStream,
    check_iterated_power,
    check_nesting,
    check_submultiplicativity,
    conv_table,
    from_both_ends,
    oracle_inverse,
    oracle_level_set,
    oracle_overlap,
    oracle_overlaps,
    oracle_quadruples,
    oracle_sym_members,
    on_side,
    pair_energy,
    record_acceptance,
    small_group_pool,
)

WALL_LIMIT_SECONDS = 300.0


def _spec(group, set_spec):
    return {"group": group, "set": set_spec}


def _cyclic(n):
    return {"type": "cyclic", "n": n}


def _interval(n, start, length, k):
    return (f"interval-c{n}-s{start}-l{length}-k{k}",
            _spec(_cyclic(n), {"type": "interval", "start": start, "length": length}), k)


# a fixed suite of 35 instances covering the named families and k in {1,2,3,5}
SUITE = [
    # subgroups
    ("subgroup-c20-k3", _spec(_cyclic(20), {"type": "subgroup", "generators": [[4]]}), 3),
    ("subgroup-c24-k5", _spec(_cyclic(24), {"type": "subgroup", "generators": [[3]]}), 5),
    ("subgroup-d6-rotations-k2",
     _spec({"type": "dihedral", "n": 6}, {"type": "subgroup", "generators": [[1, 0]]}), 2),
    ("subgroup-h3-k3",
     _spec({"type": "heisenberg_mod", "p": 3}, {"type": "subgroup", "generators": [[1, 0, 0]]}), 3),
    # coset unions
    ("coset-union-c24-k2",
     _spec(_cyclic(24), {"type": "coset_union", "generators": [[6]], "reps": [[0], [1]]}), 2),
    ("coset-union-c60-k3",
     _spec(_cyclic(60), {"type": "coset_union", "generators": [[12]], "reps": [[0], [1]]}), 3),
    ("coset-union-h3-k2",
     _spec({"type": "heisenberg_mod", "p": 3},
           {"type": "coset_union", "generators": [[0, 0, 1]], "reps": [[0, 0, 0], [1, 0, 0]]}), 2),
    ("coset-union-d8-k1",
     _spec({"type": "dihedral", "n": 8},
           {"type": "coset_union", "generators": [[2, 0]], "reps": [[0, 0], [0, 1]]}), 1),
    # intervals in cyclic(20..200)
    _interval(20, 0, 5, 1),
    _interval(20, 0, 5, 2),
    _interval(20, 0, 5, 3),
    _interval(20, 0, 5, 5),
    _interval(31, 0, 6, 2),
    _interval(40, 3, 7, 2),
    _interval(60, 0, 10, 3),
    _interval(100, 10, 12, 2),
    _interval(200, 0, 25, 3),
    _interval(200, 50, 40, 5),
    # Cayley balls in dihedral(6..16)
    ("ball-d6-r2-k2",
     _spec({"type": "dihedral", "n": 6},
           {"type": "ball", "generators": [[1, 0], [0, 1]], "radius": 2}), 2),
    ("ball-d8-r2-k3",
     _spec({"type": "dihedral", "n": 8},
           {"type": "ball", "generators": [[1, 0], [0, 1]], "radius": 2}), 3),
    ("ball-d10-r3-k2",
     _spec({"type": "dihedral", "n": 10},
           {"type": "ball", "generators": [[1, 0], [0, 1]], "radius": 3}), 2),
    ("ball-d12-r3-k3",
     _spec({"type": "dihedral", "n": 12},
           {"type": "ball", "generators": [[1, 0], [0, 1]], "radius": 3}), 3),
    ("ball-d16-r4-k5",
     _spec({"type": "dihedral", "n": 16},
           {"type": "ball", "generators": [[1, 0], [0, 1]], "radius": 4}), 5),
    ("ball-d16-r3-k1",
     _spec({"type": "dihedral", "n": 16},
           {"type": "ball", "generators": [[2, 0], [0, 1]], "radius": 3}), 1),
    # Cayley balls in heisenberg_mod(3, 5)
    ("ball-h3-r2-k2",
     _spec({"type": "heisenberg_mod", "p": 3},
           {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0]], "radius": 2}), 2),
    ("ball-h3-r3-k3",
     _spec({"type": "heisenberg_mod", "p": 3},
           {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0]], "radius": 3}), 3),
    ("ball-h5-r2-k2",
     _spec({"type": "heisenberg_mod", "p": 5},
           {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0]], "radius": 2}), 2),
    ("ball-h5-r2-k3",
     _spec({"type": "heisenberg_mod", "p": 5},
           {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "radius": 2}), 3),
    ("ball-h5-r3-k1",
     _spec({"type": "heisenberg_mod", "p": 5},
           {"type": "ball", "generators": [[1, 0, 0], [0, 1, 0]], "radius": 3}), 1),
    # perturbed subgroups
    ("perturbed-c32-s1-k2",
     _spec(_cyclic(32), {"type": "perturbed_subgroup", "generators": [[4]], "swaps": 1, "seed": 5}), 2),
    ("perturbed-c32-s2-k2",
     _spec(_cyclic(32), {"type": "perturbed_subgroup", "generators": [[4]], "swaps": 2, "seed": 9}), 2),
    ("perturbed-c36-s1-k3",
     _spec(_cyclic(36), {"type": "perturbed_subgroup", "generators": [[6]], "swaps": 1, "seed": 2}), 3),
    ("perturbed-d9-s2-k2",
     _spec({"type": "dihedral", "n": 9},
           {"type": "perturbed_subgroup", "generators": [[1, 0]], "swaps": 2, "seed": 11}), 2),
    ("perturbed-h3-s2-k2",
     _spec({"type": "heisenberg_mod", "p": 3},
           {"type": "perturbed_subgroup", "generators": [[0, 1, 0], [0, 0, 1]], "swaps": 2, "seed": 3}), 2),
    ("perturbed-c48-s3-k5",
     _spec(_cyclic(48), {"type": "perturbed_subgroup", "generators": [[8]], "swaps": 3, "seed": 7}), 5),
]

KS = sorted({k for _, _, k in SUITE})
assert len(SUITE) >= 30 and KS == [1, 2, 3, 5]


@pytest.fixture(scope="module")
def suite():
    """All suite certificates, built once; wall time of the build recorded."""
    rows = []
    t0 = time.perf_counter()
    for name, spec, k in SUITE:
        a = generate(spec)
        cert = stable_neighbourhood(a, k, instance=spec)
        rows.append({"name": name, "spec": spec, "k": k, "a": a, "cert": cert})
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "elapsed": elapsed}


def test_criterion_power_containment(suite):
    """Verified certificate with S symmetric, identity inside, S^k in A^2A^-2."""
    failures = []
    for row in suite["rows"]:
        cert, a, k = row["cert"], row["a"], row["k"]
        s = cert.s
        a2 = product(a, a)
        quad = product(a2, inverse_set(a2))
        violations = sum(1 for x in oracle_power(s.group, s.elements, k) if x not in quad)
        if not (cert.verified and s.contains_identity() and s.is_symmetric() and violations == 0):
            failures.append(row["name"])
    ok = not failures and suite["elapsed"] < WALL_LIMIT_SECONDS
    record_acceptance(
        "neighbourhood power containment",
        ok,
        f"{len(suite['rows'])} instances, k in {KS}, 0 violations required, "
        f"suite build {suite['elapsed']:.1f}s (limit {WALL_LIMIT_SECONDS:.0f}s)"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures, f"unverified or non-containing instances: {failures}"
    assert suite["elapsed"] < WALL_LIMIT_SECONDS


def test_criterion_step_ledger(suite):
    """Every shrink-step inequality in every suite run holds exactly."""
    checked = 0
    failures = []
    for row in suite["rows"]:
        cert = row["cert"]
        a_size = len(row["a"])
        step_entries = [e for e in cert.ledger if e.name.startswith("step")]
        for e in step_entries:
            checked += 1
            if not e.holds:
                failures.append((row["name"], e.name))
        # the terminate-case size guarantee, restated from the recorded sizes
        last = cert.trace.steps[-1]
        bound = Fraction(len(last.aprime) ** 3, 2 * len(last.product) * a_size)
        if not len(cert.s) >= bound:
            failures.append((row["name"], "terminal symmetry set size"))
    ok = not failures
    record_acceptance(
        "shrink-step ledger",
        ok,
        f"{checked} exact step inequalities over {len(suite['rows'])} runs, 0 failures"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures


def test_criterion_termination(suite):
    """i0 never exceeds the doubling-driven cap; trivial cases stop at once."""
    failures = []
    for row in suite["rows"]:
        trace = row["cert"].trace
        k0, eps = trace.doubling, trace.epsilon
        # smallest m >= 0 with (1-eps)^m K0 <= 1, recomputed here exactly
        cap, value = 0, Fraction(k0)
        while value > 1:
            value *= 1 - eps
            cap += 1
        if trace.i0 > cap:
            failures.append((row["name"], "cap exceeded"))
        if k0 < Fraction(1, 1) / (1 - eps) and trace.i0 != 0:
            failures.append((row["name"], "nontrivial run below the shrink threshold"))
    ok = not failures
    record_acceptance(
        "termination bound",
        ok,
        f"i0 <= ceil(log K0 / -log(1-eps)) on {len(suite['rows'])} runs, "
        "and i0 = 0 whenever K0 < 1/(1-eps)"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures


def _level_set_energy(a: GSet) -> int:
    """Σ_t |A ∩ tA|², read from ``gset.level_set(A, 1)``, which is AA⁻¹, and its lookup of each A ∩ tA."""
    level, overlap = level_set(a, 1)
    return sum(len(list(overlap(t))) ** 2 for t in level.forms)


def test_criterion_counting_identities():
    """pair_energy and the level-set energy on every kernel equal the quadruple oracle; reversal identity is exact."""
    stream = CounterStream(0xC0117)
    pool = small_group_pool()
    draws = 0
    failures = 0

    def check(sets):
        nonlocal draws, failures
        draws += 1
        group = sets[0].group
        fast = pair_energy(*sets)
        slow = oracle_quadruples(group, *(s.elements for s in sets))
        x, y = sets[0], sets[1]
        reversal = pair_energy(x, y, x, y) == pair_energy(
            inverse_set(x), x, y, inverse_set(y)
        )
        # u·v⁻¹ = w·z⁻¹ has |A ∩ tA|² solutions with both sides t, on the loop and on
        # the masks, which count a level set over a support or in Kronecker lanes
        x_inv = oracle_inverse(group, x.elements)
        energy = oracle_quadruples(group, x.elements, x_inv, x.elements, x_inv)
        sides = SIDES if group.mask_kernel is not None else ["loop"]
        for side in sides:
            with on_side(side):
                if _level_set_energy(GSet(group, x.elements)) != energy:
                    failures += 1
        if fast != slow or not reversal:
            failures += 1

    def draw(group, max_size):
        size = 1 + stream.below(max_size)
        seen = {}
        while len(seen) < min(size, group.order):
            seen.setdefault(group.element_at(stream.below(group.order)), None)
        return GSet(group, list(seen))

    for _ in range(480):
        group = pool[stream.below(len(pool))]
        check([draw(group, 6) for _ in range(4)])
    for _ in range(25):
        group = pool[stream.below(len(pool))]
        check([draw(group, 12) for _ in range(4)])
    for _ in range(5):
        # one large set (up to the stated size-30 cap), three small ones
        group = pool[stream.below(len(pool))]
        check([draw(group, 30)] + [draw(group, 5) for _ in range(3)])

    ok = failures == 0 and draws >= 500
    record_acceptance(
        "counting identities",
        ok,
        f"{draws} random quadruples (sizes <= 30): by-definition convolution tables vs 4-loop oracle, "
        "the reversal identity, and the energy of gset.level_set's overlaps on the loop and on masks' "
        f"support and lanes vs 4-loop oracle, {failures} mismatches",
    )
    assert draws >= 500
    assert failures == 0


def test_criterion_symmetry_structure():
    """Nesting, sub-multiplicativity and the iterated power form never fail."""
    stream = CounterStream(0x5CA1E)
    pool = small_group_pool()
    draws = 0
    failures = 0
    for _ in range(500):
        group = pool[stream.below(len(pool))]
        size = 2 + stream.below(7)
        seen = {}
        while len(seen) < min(size, group.order):
            seen.setdefault(group.element_at(stream.below(group.order)), None)
        a = GSet(group, list(seen))

        den = 6 + stream.below(7)
        hi = 1 + stream.below(den)
        lo = 1 + stream.below(hi)
        eps_num, eps_prime_num = 1 + stream.below(5), 1 + stream.below(5)
        k = 2 + stream.below(2)

        draws += 1
        good = (
            check_nesting(a, Fraction(hi, den), Fraction(lo, den))
            and check_submultiplicativity(a, Fraction(eps_num, 12), Fraction(eps_prime_num, 12))
            and check_iterated_power(a, Fraction(1, k + 1 + stream.below(4)), k)
        )
        if not good:
            failures += 1
    ok = failures == 0 and draws >= 500
    record_acceptance(
        "symmetry-set structure",
        ok,
        f"{draws} random (A, eta, eta', eps, eps') draws: nesting, "
        f"sub-multiplicativity, iterated power; {failures} violations",
    )
    assert draws >= 500
    assert failures == 0


def test_criterion_energy_bound():
    """Convolution energy of A' beats |A'|^4 / |A'A| on every sampled pair."""
    stream = CounterStream(0xE4E26)
    pool = small_group_pool()
    draws = 0
    failures = 0
    for _ in range(250):
        group = pool[stream.below(len(pool))]
        size = 2 + stream.below(11)
        seen = {}
        while len(seen) < min(size, group.order):
            seen.setdefault(group.element_at(stream.below(group.order)), None)
        a = GSet(group, list(seen))
        sub_size = 1 + stream.below(len(a))
        aprime = GSet(group, a.elements[:sub_size])

        draws += 1
        energy = sum(len(terms) ** 2 for terms in conv_table(aprime, aprime).values())
        bound = Fraction(len(aprime) ** 4, len(product(aprime, a)))
        if not energy >= bound:
            failures += 1
    ok = failures == 0
    record_acceptance(
        "energy lower bound",
        ok,
        f"{draws} sampled pairs A' within A, exact comparison, {failures} failures",
    )
    assert failures == 0


def test_criterion_pigeonhole(suite):
    """The almost-invariant ratio meets its power bound; the chain stays put."""
    failures = []
    for row in suite["rows"]:
        res = almost_invariant(row["a"], row["k"], instance=row["spec"])
        sizes = res.chain_sizes
        power_bound = res.ratio ** row["k"] <= Fraction(sizes[-1], sizes[0])
        if not (res.ok and power_bound and 0 <= res.l < row["k"]):
            failures.append(row["name"])
    ok = not failures
    record_acceptance(
        "pigeonhole almost-invariance",
        ok,
        f"ratio^k <= |S^kA|/|A| and S^kA inside A^2A^-2A on {len(suite['rows'])} instances"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures


def _oracle_step(group, aprime, a, eps):
    """Replay one shrink step with oracle primitives only."""
    prod = oracle_product(group, aprime, a)
    tau = Fraction(len(aprime) ** 4, 2 * len(prod) * len(a) ** 2)
    level = oracle_level_set(group, aprime, tau)
    limit = (1 - eps) * len(prod)
    for t in level:
        shrunk = tuple(sorted(set(aprime) & {group.multiply(t, v) for v in aprime}))
        if shrunk and len(oracle_product(group, shrunk, a)) <= limit:
            return "shrink", t, shrunk
    threshold = (1 - eps) if eps < 1 else Fraction(1, len(prod))
    return "terminate", None, oracle_sym_members(group, prod, threshold)


def test_criterion_oracle_equivalence_and_faults(suite):
    """Fast paths match oracles; corrupted certificates never get through."""
    stream = CounterStream(0x0AC1E)
    pool = small_group_pool()
    instances = 0
    mismatches = 0
    for _ in range(200):
        group = pool[stream.below(len(pool))]

        def draw():
            size = 2 + stream.below(7)
            seen = {}
            while len(seen) < min(size, group.order):
                seen.setdefault(group.element_at(stream.below(group.order)), None)
            return GSet(group, list(seen))

        a, b = draw(), draw()
        eta = Fraction(1 + stream.below(4), 4)
        eps = Fraction(1, 2 + stream.below(3))
        x = group.element_at(stream.below(group.order))

        instances += 1
        need = eta * len(a)
        level, overlap = level_set(a, need)
        overlaps = oracle_overlaps(group, a.elements)
        agreed = (
            product(a, b).elements == oracle_product(group, a.elements, b.elements)
            and level.elements == oracle_level_set(group, a.elements, need)
            and all(list(map(group.from_form, overlap(group.to_form(t)))) == from_both_ends(overlaps[t]) for t in level)
            and (x in level) == (oracle_overlap(group, a.elements, x) >= need)
            and sym_set(a, eta).elements == oracle_sym_members(group, a.elements, eta)
        )
        out = shrink_step(a, a, eps)
        ocase, ot, opayload = _oracle_step(group, a.elements, a.elements, eps)
        if out.case == "shrink":
            agreed = agreed and ocase == "shrink" and out.t == ot and out.shrunk.elements == opayload
        else:
            agreed = agreed and ocase == "terminate" and out.sym.elements == opayload
        if not agreed:
            mismatches += 1

    injected = 0
    detected = 0
    rows = suite["rows"]
    for i in range(50):
        row = rows[i % len(rows)]
        cert = copy.deepcopy(row["cert"].to_json_dict())
        s = cert["s"]
        group = group_from_spec(cert["instance"]["group"])
        outside = next(
            (list(group.element_at(j)) for j in range(group.order)
             if list(group.element_at(j)) not in s),
            None,
        )
        mode = i % 3
        if mode == 0 and outside is not None:
            s[i % len(s)] = outside
        elif mode == 1 and outside is not None:
            s.append(outside)
        else:
            del s[len(s) // 2]
        cert["s"] = sorted(s)
        injected += 1
        report = verify_certificate(cert, row["a"].elements)
        if not report.overall:
            detected += 1

    ok = mismatches == 0 and injected == 50 and detected == injected
    record_acceptance(
        "oracle equivalence and fault injection",
        ok,
        f"{instances} random instances across product/level/sym/step, "
        f"{mismatches} mismatches; {detected}/{injected} corrupted certificates detected",
    )
    assert instances >= 200
    assert mismatches == 0
    assert detected == injected == 50


def test_criterion_determinism(suite):
    """Re-running any suite instance reproduces the certificate byte for byte."""
    failures = []
    for row in suite["rows"]:
        again = stable_neighbourhood(generate(row["spec"]), row["k"], instance=row["spec"])
        if canonical_dumps(again.to_json_dict()) != canonical_dumps(row["cert"].to_json_dict()):
            failures.append(row["name"])
    ok = not failures
    record_acceptance(
        "byte-identical determinism",
        ok,
        f"{len(suite['rows'])} instances re-run and compared as canonical JSON bytes"
        + (f"; failing: {failures}" if failures else ""),
    )
    assert not failures
